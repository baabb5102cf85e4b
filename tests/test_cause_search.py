"""Differential tests: the cause search against the eager clause checks it
replaced.

``RefEpisode``, ``_ac1``, ``_deviations``, ``_ac2``, ``_raw_contrast``,
``_ac2_for_witness`` and ``ref_first_effect_reachable`` below are copies of
the engine's earlier bodies, kept here as the reference: they build every
deviation of a candidate as a (name, behaviour) tuple up front, clamp and
offset every witness set once per candidate, test AC1 edges with
per-component closures, and run each counterfactual search with its own
queue.  ``_ac1`` and ``ref_first_effect_reachable`` check the state cap as
each configuration is added, the start included.
Certificates, their order and cap overruns (cap, size, phase) must agree
exactly.  ``_changed_components``, ``_certify_link`` and
``ref_classify_intervention_effect`` are copies of the link rule and of
intervention classification as they were on configurations, before links
became one table on state numbers; chains, the order of link
certifications and classifications must agree with them.
"""

import random
import sys
from dataclasses import replace
from itertools import combinations, permutations, product

import pytest

from causalmc import causality, kernel
from causalmc.causality import (
    CauseCertificate,
    CauseQuery,
    DeviationCheck,
    SubsetRefutation,
    check_cause,
    find_causes,
)
from causalmc.dsl import parse_model
from causalmc.generate import random_configuration, random_system_model
from causalmc.model import CapExceeded, Configuration, ModelError, Options, clamping_intervention, reachable


class RefEpisode:
    def __init__(self, model, q, mode, options):
        self.model, self.q, self.mode, self.options = model, q, mode, options
        self.verdicts: dict = {}
        self.searches: dict = {}
        self.k = k = kernel.compile(model)
        self.start, self.end = k.encode(q.start), k.encode(q.end)
        self.start_digits, self.end_digits = k.digits(self.start), k.digits(self.end)
        self.effect = [self.place(c) for c in q.effect_components]

    def place(self, name):
        i = self.k.position(name)
        return self.k.places[i] + (self.end_digits[i],)


def _ac1(e, cause):
    held = [e.place(c) for c in cause]
    if e.mode == "strict" and any(e.start // w % r != b for w, r, b in held):
        return False, None
    effect = [(w, r) for w, r, _ in e.effect]

    def admissible(f: int, g: int) -> bool:
        return all(g // w % r == b for w, r, b in held if f // w % r == b)

    def touches_effect(f: int, g: int) -> bool:
        return any(f // w % r != g // w % r for w, r in effect)

    parent: dict = {}
    queue: list = []
    k, loops, cap = e.k, e.options.self_loops, e.options.max_states
    counted = set()  # the start and every configuration queued, counted as each is added

    def hold(f):
        counted.add(f)
        if len(counted) > cap:
            raise CapExceeded(cap, len(counted), "AC1 path search")

    def push(state, prev):
        if state not in parent:
            parent[state] = prev
            queue.append(state)
            hold(state[0])

    hold(e.start)
    for g in k.successors(e.start, loops):
        if admissible(e.start, g):
            push((g, touches_effect(e.start, g)), None)
    i = 0
    while i < len(queue):
        state = queue[i]
        f, got_effect = state
        i += 1
        if f == e.end and got_effect:
            path = [f]
            cursor = state
            while parent[cursor] is not None:
                cursor = parent[cursor]
                path.append(cursor[0])
            return True, (e.q.start,) + tuple(k.decode(g) for g in reversed(path))
        for g in k.successors(f, loops):
            if admissible(f, g):
                push((g, got_effect or touches_effect(f, g)), state)
    return False, None


def ref_first_effect_reachable(k, start, effect, options):
    """The first state in which every place of ``effect`` holds its code, in
    breadth-first order from the successors of ``start``.  ``start`` is
    marked visited before the search, so it is tested only when it is its
    own successor."""
    loops, cap = options.self_loops, options.max_states
    visited: set = set()

    def hold(h):
        visited.add(h)
        if len(visited) > cap:
            raise CapExceeded(cap, len(visited), "counterfactual reachability")

    hold(start)
    queue = list(k.successors(start, loops))
    for h in queue:
        hold(h)
    i = 0
    while i < len(queue):
        g = queue[i]
        i += 1
        if all(g // w % r == b for w, r, b in effect):
            return g
        for h in k.successors(g, loops):
            if h not in visited:
                queue.append(h)
                hold(h)
    return None


def _deviations(model, q, free):
    domains = [model.behaviours(c) for c in free]
    for combo in product(*domains):
        if any(v != q.end[c] for c, v in zip(free, combo)):
            yield tuple(zip(free, combo))


def _witness_candidates(model, cause):
    names = [n for n in model.component_order if n not in set(cause)]
    for k in range(len(names) + 1):
        for combo in combinations(names, k):
            yield combo


def _ac2(e, cause):
    k = e.k
    devs = []  # (deviation, its offset from the start state)
    for dev in _deviations(e.model, e.q, cause):
        delta = 0
        for c, v in dev:
            i = k.index[c]
            delta += (k.codes[i][v] - e.start_digits[i]) * k.weights[i]
        devs.append((dev, delta))

    def blocked(witness, variant, start: int) -> bool:
        key = (witness, start)
        if key not in e.searches:
            e.searches[key] = ref_first_effect_reachable(variant, start, e.effect, e.options)
        return e.searches[key] is None

    contrast = _raw_contrast(e, devs, blocked)
    if contrast is None:
        return False, None, None, (), None
    for witness in _witness_candidates(e.model, cause):
        evidence = _ac2_for_witness(e, witness, devs, blocked)
        if evidence is not None:
            clamp = None
            if witness:
                clamp = clamping_intervention(e.model, witness, {w: e.q.end[w] for w in witness})
            return True, witness, clamp, evidence, contrast
    return False, None, None, (), contrast


def _raw_contrast(e, devs, blocked):
    for dev, delta in devs:
        start = e.start + delta
        if all(start // w % r == b for w, r, b in e.effect):
            continue
        if blocked((), e.k, start):
            return dev
    return None


def _ac2_for_witness(e, witness, devs, blocked):
    k, variant, base = e.k, e.k, e.start
    if witness:
        pins = tuple((i, e.end_digits[i]) for i in map(k.index.get, witness))
        variant = k.pinned(pins)
        base += sum((b - e.start_digits[i]) * k.weights[i] for i, b in pins)
    if not all(blocked(witness, variant, base + delta) for _, delta in devs):
        return None
    return tuple(DeviationCheck(deviation=dev, start=k.decode(base + delta), ok=True) for dev, delta in devs)


def ref_check_cause(model, q, cause, mode="example", options=Options(), _episode=None):
    cause = tuple(dict.fromkeys(cause))
    if not cause:
        raise ModelError("empty candidate cause set")
    episode = _episode if _episode is not None else RefEpisode(model, q, mode, options)
    memo = episode.verdicts

    def core(subset):
        key = tuple(sorted(subset))
        if key in memo:
            return memo[key]
        ok1, path = _ac1(episode, subset)
        if not ok1:
            memo[key] = (False, None, False, None, None, (), None)
            return memo[key]
        ok2, witness, clamp, evidence, contrast = _ac2(episode, subset)
        memo[key] = (True, path, ok2, witness, clamp, evidence, contrast)
        return memo[key]

    ac1, path, ac2, witness, clamp, evidence, contrast = core(cause)
    refutations = []
    ac3 = True
    if ac1 and ac2:
        for k in range(1, len(cause)):
            for sub in combinations(cause, k):
                s1, _, s2, _, _, _, _ = core(sub)
                if s1 and s2:
                    ac3 = False
                    refutations.append(SubsetRefutation(subset=sub, failed_clause="none"))
                else:
                    refutations.append(
                        SubsetRefutation(subset=sub, failed_clause="AC1" if not s1 else "AC2")
                    )
    return CauseCertificate(
        cause_set=cause,
        witness_set=witness,
        clamp=clamp,
        ac1=ac1,
        ac2=ac2,
        ac3=ac3,
        mode=mode,
        ac1_path=path,
        contrast_deviation=contrast,
        ac2_checks=evidence,
        ac3_refutations=tuple(refutations),
    )


def ref_find_causes(model, q, mode="example", options=Options()):
    effect = set(q.effect_components)
    names = tuple(n for n in model.component_order if n not in effect)
    episode = RefEpisode(model, q, mode, options)
    certified = []
    for k in range(1, len(names) + 1):
        for cand in combinations(names, k):
            if any(set(c.cause_set) < set(cand) for c in certified):
                continue
            cert = ref_check_cause(model, q, cand, mode=mode, options=options, _episode=episode)
            if cert.is_cause:
                certified.append(cert)
    return certified


# ---------------------------------------------------------------------------
# generated inputs


def _outcome(fn):
    """Certificate dicts in order, or the (cap, size, phase) of the overrun."""
    try:
        return [c.to_dict() for c in fn()]
    except CapExceeded as err:
        return ("cap", err.cap, err.size, err.what)


def _queries(count):
    """``count`` (model, query, mode, options) cases on 3- to 5-component
    models, cycling through both AC1 modes, async and sync transitions, and
    self-loops off and on."""
    settings = list(product(("example", "strict"), ("async", "sync"), (False, True)))
    out, seed = [], 0
    while len(out) < count:
        rng = random.Random(seed)
        seed += 1
        model = random_system_model(rng, max_components=5, max_behaviours=3)
        if len(model.components) < 3:
            continue
        mode, transitions, loops = settings[len(out) % len(settings)]
        model = replace(model, mode=transitions)
        options = Options(self_loops=loops)
        f1 = random_configuration(rng, model)
        reach = reachable(model, f1, options)
        f2 = rng.choice(reach) if reach else random_configuration(rng, model)
        changed = [c for c in model.component_order if f1[c] != f2[c]]
        pool = changed or list(model.component_order)
        effect = tuple(sorted(rng.sample(pool, rng.randint(1, min(2, len(pool))))))
        out.append((model, CauseQuery(f1, f2, effect), mode, options))
    return out


def pipeline(n, fault):
    """An n-stage pipeline whose sink copies the source's error: with
    ``fault`` the source is err from the start and is the one cause;
    otherwise it fails spontaneously and nothing is a cause."""
    lines = ["async", "component s0 {", "  domain idle ok err"]
    lines += ["}"] if fault else ["  rule idle -> err", "}"]
    for i in range(1, n):
        lines += [
            f"component s{i} {{",
            "  domain idle ok err",
            f"  context s{i - 1}",
            "  rule idle (ok) -> ok",
            "  rule idle (err) -> err",
            "  rule err (ok) -> idle",
            "}",
        ]
    start = ", ".join(f"s{i}={'err' if fault and i == 0 else 'idle'}" for i in range(n))
    end = ", ".join(f"s{i}=err" for i in range(n))
    doc = parse_model("\n".join(lines + [f"config start = ({start})", f"config end = ({end})"]) + "\n")
    q = CauseQuery(doc.configuration("start"), doc.configuration("end"), (f"s{n - 1}",))
    return doc.model, q


def fanin(leaves, faulty):
    """Leaves feed a collector that errs once any leaf errs; the first
    ``faulty`` leaves are err from the start."""
    names = [f"l{i}" for i in range(leaves)]
    lines = ["async"]
    for leaf in names:
        lines += [f"component {leaf} {{", "  domain idle ok err", "  rule idle -> ok", "}"]
    lines += ["component col {", "  domain idle ok err", "  context " + " ".join(names)]
    for i in range(leaves):
        pattern = ["_"] * leaves
        pattern[i] = "err"
        lines.append(f"  rule idle ({', '.join(pattern)}) -> err")
    lines += [f"  rule idle ({', '.join(['ok'] * leaves)}) -> ok", "}"]
    start = ", ".join([f"{n}={'err' if i < faulty else 'idle'}" for i, n in enumerate(names)] + ["col=idle"])
    end = ", ".join([f"{n}={'err' if i < faulty else 'ok'}" for i, n in enumerate(names)] + ["col=err"])
    doc = parse_model("\n".join(lines + [f"config start = ({start})", f"config end = ({end})"]) + "\n")
    return doc.model, CauseQuery(doc.configuration("start"), doc.configuration("end"), ("col",))


def _structured():
    """Pipelines and fan-in trees in every setting: their causes carry
    evidence over several deviations, which random models rarely do."""
    bases = [pipeline(n, fault) for n in (3, 4, 5) for fault in (False, True)]
    bases += [fanin(leaves, faulty) for leaves in (2, 3) for faulty in (1, 2)]
    out = []
    for model, q in bases:
        for mode, transitions, loops in product(("example", "strict"), ("async", "sync"), (False, True)):
            out.append((replace(model, mode=transitions), q, mode, Options(self_loops=loops)))
    return out


CASES = _queries(200)
STRUCTURED = _structured()


def test_cases_cover_every_setting():
    seen = {(mode, m.mode, o.self_loops) for m, _, mode, o in CASES}
    assert len(seen) == 8
    assert {len(m.components) for m, _, _, _ in CASES} == {3, 4, 5}


def test_find_causes_matches_reference():
    causes = several = witnessed = 0
    for model, q, mode, options in CASES + STRUCTURED:
        want = _outcome(lambda: ref_find_causes(model, q, mode, options))
        assert _outcome(lambda: find_causes(model, q, mode, options)) == want
        causes += len(want)
        several += sum(1 for c in want if len(c["ac2_checks"]) > 1)
        witnessed += sum(1 for c in want if c["witness_set"])
    assert causes > 40 and several > 30 and witnessed > 0


@pytest.mark.parametrize("mode", ["example", "strict"])
def test_microservice_matches_reference(micro, micro_f1, micro_f2, mode):
    # the database cause is certified only under a four-component witness set
    q = CauseQuery(micro_f1, micro_f2, ("FrontEnd",))
    want = _outcome(lambda: ref_find_causes(micro, q, mode))
    assert _outcome(lambda: find_causes(micro, q, mode)) == want
    for k in (1, 2):
        for cand in combinations(micro.component_order, k):
            want = _outcome(lambda: [ref_check_cause(micro, q, cand, mode)])
            assert _outcome(lambda: [check_cause(micro, q, cand, mode)]) == want


def test_check_cause_matches_reference_per_candidate():
    verdicts = set()
    for model, q, mode, options in CASES[::2] + STRUCTURED[::3]:
        for k in (1, 2):
            for cand in combinations(model.component_order, k):
                want = _outcome(lambda: [ref_check_cause(model, q, cand, mode, options)])
                assert _outcome(lambda: [check_cause(model, q, cand, mode, options)]) == want
                verdicts.add((want[0]["ac1"], want[0]["ac2"], want[0]["ac3"]))
    # every clause fails somewhere, and some candidates pass all three
    assert {(False, False, True), (True, False, True), (True, True, False), (True, True, True)} <= verdicts


@pytest.mark.parametrize("max_states", [0, 1, 2, 3])
def test_cap_overruns_match_reference(max_states):
    phases = set()
    for model, q, mode, options in CASES[:60] + STRUCTURED[::4]:
        options = replace(options, max_states=max_states)
        want = _outcome(lambda: ref_find_causes(model, q, mode, options))
        assert _outcome(lambda: find_causes(model, q, mode, options)) == want
        if isinstance(want, tuple):
            phases.add(want[3])
    # AC2 runs only once AC1 has found a path, which holds the start and at least one more state
    both = {"AC1 path search", "counterfactual reachability"}
    assert phases == (both if max_states >= 2 else {"AC1 path search"})


def test_counterfactual_search_matches_reference():
    """Every start of generated models and clamped variants, with effects
    that often hold at the start itself: under self-loops a start may be its
    own successor, and is then found as the reference finds it; a start met
    again only at the end of a longer cycle is not."""
    engine = causality._first_effect_reachable

    def outcome(search, *args):
        try:
            return search(*args)
        except CapExceeded as err:
            return ("cap", err.cap, err.size, err.what)

    outcomes = {"at start": 0, "past start": 0, "elsewhere": 0, "none": 0, "cap": 0}
    for seed in range(80):
        rng = random.Random(seed)
        model = random_system_model(rng, max_components=4, max_behaviours=3).with_mode(("async", "sync")[seed % 2])
        k = kernel.compile(model)
        pins = tuple((i, rng.randrange(r)) for i, r in enumerate(k.radices) if rng.random() < 0.5)
        variant = k.pinned(pins) if pins else k
        for loops, cap in product((False, True), (-1, 0, 1, 2, 3, 5, 100_000)):
            options = Options(self_loops=loops, max_states=cap)
            for start in range(k.size):
                places = rng.sample(range(len(k.radices)), rng.randint(1, len(k.radices)))
                at_start = rng.random() < 0.6
                effect = [(w, r, start // w % r if at_start else rng.randrange(r)) for w, r in map(k.places.__getitem__, places)]
                want = outcome(ref_first_effect_reachable, variant, start, effect, options)
                assert outcome(engine, variant, start, effect, options) == want
                if isinstance(want, tuple):
                    outcomes["cap"] += 1
                elif want is None:
                    outcomes["none"] += 1
                elif want == start:
                    outcomes["at start"] += 1
                else:
                    holds = all(start // w % r == b for w, r, b in effect)
                    outcomes["past start" if holds else "elsewhere"] += 1
    assert min(outcomes.values()) > 20, outcomes


# ---------------------------------------------------------------------------
# what one query builds


def test_search_counts_on_a_spontaneous_pipeline(monkeypatch):
    # nothing is a cause, so every candidate with a contrast tries every witness set
    model, q = pipeline(6, fault=False)
    searched = {"engine": [], "reference": []}
    made = []

    def counted(who, search):
        return lambda k, start, effect, options: searched[who].append(start) or search(k, start, effect, options)

    class Deviations(causality._Deviations):
        def __init__(self, e, cause):
            super().__init__(e, cause)
            made.append((len(cause), self))

    engine, reference = causality._first_effect_reachable, ref_first_effect_reachable
    monkeypatch.setattr(causality, "_first_effect_reachable", counted("engine", engine))
    monkeypatch.setattr(causality, "_Deviations", Deviations)
    monkeypatch.setattr(sys.modules[__name__], "ref_first_effect_reachable", counted("reference", reference))
    assert find_causes(model, q) == [] == ref_find_causes(model, q)
    assert len(searched["engine"]) == 67
    assert searched["engine"] == searched["reference"]
    eager = sum(3**size - 1 for size, _ in made)
    assert eager == 4**5 - 2**5  # every candidate reaches AC2
    assert sum(len(devs.offsets) for _, devs in made) == 62


def test_clamped_variants_go_with_the_query(micro, micro_f1, micro_f2):
    model, q = pipeline(4, fault=False)
    other = CauseQuery(q.start, model.configuration({"s0": "err", "s1": "err", "s2": "idle", "s3": "idle"}), ("s1",))
    for query in (q, other):
        find_causes(model, query)
    assert not any(isinstance(key, tuple) for key in kernel.compile(model).variants)
    micro = replace(micro)  # a copy, compiled afresh
    direct = causality.find_causal_chains(micro, micro_f1, micro_f2, 3, ("FrontEnd",))[0]
    waypoint = causality.find_causal_chains(micro, micro_f1, micro_f2, 3)[0]
    verdicts = [
        causality.classify_intervention_effect(micro, chain, micro.intervention_map[name]).verdict
        for chain in (direct, waypoint)
        for name in ("theta1", "thetaLog")
    ]
    # the preserved verdict re-certifies on the intervened model's kernel
    assert verdicts == ["disrupted", "preserved", "indeterminate", "indeterminate"]
    k = kernel.compile(micro)
    assert list(k.variants) == [micro.intervention_map[name] for name in ("theta1", "thetaLog")]
    assert all(kernel.compile(variant).variants == {} for variant in k.variants.values())


def test_chain_links_share_clamped_variants_and_verdicts(monkeypatch, micro, micro_f1, micro_f2):
    """Each (clamp, start, effect) is searched once per chain query, however
    many of its links meet it."""
    searched, pinned = [], []
    search, pin = causality._first_effect_reachable, kernel.Kernel.pinned

    def counted(k, start, effect, options):
        clamp = tuple((i, rule) for i, rule in enumerate(k.rules) if rule.__class__ is int)
        searched.append((clamp, start, tuple(effect)))
        return search(k, start, effect, options)

    monkeypatch.setattr(causality, "_first_effect_reachable", counted)
    monkeypatch.setattr(kernel.Kernel, "pinned", lambda k, pins: pinned.append(pins) or pin(k, pins))
    chains = causality.find_causal_chains(micro, micro_f1, micro_f2, 3, ("FrontEnd",))
    assert [c.configurations for c in chains] == [(micro_f1, micro_f2)]
    assert len(searched) == len(set(searched)) == 336
    assert len(pinned) == len(set(pinned)) == 55


# ---------------------------------------------------------------------------
# chain search


def _changed_components(a, b):
    return tuple(c for c in a.components if a[c] != b[c])


def _certify_link(model, a, b, effect_components, mode, options, shared=None):
    """First (canonically smallest) certified cause of b from a, or None;
    the link's episode shares ``shared``, or a fresh table, with the query."""
    k = kernel.compile(model)
    if a == b or k.encode(b) not in k.reachable(k.encode(a), options):
        return None
    effect = effect_components or _changed_components(a, b)
    if not effect:
        return None
    shared = shared or causality._Shared(mode, options)
    return next(causality._certified_causes(k, k.encode(a), k.encode(b), tuple(effect), shared), None)


def ref_find_causal_chains(model, f_start, f_end, max_len=4, effect_components=None, mode="example", options=Options()):
    if max_len < 2:
        raise ModelError("max_len must be at least 2")
    model.validate_configuration(f_start)
    model.validate_configuration(f_end)
    if f_start == f_end:
        return []
    effect_components = tuple(effect_components) if effect_components else None

    link_cache = {}

    def link(a, b, final):
        key = (a, b, final and effect_components is not None)
        if key not in link_cache:
            eff = effect_components if (final and effect_components is not None) else None
            link_cache[key] = _certify_link(model, a, b, eff, mode, options)
        return link_cache[key]

    def is_chain(seq):
        return all(link(seq[i], seq[i + 1], i == len(seq) - 2) is not None for i in range(len(seq) - 1))

    def minimal(seq):
        for i in range(1, len(seq) - 1):
            if is_chain(seq[:i] + seq[i + 1 :]):
                return False
        return True

    k = kernel.compile(model)
    start, end = k.encode(f_start), k.encode(f_end)
    forward = k.reachable(start, options)
    if end not in forward:
        return []

    out = []
    middles = [k.decode(g) for g in forward if g not in (start, end) and end in k.reachable(g, options)]

    def emit(seq):
        links = tuple(
            causality.ChainLink(
                effect_components=(
                    effect_components
                    if (i == len(seq) - 2 and effect_components is not None)
                    else _changed_components(seq[i], seq[i + 1])
                ),
                certificate=link(seq[i], seq[i + 1], i == len(seq) - 2),
            )
            for i in range(len(seq) - 1)
        )
        out.append(causality.CausalChain(configurations=tuple(seq), links=links))

    for n in range(2, min(max_len, len(middles) + 2) + 1):
        if n == 2:
            seq = (f_start, f_end)
            if is_chain(seq):
                emit(seq)
            continue
        for interior in permutations(middles, n - 2):
            seq = (f_start,) + interior + (f_end,)
            if is_chain(seq) and minimal(seq):
                emit(seq)
    return out


@pytest.fixture
def certify_calls(monkeypatch):
    """The (start, end, effect) of every link certification, in order: each
    call of the reference's ``_certify_link``, and each engine ``_Links``
    lookup that misses, its states decoded to configurations."""
    calls = []
    certify, missing = _certify_link, causality._Links.__missing__

    def recorded(model, a, b, effect, mode, options, *rest):
        calls.append((a, b, effect))
        return certify(model, a, b, effect, mode, options, *rest)

    def looked_up(links, key):
        a, b, effect = key
        calls.append((links.k.decode(a), links.k.decode(b), effect))
        return missing(links, key)

    monkeypatch.setattr(sys.modules[__name__], "_certify_link", recorded)
    monkeypatch.setattr(causality._Links, "__missing__", looked_up)
    return calls


def _chains_and_calls(calls, search, *args, **kwargs):
    calls.clear()
    try:
        found = [c.to_dict() for c in search(*args, **kwargs)]
    except CapExceeded as err:
        found = ("cap", err.cap, err.size, err.what)
    return found, list(calls)


@pytest.mark.parametrize("max_len", [2, 3, 4, 5, 6])
def test_micro_chain_search_matches_permutations(certify_calls, micro, micro_f1, micro_f2, max_len):
    for effect in (None, ("FrontEnd",)):
        args = (micro, micro_f1, micro_f2, max_len, effect)
        want = _chains_and_calls(certify_calls, ref_find_causal_chains, *args)
        assert _chains_and_calls(certify_calls, causality.find_causal_chains, *args) == want
        assert want[0] or (max_len, effect) == (2, None)


def _chain_cases(count):
    """Searches from a random start to the last state its reachable set
    lists, on 2- to 5-component models, async and sync, self-loops off and on."""
    out, seed = [], 0
    while len(out) < count:
        rng = random.Random(seed)
        model = random_system_model(rng, max_components=5, max_behaviours=3).with_mode(("async", "sync")[seed % 2])
        options = Options(self_loops=bool(seed // 2 % 2))
        seed += 1
        f1 = random_configuration(rng, model)
        reach = reachable(model, f1, options)
        if reach:
            out.append((model, f1, reach[-1], options))
    return out


def test_chain_search_matches_permutations_on_generated_models(certify_calls):
    """Chains, the order of link certifications and cap overruns agree."""
    searches = [(m, q.start, q.end, 4, q.effect_components, mode, o) for m, q, mode, o in CASES]
    searches += [(m, f1, f2, 5, None, "example", o) for m, f1, f2, o in _chain_cases(200)]
    searches += [args[:6] + (replace(args[6], max_states=3),) for args in searches[::5]]
    tally = {"calls": 0, "chains": 0, "long": 0, "caps": 0}
    for args in searches:
        want = _chains_and_calls(certify_calls, ref_find_causal_chains, *args)
        assert _chains_and_calls(certify_calls, causality.find_causal_chains, *args) == want
        found, calls = want
        tally["calls"] += len(calls)
        if isinstance(found, tuple):
            tally["caps"] += 1
        else:
            tally["chains"] += len(found)
            tally["long"] += sum(len(c["configurations"]) > 2 for c in found)
    assert tally["calls"] > 500 and tally["chains"] > 30 and tally["long"] > 0 and tally["caps"] > 0, tally


# ---------------------------------------------------------------------------
# intervention effect classification


def ref_classify_intervention_effect(model, chain, iv, mode="example", options=Options()):
    seq = chain.configurations
    for g in seq:
        model.validate_configuration(g)
    shared = causality._Shared(mode, options)
    link_cause_union = []
    k = kernel.compile(model)
    for i in range(len(seq) - 1):
        union = {}
        a, b = k.encode(seq[i]), k.encode(seq[i + 1])
        for cert in causality._certified_causes(k, a, b, chain.links[i].effect_components, shared):
            for c in cert.cause_set:
                union[c] = None
        link_cause_union.append(tuple(union))
    targets = set(iv.targets)
    overlaps = [i for i, u in enumerate(link_cause_union) if targets & set(u)]
    k = k.intervened(iv)

    if not overlaps:
        recerts = []
        for i in range(len(seq) - 1):
            if k.encode(seq[i + 1]) not in k.reachable(k.encode(seq[i]), options):
                return causality.ChainClassification(
                    verdict="indeterminate",
                    detail=f"no cause overlap, but link {i} is no longer realizable after {iv.name}",
                    link_causes=tuple(link_cause_union),
                    broken_link=i,
                )
            cert = _certify_link(k.model, seq[i], seq[i + 1], chain.links[i].effect_components, mode, options, shared)
            if cert is None:
                return causality.ChainClassification(
                    verdict="indeterminate",
                    detail=f"no cause overlap, but link {i} fails to re-certify after {iv.name}",
                    link_causes=tuple(link_cause_union),
                    broken_link=i,
                )
            recerts.append(cert)
        return causality.ChainClassification(
            verdict="preserved",
            detail=f"no link cause overlaps targets of {iv.name}; chain re-certified",
            link_causes=tuple(link_cause_union),
            recertified=tuple(recerts),
        )

    for i in overlaps:
        if k.encode(seq[i + 1]) not in k.reachable(k.encode(seq[i]), options):
            return causality.ChainClassification(
                verdict="disrupted",
                detail=f"link {i} overlaps targets of {iv.name} and is invalidated",
                link_causes=tuple(link_cause_union),
                broken_link=i,
            )
    return causality.ChainClassification(
        verdict="indeterminate",
        detail=f"targets of {iv.name} overlap link causes but every link transition survives",
        link_causes=tuple(link_cause_union),
    )


def _classification_cases(model, chains, options):
    """(model, chain, intervention, options) for each chain under every
    declared intervention and under a clamp of each link's cause to its
    behaviours at the link's start."""
    for chain in chains:
        ivs = list(model.interventions)
        for g, link in zip(chain.configurations, chain.links):
            cause = link.certificate.cause_set
            ivs.append(clamping_intervention(model, cause, {c: g[c] for c in cause}))
        for iv in ivs:
            yield model, chain, iv, options


def _verdict(classify, model, chain, iv, options):
    try:
        return classify(model, chain, iv, options=options).to_dict()
    except CapExceeded as err:
        return ("cap", err.cap, err.size, err.what)


def test_classification_matches_reference(micro, micro_f1, micro_f2):
    """Verdicts, their evidence and cap overruns agree with the earlier
    function, on micro and on the chains of generated models."""
    cases = []
    for effect in (None, ("FrontEnd",)):
        chains = causality.find_causal_chains(micro, micro_f1, micro_f2, 3, effect)
        cases += _classification_cases(micro, chains, Options())
    for model, f1, f2, options in _chain_cases(200):
        cases += _classification_cases(model, causality.find_causal_chains(model, f1, f2, 5, options=options), options)
    cases += [case[:3] + (replace(case[3], max_states=3),) for case in cases]
    tally, log = {}, set()
    for case in cases:
        got = _verdict(causality.classify_intervention_effect, *case)
        assert got == _verdict(ref_classify_intervention_effect, *case)
        kind = "cap" if isinstance(got, tuple) else got["verdict"]
        tally[kind] = tally.get(kind, 0) + 1
        if case[0] is micro and case[2].name == "thetaLog" and case[3].max_states > 3:
            log.add(kind)
    assert set(tally) == {"preserved", "disrupted", "indeterminate", "cap"}, tally
    assert "preserved" in log, log


def test_invalid_endpoints_raise_before_any_search(monkeypatch, micro, micro_f1, micro_f2):
    searched = []
    search = causality._first_effect_reachable
    monkeypatch.setattr(causality, "_first_effect_reachable", lambda *args: searched.append(args) or search(*args))
    bad = Configuration(tuple((c, "nowhere" if c == "Logger" else b) for c, b in micro_f2.pairs))
    message = "behaviour 'nowhere' not in domain of 'Logger'"
    for f_start, f_end in ((micro_f1, bad), (bad, micro_f2), (bad, bad)):
        with pytest.raises(ModelError, match=message):
            causality.find_causal_chains(micro, f_start, f_end, 3)
    chain = causality.find_causal_chains(micro, micro_f1, micro_f2, 3)[0]
    assert len(chain.configurations) == 3
    searched.clear()
    # the invalid waypoint ends the chain, so a check made link by link would search its first link
    chain = replace(chain, configurations=chain.configurations[:2] + (bad,))
    with pytest.raises(ModelError, match=message):
        causality.classify_intervention_effect(micro, chain, micro.interventions[0])
    assert searched == []


def test_configurations_are_encoded_where_they_enter(monkeypatch, micro, micro_f1, micro_f2):
    """A chain query encodes its two endpoints and a classification its
    waypoints; links and their episodes run on state numbers."""
    encoded = []
    encode = kernel.Kernel.encode
    monkeypatch.setattr(kernel.Kernel, "encode", lambda k, f: encoded.append(f) or encode(k, f))
    chains = causality.find_causal_chains(micro, micro_f1, micro_f2, max_len=5)
    assert encoded == [micro_f1, micro_f2]
    assert len(chains) > 1 and len(micro.interventions) == 4
    for chain in chains:
        for iv in micro.interventions:
            encoded.clear()
            causality.classify_intervention_effect(micro, chain, iv)
            assert encoded == list(chain.configurations)
