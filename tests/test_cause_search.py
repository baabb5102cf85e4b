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
exactly, and so must the sequence of effect searches, as (witness pins,
start state) keys read from ``kernel.recording``, to which the reference
adds its own (``assert_same_searches``), though the engine skips the
witness sets it already knows to fail.  The AC1 path of every candidate
subset of an episode, visited in the search's order and in a shuffled
one, must equal ``_ac1``'s, though the engine runs one path search for
all the candidates that agree on the end-state bits it examines.
``_changed_components``, ``_certify_link`` and
``ref_classify_intervention_effect`` are copies of the link rule and of
intervention classification as they were on configurations, before links
became one table on state numbers; the reference re-certifies a
preserved chain on the intervened model.  Chains and classifications
must agree with them.  ``ref_find_causal_chains`` tries every
permutation and keeps no prune; the engine's chain search may only
remove link certifications and cap overruns from its work
(``assert_prune_only_removes_work``), on random models and on ``staged``
runs, whose chains pass several waypoints.  The cause verdicts of every
case must also equal those of the brute-force enumerator in
``tests/oracle.py``, in each of its eight settings.
"""

import random
import sys
from collections import Counter
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from oracle import oracle_find_causes

from causalmc import causality, kernel, replace
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
from causalmc.model import (
    CapExceeded,
    Configuration,
    ModelError,
    Options,
    apply_intervention,
    clamping_intervention,
    reachable,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    import families
finally:
    sys.path.pop(0)


class RefEpisode:
    def __init__(self, model, q, options):
        self.model, self.q, self.options = model, q, options
        self.verdicts: dict = {}
        self.searches: dict = {}
        self.k = k = kernel.compile(model, options)
        self.start, self.end = k.encode(q.start), k.encode(q.end)
        self.start_digits, self.end_digits = k.digits(self.start), k.digits(self.end)
        self.effect = [self.place(c) for c in q.effect_components]

    def place(self, name):
        i = self.k.position(name)
        return self.k.places[i] + (self.end_digits[i],)


def _ac1(e, cause):
    held = [e.place(c) for c in cause]
    if e.options.strict_ac1 and any(e.start // w % r != b for w, r, b in held):
        return False, None
    effect = [(w, r) for w, r, _ in e.effect]

    def admissible(f: int, g: int) -> bool:
        return all(g // w % r == b for w, r, b in held if f // w % r == b)

    def touches_effect(f: int, g: int) -> bool:
        return any(f // w % r != g // w % r for w, r in effect)

    parent: dict = {}
    queue: list = []
    k, cap = e.k, e.options.max_states
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
    for g in k.successors(e.start):
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
        for g in k.successors(f):
            if admissible(f, g):
                push((g, got_effect or touches_effect(f, g)), state)
    return False, None


def ref_first_effect_reachable(k, start, effect):
    """The first state in which every place of ``effect`` holds its code, in
    breadth-first order from the successors of ``start``.  ``start`` is
    marked visited before the search, so it is tested only when it is its
    own successor.  A recording gets the search as the engine's event."""
    if (log := kernel.recorder()) is not None:
        log.append(("effect search", k.pins, start, tuple(effect)))
    cap = k.options.max_states
    visited: set = set()

    def hold(h):
        visited.add(h)
        if len(visited) > cap:
            raise CapExceeded(cap, len(visited), "counterfactual reachability")

    hold(start)
    queue = list(k.successors(start))
    for h in queue:
        hold(h)
    i = 0
    while i < len(queue):
        g = queue[i]
        i += 1
        if all(g // w % r == b for w, r, b in effect):
            return g
        for h in k.successors(g):
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
            e.searches[key] = ref_first_effect_reachable(variant, start, e.effect)
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


def ref_check_cause(model, q, cause, options=Options(), _episode=None):
    cause = tuple(dict.fromkeys(cause))
    if not cause:
        raise ModelError("empty candidate cause set")
    episode = _episode if _episode is not None else RefEpisode(model, q, options)
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
        mode="strict" if options.strict_ac1 else "example",
        ac1_path=path,
        contrast_deviation=contrast,
        ac2_checks=evidence,
        ac3_refutations=tuple(refutations),
    )


def ref_find_causes(model, q, options=Options()):
    effect = set(q.effect_components)
    names = tuple(n for n in model.component_order if n not in effect)
    episode = RefEpisode(model, q, options)
    certified = []
    for k in range(1, len(names) + 1):
        for cand in combinations(names, k):
            if any(set(c.cause_set) < set(cand) for c in certified):
                continue
            cert = ref_check_cause(model, q, cand, options=options, _episode=episode)
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


def _queries(count, fewest=3, most=5):
    """``count`` (model, query, options) cases on models of ``fewest``
    to ``most`` components, cycling through both AC1 modes, async and sync
    transitions, and self-loops off and on."""
    settings = list(product((False, True), ("async", "sync"), (False, True)))
    out, seed = [], 0
    while len(out) < count:
        rng = random.Random(seed)
        seed += 1
        model = random_system_model(rng, max_components=most, max_behaviours=3)
        if len(model.components) < fewest:
            continue
        strict, transitions, loops = settings[len(out) % len(settings)]
        model = replace(model, mode=transitions)
        options = Options(self_loops=loops, strict_ac1=strict)
        f1 = random_configuration(rng, model)
        reach = reachable(model, f1, options)
        f2 = rng.choice(reach) if reach else random_configuration(rng, model)
        changed = [c for c in model.component_order if f1[c] != f2[c]]
        pool = changed or list(model.component_order)
        effect = tuple(sorted(rng.sample(pool, rng.randint(1, min(2, len(pool))))))
        out.append((model, CauseQuery(f1, f2, effect), options))
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
        for strict, transitions, loops in product((False, True), ("async", "sync"), (False, True)):
            out.append((replace(model, mode=transitions), q, Options(self_loops=loops, strict_ac1=strict)))
    return out


def cause_between_walks():
    """Five components that all start at their first behaviour, so every
    candidate's first deviation is the start itself and every candidate
    walks one list of untried witness sets.  E moves to e1 once B is b1, or
    A is a2, or C is c0 while D is d1, unless A is a3, B is b2 or C is c2.
    A, whose deviation a2 reaches E under every witness set, walks them all
    and certifies none; B is the cause, under the witness set {C, D}; C
    then walks past {C, D} to sets such as {A, B, D} that only A's walk
    listed, and searches them at the start."""
    text = """async
component A {
  domain a0 a1 a2 a3
  rule a0 -> a1
}
component B {
  domain b0 b1 b2
  context A D
  rule b0 (a0, d0) -> b1
  rule b0 (a1, d0) -> b1
}
component C {
  domain c0 c1 c2
  rule c0 -> c1
}
component D {
  domain d0 d1
  rule d0 -> d1
}
component E {
  domain e0 e1
  context A B C D
  rule e0 (a3, _, _, _) -> e0
  rule e0 (_, b2, _, _) -> e0
  rule e0 (_, _, c2, _) -> e0
  rule e0 (_, b1, _, _) -> e1
  rule e0 (a2, _, _, _) -> e1
  rule e0 (_, _, c0, d1) -> e1
}
config start = (A=a0, B=b0, C=c0, D=d0, E=e0)
config end = (A=a1, B=b1, C=c1, D=d1, E=e1)
"""
    doc = parse_model(text)
    return doc.model, CauseQuery(doc.configuration("start"), doc.configuration("end"), ("E",))


def backup(rng):
    """A primary p, and at times a second q that the effect e also needs,
    with up to two backups that fire when p fails and stand down once it
    fires, so p's deviation to fail restores the effect through a backup
    unless the witness set clamps the backups at standing down.  The
    primaries start fired, or ready to fire; then only a gate, which shuts
    once e is on, keeps their start from reaching e, and is the witness.  A
    component a may short e whatever the witnesses.  Declaration and domain
    orders are shuffled, so the first deviations and witness orders vary."""
    parts = {}  # name -> domain, context, rules, start, end
    fired, gate, second, short = (rng.random() < 0.5 for _ in range(4))
    backups = [f"b{i}" for i in range(rng.randint(0, 2))]
    for name in ["p", "q"] if second else ["p"]:
        parts[name] = ["ready idle fire fail", [], [] if fired else ["ready -> fire"], "fire" if fired else "ready", "fire"]
    for name in backups:
        parts[name] = ["armed fire down", ["p"], ["armed (fail) -> fire", "armed (fire) -> down"], "armed", "down"]
    if gate:
        parts["g"] = ["open shut", ["e"], ["open (on) -> shut"], "open", "shut"]
    if short:
        parts["a"] = ["a0 a1 short", [], ["a0 -> a1"], "a0", "a1"]
    context = list(parts)

    def turns_on(**held):
        return "off (" + ", ".join(held.get(c, "_") for c in context) + ") -> on"

    needed = dict(q="fire" if second else "_", g="open" if gate else "_")
    rules = [turns_on(**needed, **{route: "fire"}) for route in ["p"] + backups]
    parts["e"] = ["off on", context, rules + ([turns_on(a="short")] if short else []), "off", "on"]
    order = rng.sample(list(parts), len(parts))
    lines = [rng.choice(["async", "sync"])]
    for name in order:
        domain, inputs, rows = parts[name][:3]
        lines += [f"component {name} {{", "  domain " + " ".join(rng.sample(domain.split(), len(domain.split())))]
        lines += ["  context " + " ".join(inputs)] if inputs else []
        lines += [f"  rule {r}" for r in rows] + ["}"]
    for config, at in (("start", 3), ("end", 4)):
        lines.append(f"config {config} = (" + ", ".join(f"{n}={parts[n][at]}" for n in order) + ")")
    doc = parse_model("\n".join(lines) + "\n")
    return doc.model, CauseQuery(doc.configuration("start"), doc.configuration("end"), ("e",))


CASES = _queries(200)
STRUCTURED = _structured()
BACKUPS = [
    (model, q, Options(self_loops=seed % 2 == 1, strict_ac1=strict))
    for seed in range(24)
    for model, q in [backup(random.Random(seed))]
    for strict in (False, True)
]


def test_cases_cover_every_setting():
    seen = {(o.strict_ac1, m.mode, o.self_loops) for m, _, o in CASES}
    assert len(seen) == 8
    assert {len(m.components) for m, _, _ in CASES} == {3, 4, 5}


def test_find_causes_matches_reference():
    causes = several = witnessed = 0
    for model, q, options in CASES + STRUCTURED:
        want = _outcome(lambda: ref_find_causes(model, q, options))
        assert _outcome(lambda: find_causes(model, q, options)) == want
        causes += len(want)
        several += sum(1 for c in want if len(c["ac2_checks"]) > 1)
        witnessed += sum(1 for c in want if c["witness_set"])
    assert causes > 40 and several > 30 and witnessed > 0


def test_find_causes_matches_the_oracle_in_every_setting():
    """The brute-force enumerator decides each case under its options, as
    the search does: in both AC1 modes, async and sync transitions, and
    self-loops off and on."""
    settings = set()
    for model, q, options in CASES + STRUCTURED + BACKUPS:
        got = {frozenset(c.cause_set) for c in find_causes(model, q, options)}
        assert got == oracle_find_causes(model, q.start, q.end, q.effect_components, options=options)
        settings.add((options.strict_ac1, model.mode, options.self_loops))
    assert len(CASES + STRUCTURED + BACKUPS) == 328 and len(settings) == 8


@pytest.mark.parametrize("mode", ["example", "strict"])
def test_microservice_matches_reference(micro, micro_f1, micro_f2, mode):
    # the database cause is certified only under a four-component witness set
    q = CauseQuery(micro_f1, micro_f2, ("FrontEnd",))
    options = Options(strict_ac1=mode == "strict")
    want = _outcome(lambda: ref_find_causes(micro, q, options))
    assert _outcome(lambda: find_causes(micro, q, options)) == want
    for k in (1, 2):
        for cand in combinations(micro.component_order, k):
            want = _outcome(lambda: [ref_check_cause(micro, q, cand, options)])
            assert _outcome(lambda: [check_cause(micro, q, cand, options)]) == want


def test_check_cause_matches_reference_per_candidate():
    verdicts = set()
    for model, q, options in CASES[::2] + STRUCTURED[::3]:
        for k in (1, 2, 3):
            for cand in combinations(model.component_order, k):
                want = _outcome(lambda: [ref_check_cause(model, q, cand, options)])
                assert _outcome(lambda: [check_cause(model, q, cand, options)]) == want
                verdicts.add((want[0]["ac1"], want[0]["ac2"], want[0]["ac3"]))
    # every clause fails somewhere, and some candidates pass all three
    assert {(False, False, True), (True, False, True), (True, True, False), (True, True, True)} <= verdicts


@pytest.mark.parametrize("max_states", [0, 1, 2, 3])
def test_cap_overruns_match_reference(max_states):
    phases = set()
    for model, q, options in CASES[:60] + STRUCTURED[::4]:
        options = replace(options, max_states=max_states)
        want = _outcome(lambda: ref_find_causes(model, q, options))
        assert _outcome(lambda: find_causes(model, q, options)) == want
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
        model = replace(random_system_model(rng, max_components=4, max_behaviours=3), mode=("async", "sync")[seed % 2])
        k = kernel.compile(model)
        pins = tuple((i, rng.randrange(r)) for i, r in enumerate(k.radices) if rng.random() < 0.5)
        for loops, cap in product((False, True), (-1, 0, 1, 2, 3, 5, 100_000)):
            k = kernel.compile(model, Options(self_loops=loops, max_states=cap))
            variant = k.pinned(pins) if pins else k
            for start in range(k.size):
                places = rng.sample(range(len(k.radices)), rng.randint(1, len(k.radices)))
                at_start = rng.random() < 0.6
                effect = [(w, r, start // w % r if at_start else rng.randrange(r)) for w, r in map(k.places.__getitem__, places)]
                want = outcome(ref_first_effect_reachable, variant, start, effect)
                assert outcome(engine, variant, start, effect) == want
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


def test_ac1_reuses_a_search_only_where_it_would_run_alike():
    """AC1 paths of every candidate subset of an episode, against the
    reference's search run afresh for each: first the subsets of the
    components outside the effect, in the order ``_certified_causes`` meets
    them, then, on a new episode, every subset in a seeded shuffled order,
    so a search is reused by candidates of other sizes and orders.  Most
    candidates reuse a kept search, and some episodes keep several."""
    tally = Counter()
    rng = random.Random(0)
    for model, q, options in CASES + STRUCTURED:
        ref = RefEpisode(model, q, options)
        names = model.component_order
        everything = [c for n in range(1, len(names) + 1) for c in combinations(names, n)]
        outside = [c for c in everything if not set(c) & set(q.effect_components)]
        for order in (outside, rng.sample(everything, len(everything))):
            e = causality._Episode(ref.k, ref.start, ref.end, q.effect_components, causality._Shared(options))
            for cand in order:
                path = e.clauses(cand)[0]
                assert (None if path is None else tuple(map(ref.k.decode, path))) == _ac1(ref, cand)[1], cand
            tally.update(candidates=len(order), runs=len(e.runs))
            tally[model.mode, "several"] += len(e.runs) > 1
    assert tally["runs"] * 4 < tally["candidates"], tally
    assert tally["async", "several"] > 20 and tally["sync", "several"] > 20, tally


# ---------------------------------------------------------------------------
# the order of effect searches


def recorded(events, kind: str) -> list:
    """The payload of each ``kind`` event of a recording, in order."""
    return [event[1:] for event in events if event[0] == kind]


def search_keys(events) -> list:
    """Each effect search of a recording, as its (witness pins, start state) key."""
    return [payload[:2] for payload in recorded(events, "effect search")]


def assert_same_searches(case):
    """``find_causes`` on ``case`` by the engine and by the reference, which
    walks every witness set of every candidate: the same certificates, or
    the same overrun, and the same effect searches in the same order.  This
    holds without a cap, and on a ladder of caps 0, 1, 3, 7, … up to the
    first that answers, then bisected down to the uncapped peak, the least
    cap at which the query answers.  Returns the certificates and the
    searches of the uncapped query, and the caps of the ladder that overran."""
    model, q, options = case

    def both(cap):
        out = {}
        for who, find in (("engine", find_causes), ("reference", ref_find_causes)):
            with kernel.recording() as events:
                outcome = _outcome(lambda: find(model, q, replace(options, max_states=cap)))
            out[who] = outcome, search_keys(events)
        assert out["engine"] == out["reference"], cap
        return out["reference"]

    want, searched = both(Options().max_states)
    assert not isinstance(want, tuple)

    overran = []

    def answers(cap) -> bool:
        outcome, _ = both(cap)
        assert isinstance(outcome, tuple) or outcome == want, cap
        if isinstance(outcome, tuple):
            overran.append(cap)
        return not isinstance(outcome, tuple)

    below, peak = -1, 0
    while not answers(peak):
        below, peak = peak, 2 * peak + 1
    while peak - below > 1:
        mid = (below + peak) // 2
        below, peak = (below, mid) if answers(mid) else (mid, peak)
    return want, searched, overran


def test_cause_searches_run_in_the_reference_order(micro, micro_f1, micro_f2):
    """On generated models of 4 to 6 components, on the structured
    pipelines and fan-ins, on micro from f1 to f2 with each component as the
    effect, on ``cause_between_walks`` and on the ``backup`` shapes, whose
    causes often hold only under a witness set, in both modes, the engine runs the
    reference's effect searches in its order and overruns at the same caps,
    though it skips the witness sets already known to fail at a candidate's
    first deviation."""
    queries = [(micro, CauseQuery(micro_f1, micro_f2, (effect,))) for effect in micro.component_order]
    queries.append(cause_between_walks())
    handmade = [(model, q, Options(strict_ac1=strict)) for model, q in queries for strict in (False, True)]
    generated = _queries(100, 4, 6) + STRUCTURED + handmade
    tally = Counter()
    for i, case in enumerate(generated + BACKUPS):
        certificates, keys, overran = assert_same_searches(case)
        witnessed = sum(1 for c in certificates if c["witness_set"])
        tally.update(searches=len(keys), clamped=sum(1 for pins, _ in keys if pins), overran=len(overran))
        tally.update(causes=len(certificates), witnessed=witnessed)
        tally["backup witnessed"] += witnessed if i >= len(generated) else 0
        tally[f"{len(case[0].components)} components"] += 1
    assert {f"{n} components" for n in (4, 5, 6)} <= set(tally), tally
    assert tally["clamped"] > 400 and tally["witnessed"] > 20 and tally["overran"] > 300, tally
    assert tally["backup witnessed"] >= 15, tally


# ---------------------------------------------------------------------------
# what one query builds


def test_search_counts_on_a_spontaneous_pipeline():
    # nothing is a cause, so every candidate with a contrast tries every witness set; the
    # engine looks up only those not yet known to fail at the candidate's first deviation,
    # 93 where walking every set looked up 453
    model, q = pipeline(6, fault=False)
    with kernel.recording() as engine:
        assert find_causes(model, q) == []
    with kernel.recording() as reference:
        assert ref_find_causes(model, q) == []
    kinds = Counter(event[0] for event in engine)
    assert kinds["witness"] == 93
    assert kinds["effect search"] == 67
    assert search_keys(engine) == search_keys(reference)
    # every candidate reaches AC2, where making each one's deviations up front makes 4**5 - 2**5
    assert kinds["ac2"] == 2**5 - 1
    assert kinds["deviation"] == 62


@pytest.mark.parametrize(
    "query, expanded, searches",
    [
        ("pipeline", 198, 67),
        ("micro chain", 383, 251),
        ("micro effect chain", 72, 27),
        ("faulted chain", 19, 16),
        ("fan-in chain", 82, 2),
    ],
)
def test_the_states_expanded_and_effect_searches_are_pinned(micro, micro_f1, micro_f2, query, expanded, searches):
    """The work of a spontaneous six-stage benchmark pipeline's cause query,
    of micro's f1-to-f2 chain query with max-len 3 without and with the
    effect ``{FrontEnd}``, of a faulted nine-stage benchmark pipeline's
    chain query with max-len 4, and of a five-leaf benchmark fan-in's chain
    query with max-len 3: the states expanded and the effect searches run
    are pinned, so a faster kernel shows it does the same work at a lower
    cost, and no state of a kernel is expanded twice.  The faulted chain's
    direct link is certified, so every longer chain has a certified
    shortcut and is pruned; without the prune the query ran 74,455 effect
    searches.  With ``{FrontEnd}``, and on the
    fan-in, the direct link is certified too, so the three-waypoint pass
    takes no last middle; before that rule they ran 244 and 4,774."""
    if query.startswith("micro"):
        effect = ("FrontEnd",) if query == "micro effect chain" else None
        model = replace(micro)  # a copy, compiled afresh
        with kernel.recording() as events:
            chains = causality.find_causal_chains(model, micro_f1, micro_f2, 3, effect)
        assert len(chains) == (1 if effect else 4)
    else:
        if query == "fan-in chain":
            text, names = families.fanin(random.Random(7), 5, 1)
        else:
            fault = query == "faulted chain"
            text, names = families.pipeline(random.Random(7 if fault else 5), 9 if fault else 6, fault)
        doc = parse_model(text)
        q = CauseQuery(doc.configuration(names["start"]), doc.configuration(names["end"]), (names["comps"][-1],))
        with kernel.recording() as events:
            if query == "pipeline":
                assert find_causes(doc.model, q) == []
            else:
                max_len = 4 if query == "faulted chain" else 3
                chains = causality.find_causal_chains(doc.model, q.start, q.end, max_len, q.effect_components)
                assert [c.configurations for c in chains] == [(q.start, q.end)]
    expansions = recorded(events, "expand")
    assert len(expansions) == len(set(expansions)) == expanded
    assert len(search_keys(events)) == searches


def test_ac1_searches_are_pinned(micro, micro_f1, micro_f2):
    """A cause query's AC1 path searches, counted from its episode's kept
    searches: the benchmark's five-leaf fan-in tree with one faulty leaf
    checks 32 candidates on one search, and micro from f1 to f2 with effect
    ``{FrontEnd}`` checks 8 on two."""
    text, names = families.fanin(random.Random(7), 5, 1)
    doc = parse_model(text)
    fanin_q = CauseQuery(doc.configuration(names["start"]), doc.configuration(names["end"]), (names["comps"][-1],))
    micro_q = CauseQuery(micro_f1, micro_f2, ("FrontEnd",))
    for model, q, candidates, runs in ((doc.model, fanin_q, 32, 1), (micro, micro_q, 8, 2)):
        k = kernel.compile(model)
        e = causality._Episode(k, k.encode(q.start), k.encode(q.end), q.effect_components, causality._Shared(k.options))
        certs = list(causality._certified_causes(e))
        assert [c.to_dict() for c in certs] == [c.to_dict() for c in find_causes(model, q)] != []
        assert (len(e.verdicts), len(e.runs)) == (candidates, runs)


def _family_queries(micro, micro_f1, micro_f2):
    """Benchmark pipelines of six stages with and without a fault, fan-in
    trees with one and two faulty leaves, and micro from f1 to f2."""
    texts = [families.pipeline(random.Random(5), 6, fault) for fault in (False, True)]
    texts += [families.fanin(random.Random(5), 3, faulty) for faulty in (1, 2)]
    out = []
    for text, names in texts:
        doc = parse_model(text)
        q = CauseQuery(doc.configuration(names["start"]), doc.configuration(names["end"]), (names["comps"][-1],))
        out.append((doc.model, q))
    return out + [(micro, CauseQuery(micro_f1, micro_f2, ("FrontEnd",)))]


def test_cause_search_builds_a_certificate_only_for_a_cause_it_returns(micro, micro_f1, micro_f2):
    """AC3 needs no certificate of a candidate: a candidate the search
    reaches that passes AC1 and AC2 is minimal, and its certificate is the
    one ``check_cause`` gives for its cause set."""
    returned = []
    for model, q in _family_queries(micro, micro_f1, micro_f2):
        with kernel.recording() as events:
            certs = find_causes(model, q)
        assert recorded(events, "certificate") == [(c.cause_set,) for c in certs]
        for cert in certs:
            assert cert.to_dict() == check_cause(model, q, cert.cause_set).to_dict()
        returned.append(len(certs))
    assert returned == [0, 1, 1, 0, 1]


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
    # the preserved verdict re-certifies on the intervened variant
    assert verdicts == ["disrupted", "preserved", "indeterminate", "indeterminate"]
    k = kernel.compile(micro)
    assert list(k.variants) == [micro.intervention_map[name] for name in ("theta1", "thetaLog")]
    assert all(variant.variants == {} for variant in k.variants.values())


def test_chain_links_share_clamped_variants_and_verdicts(micro, micro_f1, micro_f2):
    """Each (clamp, start, effect) is searched once per chain query, however
    many of its links meet it: with max-len 4 and ``{FrontEnd}`` the query
    looks up 40 links, which meet 69 clamped variants between them."""
    with kernel.recording() as events:
        chains = causality.find_causal_chains(micro, micro_f1, micro_f2, 4, ("FrontEnd",))
    assert [c.configurations for c in chains] == [(micro_f1, micro_f2)]
    for kind, count in (("link", 40), ("effect search", 464), ("pin", 69)):
        found = recorded(events, kind)
        assert len(found) == len(set(found)) == count, kind


# ---------------------------------------------------------------------------
# chain search


def _changed_components(a, b):
    return tuple(c for c in a.components if a[c] != b[c])


def _certify_link(model, a, b, effect_components, options, shared=None):
    """First (canonically smallest) certified cause of b from a, or None;
    the link's episode shares ``shared``, or a fresh table, with the query.
    A recording gets the call as the engine's link event, on state numbers."""
    k = kernel.compile(model, options)
    if (log := kernel.recorder()) is not None:
        log.append(("link", k.encode(a), k.encode(b), effect_components))
    if a == b or k.encode(b) not in k.reachable(k.encode(a)):
        return None
    effect = effect_components or _changed_components(a, b)
    if not effect:
        return None
    shared = shared or causality._Shared(options)
    e = causality._Episode(k, k.encode(a), k.encode(b), tuple(effect), shared)
    return next(causality._certified_causes(e), None)


def ref_find_causal_chains(model, f_start, f_end, max_len=4, effect_components=None, options=Options()):
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
            link_cache[key] = _certify_link(model, a, b, eff, options)
        return link_cache[key]

    def is_chain(seq):
        return all(link(seq[i], seq[i + 1], i == len(seq) - 2) is not None for i in range(len(seq) - 1))

    def minimal(seq):
        for i in range(1, len(seq) - 1):
            if is_chain(seq[:i] + seq[i + 1 :]):
                return False
        return True

    k = kernel.compile(model, options)
    start, end = k.encode(f_start), k.encode(f_end)
    forward = k.reachable(start)
    if end not in forward:
        return []

    out = []
    middles = [k.decode(g) for g in forward if g not in (start, end) and end in k.reachable(g)]

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


def _chains_and_calls(search, *args):
    """The chains ``search`` finds, or its overrun, and its recorded link
    certifications, as (start, end, effect) keys on state numbers, and prunes:
    an "extension" or a "close" skipped because ``shortcut`` found a
    certified link, or a prefix that took no "last middle" because the table
    already held its close's shortcut certified."""
    with kernel.recording() as events:
        try:
            found = [c.to_dict() for c in search(*args)]
        except CapExceeded as err:
            found = ("cap", err.cap, err.size, err.what)
    return found, recorded(events, "link"), Counter(kind for kind, in recorded(events, "prune"))


def assert_prune_only_removes_work(args):
    """Chain search ``args`` run by the engine and by the unpruned reference.
    Without a cap the chains are identical, and the engine's link lookups
    are a sub-multiset of the reference's link certifications.  On a ladder of caps from 0 up to the reference's
    uncapped peak, the first cap at which it answers, the engine overruns
    only where the reference overruns, and anywhere else gives the uncapped
    chains.  Returns the chains, the engine's link lookups, the reference's
    certifications, for each cap below the peak whether the engine
    answered, and the engine's uncapped prunes by kind."""

    def run(search, cap):
        return _chains_and_calls(search, *args[:5], replace(args[5], max_states=cap))

    want, certified, _ = run(ref_find_causal_chains, Options().max_states)
    found, looked_up, fired = run(causality.find_causal_chains, Options().max_states)
    assert found == want and not isinstance(want, tuple)
    assert not Counter(looked_up) - Counter(certified), Counter(looked_up) - Counter(certified)
    answered = []
    for cap in range(Options().max_states + 1):
        reference, engine = run(ref_find_causal_chains, cap)[0], run(causality.find_causal_chains, cap)[0]
        if not isinstance(reference, tuple):
            assert engine == reference == want, cap
            return want, looked_up, certified, answered, fired
        answered.append(not isinstance(engine, tuple))
        assert isinstance(engine, tuple) or engine == want, cap


def _tally(searches):
    """``assert_prune_only_removes_work`` over ``searches``, summed: link
    certifications and lookups, chains by waypoint count, caps below the
    peak and those the engine answered, and the prunes that fired by kind."""
    tally = Counter()
    for args in searches:
        found, looked_up, certified, answered, fired = assert_prune_only_removes_work(args)
        tally.update(certified=len(certified), looked_up=len(looked_up), chains=len(found))
        tally.update(f"{len(c['configurations'])} waypoints" for c in found)
        tally.update(caps=len(answered), answered=sum(answered))
        tally.update(fired)
    return tally


@pytest.mark.parametrize("max_len", [2, 3, 4, 5, 6])
def test_micro_chain_search_matches_permutations(micro, micro_f1, micro_f2, max_len):
    for effect in (None, ("FrontEnd",)):
        args = (micro, micro_f1, micro_f2, max_len, effect, Options())
        want, *_ = assert_prune_only_removes_work(args)
        assert want or (max_len, effect) == (2, None)


def _chain_cases(count):
    """Searches from a random start to the last state its reachable set
    lists, on 2- to 5-component models, async and sync, self-loops off and on."""
    out, seed = [], 0
    while len(out) < count:
        rng = random.Random(seed)
        model = replace(random_system_model(rng, max_components=5, max_behaviours=3), mode=("async", "sync")[seed % 2])
        options = Options(self_loops=bool(seed // 2 % 2))
        seed += 1
        f1 = random_configuration(rng, model)
        reach = reachable(model, f1, options)
        if reach:
            out.append((model, f1, reach[-1], options))
    return out


def test_chain_search_matches_permutations_on_generated_models():
    """Chains agree with the unpruned reference, and the prune only removes
    link certifications and cap overruns."""
    searches = [(m, q.start, q.end, 4, q.effect_components, o) for m, q, o in CASES + STRUCTURED]
    searches += [(m, f1, f2, 5, None, o) for m, f1, f2, o in _chain_cases(200)]
    tally = _tally(searches)
    assert tally["certified"] > 800 and tally["chains"] > 60 and tally["3 waypoints"] > 0 and tally["caps"] > 0, tally
    # the prune removes link certifications, and with them some overruns
    assert tally["looked_up"] < tally["certified"] and tally["answered"] > 0, tally


def staged(rng):
    """A random run of 4 to 7 steps over 3 or 4 components, as a model whose
    only transitions are those steps.  Each component counts its steps, v0,
    v1, ...; a step is enabled by the component that stepped just before, at
    its new behaviour, and guarded by the component that steps next, at its
    old one, and no component takes two of any three steps in a row.  So
    a step's link has a cause where a longer link may have none, and chains
    pass several waypoints.  Returns the model, the start (every component
    at v0) and the end, the state before the last step, which only guards
    the step before it."""
    names = [f"s{i}" for i in range(rng.randint(3, 4))]
    steps = [rng.randrange(len(names))]
    for _ in range(rng.randint(3, 6)):
        steps.append(rng.choice([i for i in range(len(names)) if i not in steps[-2:]]))
    count = [0] * len(names)
    rows = [[] for _ in names]
    for t, i in enumerate(steps):
        end = list(count)
        # the components of the steps just before and just after, at their behaviours in between
        need = {j: count[j] for j in steps[max(0, t - 1) : t + 2] if j != i}
        rows[i].append((count[i], need))
        count[i] += 1
    lines = [rng.choice(("async", "sync"))]
    for i, name in enumerate(names):
        context = sorted({j for _, need in rows[i] for j in need})
        lines += [f"component {name} {{", "  domain " + " ".join(f"v{k}" for k in range(count[i] + 1))]
        lines += [f"  context {' '.join(names[j] for j in context)}"] if context else []
        for k, need in rows[i]:
            pattern = f" ({', '.join(f'v{need[j]}' if j in need else '_' for j in context)})" if context else ""
            lines.append(f"  rule v{k}{pattern} -> v{k + 1}")
        lines.append("}")
    model = parse_model("\n".join(lines) + "\n").model
    return model, model.configuration({n: "v0" for n in names}), model.configuration({n: f"v{c}" for n, c in zip(names, end)})


def test_chain_search_matches_permutations_on_staged_models():
    """On staged runs, whose chains pass several waypoints, chains agree
    with the unpruned reference and every prune fires.  The searches run to
    the run's end or to a random reachable state, with the default effect
    or one changed component, at max-len 3 to 5."""
    searches = []
    for seed in range(120):
        rng = random.Random(seed)
        model, start, end = staged(rng)
        options = Options(self_loops=bool(seed % 2))
        if seed % 4 == 1:
            end = rng.choice(reachable(model, start, options) or [end])
        changed = [c for c in model.component_order if start[c] != end[c]]
        effect = (rng.choice(changed),) if seed % 4 == 2 and changed else None
        searches.append((model, start, end, 3 + seed % 3, effect, options))
    tally = _tally(searches)
    assert tally["3 waypoints"] > 50 and tally["4 waypoints"] > 40, tally
    assert tally["extension"] > 0 and tally["close"] > 0 and tally["last middle"] > 0, tally
    assert tally["looked_up"] < tally["certified"], tally


# ---------------------------------------------------------------------------
# intervention effect classification


def ref_classify_intervention_effect(model, chain, iv, options=Options()):
    seq = chain.configurations
    for g in seq:
        model.validate_configuration(g)
    shared = causality._Shared(options)
    link_cause_union = []
    k = kernel.compile(model, options)
    for i in range(len(seq) - 1):
        union = {}
        a, b = k.encode(seq[i]), k.encode(seq[i + 1])
        e = causality._Episode(k, a, b, chain.links[i].effect_components, shared)
        for cert in causality._certified_causes(e):
            for c in cert.cause_set:
                union[c] = None
        link_cause_union.append(tuple(union))
    targets = set(iv.targets)
    overlaps = [i for i, u in enumerate(link_cause_union) if targets & set(u)]
    k = k.intervened(iv)

    if not overlaps:
        intervened, recerts = apply_intervention(model, iv), []
        for i in range(len(seq) - 1):
            if k.encode(seq[i + 1]) not in k.reachable(k.encode(seq[i])):
                return causality.ChainClassification(
                    verdict="indeterminate",
                    detail=f"no cause overlap, but link {i} is no longer realizable after {iv.name}",
                    link_causes=tuple(link_cause_union),
                    broken_link=i,
                )
            cert = _certify_link(intervened, seq[i], seq[i + 1], chain.links[i].effect_components, options, shared)
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
        if k.encode(seq[i + 1]) not in k.reachable(k.encode(seq[i])):
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


def skipping():
    """X stands at x1, which E needs, while Y steps from y0 through y1 to
    y2; E then moves to e1.  X is the cause of E's move, and Y is not.
    The intervention ``skip`` lets Y jump to y2, so re-certified on the
    intervened model, X's AC1 path is one step shorter than on the model."""
    text = """async
component X {
  domain x0 x1
}
component Y {
  domain y0 y1 y2
  rule y0 -> y1
  rule y1 -> y2
}
component E {
  domain e0 e1
  context X Y
  rule e0 (x1, y2) -> e1
}
config start = (X=x1, Y=y0, E=e0)
config end = (X=x1, Y=y2, E=e1)
intervention skip on Y {
  rule Y: y0 -> y2
  rule Y: y1 -> y2
}
"""
    doc = parse_model(text)
    return doc.model, doc.configuration("start"), doc.configuration("end")


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
        return classify(model, chain, iv, options=options)
    except CapExceeded as err:
        return ("cap", err.cap, err.size, err.what)


def test_classification_matches_reference(micro, micro_f1, micro_f2):
    """Verdicts, their evidence and cap overruns agree with the earlier
    function, on micro, on ``skipping``, whose preserved chain re-certifies
    with other evidence on the intervened model than on the model, and on
    the chains of generated models."""
    cases = []
    skip_model, skip_start, skip_end = skipping()
    for model, f1, f2 in ((micro, micro_f1, micro_f2), (skip_model, skip_start, skip_end)):
        for effect in (None, ("FrontEnd",) if model is micro else ("E",)):
            chains = causality.find_causal_chains(model, f1, f2, 3, effect)
            cases += _classification_cases(model, chains, Options())
    for model, f1, f2, options in _chain_cases(200):
        cases += _classification_cases(model, causality.find_causal_chains(model, f1, f2, 5, options=options), options)
    cases += [case[:3] + (replace(case[3], max_states=3),) for case in cases]
    tally, log, skips = {}, set(), 0
    for case in cases:
        got = _verdict(causality.classify_intervention_effect, *case)
        assert got == _verdict(ref_classify_intervention_effect, *case)
        kind = "cap" if isinstance(got, tuple) else got.verdict
        tally[kind] = tally.get(kind, 0) + 1
        if case[0] is micro and case[2].name == "thetaLog" and case[3].max_states > 3:
            log.add(kind)
        if case[0] is skip_model and case[2].name == "skip" and case[3].max_states > 3:
            # the chain's own certificates are those of the model
            assert got.verdict == "preserved" and got.recertified != tuple(l.certificate for l in case[1].links)
            skips += 1
    assert set(tally) == {"preserved", "disrupted", "indeterminate", "cap"}, tally
    assert "preserved" in log, log
    assert skips == 2


def test_invalid_endpoints_raise_before_any_search(micro, micro_f1, micro_f2):
    bad = Configuration(tuple((c, "nowhere" if c == "Logger" else b) for c, b in micro_f2.pairs))
    message = "behaviour 'nowhere' not in domain of 'Logger'"
    for f_start, f_end in ((micro_f1, bad), (bad, micro_f2), (bad, bad)):
        with pytest.raises(ModelError, match=message):
            causality.find_causal_chains(micro, f_start, f_end, 3)
    chain = causality.find_causal_chains(micro, micro_f1, micro_f2, 3)[0]
    assert len(chain.configurations) == 3
    # the invalid waypoint ends the chain, so a check made link by link would search its first link
    chain = replace(chain, configurations=chain.configurations[:2] + (bad,))
    with kernel.recording() as events, pytest.raises(ModelError, match=message):
        causality.classify_intervention_effect(micro, chain, micro.interventions[0])
    assert search_keys(events) == []


def test_configurations_are_encoded_where_they_enter(micro, micro_f1, micro_f2):
    """A chain query encodes its two endpoints and a classification its
    waypoints; links and their episodes run on state numbers."""
    with kernel.recording() as events:
        chains = causality.find_causal_chains(micro, micro_f1, micro_f2, max_len=5)
    assert recorded(events, "encode") == [(micro_f1,), (micro_f2,)]
    assert len(chains) > 1 and len(micro.interventions) == 4
    for chain in chains:
        for iv in micro.interventions:
            with kernel.recording() as events:
                causality.classify_intervention_effect(micro, chain, iv)
            assert recorded(events, "encode") == [(f,) for f in chain.configurations]
