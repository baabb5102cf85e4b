import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalmc import bisim, replace
from causalmc import formulas as F
from causalmc import kernel as kernel_module
from causalmc.bisim import (
    STEP,
    BisimRelation,
    BisimResult,
    PointedModel,
    VocabularyMismatch,
    _Lts,
    check_bisim,
    intervention_closure,
)
from causalmc.dsl import parse_model
from causalmc.generate import (
    generate_formula_suite,
    perturb_model,
    random_configuration,
    random_system_model,
    rename_component_behaviours,
)
from causalmc.kernel import compile
from causalmc.model import (
    DEFAULT_OPTIONS,
    CapExceeded,
    Intervention,
    ModelError,
    Options,
    RuleRow,
    RuleTable,
    apply_intervention,
    constant_table,
)
from causalmc.semantics import atom_test, evaluate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    import families
finally:
    sys.path.pop(0)


def test_closure_without_interventions_is_single_node(ex1):
    bare = replace(ex1, interventions=())
    vg = intervention_closure(bare)
    assert len(vg.kernels) == 1 and vg.edges == ()


def test_closure_reset_idempotent(ex1):
    vg = intervention_closure(ex1)
    assert len(vg.kernels) == 2
    assert (0, "theta_reset", 1) in vg.edges
    assert (1, "theta_reset", 1) in vg.edges


def test_closure_three_disjoint_interventions(micro):
    stripped = replace(
        micro, interventions=tuple(iv for iv in micro.interventions if iv.name != "thetaLog")
    )
    vg = intervention_closure(stripped)
    assert len(vg.kernels) == 8


def test_closure_dot_export(ex1):
    dot = intervention_closure(ex1).to_dot()
    assert "theta_reset" in dot and dot.startswith("digraph")


def test_self_bisimulation(ex1, ex1_doc):
    start = ex1_doc.configuration("start")
    r = check_bisim(PointedModel(ex1, start), PointedModel(ex1, start))
    assert r.bisimilar
    root_pair = ((0, start), (0, start))
    assert root_pair in r.relation


def test_renamed_inert_component_bisimilar(ex1, ex1_doc):
    start = ex1_doc.configuration("start")
    renamed, rencfg = rename_component_behaviours(ex1, "c3")
    r = check_bisim(PointedModel(ex1, start), PointedModel(renamed, rencfg(start)))
    assert r.bisimilar


def test_renamed_extension_atom_bisimilar():
    """An extension atom's configurations are renamed with the behaviours."""
    text = (Path(__file__).resolve().parents[1] / "models" / "ex1.model").read_text(encoding="utf-8")
    doc = parse_model(text + "atom at_mid = {mid}\n")
    start = doc.configuration("start")
    renamed, rencfg = rename_component_behaviours(doc.model, "c1")
    r = check_bisim(PointedModel(doc.model, start), PointedModel(renamed, rencfg(start)))
    assert r.bisimilar and (r.left_states, r.right_states) == (9, 9)


def test_vocabulary_mismatch_raises(ex1, ex1_doc):
    start = ex1_doc.configuration("start")
    one_sided = replace(ex1, interventions=())
    with pytest.raises(VocabularyMismatch):
        check_bisim(PointedModel(ex1, start), PointedModel(one_sided, start))


def test_never_flipping_variant_distinguished(ex1, ex1_doc):
    mid = ex1_doc.configuration("mid")
    frozen = replace(
        ex1,
        components=tuple(
            replace(c, rule=RuleTable(())) if c.name == "c2" else c for c in ex1.components
        ),
    )
    r = check_bisim(PointedModel(ex1, mid), PointedModel(frozen, mid))
    assert not r.bisimilar
    phi = r.distinguishing
    assert F.is_star_free(phi)
    assert phi == F.Diamond(F.Atom("c1_mid"))
    assert evaluate(ex1, mid, phi)
    assert not evaluate(frozen, mid, phi)


def test_relation_is_a_fixpoint(ex1, ex1_doc):
    # one more refinement round keeps every related pair related
    start = ex1_doc.configuration("start")
    r = check_bisim(PointedModel(ex1, start), PointedModel(ex1, start))
    again = check_bisim(PointedModel(ex1, start), PointedModel(ex1, start))
    assert set(r.relation.pairs) == set(again.relation.pairs)


def test_suite_agreement_on_renamed_pair(ex1, ex1_doc):
    start = ex1_doc.configuration("start")
    renamed, rencfg = rename_component_behaviours(ex1, "c1")
    point_b = rencfg(start)
    assert check_bisim(PointedModel(ex1, start), PointedModel(renamed, point_b)).bisimilar
    suite = generate_formula_suite(ex1.atom_map, ex1.intervention_map, depth=3)
    for phi in suite:
        assert evaluate(ex1, start, phi) == evaluate(renamed, point_b, phi), F.pretty(phi)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_random_self_bisimulation(seed):
    rng = random.Random(seed)
    m = random_system_model(rng)
    f = random_configuration(rng, m)
    assert check_bisim(PointedModel(m, f), PointedModel(m, f)).bisimilar


def test_suite_is_star_free_except_star_layer(ex1):
    suite = generate_formula_suite(ex1.atom_map, ex1.intervention_map, depth=2)
    assert any(isinstance(phi, F.Star) for phi in suite)
    assert any(F.modal_depth(phi) == 2 for phi in suite)


def _brute_force_pairs(a: PointedModel, b: PointedModel) -> tuple:
    """Every (left, right) state pair, in state order, whose block in the
    coarsest stable partition of both sides agrees, by naive refinement and
    a comparison of every pair."""
    labels = [STEP] + sorted(a.model.intervention_map)
    lts = _Lts(a, b, labels, DEFAULT_OPTIONS)
    n, states = lts.roots[1], range(len(lts.atoms))
    block = list(lts.atoms)
    while True:
        signature = [(block[s], tuple(frozenset(block[t] for t in dests) for dests in row)) for s, row in enumerate(lts.moves)]
        ids: dict = {}
        refined = [ids.setdefault(sig, len(ids)) for sig in signature]
        if len(ids) == len(set(block)):
            break
        block = refined
    return tuple((lts.point(sa), lts.point(sb)) for sa in states[:n] for sb in states[n:] if block[sa] == block[sb])


def test_relation_size_decodes_no_state(ex1, ex1_doc):
    # the report reads only the relation's size: no state is decoded for it
    start = ex1_doc.configuration("start")
    renamed, rencfg = rename_component_behaviours(ex1, "c1")
    with kernel_module.recording() as events:
        r = check_bisim(PointedModel(ex1, start), PointedModel(renamed, rencfg(start)))
        assert r.bisimilar and len(r.relation) == 9
        assert not any(kind == "decode" for kind, *_ in events)
        assert len(r.relation.pairs) == 9 and any(kind == "decode" for kind, *_ in events)


def test_relation_pairs_match_brute_force(ex1, ex1_doc, micro, micro_f1):
    start = ex1_doc.configuration("start")
    renamed, rencfg = rename_component_behaviours(ex1, "c1")
    for a, b in (
        (PointedModel(micro, micro_f1), PointedModel(micro, micro_f1)),
        (PointedModel(ex1, start), PointedModel(renamed, rencfg(start))),
    ):
        r = check_bisim(a, b)
        assert r.bisimilar
        assert r.relation.pairs == _brute_force_pairs(a, b)


# ---------------------------------------------------------------------------
# the intervention closure against a reference that keys each variant by its value


def ref_intervention_closure(model, cap=4096):
    """The intervened models of the closure of ``model``, and its edges."""
    names = [iv.name for iv in model.interventions]
    models = [model]
    index = {model: 0}
    edges = []
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for name in names:
                iv = models[i].intervention_map[name]
                variant = apply_intervention(models[i], iv)
                j = index.get(variant)
                if j is None:
                    if len(models) >= cap:
                        raise CapExceeded(cap, len(models) + 1, "intervention closure")
                    j = len(models)
                    index[variant] = j
                    models.append(variant)
                    nxt.append(j)
                edges.append((i, name, j))
        frontier = nxt
    return tuple(models), tuple(edges)


def assert_same_closure(got, want):
    """The engine's closure ``got`` has the reference's edges, and each of its
    variant kernels runs the rule tables of the reference's model there."""
    models, edges = want
    assert got.edges == edges
    tables = [tuple(None if rule is None else rule[1] for rule in k.rules) for k in got.kernels]
    assert tables == [tuple(None if c.free else c.rule for c in m.components) for m in models]


def _random_table(rng, model, decl):
    rows = []
    for _ in range(rng.randint(0, 3)):
        ctx = tuple(rng.choice((None,) + model.behaviours(d)) for d in decl.context)
        rows.append(RuleRow(rng.choice((None,) + decl.domain), ctx, rng.choice(decl.domain)))
    return RuleTable(tuple(rows))


def _closure_models(count):
    """Generated models with up to four interventions of one or two targets
    each.  A replacement table is the target's own table, a constant, or a
    random table, so variants often coincide and must be merged."""
    out = []
    for seed in range(count):
        rng = random.Random(seed)
        model = random_system_model(rng, max_components=4, max_behaviours=3, n_interventions=0)
        ivs = []
        for j in range(rng.randint(0, 4)):
            targets = rng.sample(model.components, rng.randint(1, min(2, len(model.components))))
            rules = []
            for c in targets:
                constant = constant_table(len(c.context), rng.choice(c.domain))
                rules.append((c.name, rng.choice((c.rule, constant, _random_table(rng, model, c)))))
            ivs.append(Intervention(f"theta{j}", tuple(c.name for c in targets), tuple(rules)))
        out.append(replace(model, interventions=tuple(ivs), mode=("async", "sync")[seed % 2]))
    return out


def test_closure_matches_value_keyed_reference(ex1, micro):
    sizes = []
    for model in [ex1, micro] + _closure_models(400):
        got = intervention_closure(model)
        assert_same_closure(got, ref_intervention_closure(model))
        sizes.append(len(got.kernels))
    assert max(sizes) > 8 and sizes.count(1) > 20
    # a variant can equal its source: some edge loops without a repeated intervention
    assert any(i == j for model in _closure_models(40) for i, _, j in intervention_closure(model).edges)


def test_closure_cap_overrun_matches(monkeypatch, micro):
    monkeypatch.setattr(bisim, "CLOSURE_CAP", 5)
    with pytest.raises(CapExceeded) as got:
        intervention_closure(micro)
    with pytest.raises(CapExceeded) as want:
        ref_intervention_closure(micro, cap=5)
    assert str(got.value) == str(want.value) == "intervention closure size 6 exceeds configured cap 5"


def _count_builds(graph):
    """The intervention of each variant the kernels of ``graph`` built: every
    kernel keeps the variants it built, in the order it built them, and only
    the graph's kernels build any."""
    return [iv.name for k in graph.kernels for iv in k.variants]


def test_closure_builds_each_new_variant_once(ex1, micro):
    built = edges = 0
    for model in [ex1, micro] + _closure_models(400):
        model = replace(model)  # a fresh instance, with no kernel or variants yet
        got = intervention_closure(model)
        calls = _count_builds(got)
        # the root row builds every intervention's variant; later rows build only new ones
        assert len(calls) <= len(model.interventions) + len(got.kernels) - 1
        assert calls[: len(model.interventions)] == [iv.name for iv in model.interventions]
        assert_same_closure(got, ref_intervention_closure(model))
        built, edges = built + len(calls), edges + len(got.edges)
    assert built < edges / 2, (built, edges)


def test_closure_rejects_an_invalid_intervention_as_before(ex1):
    bad = [
        Intervention("bad", ("nope",), ()),
        Intervention("bad", ("c2",), ()),
        Intervention("bad", ("c1",), (("c1", constant_table(0, "b12")), ("c3", constant_table(0, "b31")))),
    ]
    for iv in bad:
        # the invalid intervention comes after a valid one, whose variant is new
        model = replace(ex1, interventions=ex1.interventions + (iv,))
        with pytest.raises(ModelError) as want:
            ref_intervention_closure(model)
        with pytest.raises(ModelError) as got:
            intervention_closure(replace(model))
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("intervention bad: ")


def test_closure_variants_are_the_kernels_that_built_them(micro, micro_f1):
    for model in [micro] + _closure_models(100):
        root = compile(model)
        graph = intervention_closure(model)
        kernels = graph.kernels
        assert kernels[0] is root
        # a component no intervention targets keeps the root's table in every variant
        untouched = [i for i, c in enumerate(model.components) if not any(c.name in iv.targets for iv in model.interventions)]
        for k in kernels:
            assert k.model is root.model == model and k.tests is root.tests
            assert all(k.rules[i] is root.rules[i] for i in untouched)
        # each variant after the root is the kernel its first edge built
        built = {j for i, name, j in graph.edges if kernels[i].intervened(model.intervention_map[name]) is kernels[j]}
        assert built == set(range(1, len(kernels)))
    point = PointedModel(micro, micro_f1)
    lts = _Lts(point, point, [STEP] + sorted(micro.intervention_map), DEFAULT_OPTIONS)
    for kernels in lts.kernels:
        assert kernels == intervention_closure(micro).kernels
    # the closure's root is the model compiled under the query's options
    loops = Options(self_loops=True)
    graph = intervention_closure(micro, loops)
    assert graph.kernels[0] is compile(micro, loops) and {k.options for k in graph.kernels} == {loops}


# ---------------------------------------------------------------------------
# check_bisim against the tuple-keyed refinement it replaced: states were
# (variant, state) pairs and colours were keyed by (id(lts), state).  The copy
# is verbatim except that it reads the closure's root and edges directly, and
# checks the state cap at each insertion, the root included.


class ref_Lts:
    def __init__(self, model, point, labels, options):
        self.graph = intervention_closure(model, options)
        edge_map = {(a, name): b for a, name, b in self.graph.edges}
        self.kernels = self.graph.kernels
        self.labels = labels
        self.root = (0, self.kernels[0].encode(point))
        self.moves = {}
        tests = [[atom_test(k, a) for a in sorted(model.atom_map)] for k in self.kernels]
        self.atoms = {}
        frontier = [self.root]
        seen = set()

        def hold(state):  # the root and every state queued, counted as each is added
            seen.add(state)
            if len(seen) > options.max_states:
                raise CapExceeded(options.max_states, len(seen), "bisimulation state space")

        hold(self.root)
        while frontier:
            state = frontier.pop()
            variant, f = state
            self.atoms[state] = tuple(t(f) for t in tests[variant])
            row = {}
            row[STEP] = [(variant, g) for g in self.kernels[variant].successors(f)]
            for name in labels:
                if name == STEP:
                    continue
                tgt = edge_map[(variant, name)]
                row[name] = [(tgt, g) for g in self.kernels[tgt].successors(f)]
            self.moves[state] = row
            for dests in row.values():
                for s in dests:
                    if s not in seen:
                        hold(s)
                        frontier.append(s)
        self.states = list(self.moves)

    def point(self, state):
        variant, s = state
        return variant, self.kernels[variant].decode(s)


def ref_check_bisim(a, b, options=DEFAULT_OPTIONS):
    left_atoms = sorted(a.model.atom_map)
    right_atoms = sorted(b.model.atom_map)
    if left_atoms != right_atoms:
        raise VocabularyMismatch(f"atom vocabularies differ: {left_atoms} vs {right_atoms}")
    left_ivs = sorted(a.model.intervention_map)
    right_ivs = sorted(b.model.intervention_map)
    if left_ivs != right_ivs:
        raise VocabularyMismatch(f"declared intervention names differ: {left_ivs} vs {right_ivs}")
    labels = [STEP] + left_ivs
    lts_a = ref_Lts(a.model, a.point, labels, options)
    lts_b = ref_Lts(b.model, b.point, labels, options)

    states = [(lts, s) for lts in (lts_a, lts_b) for s in lts.states]
    colour = ref_number_blocks({(id(lts), s): lts.atoms[s] for lts, s in states})
    history = [colour]
    while True:
        fresh = ref_number_blocks(
            {
                (id(lts), s): (
                    colour[(id(lts), s)],
                    tuple(frozenset(colour[(id(lts), t)] for t in lts.moves[s][l]) for l in labels),
                )
                for lts, s in states
            }
        )
        if max(fresh.values()) == max(colour.values()):
            break
        colour = fresh
        history.append(colour)

    root_a = (id(lts_a), lts_a.root)
    root_b = (id(lts_b), lts_b.root)
    if colour[root_a] == colour[root_b]:
        by_colour = {}
        for sb in lts_b.states:
            by_colour.setdefault(colour[(id(lts_b), sb)], []).append(lts_b.point(sb))
        points_a = {sa: lts_a.point(sa) for sa in lts_a.states}
        pairs = tuple(
            (points_a[sa], pb) for sa in lts_a.states for pb in by_colour.get(colour[(id(lts_a), sa)], ())
        )
        return BisimResult(True, BisimRelation(len(pairs), lambda: pairs), None, len(lts_a.states), len(lts_b.states))
    phi = ref_distinguish(lts_a, lts_b, history, labels, sorted(a.model.atom_map))
    return BisimResult(False, None, phi, len(lts_a.states), len(lts_b.states))


def ref_number_blocks(signature):
    ids = {}
    return {k: ids.setdefault(sig, len(ids)) for k, sig in signature.items()}


def ref_distinguish(lts_a, lts_b, history, labels, atom_names):
    def level(sa, sb):
        for k, col in enumerate(history):
            if col[(id(lts_a), sa)] != col[(id(lts_b), sb)]:
                return k
        return None

    def build(sa, sb, k):
        if k == 0:
            va, vb = lts_a.atoms[sa], lts_b.atoms[sb]
            for name, xa, xb in zip(atom_names, va, vb):
                if xa != xb:
                    return F.Atom(name) if xa else F.Not(F.Atom(name))
            raise ModelError("refinement produced no atomic difference at level 0")
        col = history[k - 1]
        for label in labels:
            moves_a = lts_a.moves[sa][label]
            moves_b = lts_b.moves[sb][label]
            cols_a = {col[(id(lts_a), t)] for t in moves_a}
            cols_b = {col[(id(lts_b), t)] for t in moves_b}
            extra_a = cols_a - cols_b
            if extra_a:
                ta = ref_pick(moves_a, lts_a, col, extra_a)
                parts = []
                for tb in moves_b:
                    kk = level(ta, tb)
                    parts.append(build(ta, tb, kk))
                return bisim._wrap(label, F.conj(bisim._dedup(parts)))
            extra_b = cols_b - cols_a
            if extra_b:
                tb = ref_pick(moves_b, lts_b, col, extra_b)
                parts = []
                for ta in moves_a:
                    parts.append(F.Not(build(ta, tb, level(ta, tb))))
                return F.Not(bisim._wrap(label, F.conj(bisim._dedup(parts))))
        raise ModelError("refinement split a pair without a divergent move")

    k = level(lts_a.root, lts_b.root)
    return build(lts_a.root, lts_b.root, k)


def ref_pick(moves, lts, col, wanted_colours):
    for t in moves:
        if col[(id(lts), t)] in wanted_colours:
            return t
    raise ModelError("internal: no successor of the recorded colour")


def _bisim_outcome(check, a, b, options):
    """Everything a report can show of one check: the verdict, the relation's
    size and pairs in order, the printed formula and both state counts, or
    the cap overrun."""
    try:
        r = check(a, b, options)
    except CapExceeded as exc:
        return "cap", exc.cap, exc.size, exc.what
    formula = None if r.distinguishing is None else F.pretty(r.distinguishing)
    size, pairs = (None, None) if r.relation is None else (len(r.relation), r.relation.pairs)
    return r.bisimilar, size, pairs, formula, r.left_states, r.right_states


def _bisim_cases(ex1, ex1_doc, micro, micro_f1, count):
    """(left, right, option settings) per model: ex1 and micro, then sync and
    async generated models with up to three interventions, each against a
    renamed and a perturbed copy."""
    yield PointedModel(micro, micro_f1), PointedModel(micro, micro_f1), 0
    start = ex1_doc.configuration("start")
    renamed, rencfg = rename_component_behaviours(ex1, "c1")
    yield PointedModel(ex1, start), PointedModel(renamed, rencfg(start)), 1
    mid = ex1_doc.configuration("mid")
    yield PointedModel(ex1, mid), PointedModel(perturb_model(random.Random(3), ex1), mid), 2
    for seed in range(count):
        rng = random.Random(seed)
        model = random_system_model(rng, max_components=3, max_behaviours=3, n_interventions=3)
        model = replace(model, mode=("async", "sync")[seed % 2])
        point = random_configuration(rng, model)
        renamed, rencfg = rename_component_behaviours(model, rng.choice(model.component_order))
        yield PointedModel(model, point), PointedModel(renamed, rencfg(point)), seed
        yield PointedModel(model, point), PointedModel(perturb_model(rng, model), point), seed


def _bisim_options(cases):
    """Each case under the default options, with self-loops, and under a
    state cap of 0 to 5."""
    for a, b, seed in cases:
        for options in (
            DEFAULT_OPTIONS,
            replace(DEFAULT_OPTIONS, self_loops=True),
            replace(DEFAULT_OPTIONS, max_states=seed % 6),
        ):
            yield a, b, seed, options


def test_check_bisim_matches_tuple_keyed_reference(ex1, ex1_doc, micro, micro_f1):
    seen = {"cap": 0, True: 0, False: 0}
    for a, b, seed, options in _bisim_options(_bisim_cases(ex1, ex1_doc, micro, micro_f1, 400)):
        want = _bisim_outcome(ref_check_bisim, a, b, options)
        assert _bisim_outcome(check_bisim, a, b, options) == want, (seed, options)
        seen[want[0]] += 1
    # every outcome occurs: bisimilar, distinguished, and a cap overrun
    assert min(seen.values()) > 100, seen


# ---------------------------------------------------------------------------
# refinement over shared successor lists against the round loop that signed
# every (state, label) by its own colour set: verbatim but for the names


def ref_refine(atoms, moves):
    colour = ref_number_list(atoms)
    history = [colour]
    while True:
        fresh = ref_number_list(
            [(c, tuple(frozenset(colour[t] for t in dests) for dests in row)) for c, row in zip(colour, moves)]
        )
        # refinement only splits blocks, so an unchanged block count is a fixpoint
        if max(fresh) == max(colour):
            break
        colour = fresh
        history.append(colour)
    return history


def ref_number_list(signatures):
    ids = {}
    return [ids.setdefault(sig, len(ids)) for sig in signatures]


def _bundled_pairs(ex1, ex1_doc, micro, micro_f1):
    """The bundled models against themselves, ex1 against the perturbed copies
    of the golden file, and the benchmark's pipelines and ring against
    renamed and perturbed copies."""
    yield PointedModel(micro, micro_f1), PointedModel(micro, micro_f1)
    start = ex1_doc.configuration("start")
    yield PointedModel(ex1, start), PointedModel(ex1, start)
    for k in range(20):
        yield PointedModel(ex1, start), PointedModel(perturb_model(random.Random(k), ex1), start)
    texts = [families.pipeline(random.Random(n), n, fault) + ("start",) for n in (3, 4) for fault in (True, False)]
    texts.append(families.ring(random.Random(0), 3) + ("failing",))
    for text, names, point in texts:
        doc = parse_model(text)
        a = PointedModel(doc.model, doc.configuration(names[point]))
        renamed, rencfg = rename_component_behaviours(doc.model, names["comps"][1])
        yield a, PointedModel(renamed, rencfg(a.point))
        for k in range(3):
            yield a, PointedModel(perturb_model(random.Random(k), doc.model), a.point)


def test_refinement_rounds_match_reference(ex1, ex1_doc, micro, micro_f1):
    cases = [(a, b, options) for a, b, _, options in _bisim_options(_bisim_cases(ex1, ex1_doc, micro, micro_f1, 400))]
    cases += [(a, b, DEFAULT_OPTIONS) for a, b in _bundled_pairs(ex1, ex1_doc, micro, micro_f1)]
    assert len(cases) == 2409 + 42
    refined = distinguished = 0
    for a, b, options in cases:
        try:
            result = check_bisim(a, b, options)
        except CapExceeded:
            continue
        labels = [STEP] + sorted(a.model.intervention_map)
        lts = _Lts(a, b, labels, options)
        n = lts.roots[1]
        want = ref_refine(lts.atoms, lts.moves)
        history = bisim._refine(lts.atoms, lts.rows, lts.lists, n)
        assert history == want[: len(history)]
        # a distinguished pair stops at the first round that splits the
        # roots, a bisimilar one at the reference fixpoint
        splits = [k for k, colour in enumerate(want) if colour[0] != colour[n]]
        assert len(history) == (splits[0] + 1 if splits else len(want))
        assert result.bisimilar == (not splits)
        refined += len(history) > 2
        distinguished += not result.bisimilar
    assert refined > 100 and distinguished > 150, (refined, distinguished)


def test_refinement_stops_at_the_distinguishing_depth(ex1, ex1_doc):
    """For each distinguished pair of ``bisim_perturbed.json``, refinement
    computes as many rounds as the distinguishing formula's modal depth."""
    start = ex1_doc.configuration("start")
    golden = json.loads((Path(__file__).parent / "golden" / "bisim_perturbed.json").read_text(encoding="utf-8"))
    distinguished = [entry for entry in golden if not entry["bisimilar"]]
    assert len(distinguished) == 14
    for entry in distinguished:
        a, b = PointedModel(ex1, start), PointedModel(perturb_model(random.Random(entry["k"]), ex1), start)
        result = check_bisim(a, b)
        assert F.pretty(result.distinguishing) == entry["distinguishing"]
        lts = _Lts(a, b, [STEP] + sorted(ex1.intervention_map), DEFAULT_OPTIONS)
        history = bisim._refine(lts.atoms, lts.rows, lts.lists, lts.roots[1])
        assert len(history) - 1 == F.modal_depth(result.distinguishing), entry


def test_successor_lists_are_shared(micro, micro_f1):
    text, names = families.ring(random.Random(0), 4)
    doc = parse_model(text)
    for model, point in ((micro, micro_f1), (doc.model, doc.configuration(names["failing"]))):
        labels, side = [STEP] + sorted(model.intervention_map), PointedModel(model, point)
        lts = _Lts(side, side, labels, DEFAULT_OPTIONS)
        assert len(lts.lists) < len(lts.atoms) * len(labels) / 2, (len(lts.lists), len(lts.atoms))
        # each state's moves are views onto the shared lists
        assert all(m is lts.lists[d] for moves, row in zip(lts.moves, lts.rows) for m, d in zip(moves, row))


def _chain(n: int, loop: bool):
    """One component stepping through n behaviours in a line; with ``loop``
    the last one steps back to the first."""
    lines = ["async", "component c {", "  domain " + " ".join(f"b{i}" for i in range(n))]
    lines += [f"  rule b{i} -> b{i + 1}" for i in range(n - 1)]
    lines += [f"  rule b{n - 1} -> b0"] if loop else []
    lines += ["}", "config start = (c=b0)"]
    doc = parse_model("\n".join(lines) + "\n")
    return PointedModel(doc.model, doc.configuration("start"))


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_distinguishing_formula_needs_no_recursion():
    """Two chains whose first difference lies 300 steps from the roots: the
    formula has one level per step, and building it uses no frame per level."""
    a, b = _chain(300, False), _chain(300, True)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        result = check_bisim(a, b)
    finally:
        sys.setrecursionlimit(limit)
    assert not result.bisimilar and F.modal_depth(result.distinguishing) == 300
    sys.setrecursionlimit(10_000)  # evaluation still takes a few frames per modal level
    try:
        assert evaluate(a.model, a.point, result.distinguishing)
        assert not evaluate(b.model, b.point, result.distinguishing)
    finally:
        sys.setrecursionlimit(limit)
