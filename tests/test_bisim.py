import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalmc import bisim
from causalmc import formulas as F
from causalmc.bisim import (
    STEP,
    PointedModel,
    VariantGraph,
    VocabularyMismatch,
    _Lts,
    check_bisim,
    generate_formula_suite,
    intervention_closure,
)
from causalmc.generate import (
    random_configuration,
    random_system_model,
    rename_component_behaviours,
)
from causalmc.kernel import compile
from causalmc.model import (
    DEFAULT_OPTIONS,
    CapExceeded,
    Intervention,
    RuleRow,
    RuleTable,
    apply_intervention,
    constant_table,
)
from causalmc.semantics import evaluate


def test_closure_without_interventions_is_single_node(ex1):
    bare = replace(ex1, interventions=())
    vg = intervention_closure(bare)
    assert len(vg.models) == 1 and vg.edges == ()


def test_closure_reset_idempotent(ex1):
    vg = intervention_closure(ex1)
    assert len(vg.models) == 2
    assert (0, "theta_reset", 1) in vg.edges
    assert (1, "theta_reset", 1) in vg.edges


def test_closure_three_disjoint_interventions(micro):
    stripped = replace(
        micro, interventions=tuple(iv for iv in micro.interventions if iv.name != "thetaLog")
    )
    vg = intervention_closure(stripped)
    assert len(vg.models) == 8


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
    sides = [_Lts(p.model, p.point, labels, DEFAULT_OPTIONS) for p in (a, b)]
    block = {(i, s): lts.atoms[s] for i, lts in enumerate(sides) for s in lts.states}
    while True:
        signature = {
            (i, s): (block[(i, s)], tuple(frozenset(block[(i, t)] for t in lts.moves[s][l]) for l in labels))
            for i, lts in enumerate(sides)
            for s in lts.states
        }
        ids: dict = {}
        refined = {key: ids.setdefault(sig, len(ids)) for key, sig in signature.items()}
        if len(ids) == len(set(block.values())):
            break
        block = refined
    left, right = sides
    return tuple(
        (left.point(sa), right.point(sb))
        for sa in left.states
        for sb in right.states
        if block[(0, sa)] == block[(1, sb)]
    )


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
# the intervention closure against the canonical-serialization closure it replaced


def ref_intervention_closure(model, cap=4096):
    names = [iv.name for iv in model.interventions]
    models = [model]
    index = {model.canonical_json(): 0}
    edges = []
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for name in names:
                iv = models[i].intervention_map[name]
                variant = apply_intervention(models[i], iv)
                key = variant.canonical_json()
                j = index.get(key)
                if j is None:
                    if len(models) >= cap:
                        raise CapExceeded(cap, len(models) + 1, "intervention closure")
                    j = len(models)
                    index[key] = j
                    models.append(variant)
                    nxt.append(j)
                edges.append((i, name, j))
        frontier = nxt
    return VariantGraph(models=tuple(models), edges=tuple(edges))


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
        out.append(replace(model, interventions=tuple(ivs)).with_mode(("async", "sync")[seed % 2]))
    return out


def _canonical(graph):
    return [m.canonical_json() for m in graph.models], graph.edges


def test_closure_matches_canonical_serialization(ex1, micro):
    sizes = []
    for model in [ex1, micro] + _closure_models(400):
        want = ref_intervention_closure(model)
        got = intervention_closure(model)
        assert _canonical(got) == _canonical(want)
        assert got.models == want.models
        sizes.append(len(got.models))
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


def test_closure_variants_are_the_kernels_that_built_them(micro, micro_f1):
    for model in [micro] + _closure_models(100):
        root = compile(model)
        graph = intervention_closure(model)
        kernels = [compile(m) for m in graph.models]
        assert kernels[0] is root
        # a component no intervention targets keeps the root's table in every variant
        untouched = [i for i, c in enumerate(model.components) if not any(c.name in iv.targets for iv in model.interventions)]
        for k, m in zip(kernels, graph.models):
            assert k.model is m and k.tests is root.tests
            assert all(k.rules[i] is root.rules[i] for i in untouched)
        # each variant after the root is the kernel its first edge built
        built = {j for i, name, j in graph.edges if kernels[i].intervened(model.intervention_map[name]) is kernels[j]}
        assert built == set(range(1, len(kernels)))
    lts = _Lts(micro, micro_f1, [STEP] + sorted(micro.intervention_map), DEFAULT_OPTIONS)
    assert all(a is compile(m) for a, m in zip(lts.kernels, intervention_closure(micro).models))
