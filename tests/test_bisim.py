import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalmc import formulas as F
from causalmc.bisim import (
    STEP,
    PointedModel,
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
from causalmc.model import DEFAULT_OPTIONS, RuleTable
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
