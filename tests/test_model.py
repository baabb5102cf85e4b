import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalmc import replace
from causalmc.generate import random_configuration, random_system_model
from causalmc.model import (
    ComponentDecl,
    Configuration,
    Intervention,
    ModelError,
    Options,
    RuleRow,
    RuleTable,
    SystemModel,
    apply_intervention,
    check_interface,
    conjugate_decompose,
    interface_violations,
    reachable,
    restrict,
    successors,
    validate_model,
)

SELF_LOOPS = Options(self_loops=True)


def seeded_model(seed, **kw):
    return random_system_model(random.Random(seed), **kw)


# ---------------------------------------------------------------------------
# validation


def test_fixture_models_validate(ex1, micro):
    assert validate_model(ex1) == []
    assert validate_model(micro) == []


def test_rule_output_outside_domain_is_reported(ex1):
    bad_rule = RuleTable((RuleRow("b11", (), "b99"),))
    comps = tuple(replace(c, rule=bad_rule) if c.name == "c1" else c for c in ex1.components)
    report = validate_model(replace(ex1, components=comps))
    assert len(report) == 1
    assert "c1" in report[0].site and "b99" in report[0].message


def test_intervention_behaviours_must_be_declared(micro):
    # servingCache and profileStale are pre-declared, so the fixture is clean
    assert "servingCache" in micro.behaviours("FrontEnd")
    assert "profileStale" in micro.behaviours("ProfileSvc")


def test_intervention_on_component_with_unknown_context_is_reported():
    comp = ComponentDecl(name="a", domain=("x",), context=("ghost",))
    iv = Intervention(name="i", targets=("a",), rules=(("a", RuleTable()),))
    report = validate_model(SystemModel(components=(comp,), interventions=(iv,)))
    assert [v.message for v in report] == ["influence context names unknown component 'ghost'"]


def test_context_with_self_is_reported():
    comp = ComponentDecl(name="a", domain=("x",), context=("a",))
    report = validate_model(SystemModel(components=(comp,)))
    assert any("itself" in v.message for v in report)


def test_context_naming_a_component_twice_is_reported_once(ex1):
    # c2's one-pattern rows, its own and an intervention's, are not checked against the doubled context
    comps = tuple(replace(c, context=("c1", "c1")) if c.name == "c2" else c for c in ex1.components)
    iv = Intervention(name="fix", targets=("c2",), rules=(("c2", RuleTable((RuleRow("b21", ("b12",), "b21"),))),))
    report = validate_model(replace(ex1, components=comps, interventions=ex1.interventions + (iv,)))
    assert [str(v) for v in report] == ["component c2: influence context names 'c1' twice"]


def test_duplicate_component_names_reported():
    comp = ComponentDecl(name="a", domain=("x",))
    report = validate_model(SystemModel(components=(comp, comp)))
    assert any("duplicate" in v.message for v in report)


def test_duplicate_intervention_names_reported():
    # intervention_map keeps the last of two same-named interventions, so the first could never be applied
    comp = ComponentDecl(name="a", domain=("x", "y"))
    first = Intervention(name="fix", targets=("a",), rules=(("a", RuleTable((RuleRow("x", (), "y"),))),))
    second = Intervention(name="fix", targets=("a",), rules=(("a", RuleTable()),))
    report = validate_model(SystemModel(components=(comp,), interventions=(first, second)))
    assert [str(v) for v in report] == ["intervention fix: duplicate intervention name"]


def test_non_finite_amounts_reported(micro):
    # the model-file reader rejects them, but a model built in Python reached the reports
    for word in ("cost", "penalty"):
        for amount in (float("inf"), float("-inf"), float("nan")):
            iv = replace(micro.interventions[0], **{word: amount})
            report = validate_model(replace(micro, interventions=(iv,) + micro.interventions[1:]))
            assert [str(v) for v in report] == [f"intervention {iv.name}: {word} {amount} is not finite"]


# ---------------------------------------------------------------------------
# successors


def test_ex1_successors_two_firings(ex1, ex1_doc):
    mid = ex1_doc.configuration("mid")
    got = {tuple(g.as_dict().values()) for g in successors(ex1, mid)}
    assert got == {("b13", "b21", "b31"), ("b12", "b22", "b31")}


def test_inert_component_has_no_successors():
    m = SystemModel(components=(ComponentDecl(name="a", domain=("x", "y")),))
    f = m.configuration({"a": "x"})
    assert successors(m, f) == []
    assert successors(m, f, SELF_LOOPS) == [f]


def test_micro_run_step_auth_fails(micro):
    f = micro.configuration(
        {"Auth": "idle", "UserDB": "dbError", "ProfileSvc": "idle", "Logger": "idle", "FrontEnd": "serving"}
    )
    succ = successors(micro, f)
    assert any(g["Auth"] == "authFail" for g in succ)


def test_unknown_component_in_configuration_rejected(ex1):
    f = Configuration((("c1", "b11"), ("zz", "b21"), ("c3", "b31")))
    with pytest.raises(ModelError):
        successors(ex1, f)


def test_sync_mode_single_successor(ex1, ex1_doc):
    m = replace(ex1, mode="sync")
    mid = ex1_doc.configuration("mid")
    succ = successors(m, mid)
    assert len(succ) == 1
    assert succ[0].as_dict() == {"c1": "b13", "c2": "b22", "c3": "b31"}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_async_frame_condition(seed):
    rng = random.Random(seed)
    m = seeded_model(seed)
    f = random_configuration(rng, m)
    for g in successors(m, f):
        assert sum(1 for c in m.component_order if f[c] != g[c]) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_rule_totality_by_enumeration(seed):
    # every (own, context) input resolves to exactly one output in the domain
    m = seeded_model(seed)
    from itertools import product as iproduct

    for decl in m.components:
        ctx_domains = [m.behaviours(d) for d in decl.context]
        for own in decl.domain:
            for ctx in iproduct(*ctx_domains):
                out = decl.rule.apply(own, ctx)
                assert out in decl.domain


def ref_apply(table, own, context_values):
    """The linear scan ``RuleTable.apply`` replaced: first matching row, else ``own``."""
    for row in table.rows:
        if row.matches(own, context_values):
            return row.output
    return own


def test_rule_index_matches_linear_scan():
    """Rows indexed by own behaviour, wildcard rows merged in row order,
    give the first matching row on random tables, including own values no
    row names and tables of wildcards only."""
    from itertools import product as iproduct

    rng = random.Random(0)
    tally = {"wildcard": 0, "literal": 0, "identity": 0}
    for _ in range(400):
        domain = [f"b{i}" for i in range(rng.randint(1, 4))]
        contexts = [[f"x{i}" for i in range(rng.randint(1, 3))] for _ in range(rng.randint(0, 2))]
        rows = tuple(
            RuleRow(
                rng.choice([None, None] + domain),
                tuple(rng.choice([None] + d) for d in contexts),
                rng.choice(domain),
            )
            for _ in range(rng.randint(0, 8))
        )
        table = RuleTable(rows)
        for own in domain:
            for ctx in iproduct(*contexts):
                want = ref_apply(table, own, ctx)
                assert table.apply(own, ctx) == want, (rows, own, ctx)
                first = next((row for row in rows if row.matches(own, ctx)), None)
                tally["identity" if first is None else "wildcard" if first.own is None else "literal"] += 1
    assert min(tally.values()) > 500, tally


# ---------------------------------------------------------------------------
# reachability


def test_reset_freezes_cycle(ex1, ex1_doc):
    m = apply_intervention(ex1, ex1.intervention_map["theta_reset"])
    start = ex1_doc.configuration("start")
    r = reachable(m, start)
    assert all(g["c1"] == "b11" and g["c2"] == "b21" for g in [start] + r)


def test_inert_model_reaches_nothing():
    m = SystemModel(components=(ComponentDecl(name="a", domain=("x", "y")),))
    assert reachable(m, m.configuration({"a": "x"})) == []


def test_micro_failure_configuration_reachable(micro, micro_f1, micro_f2):
    assert micro_f2 in set(reachable(micro, micro_f1))


# ---------------------------------------------------------------------------
# interventions


def test_reset_changes_only_target_tables(ex1):
    m = apply_intervention(ex1, ex1.intervention_map["theta_reset"])
    for got, want in zip(m.components, ex1.components, strict=True):
        if got.name == "c1":
            assert got.rule != want.rule
            assert replace(got, rule=want.rule) == want
        else:
            assert got == want
    assert (m.atoms, m.interventions, m.mode) == (ex1.atoms, ex1.interventions, ex1.mode)


def test_identity_intervention_is_noop(ex1):
    from causalmc.model import Intervention

    c1 = ex1.component("c1")
    iv = Intervention(name="same", targets=("c1",), rules=(("c1", c1.rule),))
    assert apply_intervention(ex1, iv) == ex1


def test_micro_theta2_clamps_frontend(micro, micro_f2):
    m = apply_intervention(micro, micro.intervention_map["theta2"])
    assert any(g["FrontEnd"] == "servingCache" for g in successors(m, micro_f2))


def test_replacement_outside_context_rejected(ex1):
    from causalmc.model import Intervention

    bad = Intervention(
        name="bad", targets=("c1",), rules=(("c1", RuleTable((RuleRow(None, (None,), "b11"),))),)
    )
    with pytest.raises(ModelError):
        apply_intervention(ex1, bad)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_intervention_locality_random(seed):
    m = seeded_model(seed, n_interventions=1)
    if not m.interventions:
        return
    iv = m.interventions[0]
    new = apply_intervention(m, iv)
    for got, want in zip(new.components, m.components, strict=True):
        if got.name not in iv.targets:
            assert got == want
    assert new.atoms == m.atoms


# ---------------------------------------------------------------------------
# restriction


def test_restrict_to_logger(micro, micro_f1):
    p = restrict(micro_f1, ("Logger",))
    assert p.pairs == (("Logger", "idle"),)


def test_restrict_full_and_empty(ex1, ex1_doc):
    start = ex1_doc.configuration("start")
    assert restrict(start, ex1.component_order).pairs == start.pairs
    assert restrict(start, ()).pairs == ()


# ---------------------------------------------------------------------------
# interfaces and decomposition


def test_ex1_interface_accepted(ex1):
    split = check_interface(ex1, ("c1", "c2"), ("c2", "c3"))
    assert split is not None and split.interface == ("c2",)


def test_ex1_one_sided_cover_rejected(ex1):
    assert check_interface(ex1, ("c1",), ("c2", "c3")) is None


def test_trivial_split_needs_flag(ex1):
    allc = ex1.component_order
    assert check_interface(ex1, allc, allc) is None
    split = check_interface(ex1, allc, allc, allow_trivial=True)
    assert split is not None and split.interface == allc


def test_micro_logger_split_rejected(micro):
    left = ("Auth", "UserDB", "Logger")
    right = ("ProfileSvc", "FrontEnd", "Logger")
    assert check_interface(micro, left, right) is None
    problems = interface_violations(micro, left, right)
    assert any("Logger" in p for p in problems)


def test_cover_must_equal_component_set(ex1):
    with pytest.raises(ModelError):
        check_interface(ex1, ("c1",), ("c2",))


def test_decompose_projects_steps_and_stutters(ex1, ex1_doc):
    split = check_interface(ex1, ("c1", "c2"), ("c2", "c3"))
    left, right = conjugate_decompose(ex1, split)
    start = ex1_doc.configuration("start")
    step = next(g for g in successors(ex1, start) if g["c1"] == "b12")
    left_proj = tuple((c, step[c]) for c in left.component_order)
    right_proj = tuple((c, step[c]) for c in right.component_order)
    left_from = left.configuration({c: start[c] for c in left.component_order})
    assert Configuration(left_proj) in set(successors(left, left_from))
    # the step touched only the left side, so the right projection stutters
    assert right_proj == tuple((c, start[c]) for c in right.component_order)


def test_decompose_trivial_split_returns_model(ex1):
    split = check_interface(ex1, ex1.component_order, ex1.component_order, allow_trivial=True)
    left, right = conjugate_decompose(ex1, split)
    assert left is ex1 and right is ex1


def test_left_model_runs_alone(ex1):
    split = check_interface(ex1, ("c1", "c2"), ("c2", "c3"))
    left, _ = conjugate_decompose(ex1, split)
    f = left.configuration({"c1": "b12", "c2": "b21"})
    assert any(g["c2"] == "b22" for g in successors(left, f))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_decomposition_soundness_random(seed):
    # global transitions project to local transitions or stutters on both
    # sides of any validated split
    rng = random.Random(seed)
    m = seeded_model(seed)
    names = m.component_order
    from itertools import product as iproduct

    splits = []
    for placement in iproduct(("L", "R", "B"), repeat=len(names)):
        left = tuple(n for n, p in zip(names, placement) if p in ("L", "B"))
        right = tuple(n for n, p in zip(names, placement) if p in ("R", "B"))
        if not left or not right:
            continue
        s = check_interface(m, left, right, allow_trivial=True)
        if s is not None:
            splits.append(s)
    if not splits:
        return
    split = rng.choice(splits)
    left_m, right_m = conjugate_decompose(m, split)
    f = random_configuration(rng, m)
    for g in successors(m, f):
        for side_m, side in ((left_m, split.left), (right_m, split.right)):
            proj_from = Configuration(tuple((c, f[c]) for c in side_m.component_order))
            proj_to = Configuration(tuple((c, g[c]) for c in side_m.component_order))
            assert proj_to == proj_from or proj_to in set(successors(side_m, proj_from))
    # and the two side projections agree on every interface component
    for g in successors(m, f):
        left_proj = Configuration(tuple((c, g[c]) for c in left_m.component_order))
        right_proj = Configuration(tuple((c, g[c]) for c in right_m.component_order))
        for c in split.interface:
            assert left_proj[c] == right_proj[c]


def test_intervened_model_keeps_interfaces(ex1):
    # interventions do not touch influence contexts, so validated splits survive
    m = apply_intervention(ex1, ex1.intervention_map["theta_reset"])
    assert check_interface(m, ("c1", "c2"), ("c2", "c3")) is not None
