import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cause_search import BACKUPS, CASES, STRUCTURED

from causalmc import kernel
from causalmc.causality import CauseQuery, find_causes
from causalmc.dsl import parse_model
from causalmc.generate import random_configuration, random_system_model
from causalmc.hp import (
    HPCauseQuery,
    HPModel,
    HPVariable,
    export_hp,
    hp_check_actual_cause,
    solve,
)
from causalmc.model import ModelError, reachable


def test_ex1_export_shape(ex1, ex1_doc):
    hp = export_hp(ex1, ex1_doc.configuration("start"))
    assert [v.name for v in hp.variables] == ["c1", "c2", "c3"]
    assert hp.variable("c1").domain == ("b11", "b12", "b13")
    assert hp.variable("c2").parents == ("c1",)
    assert hp.acyclic


def test_inert_component_constant_equation():
    from causalmc.model import ComponentDecl, SystemModel

    m = SystemModel(components=(ComponentDecl(name="a", domain=("x",)),))
    hp = export_hp(m, m.configuration({"a": "x"}))
    assert hp.variable("a").table == {("x", ()): "x"}


def test_micro_export_parents_and_cycle_flag(micro, micro_f1):
    hp = export_hp(micro, micro_f1)
    assert hp.variable("FrontEnd").parents == ("Auth", "ProfileSvc", "Logger")
    assert not hp.acyclic
    with pytest.raises(ModelError):
        solve(hp)


def test_context_reproduces_initial_configuration(micro, micro_f1):
    hp = export_hp(micro, micro_f1)
    assert hp.context_map() == micro_f1.as_dict()


def test_serialization_round_trip_fields(micro, micro_f1):
    d = export_hp(micro, micro_f1).to_dict()
    assert set(d) == {"variables", "context", "acyclic"}
    frontend = next(v for v in d["variables"] if v["name"] == "FrontEnd")
    assert len(frontend["equations"]) == 4 * 3 * 4 * 3  # own x parent domains


def test_copy_chain_hand_solved():
    v1 = HPVariable("V1", ("a", "b"), (), {("a", ()): "a", ("b", ()): "b"})
    v2 = HPVariable(
        "V2", ("a", "b"), ("V1",), {(x, (y,)): y for x in ("a", "b") for y in ("a", "b")}
    )
    hp = HPModel((v1, v2), (("V1", "b"), ("V2", "a")), acyclic=True)
    assert solve(hp) == {"V1": "b", "V2": "b"}
    verdict = hp_check_actual_cause(hp, HPCauseQuery.build({"V1": "b"}, {"V2": "b"}))
    assert verdict.is_cause
    assert verdict.alternate == (("V1", "a"),)


def test_effect_false_under_context_fails_first_clause():
    v1 = HPVariable("V1", ("a", "b"), (), {("a", ()): "a", ("b", ()): "b"})
    hp = HPModel((v1,), (("V1", "a"),), acyclic=True)
    verdict = hp_check_actual_cause(hp, HPCauseQuery.build({"V1": "a"}, {"V1": "b"}))
    assert not verdict.ac1 and not verdict.is_cause


def test_micro_cause_validates_through_export(micro, micro_f1, micro_f2):
    q = CauseQuery(micro_f1, micro_f2, ("FrontEnd",))
    cert = find_causes(micro, q)[0]
    hp = export_hp(micro, micro_f1)
    hq = HPCauseQuery.build({"UserDB": "dbError"}, {"FrontEnd": "error"}, path=cert.ac1_path)
    assert hp_check_actual_cause(hp, hq).is_cause


@pytest.mark.parametrize(
    "rows, verdicts, causes",
    [
        # C is set by A or B: either alone keeps the effect, so only both together are a cause
        ("rule _ (a1, _) -> c1\n  rule _ (_, b1) -> c1", {("A",): (False, True), ("A", "B"): (True, True)}, [("A", "B")]),
        # C is set by A and B: either alone is a cause, so both together are not minimal
        ("rule _ (a1, b1) -> c1", {("A",): (True, True), ("A", "B"): (True, False)}, [("A",), ("B",)]),
    ],
    ids=["or", "and"],
)
def test_equation_oracle_refuses_non_causes(rows, verdicts, causes):
    doc = parse_model(
        "component A { domain a0 a1 }\ncomponent B { domain b0 b1 }\n"
        f"component C {{ domain c0 c1\n  context A B\n  {rows} }}\n"
        "config run = (A=a1, B=b1, C=c0)\nconfig out = (A=a1, B=b1, C=c1)\n"
    )
    start, end = doc.configuration("run"), doc.configuration("out")
    hp = export_hp(doc.model, start)
    for candidate, (ac2, ac3) in verdicts.items():
        for path in (None, (start, end)):  # the static and the unrolled check
            hq = HPCauseQuery.build({c: end[c] for c in candidate}, {"C": "c1"}, path=path)
            verdict = hp_check_actual_cause(hp, hq)
            assert (verdict.ac1, verdict.ac2, verdict.ac3) == (True, ac2, ac3), (candidate, path)
    assert [cert.cause_set for cert in find_causes(doc.model, CauseQuery(start, end, ("C",)))] == causes


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_acyclic_solution_uniqueness(seed):
    # topological solving is deterministic: two runs agree, and the solution
    # satisfies every equation pointwise
    rng = random.Random(seed)
    m = random_system_model(rng, acyclic_contexts=True)
    f = random_configuration(rng, m)
    hp = export_hp(m, f)
    assert hp.acyclic
    sol = solve(hp)
    assert sol == solve(hp)
    for v in hp.variables:
        assert sol[v.name] == v.value(f[v.name], tuple(sol[p] for p in v.parents))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**9))
def test_engine_causes_accepted_by_equation_oracle(seed):
    rng = random.Random(seed)
    m = random_system_model(rng)
    if kernel.compile(m).size > 64:
        return
    f1 = random_configuration(rng, m)
    reach = reachable(m, f1)
    if not reach:
        return
    f2 = rng.choice(reach)
    effect = tuple(sorted(rng.sample(m.component_order, rng.randint(1, len(m.component_order)))))
    hp = export_hp(m, f1)
    for cert in find_causes(m, CauseQuery(f1, f2, effect)):
        hq = HPCauseQuery.build(
            {c: f2[c] for c in cert.cause_set},
            {c: f2[c] for c in effect},
            path=cert.ac1_path,
        )
        assert hp_check_actual_cause(hp, hq).is_cause


def test_equation_oracle_checks_every_async_certificate():
    """The oracle reads a path as one component firing per step.  Over the
    cause search's differential cases it accepts each of the 47 async
    certificates; of the 53 sync ones, whose steps may move several
    components at once, it accepts 28 and refuses the other 25 as no such
    path."""
    tally = Counter()
    for model, q, options in CASES + STRUCTURED + BACKUPS:
        hp = export_hp(model, q.start)
        for cert in find_causes(model, q, options):
            effect = {c: q.end[c] for c in q.effect_components}
            hq = HPCauseQuery.build({c: q.end[c] for c in cert.cause_set}, effect, path=cert.ac1_path)
            try:
                tally[model.mode, hp_check_actual_cause(hp, hq).is_cause] += 1
            except ModelError as err:
                assert model.mode == "sync" and str(err) == "path is not a one-component-per-step transition sequence"
                tally[model.mode, "refused"] += 1
    assert tally == {("async", True): 47, ("sync", True): 28, ("sync", "refused"): 25}
