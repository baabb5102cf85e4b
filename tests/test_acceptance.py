"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from contextlib import contextmanager

from oracle import oracle_find_causes

from causalmc import formulas as F
from causalmc import kernel
from causalmc.bisim import PointedModel, check_bisim
from causalmc.causality import (
    CauseQuery,
    check_cause,
    classify_intervention_effect,
    find_causal_chains,
    find_causes,
)
from causalmc.dsl import parse_query_text
from causalmc.generate import (
    generate_formula_suite,
    random_configuration,
    random_system_model,
    perturb_model,
    rename_component_behaviours,
)
from causalmc.hp import HPCauseQuery, export_hp, hp_check_actual_cause
from causalmc.model import Options, apply_intervention, reachable
from causalmc.queries import min_cost_recovery, run_query
from causalmc.semantics import evaluate


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_criterion_1_guaranteed_recovery(micro, micro_f2):
    with criterion("criterion 1: guaranteed recovery verdicts"):
        fail = F.Atom("phi_fail")
        started = time.perf_counter()
        verdicts = {
            name: evaluate(micro, micro_f2, F.Intervene(name, F.Box(F.Not(fail))))
            for name in ("theta1", "theta2", "theta3")
        }
        elapsed = time.perf_counter() - started
        assert verdicts == {"theta1": True, "theta2": True, "theta3": False}
        assert elapsed < 1.0


def test_criterion_2_min_cost_selection(micro_doc, micro_f2):
    with criterion("criterion 2: min-cost recovery selects theta2"):
        chosen = min_cost_recovery(micro_doc, micro_f2, F.Atom("phi_fail"))
        assert chosen is not None and chosen.name == "theta2"
        assert chosen.cost == 5.0


def test_criterion_3_actual_cause(micro, micro_f1, micro_f2):
    with criterion("criterion 3: minimal actual cause with pinned witness"):
        q = CauseQuery(micro_f1, micro_f2, ("FrontEnd",))
        certs = find_causes(micro, q)
        assert [c.cause_set for c in certs] == [("UserDB",)]
        cert = certs[0]
        assert cert.is_cause
        assert cert.witness_set == ("Auth", "ProfileSvc", "Logger", "FrontEnd")
        # the literal start-equals-end reading rejects the same candidate
        strict = check_cause(micro, q, ("UserDB",), Options(strict_ac1=True))
        assert not strict.ac1 and not strict.is_cause
        assert find_causes(micro, q, Options(strict_ac1=True)) == []


def test_criterion_4_intervention_reset(ex1, ex1_doc):
    with criterion("criterion 4: reset intervention freezes the cycle"):
        started = time.perf_counter()
        m = apply_intervention(ex1, ex1.intervention_map["theta_reset"])
        start = ex1_doc.configuration("start")
        for g in [start] + reachable(m, start):
            assert g["c1"] == "b11" and g["c2"] == "b21"
        assert time.perf_counter() - started < 0.1


def test_criterion_5_interface_detection(ex1):
    with criterion("criterion 5: interface detection verdicts"):
        from causalmc.model import check_interface

        split = check_interface(ex1, ("c1", "c2"), ("c2", "c3"))
        assert split is not None and split.interface == ("c2",)
        assert check_interface(ex1, ("c1",), ("c2", "c3")) is None


def _random_cause_query(seed):
    rng = random.Random(seed)
    model = random_system_model(rng, max_components=3, max_behaviours=3)
    assert kernel.compile(model).size <= 27
    f1 = random_configuration(rng, model)
    reach = reachable(model, f1)
    f2 = rng.choice(reach) if reach else random_configuration(rng, model)
    changed = [c for c in model.component_order if f1[c] != f2[c]]
    pool = changed if changed else list(model.component_order)
    effect = tuple(sorted(rng.sample(pool, rng.randint(1, len(pool)))))
    return model, f1, f2, effect


def test_criterion_6_and_7_cause_oracle_and_hp(request):
    with criterion("criterion 6: engine agrees with brute-force enumerator on 200 models"):
        started = time.perf_counter()
        all_certs = []
        for i in range(200):
            model, f1, f2, effect = _random_cause_query(20260810 + i)
            got = {frozenset(c.cause_set) for c in find_causes(model, CauseQuery(f1, f2, effect))}
            want = oracle_find_causes(model, f1, f2, effect)
            assert got == want, f"disagreement on seed {20260810 + i}"
            for cert in find_causes(model, CauseQuery(f1, f2, effect)):
                all_certs.append((model, f1, f2, effect, cert))
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
    with criterion("criterion 7: every engine cause passes the structural-equation check"):
        assert all_certs, "sweep produced no causes to validate"
        for model, f1, f2, effect, cert in all_certs:
            hp = export_hp(model, f1)
            hq = HPCauseQuery.build(
                {c: f2[c] for c in cert.cause_set},
                {c: f2[c] for c in effect},
                path=cert.ac1_path,
            )
            assert hp_check_actual_cause(hp, hq).is_cause


def _bisimilar_pair(seed):
    rng = random.Random(seed)
    model = random_system_model(rng, max_components=3, max_behaviours=3)
    point = random_configuration(rng, model)
    comp = rng.choice(model.component_order)
    renamed, rencfg = rename_component_behaviours(model, comp)
    return model, point, renamed, rencfg(point)


def test_criterion_8_bisimulation_soundness():
    with criterion("criterion 8: renamed pairs agree on the depth-3 formula suite"):
        disagreements = 0
        for i in range(50):
            model, point, renamed, other = _bisimilar_pair(8800 + i)
            assert check_bisim(PointedModel(model, point), PointedModel(renamed, other)).bisimilar
            suite = generate_formula_suite(
                model.atom_map, model.intervention_map, depth=3, include_star=True
            )
            for phi in suite:
                if evaluate(model, point, phi) != evaluate(renamed, other, phi):
                    disagreements += 1
        assert disagreements == 0


def test_criterion_9_bisimulation_completeness():
    with criterion("criterion 9: non-bisimilar pairs get verified distinguishing formulas"):
        found = 0
        # the 50 pairs lie among the first 204 seeds; the bound makes a search that finds too few fail
        for seed in range(9901, 10901):
            rng = random.Random(seed)
            model = random_system_model(rng, max_components=3, max_behaviours=3)
            point = random_configuration(rng, model)
            other = perturb_model(rng, model)
            if other == model:
                continue
            result = check_bisim(PointedModel(model, point), PointedModel(other, point))
            if result.bisimilar:
                continue
            phi = result.distinguishing
            assert phi is not None and F.is_star_free(phi)
            assert evaluate(model, point, phi)
            assert not evaluate(other, point, phi)
            found += 1
            if found == 50:
                break
        assert found == 50


def test_criterion_10_chain_classification(micro, micro_doc, micro_f1, micro_f2):
    with criterion("criterion 10: chain preserved under no-overlap, disrupted under repair"):
        chain = find_causal_chains(
            micro, micro_f1, micro_f2, max_len=2, effect_components=("FrontEnd",)
        )[0]
        preserved = classify_intervention_effect(micro, chain, micro.intervention_map["thetaLog"])
        assert preserved.verdict == "preserved"
        assert preserved.recertified and all(c.is_cause for c in preserved.recertified)
        disrupted = classify_intervention_effect(micro, chain, micro.intervention_map["theta1"])
        assert disrupted.verdict == "disrupted" and disrupted.broken_link == 0
        # evidence replays: the overlapping link transition is gone
        m = apply_intervention(micro, micro.intervention_map["theta1"])
        assert chain.configurations[1] not in set(reachable(m, chain.configurations[0]))
        # and the preserved chain re-certifies link by link
        m2 = apply_intervention(micro, micro.intervention_map["thetaLog"])
        q = CauseQuery(micro_f1, micro_f2, ("FrontEnd",))
        assert [c.cause_set for c in find_causes(m2, q)] == [("UserDB",)]


def test_combined_acceptance_runtime_budget(micro_doc):
    with criterion("combined: representative query battery stays fast"):
        started = time.perf_counter()
        for stanza_text in (
            "check f2 |= <theta1> [] ! phi_fail",
            "cause from f1 to f2 effect {FrontEnd}",
            "chain from f1 to f2 effect {FrontEnd} maxlen 2",
            "mincost f2 avoiding phi_fail",
            "utility f2 avoiding phi_fail",
        ):
            run_query(micro_doc, parse_query_text(stanza_text, micro_doc))
        assert time.perf_counter() - started < 30.0
