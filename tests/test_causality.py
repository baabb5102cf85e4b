import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import oracle_find_causes

from causalmc import replace
from causalmc.dsl import parse_model
from causalmc.causality import (
    CauseQuery,
    _first_effect_reachable,
    _is_acyclic,
    causal_projection,
    check_cause,
    classify_intervention_effect,
    find_causal_chains,
    find_causes,
    projection_dot,
)
from causalmc.generate import random_configuration, random_system_model
from causalmc.kernel import compile
from causalmc.model import (
    CapExceeded,
    ComponentDecl,
    Configuration,
    ModelError,
    Options,
    RuleRow,
    RuleTable,
    SystemModel,
    apply_intervention,
    reachable,
)


@pytest.fixture(scope="module")
def micro_query(micro_f1, micro_f2):
    return CauseQuery(start=micro_f1, end=micro_f2, effect_components=("FrontEnd",))


# ---------------------------------------------------------------------------
# check_cause


def test_counterfactual_reachability_cap_names_phase(micro, micro_f1):
    k = compile(micro, Options(max_states=3))
    front = k.index["FrontEnd"]
    # FrontEnd=servingCache is set only by an intervention, never by a step
    effect = [k.places[front] + (k.codes[front]["servingCache"],)]
    with pytest.raises(CapExceeded) as err:
        _first_effect_reachable(k, k.encode(micro_f1), effect)
    assert err.value.what == "counterfactual reachability"


def test_microservice_database_cause(micro, micro_query):
    cert = check_cause(micro, micro_query, ("UserDB",))
    assert cert.is_cause
    assert cert.witness_set == ("Auth", "ProfileSvc", "Logger", "FrontEnd")
    assert cert.ac1_path[0] == micro_query.start and cert.ac1_path[-1] == micro_query.end
    # the held component never abandons its end behaviour after attainment
    held = [g["UserDB"] for g in cert.ac1_path]
    first = held.index("dbError")
    assert all(b == "dbError" for b in held[first:])


def test_empty_candidate_rejected(micro, micro_query):
    with pytest.raises(ModelError):
        check_cause(micro, micro_query, ())


def test_standalone_check_cause_validates_its_query(micro, micro_query, micro_f1):
    # the candidate checks inside an episode skip validation; the public call must not
    with pytest.raises(ModelError, match="unknown component"):
        check_cause(micro, micro_query, ("UserDB", "Cache"))
    bad_behaviour = Configuration(tuple((c, "down" if c == "UserDB" else b) for c, b in micro_f1.pairs))
    missing = Configuration(micro_f1.pairs[:-1])
    for bad in (bad_behaviour, missing):
        for q in (replace(micro_query, start=bad), replace(micro_query, end=bad)):
            with pytest.raises(ModelError):
                check_cause(micro, q, ("UserDB",))


def test_unreachable_effect_fails_actuality(micro, micro_f1):
    unreachable = micro.configuration(
        {"Auth": "authSucc", "UserDB": "dbError", "ProfileSvc": "idle", "Logger": "logFail", "FrontEnd": "idle"}
    )
    q = CauseQuery(micro_f1, unreachable, ("FrontEnd",))
    cert = check_cause(micro, q, tuple(micro.component_order))
    assert not cert.ac1 and not cert.is_cause


def test_strict_mode_requires_start_equals_end(micro, micro_query):
    cert = check_cause(micro, micro_query, ("UserDB",), Options(strict_ac1=True))
    assert not cert.ac1 and not cert.is_cause


def test_ex1_candidate_verdicts_match_oracle(ex1, ex1_doc):
    start = ex1_doc.configuration("start")
    flipped = ex1_doc.configuration("flipped")
    q = CauseQuery(start, flipped, ("c2",))
    got = {c.cause_set for c in find_causes(ex1, q)}
    want = {tuple(sorted(s)) for s in oracle_find_causes(ex1, start, flipped, ("c2",))}
    assert {tuple(sorted(c)) for c in got} == want
    # the cycling driver re-derives its influence, so it is not a cause here
    cert = check_cause(ex1, q, ("c1",))
    assert cert.ac1 and not cert.ac2


def test_certificate_evidence_replays(micro, micro_query):
    from causalmc.model import apply_intervention as apply_iv

    cert = check_cause(micro, micro_query, ("UserDB",))
    clamped = apply_iv(micro, cert.clamp)
    effect = {c: micro_query.end[c] for c in micro_query.effect_components}
    for chk in cert.ac2_checks:
        hit = any(
            all(g[c] == b for c, b in effect.items()) for g in reachable(clamped, chk.start)
        )
        assert chk.ok == (not hit)
    for ref in cert.ac3_refutations:
        sub = check_cause(micro, micro_query, ref.subset)
        assert not (sub.ac1 and sub.ac2)


# ---------------------------------------------------------------------------
# find_causes


def test_microservice_minimal_causes(micro, micro_query):
    certs = find_causes(micro, micro_query)
    assert [c.cause_set for c in certs] == [("UserDB",)]


def test_gate_component_is_sole_cause():
    # the driver gates the output's transition; only the driver certifies,
    # because the output re-derives its own state whenever the gate is open
    driver = ComponentDecl(name="d", domain=("go", "stop"))
    output = ComponentDecl(
        name="o", domain=("idle", "done"), context=("d",), rule=RuleTable((RuleRow("idle", ("go",), "done"),))
    )
    m = SystemModel(components=(driver, output))
    q = CauseQuery(
        m.configuration({"d": "go", "o": "idle"}),
        m.configuration({"d": "go", "o": "done"}),
        ("o",),
    )
    certs = find_causes(m, q)
    assert [c.cause_set for c in certs] == [("d",)]


def test_inevitable_effect_has_no_cause():
    # a self-firing component reproduces its end state from every deviation,
    # so nothing counterfactually depends on it
    m = SystemModel(
        components=(
            ComponentDecl(name="a", domain=("off", "on"), rule=RuleTable((RuleRow("off", (), "on"),))),
        ),
    )
    q = CauseQuery(m.configuration({"a": "off"}), m.configuration({"a": "on"}), ("a",))
    assert find_causes(m, q) == []


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_minimality_of_returned_certificates(seed):
    rng = random.Random(seed)
    m = random_system_model(rng)
    f1 = random_configuration(rng, m)
    reach = reachable(m, f1)
    if not reach:
        return
    f2 = rng.choice(reach)
    effect = tuple(sorted(rng.sample(m.component_order, rng.randint(1, len(m.component_order)))))
    certs = find_causes(m, CauseQuery(f1, f2, effect))
    sets = [set(c.cause_set) for c in certs]
    for s in sets:
        assert not any(t < s for t in sets)
    for cert in certs:
        assert cert.ac3 and all(r.failed_clause in ("AC1", "AC2") for r in cert.ac3_refutations)


# ---------------------------------------------------------------------------
# chains


def test_microservice_chain_rooted_in_database(micro, micro_f1, micro_f2):
    chains = find_causal_chains(micro, micro_f1, micro_f2, max_len=2, effect_components=("FrontEnd",))
    assert len(chains) == 1
    chain = chains[0]
    assert chain.configurations == (micro_f1, micro_f2)
    assert chain.links[0].certificate.cause_set == ("UserDB",)


def test_chain_equal_endpoints_empty(micro, micro_f1):
    assert find_causal_chains(micro, micro_f1, micro_f1) == []


def test_chain_inert_model_empty():
    m = SystemModel(components=(ComponentDecl(name="a", domain=("x", "y")),))
    assert find_causal_chains(m, m.configuration({"a": "x"}), m.configuration({"a": "y"})) == []


def test_chain_length_is_bounded_by_the_waypoints():
    # b steps while a is a0, then a steps while b is b2: the only chain runs
    # through the one waypoint (a=a0, b=b2); a maxlen beyond every waypoint
    # between the endpoints returns at once with the same chains
    doc = parse_model(
        "component a { domain a0 a1 a2 context b rule a2 (_) -> a1 rule a0 (b2) -> a1 }\n"
        "component b { domain b0 b1 b2 context a rule b0 (a0) -> b2 }\n"
        "config s = (a=a0, b=b0)\nconfig e = (a=a1, b=b2)\n"
    )
    m, start, end = doc.model, doc.configuration("s"), doc.configuration("e")
    middles = [g for g in reachable(m, start) if g not in (start, end) and end in reachable(m, g)]
    longest = find_causal_chains(m, start, end, max_len=len(middles) + 2)
    assert [len(c.configurations) for c in longest] == [3]
    assert find_causal_chains(m, start, end, max_len=10**23) == longest


def test_longer_chains_pruned_when_direct_link_certifies(micro, micro_f1, micro_f2):
    chains = find_causal_chains(micro, micro_f1, micro_f2, max_len=3, effect_components=("FrontEnd",))
    assert all(len(c.configurations) == 2 for c in chains)


# ---------------------------------------------------------------------------
# projections


def test_microservice_projection_contains_run(micro, micro_f1, micro_f2):
    s2 = micro.configuration(
        {"Auth": "idle", "UserDB": "dbError", "ProfileSvc": "idle", "Logger": "idle", "FrontEnd": "serving"}
    )
    chains = []
    chains += find_causal_chains(micro, micro_f1, micro_f2, max_len=2, effect_components=("FrontEnd",))
    chains += find_causal_chains(micro, s2, micro_f2, max_len=2)
    proj = causal_projection(micro, chains)
    members = set(proj.configurations)
    assert {micro_f1, s2, micro_f2} <= members
    assert proj.acyclic


def test_empty_projection():
    m = SystemModel(components=(ComponentDecl(name="a", domain=("x",)),))
    proj = causal_projection(m, [])
    assert proj.configurations == () and proj.acyclic


def test_two_configuration_causal_loop():
    # x flips back and forth while y=p; y is inert but gates the flip, so
    # each direction is certified with y as the witness-style cause
    x = ComponentDecl(
        name="x",
        domain=("a", "b"),
        context=("y",),
        rule=RuleTable((RuleRow("a", ("p",), "b"), RuleRow("b", ("p",), "a"))),
    )
    y = ComponentDecl(name="y", domain=("p", "q"))
    m = SystemModel(components=(x, y))
    g = m.configuration({"x": "a", "y": "p"})
    h = m.configuration({"x": "b", "y": "p"})
    chains = find_causal_chains(m, g, h, max_len=2) + find_causal_chains(m, h, g, max_len=2)
    assert len(chains) == 2
    proj = causal_projection(m, chains)
    assert not proj.acyclic


def test_acyclicity_of_long_graphs_needs_no_recursion():
    nodes = list(range(5000))
    path = [(i, i + 1) for i in range(4999)]
    assert _is_acyclic(nodes, path)
    assert not _is_acyclic(nodes, path + [(4999, 0)])
    assert not _is_acyclic(nodes, path + [(2500, 2500)])


def test_projection_dot_output(micro, micro_f1, micro_f2):
    chains = find_causal_chains(micro, micro_f1, micro_f2, max_len=2, effect_components=("FrontEnd",))
    dot = projection_dot(causal_projection(micro, chains).to_dict())
    assert dot.startswith("digraph") and "->" not in dot.splitlines()[0]


# ---------------------------------------------------------------------------
# intervention effect classification


@pytest.fixture(scope="module")
def micro_chain(micro, micro_f1, micro_f2):
    return find_causal_chains(micro, micro_f1, micro_f2, max_len=2, effect_components=("FrontEnd",))[0]


def test_logger_reformat_preserves_chain(micro, micro_chain):
    got = classify_intervention_effect(micro, micro_chain, micro.intervention_map["thetaLog"])
    assert got.verdict == "preserved"
    assert got.link_causes == (("UserDB",),)
    assert got.recertified and got.recertified[0].is_cause


def test_database_repair_disrupts_chain(micro, micro_chain):
    got = classify_intervention_effect(micro, micro_chain, micro.intervention_map["theta1"])
    assert got.verdict == "disrupted" and got.broken_link == 0
    # replayable: the broken link transition is indeed gone
    m = apply_intervention(micro, micro.intervention_map["theta1"])
    assert micro_chain.configurations[1] not in set(reachable(m, micro_chain.configurations[0]))


def test_identity_intervention_preserves_chain(micro, micro_chain):
    from causalmc.model import Intervention

    logger = micro.component("Logger")
    identity = Intervention(name="same", targets=("Logger",), rules=(("Logger", logger.rule),))
    got = classify_intervention_effect(micro, micro_chain, identity)
    assert got.verdict == "preserved"
