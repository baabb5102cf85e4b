import json

import pytest

from causalmc import formulas as F
from causalmc import model, queries, replace
from causalmc.dsl import parse_query_text
from causalmc.model import ModelError, Options
from causalmc.queries import (
    SCHEMA_VERSION,
    best_utility,
    min_cost_recovery,
    qualifying_interventions,
    run_document,
    run_query,
)
from causalmc.semantics import evaluate


def test_check_stanza_report(micro_doc):
    stanza = parse_query_text("check f2 |= <theta1> [] ! phi_fail", micro_doc)
    report = run_query(micro_doc, stanza)
    assert report.verdict is True
    assert report.kind == "check"
    d = report.to_dict()
    assert d["schema_version"] == SCHEMA_VERSION and d["engine_version"]
    json.loads(json.dumps(d))


def test_characteristic_check_stanza(micro_doc, micro_f1):
    chi_text = F.pretty(F.conj(F.BehaviourAtom(c, b) for c, b in micro_f1.pairs))
    stanza = parse_query_text(f"check f1 |= {chi_text}", micro_doc)
    assert run_query(micro_doc, stanza).verdict


def test_cause_stanza_certificate(micro_doc):
    stanza = parse_query_text("cause from f1 to f2 effect {FrontEnd}", micro_doc)
    report = run_query(micro_doc, stanza)
    assert report.verdict
    certs = report.witnesses["certificates"]
    assert len(certs) == 1 and certs[0]["cause_set"] == ["UserDB"]


def test_report_replay_reproduces_verdict(micro_doc):
    for q in micro_doc.queries:
        first = run_query(micro_doc, q)
        again = run_query(micro_doc, parse_query_text(first.query, micro_doc))
        assert first.replay_key() == again.replay_key()


def test_run_document_order(micro_doc):
    reports = run_document(micro_doc)
    assert [r.query for r in reports] == [q.echo() for q in micro_doc.queries]


def test_recover_lists_qualifying(micro_doc, micro_f2):
    from causalmc.model import DEFAULT_OPTIONS

    qualifying = qualifying_interventions(micro_doc, micro_f2, F.Atom("phi_fail"), DEFAULT_OPTIONS)
    assert [iv.name for iv in qualifying] == ["theta1", "theta2"]


def test_min_cost_selects_cheapest(micro_doc, micro_f2):
    chosen = min_cost_recovery(micro_doc, micro_f2, F.Atom("phi_fail"))
    assert chosen.name == "theta2"


def test_min_cost_empty_intervention_set(micro_doc, micro_f2):
    bare_model = replace(micro_doc.model, interventions=())
    bare = replace(micro_doc, model=bare_model)
    assert min_cost_recovery(bare, micro_f2, F.Atom("phi_fail")) is None


def test_min_cost_requires_annotations(micro_doc, micro_f2):
    stripped_ivs = tuple(replace(iv, cost=None) for iv in micro_doc.model.interventions)
    doc = replace(micro_doc, model=replace(micro_doc.model, interventions=stripped_ivs))
    with pytest.raises(ModelError):
        min_cost_recovery(doc, micro_f2, F.Atom("phi_fail"))


def test_min_cost_tie_broken_by_declaration_order(micro_doc, micro_f2):
    flat = tuple(replace(iv, cost=1.0) for iv in micro_doc.model.interventions)
    doc = replace(micro_doc, model=replace(micro_doc.model, interventions=flat))
    chosen = min_cost_recovery(doc, micro_f2, F.Atom("phi_fail"))
    assert chosen.name == "theta1"  # first qualifying in declaration order


def test_best_utility_argmax(micro_doc, micro_f2):
    # qualifying: theta1 utility -10, theta2 utility -9
    chosen = best_utility(micro_doc, micro_f2, F.Atom("phi_fail"))
    assert chosen.name == "theta2"
    assert chosen.utility == -9.0


def test_best_utility_single_qualifier(micro_doc, micro_f2):
    only = tuple(iv for iv in micro_doc.model.interventions if iv.name == "theta1")
    doc = replace(micro_doc, model=replace(micro_doc.model, interventions=only))
    assert best_utility(doc, micro_f2, F.Atom("phi_fail")).name == "theta1"


def test_best_utility_none_when_nothing_qualifies(micro_doc, micro_f2):
    only = tuple(iv for iv in micro_doc.model.interventions if iv.name == "theta3")
    doc = replace(micro_doc, model=replace(micro_doc.model, interventions=only))
    assert best_utility(doc, micro_f2, F.Atom("phi_fail")) is None


def test_decompose_stanza_reports_sides(ex1_doc):
    stanza = parse_query_text("decompose {c1 c2} {c2 c3}", ex1_doc)
    report = run_query(ex1_doc, stanza)
    assert report.verdict
    assert report.witnesses["interface"] == ["c2"]
    assert report.witnesses["right"]["free"] == ["c2"]


def test_decompose_runs_the_locality_check_once_per_use(monkeypatch, ex1_doc):
    # on success: once, to validate the split; on failure: once more, for the message
    calls = []
    check = model.interface_violations

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(model, "interface_violations", counted)
    monkeypatch.setattr(queries, "interface_violations", counted)
    assert run_query(ex1_doc, parse_query_text("decompose {c1 c2} {c2 c3}", ex1_doc)).verdict
    assert len(calls) == 1
    calls.clear()
    report = run_query(ex1_doc, parse_query_text("decompose {c1} {c2 c3}", ex1_doc))
    assert not report.verdict and report.witnesses["violations"]
    assert len(calls) == 2


def test_bisim_stanza_against_own_file(ex1_doc):
    stanza = parse_query_text('bisim start vs "ex1.model" start', ex1_doc)
    report = run_query(ex1_doc, stanza)
    assert report.verdict and report.witnesses["relation_size"] > 0


def test_transition_mode_of_the_options_holds_for_every_model_a_query_reads(ex1_doc, micro, micro_f1):
    """``Options.mode`` steps both models of a library bisim as ``--sync``
    does on the command line, a successor query as a model declaring that
    mode does, and an unknown mode is refused as a declared one is."""
    sync = Options(mode="sync")
    report = run_query(ex1_doc, parse_query_text('bisim start vs "ex1.model" start', ex1_doc), sync)
    assert report.verdict
    assert report.witnesses == {"left_states": 6, "right_states": 6, "relation_size": 6}
    found = model.successors(micro, micro_f1, sync)
    assert found == model.successors(replace(micro, mode="sync"), micro_f1) and len(found) == 1
    assert len(model.successors(micro, micro_f1)) == 2
    step = F.Diamond(F.Top())
    for m, options in ((micro, Options(mode="bogus")), (replace(micro, mode="bogus"), Options())):
        with pytest.raises(ModelError, match="unknown transition mode 'bogus'"):
            evaluate(m, micro_f1, step, options)


def test_chain_stanza_projection(micro_doc):
    stanza = parse_query_text("chain from f1 to f2 effect {FrontEnd} maxlen 2", micro_doc)
    report = run_query(micro_doc, stanza)
    assert report.verdict
    assert report.witnesses["projection"]["acyclic"] is True


@pytest.mark.parametrize("head", ["mincost", "utility"])
def test_recovery_choice_evaluates_interventions_once(micro_doc, monkeypatch, head):
    from causalmc import queries

    calls = []

    def counting(*args):
        calls.append(args)
        return qualifying_interventions(*args)

    monkeypatch.setattr(queries, "qualifying_interventions", counting)
    report = run_query(micro_doc, parse_query_text(f"{head} f2 avoiding phi_fail", micro_doc))
    assert report.witnesses["chosen"] == "theta2"
    assert len(calls) == 1


def test_recovery_rejects_a_non_finite_amount(micro_doc):
    """An infinite cost would reach the report as ``Infinity``, which is not
    JSON: applying the intervention rejects it, as the model-file reader does."""
    iv = replace(micro_doc.model.interventions[0], cost=float("inf"))
    doc = replace(micro_doc, model=replace(micro_doc.model, interventions=(iv,) + micro_doc.model.interventions[1:]))
    with pytest.raises(ModelError, match=f"intervention {iv.name}: cost inf is not finite"):
        run_query(doc, parse_query_text("utility f2 avoiding phi_fail", doc))
