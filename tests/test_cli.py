import argparse
import contextlib
import gc
import io
import json
import shlex
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalmc.cli import _build_parser, main
from causalmc.dsl import QUERIES, _slots, parse_model, parse_query_text
from causalmc.queries import HANDLERS

MODELS = Path(__file__).resolve().parents[1] / "models"
MICRO = str(MODELS / "microservice.model")
EX1 = str(MODELS / "ex1.model")


def test_check_true_exit_zero(capsys):
    assert main(["check", MICRO, "f2", "<theta1> [] ! phi_fail"]) == 0
    assert "check: true" in capsys.readouterr().out


def test_check_false_exit_one(capsys):
    assert main(["check", MICRO, "f2", "<theta3> [] ! phi_fail"]) == 1


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("component a {", encoding="utf-8")
    assert main(["check", str(bad), "f", "true"]) == 2


def test_cap_exceeded_exit_three(capsys):
    assert main(["check", MICRO, "f1", "<>+ phi_fail", "--max-states", "3"]) == 3


def test_unknown_name_exit_two(capsys):
    assert main(["check", MICRO, "f2", "<missing> true"]) == 2


def test_named_intervention_a_split_side_dropped_is_false_there(capsys):
    # the first split, ({c1, c2}, {c3}), leaves theta_reset's target c1 off
    # its right side, so <theta_reset> is false there; the third split,
    # ({c3}, {c1, c2}), keeps theta_reset on its right side
    assert main(["check", EX1, "mid", "(true) * (<theta_reset> true)"]) == 0
    assert "check: true" in capsys.readouterr().out
    assert main(["check", EX1, "mid", "<theta_reset> true"]) == 0
    assert main(["check", EX1, "mid", "<theta_none> true"]) == 2


def test_cause_report_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["cause", MICRO, "--from", "f1", "--to", "f2", "--effect", "FrontEnd", "--report", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["witnesses"]["certificates"][0]["cause_set"] == ["UserDB"]


def test_report_replaces_an_existing_file_and_writes_through_a_link(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("x" * 100_000)
    old_inode = out.stat().st_ino
    keep = tmp_path / "keep.json"  # holds the old inode, so it cannot be reused
    keep.hardlink_to(out)
    assert main(["check", MICRO, "f2", "true", "--report", str(out)]) == 0
    assert out.stat().st_ino != old_inode
    assert json.loads(out.read_text())["verdict"] is True
    assert keep.read_text() == "x" * 100_000
    target = tmp_path / "target.json"
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["check", MICRO, "f2", "true", "--report", str(link)]) == 0
    assert link.is_symlink()
    assert json.loads(target.read_text())["verdict"] is True


def test_strict_flag_changes_cause_verdict(tmp_path):
    code = main(["cause", MICRO, "--from", "f1", "--to", "f2", "--effect", "FrontEnd", "--strict-ac1"])
    assert code == 1


def test_chain_with_projection_dot(tmp_path):
    dot = tmp_path / "proj.dot"
    code = main(
        [
            "chain", MICRO, "--from", "f1", "--to", "f2",
            "--effect", "FrontEnd", "--max-len", "2", "--dot", str(dot),
        ]
    )
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_effect_named_twice_exit_two(capsys):
    assert main(["cause", MICRO, "--from", "f1", "--to", "f2", "--effect", "FrontEnd", "FrontEnd"]) == 2
    assert capsys.readouterr().err == "<command line>:0:0: component 'FrontEnd' named twice\n"


def test_bisim_subcommand(capsys):
    assert main(["bisim", EX1, "start", EX1, "start"]) == 0


def test_bisim_diagnostics_name_the_other_model(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("component a {\n  domain x\n  rule x -> y\n}\nconfig s = (a=x)\n", encoding="utf-8")
    assert main(["bisim", EX1, "start", str(bad), "s"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}:0:0: component a, rule row 1: ") and EX1 not in err
    assert main(["bisim", EX1, "start", EX1, "nope"]) == 2
    assert capsys.readouterr().err == f"{EX1}:0:0: unknown configuration 'nope'\n"


def test_bisim_path_holding_a_double_quote_exit_two(tmp_path, capsys):
    # the other model's path is read back as a quoted stanza string, which cannot hold one
    other = tmp_path / 'a"b.model'
    other.write_text(Path(EX1).read_text(encoding="utf-8"), encoding="utf-8")
    assert main(["bisim", EX1, "start", str(other), "start"]) == 2
    assert capsys.readouterr().err == "<command line>:0:0: the other model's path cannot hold a double quote\n"


def test_chain_max_len_is_passed_through(capsys):
    for max_len in ("-1", "0", "1"):
        assert main(["chain", EX1, "--from", "start", "--to", "flipped", "--max-len", max_len]) == 2
        assert capsys.readouterr().err == "error: max_len must be at least 2\n"
    assert main(["chain", EX1, "--from", "start", "--to", "flipped"]) == 1
    assert "maxlen 4" in capsys.readouterr().out


def test_a_clause_rendered_twice_exits_two(capsys):
    # --to is read as one configuration, so a clause after it is left over
    assert main(["chain", MICRO, "--from", "f1", "--to", "f2 maxlen 2", "--effect", "FrontEnd"]) == 2
    assert capsys.readouterr().err == "<command line>:1:4: trailing input after configuration\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["check", EX1, "start", "true &"], "<command line>:1:7: expected a formula, found 'end of input'"),
        (["check", EX1, "start", "true\n&"], "<command line>:2:2: expected a formula, found 'end of input'"),
        # without --effect, an effect clause in --to once ran as the chain's effect
        (["chain", MICRO, "--from", "f1", "--to", "f2 effect {Logger}"], "<command line>:1:4: trailing input after configuration"),
        (["chain", MICRO, "--from", "f1", "--to", "f2", "--max-len", "-1"], "error: max_len must be at least 2"),
        (["export-hp", MICRO, "--init", "f1 f2"], "<command line>:1:4: trailing input after configuration"),
        (["export-dot", MICRO, "--reachable-from", "(Auth=idle"], "<command line>:1:11: expected component name, found 'end of input'"),
    ],
    ids=["formula", "second-line", "effect-in-to", "max-len", "init", "reachable-from"],
)
def test_argument_diagnostics_name_the_command_line(capsys, argv, err):
    """A diagnostic in an argument's text is at a line and column of that
    argument, not of the model file, and an argument fills only its own slot.
    A ``--max-len`` below 2 breaks the chain rule whatever its sign, so it
    gets the rule's one error and no position."""
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{err}\n"


def test_decimal_maxlen_in_document_is_a_positioned_diagnostic(tmp_path, capsys):
    text = Path(EX1).read_text(encoding="utf-8")
    doc = tmp_path / "ex1.model"
    doc.write_text(text + "chain from start to flipped maxlen 2.5\n", encoding="utf-8")
    assert main(["run", str(doc)]) == 2
    line = text.count("\n") + 1
    assert capsys.readouterr().err == f"{doc}:{line}:36: expected a whole number after 'maxlen', found '2.5'\n"


def test_decompose_subcommand():
    assert main(["decompose", EX1, "--left", "c1", "c2", "--right", "c2", "c3"]) == 0
    assert (
        main(
            [
                "decompose", MICRO,
                "--left", "Auth", "UserDB", "Logger",
                "--right", "ProfileSvc", "FrontEnd", "Logger",
            ]
        )
        == 1
    )


def test_recover_mincost_utility(capsys, tmp_path):
    out = tmp_path / "r.json"
    assert main(["recover", MICRO, "f2", "phi_fail", "--report", str(out)]) == 0
    assert json.loads(out.read_text())["witnesses"]["qualifying"] == ["theta1", "theta2"]
    assert main(["mincost", MICRO, "f2", "phi_fail", "--report", str(out)]) == 0
    assert json.loads(out.read_text())["witnesses"]["chosen"] == "theta2"
    assert main(["utility", MICRO, "f2", "phi_fail", "--report", str(out)]) == 0
    assert json.loads(out.read_text())["witnesses"]["chosen"] == "theta2"


def test_export_dot_variants(tmp_path):
    out = tmp_path / "v.dot"
    assert main(["export-dot", EX1, "--variants", "-o", str(out)]) == 0
    assert "theta_reset" in out.read_text()


def test_export_dot_reachable(tmp_path):
    out = tmp_path / "t.dot"
    assert main(["export-dot", MICRO, "--reachable-from", "f1", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("digraph") and "->" in text


def test_export_hp(tmp_path):
    out = tmp_path / "hp.json"
    assert main(["export-hp", MICRO, "--init", "f1", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["acyclic"] is False
    assert {v["name"] for v in payload["variables"]} == {
        "Auth", "UserDB", "ProfileSvc", "Logger", "FrontEnd",
    }


def test_run_subcommand(capsys):
    assert main(["run", EX1]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 3


def test_sync_flag_overrides_mode(capsys):
    # synchronous step from f1 fires the request-arrival and fault rules together
    assert main(["check", MICRO, "f1", "<> (p[FrontEnd=serving] & p[UserDB=dbError])", "--sync"]) == 0


def _sync_ex1(tmp_path) -> str:
    """A copy of ex1 that declares synchronous transitions."""
    text = Path(EX1).read_text(encoding="utf-8")
    assert "\nasync\n" in text
    path = tmp_path / "ex1sync.model"
    path.write_text(text.replace("\nasync\n", "\nsync\n"), encoding="utf-8")
    return str(path)


def test_mode_flags_force_both_bisim_models(tmp_path, capsys):
    sync_ex1 = _sync_ex1(tmp_path)
    assert main(["bisim", "--sync", EX1, "start", EX1, "start"]) == 0
    assert main(["bisim", "--async", sync_ex1, "start", sync_ex1, "start"]) == 0
    assert main(["bisim", "--sync", EX1, "start", sync_ex1, "start"]) == 0
    # without a flag each file keeps its declared mode
    assert main(["bisim", EX1, "start", EX1, "start"]) == 0
    assert main(["bisim", sync_ex1, "start", sync_ex1, "start"]) == 0
    assert main(["bisim", EX1, "start", sync_ex1, "start"]) == 1
    assert main(["bisim", sync_ex1, "start", EX1, "start"]) == 1


def test_mode_flags_force_both_models_of_a_bisim_stanza(tmp_path, capsys):
    sync_ex1 = _sync_ex1(tmp_path)
    doc = tmp_path / "pair.model"
    body = Path(EX1).read_text(encoding="utf-8").split("\ndecompose ")[0]
    doc.write_text(body + f'\nbisim start vs "{Path(sync_ex1).name}" start\n', encoding="utf-8")
    assert main(["run", str(doc)]) == 1
    assert main(["run", str(doc), "--sync"]) == 0
    assert main(["run", str(doc), "--async"]) == 0
    assert capsys.readouterr().out.count("bisim: true") == 2


def test_inline_configuration_literal():
    lit = "(Auth=idle, UserDB=idle, ProfileSvc=idle, Logger=idle, FrontEnd=idle)"
    assert main(["check", MICRO, lit, "<>+ phi_fail"]) == 0


def test_self_loops_flag(capsys):
    # a configuration with a rule fixpoint gains a self-loop under the flag
    lit = "(c1=b11, c2=b21, c3=b31)"
    assert main(["check", EX1, lit, "<> p[c1=b11]", "--self-loops"]) == 0
    assert main(["check", EX1, lit, "<> p[c1=b11]"]) == 1


def test_allow_trivial_split_flag():
    phi = "((p[c1=b12] & p[c3=b31])) * ((p[c2=b22]))"
    lit = "(c1=b12, c2=b22, c3=b31)"
    assert main(["check", EX1, lit, phi, "--allow-trivial-split"]) == 0


def test_cause_cap_exceeded_exit_three(capsys):
    code = main(["cause", MICRO, "--from", "f1", "--to", "f2", "--effect", "FrontEnd", "--max-states", "3"])
    assert code == 3
    assert "AC1 path search" in capsys.readouterr().err


_EX1_CAUSE = ["cause", EX1, "--from", "start", "--to", "flipped", "--effect", "c2"]


@pytest.mark.parametrize(
    "argv, phase, cap",
    [
        # the configuration space reports its size, the domain product: 6 for ex1
        (["export-dot", EX1], "configuration space", 5),
        (["export-dot", EX1, "--reachable-from", "start"], "reachable set", 2),
        (["check", EX1, "start", "<>+ c2_flipped"], "reachable set", 2),
        (_EX1_CAUSE, "AC1 path search", 2),
        (_EX1_CAUSE, "counterfactual reachability", 3),  # AC1 holds 3 states; a counterfactual search, more
        (["bisim", EX1, "start", EX1, "start"], "bisimulation state space", 2),
    ],
    ids=["export-dot", "export-dot-reachable", "check-closure", "cause-ac1", "cause-counterfactual", "bisim"],
)
def test_every_state_cap_reports_its_cap_plus_one(capsys, argv, phase, cap):
    assert main(argv + ["--max-states", str(cap)]) == 3
    assert capsys.readouterr().err == f"error: {phase} size {cap + 1} exceeds configured cap {cap}\n"


def test_deep_nesting_exit_two_without_traceback(capsys):
    assert main(["check", MICRO, "f1", "! " * 3000 + "true"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def _too_deep_to_parse(err: str, path: str, line: int, text: str) -> None:
    """``err`` is one diagnostic at ``line`` of ``text``, on a parenthesis."""
    prefix = f"{path}:{line}:"
    assert err.startswith(prefix) and err.endswith(": formula nested too deeply to parse\n"), err
    column = int(err[len(prefix) :].split(":")[0])
    assert text.splitlines()[line - 1][column - 1] == "("


def test_parenthesis_nesting_past_the_limit_is_a_parse_error(capsys):
    formula = "(" * 3000 + "true" + ")" * 3000
    assert main(["check", EX1, "start", formula]) == 2
    _too_deep_to_parse(capsys.readouterr().err, "<command line>", 1, formula)


def test_parenthesis_nesting_in_a_model_file_names_its_line(tmp_path, capsys):
    text = (MODELS / "ex1.model").read_text(encoding="utf-8")
    text += "formula deep = " + "(" * 3000 + "true" + ")" * 3000 + "\n"
    path = tmp_path / "deep.model"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path), "start", "true"]) == 2
    _too_deep_to_parse(capsys.readouterr().err, str(path), len(text.splitlines()), text)


def test_chain_dot_matches_report_in_both_modes(tmp_path):
    dot, out = tmp_path / "proj.dot", tmp_path / "r.json"
    argv = ["chain", MICRO, "--from", "f1", "--to", "f2", "--effect", "FrontEnd", "--max-len", "2",
            "--dot", str(dot), "--report", str(out)]
    for flags, verdict in (([], True), (["--strict-ac1"], False)):
        assert main(argv + flags) == (0 if verdict else 1)
        report = json.loads(out.read_text())
        assert report["verdict"] is verdict
        nodes = [line for line in dot.read_text().splitlines() if "[label=" in line]
        assert len(nodes) == len(report["witnesses"]["projection"]["configurations"])
        assert bool(nodes) is verdict


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{dir}", "f1", "true"],
        ["check", "{latin1}", "f1", "true"],
        ["check", MICRO, "f2", "true", "--report", "{dir}"],
        ["bisim", EX1, "start", "{dir}", "start"],
        ["bisim", EX1, "start", "{latin1}", "start"],
    ],
    ids=["model-dir", "model-latin1", "report-dir", "other-model-dir", "other-model-latin1"],
)
def test_unreadable_input_exit_two_without_traceback(tmp_path, capsys, argv):
    latin1 = tmp_path / "latin1.model"
    latin1.write_bytes("component caf\xe9 { domain x }\n".encode("latin-1"))
    assert main([a.format(dir=tmp_path, latin1=latin1) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_query_subcommands_carry_their_stanza_slots():
    # a query subcommand's arguments fill its stanza's slots by field, one argument per slot
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(QUERIES) == set(HANDLERS)
    for kind in QUERIES:
        dests = {a.dest for a in sub.choices[kind]._actions}
        assert {s.field for s in _slots(kind)} <= dests


# ---------------------------------------------------------------------------
# exit-code contract under generated input

FORMULA_TOKENS = [
    "true", "false", "!", "&", "|", "->", "[]", "<>", "[]+", "<>+", "<theta1>", "<thetaLog>",
    "<nope>", "<?>", "*", "(", ")", "((", "))", "phi_fail", "p[FrontEnd=error]", "p[Auth=idle]",
    "p[Nope=idle]", "p[FrontEnd=nope]", "p[", "]", "=", "<", ">",
]
DSL_TOKENS = [
    "", "component", "domain", "context", "rule", "atom", "config", "intervention", "on",
    "formula", "check", "cause", "chain", "from", "to", "effect", "maxlen", "decompose",
    "recover", "mincost", "utility", "avoiding", "sync", "async", "cost", "penalty",
    "{", "}", "(", ")", ",", "=", "->", ":", "|=", "_", "#", "\n", "idle", "error", "f1",
    "FrontEnd", "UserDB", "theta1", "-1", "0", "9", '"', "é",
]
MICRO_TEXT = (MODELS / "microservice.model").read_text(encoding="utf-8")


@st.composite
def _mutated_model(draw):
    text = MICRO_TEXT
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 40))
        text = text[:at] + draw(st.sampled_from(DSL_TOKENS)) + text[at + cut :]
    return text


_formula_text = st.one_of(
    st.lists(st.sampled_from(FORMULA_TOKENS), max_size=10).map(" ".join),
    st.text(max_size=16),
)
_extra_flags = st.sampled_from([[], ["--sync"], ["--self-loops"], ["--max-states", "4"], ["--max-states", "-1"]])


@settings(max_examples=40, deadline=None)
@given(
    model=st.one_of(st.just(MICRO_TEXT), _mutated_model()),
    formula=_formula_text,
    command=st.sampled_from(["check", "recover", "mincost", "run", "cause", "chain", "decompose", "export-dot"]),
    flags=_extra_flags,
)
def test_generated_input_keeps_exit_code_contract(model, formula, command, flags):
    args = {
        "check": ["f2", formula],
        "recover": ["f2", formula],
        "mincost": ["f2", formula],
        "run": [],
        "cause": ["--from", "f1", "--to", "f2", "--effect", "FrontEnd"],
        "chain": ["--from", "f1", "--to", "f2", "--max-len", "2"],
        "decompose": ["--left", "Auth", "UserDB", "--right", "UserDB", "ProfileSvc", "Logger", "FrontEnd"],
        "export-dot": ["--reachable-from", "f1"],
    }[command]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.model"
        path.write_text(model, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main([command, str(path), *args, *flags])
            except SystemExit as exc:  # argparse rejects a command line this way
                code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


MICRO_DOC = parse_model(MICRO_TEXT, path=MICRO)
_token_text = st.lists(st.sampled_from(DSL_TOKENS), max_size=6).map(" ".join)
_config_text = st.one_of(
    st.sampled_from(["f1", "f2", "(Auth=idle, UserDB=idle, ProfileSvc=idle, Logger=idle, FrontEnd=idle)"]), _token_text
)
_name_text = st.one_of(st.sampled_from(["f1", "f2"]), _token_text)
_component_texts = st.lists(st.one_of(st.sampled_from(["FrontEnd", "UserDB", "Logger"]), _token_text), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["cause", "chain", "bisim", "export-hp"]),
    start=_config_text,
    end=_config_text,
    name=_name_text,
    effect=_component_texts,
)
def test_generated_arguments_keep_exit_code_contract(command, start, end, name, effect):
    """Configuration, name and component-list arguments made of model-text
    tokens keep the exit-code contract, and an answered query echoes text
    that reads back to itself, with no clause an argument did not give."""
    args = {
        "cause": ["--from", start, "--to", end, "--effect", *effect],
        "chain": ["--from", start, "--to", end, "--max-len", "2"],
        "bisim": [start, MICRO, name],
        "export-hp": ["--init", start],
    }[command]
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main([command, MICRO, *args])
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1) and command != "export-hp":
        query = out.getvalue().splitlines()[-1].split("  (", 1)[1][:-1]
        stanza = parse_query_text(query, MICRO_DOC)
        assert stanza.echo() == query
        if command == "chain":
            assert dict(zip((s.field for s in _slots("chain")), stanza.labels))["effect"] is None


def _readme_commands() -> list[str]:
    """The ``causalmc`` lines of the README's "Command line" code block."""
    text = (MODELS.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("causalmc ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_line_examples_run(line, tmp_path, monkeypatch, capsys):
    """Each README example runs cleanly in a directory holding a copy of the
    bundled models, so its output files land there."""
    shutil.copytree(MODELS, tmp_path / "models")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) in (0, 1)
    assert capsys.readouterr().err == ""


# one call of each command on the bundled models
_EVERY_COMMAND = [
    ["run", MICRO],
    ["check", MICRO, "f2", "<theta1> [] ! phi_fail"],
    ["check", EX1, "start", "((c1_mid) * (<> true))", "--allow-trivial-split"],
    ["cause", MICRO, "--from", "f1", "--to", "f2", "--effect", "FrontEnd"],
    ["chain", MICRO, "--from", "f1", "--to", "f2"],
    ["bisim", EX1, "start", EX1, "mid"],
    ["decompose", EX1, "--left", "c1", "c2", "--right", "c2", "c3"],
    ["recover", MICRO, "f2", "phi_fail"],
    ["mincost", MICRO, "f2", "phi_fail"],
    ["utility", MICRO, "f2", "phi_fail"],
    ["export-dot", EX1],
    ["export-dot", EX1, "--variants"],
    ["export-hp", EX1, "--init", "start"],
]


@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=" ".join)
def test_a_command_leaves_no_engine_object_in_a_reference_cycle(argv, tmp_path, capsys):
    """With the cyclic collector off, reference counting frees every object a
    command makes: the models, kernels, memo tables and formula closures of
    a query die with it, and none of them waits for the collector."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        report = [] if argv[0].startswith("export-") else ["--report", str(tmp_path / "report.json")]
        code = main(argv + report)
        gc.collect()
        left = sorted({type(o).__qualname__ for o in gc.garbage if type(o).__module__.startswith("causalmc")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert code in (0, 1)
    assert left == []


@pytest.mark.parametrize("argv", [argv for argv in _EVERY_COMMAND if argv[0].startswith("export-")], ids=" ".join)
def test_export_commands_take_no_report_flag(argv, tmp_path, capsys):
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--report", str(report)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --report" in capsys.readouterr().err
    assert not report.exists()


_CHECK = ["check", EX1, "start", "true"]
_BISIM = ["bisim", EX1, "start", EX1, "mid"]
_DECOMPOSE = ["decompose", EX1, "--left", "c1", "c2", "--right", "c2", "c3"]


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["export-hp", EX1, "--init", "start"], ["--max-states", "1"]),
        (["export-hp", EX1, "--init", "start"], ["--strict-ac1"]),
        (["export-hp", EX1, "--init", "start"], ["--allow-trivial-split"]),
        (["export-hp", EX1, "--init", "start"], ["--self-loops"]),
        (["export-hp", EX1, "--init", "start"], ["--sync"]),
        (["export-dot", EX1], ["--strict-ac1"]),
        (["export-dot", EX1], ["--allow-trivial-split"]),
        (["export-dot", EX1, "--variants"], ["--max-states", "1"]),
        (["export-dot", EX1, "--variants"], ["--max-states", "0"]),
        (["export-dot", EX1, "--variants"], ["--self-loops"]),
        (["export-dot", EX1, "--variants"], ["--async"]),
        (["export-dot", EX1, "--variants"], ["--reachable-from", "start"]),
        (_CHECK, ["--strict-ac1"]),
        (["recover", MICRO, "f2", "phi_fail"], ["--strict-ac1"]),
        (["mincost", MICRO, "f2", "phi_fail"], ["--strict-ac1"]),
        (["utility", MICRO, "f2", "phi_fail"], ["--strict-ac1"]),
        (["cause", EX1, "--from", "start", "--to", "mid", "--effect", "c3"], ["--allow-trivial-split"]),
        (["chain", EX1, "--from", "start", "--to", "mid"], ["--allow-trivial-split"]),
        (_BISIM, ["--strict-ac1"]),
        (_BISIM, ["--allow-trivial-split"]),
        (_DECOMPOSE, ["--strict-ac1"]),
        (_DECOMPOSE, ["--sync"]),
        (_DECOMPOSE, ["--async"]),
        (_DECOMPOSE, ["--self-loops"]),
        (_DECOMPOSE, ["--max-states", "1"]),
    ],
    ids=lambda part: " ".join(a for a in part if a not in (EX1, MICRO)),
)
def test_export_commands_reject_flags_they_would_ignore(argv, flags, tmp_path, capsys):
    """Every subcommand but ``run``, the export commands and the queries
    alike, exits 2 on a flag it would ignore, and writes nothing."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + flags + ["-o" if argv[0].startswith("export-") else "--report", str(out)])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]  # after the usage lines
    assert last.startswith("causalmc: error:") and flags[0] in last
    assert not out.exists()


_TRANSITIONS = ("--sync", "--async", "--self-loops", "--max-states")
_QUERY = _TRANSITIONS + ("--allow-trivial-split", "--report")
_CAUSE = _TRANSITIONS + ("--strict-ac1", "--report")
# the optional flags each subcommand reads
_READS = {
    "check": _QUERY,
    "recover": _QUERY,
    "mincost": _QUERY,
    "utility": _QUERY,
    "cause": _CAUSE,
    "chain": _CAUSE,
    "bisim": _TRANSITIONS + ("--report",),
    "decompose": ("--allow-trivial-split", "--report"),
    "run": _QUERY + ("--strict-ac1",),
    "export-dot": _TRANSITIONS,
    "export-hp": (),
}


def test_export_help_lists_only_the_flags_read(capsys):
    """Each subcommand's ``--help``, not only the export commands', lists
    exactly the optional flags it reads."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_READS)
    for command, reads in _READS.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        shown = capsys.readouterr().out
        assert {flag for flag in _READS["run"] if flag in shown} == set(reads), command
