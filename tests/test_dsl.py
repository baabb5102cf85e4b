import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalmc import formulas as F
from causalmc.cli import main
from causalmc.dsl import (
    DslError,
    parse_arguments,
    parse_config_text,
    parse_formula_text,
    parse_model,
    parse_query_text,
    pretty_document,
)

EX1_TEXT = (Path(__file__).resolve().parents[1] / "models" / "ex1.model").read_text(encoding="utf-8")


def test_ex1_transcription(ex1_doc):
    assert len(ex1_doc.model.components) == 3
    assert sum(1 for q in ex1_doc.queries if q.kind == "decompose") == 1


def test_empty_file_diagnostic():
    with pytest.raises(DslError) as exc:
        parse_model("")
    assert any("no components declared" in d.message for d in exc.value.diagnostics)


def test_micro_transcription_interventions(micro_doc):
    ivs = micro_doc.model.interventions
    assert [iv.name for iv in ivs] == ["theta1", "theta2", "theta3", "thetaLog"]
    assert [iv.cost for iv in ivs[:3]] == [10.0, 5.0, 2.0]


def test_syntax_error_carries_position():
    text = "component a {\n  domain x\n  rule x -> \n}\n"
    with pytest.raises(DslError) as exc:
        parse_model(text)
    d = exc.value.diagnostics[0]
    assert d.line == 4 and "output behaviour" in d.message


def test_unresolved_names_are_diagnosed():
    text = "component a { domain x }\ncheck (a=x) |= nothing\n"
    with pytest.raises(DslError) as exc:
        parse_model(text)
    assert any("unresolved name 'nothing'" in d.message for d in exc.value.diagnostics)


def test_stanza_name_errors_are_positioned_and_collected():
    # unknown components in stanza lists and an incomplete inline
    # configuration are reported at their stanzas, alongside the other errors
    text = (
        "component a { domain x }\ncomponent b { domain y }\nconfig f = (a=x, b=y)\n"
        "cause from f to f effect {Nope}\n"
        "decompose {a} {c9}\n"
        "check (a=x) |= true\n"
        "check f |= nothing\n"
    )
    with pytest.raises(DslError) as exc:
        parse_model(text)
    assert [str(d) for d in exc.value.diagnostics] == [
        "4:1: unknown component 'Nope'",
        "5:1: unknown component 'c9'",
        "6:1: configuration misses components ['b']",
        "7:1: unresolved name 'nothing' in formula",
    ]


@pytest.mark.parametrize(
    "lines, expected",
    [
        ("formula c1_mid = true", "38:1: duplicate formula name 'c1_mid'"),
        ("formula g = nothing", "38:1: unresolved name 'nothing' in formula"),
        ("formula g = p[c1=zz]", "38:1: behaviour atom names unknown behaviour 'zz' of 'c1'"),
        ("formula f = true\nformula f = false", "39:1: duplicate formula name 'f'"),
        ("formula true = false", "38:1: formula name 'true' is a formula constant"),
    ],
)
def test_named_formula_errors_are_reported_at_their_declaration(lines, expected):
    # ex1 has 37 lines, so the first appended line is line 38
    with pytest.raises(DslError) as exc:
        parse_model(EX1_TEXT + lines + "\n")
    assert [str(d) for d in exc.value.diagnostics] == [expected]


@pytest.mark.parametrize(
    "line, expected",
    [
        ("atom false = a = x", "2:1: atom name 'false' is a formula constant"),
        ("atom true = {s}", "2:1: atom name 'true' is a formula constant"),
    ],
)
def test_atoms_cannot_take_a_constants_name(line, expected, tmp_path, capsys):
    # a formula reads `true` and `false` only as constants, so an atom of
    # either name could never be referenced
    text = f"component a {{ domain x y }}\n{line}\nconfig s = (a=x)\n"
    with pytest.raises(DslError) as exc:
        parse_model(text)
    assert [str(d) for d in exc.value.diagnostics] == [expected]
    doc = tmp_path / "doc.model"
    doc.write_text(text, encoding="utf-8")
    assert main(["check", str(doc), "s", "false"]) == 2
    assert capsys.readouterr().err.splitlines()[0] == f"{doc}:{expected}"


@pytest.mark.parametrize("word", ["cost", "penalty"])
def test_a_cost_or_penalty_too_large_for_a_float_is_positioned(word, tmp_path, capsys):
    def text(digits):
        head = "component a { domain x y }\natom p = a = y\nconfig s = (a=x)\n"
        return head + f"intervention t on a {{ {word} {digits} }}\n"

    assert parse_model(text("9" * 300)).model.intervention_map["t"]  # 1e300 is finite
    doc = tmp_path / "doc.model"
    doc.write_text(text("9" * 400), encoding="utf-8")
    column = len(f"intervention t on a {{ {word} ") + 1
    report = tmp_path / "r.json"
    assert main(["utility", str(doc), "s", "p", "--self-loops", "--report", str(report)]) == 2
    assert capsys.readouterr().err.splitlines()[0] == f"{doc}:4:{column}: {word} too large for a float"
    assert not report.exists()


def test_domain_violations_delegated_to_validation():
    text = "component a { domain x\n rule x -> y }\n"
    with pytest.raises(DslError) as exc:
        parse_model(text)
    assert any("'y' not in domain" in d.message for d in exc.value.diagnostics)


def test_configuration_outside_domain_reported_at_declaration(tmp_path, capsys):
    text = (
        "component a { domain x y }\ncomponent b { domain u }\n"
        "config f = (a=zzz, b=u)\nconfig g = (a=w, c=x)\natom p = {f}\ncheck f |= true\n"
    )
    with pytest.raises(DslError) as exc:
        parse_model(text)
    assert [str(d) for d in exc.value.diagnostics] == [
        "3:1: configuration 'f': behaviour 'zzz' not in domain of 'a'",
        "4:1: configuration 'g': missing components ['b'], unknown components ['c'], "
        "behaviour 'w' not in domain of 'a'",
        "5:1: atom 'p': unknown configuration 'f'",
    ]
    doc = tmp_path / "doc.model"
    doc.write_text(text, encoding="utf-8")
    assert main(["check", str(doc), "f", "true"]) == 2
    assert capsys.readouterr().err.splitlines()[0] == f"{doc}:3:1: configuration 'f': behaviour 'zzz' not in domain of 'a'"


def test_duplicate_configuration_rejected():
    text = "component a { domain x }\nconfig f = (a=x)\nconfig f = (a=x)\n"
    with pytest.raises(DslError) as exc:
        parse_model(text)
    assert any("duplicate configuration" in d.message for d in exc.value.diagnostics)


def test_duplicate_intervention_rejected(tmp_path, capsys):
    text = (
        "component c { domain a b }\natom at_b = c = b\nconfig start = (c=a)\n"
        "intervention fix on c { rule c: a -> b }\nintervention fix on c { rule c: a -> a }\n"
        "check start |= <?> at_b\n"
    )
    doc = tmp_path / "dup.model"
    doc.write_text(text, encoding="utf-8")
    assert main(["run", str(doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"{doc}:0:0: intervention fix: duplicate intervention name"]


def test_names_given_twice_are_reported_where_their_peers_are(tmp_path, capsys):
    text = (
        "component a { domain x y }\ncomponent b { domain u\n  context a a }\n"
        "config f = (a=x, b=u, a=y)\nintervention fix on a a { rule a: _ -> x }\n"
        "check (a=x, b=u, b=u) |= true\n"
    )
    with pytest.raises(DslError) as exc:
        parse_model(text)
    assert [str(d) for d in exc.value.diagnostics] == [
        "4:1: configuration 'f': component 'a' assigned twice",
        "0:0: component b: influence context names 'a' twice",
        "0:0: intervention fix: target 'a' named twice",
    ]
    ok = "component a { domain x y }\ncomponent b { domain u }\n"
    stanzas = (
        "check (a=x, b=u, b=u) |= true\ndecompose {a} {b b}\n"
        "cause from (a=x, b=u) to (a=y, b=u) effect {a a}\nchain from (a=x, b=u) to (a=y, b=u) effect {a b a}\n"
    )
    with pytest.raises(DslError) as exc:
        parse_model(ok + stanzas)
    assert [str(d) for d in exc.value.diagnostics] == [
        "3:1: component 'b' assigned twice",
        "4:1: component 'b' named twice",
        "5:1: component 'a' named twice",
        "6:1: component 'a' named twice",
    ]
    doc = tmp_path / "doc.model"
    doc.write_text(ok, encoding="utf-8")
    assert main(["check", str(doc), "(a=x, b=u, a=y)", "true"]) == 2
    assert capsys.readouterr().err.splitlines() == ["<command line>:0:0: component 'a' assigned twice"]


def test_formula_precedence():
    doc = parse_model("component a { domain x y }\natom p0 = a = x\natom p1 = a = y\n")
    phi = parse_formula_text("! p0 & p1 -> p0 | p1", doc)
    assert phi == F.Implies(F.And(F.Not(F.Atom("p0")), F.Atom("p1")), F.Or(F.Atom("p0"), F.Atom("p1")))


def test_modal_tokens():
    doc = parse_model("component a { domain x y }\natom p0 = a = x\n")
    assert parse_formula_text("[]+ p0", doc) == F.BoxPlus(F.Atom("p0"))
    assert parse_formula_text("<>+ p0", doc) == F.DiamondPlus(F.Atom("p0"))
    assert parse_formula_text("[] <> p0", doc) == F.Box(F.Diamond(F.Atom("p0")))
    assert parse_formula_text("<?> p0", doc) == F.InterveneExists(F.Atom("p0"))
    assert parse_formula_text("p[a=y]", doc) == F.BehaviourAtom("a", "y")


def test_star_requires_parenthesized_operands():
    doc = parse_model("component a { domain x y }\natom p0 = a = x\n")
    assert parse_formula_text("(p0) * (p0)", doc) == F.Star(F.Atom("p0"), F.Atom("p0"))
    with pytest.raises(DslError) as exc:
        parse_formula_text("p0 * (p0)", doc)
    assert "parenthesized" in str(exc.value)


def test_trailing_input_is_reported(ex1_doc):
    with pytest.raises(DslError) as exc:
        parse_formula_text("true false", ex1_doc)
    assert str(exc.value) == "1:6: trailing input after formula"
    with pytest.raises(DslError) as exc:
        parse_config_text("start mid", ex1_doc)
    assert str(exc.value) == "1:7: trailing input after configuration"


@pytest.mark.parametrize(
    "stanza, column, keyword",
    [
        ("chain from f to f maxlen 2 effect {a} maxlen 3", 39, "maxlen"),
        ("chain from f to f effect {a} maxlen 3 effect {a}", 39, "effect"),
    ],
)
def test_optional_clause_given_twice_is_reported_at_the_second(stanza, column, keyword):
    text = "component a { domain x }\nconfig f = (a=x)\n"
    with pytest.raises(DslError) as exc:
        parse_model(text + stanza + "\n")
    assert str(exc.value) == f"3:{column}: clause {keyword!r} given twice"
    with pytest.raises(DslError) as exc:
        parse_query_text(stanza, parse_model(text))
    assert str(exc.value) == f"1:{column}: clause {keyword!r} given twice"


def test_named_formulas_inline():
    text = (
        "component a { domain x y }\n"
        "atom p0 = a = x\n"
        "formula f0 = ! p0\n"
        "formula f1 = [] f0\n"
    )
    doc = parse_model(text)
    assert doc.formula("f1") == F.Box(F.Not(F.Atom("p0")))


def test_stanzas_and_arguments_read_the_documents_names():
    # a stanza in the file, a query text and command-line arguments read the same names
    doc = parse_model(EX1_TEXT + "formula moved = <>+ c2_flipped\ncheck mid |= moved\n")
    stanza = doc.queries[-1]
    assert stanza.values == (doc.configuration("mid"), F.DiamondPlus(F.Atom("c2_flipped")))
    assert parse_query_text("check mid |= moved", doc) == stanza
    assert parse_arguments("check", {"config": "mid", "formula": "moved"}, doc) == stanza
    assert (parse_config_text("mid", doc), parse_formula_text("moved", doc)) == stanza.values


def test_query_stanza_round_trip(micro_doc):
    for q in micro_doc.queries:
        again = parse_query_text(q.echo(), micro_doc)
        assert again == q


def test_document_round_trip(ex1_doc, micro_doc):
    # an atom by extension and named formulas, one of them built on another
    extended = parse_model(EX1_TEXT + "atom both = { start flipped }\nformula f0 = both | false\nformula f1 = [] f0\n")
    assert extended.formula("f1") == F.Box(F.Or(F.Atom("both"), F.FALSE))
    for doc in (ex1_doc, micro_doc, extended):
        printed = pretty_document(doc)
        assert parse_model(printed) == parse_model(printed)
        assert parse_model(printed) == doc


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_generated_model_round_trips(seed):
    from causalmc.dsl import ModelDocument
    from causalmc.generate import random_system_model

    m = random_system_model(random.Random(seed), n_interventions=1)
    doc = ModelDocument(model=m, configurations=(), formulas=(), queries=())
    printed = pretty_document(doc)
    assert parse_model(printed).model == m


def test_explicit_set_atom():
    text = (
        "component a { domain x y\n rule x -> y }\n"
        "config fx = (a=x)\n"
        "config fy = (a=y)\n"
        "atom at_ends = { fx fy }\n"
        "check fx |= at_ends\n"
    )
    doc = parse_model(text)
    atom = doc.model.atom_map["at_ends"]
    assert not atom.is_predicate and len(atom.extension) == 2
    from causalmc.semantics import evaluate
    from causalmc import formulas as FF

    assert evaluate(doc.model, doc.configuration("fx"), FF.Atom("at_ends"))
