"""Token-for-token differential test of the model-language scanner.

``reference_tokenize`` is a verbatim copy of the character-loop tokenizer
that the scanner replaced.  The scanner's side is ``scan``: the tokens of
``dsl._strings``, each with its kind read from its first character and its
place from ``dsl._positions``.  Every input below must give the same
``(kind, value, line, column)`` list from both, or the same diagnostic text.
The reference keeps three quirks the scanner must reproduce: a newline
inside a ``"..."`` string does not advance the line, the ``eof`` column
after a trailing comment with no final newline is the column of the ``#``,
and ``\\d`` in the number rule matches non-ASCII digits.

The parser reads ``dsl._strings``, the tokens as plain strings, ending with
one empty string, the end marker, which ``scan`` checks; the parser runs
``_positions`` only to place a diagnostic, and the last test counts its
calls.
"""

import json
import random
import re
import string
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from causalmc import dsl
from causalmc.dsl import Diagnostic, DslError

REPO = Path(__file__).resolve().parents[1]
MODELS = REPO / "models"
GOLDEN = Path(__file__).resolve().parent / "golden"

# ---------------------------------------------------------------------------
# reference: the replaced tokenizer, verbatim

_FIXED = ("[]+", "<>+", "<?>", "->", "|=", "[]", "<>")
_PUNCT = "{}()=,:*&|!<>[]"
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"\d+(\.\d+)?")


@dataclass(frozen=True)
class Token:
    kind: str  # name | number | string | punct | eof
    value: str
    line: int
    column: int


def reference_tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = False
        for fix in _FIXED:
            if text.startswith(fix, i):
                out.append(Token("punct", fix, line, col))
                i += len(fix)
                col += len(fix)
                matched = True
                break
        if matched:
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise DslError([Diagnostic(line, col, "unterminated string")])
            out.append(Token("string", text[i + 1 : j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        m = _NAME_RE.match(text, i)
        if m:
            out.append(Token("name", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _NUM_RE.match(text, i)
        if m:
            out.append(Token("number", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        if ch in _PUNCT:
            out.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise DslError([Diagnostic(line, col, f"unexpected character {ch!r}")])
    out.append(Token("eof", "", line, col))
    return out


# ---------------------------------------------------------------------------
# the scanner's side


def _kind(t: str) -> str:
    """A string token's kind, by its first character."""
    c = t[:1]
    if c in string.ascii_letters + "_":
        return "name"
    if c == '"':
        return "string"
    if c.isdecimal():
        return "number"
    return "punct"


def scan(text: str) -> list[Token]:
    """The scanner's tokens with their kinds and positions, ending with ``eof``."""
    tokens = dsl._strings(text)
    assert tokens[-1] == "" and "" not in tokens[:-1], tokens  # the end marker, and only there
    return [
        Token(_kind(t) if t else "eof", dsl._value(t), line, column)
        for t, (line, column) in zip(tokens, dsl._positions(text, tokens))
    ]


# ---------------------------------------------------------------------------
# inputs


def _outcome(tokenize, text: str):
    try:
        tokens = tokenize(text)
    except DslError as exc:
        return ("error", str(exc), [str(d) for d in exc.diagnostics])
    return [(t.kind, t.value, t.line, t.column) for t in tokens]


def _model_texts() -> list[str]:
    return [p.read_text(encoding="utf-8") for p in sorted(MODELS.glob("*.model"))]


def _stanza_texts() -> list[str]:
    kinds = json.loads((GOLDEN / "stanza_kinds.json").read_text(encoding="utf-8"))
    return sorted(
        {entry["stanza"] for case in kinds.values() for part in ("document", "malformed") for entry in case[part]}
    )


def _family_texts() -> list[str]:
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import families
    finally:
        sys.path.pop(0)
    out = []
    for seed in (0, 1, 7):
        rng = random.Random(seed)
        out.append(families.pipeline(rng, 5, seed % 2 == 0)[0])
        out.append(families.fanin(rng, 5, 1)[0])
        out.append(families.ring(rng, 4)[0])
    return out


# mostly characters of the language, with the rarer ones the scanner must
# treat exactly as the reference did: quotes, comments, carriage returns,
# tabs, form feeds (not whitespace) and a non-ASCII digit
_ALPHABET = (
    "abcxyz_ABCZ0123456789" * 3
    + "{}()=,:*&|!<>[]+-?" * 2
    + "   \n\n"
    + '"#\r\t\x0c٣.'
)


def _fuzzed_inputs(count: int, seed: int = 20261018) -> list[str]:
    rng = random.Random(seed)
    sources = _model_texts() + _family_texts()
    out = []
    for k in range(count):
        tail = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 24)))
        if k % 2:
            out.append(tail + "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 24))))
            continue
        source = rng.choice(sources)
        at = rng.randrange(len(source))
        out.append(source[at : at + rng.randint(0, 120)] + tail)
    return out


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize(
    "text",
    [
        "",
        "a",
        '"a\nb" x',
        'x "unterminated\n y',
        "a # trailing comment",
        "a # comment\n",
        "#",
        "٣٤ x",
        "1.5 2. 3.x",
        "a\x0cb",
        "a\r\nb\t c",
        "[]+<>+<?>->|=[]<>[]<|",
        "café",
        # non-ASCII digits are numbers, a superscript and a non-ASCII letter are not
        "٣",
        "x٣.٤y",
        "３",
        "a ３.５ b",
        "²",
        "a²",
        "é",
        "é x",
        '"é²" ٣',
        # blanks, newlines and comments before the first token and after the last
        "  \n# c\n\t x # d\n\r\n  ",
        " # only a comment",
        '""',
        '"" "',
    ],
    ids=repr,
)
def test_scanner_matches_reference_on_corner_cases(text):
    assert _outcome(scan, text) == _outcome(reference_tokenize, text)


def test_scanner_matches_reference_on_models_stanzas_and_families():
    texts = _model_texts() + _stanza_texts() + _family_texts()
    assert len(texts) > 40
    for text in texts:
        assert _outcome(scan, text) == _outcome(reference_tokenize, text), text


def test_scanner_matches_reference_on_fuzzed_text():
    inputs = _fuzzed_inputs(20_000)
    errors = 0
    for text in inputs:
        expected = _outcome(reference_tokenize, text)
        errors += expected[0] == "error"
        assert _outcome(scan, text) == expected, text
    # both outcomes must be well represented, or the fuzzing proves little
    assert 0.2 * len(inputs) < errors < 0.8 * len(inputs)


# ---------------------------------------------------------------------------
# the calls to the positions


def test_positions_are_computed_only_for_diagnostics(monkeypatch, micro_doc):
    calls = []

    positions = dsl._positions

    def counted(text, tokens):
        calls.append(text)
        return positions(text, tokens)

    monkeypatch.setattr(dsl, "_positions", counted)
    text = (MODELS / "microservice.model").read_text(encoding="utf-8")
    doc = dsl.parse_model(text)
    assert doc == micro_doc
    dsl.parse_query_text("cause from f1 to f2 effect {FrontEnd}", doc)
    dsl.parse_formula_text("<theta3> [] ! phi_fail", doc)
    dsl.parse_config_text(str(doc.configuration("f1")), doc)
    dsl.parse_config_text("f2", doc)
    assert calls == []

    # one call per failed parse, however many diagnostics it builds
    for bad in (
        text + "config f1 = (Auth=idle)\natom phi_fail = Auth = idle\n",
        text + "check f1 |= ",
        text + "check f1 |= ~",
    ):
        calls.clear()
        with pytest.raises(DslError):
            dsl.parse_model(bad)
        assert len(calls) == 1
    calls.clear()
    with pytest.raises(DslError) as err:
        dsl.parse_query_text("chain from f1 to f2 maxlen 2.5", doc)
    assert str(err.value) == "1:28: expected a whole number after 'maxlen', found '2.5'"
    assert len(calls) == 1
