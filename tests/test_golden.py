"""Golden fixtures: engine output pinned byte for byte.

The files under ``tests/golden/`` were written once from the engine and are
only ever compared against, so a refactor that changes any report, printed
formula or distinguishing formula fails here.  To inspect what the current
engine would write, run ``python tests/test_golden.py OUTDIR`` and diff
OUTDIR against ``tests/golden/``.
"""

import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

import pytest

from causalmc import formulas as F
from causalmc.bisim import PointedModel, check_bisim
from causalmc.cli import main
from causalmc.dsl import DslError, parse_formula_text, parse_model, parse_query_text, pretty_document
from causalmc.generate import generate_formula_suite, perturb_model
from causalmc.model import Options
from causalmc.queries import run_query

GOLDEN = Path(__file__).resolve().parent / "golden"
REPO = Path(__file__).resolve().parents[1]
MODELS = REPO / "models"


def replay_keys() -> dict:
    """``replay_key`` of every stanza of every bundled model, in both AC1 modes."""
    out = {}
    for path in sorted(MODELS.glob("*.model")):
        doc = parse_model(path.read_text(encoding="utf-8"), path=str(path))
        out[path.name] = {
            mode: [run_query(doc, q, Options(strict_ac1=mode == "strict")).replay_key() for q in doc.queries]
            for mode in ("example", "strict")
        }
    return out


def formula_suite_keys() -> list:
    """``canonical_key`` of the depth-3 formula suite; its last entry is ``pretty``."""
    suite = generate_formula_suite(["a", "b", "c"], ["t1", "t2"], depth=3)
    return [list(F.canonical_key(phi)) for phi in suite]


def bisim_perturbed() -> list:
    """Verdict and distinguishing formula of ex1 against 20 perturbed copies."""
    doc = parse_model((MODELS / "ex1.model").read_text(encoding="utf-8"))
    start = doc.configuration("start")
    out = []
    for k in range(20):
        other = perturb_model(random.Random(k), doc.model)
        result = check_bisim(PointedModel(doc.model, start), PointedModel(other, start))
        phi = result.distinguishing
        out.append(
            {"k": k, "bisimilar": result.bisimilar, "distinguishing": F.pretty(phi) if phi else None}
        )
    return out


# per query kind: document stanzas as (model, stanza), command lines after the
# subcommand with the model given by file name, and malformed stanzas as
# (model, stanza); "ex1-uncosted" is ex1.model without its cost annotation
STANZA_KINDS = {
    "check": {
        "document": [
            ("ex1.model", "check start |= <>+ c2_flipped"),
            ("ex1.model", "check (c1=b12,c2=b21 , c3=b31) |= <theta_reset> []+ ! c2_flipped"),
        ],
        "cli": [
            ["ex1.model", "(c1=b12,c2=b21 , c3=b31)", "<theta_reset> []+ ! c2_flipped"],
            ["microservice.model", "f2", "<theta3> [] ! phi_fail"],
        ],
        "malformed": [
            ("ex1.model", "check start <>+ c2_flipped"),
            ("ex1.model", "check nope |= true"),
            ("ex1.model", "check start |= nothing"),
            ("ex1.model", "check (c1=b11) |= true"),
            ("ex1.model", "check |= true"),
        ],
    },
    "recover": {
        "document": [("microservice.model", "recover f2 avoiding phi_fail")],
        "cli": [["microservice.model", "f2", "phi_fail"]],
        "malformed": [
            ("microservice.model", "recover f2 phi_fail"),
            ("microservice.model", "recover f2 avoiding"),
        ],
    },
    "mincost": {
        "document": [
            ("microservice.model", "mincost f2 avoiding phi_fail"),
            ("microservice.model", "mincost f1 avoiding p[Auth=idle]"),
            ("ex1-uncosted", "mincost start avoiding c2_flipped"),
        ],
        "cli": [["microservice.model", "f2", "phi_fail"]],
        "malformed": [
            ("microservice.model", "mincost f2 avoiding p[Nope=idle]"),
            ("microservice.model", "mincost avoiding phi_fail"),
        ],
    },
    "utility": {
        "document": [
            ("microservice.model", "utility f2 avoiding phi_fail"),
            ("ex1.model", "utility start avoiding c2_flipped"),
        ],
        "cli": [["microservice.model", "f2", "phi_fail"], ["ex1.model", "start", "c2_flipped"]],
        "malformed": [("microservice.model", "utility f2 avoiding phi_fail & ")],
    },
    "cause": {
        "document": [("microservice.model", "cause from f1 to f2 effect {FrontEnd}")],
        "cli": [["microservice.model", "--from", "f1", "--to", "f2", "--effect", "FrontEnd", "Logger"]],
        "malformed": [
            ("microservice.model", "cause f1 to f2"),
            ("microservice.model", "cause from f1 f2"),
            ("microservice.model", "cause from f1 to f2"),
            ("microservice.model", "cause from f1 to f2 effect FrontEnd"),
            ("microservice.model", "cause from f1 to f2 effect {Nope}"),
        ],
    },
    "chain": {
        "document": [
            ("microservice.model", "chain from f1 to f2 effect {FrontEnd} maxlen 2"),
            ("microservice.model", "chain from f1 to f2 maxlen 2 effect {FrontEnd, Logger}"),
            ("ex1.model", "chain from start to flipped"),
            ("ex1.model", "chain from start to flipped effect {} maxlen 3 maxlen 2"),
        ],
        "cli": [
            ["microservice.model", "--from", "f1", "--to", "f2", "--effect", "FrontEnd", "--max-len", "2"],
            ["ex1.model", "--from", "start", "--to", "flipped"],
        ],
        "malformed": [
            ("microservice.model", "chain from f1 to f2 maxlen x"),
            ("microservice.model", "chain from f1 to f2 effect {Nope}"),
            ("microservice.model", "chain f1 to f2"),
        ],
    },
    "decompose": {
        "document": [
            ("ex1.model", "decompose {c1 c2} {c2 c3}"),
            ("ex1.model", "decompose {c1, c2} {c3}"),
        ],
        "cli": [["ex1.model", "--left", "c1", "c2", "--right", "c2", "c3"]],
        "malformed": [
            ("ex1.model", "decompose {c1 c2} c3"),
            ("ex1.model", "decompose {c1} {c9}"),
        ],
    },
    "bisim": {
        "document": [
            ("ex1.model", 'bisim start vs "ex1.model" start'),
            ("ex1.model", 'bisim (c1=b11, c2=b21, c3=b31) vs "ex1.model" mid'),
        ],
        "cli": [["ex1.model", "start", "ex1.model", "start"], ["ex1.model", "start", "ex1.model", "mid"]],
        "malformed": [
            ("ex1.model", 'bisim start "x" start'),
            ("ex1.model", "bisim start vs ex1.model start"),
            ("ex1.model", 'bisim start vs "ex1.model"'),
            ("ex1.model", 'bisim nope vs "ex1.model" start'),
        ],
    },
}


def _placeholder(text: str) -> str:
    return text.replace(str(REPO), "<repo>")


def _model_text(model: str) -> str:
    if model == "ex1-uncosted":
        return _model_text("ex1.model").replace("  cost 1\n", "")
    return (MODELS / model).read_text(encoding="utf-8")


def _first_error(parse) -> str:
    try:
        parse()
    except DslError as exc:
        return str(exc.diagnostics[0])
    except Exception as exc:  # noqa: BLE001 - a non-diagnostic error is pinned by type and text
        return f"{type(exc).__name__}: {exc}"
    return "no error"


def _document_stanza(model: str, stanza: str) -> dict:
    """The echo and replay key of a stanza appended to its model, or the
    parse diagnostic or run error that stops it."""
    path = MODELS / model
    out = {"model": model, "stanza": stanza}
    try:
        doc = parse_model(_model_text(model) + stanza + "\n", path=str(path))
        q = doc.queries[-1]
        out["echo"] = q.echo()
        out["replay_key"] = run_query(doc, q).replay_key()
    except Exception as exc:  # noqa: BLE001
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def _cli_run(kind: str, args: list) -> dict:
    argv = [kind] + [str(MODELS / a) if a.endswith(".model") else a for a in args]
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--report", str(report)])
        payload = json.loads(_placeholder(report.read_text(encoding="utf-8"))) if report.exists() else None
    if payload is not None:
        payload.pop("timing_ms")
    return {
        "args": args,
        "exit": code,
        "stdout": _placeholder(out.getvalue()),
        "stderr": _placeholder(err.getvalue()),
        "report": payload,
    }


def _malformed(model: str, stanza: str) -> dict:
    path = MODELS / model
    text = _model_text(model)
    doc = parse_model(text, path=str(path))
    return {
        "model": model,
        "stanza": stanza,
        "document": _first_error(lambda: parse_model(text + stanza + "\n", path=str(path))),
        "query_text": _first_error(lambda: parse_query_text(stanza, doc)),
    }


def stanza_kinds() -> dict:
    """Echo, replay key, command-line report and diagnostics of every query kind."""
    return {
        kind: {
            "document": [_document_stanza(m, s) for m, s in case["document"]],
            "cli": [_cli_run(kind, args) for args in case["cli"]],
            "malformed": [_malformed(m, s) for m, s in case["malformed"]],
        }
        for kind, case in STANZA_KINDS.items()
    }


# ---------------------------------------------------------------------------
# parse outcomes of token-level mutations

# a token for mutating text, independent of the scanner under test: a string,
# an operator, a name, a number, a comment (left alone) or any other character
_MUTATION_TOKEN = re.compile(r'"[^"\n]*"|\[\]\+|<>\+|<\?>|->|\|=|\[\]|<>|[A-Za-z_]\w*|\d+(?:\.\d+)?|#[^\n]*|\S')
_STRAY = "@$;?~'é²\x0c"
_MUTATIONS = 2_000


def _parse_sources() -> list:
    """(name, text, model name or None): the bundled models, every document
    and query text of ``STANZA_KINDS``, and seeded benchmark family
    documents; a query text is parsed against its model, the rest as
    documents."""
    out = [(path.name, path.read_text(encoding="utf-8"), None) for path in sorted(MODELS.glob("*.model"))]
    for kind, case in STANZA_KINDS.items():
        for part in ("document", "malformed"):
            for k, (model, stanza) in enumerate(case[part]):
                out.append((f"{kind} {part} {k} document", _model_text(model) + stanza + "\n", None))
                out.append((f"{kind} {part} {k} query", stanza, model))
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import families
    finally:
        sys.path.pop(0)
    for seed in (0, 1):
        out.append((f"pipeline {seed}", families.pipeline(random.Random(seed), 4, seed == 0)[0], None))
        out.append((f"fanin {seed}", families.fanin(random.Random(seed), 3, 1 + seed)[0], None))
        out.append((f"ring {seed}", families.ring(random.Random(seed), 3 + seed)[0], None))
    return out


def _mutate(rng: random.Random, text: str) -> tuple[str, str]:
    """A description of a random mutation at a random token of ``text``, and
    the mutated text; a repeated line repeats declarations, whose diagnostics
    are placed at their first token after the whole document is read."""
    spans = [m.span() for m in _MUTATION_TOKEN.finditer(text) if m.group()[0] != "#"]
    kind = rng.randrange(6)
    if kind == 5:
        lines = text.split("\n")
        j = rng.randrange(len(lines))
        return f"repeat line {j + 1}", "\n".join(lines[: j + 1] + lines[j:])
    i = rng.randrange(len(spans))
    s, e = spans[i]
    if kind == 0:
        return f"drop {i}", text[:s] + text[e:]
    if kind == 1:
        return f"duplicate {i}", text[:e] + " " + text[s:e] + text[e:]
    if kind == 2 and i + 1 < len(spans):
        s2, e2 = spans[i + 1]
        return f"swap {i} {i + 1}", text[:s] + text[s2:e2] + text[e:s2] + text[s:e] + text[e2:]
    ch = '"' if kind == 4 else rng.choice(_STRAY)
    return f"insert {ch!r} before {i}", text[:s] + ch + text[s:]


def _parse_outcome(text: str, doc) -> str:
    """Every diagnostic of a failed parse (``line:column: message``, joined by
    ``; ``), or for a document that parses the SHA-256 of its
    ``pretty_document``, for a query text its echo; ``doc`` is the model a
    query text is parsed against, None for a document."""
    try:
        if doc is None:
            return "pretty " + hashlib.sha256(pretty_document(parse_model(text)).encode()).hexdigest()[:16]
        return "echo " + parse_query_text(text, doc).echo()
    except DslError as exc:
        return str(exc)
    except Exception as exc:  # noqa: BLE001 - a non-diagnostic error is pinned by type and text
        return f"{type(exc).__name__}: {exc}"


def parse_outcomes() -> dict:
    """Per source text, the outcome of each of its seeded token mutations: a
    document is parsed with ``parse_model``, a query text with
    ``parse_query_text`` against its model."""
    sources = _parse_sources()
    docs = {model: parse_model(_model_text(model)) for _, _, model in sources if model}
    rng = random.Random(20261018)
    out: dict = {name: [] for name, _, _ in sources}
    for k in range(_MUTATIONS):
        name, text, model = sources[k % len(sources)]
        what, mutated = _mutate(rng, text)
        out[name].append(f"{what}: {_parse_outcome(mutated, docs.get(model))}")
    return out


# DOT exports as command lines after the program name, the model given by
# file name; a ``--dot`` export is read back from the file it names
DOT_EXPORTS = [
    ["export-dot", "ex1.model"],
    ["export-dot", "ex1.model", "--reachable-from", "start"],
    ["export-dot", "microservice.model"],
    ["export-dot", "microservice.model", "--reachable-from", "f1"],
    ["export-dot", "ex1.model", "--variants"],
    ["export-dot", "microservice.model", "--variants"],
    ["chain", "microservice.model", "--from", "f1", "--to", "f2", "--max-len", "5", "--dot"],
]


def dot_exports() -> dict:
    """Every DOT export in ``DOT_EXPORTS`` split at its newlines, by command line."""
    out = {}
    for args in DOT_EXPORTS:
        argv = [str(MODELS / a) if a.endswith(".model") else a for a in args]
        with tempfile.TemporaryDirectory() as tmp:
            dot = Path(tmp) / "out.dot"
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = main(argv + [str(dot)] if args[-1] == "--dot" else argv)
            text = dot.read_text(encoding="utf-8") if dot.exists() else printed.getvalue()
        assert code == 0, args
        out[" ".join(args)] = text.split("\n")
    return out


FIXTURES = {
    "dot_exports.json": dot_exports,
    "replay_keys.json": replay_keys,
    "formula_suite.json": formula_suite_keys,
    "bisim_perturbed.json": bisim_perturbed,
    "stanza_kinds.json": stanza_kinds,
    "parse_outcomes.json": parse_outcomes,
}


def render(name: str) -> str:
    return json.dumps(FIXTURES[name](), indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_golden_fixture_unchanged(name):
    assert render(name) == (GOLDEN / name).read_text(encoding="utf-8")


def test_first_diagnostic_is_preorder(ex1_doc):
    # the root names an unknown intervention; the unknown atom and component
    # below it come later in pre-order
    with pytest.raises(DslError) as err:
        parse_formula_text("<nope> (zz & p[Foo=x])", ex1_doc)
    assert [d.message for d in err.value.diagnostics] == ["unresolved intervention name 'nope'"]


if __name__ == "__main__":
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    for fixture in FIXTURES:
        (outdir / fixture).write_text(render(fixture), encoding="utf-8")
