"""Golden fixtures: engine output pinned byte for byte.

The files under ``tests/golden/`` were written once from the engine and are
only ever compared against, so a refactor that changes any report, printed
formula or distinguishing formula fails here.  To inspect what the current
engine would write, run ``python tests/test_golden.py OUTDIR`` and diff
OUTDIR against ``tests/golden/``.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from causalmc import formulas as F
from causalmc.bisim import PointedModel, check_bisim, generate_formula_suite
from causalmc.dsl import DslError, parse_formula_text, parse_model
from causalmc.generate import perturb_model
from causalmc.queries import run_query

GOLDEN = Path(__file__).resolve().parent / "golden"
MODELS = Path(__file__).resolve().parents[1] / "models"


def replay_keys() -> dict:
    """``replay_key`` of every stanza of every bundled model, in both AC1 modes."""
    out = {}
    for path in sorted(MODELS.glob("*.model")):
        doc = parse_model(path.read_text(encoding="utf-8"), path=str(path))
        out[path.name] = {
            mode: [run_query(doc, q, strict_ac1=mode == "strict").replay_key() for q in doc.queries]
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


FIXTURES = {
    "replay_keys.json": replay_keys,
    "formula_suite.json": formula_suite_keys,
    "bisim_perturbed.json": bisim_perturbed,
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
