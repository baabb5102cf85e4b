#!/usr/bin/env python3
"""Scaling curve of the model-language front end: milliseconds of the
string scan the parser reads (``dsl._strings``), of the line and column
of its tokens, which place diagnostics (``dsl._positions``), and of a whole
``parse_model``, for ex1, the microservice model, and the benchmark's
rings (n = 3 to 8 nodes), pipelines (n = 3 to 12 stages, a fault at the
source) and fan-in trees (3 to 6 leaves, one faulty).  ``tokens`` counts
the tokens of each document.

Only the answers are checked, not the times: every token gets a position,
the positions increase through the text, each document parses, and
parsing its ``pretty_document`` gives the same document back.  Times are
best of ``--repeat`` rounds of ``--number`` calls each, and vary with the
machine.
"""

import argparse
import random
import sys
import time
from functools import partial
from pathlib import Path

from causalmc import dsl
from causalmc.dsl import parse_model, pretty_document

REPO = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no bytecode cache in the benchmark's directory
sys.path.insert(0, str(REPO / "perfbench"))

import families  # noqa: E402


def best_ms(fn, text: str, number: int, repeat: int) -> float:
    """Best milliseconds per call of ``fn(text)`` over ``repeat`` rounds."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        for _ in range(number):
            fn(text)
        best = min(best, (time.perf_counter() - started) / number)
    return 1000 * best


def documents(seed: int):
    """(label, text) of every document the curve covers."""
    for name in ("ex1.model", "microservice.model"):
        yield name, (REPO / "models" / name).read_text(encoding="utf-8")
    for n in range(3, 9):
        yield f"ring n={n}", families.ring(random.Random(seed), n)[0]
    for n in range(3, 13):
        yield f"pipeline n={n}", families.pipeline(random.Random(seed), n, True)[0]
    for leaves in range(3, 7):
        yield f"fan-in {leaves} leaves", families.fanin(random.Random(seed), leaves, 1)[0]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--number", type=int, default=20, help="calls per round (default 20)")
    ap.add_argument("--repeat", type=int, default=3, help="rounds (default 3)")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    print(f"{'document':<20}{'tokens':>8}{'strings ms':>12}{'positions ms':>14}{'parse ms':>10}")
    for label, text in documents(args.seed):
        strings = dsl._strings(text)
        positions = dsl._positions(text, strings)
        assert len(positions) == len(strings) and positions == sorted(set(positions)), label
        doc = parse_model(text)
        assert parse_model(pretty_document(doc)) == doc, label
        scans = (dsl._strings, partial(dsl._positions, tokens=strings), parse_model)
        times = [best_ms(fn, text, args.number, args.repeat) for fn in scans]
        print(f"{label:<20}{len(strings) - 1:>8}" + "".join(f"{ms:>{w}.3f}" for ms, w in zip(times, (12, 14, 10))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
