#!/usr/bin/env python3
"""Scaling curve of the separating conjunction: ``evaluate`` milliseconds,
splits drawn (``split`` events of ``kernel.recording``) and side models
built (``side`` events) for a false and a true ``*`` on the benchmark's
rings (n = 6 to 8 nodes, at the state with node 0 down).

``(true) * (false)`` is false, so it draws every candidate split; ``(true)
* ([]+ <>+ up)`` is true at its first split, and splits are drawn only as
they are tried, so it must draw exactly one.  A side depends only on its
component subset, so each subset's side model is built once per model,
however many splits share it: the false ``*`` must build exactly as many
side models as there are distinct proper subsets among the split sides.
Times are best of ``--repeat`` runs, each on a freshly parsed model, and
vary with the machine.
"""

import argparse
import random
import sys
import time
from pathlib import Path

from causalmc import kernel
from causalmc.dsl import parse_formula_text, parse_model
from causalmc.semantics import candidate_splits, evaluate

REPO = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no bytecode cache in the benchmark's directory
sys.path.insert(0, str(REPO / "perfbench"))

import families  # noqa: E402

QUERIES = (("(true) * (false)", False), ("(true) * ([]+ <>+ {up})", True))

def measure(text: str, point: str, formula: str, repeat: int):
    """Best milliseconds of one evaluation, with the last run's verdict,
    splits drawn and side models built."""
    best = float("inf")
    for _ in range(repeat):
        doc = parse_model(text)
        phi = parse_formula_text(formula, doc)
        f = doc.configuration(point)
        with kernel.recording() as events:
            started = time.perf_counter()
            verdict = evaluate(doc.model, f, phi)
            best = min(best, time.perf_counter() - started)
    kinds = [kind for kind, *_ in events]
    return 1000 * best, verdict, kinds.count("split"), kinds.count("side"), doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'family':<10}{'formula':<26}{'splits':>7}{'subsets':>8}{'ms':>9}{'drawn':>7}{'sides':>7}  verdict")
    for n in range(6, 9):
        text, names = families.ring(random.Random(args.seed), n)
        label = f"ring n={n}"
        for query, expected in QUERIES:
            formula = query.format(up=names["last_up"])
            ms, verdict, drawn, sides, doc = measure(text, names["failing"], formula, args.repeat)
            splits = candidate_splits(doc.model)
            subsets = {s for split in splits for s in (split.left, split.right) if len(s) < n}
            shown = query.format(up="up")
            print(f"{label:<10}{shown:<26}{len(splits):>7}{len(subsets):>8}{ms:>9.2f}{drawn:>7}{sides:>7}  {verdict}")
            assert verdict is expected, (label, formula)
            if expected:
                assert drawn == 1, (label, formula, drawn)
            else:
                assert (drawn, sides) == (len(splits), len(subsets)), (label, formula, drawn, sides)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
