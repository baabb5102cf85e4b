#!/usr/bin/env python3
"""Scaling curve of closure labelling: ``evaluate`` milliseconds and
component walks (``kernel.components`` calls) for nested ``<>+``/``[]+``
formulas on the benchmark's rings (n = 3 to 8 nodes, at the state with
node 0 down) and on the bundled microservice model (at f1, with
``phi_fail`` as "down").

Each witness-free closure is labelled from one walk over the strongly
connected components of the states reachable from where it is first asked,
so the walk count stays at one however deep the nesting, and no
``Kernel.reachable`` search runs besides.  Only the
answers are checked, not the times: every verdict must equal that of its
dual form, in which each ``[]+ φ`` is written ``! <>+ ! φ`` and each
``<>+ φ`` is written ``! []+ ! φ``.  Times are best of ``--repeat`` runs,
each on a freshly parsed model, and vary with the machine.
"""

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path

from causalmc import formulas as F
from causalmc import kernel
from causalmc.dsl import parse_formula_text, parse_model
from causalmc.semantics import evaluate

REPO = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no bytecode cache in the benchmark's directory
sys.path.insert(0, str(REPO / "perfbench"))

import families  # noqa: E402

QUERIES = ("<>+ <>+ false", "[]+ []+ <>+ {down}", "<>+ <>+ <>+ {down}")

def dual(phi: F.Formula) -> F.Formula:
    """``phi`` with every closure written through the other one."""

    def swap(node, subs):
        node = F.rebuild(node, subs)
        if isinstance(node, F.BoxPlus):
            return F.Not(F.DiamondPlus(F.Not(node.sub)))
        if isinstance(node, F.DiamondPlus):
            return F.Not(F.BoxPlus(F.Not(node.sub)))
        return node

    return F.fold(phi, swap)


def measure(text: str, point: str, formula: str, repeat: int):
    """Best milliseconds of one evaluation, with the last run's verdict and
    walk and search counts."""
    best = float("inf")
    for _ in range(repeat):
        doc = parse_model(text)
        phi = parse_formula_text(formula, doc)
        f = doc.configuration(point)
        with kernel.recording() as events:
            started = time.perf_counter()
            verdict = evaluate(doc.model, f, phi)
            best = min(best, time.perf_counter() - started)
    kinds = Counter(event[0] for event in events)
    return 1000 * best, verdict, {"walks": kinds["walk"], "searches": kinds["reachable"]}, doc, phi, f


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    cases = []  # (label, text, point, down atom)
    for n in range(3, 9):
        text, names = families.ring(random.Random(args.seed), n)
        cases.append((f"ring n={n}", text, names["failing"], names["down"]))
    micro = (REPO / "models" / "microservice.model").read_text(encoding="utf-8")
    cases.append(("micro", micro, "f1", "phi_fail"))
    print(f"{'family':<12}{'formula':<24}{'ms':>9}{'walks':>7}{'searches':>10}  verdict")
    for label, text, point, down in cases:
        for query in QUERIES:
            formula = query.format(down=down)
            ms, verdict, count, doc, phi, f = measure(text, point, formula, args.repeat)
            shown = query.format(down="down")
            print(f"{label:<12}{shown:<24}{ms:>9.2f}{count['walks']:>7}{count['searches']:>10}  {verdict}")
            assert evaluate(doc.model, f, dual(phi)) is verdict, (label, formula)
            assert count == {"walks": 1, "searches": 0}, (label, formula, count)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
