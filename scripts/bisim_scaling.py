#!/usr/bin/env python3
"""Scaling curve of bisimulation under intervention: ``check_bisim``
milliseconds and state counts for the benchmark's pipelines (n = 3 to 7
stages, a fault at the source) and rings (n = 3 to 5 nodes, one node
down), each against a copy with one component's behaviours renamed and
against a perturbed copy.  Each row also shows the left model's
intervention closure size (``variants``), for both sides together the
distinct successor lists the checker builds (``lists``) against the
(state, label) moves that share them (``moves``), and the refinement rounds
computed (``rounds``).  Refinement stops at the round that splits the two
points, so a perturbed row's rounds are its distinguishing depth, and a
renamed row's are the fixpoint round plus the one that confirmed it.

Only the answers are checked, not the times: a renamed copy is bisimilar,
and the distinguishing formula found against a perturbed copy holds at the
left point and fails at the right one.  The perturbed copy is the first of
``perturb_model``'s seeds 0, 1, ... that the checker separates, since some
perturbations change nothing reachable.  Times are best of ``--repeat``
runs, each on a freshly parsed model, and vary with the machine.
"""

import argparse
import random
import sys
import time
from pathlib import Path

from causalmc import formulas as F
from causalmc.bisim import STEP, PointedModel, _Lts, _refine, check_bisim
from causalmc.dsl import parse_model
from causalmc.generate import perturb_model, rename_component_behaviours
from causalmc.model import DEFAULT_OPTIONS
from causalmc.semantics import evaluate

REPO = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no bytecode cache in the benchmark's directory
sys.path.insert(0, str(REPO / "perfbench"))

import families  # noqa: E402

PERTURB_SEEDS = 50


def measure(text: str, point: str, other, repeat: int):
    """Best milliseconds of checking the pointed model against the copy
    ``other`` makes of it, and the last run's points and result."""
    best = float("inf")
    for _ in range(repeat):
        doc = parse_model(text)
        a = PointedModel(doc.model, doc.configuration(point))
        b = other(a)
        started = time.perf_counter()
        result = check_bisim(a, b)
        best = min(best, time.perf_counter() - started)
    return 1000 * best, a, b, result


def shape(a: PointedModel, b: PointedModel) -> str:
    """Variants of the left closure, then distinct successor lists,
    (state, label) moves and refinement rounds over both sides, as table
    columns."""
    labels = [STEP] + sorted(a.model.intervention_map)
    lts = _Lts(a, b, labels, DEFAULT_OPTIONS)
    n = lts.roots[1]
    history = _refine(lts.atoms, lts.rows, lts.lists, n)
    # every round computed is kept but the one that confirms a fixpoint
    rounds = len(history) - 1 + (history[-1][0] == history[-1][n])
    return f"{len(lts.kernels[0]):>9}{len(lts.lists):>7}{len(lts.atoms) * len(labels):>7}{rounds:>7}"


def renamed(component: str):
    def copy(a: PointedModel) -> PointedModel:
        model, rename = rename_component_behaviours(a.model, component)
        return PointedModel(model, rename(a.point))

    return copy


def perturbed(seed: int):
    return lambda a: PointedModel(perturb_model(random.Random(seed), a.model), a.point)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    cases = []  # (label, text, point, renamed component)
    for n in range(3, 8):
        text, names = families.pipeline(random.Random(args.seed), n, True)
        cases.append((f"pipeline n={n}", text, names["start"], names["comps"][1]))
    for n in range(3, 6):
        text, names = families.ring(random.Random(args.seed), n)
        cases.append((f"ring n={n}", text, names["failing"], names["comps"][1]))
    print(
        f"{'family':<16}{'copy':<12}{'ms':>10}{'left':>8}{'right':>8}{'variants':>9}{'lists':>7}{'moves':>7}"
        f"{'rounds':>7}"
        "  distinguishing depth"
    )
    for label, text, point, component in cases:
        ms, a, b, result = measure(text, point, renamed(component), args.repeat)
        print(f"{label:<16}{'renamed':<12}{ms:>10.1f}{result.left_states:>8}{result.right_states:>8}{shape(a, b)}")
        assert result.bisimilar, label
        for seed in range(PERTURB_SEEDS):
            ms, a, b, result = measure(text, point, perturbed(seed), args.repeat)
            if not result.bisimilar:
                break
        else:
            raise AssertionError(f"{label}: no perturbation seed below {PERTURB_SEEDS} separates the copy")
        phi = result.distinguishing
        depth = F.modal_depth(phi)
        print(
            f"{label:<16}{f'perturb {seed}':<12}{ms:>10.1f}{result.left_states:>8}{result.right_states:>8}"
            f"{shape(a, b)}  {depth}"
        )
        assert evaluate(a.model, a.point, phi) and not evaluate(b.model, b.point, phi), (label, F.pretty(phi))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
