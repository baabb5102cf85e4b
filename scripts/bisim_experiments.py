#!/usr/bin/env python3
"""Metatheory sweeps: renamed models agree on the formula suite; perturbed
models are separated by a machine-verified distinguishing formula."""

import argparse
import random
import time

from causalmc import formulas as F
from causalmc.bisim import PointedModel, check_bisim
from causalmc.generate import (
    generate_formula_suite,
    perturb_model,
    random_configuration,
    random_system_model,
    rename_component_behaviours,
)
from causalmc.semantics import evaluate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=50)
    ap.add_argument("--seed", type=int, default=8800)
    ap.add_argument("--depth", type=int, default=3)
    args = ap.parse_args()

    started = time.perf_counter()
    disagreements = 0
    for i in range(args.pairs):
        rng = random.Random(args.seed + i)
        model = random_system_model(rng, max_components=3, max_behaviours=3)
        point = random_configuration(rng, model)
        renamed, rencfg = rename_component_behaviours(model, rng.choice(model.component_order))
        other = rencfg(point)
        assert check_bisim(PointedModel(model, point), PointedModel(renamed, other)).bisimilar
        suite = generate_formula_suite(model.atom_map, model.intervention_map, depth=args.depth)
        for phi in suite:
            if evaluate(model, point, phi) != evaluate(renamed, other, phi):
                disagreements += 1
                print(f"suite disagreement at seed {args.seed + i}: {F.pretty(phi)}")
    print(f"soundness: {args.pairs} renamed pairs, {disagreements} suite disagreements")

    separated = 0
    tried = 0
    seed = args.seed + 100_000
    while separated < args.pairs:
        seed += 1
        tried += 1
        rng = random.Random(seed)
        model = random_system_model(rng, max_components=3, max_behaviours=3)
        point = random_configuration(rng, model)
        other = perturb_model(rng, model)
        if other == model:
            continue
        result = check_bisim(PointedModel(model, point), PointedModel(other, point))
        if result.bisimilar:
            continue
        phi = result.distinguishing
        assert F.is_star_free(phi)
        assert evaluate(model, point, phi) and not evaluate(other, point, phi)
        separated += 1
    elapsed = time.perf_counter() - started
    print(
        f"completeness: {separated} separated pairs (from {tried} perturbations), "
        f"all formulas verified, {elapsed:.1f}s total"
    )
    return 0 if disagreements == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
