"""Random, renamed and perturbed models and a formula suite; no command loads it."""

from __future__ import annotations

import random

from . import formulas as F
from .model import (
    AtomDecl,
    ComponentDecl,
    Configuration,
    Intervention,
    RuleRow,
    RuleTable,
    SystemModel,
    constant_table,
)
from .records import replace


def random_system_model(
    rng: random.Random,
    max_components: int = 3,
    max_behaviours: int = 3,
    max_rows: int = 4,
    n_atoms: int = 3,
    n_interventions: int = 1,
    acyclic_contexts: bool = False,
) -> SystemModel:
    n = rng.randint(1, max_components)
    comps: list[ComponentDecl] = []
    names = [f"c{i}" for i in range(n)]
    domains = {
        name: tuple(f"{name}b{j}" for j in range(rng.randint(1, max_behaviours))) for name in names
    }
    for i, name in enumerate(names):
        pool = names[:i] if acyclic_contexts else [m for m in names if m != name]
        k = rng.randint(0, len(pool))
        context = tuple(sorted(rng.sample(pool, k)))
        rows = []
        for _ in range(rng.randint(0, max_rows)):
            own = rng.choice((None,) + domains[name])
            ctx = tuple(rng.choice((None,) + domains[d]) for d in context)
            rows.append(RuleRow(own=own, context=ctx, output=rng.choice(domains[name])))
        comps.append(
            ComponentDecl(name=name, domain=domains[name], context=context, rule=RuleTable(tuple(rows)))
        )
    atoms = []
    for j in range(rng.randint(1, n_atoms)):
        comp = rng.choice(names)
        atoms.append(
            AtomDecl(name=f"p{j}", component=comp, behaviour=rng.choice(domains[comp]))
        )
    interventions = []
    for j in range(rng.randint(0, n_interventions)):
        target = rng.choice(comps)
        interventions.append(
            Intervention(
                name=f"theta{j}",
                targets=(target.name,),
                rules=((target.name, constant_table(len(target.context), rng.choice(target.domain))),),
                cost=float(rng.randint(1, 9)),
                penalty=float(rng.randint(0, 5)),
            )
        )
    return SystemModel(
        components=tuple(comps), atoms=tuple(atoms), interventions=tuple(interventions)
    )


def random_configuration(rng: random.Random, model: SystemModel) -> Configuration:
    return Configuration(tuple((c.name, rng.choice(c.domain)) for c in model.components))


def rename_component_behaviours(model: SystemModel, component: str, suffix: str = "_r") -> tuple:
    """Model with one component's behaviours bijectively renamed, plus the mapping.

    Rule rows, atoms, extension atoms' configurations and intervention
    tables referencing the renamed behaviours are rewritten; atom names stay
    fixed, so the renamed model shares the original's vocabulary.
    """
    target = model.component(component)
    mapping = {b: b + suffix for b in target.domain}

    def at(name: str, value):
        """``value``, a behaviour of component ``name`` or a wildcard, renamed."""
        return mapping.get(value, value) if name == component else value

    def rename_config(f: Configuration) -> Configuration:
        return Configuration(tuple((c, at(c, b)) for c, b in f.pairs))

    def rewrite(decl: ComponentDecl, table: RuleTable) -> RuleTable:
        """A rule table of ``decl``, its own or an intervention's, over the renamed behaviours."""
        rows = (
            RuleRow(at(decl.name, r.own), tuple(map(at, decl.context, r.context)), at(decl.name, r.output))
            for r in table.rows
        )
        return RuleTable(tuple(rows))

    comps = tuple(
        replace(c, domain=tuple(at(c.name, b) for b in c.domain), rule=rewrite(c, c.rule)) for c in model.components
    )
    atoms = tuple(
        replace(a, behaviour=at(a.component, a.behaviour)) if a.is_predicate
        else replace(a, extension=a.extension and tuple(map(rename_config, a.extension)))
        for a in model.atoms
    )
    ivs = tuple(
        replace(iv, rules=tuple((t, rewrite(model.component(t), table)) for t, table in iv.rules))
        for iv in model.interventions
    )
    renamed = SystemModel(components=comps, atoms=atoms, interventions=ivs, mode=model.mode)
    return renamed, rename_config


def perturb_model(rng: random.Random, model: SystemModel) -> SystemModel:
    """A structurally changed copy: one rule row output redirected, or a row
    dropped or appended.  The vocabulary is untouched."""
    candidates = [c for c in model.components if len(c.domain) > 1]
    if not candidates:
        return model
    target = rng.choice(candidates)
    rows = list(target.rule.rows)
    action = rng.choice(("redirect", "drop", "append")) if rows else "append"
    if action == "redirect":
        i = rng.randrange(len(rows))
        row = rows[i]
        alternatives = [b for b in target.domain if b != row.output]
        rows[i] = replace(row, output=rng.choice(alternatives))
    elif action == "drop":
        rows.pop(rng.randrange(len(rows)))
    else:
        own = rng.choice((None,) + target.domain)
        ctx = tuple(rng.choice((None,) + model.behaviours(d)) for d in target.context)
        rows.append(RuleRow(own=own, context=ctx, output=rng.choice(target.domain)))
    comps = tuple(
        replace(c, rule=RuleTable(tuple(rows))) if c.name == target.name else c
        for c in model.components
    )
    return replace(model, components=comps)


def generate_formula_suite(
    atom_names, intervention_names, depth: int = 3, include_star: bool = True
) -> list[F.Formula]:
    """Canonical finite suite of formulas up to the given modal depth.

    Literals over the shared atoms, all modal prefixes applied levelwise,
    capped pairwise conjunctions and disjunctions at each level, and
    separating conjunctions of literal pairs when requested.
    """
    atoms = sorted(atom_names)
    ivs = sorted(intervention_names)
    level: list[F.Formula] = []
    for a in atoms:
        level.append(F.Atom(a))
        level.append(F.Not(F.Atom(a)))
    suite: list[F.Formula] = list(level)
    if include_star:
        for a in atoms:
            for b in atoms:
                suite.append(F.Star(F.Atom(a), F.Atom(b)))
    for _ in range(depth):
        nxt: list[F.Formula] = []
        for phi in level:
            nxt.append(F.Diamond(phi))
            nxt.append(F.Box(phi))
            for name in ivs:
                nxt.append(F.Intervene(name, phi))
        # closure modalities and booleans are sampled rather than closed over,
        # to keep the suite finite and quick
        for phi in level[:4]:
            nxt.append(F.DiamondPlus(phi))
            nxt.append(F.BoxPlus(phi))
            if ivs:
                nxt.append(F.InterveneExists(phi))
        for i in range(0, len(level) - 1, 2):
            nxt.append(F.And(level[i], level[i + 1]))
            nxt.append(F.Or(level[i], level[i + 1]))
        suite.extend(nxt)
        level = nxt
    return suite
