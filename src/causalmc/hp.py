"""Structural-equation causal models used as an independent causality oracle.

A system model exports to one endogenous variable per component, whose
domain is the component's behaviour domain and whose parents are the
components of its influence context.  Each variable additionally reads an
exogenous input carrying its previous behaviour; the context assignment is
the designated initial configuration.  Equation tables are fully
enumerated at export time, so checking never consults the source model.

Cause checking follows the counterfactual clause schema AC1 / AC2(a^m) /
AC3.  For dynamic queries the step dimension is compiled away by unrolling
a concrete transition path into per-step value recomputation: candidate
variables are clamped to alternate values from their first attainment
onward, witness variables are clamped to actual values (over all steps or
from attainment), and every other variable re-evaluates its equation on
the step at which it originally fired.  Static acyclic models are solved
directly in topological order.
"""

from __future__ import annotations

import json
from itertools import combinations, product

from .model import Configuration, ModelError, SystemModel, UnknownNameError
from .records import record


@record
class HPVariable:
    """One endogenous variable with an enumerated equation table.

    The table maps (exogenous own-input, parent values) to the variable's
    value; totality over the finite domains is checked at construction
    sites, not here.
    """

    name: str
    domain: tuple[str, ...]
    parents: tuple[str, ...]
    table: dict

    def value(self, own: str, parent_values: tuple[str, ...]) -> str:
        try:
            return self.table[(own, parent_values)]
        except KeyError:
            raise ModelError(
                f"equation for {self.name!r} undefined on own={own!r}, parents={parent_values!r}"
            ) from None


@record
class HPModel:
    variables: tuple[HPVariable, ...]
    context: tuple[tuple[str, str], ...]
    acyclic: bool

    def variable(self, name: str) -> HPVariable:
        for v in self.variables:
            if v.name == name:
                return v
        raise UnknownNameError(f"unknown variable {name!r}")

    def context_map(self) -> dict[str, str]:
        return dict(self.context)

    def to_dict(self) -> dict:
        return {
            "variables": [
                {
                    "name": v.name,
                    "domain": list(v.domain),
                    "parents": list(v.parents),
                    "equations": [
                        {"own": own, "parents": list(pv), "value": out}
                        for (own, pv), out in sorted(v.table.items())
                    ],
                }
                for v in self.variables
            ],
            "context": dict(self.context),
            "acyclic": self.acyclic,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@record
class HPCauseQuery:
    """Candidate assignment, effect formula, optional unrolling path.

    ``candidate`` and ``effect`` are conjunctions of variable=value
    equalities, given as mappings.  ``path`` is a transition path of the
    source system model realising the actual scenario; when present, the
    check runs on the path-unrolled model.
    """

    candidate: tuple[tuple[str, str], ...]
    effect: tuple[tuple[str, str], ...]
    path: tuple[Configuration, ...] | None = None

    @staticmethod
    def build(candidate, effect, path=None) -> "HPCauseQuery":
        return HPCauseQuery(
            candidate=tuple(sorted(dict(candidate).items())),
            effect=tuple(sorted(dict(effect).items())),
            path=tuple(path) if path else None,
        )


@record
class HPVerdict:
    ac1: bool
    ac2: bool
    ac3: bool
    witness: tuple[str, ...] | None = None
    witness_mode: str | None = None
    alternate: tuple[tuple[str, str], ...] | None = None

    @property
    def is_cause(self) -> bool:
        return self.ac1 and self.ac2 and self.ac3


def export_hp(model: SystemModel, initial: Configuration) -> HPModel:
    """Structural-equation export of a system model at a designated initial
    configuration.  Cyclic parent graphs are exported as-is and flagged;
    static solving then refuses and path unrolling must be used."""
    model.validate_configuration(initial)
    variables = []
    for decl in model.components:
        if decl.free:
            raise ModelError("cannot export a partial model with free components")
        parent_domains = [model.behaviours(d) for d in decl.context]
        table = {}
        for own in decl.domain:
            for pv in product(*parent_domains):
                table[(own, pv)] = decl.rule.apply(own, pv)
        variables.append(
            HPVariable(name=decl.name, domain=decl.domain, parents=decl.context, table=table)
        )
    return HPModel(
        variables=tuple(variables),
        context=initial.pairs,
        acyclic=_topological_order(variables) is not None,
    )


def _topological_order(variables) -> list[str] | None:
    remaining = {v.name: set(v.parents) for v in variables}
    order: list[str] = []
    while remaining:
        ready = sorted(n for n, ps in remaining.items() if not ps)
        if not ready:
            return None
        for n in ready:
            order.append(n)
            del remaining[n]
        for ps in remaining.values():
            ps.difference_update(ready)
    return order


def solve(hp: HPModel, interventions=None) -> dict[str, str]:
    """Unique solution of an acyclic model under the context, with optional
    interventions replacing whole equations by constants."""
    if not hp.acyclic:
        raise ModelError("cyclic parent graph: solve requires an unrolling path")
    interventions = dict(interventions or {})
    order = _topological_order(hp.variables)
    context = hp.context_map()
    values: dict[str, str] = {}
    for name in order:
        if name in interventions:
            values[name] = interventions[name]
            continue
        v = hp.variable(name)
        values[name] = v.value(context[name], tuple(values[p] for p in v.parents))
    return values


# ---------------------------------------------------------------------------
# path unrolling


def _fired_schedule(path) -> list[str]:
    """Component fired at each step of an asynchronous path."""
    fired = []
    for a, b in zip(path, path[1:]):
        changed = [c for c in a.components if a[c] != b[c]]
        if len(changed) != 1:
            raise ModelError("path is not a one-component-per-step transition sequence")
        fired.append(changed[0])
    return fired


def _attainment(path, name: str) -> int:
    """First index from which the variable keeps its final path value."""
    final = path[-1][name]
    t = len(path) - 1
    while t > 0 and path[t - 1][name] == final:
        t -= 1
    return t


def _replay(hp: HPModel, path, fired, x_alt: dict, attain: dict, witness_from: dict):
    """Recompute the path with candidate and witness clamps applied.

    x_alt: candidate variable -> alternate value, clamped from its step in
    ``attain`` onward.  witness_from: witness variable -> first step
    clamped to its actual path value, which at step 0 is its start value.
    """
    values = {c: x_alt[c] if c in x_alt and attain[c] == 0 else b for c, b in path[0].pairs}
    for t in range(1, len(path)):
        prev = values
        values = dict(prev)
        for c in path[0].components:
            if c in x_alt and t >= attain[c]:
                values[c] = x_alt[c]
            elif c in witness_from and t >= witness_from[c]:
                values[c] = path[t][c]
            elif c == fired[t - 1]:
                v = hp.variable(c)
                values[c] = v.value(prev[c], tuple(prev[p] for p in v.parents))
    return values


def hp_check_actual_cause(hp: HPModel, query: HPCauseQuery) -> HPVerdict:
    """AC1 / AC2(a^m) / AC3 verdict with the accepting witness, if any.

    The witness search ranges over variable subsets disjoint from the
    candidate; on unrolled checks each witness variable is clamped to its
    actual values either over the whole path or from its attainment step
    (both granularities are tried).  Alternate candidate settings are
    searched exhaustively over the variable domains.
    """
    candidate = dict(query.candidate)
    effect = dict(query.effect)
    for name in list(candidate) + list(effect):
        hp.variable(name)
    if not candidate:
        raise ModelError("empty candidate assignment")

    if query.path is None:
        actual = solve(hp)

        def recompute(alt: dict, witness, mode: str) -> dict:
            return solve(hp, interventions={**alt, **{n: actual[n] for n in witness}})

        return _check(hp, actual, candidate, effect, ("static",), recompute)
    path = tuple(query.path)
    if len(path) < 2:
        raise ModelError("unrolling path needs at least two configurations")
    fired = _fired_schedule(path)
    attain = {n: _attainment(path, n) for n in path[0].components}

    def replay(alt: dict, witness, mode: str) -> dict:
        witness_from = {n: 0 if mode == "full" else attain[n] for n in witness}
        return _replay(hp, path, fired, alt, attain, witness_from)

    return _check(hp, dict(path[-1].pairs), candidate, effect, ("full", "attainment"), replay)


def _alternates(hp: HPModel, names):
    domains = [tuple(b for b in hp.variable(n).domain) for n in names]
    for combo in product(*domains):
        yield dict(zip(names, combo))


def _check(hp, actual: dict, candidate: dict, effect: dict, modes, recompute) -> HPVerdict:
    """The clauses against the ``actual`` values, static or at the end of the
    path: ``recompute(alt, witness, mode)`` gives the values with the
    candidate set to ``alt`` and the witness clamped in witness mode
    ``mode``.  Witness sets are tried by size, then in each mode, then
    against each alternate setting of the candidate."""
    if not all(actual[n] == v for n, v in (*candidate.items(), *effect.items())):
        return HPVerdict(ac1=False, ac2=False, ac3=False)

    def ac2_core(cand: dict):
        others = [v.name for v in hp.variables if v.name not in cand]
        for k in range(len(others) + 1):
            for w in combinations(others, k):
                for mode in modes:
                    for alt in _alternates(hp, sorted(cand)):
                        if alt == {n: actual[n] for n in cand}:
                            continue
                        values = recompute(alt, w, mode)
                        if any(values[n] != v for n, v in effect.items()):
                            return w, mode, tuple(sorted(alt.items()))
        return None

    hit = ac2_core(candidate)
    if hit is None:
        return HPVerdict(ac1=True, ac2=False, ac3=True)
    witness, mode, alternate = hit
    # a subset of the candidate holds its actual values too, so it passes AC1
    ac3 = not any(
        ac2_core({n: candidate[n] for n in sub})
        for k in range(1, len(candidate))
        for sub in combinations(sorted(candidate), k)
    )
    return HPVerdict(
        ac1=True, ac2=True, ac3=ac3, witness=witness, witness_mode=mode, alternate=alternate
    )
