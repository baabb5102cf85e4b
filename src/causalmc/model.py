"""Finite component-based system models.

A system is a set of named components, each with a finite behaviour domain
and an influence rule table describing how its behaviour evolves from its
own current behaviour and the behaviours of the components in its influence
context.  A configuration assigns one behaviour to every component; the
transition relation over configurations is induced by the rule tables,
either asynchronously (one component updates per step) or synchronously
(all components update together).

All values in this module are immutable and hashable; every operation is a
pure function of its inputs.  A model instance keeps its compiled state
space (``kernel``) as a cache that is only ever filled with the same values,
so independent queries can run concurrently without coordination.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from math import prod

WILDCARD = "_"

MODES = ("async", "sync")


class ModelError(Exception):
    """Malformed model, configuration, or intervention."""


class UnknownNameError(ModelError):
    """A referenced component, behaviour, atom, or intervention is not declared."""


class CapExceeded(ModelError):
    """A state-space enumeration went past the configured cap."""

    def __init__(self, cap: int, size: int, what: str = "state space"):
        self.cap = cap
        self.size = size
        self.what = what
        super().__init__(f"{what} size {size} exceeds configured cap {cap}")


def exceeded(cap: int, what: str, size: int | None = None):
    """Raise the overrun of ``what``: of a search, at the size it reaches
    first past ``cap`` (see ``Options.max_states``), or of ``size``."""
    raise CapExceeded(cap, max(cap, 0) + 1 if size is None else size, what)


@dataclass(frozen=True)
class Options:
    """Evaluation switches shared across the engine.

    self_loops: include transitions f -> f arising from rule fixpoints.
    allow_trivial_split: let separation queries use non-proper covers,
        including the degenerate (C, C) split.
    max_states: cap on the states one search holds.  A search raises
        ``CapExceeded`` as soon as it holds max_states + 1 distinct states,
        its root included, so the reported size is max_states + 1 (1 when
        negative) whatever the walk order.  The configuration space, whose
        size is known before any walk, is capped by and reports that size.
    mode: the transition mode forced on every model a query reads from a
        file, or None to keep each file's declared mode.  It is applied
        where a file is read (``forced``); the engine itself ignores it.
    """

    self_loops: bool = False
    allow_trivial_split: bool = False
    max_states: int = 100_000
    mode: str | None = None

    def forced(self, model: "SystemModel") -> "SystemModel":
        """``model`` in the forced transition mode, if one is set."""
        return model if self.mode is None else model.with_mode(self.mode)


DEFAULT_OPTIONS = Options()


# ---------------------------------------------------------------------------
# rule tables


@dataclass(frozen=True)
class RuleRow:
    """One ordered row of an influence rule table.

    ``own`` and each entry of ``context`` are either a literal behaviour or
    None (wildcard).  ``output`` is the next behaviour when the row matches.
    """

    own: str | None
    context: tuple[str | None, ...]
    output: str

    def matches(self, own: str, context_values: tuple[str, ...]) -> bool:
        if self.own is not None and self.own != own:
            return False
        return all(p is None or p == v for p, v in zip(self.context, context_values))


@dataclass(frozen=True)
class RuleTable:
    """Ordered rule rows, first match wins, implicit identity default.

    Totality is guaranteed by the identity default: when no row matches,
    the component keeps its current behaviour.
    """

    rows: tuple[RuleRow, ...] = ()

    def apply(self, own: str, context_values: tuple[str, ...]) -> str:
        index = self._by_own
        for row in index.get(own, index[None]):
            if row.matches(own, context_values):
                return row.output
        return own

    @cached_property
    def _by_own(self) -> dict:
        """The rows that can match each own behaviour, in row order: those for
        it and the wildcard rows, which key None lists alone."""
        index: dict = {None: []}
        for row in self.rows:
            if row.own is None:
                for rows in index.values():
                    rows.append(row)
            else:
                index.setdefault(row.own, list(index[None])).append(row)
        return index


def constant_table(arity: int, output: str) -> RuleTable:
    """Table mapping every input to ``output`` (used by clamping interventions)."""
    return RuleTable((RuleRow(None, (None,) * arity, output),))


# ---------------------------------------------------------------------------
# components, configurations


@dataclass(frozen=True)
class ComponentDecl:
    """A component: behaviour domain, influence context, rule table.

    ``free`` marks an environment component of a partial model whose
    original context escapes the partial domain; it transitions
    nondeterministically within its domain instead of by rule.
    """

    name: str
    domain: tuple[str, ...]
    context: tuple[str, ...] = ()
    rule: RuleTable = RuleTable()
    free: bool = False


@dataclass(frozen=True)
class _Assignment:
    pairs: tuple[tuple[str, str], ...]

    _missing = "configuration has no component {!r}"

    @cached_property
    def _map(self) -> dict[str, str]:
        return dict(self.pairs)

    def __getitem__(self, component: str) -> str:
        try:
            return self._map[component]
        except KeyError:
            raise UnknownNameError(self._missing.format(component)) from None

    def get(self, component: str, default: str | None = None) -> str | None:
        return self._map.get(component, default)

    @property
    def components(self) -> tuple[str, ...]:
        return tuple(c for c, _ in self.pairs)

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    def __str__(self) -> str:
        inner = ", ".join(f"{c}={b}" for c, b in self.pairs)
        return f"({inner})"


@dataclass(frozen=True)
class Configuration(_Assignment):
    """Total assignment of behaviours to components, in declaration order."""


@dataclass(frozen=True)
class PartialConfiguration(_Assignment):
    """Assignment of behaviours to a subset of the components."""

    _missing = "partial configuration undefined on {!r}"
    domain = _Assignment.components


def restrict(f: Configuration, subset) -> PartialConfiguration:
    """Restriction of ``f`` to ``subset``, keeping declaration order."""
    wanted = set(subset)
    unknown = wanted - set(f.components)
    if unknown:
        raise UnknownNameError(f"restriction mentions unknown components {sorted(unknown)}")
    return PartialConfiguration(tuple(p for p in f.pairs if p[0] in wanted))


# ---------------------------------------------------------------------------
# atoms, interventions, splits


@dataclass(frozen=True)
class AtomDecl:
    """Named atomic proposition.

    Either a component=behaviour predicate, or an explicit extension
    (a set of configurations in which the atom holds).
    """

    name: str
    component: str | None = None
    behaviour: str | None = None
    extension: tuple[Configuration, ...] | None = None

    @property
    def is_predicate(self) -> bool:
        return self.component is not None


@dataclass(frozen=True)
class Intervention:
    """Atomic, irreversible replacement of the rule tables of its targets.

    Replacement tables keep the targets' original influence contexts.
    Cost and penalty are optional decision-making annotations; they carry
    no transition semantics.
    """

    name: str
    targets: tuple[str, ...]
    rules: tuple[tuple[str, RuleTable], ...]
    cost: float | None = None
    penalty: float | None = None

    def rule_for(self, target: str) -> RuleTable:
        for name, table in self.rules:
            if name == target:
                return table
        raise UnknownNameError(f"intervention {self.name!r} has no rule for {target!r}")

    @property
    def utility(self) -> float:
        if self.cost is None or self.penalty is None:
            raise ModelError(f"intervention {self.name!r} lacks cost or penalty annotation")
        return -self.cost - self.penalty


@dataclass(frozen=True)
class InterfaceSplit:
    """A validated cover (left, right) of the component set."""

    left: tuple[str, ...]
    right: tuple[str, ...]

    @property
    def interface(self) -> tuple[str, ...]:
        rr = set(self.right)
        return tuple(c for c in self.left if c in rr)

    @property
    def proper(self) -> bool:
        ls, rs = set(self.left), set(self.right)
        return bool(ls - rs) and bool(rs - ls)


@dataclass(frozen=True)
class Violation:
    """One well-formedness defect, naming the site at fault."""

    site: str
    message: str

    def __str__(self) -> str:
        return f"{self.site}: {self.message}"


# ---------------------------------------------------------------------------
# the system model


@dataclass(frozen=True)
class SystemModel:
    """Components, atoms, and declared interventions; the single source of truth.

    ``mode`` selects the transition relation: "async" rewrites exactly one
    component per step, "sync" rewrites all components simultaneously.
    ``partial`` marks models produced by decomposition; on partial models,
    behaviour atoms over missing components and named interventions the
    model does not keep evaluate to false instead of raising.
    """

    components: tuple[ComponentDecl, ...]
    atoms: tuple[AtomDecl, ...] = ()
    interventions: tuple[Intervention, ...] = ()
    mode: str = "async"
    partial: bool = False

    @cached_property
    def component_map(self) -> dict[str, ComponentDecl]:
        return {c.name: c for c in self.components}

    @cached_property
    def component_order(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.components)

    @cached_property
    def atom_map(self) -> dict[str, AtomDecl]:
        return {a.name: a for a in self.atoms}

    @cached_property
    def intervention_map(self) -> dict[str, Intervention]:
        return {i.name: i for i in self.interventions}

    def component(self, name: str) -> ComponentDecl:
        try:
            return self.component_map[name]
        except KeyError:
            raise UnknownNameError(f"unknown component {name!r}") from None

    def behaviours(self, name: str) -> tuple[str, ...]:
        return self.component(name).domain

    def configuration(self, assignment) -> Configuration:
        """Build a total configuration from a mapping, validating it."""
        mapping = dict(assignment)
        missing = [c.name for c in self.components if c.name not in mapping]
        if missing:
            raise ModelError(f"configuration misses components {missing}")
        extra = set(mapping) - set(self.component_order)
        if extra:
            raise UnknownNameError(f"configuration assigns unknown components {sorted(extra)}")
        f = Configuration(tuple((c.name, mapping[c.name]) for c in self.components))
        self.validate_configuration(f)
        return f

    def validate_configuration(self, f: Configuration) -> None:
        if f.components != self.component_order:
            raise ModelError(
                f"configuration components {f.components} do not match model components {self.component_order}"
            )
        for comp, beh in f.pairs:
            if beh not in self.component_map[comp].domain:
                raise ModelError(f"behaviour {beh!r} not in domain of {comp!r}")

    def configuration_count(self) -> int:
        return prod(len(c.domain) for c in self.components)

    def enumerate_configurations(self, options: Options = DEFAULT_OPTIONS) -> list[Configuration]:
        """All configurations, domains varying fastest on the right."""
        k = kernel.compile(self)
        return [k.decode(s) for s in k.configurations(options)]

    def with_mode(self, mode: str) -> "SystemModel":
        if mode not in MODES:
            raise ModelError(f"unknown transition mode {mode!r}")
        return replace(self, mode=mode)

    # canonical serialization: field-by-field, declaration order preserved
    def canonical_form(self) -> dict:
        def row_form(row: RuleRow) -> dict:
            return {
                "own": row.own if row.own is not None else WILDCARD,
                "context": [p if p is not None else WILDCARD for p in row.context],
                "output": row.output,
            }

        def atom_form(a: AtomDecl) -> dict:
            if a.is_predicate:
                return {"name": a.name, "component": a.component, "behaviour": a.behaviour}
            return {"name": a.name, "extension": [dict(f.pairs) for f in a.extension or ()]}

        return {
            "mode": self.mode,
            "partial": self.partial,
            "components": [
                {
                    "name": c.name,
                    "domain": list(c.domain),
                    "context": list(c.context),
                    "free": c.free,
                    "rules": [row_form(r) for r in c.rule.rows],
                }
                for c in self.components
            ],
            "atoms": [atom_form(a) for a in self.atoms],
            "interventions": [
                {
                    "name": i.name,
                    "targets": list(i.targets),
                    "cost": i.cost,
                    "penalty": i.penalty,
                    "rules": {t: [row_form(r) for r in tab.rows] for t, tab in i.rules},
                }
                for i in self.interventions
            ],
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_form(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# validation


def repeated(names) -> list[str]:
    """The names that occur more than once in ``names``, each once, in order."""
    names = tuple(names)
    if len(set(names)) == len(names):  # the usual case, answered without counting
        return []
    return [n for n, count in Counter(names).items() if count > 1]


def validate_model(model: SystemModel) -> list[Violation]:
    """Well-formedness report; empty iff the model satisfies every invariant."""
    out: list[Violation] = []
    seen: set[str] = set()
    if model.mode not in MODES:
        out.append(Violation("model", f"unknown transition mode {model.mode!r}"))
    for c in model.components:
        site = f"component {c.name}"
        if c.name in seen:
            out.append(Violation(site, "duplicate component name"))
            continue
        seen.add(c.name)
        if not c.domain:
            out.append(Violation(site, "empty behaviour domain"))
        if len(set(c.domain)) != len(c.domain):
            out.append(Violation(site, "duplicate behaviour in domain"))
        if any(not b for b in c.domain):
            out.append(Violation(site, "empty behaviour name"))
        if c.name in c.context:
            out.append(Violation(site, "influence context contains the component itself"))
        for d in c.context:
            if d not in model.component_map:
                out.append(Violation(site, f"influence context names unknown component {d!r}"))
        out += [Violation(site, f"influence context names {d!r} twice") for d in repeated(c.context)]
    # rule rows are validated once component names are settled
    for c in model.components:
        arity = "row has {} context patterns, context has {}"
        out.extend(_row_violations(model, c, c.rule.rows, f"component {c.name}, rule row ", arity, ""))
    for a in model.atoms:
        site = f"atom {a.name}"
        if a.is_predicate:
            decl = model.component_map.get(a.component)
            if decl is None:
                out.append(Violation(site, f"unknown component {a.component!r}"))
            elif a.behaviour not in decl.domain:
                out.append(Violation(site, f"behaviour {a.behaviour!r} not in domain of {a.component!r}"))
        else:
            for f in a.extension or ():
                try:
                    model.validate_configuration(f)
                except ModelError as exc:
                    out.append(Violation(site, f"invalid configuration in extension: {exc}"))
    seen_interventions: set[str] = set()
    for iv in model.interventions:
        if iv.name in seen_interventions:
            out.append(Violation(f"intervention {iv.name}", "duplicate intervention name"))
            continue
        seen_interventions.add(iv.name)
        out.extend(_intervention_violations(model, iv))
    return out


def _intervention_violations(model: SystemModel, iv: Intervention) -> list[Violation]:
    out: list[Violation] = []
    site = f"intervention {iv.name}"
    if not iv.targets:
        out.append(Violation(site, "empty target set"))
    out += [Violation(site, f"target {t!r} named twice") for t in repeated(iv.targets)]
    if iv.cost is not None and iv.cost < 0:
        out.append(Violation(site, "negative cost"))
    if iv.penalty is not None and iv.penalty < 0:
        out.append(Violation(site, "negative penalty"))
    table_names = {t for t, _ in iv.rules}
    for t in iv.targets:
        decl = model.component_map.get(t)
        if decl is None:
            out.append(Violation(site, f"unknown target component {t!r}"))
            continue
        if t not in table_names:
            out.append(Violation(site, f"no replacement rule for target {t!r}"))
            continue
        arity = "replacement rule reads outside the original influence context"
        rows = iv.rule_for(t).rows
        out.extend(_row_violations(model, decl, rows, f"{site}, rule for {t}, row ", arity, f" of {t!r}"))
    for t, _ in iv.rules:
        if t not in iv.targets:
            out.append(Violation(site, f"replacement rule for non-target {t!r}"))
    return out


def _row_violations(model, decl, rows, site, arity, output_suffix) -> list[Violation]:
    """Defects of rule rows for ``decl``; ``site`` is completed by the row number.
    Rows are not checked while the context names an unknown component or
    one component twice, which is reported on the component itself."""
    out: list[Violation] = []
    if repeated(decl.context) or not all(d in model.component_map for d in decl.context):
        return out
    domain = set(decl.domain)
    ctx_domains = [set(model.component_map[d].domain) for d in decl.context]
    for idx, row in enumerate(rows, start=1):
        rsite = f"{site}{idx}"
        if len(row.context) != len(decl.context):
            out.append(Violation(rsite, arity.format(len(row.context), len(decl.context))))
            continue
        if row.own is not None and row.own not in domain:
            out.append(Violation(rsite, f"own-behaviour pattern {row.own!r} not in domain"))
        for pat, dom, dname in zip(row.context, ctx_domains, decl.context):
            if pat is not None and pat not in dom:
                out.append(Violation(rsite, f"context pattern {pat!r} not in domain of {dname!r}"))
        if row.output not in domain:
            out.append(Violation(rsite, f"output behaviour {row.output!r} not in domain{output_suffix}"))
    return out


# ---------------------------------------------------------------------------
# transition semantics


def successors(
    model: SystemModel, f: Configuration, options: Options = DEFAULT_OPTIONS
) -> list[Configuration]:
    """One-step successors of ``f``, in canonical (declaration) order.

    Asynchronous mode: every rewrite of exactly one component.  Synchronous
    mode: the simultaneous rewrite of all components.  Fixpoint self-loops
    are excluded unless ``options.self_loops`` is set.
    """
    k = kernel.compile(model)
    return [k.decode(g) for g in k.successors(k.encode(f), options.self_loops)]


def reachable(
    model: SystemModel, f: Configuration, options: Options = DEFAULT_OPTIONS
) -> list[Configuration]:
    """Configurations strictly reachable from ``f`` (f itself only if on a cycle).

    Breadth-first, deterministic order.  Raises ``CapExceeded`` when ``f``
    and the configurations reachable from it are more than
    ``options.max_states``.
    """
    k = kernel.compile(model)
    return [k.decode(g) for g in k.reachable(k.encode(f), options)]


# ---------------------------------------------------------------------------
# interventions


def apply_intervention(model: SystemModel, iv: Intervention) -> SystemModel:
    """The intervened model: target rule tables replaced, everything else intact."""
    problems = _intervention_violations(model, iv)
    if problems:
        raise ModelError("; ".join(str(p) for p in problems))
    new_components = tuple(
        replace(c, rule=iv.rule_for(c.name)) if c.name in iv.targets else c for c in model.components
    )
    return replace(model, components=new_components)


def clamping_intervention(model: SystemModel, targets, values, name: str | None = None) -> Intervention:
    """Intervention pinning each target to a constant behaviour, immediately and stably."""
    targets = tuple(targets)
    values = dict(values)
    rules = []
    for t in targets:
        decl = model.component(t)
        rules.append((t, constant_table(len(decl.context), values[t])))
    label = name or "clamp[" + ",".join(f"{t}={values[t]}" for t in targets) + "]"
    return Intervention(name=label, targets=targets, rules=tuple(rules))


# ---------------------------------------------------------------------------
# interfaces and decomposition


def local(at_left, at_right, context, left, right) -> bool:
    """The locality rule of an interface split, on sets and bitmasks alike: a
    component on one side draws its influence (``context``) from within that
    side, and an interface component from within one of the two sides."""
    if at_left and at_right:
        return context & left == context or context & right == context
    return context & (left if at_left else right) == context


def interface_violations(model: SystemModel, left, right) -> list[str]:
    """Locality defects of a candidate cover; empty iff the cover is an interface split."""
    ls, rs = set(left), set(right)
    allc = set(model.component_order)
    if ls | rs != allc:
        raise ModelError(f"cover {sorted(ls)} + {sorted(rs)} does not equal the component set")
    out: list[str] = []
    for c in model.components:
        inf = set(c.context)
        at_left, at_right = c.name in ls, c.name in rs
        if local(at_left, at_right, inf, ls, rs):
            continue
        if at_left and at_right:
            out.append(f"interface component {c.name}: context {sorted(inf)} not contained in either side")
        else:
            side = "left" if at_left else "right"
            out.append(f"component {c.name}: context {sorted(inf)} escapes the {side} side")
    return out


def check_interface(
    model: SystemModel, left, right, allow_trivial: bool = False
) -> InterfaceSplit | None:
    """The validated split when the cover satisfies the locality conditions, else None.

    Proper splits (both sides contribute a private component) are required
    unless ``allow_trivial`` is set.
    """
    left = tuple(dict.fromkeys(left))
    right = tuple(dict.fromkeys(right))
    if interface_violations(model, left, right):
        return None
    split = InterfaceSplit(left=left, right=right)
    if not split.proper and not allow_trivial:
        return None
    return split


def conjugate_decompose(model: SystemModel, split: InterfaceSplit) -> tuple[SystemModel, SystemModel]:
    """Partial models over the two sides of a validated split.

    Components whose context escapes a side become free environment
    components there, so every global step projects to a local step or an
    explicit stutter on each side.  A side equal to the full component set
    yields the model itself.
    """
    if interface_violations(model, split.left, split.right):
        raise ModelError("cover is not a valid interface split")
    return (_restrict_model(model, split.left), _restrict_model(model, split.right))


def _restrict_model(model: SystemModel, side) -> SystemModel:
    side_set = set(side)
    if side_set == set(model.component_order):
        return model
    comps = []
    for c in model.components:
        if c.name not in side_set:
            continue
        if set(c.context) <= side_set:
            comps.append(c)
        else:
            comps.append(ComponentDecl(name=c.name, domain=c.domain, free=True))
    kept = {c.name for c in comps}
    atoms = []
    for a in model.atoms:
        if a.is_predicate:
            if a.component in kept:
                atoms.append(a)
            else:
                atoms.append(AtomDecl(name=a.name, extension=()))
        else:
            seen: dict[Configuration, None] = {}
            for f in a.extension or ():
                g = Configuration(tuple(p for p in f.pairs if p[0] in kept))
                seen[g] = None
            atoms.append(AtomDecl(name=a.name, extension=tuple(seen)))
    ivs = []
    for iv in model.interventions:
        if not set(iv.targets) <= kept:
            continue
        # replacement tables keep original context arity, so every target's
        # context must survive the restriction too
        if all(set(model.component(t).context) <= side_set for t in iv.targets):
            ivs.append(iv)
    return SystemModel(
        components=tuple(comps),
        atoms=tuple(atoms),
        interventions=tuple(ivs),
        mode=model.mode,
        partial=True,
    )


from . import kernel  # noqa: E402  (the compiled state space builds on the types above)
