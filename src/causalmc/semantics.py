"""Satisfaction relation over pointed (possibly partial) system models.

The classical clauses are standard.  The modal clauses quantify over the
one-step transition relation (box, diamond) or its transitive closure
(the plus variants, strict: the current configuration counts only when it
lies on a cycle).  The named intervention modality applies the declared
intervention and then takes exactly one step in the intervened model.  The
existential intervention modality ranges over the model's declared
intervention set only.  The separating conjunction searches proper
interface splits in canonical order and reports the first witnessing
split.

Within one top-level call, the truth value of each box or diamond
subformula that holds no intervention or separation operator is kept per
(compiled variant, state) once computed, so another path reaching the same
state reuses it.  The witnessing operators are evaluated afresh every
time, which keeps witness lists exactly as a plain top-down walk builds
them.

On a partial model, a behaviour atom whose component is outside the
partial domain evaluates to false rather than raising; this keeps
separation queries total.
"""

from __future__ import annotations

from . import formulas as F
from . import kernel
from .model import (
    DEFAULT_OPTIONS,
    Configuration,
    InterfaceSplit,
    Options,
    PartialConfiguration,
    SystemModel,
    UnknownNameError,
    conjugate_decompose,
    local,
)


def evaluate(
    model: SystemModel,
    f,
    phi: F.Formula,
    options: Options = DEFAULT_OPTIONS,
    witnesses: list | None = None,
) -> bool:
    """Whether the pointed model (model, f) satisfies ``phi``.

    ``witnesses``, when given, collects evidence entries for every
    satisfied intervention or separation subformula: the chosen successor
    for a named intervention, the chosen name for the existential form,
    and the witnessing split for a separating conjunction.
    """
    if isinstance(f, PartialConfiguration):
        f = model.configuration(f.as_dict())
    k = kernel.compile(model)
    return _eval(k, k.encode(f), phi, options, witnesses, _labels(phi))


def atom_test(k: kernel.Kernel, key):
    """Predicate on the states of ``k`` for an atom name or a (component, behaviour) pair."""
    found = k.tests.get(key)
    if found is None:
        found = k.tests[key] = _atom_predicate(k, key)
    return found


def _atom_predicate(k: kernel.Kernel, key):
    if isinstance(key, tuple):
        component, behaviour = key
    else:
        decl = k.model.atom_map.get(key)
        if decl is None:
            raise UnknownNameError(f"unresolved atom {key!r}")
        if not decl.is_predicate:
            # a configuration of another shape or domain never equals a state of k
            return {k.encode(g) for g in decl.extension or () if _fits(k, g)}.__contains__
        component, behaviour = decl.component, decl.behaviour
    i = k.index.get(component)
    code = None if i is None else k.codes[i].get(behaviour)
    if code is None:
        return lambda s: False
    w, r = k.places[i]
    return lambda s: s // w % r == code


def _fits(k: kernel.Kernel, g: Configuration) -> bool:
    return g.components == k.names and all(b in codes for codes, (_, b) in zip(k.codes, g.pairs))


# the searching modalities: (whether the search is the transitive closure, quantifier)
_SEARCHES = {F.Box: (False, all), F.Diamond: (False, any), F.BoxPlus: (True, all), F.DiamondPlus: (True, any)}
_WITNESSING = (F.Intervene, F.InterveneExists, F.Star)


def _labels(phi: F.Formula) -> dict:
    """An empty label table, keyed by id, for each searching subformula of
    ``phi`` with no witnessing operator inside it.  A table maps
    (kernel, state) to the subformula's truth value there."""
    tables: dict = {}

    def visit(node, free):
        free = all(free) and not isinstance(node, _WITNESSING)
        if free and node.__class__ in _SEARCHES:
            tables[id(node)] = {}
        return free

    F.fold(phi, visit)
    return tables


def _eval(k, s, phi, options, witnesses, labels) -> bool:
    search = _SEARCHES.get(phi.__class__)
    if search is not None:
        table = labels.get(id(phi))
        if table is not None:
            found = table.get((k, s))
            if found is not None:
                return found
        closure, quantifier = search
        states = k.reachable(s, options) if closure else k.successors(s, options.self_loops)
        out = quantifier(_eval(k, g, phi.sub, options, witnesses, labels) for g in states)
        if table is not None:
            table[k, s] = out
        return out
    if isinstance(phi, F.Top):
        return True
    if isinstance(phi, F.Bot):
        return False
    if isinstance(phi, F.Atom):
        return atom_test(k, phi.name)(s)
    if isinstance(phi, F.BehaviourAtom):
        if phi.component not in k.index:
            if k.model.partial:
                return False
            raise UnknownNameError(f"unresolved atom p[{phi.component}={phi.behaviour}]")
        return atom_test(k, (phi.component, phi.behaviour))(s)
    if isinstance(phi, F.Not):
        return not _eval(k, s, phi.sub, options, witnesses, labels)
    if isinstance(phi, F.And):
        return _eval(k, s, phi.left, options, witnesses, labels) and _eval(
            k, s, phi.right, options, witnesses, labels
        )
    if isinstance(phi, F.Or):
        return _eval(k, s, phi.left, options, witnesses, labels) or _eval(
            k, s, phi.right, options, witnesses, labels
        )
    if isinstance(phi, F.Implies):
        return (not _eval(k, s, phi.left, options, witnesses, labels)) or _eval(
            k, s, phi.right, options, witnesses, labels
        )
    if isinstance(phi, F.Intervene):
        iv = k.model.intervention_map.get(phi.name)
        if iv is None:
            raise UnknownNameError(f"unresolved intervention name {phi.name!r}")
        intervened = k.intervened(iv)
        for g in intervened.successors(s, options.self_loops):
            if _eval(intervened, g, phi.sub, options, witnesses, labels):
                if witnesses is not None:
                    successor = intervened.decode(g).as_dict()
                    witnesses.append({"op": "intervention", "name": phi.name, "successor": successor})
                return True
        return False
    if isinstance(phi, F.InterveneExists):
        for iv in k.model.interventions:
            if _eval(k, s, F.Intervene(iv.name, phi.sub), options, witnesses, labels):
                if witnesses is not None:
                    witnesses.append({"op": "exists-intervention", "name": iv.name})
                return True
        return False
    if isinstance(phi, F.Star):
        for split, (left, lf), (right, rf) in _decompositions(k, s, options):
            if _eval(left, lf, phi.left, options, witnesses, labels) and _eval(
                right, rf, phi.right, options, witnesses, labels
            ):
                if witnesses is not None:
                    witnesses.append(
                        {"op": "star", "left": list(split.left), "right": list(split.right)}
                    )
                return True
        return False
    raise TypeError(f"not a formula: {phi!r}")


def _decompositions(k: kernel.Kernel, s: int, options: Options):
    """Each candidate split of k's model with its two compiled sides and the
    projections of ``s`` onto them.  Splits and sides are built on first
    use and kept on ``k``, keyed by the trivial-split flag."""
    entries = k.splits.get(options.allow_trivial_split)
    if entries is None:
        splits = candidate_splits(k.model, options)
        entries = k.splits[options.allow_trivial_split] = [[split, None] for split in splits]
    digits = k.digits(s)
    for entry in entries:
        split, sides = entry
        if sides is None:
            sides = entry[1] = [
                (kernel.compile(m), [k.index[c] for c in m.component_order])
                for m in conjugate_decompose(k.model, split)
            ]
        yield (split,) + tuple(
            (side, sum(digits[j] * w for j, w in zip(idx, side.weights))) for side, idx in sides
        )


def candidate_splits(model: SystemModel, options: Options = DEFAULT_OPTIONS):
    """Valid interface splits in canonical order.

    Each component is placed left, right, or on both sides; placements are
    tried in declaration order, left before right before both, so splits
    come out in the order of the 3^n product.  A partial placement is
    abandoned as soon as a component and its whole context are placed and
    the component breaks the locality rule ``model.local``.
    Non-proper covers are admitted only under the trivial-split flag.
    """
    names = model.component_order
    bit = {n: 1 << i for i, n in enumerate(names)}
    if any(d not in bit for c in model.components for d in c.context):
        return []  # an unknown context component lies on neither side of any cover
    # decided[i]: (component bit, context bits) of each component whose
    # locality is settled once position i is placed
    decided: list[list] = [[] for _ in names]
    for i, c in enumerate(model.components):
        context = sum(bit[d] for d in set(c.context))
        decided[max(context.bit_length() - 1, i)].append((1 << i, context))
    out: list[InterfaceSplit] = []

    def extend(i, left, right):
        if i == len(names):
            if left and right and (options.allow_trivial_split or left & ~right and right & ~left):
                sides = [tuple(n for n in names if bit[n] & side) for side in (left, right)]
                out.append(InterfaceSplit(*sides))
            return
        c = 1 << i
        for to_left, to_right in ((left | c, right), (left, right | c), (left | c, right | c)):
            if all(local(j & to_left, j & to_right, context, to_left, to_right) for j, context in decided[i]):
                extend(i + 1, to_left, to_right)

    extend(0, 0, 0)
    return out


def sat_set(
    model: SystemModel, phi: F.Formula, options: Options = DEFAULT_OPTIONS
) -> list[Configuration]:
    """All configurations satisfying ``phi``, enumerated from the domain product."""
    k = kernel.compile(model)
    labels = _labels(phi)
    return [k.decode(s) for s in k.configurations(options) if _eval(k, s, phi, options, None, labels)]
