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
subformula that holds no intervention or separation operator is kept once
computed, so another path reaching the same state reuses it: per
(compiled variant, state) for the one-step modalities, and per strongly
connected component of the variant's reachable graph for the closures.
The witnessing operators are evaluated afresh every time, which keeps
witness lists exactly as a plain top-down walk builds them.

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
    return _eval(k, k.encode(f), phi, options, witnesses, _Labels(phi))


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


class _Labels:
    """The labels kept during one call.  ``tables`` has an entry, keyed by
    id, for each searching subformula with no witnessing operator inside it:
    for ``[]`` and ``<>``, its truth value by (kernel, state); for ``[]+``
    and ``<>+``, its ``_Closure`` by kernel.  ``walks`` holds each kernel's
    ``_Walk``, shared by every closure subformula."""

    def __init__(self, phi: F.Formula):
        self.tables: dict = {}
        self.walks: dict = {}

        def visit(node, free):
            free = all(free) and not isinstance(node, _WITNESSING)
            if free and node.__class__ in _SEARCHES:
                self.tables[id(node)] = {}
            return free

        F.fold(phi, visit)


class _Walk:
    """The strongly connected components of the states of one kernel walked
    so far in a call, and the components each one steps to, listed on first
    use."""

    def __init__(self, k: kernel.Kernel, options: Options):
        self.k, self.options = k, options
        self.comp: dict = {}  # state -> component
        self.members: list = []  # component -> its states
        self._after: dict = {}

    def successors(self, g: int):
        return self.k.successors(g, self.options.self_loops)

    def cover(self, s: int) -> int:
        """The component of ``s``, walked from ``s`` if no earlier walk reached
        it.  The walks of one call are one search, capped by every state they
        have entered."""
        c = self.comp.get(s)
        if c is None:
            kernel.components((s,), self.successors, self.comp, self.members, self.options.max_states)
            c = self.comp[s]
        return c

    def cyclic(self, c: int) -> bool:
        """Whether component ``c`` has two or more states, or a self-loop."""
        members = self.members[c]
        return len(members) > 1 or members[0] in self.successors(members[0])

    def after(self, c: int) -> tuple[int, ...]:
        """The other components that the states of ``c`` step to."""
        out = self._after.get(c)
        if out is None:
            comp, found = self.comp, {}
            for g in self.members[c]:
                for h in self.successors(g):
                    found[comp[h]] = None
            found.pop(c, None)
            out = self._after[c] = tuple(found)
        return out


class _Closure:
    """The labels of one ``<>+`` or ``[]+`` subformula on one kernel, by
    component of its walk (Clarke, Emerson & Sistla, 1986).  A target state
    is one where the body holds under ``<>+`` and fails under ``[]+``.  A
    target is strictly reachable from a state exactly when one lies in the
    state's own component and that component is cyclic, or in a successor
    component or a component reachable from one.  Whether a component holds
    a target, and whether one is reachable from it, are computed on first
    use and kept per component, so a query that finds a target early stops
    early."""

    def __init__(self, walk: _Walk, phi: F.Formula, labels: _Labels):
        self.walk, self.body, self.labels = walk, phi.sub, labels
        self.box = phi.__class__ is F.BoxPlus
        self.held: dict = {}  # component -> whether it holds a target state
        self.reached: dict = {}  # component -> whether a target is reachable from it, itself included

    def at(self, s: int) -> bool:
        walk = self.walk
        c = walk.cover(s)
        return any(map(self.reaches, (c,) if walk.cyclic(c) else walk.after(c))) != self.box

    def holds(self, c: int) -> bool:
        out = self.held.get(c)
        if out is None:
            walk, body, box, labels = self.walk, self.body, self.box, self.labels
            k, options = walk.k, walk.options
            out = self.held[c] = any(_eval(k, g, body, options, None, labels) != box for g in walk.members[c])
        return out

    def reaches(self, c: int) -> bool:
        """Depth-first over the component graph, with an explicit stack; the
        first target found marks every component on the stack."""
        known = self.reached
        out = known.get(c)
        if out is not None:
            return out
        if self.holds(c):
            known[c] = True
            return True
        after = self.walk.after
        stack = [(c, iter(after(c)))]
        while stack:
            top, todo = stack[-1]
            for d in todo:
                out = known.get(d)
                if out is None:
                    if not self.holds(d):
                        stack.append((d, iter(after(d))))
                        break
                    out = known[d] = True
                if out:
                    for d, _ in stack:
                        known[d] = True
                    return True
            else:
                known[top] = False
                stack.pop()
        return False


def _eval(k, s, phi, options, witnesses, labels) -> bool:
    search = _SEARCHES.get(phi.__class__)
    if search is not None:
        closure, quantifier = search
        table = labels.tables.get(id(phi))
        if table is None:  # a witnessing operator inside: searched afresh
            states = k.reachable(s, options) if closure else k.successors(s, options.self_loops)
            return quantifier(_eval(k, g, phi.sub, options, witnesses, labels) for g in states)
        if closure:
            found = table.get(k)
            if found is None:
                walk = labels.walks.get(k)
                if walk is None:
                    walk = labels.walks[k] = _Walk(k, options)
                found = table[k] = _Closure(walk, phi, labels)
            return found.at(s)
        found = table.get((k, s))
        if found is None:
            states = k.successors(s, options.self_loops)
            found = table[k, s] = quantifier(_eval(k, g, phi.sub, options, witnesses, labels) for g in states)
        return found
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
    labels = _Labels(phi)
    return [k.decode(s) for s in k.configurations(options) if _eval(k, s, phi, options, None, labels)]
