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

Each top-level call first folds the formula into one function per node,
``run(kernel, state)``, over the functions of its subformulas.  Within the
call, the truth value of each box or diamond subformula that holds no
intervention or separation operator is kept once computed, inside its
function, so another path reaching the same state reuses it: per
(compiled variant, state) for the one-step modalities, and per strongly
connected component of the variant's reachable graph for the closures.
The witnessing operators are evaluated afresh every time, which keeps
witness lists exactly as a plain top-down walk builds them.

On a partial model, a behaviour atom whose component is outside the
partial domain, and a named intervention the model does not keep, evaluate
to false rather than raising; this keeps separation queries total.
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
    k = kernel.compile(model, options)
    s = k.encode(f)
    return _compile(phi, witnesses)(k, s)


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


class _Walk:
    """The strongly connected components of the states of one kernel walked
    so far in a call, and the components each one steps to, listed on first
    use."""

    def __init__(self, k: kernel.Kernel):
        self.k = k
        self.comp: dict = {}  # state -> component
        self.members: list = []  # component -> its states
        self._after: dict = {}

    def cover(self, s: int) -> int:
        """The component of ``s``, walked from ``s`` if no earlier walk reached
        it.  The walks of one call are one search, capped by every state they
        have entered."""
        c = self.comp.get(s)
        if c is None:
            k = self.k
            kernel.components((s,), k.successors, self.comp, self.members, k.options.max_states)
            c = self.comp[s]
        return c

    def cyclic(self, c: int) -> bool:
        """Whether component ``c`` has two or more states, or a self-loop."""
        members = self.members[c]
        return len(members) > 1 or members[0] in self.k.successors(members[0])

    def after(self, c: int) -> tuple[int, ...]:
        """The other components that the states of ``c`` step to."""
        out = self._after.get(c)
        if out is None:
            comp, found, successors = self.comp, {}, self.k.successors
            for g in self.members[c]:
                for h in successors(g):
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

    def __init__(self, walk: _Walk, body, box: bool):
        self.walk, self.body, self.box = walk, body, box
        self.held: dict = {}  # component -> whether it holds a target state
        self.reached: dict = {}  # component -> whether a target is reachable from it, itself included

    def at(self, s: int) -> bool:
        walk = self.walk
        c = walk.cover(s)
        return any(map(self.reaches, (c,) if walk.cyclic(c) else walk.after(c))) != self.box

    def holds(self, c: int) -> bool:
        out = self.held.get(c)
        if out is None:
            walk, body, box = self.walk, self.body, self.box
            k = walk.k
            out = self.held[c] = any(body(k, g) != box for g in walk.members[c])
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


class _Call:
    """What the closures of one call share: its witness list, and one
    ``_Walk`` per kernel, shared by every closure subformula."""

    def __init__(self, witnesses: list | None):
        self.witnesses = witnesses
        self.walks: dict = {}

    def walk(self, k: kernel.Kernel) -> _Walk:
        found = self.walks.get(k)
        if found is None:
            found = self.walks[k] = _Walk(k)
        return found


def _compile(phi: F.Formula, witnesses: list | None):
    """``phi`` as a function ``run(k, s)``: whether state ``s`` of kernel ``k``
    satisfies it.  One fold builds each node's function over its
    subformulas' functions, by the builder of the node's class, and decides
    whether the node is free of witnessing operators."""
    call = _Call(witnesses)

    def build(node, subs):
        builder = _BUILDERS.get(node.__class__)
        if builder is None:
            raise TypeError(f"not a formula: {node!r}")
        return builder(node, call, all(free for _, free in subs), *(run for run, _ in subs))

    return F.fold(phi, build)[0]


# Each builder takes the node, the call, whether the node's subformulas are
# free of witnessing operators, and their functions, and returns the node's
# function and whether the node itself is free of them.


def _constant(value: bool):
    def build(node, call, free):
        return (lambda k, s: value), free

    return build


def _atom(node, call, free):
    key = node.name
    return (lambda k, s: atom_test(k, key)(s)), free


def _behaviour_atom(node, call, free):
    component, key = node.component, (node.component, node.behaviour)

    def run(k, s):
        if component not in k.index:
            if k.model.partial:
                return False
            raise UnknownNameError(f"unresolved atom p[{node.component}={node.behaviour}]")
        return atom_test(k, key)(s)

    return run, free


def _not(node, call, free, sub):
    return (lambda k, s: not sub(k, s)), free


def _and(node, call, free, left, right):
    return (lambda k, s: left(k, s) and right(k, s)), free


def _or(node, call, free, left, right):
    return (lambda k, s: left(k, s) or right(k, s)), free


def _implies(node, call, free, left, right):
    return (lambda k, s: (not left(k, s)) or right(k, s)), free


def _search(closure: bool, quantifier):
    """The builder of a searching modality: over the one-step successors or,
    for ``closure``, over the states strictly reachable; ``quantifier`` is
    ``all`` for a box and ``any`` for a diamond.  A node free of witnessing
    operators keeps its labels inside its function: truth values by (kernel,
    state) for ``[]`` and ``<>``, a ``_Closure`` per kernel for ``[]+`` and
    ``<>+``.  Any other node searches afresh every time."""

    def build(node, call, free, sub):
        if not free:
            if closure:
                return (lambda k, s: quantifier(sub(k, g) for g in k.reachable(s))), False
            return (lambda k, s: quantifier(sub(k, g) for g in k.successors(s))), False
        table: dict = {}
        if closure:
            box = quantifier is all

            def run(k, s):
                found = table.get(k)
                if found is None:
                    found = table[k] = _Closure(call.walk(k), sub, box)
                return found.at(s)

            return run, True

        def run(k, s):
            found = table.get((k, s))
            if found is None:
                found = table[k, s] = quantifier(sub(k, g) for g in k.successors(s))
            return found

        return run, True

    return build


def _step(call: _Call, sub, name: str | None = None):
    """``step(k, s, iv)``: whether ``sub`` holds after one step from ``s`` in
    the variant of ``k`` intervened by ``iv``; the first successor found is
    a witness entry.  Without ``iv``, the step resolves ``name`` in k's
    model, so it is the function of ``<name> sub``."""
    witnesses = call.witnesses

    def step(k, s, iv=None) -> bool:
        if iv is None:
            iv = k.model.intervention_map.get(name)
            if iv is None:
                if k.model.partial:  # a side of a split keeps only the interventions it can apply
                    return False
                raise UnknownNameError(f"unresolved intervention name {name!r}")
        intervened = k.intervened(iv)
        for g in intervened.successors(s):
            if sub(intervened, g):
                if witnesses is not None:
                    successor = intervened.decode(g).as_dict()
                    witnesses.append({"op": "intervention", "name": iv.name, "successor": successor})
                return True
        return False

    return step


def _intervene(node, call, free, sub):
    return _step(call, sub, node.name), False


def _intervene_exists(node, call, free, sub):
    step, witnesses = _step(call, sub), call.witnesses

    def run(k, s):
        model = k.model
        for iv in model.interventions:
            # as ``<name>`` resolves the intervention's name
            if step(k, s, model.intervention_map[iv.name]):
                if witnesses is not None:
                    witnesses.append({"op": "exists-intervention", "name": iv.name})
                return True
        return False

    return run, False


def _star(node, call, free, left, right):
    witnesses = call.witnesses

    def run(k, s):
        for split, (lk, ls), (rk, rs) in _decompositions(k, s):
            if left(lk, ls) and right(rk, rs):
                if witnesses is not None:
                    witnesses.append({"op": "star", "left": list(split.left), "right": list(split.right)})
                return True
        return False

    return run, False


_BUILDERS = {
    F.Top: _constant(True),
    F.Bot: _constant(False),
    F.Atom: _atom,
    F.BehaviourAtom: _behaviour_atom,
    F.Not: _not,
    F.And: _and,
    F.Or: _or,
    F.Implies: _implies,
    F.Box: _search(False, all),
    F.Diamond: _search(False, any),
    F.BoxPlus: _search(True, all),
    F.DiamondPlus: _search(True, any),
    F.Intervene: _intervene,
    F.InterveneExists: _intervene_exists,
    F.Star: _star,
}


def _decompositions(k: kernel.Kernel, s: int):
    """Each candidate split of k's model with its two compiled sides and the
    projections of ``s`` onto them.  The splits under k's options are drawn
    one at a time as the caller asks, and the ones drawn are kept on ``k``,
    so a ``*`` that holds stops listing at its witness.  Each side is the
    kernel ``Kernel.side`` builds and keeps there.  A side over every
    component is k itself, never kept, so k holds no kernel that holds k."""
    digits = k.digits(s)
    for split in k.splits:
        found = [split]
        for names in (split.left, split.right):
            if len(names) == len(digits):
                found.append((k, s))
            else:  # _splits validated the split
                sk = k.side(names)
                found.append((sk, sum(digits[j] * w for j, w in sk.projection)))
        yield found


def candidate_splits(model: SystemModel, options: Options = DEFAULT_OPTIONS) -> list[InterfaceSplit]:
    """Valid interface splits in canonical order, as a list (see ``_splits``)."""
    return list(_splits(model, options))


def _splits(model: SystemModel, options: Options):
    """Valid interface splits in canonical order, one at a time.

    Each component is placed left, right, or on both sides; placements are
    tried in declaration order, left before right before both, so splits
    come out in the order of the 3^n product.  A partial placement is
    abandoned as soon as a component and its whole context are placed and
    the component breaks the locality rule ``model.local``.
    Non-proper covers are admitted only under the trivial-split flag.
    Each split emits a ``split`` event when it is drawn.
    """
    names = model.component_order
    bit = {n: 1 << i for i, n in enumerate(names)}
    if any(d not in bit for c in model.components for d in c.context):
        return  # an unknown context component lies on neither side of any cover
    # decided[i]: (component bit, context bits) of each component whose
    # locality is settled once position i is placed
    decided: list[list] = [[] for _ in names]
    for i, c in enumerate(model.components):
        context = sum(bit[d] for d in set(c.context))
        decided[max(context.bit_length() - 1, i)].append((1 << i, context))
    stack = [(0, 0, 0)]  # (position, left bits, right bits) of the partial placements to extend, last first
    while stack:
        i, left, right = stack.pop()
        if i == len(names):
            if left and right and (options.allow_trivial_split or left & ~right and right & ~left):
                split = InterfaceSplit(*(tuple(n for n in names if bit[n] & side) for side in (left, right)))
                if (log := kernel.recorder()) is not None:
                    log.append(("split", split))
                yield split
            continue
        c = 1 << i
        for to_left, to_right in ((left | c, right | c), (left, right | c), (left | c, right)):
            if all(local(j & to_left, j & to_right, context, to_left, to_right) for j, context in decided[i]):
                stack.append((i + 1, to_left, to_right))


def sat_set(
    model: SystemModel, phi: F.Formula, options: Options = DEFAULT_OPTIONS
) -> list[Configuration]:
    """All configurations satisfying ``phi``, enumerated from the domain product."""
    k = kernel.compile(model, options)
    run = _compile(phi, None)
    return [k.decode(s) for s in k.configurations() if run(k, s)]
