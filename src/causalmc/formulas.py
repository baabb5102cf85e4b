"""Formula AST for the modal language with interventions and separation.

Concrete syntax (produced by ``pretty`` and read by the DSL parser):

    true false p[comp=behaviour] name
    ! f      [] f      <> f      []+ f      <>+ f      <name> f      <?> f
    (f & g)  (f | g)  (f -> g)  ((f) * (g))

The node classes below are the one source of this syntax: each declares
``syntax``, a format string over its printed subformulas (``{0}``, ``{1}``)
and its name fields, and ``modal``, whether it adds one to the modal depth.
Every walk over a formula is a ``fold``, evaluation included: ``semantics``
folds a formula into one function per node before it evaluates it.
"""

from __future__ import annotations

from collections.abc import Callable

from .records import record, replace


class Formula:
    """Base class; every node is an immutable ``record``."""

    syntax: str
    modal: bool = False
    # names of the fields holding subformulas, left to right
    sub_fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls.sub_fields = tuple(name for name, ann in own.items() if ann == "Formula")

    @property
    def subformulas(self) -> tuple[Formula, ...]:
        return tuple(map(self.__dict__.__getitem__, self.sub_fields))

    def __str__(self) -> str:
        return pretty(self)


@record
class Top(Formula):
    syntax = "true"


@record
class Bot(Formula):
    syntax = "false"


@record
class Atom(Formula):
    syntax = "{name}"
    name: str


@record
class BehaviourAtom(Formula):
    syntax = "p[{component}={behaviour}]"
    component: str
    behaviour: str


@record
class Not(Formula):
    syntax = "! {0}"
    sub: Formula


@record
class And(Formula):
    syntax = "({0} & {1})"
    left: Formula
    right: Formula


@record
class Or(Formula):
    syntax = "({0} | {1})"
    left: Formula
    right: Formula


@record
class Implies(Formula):
    syntax = "({0} -> {1})"
    left: Formula
    right: Formula


@record
class Box(Formula):
    syntax = "[] {0}"
    modal = True
    sub: Formula


@record
class Diamond(Formula):
    syntax = "<> {0}"
    modal = True
    sub: Formula


@record
class BoxPlus(Formula):
    syntax = "[]+ {0}"
    modal = True
    sub: Formula


@record
class DiamondPlus(Formula):
    syntax = "<>+ {0}"
    modal = True
    sub: Formula


@record
class Intervene(Formula):
    """After applying the named intervention and taking one step, the body holds."""

    syntax = "<{name}> {0}"
    modal = True
    name: str
    sub: Formula


@record
class InterveneExists(Formula):
    """Some declared intervention, applied with one step, makes the body hold."""

    syntax = "<?> {0}"
    modal = True
    sub: Formula


@record
class Star(Formula):
    """Separating conjunction across an interface-admitting split."""

    syntax = "(({0}) * ({1}))"
    left: Formula
    right: Formula


TRUE = Top()
FALSE = Bot()


def conj(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def fold(phi: Formula, combine: Callable[[Formula, list], object]) -> object:
    """Post-order fold: ``combine(node, values)`` receives the folded values
    of the node's subformulas, left to right.  Iterative, so nesting depth is
    bounded by memory rather than by the interpreter's recursion limit."""
    values: list = []
    stack: list = [phi]  # nodes to expand, or (node, arity) ready to combine
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            node, arity = item
            args = values[-arity:]
            del values[-arity:]
            values.append(combine(node, args))
            continue
        subs = item.subformulas
        if subs:
            stack.append((item, len(subs)))
            stack.extend(reversed(subs))
        else:
            values.append(combine(item, []))
    return values[0]


def rebuild(node: Formula, subs) -> Formula:
    """``node`` with its subformulas replaced, left to right, by ``subs``."""
    return replace(node, **dict(zip(node.sub_fields, subs))) if node.sub_fields else node


def pretty(phi: Formula) -> str:
    return fold(phi, lambda node, subs: node.syntax.format(*subs, **vars(node)))


def modal_depth(phi: Formula) -> int:
    return fold(phi, lambda node, depths: node.modal + max(depths, default=0))


def size(phi: Formula) -> int:
    return fold(phi, lambda node, sizes: 1 + sum(sizes))


def is_star_free(phi: Formula) -> bool:
    return fold(phi, lambda node, free: not isinstance(node, Star) and all(free))


def canonical_key(phi: Formula):
    """Deterministic ordering key: depth first, then size, then text."""
    return (modal_depth(phi), size(phi), pretty(phi))
