"""Bisimulation under intervention, decided by colour refinement.

The state space is the product of model variants (reachable by applying
declared interventions in any sequence) and configurations.  Moves are
labelled: a plain transition step, or a named intervention followed by one
step in the intervened variant, mirroring the step semantics of the named
intervention modality.  Two pointed models are bisimilar when the greatest
fixpoint of the refinement relates their roots: equal declared-atom
valuations, and matching moves per label in both directions.

On failure the checker produces a star-free distinguishing formula in the
Hennessy-Milner style, preferring minimal modal depth with canonical tie
breaks, satisfied by the left point and refuted by the right.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from functools import cached_property

from . import formulas as F
from . import kernel
from .model import (
    DEFAULT_OPTIONS,
    Configuration,
    ModelError,
    Options,
    SystemModel,
    exceeded,
)
from .records import record
from .semantics import atom_test

STEP = "step"
CLOSURE_CAP = 4096  # variants in an intervention closure, whatever --max-states says


class VocabularyMismatch(ModelError):
    """The two models disagree on atom names or declared intervention names."""


@record
class PointedModel:
    model: SystemModel
    point: Configuration

    def __post_init__(self):
        self.model.validate_configuration(self.point)


@record
class VariantGraph:
    """Model variants reachable through declared interventions, as kernels.

    Node 0 is the original model's kernel; edges are labelled with
    intervention names, and variants are deduplicated by their rule tables,
    so the graph is finite whenever the declared set is.
    """

    kernels: tuple[kernel.Kernel, ...]
    edges: tuple[tuple[int, str, int], ...]

    def to_dot(self) -> str:
        labels = ["original"] + [f"variant {i}" for i in range(1, len(self.kernels))]
        return kernel.digraph("variants", labels, [(a, b, name) for a, name, b in self.edges], node="v")


def intervention_closure(model: SystemModel, options: Options = DEFAULT_OPTIONS) -> VariantGraph:
    """All variants reachable by applying declared interventions in sequence,
    from the model compiled under ``options``, each the one
    ``Kernel.intervened`` keeps on the variant it was made from.

    A variant's key is its source's rule tables with the targets' replaced,
    so a variant is built only for a key not met before.  The root row builds
    every intervention's variant, which validates it."""
    ivs = [model.intervention_map[iv.name] for iv in model.interventions]  # as `<name>` resolves a name
    root = kernel.compile(model, options)
    kernels = [root]
    keys = [tuple(c.rule for c in model.components)]  # variants differ in rule tables only
    index = {keys[0]: 0}
    edges: list[tuple[int, str, int]] = []
    for i, source in enumerate(keys):  # grows as it is walked
        for iv in ivs:
            if i == 0:
                root.intervened(iv)  # validates iv; the variant is kept on the root
            tables = list(source)
            for t in iv.targets:
                tables[root.index[t]] = iv.rule_for(t)
            key = tuple(tables)
            j = index.get(key)
            if j is None:
                if len(kernels) >= CLOSURE_CAP:
                    exceeded(CLOSURE_CAP, "intervention closure")
                j = index[key] = len(kernels)
                keys.append(key)
                kernels.append(kernels[i].intervened(iv))
            edges.append((i, iv.name, j))
    return VariantGraph(kernels=tuple(kernels), edges=tuple(edges))


class BisimRelation:
    """Pairs of (variant index, configuration) states related across the two
    sides, in (left, right) state order: ``size`` of them, which ``listing``
    returns.  ``pairs`` calls it on first use, so a caller that needs only
    the number of pairs decodes no state.  Two relations are equal only
    when they are the same object."""

    def __init__(self, size: int, listing: Callable[[], tuple]):
        self.size, self.listing = size, listing

    def __repr__(self) -> str:
        return f"BisimRelation(size={self.size})"

    @cached_property
    def pairs(self) -> tuple[tuple[tuple[int, Configuration], tuple[int, Configuration]], ...]:
        return self.listing()

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.pairs)

    def __contains__(self, pair) -> bool:
        return pair in self._members

    def __len__(self) -> int:
        return self.size


@record
class BisimResult:
    bisimilar: bool
    relation: BisimRelation | None
    distinguishing: F.Formula | None
    left_states: int
    right_states: int


class _Lts:
    """Reachable labelled transition system of two pointed models, numbered in
    one space: each side's states in expansion order, the left's first, so
    ``roots`` is [0, n] for n left states.  ``kernels[side]`` are a side's
    variants, ``keys[i]`` is ``variant * size + state``, a state being a
    configuration encoded by its side's kernels, and ``atoms[i]`` is the
    valuation of the sorted atoms.  A successor list depends only on the side,
    the variant a label leads to and the configuration, so ``lists`` holds
    each distinct list once, as state numbers, and ``rows[i][l]`` is the
    index there of state i's successors under the l-th label.  Each side's
    state cap counts from its own root."""

    def __init__(self, a: PointedModel, b: PointedModel, labels, options: Options):
        self.keys, self.atoms, self.rows, self.lists = [], [], [], []
        self.roots, self.kernels = [], []
        for model, point in ((a.model, a.point), (b.model, b.point)):
            graph = intervention_closure(model, options)
            kernels = graph.kernels
            edge = {(a, name): b for a, name, b in graph.edges}
            targets = [[v if l == STEP else edge[(v, l)] for l in labels] for v in range(len(kernels))]
            # every variant shares ``Kernel.tests``, so a valuation depends on the configuration alone
            tests = [atom_test(kernels[0], a) for a in sorted(model.atom_map)]
            valued: dict[int, tuple[bool, ...]] = {}  # configuration -> valuation
            size, root = kernels[0].size, kernels[0].encode(point)
            number: dict[int, int | None] = {root: None}  # key -> state number, given on expansion
            listed: dict[int, int] = {}  # variant * size + configuration -> index in lists
            lists, first = [], len(self.lists)
            self.kernels.append(kernels)
            self.roots.append(len(self.keys))
            frontier = [root]
            while frontier:  # every state numbered is on the frontier until expanded
                if len(number) > options.max_states:
                    exceeded(options.max_states, "bisimulation state space")
                key = frontier.pop()
                number[key] = len(self.keys)
                self.keys.append(key)
                variant, f = divmod(key, size)
                atoms = valued.get(f)
                if atoms is None:
                    atoms = valued[f] = tuple(t(f) for t in tests)
                self.atoms.append(atoms)
                row = []
                for v in targets[variant]:
                    at = v * size + f
                    d = listed.get(at)
                    if d is None:  # a list met before holds no state not numbered yet
                        d = listed[at] = first + len(lists)
                        dests = [v * size + g for g in kernels[v].successors(f)]
                        lists.append(dests)
                        for s in dests:
                            if s not in number:
                                number[s] = None
                                frontier.append(s)
                    row.append(d)
                self.rows.append(row)
            self.lists += [[number[s] for s in dests] for dests in lists]

    @property
    def moves(self) -> list[list[list[int]]]:
        """``moves[i][l]``: the numbers of state i's successors under the l-th label."""
        return [[self.lists[d] for d in row] for row in self.rows]

    def point(self, i: int) -> tuple[int, Configuration]:
        kernels = self.kernels[i >= self.roots[1]]
        variant, s = divmod(self.keys[i], kernels[0].size)
        return variant, kernels[variant].decode(s)


def check_bisim(
    a: PointedModel, b: PointedModel, options: Options = DEFAULT_OPTIONS
) -> BisimResult:
    """Relation when the pointed models are bisimilar, otherwise a star-free
    distinguishing formula (left satisfies it, right does not)."""
    atoms, ivs = sorted(a.model.atom_map), sorted(a.model.intervention_map)
    for what, left, right in (
        ("atom vocabularies", atoms, sorted(b.model.atom_map)),
        ("declared intervention names", ivs, sorted(b.model.intervention_map)),
    ):
        if left != right:
            raise VocabularyMismatch(f"{what} differ: {left} vs {right}")
    labels = [STEP] + ivs
    lts = _Lts(a, b, labels, options)
    n = lts.roots[1]
    history = _refine(lts.atoms, lts.rows, lts.lists, n)
    colour = history[-1]
    relation = phi = None
    if colour[0] == colour[n]:
        # a left state is related to every right state of its colour
        right = Counter(colour[n:])

        def listing():
            # right states grouped by colour, in state order: the pairs in
            # (left, right) state order, in time linear in the relation
            by_colour: dict[int, list] = {}
            for i, c in enumerate(colour[n:], n):
                by_colour.setdefault(c, []).append(lts.point(i))
            pairs = []
            for i, c in enumerate(colour[:n]):
                if c in by_colour:
                    pa = lts.point(i)
                    pairs.extend((pa, pb) for pb in by_colour[c])
            return tuple(pairs)

        relation = BisimRelation(sum(right[c] for c in colour[:n]), listing)
    else:
        phi = _distinguish(lts.atoms, lts.moves, history, labels, atoms, *lts.roots)
    return BisimResult(
        bisimilar=phi is None,
        relation=relation,
        distinguishing=phi,
        left_states=n,
        right_states=len(lts.atoms) - n,
    )


def _refine(atoms: list, rows: list[list[int]], lists: list[list[int]], n: int) -> list[list[int]]:
    """The colouring of every round, round 0 being the atom valuations, to
    the first that splits states 0 and ``n`` (no formula reads past it) or
    else to the fixpoint.  A round signs each distinct successor list by the
    set of its colours, numbered in first-appearance order, and a state by
    its colour and the numbers of its lists; equal sets get equal numbers,
    so the blocks are those of signing each state by its colour sets."""
    colour = _number_blocks(atoms)
    history = [colour]
    while colour[0] == colour[n]:
        sets = _number_blocks([frozenset(map(colour.__getitem__, dests)) for dests in lists])
        fresh = _number_blocks([(c, tuple(map(sets.__getitem__, row))) for c, row in zip(colour, rows)])
        # refinement only splits blocks, so an unchanged block count is a fixpoint
        if max(fresh) == max(colour):
            return history
        colour = fresh
        history.append(colour)
    return history


def _number_blocks(signatures: list) -> list[int]:
    """Integer block ids, numbered in order of first appearance of each signature."""
    ids: dict = {}
    return [ids.setdefault(sig, len(ids)) for sig in signatures]


def _distinguish(atoms, moves, history, labels, atom_names, sa, sb) -> F.Formula:
    """Minimal-depth distinguishing formula for states sa and sb, from the
    refinement history.  Built with an explicit stack, one frame per
    refinement level, so a difference far from the roots needs no recursion."""

    def level(sa, sb) -> int | None:
        for k, col in enumerate(history):
            if col[sa] != col[sb]:
                return k
        return None

    def split(sa, sb, k):
        """An atomic formula for a pair that differs at level 0; otherwise the
        pairs whose formulas make up this one, and how to combine them."""
        # invariant: colours of sa and sb differ at level k, agree below
        if k == 0:
            for name, xa, xb in zip(atom_names, atoms[sa], atoms[sb]):
                if xa != xb:
                    return F.Atom(name) if xa else F.Not(F.Atom(name))
            raise ModelError("refinement produced no atomic difference at level 0")
        col = history[k - 1]
        for label, moves_a, moves_b in zip(labels, moves[sa], moves[sb]):
            cols_a = {col[t] for t in moves_a}
            cols_b = {col[t] for t in moves_b}
            extra_a = cols_a - cols_b
            if extra_a:
                ta = _pick(moves_a, col, extra_a)
                return [(ta, tb) for tb in moves_b], lambda parts: _wrap(label, F.conj(_dedup(parts)))
            extra_b = cols_b - cols_a
            if extra_b:
                tb = _pick(moves_b, col, extra_b)
                # each part is true on the right successor, false on the left
                return [(ta, tb) for ta in moves_a], lambda parts: F.Not(
                    _wrap(label, F.conj(_dedup([F.Not(p) for p in parts])))
                )
        raise ModelError("refinement split a pair without a divergent move")

    done: list = []  # the finished formula
    stack = [(iter([(sa, sb)]), done, None)]  # (pairs left, their formulas so far, combine)
    while stack:
        pairs, parts, combine = stack[-1]
        pair = next(pairs, None)
        if pair is None:
            stack.pop()
            if combine is not None:
                stack[-1][1].append(combine(parts))
            continue
        found = split(*pair, level(*pair))
        if isinstance(found, F.Formula):
            parts.append(found)
        else:
            stack.append((iter(found[0]), [], found[1]))
    return done[0]


def _pick(moves, col, wanted_colours):
    for t in moves:
        if col[t] in wanted_colours:
            return t
    raise ModelError("internal: no successor of the recorded colour")


def _dedup(parts):
    """Distinct formulas in canonical order."""
    keyed: dict = {}
    for p in parts:
        keyed.setdefault(F.canonical_key(p), p)
    return [keyed[key] for key in sorted(keyed)]


def _wrap(label: str, body: F.Formula) -> F.Formula:
    if label == STEP:
        return F.Diamond(body)
    return F.Intervene(label, body)
