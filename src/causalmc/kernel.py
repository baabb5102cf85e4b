"""Compiled state space of a system model.

A configuration is encoded as the mixed-radix integer sum(code_i * weight_i),
code_i being the index of component i's behaviour in its domain; the last
component varies fastest, so ``range(size)`` is the enumeration order.  A
rule table becomes a map from the integer (own, context) code to the next
behaviour's code, filled on first lookup; a clamped component is a constant
code and a free one ranges over its domain.

A kernel belongs to one model under one ``Options`` value: it steps in
the options' transition mode, or in the model's declared one when they set
none, and its successor lists, reachable sets and caps are those options',
so no memo depends on any other.  A variant, intervened or pinned, is a
kernel alone under the same options: it reads the model of the kernel it
was made from, only its rule entries are its own, and it shares every
entry it does not replace, filled tables included.

Ownership runs one way, so reference counting frees a query's kernels,
memos and models together.  ``compile(model, options)`` keeps one kernel
on the model instance, that of the options it was last compiled under,
built from a copy of the model that the kernel holds and that holds no
kernel.  A kernel keeps its intervened variants, its sides and the
interface splits drawn for it so far; a pinned variant is built afresh,
and its caller keeps it as long as it needs its memos.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from math import prod

from .model import (
    DEFAULT_OPTIONS,
    MODES,
    Configuration,
    ModelError,
    UnknownNameError,
    _restrict_model,
    check_intervention,
    exceeded,
)
from .records import replace


_COMPLETE = float("inf")  # the preorder number of a node whose component is complete
_events: ContextVar = ContextVar("causalmc events", default=None)
recorder = _events.get  # the list ``recording`` collects into in this context, or None


@contextmanager
def recording():
    """Collect the engine's events in this context, in call order, as
    ``(kind, *payload)`` tuples in the list it yields.  A site emits only
    while a recording is on, and no event reaches a report."""
    events: list = []
    token = _events.set(events)
    try:
        yield events
    finally:
        _events.reset(token)


def components(roots, successors, comp: dict, found: list, cap=None) -> None:
    """Strongly connected components of the graph reachable from ``roots``
    (Tarjan, 1972), found with an explicit stack, so a long path needs no
    recursion.  Each component is appended to ``found`` as a list of its
    nodes, and ``comp`` maps each of those nodes to its index there.  A node
    already in ``comp`` lies in a complete component and is not entered, so
    successive calls grow one decomposition.  Given a ``cap``, the walk is a
    reachable-set search over the whole decomposition: it raises once
    ``comp`` and the nodes it entered are more than ``cap``."""
    if (log := recorder()) is not None:
        log.append(("walk",))
    number: dict = {}  # preorder number of each node entered
    path: list = []  # entered nodes whose component is not complete yet
    room = _COMPLETE if cap is None else cap - len(comp)  # nodes this call may enter
    work = []  # (node, children left, preorder number, low link) of v's ancestors
    v, children, nv, lv = None, iter(roots), -1, -1  # the roots are the children of a node never complete
    while True:
        for w in children:
            nw = number.get(w)
            if nw is None:
                if w in comp:
                    continue
                work.append((v, children, nv, lv))
                v, children = w, iter(successors(w))
                nv = lv = number[w] = len(number)
                if nv >= room:
                    exceeded(cap, "reachable set")
                path.append(w)
                break
            if nw < lv:
                lv = nw
        else:
            if not work:
                return
            if lv == nv:
                c, members = len(found), []
                while True:
                    w = path.pop()
                    comp[w] = c
                    number[w] = _COMPLETE
                    members.append(w)
                    if w == v:
                        break
                found.append(members)
            low = lv
            v, children, nv, lv = work.pop()
            if low < lv:
                lv = low


class Kept:
    """A sequence drawn on demand from the iterator ``rest`` and kept in
    ``items``: iterating yields the kept items, then draws and keeps the
    rest.  An iteration walks ``items`` by index, so iterations that
    interleave, as a ``*`` inside an operand of a ``*`` on the same kernel
    does, each see every item once and in order, whichever of them drew
    it."""

    def __init__(self, rest):
        self.items: list = []
        self._rest = rest

    def __iter__(self):
        items, i = self.items, 0
        while True:
            if i == len(items):
                item = next(self._rest, _DRAWN)
                if item is _DRAWN:
                    return
                items.append(item)
            yield items[i]
            i += 1


_DRAWN = object()  # what ``Kept`` reads from a spent iterator


def _drawn_splits(model, options):
    """semantics' candidate splits of ``model`` under ``options``, drawn one
    at a time once a ``*`` first asks."""
    from .semantics import _splits  # semantics imports this module

    yield from _splits(model, options)


def digraph(name: str, labels, edges, node: str = "n") -> str:
    """The graph ``name`` in the DOT language.  Node i is ``node`` + i,
    labelled ``labels[i]``; an edge is a pair of node indices, or a triple
    whose third item labels the edge.  A label's double quotes become single."""

    def label(text: str) -> str:
        return ' [label="' + text.replace('"', "'") + '"]'

    lines = [f"digraph {name} {{"]
    lines += [f"  {node}{i}{label(text)};" for i, text in enumerate(labels)]
    lines += [f"  {node}{a} -> {node}{b}{''.join(map(label, rest))};" for a, b, *rest in edges]
    lines.append("}")
    return "\n".join(lines)


def compile(model, options=DEFAULT_OPTIONS) -> "Kernel":
    """The compiled state space of ``model`` under ``options``, kept on the
    instance: a model holds one kernel, built afresh when the options differ
    from those of the kernel it holds.  The kernel is built from a copy of
    the model, so the kernel it keeps holds no reference back to it."""
    found = model.__dict__.get("_kernel")
    if found is None or found.options != options:
        found = model.__dict__["_kernel"] = Kernel(replace(model), options)
    return found


class Kernel:
    def __init__(self, model, options):
        self.model = model  # a variant's is the model of the kernel it was made from
        self.options = options
        mode = options.mode or model.mode  # the query's transition mode, else the model's
        if mode not in MODES:
            raise ModelError(f"unknown transition mode {mode!r}")
        self.sync = mode == "sync"
        self.names = model.component_order
        self.index = {n: i for i, n in enumerate(self.names)}
        self.domains = tuple(c.domain for c in model.components)
        self.codes = tuple({b: j for j, b in enumerate(d)} for d in self.domains)
        self.radices = tuple(len(d) for d in self.domains)
        self.weights = tuple(prod(self.radices[i + 1 :]) for i in range(len(self.radices)))
        self.size = prod(self.radices)
        self.places = tuple(zip(self.weights, self.radices))
        # per component: its context positions, and its place (i, weight,
        # radix, context triples); a table key is the component's own code
        # plus, for each context triple (weight, radix, multiplier), that
        # component's code times the multiplier
        self.contexts = tuple(tuple(map(self.position, c.context)) for c in model.components)
        layout = []
        for i, ctx in enumerate(self.contexts):
            triples, m = [], self.radices[i]
            for j in ctx:
                triples.append(self.places[j] + (m,))
                m *= self.radices[j]
            layout.append((i, *self.places[i], tuple(triples)))
        self.layout = tuple(layout)
        # per component: None (free), an int (clamped), or (lazily filled table, rule table)
        self.rules = [None if c.free else ({}, c.rule) for c in model.components]
        self.pins: tuple = ()  # the (component, code) pairs ``pinned`` made this variant with, if it did
        self.projection: tuple = ()  # a side's (position in the kernel it was split from, weight here) pairs
        self.tests: dict = {}  # atom predicates, shared with every variant
        self.splits = Kept(_drawn_splits(model, options))  # candidate splits, drawn on demand; shared likewise
        self._fresh()

    def _fresh(self) -> None:
        self.succ_memo: dict = {}
        self.reach_memo: dict = {}
        self.variants: dict = {}  # intervened variants, by intervention
        self.sides: dict = {}  # the side kernels ``side`` built, by component names

    def position(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownNameError(f"configuration has no component {name!r}") from None

    def encode(self, f: Configuration) -> int:
        if (log := recorder()) is not None:
            log.append(("encode", f))
        self.model.validate_configuration(f)
        return sum(codes[b] * w for codes, (_, b), w in zip(self.codes, f.pairs, self.weights))

    def decode(self, s: int) -> Configuration:
        if (log := recorder()) is not None:
            log.append(("decode", s))
        values = (dom[d] for dom, d in zip(self.domains, self.digits(s)))
        return Configuration(tuple(zip(self.names, values)))

    def digits(self, s: int) -> list[int]:
        return [s // w % r for w, r in self.places]

    def configurations(self) -> range:
        """Every state, in enumeration order."""
        cap = self.options.max_states
        if self.size > cap:
            exceeded(cap, "configuration space", self.size)
        return range(self.size)

    def successors(self, s: int) -> tuple[int, ...]:
        """One-step successors in canonical order, memoized."""
        out = self.succ_memo.get(s)
        if out is None:
            out = self.succ_memo[s] = self._expand(s)
        return out

    def _expand(self, s: int) -> tuple[int, ...]:
        """``s``'s one-step successors in canonical order, in one pass over
        the components: each reads its code and its table key from ``s``
        through its place, and a table hit is one dictionary lookup.  Async
        moves one component; sync moves every component at once, so its
        successors are the product of the choices in component order."""
        if (log := recorder()) is not None:
            log.append(("expand", self, s))
        sync = self.sync
        out, stays = [], False  # async: the moves so far, and whether s is one
        shift, free = 0, [0]  # sync: the ruled components' move, and the free ones' combinations
        for (i, w, r, ctx), rule in zip(self.layout, self.rules):
            d = s // w % r
            if rule is None:  # free: any behaviour of the domain
                if sync:
                    free = [t + (c - d) * w for t in free for c in range(r)]
                else:
                    out.extend(s + (c - d) * w for c in range(r) if c != d)
                    stays = True
                continue
            if rule.__class__ is int:
                b = rule
            else:
                key = d
                for v, q, m in ctx:
                    key += s // v % q * m
                b = rule[0].get(key)
                if b is None:
                    b = self._fill(i, s, key)
            if b == d:
                stays = True
            elif sync:
                shift += (b - d) * w
            else:
                out.append(s + (b - d) * w)
        if sync:
            moved = [s + shift + t for t in free]
            return tuple(moved) if self.options.self_loops else tuple(g for g in moved if g != s)
        if self.options.self_loops and stays:
            out.append(s)
        return tuple(out)

    def _fill(self, i: int, s: int, key: int) -> int:
        """Component i's next code in ``s`` from its rule table, entered in
        its lazily filled table under ``key``, reading from ``s`` only its own
        digit and its context digits."""
        table, rows = self.rules[i]
        dom, places = self.domains, self.places
        context = []
        for j in self.contexts[i]:  # a plain loop: a generator here costs more than the reads
            w, r = places[j]
            context.append(dom[j][s // w % r])
        w, r = places[i]
        out = rows.apply(dom[i][s // w % r], tuple(context))
        code = self.codes[i].get(out)
        if code is None:
            raise ModelError(f"behaviour {out!r} not in domain of {self.names[i]!r}")
        table[key] = code
        return code

    def reachable(self, s: int) -> list[int]:
        """States strictly reachable from ``s``, breadth-first, memoized."""
        if (log := recorder()) is not None:
            log.append(("reachable", self, s))
        found = self.reach_memo.get(s)
        if found is None:
            found = self.reach_memo[s] = self.search(s, "reachable set")[0]
        return found

    def search(self, s: int, what: str, goal=None) -> tuple[list[int], int | None]:
        """Breadth-first search from ``s``: the states strictly reachable
        from it, in the order they were queued, and the first dequeued state
        for which ``goal`` is true, or None.  The search stops at that state,
        and runs to the end without a goal.  It holds ``s`` and every state
        it has queued, and raises ``what``'s overrun when, after an
        expansion, they are more than the cap."""
        memo, cap = self.succ_memo, self.options.max_states
        queue, seen, i = [], set(), 0
        g = s
        while True:
            out = memo.get(g)
            if out is None:
                out = memo[g] = self._expand(g)
            for h in out:
                if h not in seen:
                    seen.add(h)
                    queue.append(h)
            if len(seen) + (s not in seen) > cap:
                exceeded(cap, what)
            if i == len(queue):
                return queue, None
            g = queue[i]
            i += 1
            if goal is not None and goal(g):
                return queue, g

    def pinned(self, pins: tuple[tuple[int, int], ...]) -> "Kernel":
        """Variant pinning each (component, code) pair's component to that code;
        a free component stays free, as under ``apply_intervention``.  Built
        afresh: the caller keeps it as long as it needs its memos."""
        if (log := recorder()) is not None:
            log.append(("pin", pins))
        out = self._variant({i: code for i, code in pins if self.rules[i] is not None})
        out.pins = pins
        return out

    def intervened(self, iv) -> "Kernel":
        """Variant replacing the rule tables of ``iv``'s targets, as
        ``apply_intervention`` does, after the same validation; it is kept
        here, by intervention."""
        out = self.variants.get(iv)
        if out is None:
            check_intervention(self.model, iv)
            tables = {i: ({}, iv.rule_for(t)) for t in iv.targets if self.rules[i := self.index[t]] is not None}
            out = self.variants[iv] = self._variant(tables)
        return out

    def _variant(self, replaced: dict) -> "Kernel":
        out = Kernel.__new__(Kernel)
        out.__dict__.update(self.__dict__)
        out.rules = [replaced.get(i, rule) for i, rule in enumerate(self.rules)]
        out._fresh()
        return out

    def side(self, names: tuple[str, ...]) -> "Kernel":
        """Kernel of this kernel's model restricted to the components
        ``names``, kept here by names.  A component keeping its rule on the
        side takes its entry here, filled table and all, so the side of a
        variant runs the variant's rules; the side's ``projection`` places a
        state of this kernel in the side."""
        out = self.sides.get(names)
        if out is None:
            if (log := recorder()) is not None:
                log.append(("side", names))
            out = self.sides[names] = Kernel(_restrict_model(self.model, names), self.options)
            out.rules = [None if rule is None else self.rules[self.index[c]] for c, rule in zip(out.names, out.rules)]
            out.projection = tuple((self.index[c], w) for c, w in zip(out.names, out.weights))
        return out
