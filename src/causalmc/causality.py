"""Actual-cause search with counterfactual certificates, causal chains, and
intervention effect classification.

A candidate cause of an observed outcome is a component subset judged by
three clauses:

AC1 (actuality).  Some transition path leads from the start configuration
to the end configuration along which every candidate component, once it
first reaches its end-state behaviour, keeps it for the rest of the path,
and at least one effect component updates somewhere along the path: the
effect must be realized by the run, not merely stand from the start (a
standing condition has no cause in the episode, and no counterfactual
replay could ever refute it).  Strict mode additionally requires the
candidate components to carry the same behaviour in the start and end
configurations.

AC2 (counterfactual dependence).  Two conditions.  First, a raw but-for
contrast: some deviation of the candidate components away from their
end-state behaviours, applied to the start configuration with nothing
clamped, makes the effect unreachable; without such a contrast the effect
does not depend on the candidate through any mechanism at all.  Second, a
witness set W exists such that for every deviation of the candidate
components outside W, the effect can no longer be produced: components of
W are clamped to their end-state behaviours immediately and stably, the
deviating components are set to the deviated behaviours, the remaining
components resume from the start configuration, and no configuration
reachable from that counterfactual start satisfies the effect formula.
A witness qualifies only if at least one deviation exists, so components
with nowhere to deviate to never certify vacuously.

AC3 (minimality).  No proper subset of the candidate passes AC1 and AC2.

Certificates carry replayable evidence for all three clauses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product

from . import kernel
from .model import (
    DEFAULT_OPTIONS,
    Configuration,
    Intervention,
    ModelError,
    Options,
    SystemModel,
    clamping_intervention,
    exceeded,
)
from .semantics import atom_test


@dataclass(frozen=True)
class CauseQuery:
    """Start and end configurations plus the effect components.

    The effect formula is the conjunction of component=behaviour atoms
    pinning each effect component to its end-state behaviour; it is always
    derived from ``end``, never stored separately.
    """

    start: Configuration
    end: Configuration
    effect_components: tuple[str, ...]

    def effect_values(self) -> dict[str, str]:
        return {c: self.end[c] for c in self.effect_components}


@dataclass(frozen=True)
class DeviationCheck:
    """Evidence for one counterfactual deviation under a witness set."""

    deviation: tuple[tuple[str, str], ...]
    start: Configuration
    ok: bool
    counterexample: Configuration | None = None


@dataclass(frozen=True)
class SubsetRefutation:
    subset: tuple[str, ...]
    failed_clause: str


@dataclass(frozen=True)
class CauseCertificate:
    cause_set: tuple[str, ...]
    witness_set: tuple[str, ...] | None
    clamp: Intervention | None
    ac1: bool
    ac2: bool
    ac3: bool
    mode: str
    ac1_path: tuple[Configuration, ...] | None = None
    contrast_deviation: tuple[tuple[str, str], ...] | None = None
    ac2_checks: tuple[DeviationCheck, ...] = ()
    ac3_refutations: tuple[SubsetRefutation, ...] = ()

    @property
    def is_cause(self) -> bool:
        return self.ac1 and self.ac2 and self.ac3

    def to_dict(self) -> dict:
        return {
            "cause_set": list(self.cause_set),
            "witness_set": list(self.witness_set) if self.witness_set is not None else None,
            "clamp": self.clamp.name if self.clamp else None,
            "ac1": self.ac1,
            "ac2": self.ac2,
            "ac3": self.ac3,
            "mode": self.mode,
            "contrast_deviation": dict(self.contrast_deviation) if self.contrast_deviation else None,
            "ac1_path": [g.as_dict() for g in self.ac1_path] if self.ac1_path else None,
            "ac2_checks": [
                {
                    "deviation": dict(c.deviation),
                    "start": c.start.as_dict(),
                    "ok": c.ok,
                    "counterexample": c.counterexample.as_dict() if c.counterexample else None,
                }
                for c in self.ac2_checks
            ],
            "ac3_refutations": [
                {"subset": list(r.subset), "failed_clause": r.failed_clause}
                for r in self.ac3_refutations
            ],
        }


# ---------------------------------------------------------------------------
# clause checks


class _Shared:
    """One query's mode and options, and the work a chain's links share:
    clamped variants by (kernel, pins); their effect verdicts by (kernel,
    pins, effect places), then by absolute start state; and the end marks
    and AC1 edges of states by (kernel, end state, effect places).  A
    verdict depends only on its variant, start, effect and the query's
    options, and a search that overran ended the query, so a shared verdict
    only stands in for a search that finished."""

    def __init__(self, mode: str, options: Options):
        self.mode, self.options = mode, options
        self.variants: dict = {}
        self.verdicts: dict = {}
        self.ac1: dict = {}

    def variant(self, k, pins):
        found = self.variants.get((k, pins))
        if found is None:
            found = self.variants[k, pins] = k.pinned(pins) if pins else k
        return found


class _Episode:
    """One cause query on kernel ``k``, from state ``start`` to state ``end``
    (both already validated): the effect as (weight, radix, code) places of
    the effect components, and what every candidate checked against the
    query shares: clause verdicts per subset, the marks and AC1 edges of each
    state, and one ``_Witness`` per witness set, made by ``witness``.  The
    mode, options and clamped variants live in the query's ``_Shared``
    table, so they go with the query."""

    def __init__(self, k, start: int, end: int, effect_components, shared: _Shared):
        self.k, self.start, self.end, self.shared = k, start, end, shared
        self.verdicts: dict = {}
        self.witnesses: dict = {}  # witness set -> its _Witness
        self.configurations: dict = {}  # state -> decoded configuration
        self.start_digits, self.end_digits = k.digits(start), k.digits(end)
        self.effect = tuple(k.places[i] + (self.end_digits[i],) for i in map(k.position, effect_components))
        if shared.mode not in ("example", "strict"):
            raise ModelError(f"unknown cause-check mode {shared.mode!r}")
        # state -> (end mask, effect key); state -> AC1 edge triples
        self.state_marks, self.state_edges = shared.ac1.setdefault((k, self.end, self.effect), ({}, {}))

    def marks(self, s: int) -> tuple[int, int]:
        """The end mask of ``s``, bit i set when component i has its end-state
        behaviour, and its effect key, the effect components' part of ``s``."""
        found = self.state_marks.get(s)
        if found is None:
            mask = sum(1 << i for i, (d, b) in enumerate(zip(self.k.digits(s), self.end_digits)) if d == b)
            found = self.state_marks[s] = (mask, sum(s // w % r * w for w, r, _ in self.effect))
        return found

    def edges(self, s: int) -> tuple[tuple[int, int, bool], ...]:
        """``s``'s successors, each with the end-mask bits the edge loses and
        whether it changes the effect key."""
        found = self.state_edges.get(s)
        if found is None:
            mask, key = self.marks(s)
            found = self.state_edges[s] = tuple(
                (g, mask & ~to_mask, key != to_key)
                for g in self.k.successors(s, self.shared.options.self_loops)
                for to_mask, to_key in (self.marks(g),)
            )
        return found

    def decode(self, s: int) -> Configuration:
        """``k.decode(s)``, once per state: AC1 paths of many candidates share states."""
        found = self.configurations.get(s)
        if found is None:
            found = self.configurations[s] = self.k.decode(s)
        return found

    def witness(self, names: tuple[str, ...]) -> _Witness:
        """The ``_Witness`` of a witness set, made on first use."""
        found = self.witnesses.get(names)
        if found is None:
            found = self.witnesses[names] = _Witness(self, names)
        return found

    def deviation(self, cause, s: int) -> tuple[tuple[str, str], ...]:
        """The candidate's (name, behaviour) pairs in state ``s``."""
        k = self.k
        places = zip(cause, map(k.index.get, cause))
        return tuple((c, k.domains[i][s // k.weights[i] % k.radices[i]]) for c, i in places)


class _Witness(dict):
    """A witness set's clamped variant and the offset the clamp adds to the
    start state.  As a dict it maps a deviation's offset to whether the
    effect is reachable from the start state moved by it under the clamp; on
    the first lookup it asks the query's verdicts by absolute start, and
    searches only when they have none, so each search runs once per query."""

    def __init__(self, e: _Episode, names: tuple[str, ...]):
        k = e.k
        pins = tuple((i, e.end_digits[i]) for i in map(k.index.get, names))
        self.variant = e.shared.variant(k, pins)
        self.base = e.start + sum((b - e.start_digits[i]) * k.weights[i] for i, b in pins)
        self.effect, self.options = e.effect, e.shared.options
        self.known = e.shared.verdicts.setdefault((k, pins, e.effect), {})

    def __missing__(self, offset: int) -> bool:
        start = self.base + offset
        reached = self.known.get(start)
        if reached is None:
            found = _first_effect_reachable(self.variant, start, self.effect, self.options)
            reached = self.known[start] = found is not None
        self[offset] = reached
        return reached


class _Deviations:
    """Assignments to the candidate components with at least one component off
    its end-state behaviour, as offsets from the start state (a deviation's
    behaviours are read back from its state when evidence names them).  They
    are made on demand, in the product order of the domains, and kept."""

    def __init__(self, e: _Episode, cause):
        k, positions = e.k, [e.k.index[c] for c in cause]
        parts = [[(c - e.start_digits[i]) * k.weights[i] for c in range(k.radices[i])] for i in positions]
        at_end = tuple(p[e.end_digits[i]] for p, i in zip(parts, positions))
        self.offsets: list[int] = []
        self._rest = (sum(combo) for combo in product(*parts) if combo != at_end)

    def __iter__(self):
        return chain(self.offsets, self._more())

    def _more(self):
        for offset in self._rest:
            self.offsets.append(offset)
            yield offset


def _ac1(e: _Episode, cause):
    """Path search over hold-admissible edges.

    An edge is admissible when no candidate component abandons its
    end-state behaviour after having reached it; reaching the end
    configuration through admissible edges realises the
    hold-from-first-attainment requirement.  The search runs over
    (configuration, effect-realized) pairs so that the found path always
    contains an effect-component update.  Both tests read the edge's
    triple: the end-mask bits it loses and whether it changes the effect.
    The path is returned as states, start first; None when there is none.
    """
    held = sum(1 << e.k.index[c] for c in cause)
    if e.shared.mode == "strict" and held & ~e.marks(e.start)[0]:
        return None

    parent: dict = {}
    queue: list = []
    visited = {e.start}  # configurations met: the cap counts these, not pairs
    edges, cap = e.edges, e.shared.options.max_states

    def expand(f: int, got_effect: bool, via) -> None:
        for g, lost, changed in edges(f):
            if held & lost:  # a candidate at its end behaviour in f must keep it
                continue
            state = (g, got_effect or changed)
            if state not in parent:
                parent[state] = via
                queue.append(state)
                visited.add(g)
        if len(visited) > cap:
            exceeded(cap, "AC1 path search")

    expand(e.start, False, None)
    i = 0
    while i < len(queue):
        state = queue[i]
        f, got_effect = state
        i += 1
        if f == e.end and got_effect:
            path = [f]
            while parent[state] is not None:
                state = parent[state]
                path.append(state[0])
            return (e.start,) + tuple(reversed(path))
        expand(f, got_effect, state)
    return None


def _first_effect_reachable(k, start: int, effect, options) -> int | None:
    """First state strictly reachable from ``start`` in which every
    (weight, radix, code) place of ``effect`` holds its code; ``start``
    itself counts only as its own successor (a self-loop), not at the end of
    a longer cycle."""
    for g in k.search(start, options, "counterfactual reachability"):
        if all(g // w % r == b for w, r, b in effect):
            if g != start or start in k.successors(start, options.self_loops):
                return g
    return None


def _ac2(e: _Episode, cause):
    """AC2 for one candidate: the raw contrast, the first deviated start from
    which the unclamped effect neither holds nor is ever reached, and the
    certifying witness, the first witness set under which no deviated start
    reaches the effect, with those starts; either is None when there is
    none.  Deviations are made as the checks need them, and each (witness
    set, deviated start) effect search runs at most once per query."""
    devs = _Deviations(e, cause)
    unclamped, goal = e.witness(()), e.marks(e.end)[1]
    contrast = next((e.start + o for o in devs if e.marks(e.start + o)[1] != goal and not unclamped[o]), None)
    if contrast is None:
        return None, None
    # witnesses are disjoint from the candidate, mirroring the clamp-versus-
    # deviate partition of the counterfactual test
    others = [n for n in e.k.names if n not in cause]
    for witness in chain.from_iterable(combinations(others, k) for k in range(len(others) + 1)):
        # a witness fails at its first deviation from which the effect is reachable
        table = e.witness(witness)
        if not any(map(table.__getitem__, devs)):
            return contrast, (witness, [table.base + o for o in devs.offsets])
    return contrast, None


def check_cause(
    model: SystemModel,
    q: CauseQuery,
    cause,
    mode: str = "example",
    options: Options = DEFAULT_OPTIONS,
    _episode: _Episode | None = None,
) -> CauseCertificate:
    """Certificate for one candidate cause, with all three clause verdicts.

    ``mode`` is "example" (default) or "strict"; strict adds the literal
    start-equals-end requirement to AC1.  A call inside an episode checks a
    candidate its query has validated, under the query's mode and options.
    """
    cause = tuple(dict.fromkeys(cause))
    e = _episode
    if e is None:
        if not cause:
            raise ModelError("empty candidate cause set")
        for c in cause:
            model.component(c)
        k = kernel.compile(model)
        e = _Episode(k, k.encode(q.start), k.encode(q.end), q.effect_components, _Shared(mode, options))
    memo = e.verdicts  # subset -> (AC1 path, contrast, witness) on state numbers

    def core(subset):
        key = tuple(sorted(subset))
        found = memo.get(key)
        if found is None:
            path = _ac1(e, subset)
            found = memo[key] = (path, *(_ac2(e, subset) if path else (None, None)))
        return found

    path, contrast, witness = core(cause)
    refutations = []
    if path and witness:
        for size in range(1, len(cause)):
            for sub in combinations(cause, size):
                sub_path, _, sub_witness = core(sub)
                failed = "AC1" if sub_path is None else "AC2" if sub_witness is None else "none"
                refutations.append(SubsetRefutation(subset=sub, failed_clause=failed))
    # states become configurations, behaviours and a clamp only here, once per candidate
    names, blocked = witness or (None, ())
    return CauseCertificate(
        cause_set=cause,
        witness_set=names,
        clamp=clamping_intervention(e.k.model, names, e.deviation(names, e.end)) if names else None,
        ac1=path is not None,
        ac2=witness is not None,
        ac3=all(r.failed_clause != "none" for r in refutations),
        mode=e.shared.mode,
        ac1_path=None if path is None else tuple(map(e.decode, path)),
        contrast_deviation=None if contrast is None else e.deviation(cause, contrast),
        ac2_checks=tuple(DeviationCheck(deviation=e.deviation(cause, s), start=e.decode(s), ok=True) for s in blocked),
        ac3_refutations=tuple(refutations),
    )


def find_causes(
    model: SystemModel,
    q: CauseQuery,
    mode: str = "example",
    options: Options = DEFAULT_OPTIONS,
) -> list[CauseCertificate]:
    """All inclusion-minimal certified causes, in canonical order.

    Candidates range over components disjoint from the effect: a component
    of the effect would witness counterfactual dependence of the effect on
    itself, which certifies nothing.
    """
    k = kernel.compile(model)
    return list(_certified_causes(k, k.encode(q.start), k.encode(q.end), q.effect_components, _Shared(mode, options)))


def _certified_causes(k, start: int, end: int, effect_components, shared: _Shared):
    """Inclusion-minimal certified causes from state ``start`` to ``end`` of ``k``, in canonical order, lazily."""
    episode = _Episode(k, start, end, effect_components, shared)
    names = tuple(n for n in k.names if n not in effect_components)
    certified: list[CauseCertificate] = []
    for size in range(1, len(names) + 1):
        for cand in combinations(names, size):
            if any(set(c.cause_set) < set(cand) for c in certified):
                continue
            cert = check_cause(k.model, None, cand, _episode=episode)
            if cert.is_cause:
                certified.append(cert)
                yield cert


# ---------------------------------------------------------------------------
# causal chains and projections


@dataclass(frozen=True)
class ChainLink:
    effect_components: tuple[str, ...]
    certificate: CauseCertificate


@dataclass(frozen=True)
class CausalChain:
    """Waypoint sequence where every consecutive pair is causally certified
    and no waypoint can be dropped without breaking certification."""

    configurations: tuple[Configuration, ...]
    links: tuple[ChainLink, ...]

    def to_dict(self) -> dict:
        return {
            "configurations": [g.as_dict() for g in self.configurations],
            "links": [
                {"effect_components": list(l.effect_components), "certificate": l.certificate.to_dict()}
                for l in self.links
            ],
        }


@dataclass(frozen=True)
class CausalProjection:
    configurations: tuple[Configuration, ...]
    edges: tuple[tuple[Configuration, Configuration], ...]
    atom_restriction: tuple[tuple[str, tuple[Configuration, ...]], ...]
    acyclic: bool

    def to_dict(self) -> dict:
        return {
            "configurations": [g.as_dict() for g in self.configurations],
            "edges": [[a.as_dict(), b.as_dict()] for a, b in self.edges],
            "atoms": {name: [g.as_dict() for g in ext] for name, ext in self.atom_restriction},
            "acyclic": self.acyclic,
        }

    def to_dot(self) -> str:
        return projection_dot(self.to_dict())


def projection_dot(projection: dict) -> str:
    """DOT rendering of a causal projection in its report form (``to_dict``)."""

    def label(g: dict) -> str:
        return str(Configuration(tuple(g.items())))

    idx = {label(g): i for i, g in enumerate(projection["configurations"])}
    edges = [(idx[label(a)], idx[label(b)]) for a, b in projection["edges"]]
    return kernel.digraph("causal_projection", idx, edges)


class _Links(dict):
    """The certified links of one query on kernel ``k``, by (start state, end
    state, explicit effect or None).  A lookup gives the link's ``ChainLink``,
    or None when it fails: its two states are equal, its end is not reachable
    from its start, or no cause certifies it.  The default effect is the
    components whose digits differ between the two states, and the link's
    cause is the first (canonically smallest) one, certified on the query's
    ``_Shared`` table."""

    def __init__(self, k, shared: _Shared):
        self.k, self.shared = k, shared

    def realizable(self, a: int, b: int) -> bool:
        return b in self.k.reachable(a, self.shared.options)

    def __missing__(self, key: tuple[int, int, tuple[str, ...] | None]) -> ChainLink | None:
        a, b, effect = key
        found = None
        if a != b and self.realizable(a, b):
            k = self.k
            effect = effect or tuple(n for n, x, y in zip(k.names, k.digits(a), k.digits(b)) if x != y)
            cert = next(_certified_causes(k, a, b, effect, self.shared), None)
            if cert is not None:
                found = ChainLink(effect_components=effect, certificate=cert)
        self[key] = found
        return found


def find_causal_chains(
    model: SystemModel,
    f_start: Configuration,
    f_end: Configuration,
    max_len: int = 4,
    effect_components=None,
    mode: str = "example",
    options: Options = DEFAULT_OPTIONS,
) -> list[CausalChain]:
    """All minimal certified chains from f_start to f_end with at most max_len waypoints.

    The explicit effect components, when given, apply to the final link;
    interior links use the components changed across the link.  Chains with
    equal endpoints are empty by definition (at least two distinct
    waypoints are required).
    """
    if max_len < 2:
        raise ModelError("max_len must be at least 2")
    k = kernel.compile(model)
    start, end = k.encode(f_start), k.encode(f_end)  # encoding validates them
    if start == end:
        return []
    final_effect = tuple(effect_components) if effect_components else None
    links = _Links(k, _Shared(mode, options))  # every link reuses the variants and verdicts of the others

    def link(a: int, b: int) -> ChainLink | None:
        # waypoints are distinct, so only the final link ends at ``end``
        return links[a, b, final_effect if b == end else None]

    def is_chain(seq) -> bool:
        return all(link(a, b) is not None for a, b in zip(seq, seq[1:]))

    def minimal(seq) -> bool:
        return not any(is_chain(seq[:i] + seq[i + 1 :]) for i in range(1, len(seq) - 1))

    if not links.realizable(start, end):
        return []
    out: list[CausalChain] = []
    # waypoint middles must sit between the endpoints in the closure
    middles = [g for g in k.reachable(start, options) if g not in (start, end) and links.realizable(g, end)]

    # waypoints are distinct, so no chain is longer than every middle plus the endpoints
    for n in range(2, min(max_len, len(middles) + 2) + 1):
        # prefixes of the chains with n waypoints, depth first in permutation
        # order, each with the middles it has yet to try; a waypoint whose
        # link fails ends its extensions
        stack = [((start,), iter(middles))]
        while stack:
            prefix, todo = stack[-1]
            if len(prefix) == n - 1:
                stack.pop()
                seq = prefix + (end,)
                if link(prefix[-1], end) is not None and minimal(seq):
                    chain_links = tuple(map(link, seq, seq[1:]))
                    out.append(CausalChain(configurations=tuple(map(k.decode, seq)), links=chain_links))
                continue
            for g in todo:
                if g not in prefix and link(prefix[-1], g) is not None:
                    stack.append((prefix + (g,), iter(middles)))
                    break
            else:
                stack.pop()
    return out


def causal_projection(
    model: SystemModel, chains, options: Options = DEFAULT_OPTIONS
) -> CausalProjection:
    """Restriction of the model to configurations on the given chains."""
    configs: dict[Configuration, None] = {}
    for chain in chains:
        for g in chain.configurations:
            configs[g] = None
    ordered = tuple(configs)
    k = kernel.compile(model)
    members = {k.encode(g): g for g in ordered}
    edges = []
    for s, g in members.items():
        for h in k.successors(s, options.self_loops):
            if h in members:
                edges.append((g, members[h]))
    atoms = tuple(
        (a.name, tuple(g for s, g in members.items() if atom_test(k, a.name)(s))) for a in model.atoms
    )
    return CausalProjection(
        configurations=ordered,
        edges=tuple(edges),
        atom_restriction=atoms,
        acyclic=_is_acyclic(ordered, edges),
    )


def _is_acyclic(nodes, edges) -> bool:
    """Whether the graph has no cycle: no self-edge, and every strongly
    connected component is a single node."""
    adj: dict = {n: [] for n in nodes}
    for a, b in edges:
        if a == b:
            return False
        adj[a].append(b)
    found: list = []
    kernel.components(adj, adj.__getitem__, {}, found)
    return len(found) == len(adj)


# ---------------------------------------------------------------------------
# intervention effect on chains


@dataclass(frozen=True)
class ChainClassification:
    verdict: str  # preserved | disrupted | indeterminate
    detail: str
    link_causes: tuple[tuple[str, ...], ...]
    recertified: tuple[CauseCertificate, ...] = ()
    broken_link: int | None = None

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "detail": self.detail,
            "link_causes": [list(c) for c in self.link_causes],
            "recertified": [c.to_dict() for c in self.recertified],
            "broken_link": self.broken_link,
        }


def classify_intervention_effect(
    model: SystemModel,
    chain: CausalChain,
    iv: Intervention,
    mode: str = "example",
    options: Options = DEFAULT_OPTIONS,
) -> ChainClassification:
    """Preserved, disrupted, or indeterminate fate of a chain under an intervention.

    The per-link cause set is the union of all minimal causes of the link;
    preserved requires no overlap with the targets plus full
    re-certification in the intervened model, disrupted requires an
    overlapping link whose closure transition disappears, and anything in
    between is reported as indeterminate rather than guessed.
    """
    k = kernel.compile(model)
    seq = chain.configurations
    states = [k.encode(g) for g in seq]  # encoding validates them
    effects = [tuple(l.effect_components) for l in chain.links]
    shared = _Shared(mode, options)
    link_cause_union: list[tuple[str, ...]] = []
    for i in range(len(seq) - 1):
        union: dict[str, None] = {}
        for cert in _certified_causes(k, states[i], states[i + 1], effects[i], shared):
            for c in cert.cause_set:
                union[c] = None
        link_cause_union.append(tuple(union))
    targets = set(iv.targets)
    overlaps = [i for i, u in enumerate(link_cause_union) if targets & set(u)]
    links = _Links(k.intervened(iv), shared)

    def verdict(kind: str, detail: str, broken_link=None, recertified=()) -> ChainClassification:
        return ChainClassification(
            verdict=kind,
            detail=detail,
            link_causes=tuple(link_cause_union),
            recertified=tuple(recertified),
            broken_link=broken_link,
        )

    if not overlaps:
        recerts = []
        for i in range(len(seq) - 1):
            if not links.realizable(states[i], states[i + 1]):
                detail = f"no cause overlap, but link {i} is no longer realizable after {iv.name}"
                return verdict("indeterminate", detail, i)
            found = links[states[i], states[i + 1], effects[i]]
            if found is None:
                detail = f"no cause overlap, but link {i} fails to re-certify after {iv.name}"
                return verdict("indeterminate", detail, i)
            recerts.append(found.certificate)
        return verdict("preserved", f"no link cause overlaps targets of {iv.name}; chain re-certified", None, recerts)

    for i in overlaps:
        if not links.realizable(states[i], states[i + 1]):
            return verdict("disrupted", f"link {i} overlaps targets of {iv.name} and is invalidated", i)
    return verdict("indeterminate", f"targets of {iv.name} overlap link causes but every link transition survives")
