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
replay could ever refute it).  Strict mode (``Options.strict_ac1``)
additionally requires the candidate components to carry the same behaviour
in the start and end configurations.

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

from itertools import chain, combinations, islice, product

from . import kernel
from .model import (
    CHAIN_MAX_LEN,
    DEFAULT_OPTIONS,
    Configuration,
    Intervention,
    ModelError,
    Options,
    SystemModel,
    clamping_intervention,
    exceeded,
)
from .records import record
from .semantics import atom_test


@record
class CauseQuery:
    """Start and end configurations plus the effect components.

    The effect formula is the conjunction of component=behaviour atoms
    pinning each effect component to its end-state behaviour; it is always
    derived from ``end``, never stored separately.
    """

    start: Configuration
    end: Configuration
    effect_components: tuple[str, ...]


@record
class DeviationCheck:
    """Evidence for one counterfactual deviation under a witness set."""

    deviation: tuple[tuple[str, str], ...]
    start: Configuration
    ok: bool
    counterexample: Configuration | None = None


@record
class SubsetRefutation:
    subset: tuple[str, ...]
    failed_clause: str


@record
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


def ac1_mode(options: Options) -> str:
    """The AC1 clause ``options`` select, as certificates and reports name it."""
    return "strict" if options.strict_ac1 else "example"


class _Shared:
    """One query's AC1 mode, read from its options, and the work a chain's
    links share: clamped variants by (kernel, pins), which links with
    different effects share; their ``_Verdicts`` by (kernel, pins, effect
    places); and the end marks and AC1 edges of states by (kernel, end
    state, effect places).  A verdict depends only on its variant, whose
    options are the query's, its start and its effect, and a search that
    overran ended the query, so a shared verdict only stands in for a search
    that finished."""

    def __init__(self, options: Options):
        self.mode = ac1_mode(options)
        self.variants: dict = {}
        self.verdicts: dict = {}
        self.ac1: dict = {}

    def verdicts_of(self, k, pins, effect) -> _Verdicts:
        found = self.verdicts.get((k, pins, effect))
        if found is None:
            variant = self.variants.get((k, pins))
            if variant is None:
                variant = self.variants[k, pins] = k.pinned(pins) if pins else k
            found = self.verdicts[k, pins, effect] = _Verdicts(variant, effect)
        return found


class _Verdicts(dict):
    """Whether the effect is reachable under a clamped variant, by start
    state; each start is searched on its first lookup, so once per query."""

    def __init__(self, variant, effect):
        self.variant, self.effect = variant, effect

    def __missing__(self, start: int) -> bool:
        reached = self[start] = _first_effect_reachable(self.variant, start, self.effect) is not None
        return reached


class _Episode:
    """One cause query on kernel ``k``, from state ``start`` to state ``end``
    (both already validated): the effect as (weight, radix, code) places of
    the effect components, the components a cause is drawn from, those
    outside the effect, and what every candidate checked against the query
    shares: the clause verdicts of each subset, found by ``clauses``, the
    marks and AC1 edges of each state, the AC1 path searches run, kept in
    ``runs`` by ``_ac1``, each witness set's ``_Verdicts`` and base, found by
    ``witness``, and by first-deviation offset the witness sets not yet
    known to fail there, found by ``untried``.  The mode, clamped variants
    and verdicts live in the query's ``_Shared`` table, so they go with the
    query."""

    def __init__(self, k, start: int, end: int, effect_components, shared: _Shared):
        self.k, self.start, self.end, self.shared = k, start, end, shared
        self.candidates = tuple(n for n in k.names if n not in effect_components)
        self.verdicts: dict = {}
        self.runs: list = []  # AC1 searches: (end-mask bits their edges lose, held & those bits, path or None)
        self.witnesses: dict = {}  # witness set's component mask -> its _Verdicts and base state
        self.untried_sets: dict = {}  # first-deviation offset -> its kept witness masks
        self.start_digits, self.end_digits = k.digits(start), k.digits(end)
        self.effect = tuple(k.places[i] + (self.end_digits[i],) for i in map(k.position, effect_components))
        # state -> (end mask, effect key); state -> (bits its edges lose, AC1 edge triples)
        self.state_marks, self.state_edges = shared.ac1.setdefault((k, self.end, self.effect), ({}, {}))

    def marks(self, s: int) -> tuple[int, int]:
        """The end mask of ``s``, bit i set when component i has its end-state
        behaviour, and its effect key, the effect components' part of ``s``."""
        found = self.state_marks.get(s)
        if found is None:
            mask = sum(1 << i for i, (d, b) in enumerate(zip(self.k.digits(s), self.end_digits)) if d == b)
            found = self.state_marks[s] = (mask, sum(s // w % r * w for w, r, _ in self.effect))
        return found

    def edges(self, s: int) -> tuple[int, tuple[tuple[int, int, bool], ...]]:
        """The union of the end-mask bits ``s``'s edges lose, and ``s``'s
        successors, each with the end-mask bits the edge loses and whether
        it changes the effect key."""
        found = self.state_edges.get(s)
        if found is None:
            mask, key = self.marks(s)
            triples = tuple(
                (g, mask & ~to_mask, key != to_key)
                for g in self.k.successors(s)
                for to_mask, to_key in (self.marks(g),)
            )
            lost = 0
            for _, bits, _ in triples:
                lost |= bits
            found = self.state_edges[s] = (lost, triples)
        return found

    def clauses(self, subset) -> tuple:
        """A candidate's AC1 path, raw contrast and certifying witness, as
        ``_ac1`` and ``_ac2`` give them, once per subset, in its first order."""
        key = tuple(sorted(subset))
        found = self.verdicts.get(key)
        if found is None:
            path = _ac1(self, subset)
            found = self.verdicts[key] = (path, *(_ac2(self, subset) if path else (None, None)))
        return found

    def witness(self, mask: int) -> tuple[_Verdicts, int]:
        """A witness set's effect verdicts under its clamp, and its base: the
        start state moved by the clamp, to which a deviation's offset adds.
        The set is given as its component mask, bit i for component i."""
        if (log := kernel.recorder()) is not None:
            log.append(("witness", mask))
        found = self.witnesses.get(mask)
        if found is None:
            k = self.k
            pins = tuple((i, b) for i, b in enumerate(self.end_digits) if mask >> i & 1)
            base = self.start + sum((b - self.start_digits[i]) * k.weights[i] for i, b in pins)
            found = self.witnesses[mask] = (self.shared.verdicts_of(k, pins, self.effect), base)
        return found

    def untried(self, offset: int) -> kernel.Kept:
        """The witness sets not yet known to fail at deviation ``offset``, as
        component masks by size, then lexicographic in the component order: on
        the sets disjoint from a candidate, the order of ``combinations`` over
        the rest.  A walk that ends replaces the kept masks with those it kept,
        so a walk cut short by an overrun drops nothing."""
        found = self.untried_sets.get(offset)
        if found is None:
            bits = [1 << i for i in range(len(self.k.names))]
            masks = chain.from_iterable(map(sum, combinations(bits, n)) for n in range(len(bits) + 1))
            found = self.untried_sets[offset] = kernel.Kept(masks)
        return found

    def deviation(self, cause, s: int) -> tuple[tuple[str, str], ...]:
        """The candidate's (name, behaviour) pairs in state ``s``."""
        k = self.k
        places = zip(cause, map(k.index.get, cause))
        return tuple((c, k.domains[i][s // k.weights[i] % k.radices[i]]) for c, i in places)


def _deviation_offsets(e: _Episode, cause):
    """Assignments to the candidate components with at least one component off
    its end-state behaviour, as offsets from the start state (a deviation's
    behaviours are read back from its state when evidence names them), in
    the product order of the domains."""
    k, positions = e.k, [e.k.index[c] for c in cause]
    parts = [[(c - e.start_digits[i]) * k.weights[i] for c in range(k.radices[i])] for i in positions]
    at_end = tuple(p[e.end_digits[i]] for p, i in zip(parts, positions))
    for combo in product(*parts):
        if combo != at_end:
            if (log := kernel.recorder()) is not None:
                log.append(("deviation",))
            yield sum(combo)


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

    A search reads the candidate's held mask only through ``held & lost``,
    so it is fixed by the held bits among those lost by the edges of the
    states it expands.  The episode keeps each search that finished with
    that union of lost bits, the held bits among them and its path; a
    candidate whose held mask agrees with a kept search on its bits takes
    that search's path, since its own search would test every edge alike,
    expand the same states, count the same configurations against the cap
    and return the same path.  A search that overruns the cap ends the
    query, so it is never kept.  So AC1 runs one search per episode on the
    benchmark's fan-in trees and pipelines, where it ran one per candidate.
    """
    held = sum(1 << e.k.index[c] for c in cause)
    if e.shared.mode == "strict" and held & ~e.marks(e.start)[0]:
        return None
    for seen, kept, path in e.runs:
        if held & seen == kept:
            return path

    start = (e.start, False)
    parent: dict = {start: None}
    queue = [start]
    visited = {e.start}  # configurations met: the cap counts these, not pairs
    seen, path, edges, cap = 0, None, e.edges, e.k.options.max_states
    for state in queue:  # grows as it is walked
        f, got_effect = state
        if f == e.end and got_effect:
            path = []
            while state is not None:
                path.append(state[0])
                state = parent[state]
            path = tuple(reversed(path))
            break
        lost_here, out = edges(f)
        seen |= lost_here
        for g, lost, changed in out:
            if held & lost:  # a candidate at its end behaviour in f must keep it
                continue
            reached = (g, got_effect or changed)
            if reached not in parent:
                parent[reached] = state
                queue.append(reached)
                visited.add(g)
        if len(visited) > cap:
            exceeded(cap, "AC1 path search")
    e.runs.append((seen, held & seen, path))
    return path


def _first_effect_reachable(k, start: int, effect) -> int | None:
    """First state strictly reachable from ``start`` in which every
    (weight, radix, code) place of ``effect`` holds its code; ``start``
    itself counts only as its own successor (a self-loop), not at the end of
    a longer cycle."""
    if (log := kernel.recorder()) is not None:
        log.append(("effect search", k.pins, start, effect))

    def goal(g: int) -> bool:
        for w, r, b in effect:
            if g // w % r != b:
                return False
        return g != start or start in k.successors(start)

    return k.search(start, "counterfactual reachability", goal)[1]


def _ac2(e: _Episode, cause):
    """AC2 for one candidate: the raw contrast, the first deviated start from
    which the unclamped effect neither holds nor is ever reached, and the
    certifying witness, the first witness set under which no deviated start
    reaches the effect, with those starts; either is None when there is
    none.  Deviations are made as the checks need them, and each (witness
    set, deviated start) effect search runs at most once per query.

    Witness sets are walked from the episode's ``untried`` list for the
    candidate's first deviation.  Whether a set fails there depends only on
    the set and that start, not on the candidate, so a set found to fail
    there leaves the list; every other candidate with the same first
    deviation would find that verdict in the table and fail at once.  So
    the same effect searches run, in the same order, as walking every set."""
    if (log := kernel.recorder()) is not None:
        log.append(("ac2", cause))
    devs = kernel.Kept(_deviation_offsets(e, cause))
    (unclamped, _), goal = e.witness(0), e.marks(e.end)[1]
    starts = (e.start + o for o in devs)
    contrast = next((s for s in starts if e.marks(s)[1] != goal and not unclamped[s]), None)
    if contrast is None:
        return None, None
    first, held = devs.items[0], sum(1 << e.k.index[c] for c in cause)
    untried = e.untried(first)
    walked, kept = untried.items, []
    for i, mask in enumerate(untried):
        # witnesses are disjoint from the candidate, mirroring the clamp-versus-
        # deviate partition of the counterfactual test
        if mask & held:
            kept.append(mask)
            continue
        table, base = e.witness(mask)
        if table[base + first]:
            continue  # fails at the first deviation, for every candidate that deviates so first
        kept.append(mask)
        # a witness fails at its first deviation from which the effect is reachable
        if not any(map(table.__getitem__, map(base.__add__, islice(devs, 1, None)))):
            untried.items = kept + walked[i + 1 :]
            names = tuple(n for j, n in enumerate(e.k.names) if mask >> j & 1)
            return contrast, (names, [base + o for o in devs.items])
    untried.items = kept
    return contrast, None


def _certificate(e: _Episode, cause) -> CauseCertificate:
    """The certificate of candidate ``cause`` in episode ``e``, with all three
    clause verdicts; its states become configurations, behaviours and a
    clamp only here."""
    if (log := kernel.recorder()) is not None:
        log.append(("certificate", cause))
    path, contrast, witness = e.clauses(cause)
    refutations = []
    if path and witness:
        for size in range(1, len(cause)):
            for sub in combinations(cause, size):
                sub_path, _, sub_witness = e.clauses(sub)
                failed = "AC1" if sub_path is None else "AC2" if sub_witness is None else "none"
                refutations.append(SubsetRefutation(subset=sub, failed_clause=failed))
    k, (names, blocked) = e.k, witness or (None, ())
    return CauseCertificate(
        cause_set=cause,
        witness_set=names,
        clamp=clamping_intervention(k.model, names, e.deviation(names, e.end)) if names else None,
        ac1=path is not None,
        ac2=witness is not None,
        ac3=all(r.failed_clause != "none" for r in refutations),
        mode=e.shared.mode,
        ac1_path=None if path is None else tuple(map(k.decode, path)),
        contrast_deviation=None if contrast is None else e.deviation(cause, contrast),
        ac2_checks=tuple(DeviationCheck(deviation=e.deviation(cause, s), start=k.decode(s), ok=True) for s in blocked),
        ac3_refutations=tuple(refutations),
    )


def check_cause(
    model: SystemModel,
    q: CauseQuery,
    cause,
    options: Options = DEFAULT_OPTIONS,
) -> CauseCertificate:
    """Certificate for one candidate cause, with all three clause verdicts."""
    cause = tuple(dict.fromkeys(cause))
    if not cause:
        raise ModelError("empty candidate cause set")
    for c in cause:
        model.component(c)
    k = kernel.compile(model, options)
    e = _Episode(k, k.encode(q.start), k.encode(q.end), q.effect_components, _Shared(options))
    return _certificate(e, cause)


def find_causes(
    model: SystemModel,
    q: CauseQuery,
    options: Options = DEFAULT_OPTIONS,
) -> list[CauseCertificate]:
    """All inclusion-minimal certified causes, in canonical order.

    Candidates range over components disjoint from the effect: a component
    of the effect would witness counterfactual dependence of the effect on
    itself, which certifies nothing.
    """
    k = kernel.compile(model, options)
    e = _Episode(k, k.encode(q.start), k.encode(q.end), q.effect_components, _Shared(options))
    return list(_certified_causes(e))


def _certified_causes(e: _Episode):
    """Inclusion-minimal certified causes of episode ``e``, in canonical order, lazily."""
    certified: list[CauseCertificate] = []
    for size in range(1, len(e.candidates) + 1):
        for cand in combinations(e.candidates, size):
            if any(set(c.cause_set) < set(cand) for c in certified):
                continue
            path, _, witness = e.clauses(cand)
            if path and witness:
                # AC3 holds: a proper subset that passed would be a cause found earlier,
                # and this superset skipped; the certificate's refutations are memo hits
                cert = _certificate(e, cand)
                certified.append(cert)
                yield cert


# ---------------------------------------------------------------------------
# causal chains and projections


@record
class ChainLink:
    effect_components: tuple[str, ...]
    certificate: CauseCertificate


@record
class CausalChain:
    """Waypoint sequence where every consecutive pair is causally certified
    and no waypoint can be dropped without breaking certification: no
    interior waypoint's two neighbours have a certified link of their own."""

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


@record
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
        return b in self.k.reachable(a)

    def __missing__(self, key: tuple[int, int, tuple[str, ...] | None]) -> ChainLink | None:
        a, b, effect = key
        if (log := kernel.recorder()) is not None:
            log.append(("link", a, b, effect))
        found = None
        if a != b and self.realizable(a, b):
            k = self.k
            effect = effect or tuple(n for n, x, y in zip(k.names, k.digits(a), k.digits(b)) if x != y)
            cert = next(_certified_causes(_Episode(k, a, b, effect, self.shared)), None)
            if cert is not None:
                found = ChainLink(effect_components=effect, certificate=cert)
        self[key] = found
        return found


def check_max_len(max_len: int) -> None:
    """Reject a waypoint bound that leaves no room for a chain's two endpoints."""
    if max_len < 2:
        raise ModelError("max_len must be at least 2")


def find_causal_chains(
    model: SystemModel,
    f_start: Configuration,
    f_end: Configuration,
    max_len: int = CHAIN_MAX_LEN,
    effect_components=None,
    options: Options = DEFAULT_OPTIONS,
) -> list[CausalChain]:
    """All minimal certified chains from f_start to f_end with at most max_len waypoints.

    The explicit effect components, when given, apply to the final link;
    interior links use the components changed across the link.  Chains with
    equal endpoints are empty by definition (at least two distinct
    waypoints are required).

    Dropping an interior waypoint b between neighbours a and c replaces only
    the links (a, b) and (b, c) by (a, c), and a link depends on its two
    states alone (the explicit effect applies when its end is f_end), so a
    chain is minimal exactly when no such shortcut (a, c) is certified.
    The search extends a prefix ending in a, b by c, or closes it with the
    end, only when that shortcut fails; the chains and their order are those
    of trying every permutation and keeping the minimal ones.  The shortcut
    (a, end) of a close does not depend on the last middle, so a prefix
    ending in a that is one waypoint short of its pass takes no last middle
    once the link table holds (a, end) certified.  That test reads the table
    without a lookup, and is made again each time the prefix resumes: the
    first middle to pass its own checks looks (a, end) up at its close.
    """
    check_max_len(max_len)
    k = kernel.compile(model, options)
    start, end = k.encode(f_start), k.encode(f_end)  # encoding validates them
    links = _Links(k, _Shared(options))  # every link reuses the variants and verdicts of the others
    if start == end:
        return []
    final_effect = tuple(effect_components) if effect_components else None

    def link(a: int, b: int) -> ChainLink | None:
        # waypoints are distinct, so only the final link ends at ``end``
        return links[a, b, final_effect if b == end else None]

    def shortcut(prefix, g) -> bool:
        # the link left if ``g`` followed the prefix without its last waypoint
        found = len(prefix) > 1 and link(prefix[-2], g) is not None
        if found and (log := kernel.recorder()) is not None:
            log.append(("prune", "close" if g == end else "extension"))
        return found

    if not links.realizable(start, end):
        return []
    out: list[CausalChain] = []
    # waypoint middles must sit between the endpoints in the closure
    middles = [g for g in k.reachable(start) if g not in (start, end) and links.realizable(g, end)]

    # waypoints are distinct, so no chain is longer than every middle plus the endpoints
    for n in range(2, min(max_len, len(middles) + 2) + 1):
        # prefixes of the chains with n waypoints, depth first in permutation
        # order, each with the middles it has yet to try; a waypoint whose
        # link fails, or whose shortcut certifies, is skipped with every
        # extension of it
        stack = [((start,), iter(middles))]
        while stack:
            prefix, todo = stack[-1]
            if len(prefix) == n - 1:
                stack.pop()
                if not shortcut(prefix, end) and link(prefix[-1], end) is not None:
                    seq = prefix + (end,)
                    chain_links = tuple(map(link, seq, seq[1:]))
                    out.append(CausalChain(configurations=tuple(map(k.decode, seq)), links=chain_links))
                continue
            if len(prefix) == n - 2 and links.get((prefix[-1], end, final_effect)) is not None:
                # every close (…, a, g, end) has the certified shortcut (a, end), whatever g
                if (log := kernel.recorder()) is not None:
                    log.append(("prune", "last middle"))
                stack.pop()
                continue
            for g in todo:
                if g not in prefix and not shortcut(prefix, g) and link(prefix[-1], g) is not None:
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
    k = kernel.compile(model, options)
    members = {k.encode(g): g for g in ordered}
    edges = []
    for s, g in members.items():
        for h in k.successors(s):
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


@record
class ChainClassification:
    verdict: str  # preserved | disrupted | indeterminate
    detail: str
    link_causes: tuple[tuple[str, ...], ...]
    recertified: tuple[CauseCertificate, ...] = ()
    broken_link: int | None = None


def classify_intervention_effect(
    model: SystemModel,
    chain: CausalChain,
    iv: Intervention,
    options: Options = DEFAULT_OPTIONS,
) -> ChainClassification:
    """Preserved, disrupted, or indeterminate fate of a chain under an intervention.

    The per-link cause set is the union of all minimal causes of the link;
    preserved requires no overlap with the targets plus full
    re-certification in the intervened model, disrupted requires an
    overlapping link whose closure transition disappears, and anything in
    between is reported as indeterminate rather than guessed.
    """
    k = kernel.compile(model, options)
    seq = chain.configurations
    states = [k.encode(g) for g in seq]  # encoding validates them
    effects = [tuple(l.effect_components) for l in chain.links]
    shared = _Shared(options)
    link_cause_union: list[tuple[str, ...]] = []
    for i in range(len(seq) - 1):
        union: dict[str, None] = {}
        for cert in _certified_causes(_Episode(k, states[i], states[i + 1], effects[i], shared)):
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
