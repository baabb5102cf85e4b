"""Brute-force enumerator for the three cause clauses.

Deliberately independent of the search engine: configurations are bare
behaviour tuples, rule matching is re-implemented inline, actuality uses a
transitive-closure matrix over the hold-admissible edge relation instead
of a breadth-first path search, and the counterfactual clause enumerates
every (witness, deviation) pair directly.  Only the model datatypes are
shared, for field access.

The step, reachability and clause functions take the query's ``Options``
as ``options``, read as the engine reads them: the transition mode is the
options', else the model's; ``self_loops`` adds a configuration to its
own successors; and ``strict_ac1`` asks actuality for candidates that
start at their end-state behaviours.  The default, ``ASYNC``, steps
asynchronously without self-loops under the example AC1 clause, whatever
mode the model declares.
"""

from __future__ import annotations

from itertools import combinations, product

from causalmc.model import Options

ASYNC = Options(mode="async")


def states(model):
    return list(product(*(c.domain for c in model.components)))


def _index(model):
    return {name: i for i, name in enumerate(model.component_order)}


def _next_value(decl, own, ctx_vals):
    for row in decl.rule.rows:
        if row.own is not None and row.own != own:
            continue
        bad = False
        for pat, val in zip(row.context, ctx_vals):
            if pat is not None and pat != val:
                bad = True
                break
        if not bad:
            return row.output
    return own


def step_successors(model, t, clamps=None, options=ASYNC):
    """Successors of a behaviour tuple; clamped components use a constant
    rule instead of their table.  An asynchronous step rewrites one
    component, a synchronous one every component at once.  ``t`` is its own
    successor only with self-loops: asynchronously when some component keeps
    its behaviour, synchronously when the rewrite gives ``t`` back."""
    idx = _index(model)
    clamps = clamps or {}
    nexts = []
    for i, decl in enumerate(model.components):
        if i in clamps:
            nexts.append(clamps[i])
        else:
            ctx_vals = tuple(t[idx[d]] for d in decl.context)
            nexts.append(_next_value(decl, t[i], ctx_vals))
    if (options.mode or model.mode) == "sync":
        out = {tuple(nexts)}
    else:
        out = {t[:i] + (nxt,) + t[i + 1 :] for i, nxt in enumerate(nexts)}
    if not options.self_loops:
        out.discard(t)
    return out


def _closure(nodes, edge):
    """Reachability-in-one-or-more-steps matrix by iterated expansion."""
    reach = {u: set(edge(u)) for u in nodes}
    changed = True
    while changed:
        changed = False
        for u in nodes:
            grown = set()
            for v in reach[u]:
                grown |= reach[v]
            if not grown <= reach[u]:
                reach[u] |= grown
                changed = True
    return reach


def effect_reachable(model, start, effect_vals, clamps, options=ASYNC):
    """Some tuple strictly reachable from start carries every effect value;
    start counts only as its own successor, not at the end of a longer
    cycle."""
    idx = _index(model)
    want = [(idx[c], b) for c, b in effect_vals.items()]
    seen = {start}
    stack = list(step_successors(model, start, clamps, options))
    seen |= set(stack)
    while stack:
        t = stack.pop()
        if all(t[i] == b for i, b in want):
            return True
        for u in step_successors(model, t, clamps, options):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return False


def actuality(model, start, end, effect_names, cause_names, options=ASYNC):
    """A hold-from-attainment path from start to end exists on which at
    least one effect component updates; under strict AC1, every cause
    component also starts at its end-state behaviour.  The closure runs over
    the (tuple, effect updated) pairs reachable from (start, False)."""
    idx = _index(model)
    cause_idx = [idx[c] for c in cause_names]
    effect_idx = [idx[c] for c in effect_names]
    if options.strict_ac1 and any(start[i] != end[i] for i in cause_idx):
        return False

    def admissible_from(node):
        u, bit = node
        out = set()
        for v in step_successors(model, u, None, options):
            if all(v[i] == end[i] for i in cause_idx if u[i] == end[i]):
                out.add((v, bit or any(u[i] != v[i] for i in effect_idx)))
        return out

    edges, todo = {}, [(start, False)]
    while todo:
        node = todo.pop()
        if node not in edges:
            edges[node] = admissible_from(node)
            todo += edges[node]
    reach = _closure(list(edges), edges.__getitem__)
    return (end, True) in reach[(start, False)]


def _raw_but_for(model, start, end, effect_names, cause_names, options=ASYNC):
    """Some full-candidate deviation avoids the effect from the unclamped start."""
    idx = _index(model)
    effect_vals = {c: end[idx[c]] for c in effect_names}
    dev_domains = [model.component(c).domain for c in cause_names]
    for combo in product(*dev_domains):
        if not any(v != end[idx[c]] for c, v in zip(cause_names, combo)):
            continue
        t = list(start)
        for c, v in zip(cause_names, combo):
            t[idx[c]] = v
        t = tuple(t)
        if all(t[i] == b for i, b in ((idx[c], b) for c, b in effect_vals.items())):
            continue
        if not effect_reachable(model, t, effect_vals, {}, options):
            return True
    return False


def counterfactual(model, start, end, effect_names, cause_names, options=ASYNC):
    """A raw but-for contrast exists, and some witness set makes every
    deviation of the remaining cause components unable to reproduce the
    effect."""
    if not _raw_but_for(model, start, end, effect_names, cause_names, options):
        return False
    idx = _index(model)
    cause_set = set(cause_names)
    names = [n for n in model.component_order if n not in cause_set]
    effect_vals = {c: end[idx[c]] for c in effect_names}
    for k in range(len(names) + 1):
        for witness in combinations(names, k):
            free = [c for c in cause_names if c not in witness]
            if not free:
                continue
            dev_domains = [model.component(c).domain for c in free]
            deviations = [
                combo
                for combo in product(*dev_domains)
                if any(v != end[idx[c]] for c, v in zip(free, combo))
            ]
            if not deviations:
                continue
            clamps = {idx[w]: end[idx[w]] for w in witness}
            ok = True
            for combo in deviations:
                t = list(start)
                for w in witness:
                    t[idx[w]] = end[idx[w]]
                for c, v in zip(free, combo):
                    t[idx[c]] = v
                if effect_reachable(model, tuple(t), effect_vals, clamps, options):
                    ok = False
                    break
            if ok:
                return True
    return False


def passes_first_two(model, start, end, effect_names, cause_names, memo, options=ASYNC):
    key = frozenset(cause_names)
    if key not in memo:
        memo[key] = actuality(model, start, end, effect_names, cause_names, options) and counterfactual(
            model, start, end, effect_names, cause_names, options
        )
    return memo[key]


def oracle_find_causes(model, start_config, end_config, effect_names, *, options=ASYNC):
    """Inclusion-minimal effect-disjoint component sets passing all three clauses."""
    start = tuple(start_config[c] for c in model.component_order)
    end = tuple(end_config[c] for c in model.component_order)
    names = [n for n in model.component_order if n not in set(effect_names)]
    memo: dict = {}
    passing = []
    for k in range(1, len(names) + 1):
        for cand in combinations(names, k):
            if passes_first_two(model, start, end, effect_names, cand, memo, options):
                passing.append(frozenset(cand))
    return {s for s in passing if not any(t < s for t in passing)}
