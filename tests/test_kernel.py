"""Differential tests: the compiled state space against the tuple-based
successor and reachability code it replaced.

``ref_successors`` and ``ref_reachable`` are copies of the engine's
original bodies, kept here as the reference; they walk ``Configuration``
values and re-match rule rows on every call.  ``ref_reachable`` checks the
state cap as each configuration is added, the start included.
"""

import ast
import gc
import random
from itertools import product
from pathlib import Path

import oracle
import pytest

from causalmc import formulas as F
from causalmc import replace
from causalmc.generate import random_configuration, random_system_model
from causalmc.kernel import compile
from causalmc.model import (
    CapExceeded,
    Configuration,
    ModelError,
    Options,
    apply_intervention,
    clamping_intervention,
    conjugate_decompose,
    reachable,
    successors,
)
from causalmc.semantics import candidate_splits, evaluate

REPO = Path(__file__).resolve().parents[1]


def _assign(f, component, behaviour):
    return Configuration(tuple((c, behaviour if c == component else b) for c, b in f.pairs))


def ref_successors(model, f, options):
    model.validate_configuration(f)
    out = []
    seen = set()
    self_loop = False

    def push(g):
        if g not in seen:
            seen.add(g)
            out.append(g)

    if model.mode == "async":
        for decl in model.components:
            current = f[decl.name]
            if decl.free:
                for b in decl.domain:
                    if b != current:
                        push(_assign(f, decl.name, b))
                self_loop = True
                continue
            nxt = decl.rule.apply(current, tuple(f[d] for d in decl.context))
            if nxt == current:
                self_loop = True
            else:
                push(_assign(f, decl.name, nxt))
        if options.self_loops and self_loop:
            push(f)
        return out

    if model.mode == "sync":
        choice_sets = []
        for decl in model.components:
            if decl.free:
                choice_sets.append(decl.domain)
            else:
                nxt = decl.rule.apply(f[decl.name], tuple(f[d] for d in decl.context))
                choice_sets.append((nxt,))
        names = model.component_order
        for combo in product(*choice_sets):
            g = Configuration(tuple(zip(names, combo)))
            if g == f and not options.self_loops:
                continue
            push(g)
        return out

    raise ModelError(f"unknown transition mode {model.mode!r}")


def ref_reachable(model, f, options):
    held = set()  # f and every configuration queued, counted as each is added

    def hold(g):
        held.add(g)
        if len(held) > options.max_states:
            raise CapExceeded(options.max_states, len(held), "reachable set")

    hold(f)
    frontier = ref_successors(model, f, options)
    visited = {}
    queue = list(frontier)
    for g in frontier:
        visited[g] = None
        hold(g)
    i = 0
    while i < len(queue):
        g = queue[i]
        i += 1
        for h in ref_successors(model, g, options):
            if h not in visited:
                visited[h] = None
                hold(h)
                queue.append(h)
    return list(visited)


def _outcome(search):
    try:
        return search()
    except CapExceeded as exc:
        return ("cap", exc.cap, exc.size, exc.what, str(exc))


def _agree(ref_model, make, starts, rng):
    """Successor and reachable lists in identical order, and the same cap
    overrun, also when the capped search is asked again of the same kernel.
    ``make(options)`` is the kernel under test, compiled under ``options``."""
    for self_loops in (False, True):
        options = Options(self_loops=self_loops)
        kernel = make(options)
        for f in starts:
            s = kernel.encode(f)
            got = [kernel.decode(g) for g in kernel.successors(s)]
            assert got == ref_successors(ref_model, f, options)
            want = ref_reachable(ref_model, f, options)
            assert [kernel.decode(g) for g in kernel.reachable(s)] == want
            held = len(want) + (f not in want)  # the start counts towards the cap
            for cap in {-1, held - 1, held, rng.randrange(held + 1)}:
                capped = make(Options(self_loops=self_loops, max_states=cap))
                for _ in range(2):  # the second search is a memo hit when the first fitted
                    assert _outcome(lambda: [capped.decode(g) for g in capped.reachable(s)]) == _outcome(
                        lambda: ref_reachable(ref_model, f, capped.options)
                    )


def _models(count):
    for seed in range(count):
        rng = random.Random(seed)
        model = random_system_model(rng, max_components=4, max_behaviours=3, max_rows=4, n_interventions=2)
        yield rng, replace(model, mode=("async", "sync")[seed % 2])


def _starts(rng, model, n=4):
    return [random_configuration(rng, model) for _ in range(n)]


def test_kernel_matches_reference_on_random_models():
    for rng, model in _models(240):
        _agree(model, lambda options: compile(model, options), _starts(rng, model), rng)


def test_public_functions_match_reference():
    for rng, model in _models(60):
        for self_loops in (False, True):
            options = Options(self_loops=self_loops)
            for f in _starts(rng, model, 2):
                assert successors(model, f, options) == ref_successors(model, f, options)
                assert reachable(model, f, options) == ref_reachable(model, f, options)


def test_partial_models_with_free_components_match_reference():
    sides = 0
    for rng, model in _models(200):
        for split in candidate_splits(model, Options(allow_trivial_split=True))[:3]:
            for side in conjugate_decompose(model, split):
                if side.partial:
                    sides += 1
                    _agree(side, lambda options: compile(side, options), _starts(rng, side, 2), rng)
    assert sides > 100


def test_clamped_variants_match_apply_intervention():
    for rng, model in _models(200):
        names = rng.sample(model.component_order, rng.randint(1, len(model.component_order)))
        values = {n: rng.choice(model.behaviours(n)) for n in names}
        targets = tuple(n for n in model.component_order if n in values)
        kernel = compile(model)
        pins = tuple((kernel.index[t], kernel.codes[kernel.index[t]][values[t]]) for t in targets)
        ref_model = apply_intervention(model, clamping_intervention(model, targets, values))
        _agree(ref_model, lambda options: compile(model, options).pinned(pins), _starts(rng, model, 3), rng)


def test_intervened_variants_share_untouched_tables(micro, micro_f1):
    kernel = compile(micro)
    iv = micro.intervention_map["theta1"]
    variant = kernel.intervened(iv)
    assert variant is kernel.intervened(iv)
    assert variant.model is kernel.model == micro
    target = kernel.index["UserDB"]
    for i, (a, b) in enumerate(zip(kernel.rules, variant.rules)):
        assert (a is b) == (i != target)

    def intervened(options):
        return compile(micro, options).intervened(iv)

    _agree(apply_intervention(micro, iv), intervened, [micro_f1], random.Random(0))


def test_a_variant_is_a_kernel_over_the_model_it_was_made_from(micro):
    """An intervened or pinned variant builds no model: it reads the model of
    the kernel it was made from, and so does a variant of a variant."""
    k = compile(micro)
    assert k.model == micro
    intervened = k.intervened(micro.intervention_map["theta1"])
    pinned = k.pinned(((0, 1),))
    assert intervened.model is pinned.model is k.model
    assert intervened.intervened(micro.intervention_map["thetaLog"]).model is k.model
    assert intervened.pinned(((1, 0),)).model is k.model


def test_a_kernel_outlives_the_model_it_was_compiled_from(micro_doc):
    """A kernel holds its own copy of the model, so a kernel compiled from a
    model built for one expression still encodes, steps and intervenes once
    that model is freed."""
    micro, f1 = micro_doc.model, micro_doc.configuration("f1")
    iv = micro.intervention_map["theta1"]
    k = compile(replace(micro))
    gc.collect()
    s = k.encode(f1)
    assert [k.decode(g) for g in k.successors(s)] == successors(micro, f1)
    intervened = k.intervened(iv)
    assert [intervened.decode(g) for g in intervened.successors(s)] == successors(apply_intervention(micro, iv), f1)


def test_state_cap_counts_the_start_as_the_oracle_does():
    """With ``--max-states N`` from -1 to 5, ``Kernel.reachable`` and a
    top-level ``<>+``/``[]+`` raise exactly when ``tests/oracle.py`` counts
    more than N states in {s} and the states strictly reachable from s, and
    report N + 1 (1 when N < 0).  Each run compiles a fresh copy of the
    model, so every search and walk starts from nothing."""
    outcomes = {"raised": 0, "fits": 0}
    for seed in range(60):
        rng = random.Random(seed)
        model = random_system_model(rng, max_components=3, max_behaviours=3, max_rows=4)
        reach = oracle._closure(oracle.states(model), lambda t: oracle.step_successors(model, t))
        atom = F.Atom(model.atoms[0].name)
        for f in _starts(rng, model, 3):
            start = tuple(b for _, b in f.pairs)
            count = len({start} | reach[start])
            for cap in range(-1, 6):
                options = Options(max_states=cap)
                want = ("reachable set", cap, max(cap, 0) + 1) if count > cap else None
                for run in (
                    lambda m: reachable(m, f, options),
                    lambda m: evaluate(m, f, F.DiamondPlus(atom), options),
                    lambda m: evaluate(m, f, F.BoxPlus(atom), options),
                ):
                    try:
                        run(replace(model))
                        got = None
                    except CapExceeded as exc:
                        got = (exc.what, exc.cap, exc.size)
                    assert got == want, (seed, f, cap, count)
                outcomes["raised" if want else "fits"] += 1
    assert min(outcomes.values()) > 200, outcomes


def test_enumeration_order_is_state_order():
    for _, model in _models(40):
        kernel = compile(model)
        # the domains' product, the last component varying fastest
        domains = [c.domain for c in model.components]
        configs = [model.configuration(zip(model.component_order, v)) for v in product(*domains)]
        assert [kernel.encode(f) for f in configs] == list(range(kernel.size))
        assert [kernel.decode(s) for s in range(kernel.size)] == configs


def test_compile_is_cached_per_instance(micro):
    """A model holds one kernel, that of the options it was last compiled
    under; its variants run under the same options."""
    k = compile(micro)
    assert compile(micro, Options()) is k
    loops = compile(micro, Options(self_loops=True))
    assert loops is not k and loops.options == Options(self_loops=True)
    assert compile(micro, Options(self_loops=True)) is loops
    assert loops.intervened(micro.intervention_map["theta1"]).options is loops.options
    assert loops.pinned(((0, 1),)).options is loops.options
    assert compile(micro) is not k and compile(micro) is compile(micro)
    assert compile(replace(micro, mode="sync")) is not compile(micro)


def test_answers_do_not_depend_on_the_options_compiled_before(micro, micro_f1):
    """Alternating options on one model instance recompiles its kernel each
    time; every answer equals that of a fresh instance, and a kernel a
    caller still holds keeps its own options and memos."""
    loops = Options(self_loops=True)
    held = compile(micro, loops)
    phi = F.DiamondPlus(F.Atom("phi_fail"))
    for options in (Options(), loops, Options(max_states=3), Options(), loops):
        fresh = replace(micro)
        for run in (lambda m: reachable(m, micro_f1, options), lambda m: evaluate(m, micro_f1, phi, options)):
            assert _outcome(lambda: run(micro)) == _outcome(lambda: run(fresh))
    assert held.options == loops
    assert [held.decode(g) for g in held.successors(held.encode(micro_f1))] == successors(replace(micro), micro_f1, loops)


@pytest.mark.parametrize("path", ["src/causalmc/hp.py", "tests/oracle.py"])
def test_reference_implementations_do_not_import_the_kernel(path):
    tree = ast.parse((REPO / path).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not any("kernel" in name for name in imported)
