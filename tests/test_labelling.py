"""Differential tests: formula evaluation and split search against the
top-down evaluator and the 3^n split filter they replaced.

``ref_eval`` and ``ref_candidate_splits`` are copies of the engine's
earlier bodies, kept here as the reference: ``ref_eval`` evaluates every
subformula afresh on every path that reaches it, with the one addition
that it tracks which states the engine's closure walks hold, and builds
each intervened model itself with ``apply_intervention``, so a fault in
the engine's variants shows; and
``ref_candidate_splits`` filters all 3^n placements with ``ref_local``, a
copy of the set-based locality rule ``interface_violations`` once spelled
out, so the engine's one shared rule is not checked against itself.
Verdicts, witness lists, cap overruns and split lists must agree exactly.
"""

import random
import sys
import time
from collections import Counter
from functools import cache
from itertools import product
from pathlib import Path

import pytest

from causalmc import formulas as F
from causalmc import kernel, replace
from causalmc.dsl import parse_model
from causalmc.generate import random_configuration, random_system_model
from causalmc.model import (
    CapExceeded,
    InterfaceSplit,
    ModelError,
    Options,
    UnknownNameError,
    apply_intervention,
    check_interface,
    conjugate_decompose,
)
from causalmc.semantics import atom_test, candidate_splits, evaluate, sat_set

REPO = Path(__file__).resolve().parents[1]


def ref_local(model, left, right):
    ls, rs = set(left), set(right)
    for c in model.components:
        inf = set(c.context)
        if c.name in ls and c.name in rs:
            if not (inf <= ls or inf <= rs):
                return False
        elif c.name in ls:
            if not inf <= ls:
                return False
        elif not inf <= rs:
            return False
    return True


def ref_candidate_splits(model, options):
    names = model.component_order
    out = []
    for placement in product(("L", "R", "B"), repeat=len(names)):
        left = tuple(n for n, p in zip(names, placement) if p in ("L", "B"))
        right = tuple(n for n, p in zip(names, placement) if p in ("R", "B"))
        if not left or not right or not ref_local(model, left, right):
            continue
        split = InterfaceSplit(left, right)
        if split.proper or options.allow_trivial_split:
            out.append(split)
    return out


@cache  # models are values; this only saves rebuilding the same sides
def ref_sides(model, allow_trivial_split):
    splits = ref_candidate_splits(model, Options(allow_trivial_split=allow_trivial_split))
    return [(split, conjugate_decompose(model, split)) for split in splits]


def ref_decompositions(k, s, options):
    digits = k.digits(s)
    for split, models in ref_sides(k.model, options.allow_trivial_split):
        # a side over every component is the model itself, and shares its walks
        sides = [k if m.component_order == k.names else kernel.compile(m, options) for m in models]
        yield (split,) + tuple(
            (side, sum(digits[k.index[c]] * w for c, w in zip(side.names, side.weights))) for side in sides
        )


@cache
def witness_free(phi) -> bool:
    witnessing = (F.Intervene, F.InterveneExists, F.Star)
    return F.fold(phi, lambda node, subs: all(subs) and not isinstance(node, witnessing))


def ref_closure(k, s, phi, options, walked):
    """The states a ``[]+`` or ``<>+`` at ``s`` ranges over.  A witness-free
    one is answered from walks: ``walked`` holds, per variant, the states
    every walk of the call has entered, and asked at a state outside them it
    walks that state and all it reaches, raising when they hold more than
    the cap.  Any other closure searches from ``s`` alone.  (``walked`` also
    keeps the call's intervened models, by kernel and intervention.)  A
    walk from ``s`` holds every state of the search from ``s``, so where
    that search overruns the cap, so does the walk, with the same overrun."""
    states = k.reachable(s)
    if not witness_free(phi):
        return states
    held = walked.setdefault(k, set())
    if s not in held:
        held.add(s)
        held.update(states)
        if len(held) > options.max_states:
            raise CapExceeded(options.max_states, max(options.max_states, 0) + 1, "reachable set")
    return states


def ref_sat_set(model, phi, options):
    k, walked = kernel.compile(model, options), {}
    return [k.decode(s) for s in k.configurations() if ref_eval(k, s, phi, options, None, walked)]


def ref_eval(k, s, phi, options, witnesses, walked) -> bool:
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
        return not ref_eval(k, s, phi.sub, options, witnesses, walked)
    if isinstance(phi, F.And):
        return ref_eval(k, s, phi.left, options, witnesses, walked) and ref_eval(
            k, s, phi.right, options, witnesses, walked
        )
    if isinstance(phi, F.Or):
        return ref_eval(k, s, phi.left, options, witnesses, walked) or ref_eval(
            k, s, phi.right, options, witnesses, walked
        )
    if isinstance(phi, F.Implies):
        return (not ref_eval(k, s, phi.left, options, witnesses, walked)) or ref_eval(
            k, s, phi.right, options, witnesses, walked
        )
    if isinstance(phi, F.Box):
        states = k.successors(s)
        return all(ref_eval(k, g, phi.sub, options, witnesses, walked) for g in states)
    if isinstance(phi, F.Diamond):
        states = k.successors(s)
        return any(ref_eval(k, g, phi.sub, options, witnesses, walked) for g in states)
    if isinstance(phi, F.BoxPlus):
        states = ref_closure(k, s, phi, options, walked)
        return all(ref_eval(k, g, phi.sub, options, witnesses, walked) for g in states)
    if isinstance(phi, F.DiamondPlus):
        states = ref_closure(k, s, phi, options, walked)
        return any(ref_eval(k, g, phi.sub, options, witnesses, walked) for g in states)
    if isinstance(phi, F.Intervene):
        iv = k.model.intervention_map.get(phi.name)
        if iv is None:
            if k.model.partial:
                return False
            raise UnknownNameError(f"unresolved intervention name {phi.name!r}")
        # the intervened model, built here rather than by the engine's
        # variants, once per (kernel, intervention) in the call, so that the
        # walks of its kernel are the call's
        model = walked.get((k, iv))
        if model is None:
            model = walked[k, iv] = apply_intervention(k.model, iv)
        intervened = kernel.compile(model, options)
        for g in intervened.successors(s):
            if ref_eval(intervened, g, phi.sub, options, witnesses, walked):
                if witnesses is not None:
                    successor = intervened.decode(g).as_dict()
                    witnesses.append({"op": "intervention", "name": phi.name, "successor": successor})
                return True
        return False
    if isinstance(phi, F.InterveneExists):
        for iv in k.model.interventions:
            if ref_eval(k, s, F.Intervene(iv.name, phi.sub), options, witnesses, walked):
                if witnesses is not None:
                    witnesses.append({"op": "exists-intervention", "name": iv.name})
                return True
        return False
    if isinstance(phi, F.Star):
        for split, (left, lf), (right, rf) in ref_decompositions(k, s, options):
            if ref_eval(left, lf, phi.left, options, witnesses, walked) and ref_eval(
                right, rf, phi.right, options, witnesses, walked
            ):
                if witnesses is not None:
                    witnesses.append({"op": "star", "left": list(split.left), "right": list(split.right)})
                return True
        return False
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# generated inputs

_UNARY = (F.Not, F.Box, F.Diamond, F.BoxPlus, F.DiamondPlus, F.InterveneExists)
_BINARY = (F.And, F.Or, F.Implies, F.Star)


def random_formula(rng, model, depth):
    if depth == 0 or rng.random() < 0.2:
        pick = rng.randrange(4)
        if pick == 0:
            return rng.choice((F.TRUE, F.FALSE))
        if pick == 1:
            return F.Atom(rng.choice(model.atoms).name)
        comp = rng.choice(model.components)
        return F.BehaviourAtom(comp.name, rng.choice(comp.domain))
    pick = rng.randrange(len(_UNARY) + len(_BINARY) + 1)
    if pick < len(_UNARY):
        return _UNARY[pick](random_formula(rng, model, depth - 1))
    pick -= len(_UNARY)
    if pick < len(_BINARY):
        return _BINARY[pick](random_formula(rng, model, depth - 1), random_formula(rng, model, depth - 1))
    names = [iv.name for iv in model.interventions] or ["nope"]
    return F.Intervene(rng.choice(names), random_formula(rng, model, depth - 1))


def _outcome(run):
    witnesses: list = []
    try:
        return run(witnesses), witnesses
    except CapExceeded as exc:
        return ("cap", exc.cap, exc.size, exc.what, str(exc)), witnesses
    except ModelError as exc:
        return (type(exc).__name__, str(exc)), witnesses


def _agree(model, f, phi, options, tally):
    k = kernel.compile(model, options)
    got = _outcome(lambda w: evaluate(model, f, phi, options, w))
    want = _outcome(lambda w: ref_eval(k, k.encode(f), phi, options, w, {}))
    assert got == want, F.pretty(phi)
    verdict, witnesses = got
    tally["witnessed"] += bool(witnesses)
    tally["cap"] += isinstance(verdict, tuple) and verdict[0] == "cap"
    tally["true"] += verdict is True


def _cases(count, max_components=4):
    for seed in range(count):
        rng = random.Random(seed)
        model = random_system_model(
            rng, max_components=max_components, max_behaviours=3, max_rows=4, n_interventions=2
        )
        options = Options(self_loops=bool(seed // 2 % 2), allow_trivial_split=bool(seed // 4 % 2))
        yield rng, replace(model, mode=("async", "sync")[seed % 2]), options


def test_evaluate_matches_reference_on_random_models():
    tally = {"witnessed": 0, "cap": 0, "true": 0}
    for rng, model, options in _cases(240):
        capped = Options(options.self_loops, options.allow_trivial_split, max_states=rng.randint(0, 3))
        for _ in range(3):
            f = random_configuration(rng, model)
            for _ in range(4):
                phi = random_formula(rng, model, rng.randint(1, 4))
                _agree(model, f, phi, options, tally)
                _agree(model, f, phi, capped, tally)
    assert tally["witnessed"] > 200 and tally["cap"] > 100 and tally["true"] > 500


def test_sat_set_matches_reference():
    for rng, model, options in _cases(80):
        for _ in range(3):
            phi = random_formula(rng, model, 3)
            want = _outcome(lambda w: ref_sat_set(model, phi, options))
            assert _outcome(lambda w: sat_set(model, phi, options)) == want


@pytest.mark.parametrize("doc_name", ["ex1_doc", "micro_doc"])
@pytest.mark.parametrize("trivial", [False, True])
def test_bundled_models_match_reference(request, doc_name, trivial):
    doc = request.getfixturevalue(doc_name)
    rng = random.Random(doc_name)
    formulas = [phi for _, phi in doc.formulas]
    formulas += [q.values["formula"] for q in doc.queries if "formula" in q.values]
    formulas += [random_formula(rng, doc.model, 3) for _ in range(30)]
    tally = {"witnessed": 0, "cap": 0, "true": 0}
    for self_loops in (False, True):
        options = Options(self_loops=self_loops, allow_trivial_split=trivial)
        for _, f in doc.configurations:
            for phi in formulas:
                _agree(doc.model, f, phi, options, tally)
                _agree(doc.model, f, phi, Options(self_loops, trivial, max_states=5), tally)
    assert tally["witnessed"] > 0 and tally["cap"] > 0


def test_candidate_splits_match_reference(ex1, micro):
    unvalidated = replace(ex1, components=(replace(ex1.components[0], context=("nope",)),) + ex1.components[1:])
    models = [ex1, micro, unvalidated] + [model for _, model, _ in _cases(200, max_components=6)]
    found = 0
    for model in models:
        for trivial in (False, True):
            options = Options(allow_trivial_split=trivial)
            got = candidate_splits(model, options)
            assert got == ref_candidate_splits(model, options)
            assert all(type(split) is InterfaceSplit for split in got)
            found += len(got)
    assert found > 1000


_NESTING = (F.BoxPlus, F.DiamondPlus, F.Not)


def nested_closure(rng, model, depth):
    """``depth`` nested ``[]+``, ``<>+`` or ``!`` around a small witness-free
    body, so every closure is labelled from the component walk."""
    phi = random_formula(rng, model, 0)
    if rng.random() < 0.5:
        phi = rng.choice((F.And, F.Or))(phi, random_formula(rng, model, 0))
    for _ in range(depth):
        phi = rng.choice(_NESTING)(phi)
    return phi


def test_nested_closures_match_reference():
    """The random differential above nests ``[]+``/``<>+``/``!`` three deep
    in only a few formulas; this one nests them three to six deep, with and
    without self-loops, at single states and over whole ``sat_set`` calls,
    whose walks grow state by state."""
    tally = {"witnessed": 0, "cap": 0, "true": 0}
    seen = set()
    for rng, model, options in _cases(160):
        capped = Options(options.self_loops, options.allow_trivial_split, max_states=rng.choice((0, 1, 2, 3, 5)))
        for _ in range(4):
            phi = nested_closure(rng, model, rng.randint(3, 6))
            f = random_configuration(rng, model)
            for opts in (options, capped):
                _agree(model, f, phi, opts, tally)
                want = _outcome(lambda w: ref_sat_set(model, phi, opts))
                assert _outcome(lambda w: sat_set(model, phi, opts)) == want, F.pretty(phi)
            seen.add(options.self_loops)
    assert seen == {False, True}
    assert tally["cap"] > 100 and 200 < tally["true"] < 1000


def nested_star(rng, model, depth):
    """A ``*`` whose operands hold ``*``s ``depth - 1`` deep, each bare or
    under ``!``, ``|`` or ``<>``; at depth 0, a small random formula."""
    if depth == 0:
        return random_formula(rng, model, rng.randint(0, 1))
    operands = []
    for _ in range(2):
        phi = nested_star(rng, model, rng.randint(0, depth - 1)) if rng.random() < 0.3 else None
        if phi is None:
            phi = nested_star(rng, model, depth - 1)
            if depth > 1 or rng.random() < 0.5:
                wrap = rng.randrange(4)
                if wrap == 1:
                    phi = F.Not(phi)
                elif wrap == 2:
                    other = random_formula(rng, model, 1)
                    phi = F.Or(phi, other) if rng.random() < 0.5 else F.Or(other, phi)
                elif wrap == 3:
                    phi = F.Diamond(phi)
        operands.append(phi)
    return F.Star(*operands)


@pytest.mark.parametrize("doc_name", ["ex1_doc", "micro_doc"])
@pytest.mark.parametrize("trivial", [False, True])
def test_nested_stars_match_the_eager_split_list(request, doc_name, trivial):
    """Splits are drawn on demand and kept on the kernel, and a ``*`` inside
    an operand of a ``*`` can iterate that same kept list, or a variant's
    shared one, while the outer ``*`` is still drawing from it: with
    trivial splits, a side over every component is the kernel itself.
    Seeded formulas nest ``*`` in ``*`` operands, bare and under ``!``,
    ``|`` and ``<>``; each runs on a fresh kernel at every declared
    configuration, and its verdict and witnesses must equal the reference
    evaluator's, which walks an eager list of every split.  An iteration
    of the kept list that drew from the shared iterator instead of by
    index changed the verdict or witnesses of 37 of ex1's 120 evaluations
    with trivial splits, and of 21 of micro's 80."""
    doc = request.getfixturevalue(doc_name)
    rng = random.Random(f"nested stars {doc_name} {trivial}")
    options = Options(allow_trivial_split=trivial)
    tally = {"witnessed": 0, "cap": 0, "true": 0}
    for _ in range(40):
        phi = nested_star(rng, doc.model, 2)
        for _, f in doc.configurations:
            _agree(replace(doc.model), f, phi, options, tally)
    assert tally["cap"] == 0 and 0 < tally["true"] < 40 * len(doc.configurations)


def test_check_interface_matches_reference_rule(ex1, micro):
    """The set form of the shared locality rule, on random covers."""
    verdicts = []
    for rng, model, _ in [(random.Random(0), ex1, None), (random.Random(1), micro, None)] + list(_cases(200, 6)):
        names = model.component_order
        for _ in range(20):
            placement = [rng.choice("LRB") for _ in names]
            left = [n for n, p in zip(names, placement) if p in "LB"]
            right = [n for n, p in zip(names, placement) if p in "RB"]
            ok = ref_local(model, left, right)
            assert (check_interface(model, left, right, allow_trivial=True) is not None) == ok
            verdicts.append(ok)
    assert 500 < sum(verdicts) < len(verdicts) - 500


def _walks(model, f, phi) -> tuple:
    """``evaluate``'s verdict, and the calls of ``kernel.components``, the
    closure walk, and of ``Kernel.reachable`` it made."""
    with kernel.recording() as events:
        verdict = evaluate(model, f, phi)
    kinds = Counter(event[0] for event in events)
    return verdict, (kinds["walk"], kinds["reachable"])


def test_nested_reachability_walks_once(micro_doc):
    """``(<>+)^k false`` at micro's f1 runs one component walk for every k,
    and no breadth-first search: the walk from f1 covers every state the
    nested closures ask about and labels them all.  Labels are filled
    lazily, so ``(<>+)^3 true`` stops at its first hit."""
    f1 = micro_doc.configuration("f1")
    counts = []
    for depth in range(1, 7):
        model = replace(micro_doc.model)  # a fresh instance: no memo from an earlier depth
        phi = F.FALSE
        for _ in range(depth):
            phi = F.DiamondPlus(phi)
        verdict, walks = _walks(model, f1, phi)
        assert verdict is False
        counts.append(walks)
    assert counts == [(1, 0)] * 6
    assert _walks(replace(micro_doc.model), f1, F.DiamondPlus(F.DiamondPlus(F.DiamondPlus(F.TRUE)))) == (True, (1, 0))


def _ring(n):
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import families
    finally:
        sys.path.pop(0)
    text, names = families.ring(random.Random(0), n)
    doc = parse_model(text)
    return doc, names


def test_ring_closure_labels_from_one_search():
    """``<>+ <>+ false`` at the failing state of a six-node ring labels its
    48 reachable states from one component walk, not one search per state,
    and runs no breadth-first search besides."""
    doc, names = _ring(6)
    phi = F.DiamondPlus(F.DiamondPlus(F.FALSE))
    assert _walks(doc.model, doc.configuration(names["failing"]), phi) == (False, (1, 0))


def test_false_star_builds_one_side_model_per_component_subset():
    """``(true) * (false)`` at the failing state of a six-node ring tries all
    72 splits.  Their 144 sides cover 24 proper component subsets, and each
    subset's side model is built once."""
    doc, names = _ring(6)
    with kernel.recording() as events:
        assert evaluate(doc.model, doc.configuration(names["failing"]), F.Star(F.TRUE, F.FALSE)) is False
    built = [event for event in events if event[0] == "side"]
    assert len(built) == len(set(built)) == 24
    drawn = [split for kind, *split in events if kind == "split"]
    assert drawn == [[split] for split in candidate_splits(doc.model)]


def test_true_star_draws_only_up_to_its_witness():
    """Splits are drawn as they are tried: ``(true) * (true)`` holds at its
    first split of a six-node ring, so it draws that split alone, builds
    its two sides, and lists none of the other 71.  A second ``*`` on the
    same kernel reads the kept split and draws nothing."""
    doc, names = _ring(6)
    model, f = replace(doc.model), doc.configuration(names["failing"])
    first = candidate_splits(doc.model)[0]
    for expected in ([("split", first), ("side", first.left), ("side", first.right)], []):
        with kernel.recording() as events:
            assert evaluate(model, f, F.Star(F.TRUE, F.TRUE)) is True
        assert [e for e in events if e[0] in ("split", "side")] == expected


def test_star_under_an_intervention_builds_its_own_sides():
    """A ``*`` on a ring fills the kernel's side models; a ``*`` under
    ``<pin>``, which pins the last node up, then runs on the intervened
    variant, whose sides must keep the pinned rule.  ``(true) * ([]+
    last_up)`` holds at no state of the four-node ring, and under ``<pin>``
    at 23 of its 24.  Every state agrees with the reference evaluator."""
    doc, names = _ring(4)
    pin, up = names["ivs"][1], F.Atom(names["last_up"])
    star = F.Star(F.TRUE, F.BoxPlus(up))
    tally = {"witnessed": 0, "cap": 0, "true": 0}
    for phi in (F.Or(star, F.Intervene(pin, star)), F.And(F.Not(star), F.Intervene(pin, star))):
        model = replace(doc.model)  # a fresh instance: no sides from an earlier formula
        k = kernel.compile(model)
        for s in k.configurations():
            _agree(model, k.decode(s), phi, Options(), tally)
    assert tally["true"] > 0 and tally["witnessed"] > 0


def test_long_chain_needs_no_recursion():
    """One component stepping through 5,000 behaviours in a line: the
    component walk and the search over the component graph run without
    recursion, at the default recursion limit, and in linear time."""
    n = 5000
    lines = ["async", "component c {", "  domain " + " ".join(f"b{i}" for i in range(n))]
    lines += [f"  rule b{i} -> b{i + 1}" for i in range(n - 1)]
    lines += ["}", f"atom p_last = c = b{n - 1}", "config start = (c=b0)"]
    doc = parse_model("\n".join(lines) + "\n")
    start = doc.configuration("start")
    always = F.BoxPlus(F.DiamondPlus(F.Atom("p_last")))
    started = time.perf_counter()
    for self_loops in (False, True):
        options = Options(self_loops=self_loops)
        assert evaluate(doc.model, start, F.DiamondPlus(F.DiamondPlus(F.FALSE)), options) is False
        # the last behaviour reaches itself only through its self-loop
        assert evaluate(doc.model, start, always, options) is self_loops
    assert time.perf_counter() - started < 10
