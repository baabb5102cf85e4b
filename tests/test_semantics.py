import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalmc import formulas as F
from causalmc import kernel
from causalmc.generate import random_configuration, random_system_model
from causalmc.model import CapExceeded, Options, UnknownNameError
from causalmc.semantics import evaluate, sat_set

TRIVIAL = Options(allow_trivial_split=True)


def seeded(seed, **kw):
    rng = random.Random(seed)
    m = random_system_model(rng, **kw)
    return rng, m


def configurations(m):
    """Every configuration of ``m``, in enumeration order."""
    k = kernel.compile(m)
    return [k.decode(s) for s in k.configurations()]


# ---------------------------------------------------------------------------
# clause behaviour on the fixtures


def test_behaviour_atom_at_failure(micro, micro_f2):
    assert evaluate(micro, micro_f2, F.BehaviourAtom("FrontEnd", "error"))
    assert not evaluate(micro, micro_f2, F.BehaviourAtom("FrontEnd", "serving"))


def test_characteristic_formula_identifies_configuration(micro, micro_f1, micro_f2):
    chi = F.conj(F.BehaviourAtom(c, b) for c, b in micro_f2.pairs)
    assert evaluate(micro, micro_f2, chi)
    assert not evaluate(micro, micro_f1, chi)


def test_named_atom_resolution(micro, micro_f2):
    assert evaluate(micro, micro_f2, F.Atom("phi_fail"))
    with pytest.raises(UnknownNameError):
        evaluate(micro, micro_f2, F.Atom("no_such_atom"))


def test_unknown_behaviour_atom_raises_on_full_model(micro, micro_f2):
    with pytest.raises(UnknownNameError):
        evaluate(micro, micro_f2, F.BehaviourAtom("NoSuch", "idle"))


def test_recovery_verdicts(micro, micro_f2):
    fail = F.Atom("phi_fail")
    recover = lambda n: F.Intervene(n, F.Box(F.Not(fail)))
    assert evaluate(micro, micro_f2, recover("theta1"))
    assert evaluate(micro, micro_f2, recover("theta2"))
    assert not evaluate(micro, micro_f2, recover("theta3"))


def test_recovery_verdicts_by_exhaustive_reachability(micro, micro_f2):
    # the one-step box verdicts agree with full reachable-set inspection here
    from causalmc.model import apply_intervention, reachable, successors

    fail = lambda g: g["FrontEnd"] == "error"
    outcomes = {}
    for name in ("theta1", "theta2", "theta3"):
        m = apply_intervention(micro, micro.intervention_map[name])
        outcomes[name] = any(
            all(not fail(h) for h in reachable(m, g)) for g in successors(m, micro_f2)
        )
    assert outcomes == {"theta1": True, "theta2": True, "theta3": False}


def test_exists_intervention_ranges_over_declared(micro, micro_f2):
    fail = F.Atom("phi_fail")
    w = []
    assert evaluate(micro, micro_f2, F.InterveneExists(F.Box(F.Not(fail))), witnesses=w)
    assert {"op": "exists-intervention", "name": "theta1"} in w


def test_unresolved_intervention_name(micro, micro_f2):
    with pytest.raises(UnknownNameError):
        evaluate(micro, micro_f2, F.Intervene("nope", F.TRUE))


def test_intervene_witness_reports_successor(micro, micro_f2):
    w = []
    evaluate(micro, micro_f2, F.Intervene("theta2", F.BehaviourAtom("FrontEnd", "servingCache")), witnesses=w)
    assert w and w[0]["op"] == "intervention" and w[0]["successor"]["FrontEnd"] == "servingCache"


# ---------------------------------------------------------------------------
# separation


def test_star_finds_witness_split(ex1, ex1_doc):
    flipped = ex1_doc.configuration("flipped")
    phi = F.And(F.BehaviourAtom("c1", "b12"), F.BehaviourAtom("c2", "b22"))
    psi = F.And(F.BehaviourAtom("c2", "b22"), F.BehaviourAtom("c3", "b31"))
    w = []
    assert evaluate(ex1, flipped, F.Star(phi, psi), witnesses=w)
    star = [x for x in w if x["op"] == "star"]
    assert star and set(star[0]["left"]) | set(star[0]["right"]) == set(ex1.component_order)


def test_out_of_domain_atom_false_on_partial_model(ex1, ex1_doc):
    from causalmc.model import check_interface, conjugate_decompose

    split = check_interface(ex1, ("c1", "c2"), ("c2", "c3"))
    left, _ = conjugate_decompose(ex1, split)
    f = left.configuration({"c1": "b12", "c2": "b22"})
    assert not evaluate(left, f, F.BehaviourAtom("c3", "b31"))
    assert evaluate(left, f, F.BehaviourAtom("c2", "b22"))


SIDES = """async
component p {
  domain x y
  rule x -> y
}
component q {
  domain u v
  context p
  rule u (y) -> v
}
component r {
  domain m n
  rule m -> n
}
config f = (p=x, q=u, r=m)
config g = (p=y, q=v, r=m)
config h = (p=x, q=u, r=n)
atom a = { f g }
"""


def test_extension_atom_holds_at_its_projections_on_a_side():
    """On a side of a split, ``atom a = { f g }`` holds at the projections of
    f and g there: on the sides of {p q} | {r}, at (p=x, q=u) and (p=y, q=v)
    on the left, and at (r=m), the projection of both, on the right.  That
    split comes first in canonical order, so it is the witness of a ``*``
    whose left side reads ``a`` at f.  At h, ``a`` fails in the whole model
    and holds on the left side only."""
    from causalmc.dsl import parse_model
    from causalmc.model import InterfaceSplit, conjugate_decompose

    doc = parse_model(SIDES)
    model, a = doc.model, F.Atom("a")
    left, right = conjugate_decompose(model, InterfaceSplit(("p", "q"), ("r",)))
    on_left = (left.configuration({"p": "x", "q": "u"}), left.configuration({"p": "y", "q": "v"}))
    assert left.atom_map["a"].extension == on_left
    assert right.atom_map["a"].extension == (right.configuration({"r": "m"}),)
    assert [evaluate(left, g, a) for g in on_left] == [True, True]
    assert not evaluate(left, left.configuration({"p": "y", "q": "u"}), a)
    assert [evaluate(right, right.configuration({"r": b}), a) for b in ("m", "n")] == [True, False]
    f, h = doc.configuration("f"), doc.configuration("h")
    witnesses: list = []
    assert evaluate(model, f, F.Star(a, F.TRUE), witnesses=witnesses)
    assert witnesses == [{"op": "star", "left": ["p", "q"], "right": ["r"]}]
    assert not evaluate(model, h, a)
    assert evaluate(model, h, F.Star(a, F.Not(a)))
    assert not evaluate(model, h, F.Star(a, a))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_star_degeneracy_under_trivial_flag(seed):
    rng, m = seeded(seed)
    f = random_configuration(rng, m)
    atoms = list(m.atom_map)
    phi = F.Atom(rng.choice(atoms))
    psi = F.Atom(rng.choice(atoms))
    if evaluate(m, f, F.And(phi, psi), TRIVIAL):
        assert evaluate(m, f, F.Star(phi, psi), TRIVIAL)


# ---------------------------------------------------------------------------
# modal dualities and closure unfolding


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_diamond_box_duality(seed):
    rng, m = seeded(seed)
    phi = F.Atom(rng.choice(list(m.atom_map)))
    for f in configurations(m):
        assert evaluate(m, f, F.Diamond(phi)) == evaluate(m, f, F.Not(F.Box(F.Not(phi))))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_diamond_plus_unfolding(seed):
    rng, m = seeded(seed)
    phi = F.Atom(rng.choice(list(m.atom_map)))
    unfolded = F.Diamond(F.Or(phi, F.DiamondPlus(phi)))
    for f in configurations(m):
        assert evaluate(m, f, F.DiamondPlus(phi)) == evaluate(m, f, unfolded)


# ---------------------------------------------------------------------------
# sat_set


def test_sat_set_counts(ex1):
    assert len(sat_set(ex1, F.BehaviourAtom("c2", "b22"))) == 3
    assert len(sat_set(ex1, F.TRUE)) == 6
    assert sat_set(ex1, F.FALSE) == []


def test_sat_set_matches_atom_extension(micro):
    got = sat_set(micro, F.Atom("phi_fail"))
    assert got == [f for f in configurations(micro) if f["FrontEnd"] == "error"]


def test_sat_set_cap(micro):
    small = Options(max_states=10)
    with pytest.raises(CapExceeded) as exc:
        sat_set(micro, F.TRUE, small)
    assert exc.value.cap == 10 and exc.value.size == 432


def test_partial_configuration_accepted_by_evaluate(ex1, ex1_doc):
    from causalmc.model import check_interface, conjugate_decompose, restrict

    split = check_interface(ex1, ("c1", "c2"), ("c2", "c3"))
    left, _ = conjugate_decompose(ex1, split)
    p = restrict(ex1_doc.configuration("flipped"), ("c1", "c2"))
    assert evaluate(left, p, F.BehaviourAtom("c2", "b22"))


@pytest.mark.parametrize(
    "wrap, depth",
    [(F.Not, 800), (lambda sub: F.And(F.TRUE, sub), 800), (F.Diamond, 250), (F.DiamondPlus, 100)],
    ids=["!", "&", "<>", "<>+"],
)
def test_nesting_depth_floor(ex1_doc, wrap, depth):
    """Evaluation takes a few frames per level of the formula; these depths get
    a verdict at the default recursion limit."""
    phi = F.TRUE
    for _ in range(depth):
        phi = wrap(phi)
    assert evaluate(ex1_doc.model, ex1_doc.configuration("start"), phi) in (True, False)
