import pytest

from causalmc import formulas as F


def test_conj_nests_behaviour_atoms_left(micro_f1):
    phi = F.conj(F.BehaviourAtom(c, b) for c, b in micro_f1.pairs)
    leaves = []

    def walk(x):
        if isinstance(x, F.And):
            walk(x.left)
            walk(x.right)
        else:
            leaves.append(x)

    walk(phi)
    assert leaves == [F.BehaviourAtom(c, b) for c, b in micro_f1.pairs]


def test_pretty_forms():
    phi = F.Implies(F.Not(F.Atom("a")), F.Box(F.Diamond(F.BehaviourAtom("c", "b"))))
    assert F.pretty(phi) == "(! a -> [] <> p[c=b])"
    star = F.Star(F.Atom("a"), F.Or(F.Atom("a"), F.TRUE))
    assert F.pretty(star) == "((a) * ((a | true)))"
    assert F.pretty(F.Intervene("t", F.BoxPlus(F.FALSE))) == "<t> []+ false"


def test_modal_depth_and_size():
    phi = F.Intervene("t", F.Box(F.And(F.Atom("a"), F.Diamond(F.Atom("b")))))
    assert F.modal_depth(phi) == 3
    assert F.size(phi) == 6


def test_star_freedom():
    assert F.is_star_free(F.Box(F.Atom("a")))
    assert not F.is_star_free(F.Not(F.Star(F.Atom("a"), F.Atom("b"))))


def test_conj_disj_empty():
    assert F.conj([]) == F.TRUE


def test_canonical_key_orders_by_depth_first():
    shallow = F.And(F.Atom("a"), F.Atom("b"))
    deep = F.Diamond(F.Atom("a"))
    assert F.canonical_key(shallow) < F.canonical_key(deep)


@pytest.mark.parametrize("prefix, depth", [("! ", 0), ("! [] ", 1500)])
def test_deep_nesting_folds_without_recursion(ex1_doc, prefix, depth):
    from causalmc.dsl import parse_formula_text

    text = prefix * (3000 // len(prefix.split())) + "c1_mid"
    phi = parse_formula_text(text, ex1_doc)
    assert F.pretty(phi) == text
    assert F.size(phi) == 3001
    assert F.modal_depth(phi) == depth
    assert F.is_star_free(phi)
