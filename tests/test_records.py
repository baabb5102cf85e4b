"""``records`` against ``dataclasses``.

Every record class of the package is compared with a frozen dataclass
mirror built by ``dataclasses.make_dataclass``, with the same field names,
defaults and ``compare`` flags (and the same ``__post_init__``).
On sample values the two must give the same ``==`` results, hashes,
``repr`` text and ``replace`` results.  The package itself never imports
``dataclasses``; ``test_startup.py`` checks that.
"""

import dataclasses
import importlib

import pytest

from causalmc import formulas as F
from causalmc import records, replace
from causalmc.bisim import BisimRelation, PointedModel
from causalmc.model import Configuration, ModelError, PartialConfiguration
from conftest import REPO

SOURCES = sorted((REPO / "src" / "causalmc").glob("*.py"))


def record_classes() -> list[type]:
    """Every record class the package's modules define, by module and name."""
    found = []
    for path in SOURCES:
        module = importlib.import_module(f"causalmc.{path.stem}")
        for name, value in sorted(vars(module).items()):
            if isinstance(value, type) and value.__module__ == module.__name__ and "__record_fields__" in vars(value):
                found.append(value)
    return found


CLASSES = record_classes()


def test_every_decorated_class_is_found():
    decorated = sum(path.read_text(encoding="utf-8").count("\n@record") for path in SOURCES)
    assert len(CLASSES) == decorated > 40


def mirror(cls: type) -> type:
    """A frozen dataclass with ``cls``'s fields, flags and ``__post_init__``."""
    specs = []
    for f in cls.__record_fields__:
        flags = dict(compare=f.compare)
        if f.default is not records._MISSING:
            flags["default"] = f.default
        specs.append((f.name, object, dataclasses.field(**flags)))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, eq="__eq__" in vars(cls), namespace=namespace)


@pytest.fixture(scope="module")
def samples(micro_doc, ex1_doc):
    """Per record class, rows of field values: a first row and, for each
    field, the first row with that field changed."""

    def rows(cls) -> list[tuple]:
        if cls is PointedModel:
            return [
                (micro_doc.model, micro_doc.configuration("f1")),
                (ex1_doc.model, ex1_doc.configuration("start")),
                (micro_doc.model, micro_doc.configuration("f2")),
            ]
        first = tuple(("a", i) for i, _ in enumerate(cls.__record_fields__))
        return [first] + [first[:i] + (("b", i),) + first[i + 1 :] for i in range(len(first))]

    return rows


def outcome(call):
    """``call()``'s value, or the type of the exception it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome compared
        return type(exc)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: f"{cls.__module__.split('.')[1]}.{cls.__name__}")
def test_record_behaves_as_its_dataclass_mirror(cls, samples):
    twin = mirror(cls)
    names = [f.name for f in cls.__record_fields__]
    rows = samples(cls)
    mine = [cls(*row) for row in rows]
    theirs = [twin(*row) for row in rows]
    assert [repr(cls(**dict(zip(names, row)))) for row in rows] == list(map(repr, mine))
    assert [[a == b for b in mine] for a in mine] == [[a == b for b in theirs] for a in theirs]
    assert [[a != b for b in mine] for a in mine] == [[a != b for b in theirs] for a in theirs]
    assert list(map(repr, mine)) == list(map(repr, theirs))
    if "__eq__" in vars(cls):
        assert [outcome(lambda x=x: hash(x)) for x in mine] == [outcome(lambda x=x: hash(x)) for x in theirs]
    else:
        assert all(hash(x) == object.__hash__(x) for x in mine)

    required = [f.name for f in cls.__record_fields__ if f.default is records._MISSING]
    assert repr(cls(*rows[0][: len(required)])) == repr(twin(*rows[0][: len(required)]))

    for name, value in zip(names, rows[-1]):
        changed = outcome(lambda: replace(mine[0], **{name: value}))
        expected = outcome(lambda: dataclasses.replace(theirs[0], **{name: value}))
        assert repr(changed) == repr(expected)
        if "__eq__" in vars(cls):
            assert changed == cls(*(value if n == name else v for n, v in zip(names, rows[0])))
    copy = replace(mine[0])
    assert copy is not mine[0] and (copy == mine[0]) is (theirs[0] == dataclasses.replace(theirs[0]))
    with pytest.raises(TypeError):
        replace(mine[0], no_such_field=1)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: f"{cls.__module__.split('.')[1]}.{cls.__name__}")
def test_record_is_frozen(cls, samples):
    x = cls(*samples(cls)[0])
    for name in [f.name for f in cls.__record_fields__] + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    x.__dict__["cached"] = 1  # what cached_property and kernel.compile write
    assert x.cached == 1


def test_records_of_two_classes_never_compare_equal(micro_f1):
    assert F.Not(F.TRUE) != F.Box(F.TRUE) and not F.Not(F.TRUE) == F.Box(F.TRUE)
    assert F.Not(F.TRUE) == F.Not(F.TRUE) and hash(F.Not(F.TRUE)) == hash(F.Box(F.TRUE))
    assert Configuration(micro_f1.pairs) != PartialConfiguration(micro_f1.pairs)
    by_fields: dict = {}
    for cls in CLASSES:
        if "__eq__" in vars(cls) and cls is not PointedModel:
            by_fields.setdefault(tuple(f.name for f in cls.__record_fields__), []).append(cls)
    shared = [classes for classes in by_fields.values() if len(classes) > 1]
    assert shared  # Not/Box/..., Configuration/PartialConfiguration, ...
    for classes in shared:
        values = tuple(("a", i) for i, _ in enumerate(classes[0].__record_fields__))
        made = [cls(*values) for cls in classes]
        twins = [mirror(cls)(*values) for cls in classes]
        assert [[a == b for b in made] for a in made] == [[a == b for b in twins] for a in twins]
        assert sum(a == b for a in made for b in made) == len(made)


def test_model_document_path_is_not_compared(micro_doc):
    here, there = replace(micro_doc, path="here"), replace(micro_doc, path="there")
    assert here == there and hash(here) == hash(there)
    assert "path='here'" in repr(here)
    assert replace(micro_doc, queries=()) != micro_doc


def test_bisim_relation_compares_by_identity():
    listing = tuple
    a, b = BisimRelation(2, listing), BisimRelation(2, listing)
    assert a == a and a != b and hash(a) != hash(b)
    assert repr(a) == "BisimRelation(size=2)"


def test_replace_runs_post_init(micro_doc, ex1_doc):
    pointed = PointedModel(micro_doc.model, micro_doc.configuration("f1"))
    assert replace(pointed, point=micro_doc.configuration("f2")).point == micro_doc.configuration("f2")
    with pytest.raises(ModelError):
        replace(pointed, point=ex1_doc.configuration("start"))


def test_methods_a_class_defines_are_kept():
    @records.record
    class Point:
        x: int
        y: int = 0
        scale: int = records.field(default=1, compare=False)

        def __repr__(self):
            return f"<{self.x}, {self.y}>"

    assert Point.__qualname__ + ".__eq__" == Point.__eq__.__qualname__
    assert repr(Point(1)) == "<1, 0>" and Point(1, 2) == Point(x=1, y=2, scale=5)
    assert Point.scale == 1 and hash(Point(1, 2)) == hash((1, 2))
    with pytest.raises(TypeError):
        replace(object())
