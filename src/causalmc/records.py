"""Immutable value classes, built without ``dataclasses``.

``@record`` makes each annotated name of a class body a field, after the
fields of a record base class, and gives the class what a frozen dataclass
has:

- ``__init__`` taking the fields positionally or by keyword, defaults
  included, and calling ``__post_init__`` when the class has one;
- ``__eq__``, true only between instances of the same class whose compared
  fields are equal as a tuple, and ``__hash__``, the hash of that tuple;
- ``__repr__``, ``Name(field=value, ...)`` over the fields;
- assignment and deletion of attributes raising ``AttributeError``.  The
  instance ``__dict__`` stays writable, so ``cached_property`` works.

A method the class defines itself is kept.  Every annotation of the class
body is a field, so a record declares its class constants without one.

``__init__``, ``__eq__`` and ``__hash__``, which the engine calls in its
inner loops, come from one generated source per class, compiled once per
distinct source, so each field access in them is a plain attribute read,
as in a hand-written class.  ``__repr__`` and the frozen ``__setattr__``
and ``__delattr__`` are shared by every record.
"""

_MISSING = object()


class Field:
    """A field of a record: ``name``, ``default`` (``_MISSING`` when
    required), and whether ``==`` and ``hash`` read it."""

    __slots__ = ("name", "default", "compare")

    def __init__(self, name, default=_MISSING, compare=True):
        self.name = name
        self.default = default
        self.compare = compare


def field(*, default=_MISSING, compare: bool = True) -> Field:
    """A field's default and flag, given as its class attribute."""
    return Field(None, default, compare)


def replace(obj, /, **changes):
    """A new record of ``obj``'s class with the given fields changed and the
    others kept; it is built by ``__init__``, so ``__post_init__`` runs."""
    fields = getattr(type(obj), "__record_fields__", None)
    if fields is None:
        raise TypeError(f"replace() takes a record, not {type(obj).__name__!r}")
    for f in fields:
        if f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return type(obj)(**changes)


def _repr(self) -> str:
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self.__record_fields__)
    return f"{self.__class__.__qualname__}({shown})"


def _assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


_CODE: dict = {}  # compiled method sources, by source text


def record(cls):
    """Class decorator: ``cls`` as a record."""
    fields = {f.name: f for f in getattr(cls, "__record_fields__", ())}
    for name in cls.__dict__.get("__annotations__", {}):
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, Field):
            fields[name] = Field(name, value.default, value.compare)
            if value.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, value.default)
        else:
            fields[name] = Field(name, value)
    cls.__record_fields__ = tuple(fields.values())

    own = cls.__dict__
    lines = []
    if "__init__" not in own:
        params = "".join(f", {n}" if f.default is _MISSING else f", {n}=_d_{n}" for n, f in fields.items())
        body = [f"    __set(self, {n!r}, {n})" for n in fields]
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
        lines += [f"def __init__(self{params}):", *(body or ["    pass"])]
    compared = [n for n, f in fields.items() if f.compare]
    mine, theirs = ("".join(f"{who}.{n}," for n in compared) for who in ("self", "other"))
    if "__eq__" not in own:
        lines.append("def __eq__(self, other):")
        lines.append("    if other.__class__ is self.__class__:")
        lines.append(f"        return ({mine}) == ({theirs})")
        lines.append("    return NotImplemented")
    if own.get("__hash__") is None:  # a class defining __eq__ alone has __hash__ None
        lines.append("def __hash__(self):")
        lines.append(f"    return hash(({mine}))")

    source = "\n".join(lines)
    code = _CODE.get(source)
    if code is None:
        code = _CODE[source] = compile(source, "<record>", "exec")
    # __init__ sets fields through object.__setattr__, which keeps them in the
    # interpreter's compact instance layout; writing to self.__dict__ would
    # give each instance a dict of its own, which reads fields more slowly
    namespace = {f"_d_{n}": f.default for n, f in fields.items() if f.default is not _MISSING}
    namespace["__set"] = object.__setattr__
    exec(code, namespace)
    for name in ("__init__", "__eq__", "__hash__"):
        method = namespace.get(name)
        if method is not None:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    for name, method in (("__repr__", _repr), ("__setattr__", _assign), ("__delattr__", _delete)):
        if name not in own:
            setattr(cls, name, method)
    return cls
