"""The engine's event record, ``kernel.recording``.

Recording changes no answer: micro's stanzas and the structured cause
cases give the same replay keys with recording on and off, and two
recorded runs on fresh models give the same events, once each kernel is
replaced by its order of first appearance.  Tests and scripts count the
engine's work through the record alone: no test reads a frame's locals
or patches an engine function to count its calls, and no script assigns
over a name of the package.
"""

import ast
import json

from conftest import MODELS, REPO
from test_cause_search import STRUCTURED

from causalmc import kernel, replace
from causalmc.causality import find_causes
from causalmc.dsl import parse_model, parse_query_text
from causalmc.model import Options
from causalmc.queries import run_query

KINDS = {
    "expand", "reachable", "walk", "pin", "encode", "decode", "effect search", "witness", "ac2", "deviation",
    "certificate", "link", "prune", "side",
}  # fmt: skip


def _canonical(events) -> list:
    """``events`` with each kernel replaced by its order of first appearance."""
    order: dict = {}
    return [tuple(order.setdefault(x, len(order)) if isinstance(x, kernel.Kernel) else x for x in e) for e in events]


# beside micro's stanzas: a chain search that prunes, and a ``*`` that builds side models
EXTRA = ("chain from f1 to f2 effect {FrontEnd} maxlen 3", "check f1 |= (true) * (false)")


def _micro_keys() -> list:
    """The replay keys of micro's stanzas and of ``EXTRA`` in both AC1 modes,
    on a model parsed afresh."""
    path = MODELS / "microservice.model"
    doc = parse_model(path.read_text(encoding="utf-8"), path=str(path))
    stanzas = list(doc.queries) + [parse_query_text(text, doc) for text in EXTRA]
    return [run_query(doc, q, Options(strict_ac1=strict)).replay_key() for strict in (False, True) for q in stanzas]


def _cause_keys() -> list:
    """The certificates of each structured cause case as JSON, each on a fresh copy of its model."""
    out = []
    for model, q, options in STRUCTURED:
        certs = find_causes(replace(model), q, options)
        out.append(json.dumps([c.to_dict() for c in certs], sort_keys=True))
    return out


def test_recording_changes_no_answer_and_repeats_exactly():
    seen = set()
    for run in (_micro_keys, _cause_keys):
        keys = run()
        with kernel.recording() as first:
            assert run() == keys
        with kernel.recording() as second:
            assert run() == keys
        assert _canonical(first) == _canonical(second) != []
        seen |= {kind for kind, *_ in first}
    assert seen == KINDS


def test_recordings_nest_and_end_with_their_block(micro, micro_f1, micro_f2):
    assert kernel.recorder() is None
    with kernel.recording() as outer:
        with kernel.recording() as inner:
            kernel.compile(micro).encode(micro_f1)
        kernel.compile(micro).encode(micro_f2)
    kernel.compile(micro).encode(micro_f1)
    assert inner == [("encode", micro_f1)] and outer == [("encode", micro_f2)]
    assert kernel.recorder() is None


def _imported_from_package(tree: ast.Module) -> dict[str, str]:
    """The names a module binds by importing ``causalmc`` or from it, each
    with the dotted name it binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "causalmc":
            names |= {alias.asname or alias.name: f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0]: a.name for a in node.names if a.name.split(".")[0] == "causalmc"}
    return names


def _root(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _targets(node: ast.AST):
    """The expressions an assignment statement binds, tuples unpacked."""
    stack = list(node.targets) if isinstance(node, ast.Assign) else [node.target]
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack += target.elts
        else:
            yield target


def test_work_is_counted_through_the_record_alone():
    """No test reads a frame's locals, and none replaces an engine function
    of ``kernel``, ``causality``, ``semantics`` or ``bisim``: a patch there
    may set only a constant, such as ``bisim.CLOSURE_CAP``.  No script
    assigns to an attribute of a name imported from ``causalmc``."""
    engines = {f"causalmc.{name}" for name in ("kernel", "causality", "semantics", "bisim")}
    found = []
    for path in sorted((REPO / "tests").glob("*.py")) + sorted((REPO / "scripts").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = _imported_from_package(tree)
        for node in ast.walk(tree):
            where = f"{path.relative_to(REPO)}:{getattr(node, 'lineno', '?')}"
            if path.parent.name == "tests":
                if isinstance(node, ast.Attribute) and node.attr == "f_locals":
                    found.append(f"{where} reads a frame's locals")
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setattr"
                    and _root(node.func) == "monkeypatch"
                    and imported.get(_root(node.args[0])) in engines
                    and not str(getattr(node.args[1], "value", "")).isupper()
                ):
                    found.append(f"{where} patches an engine name")
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in _targets(node):
                    if isinstance(target, (ast.Attribute, ast.Subscript)) and _root(target) in imported:
                        found.append(f"{where} assigns to {ast.unparse(target)}")
    assert found == []
