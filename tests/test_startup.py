"""Each command loads only the engine modules it runs.

Every subcommand runs on a bundled model in a fresh interpreter, which then
reports the modules it loaded.  The package's public names resolve on first
access, so a bare ``import causalmc`` loads none, and no command loads
``dataclasses`` or ``inspect``: the value classes are ``records``.
"""

import ast
import functools
import importlib
import json
import os
import subprocess
import sys

import pytest

import causalmc
from conftest import MODELS, REPO

MICRO = str(MODELS / "microservice.model")
EX1 = str(MODELS / "ex1.model")

# every module a fresh interpreter loaded after running the given code
_LOADED = """
import json, sys
{code}
print(json.dumps(sorted(sys.modules)))
"""


@functools.cache
def all_modules(code: str) -> frozenset[str]:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _LOADED.format(code=code)], capture_output=True, text=True, env=env, check=True
    )
    return frozenset(json.loads(done.stdout.splitlines()[-1]))


def loaded_modules(code: str) -> list[str]:
    """The ``causalmc`` modules loaded running ``code``, without the package prefix."""
    return sorted(m.split(".", 1)[1] for m in all_modules(code) if m.startswith("causalmc."))


def command_code(argv: list[str]) -> str:
    """Code running ``argv``, which must exit 0 or 1."""
    return f"from causalmc.cli import main\nassert main({argv!r}) in (0, 1)"


ENGINES = {"causality", "bisim", "hp"}

COMMANDS = pytest.mark.parametrize(
    "argv, engines",
    [
        pytest.param(["check", MICRO, "f2", "<theta1> [] ! phi_fail"], set(), id="check"),
        pytest.param(["recover", MICRO, "f2", "phi_fail"], set(), id="recover"),
        pytest.param(["mincost", MICRO, "f2", "phi_fail"], set(), id="mincost"),
        pytest.param(["utility", MICRO, "f2", "phi_fail"], set(), id="utility"),
        pytest.param(["decompose", EX1, "--left", "c1", "c2", "--right", "c2", "c3"], set(), id="decompose"),
        pytest.param(["cause", MICRO, "--from", "f1", "--to", "f2", "--effect", "FrontEnd"], {"causality"}, id="cause"),
        pytest.param(["chain", EX1, "--from", "start", "--to", "flipped"], {"causality"}, id="chain"),
        pytest.param(["bisim", EX1, "start", EX1, "start"], {"bisim"}, id="bisim"),
        pytest.param(["export-dot", EX1], set(), id="export-dot"),
        pytest.param(["export-dot", EX1, "--variants"], {"bisim"}, id="export-dot-variants"),
        pytest.param(["export-hp", EX1, "--init", "start"], {"hp"}, id="export-hp"),
    ],
)


@COMMANDS
def test_command_loads_only_its_engine_modules(argv, engines):
    loaded = set(loaded_modules(command_code(argv)))
    assert {"cli", "dsl", "model", "queries", "records"} <= loaded
    assert loaded & ENGINES == engines
    assert "generate" not in loaded


@COMMANDS
def test_command_loads_neither_dataclasses_nor_inspect(argv, engines):
    loaded = all_modules(command_code(argv))
    assert not loaded & {"dataclasses", "inspect"}


def test_package_imports_no_dataclasses_inspect_typing_or_string():
    banned = {"dataclasses", "inspect", "typing", "string"}
    for path in sorted((REPO / "src" / "causalmc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = {node.module.split(".")[0]}
            else:
                continue
            assert not names & banned, f"{path.name}:{node.lineno} imports {sorted(names & banned)}"


def test_bare_import_loads_no_engine_module():
    assert loaded_modules("import causalmc") == []
    assert loaded_modules("import causalmc\nassert causalmc.__version__") == []
    assert loaded_modules("from causalmc import formulas") == ["formulas", "records"]
    assert loaded_modules("from causalmc import evaluate") == ["formulas", "kernel", "model", "records", "semantics"]


# every public name of the package, by defining module
EXPORTED = {
    "model": [
        "AtomDecl", "CapExceeded", "ComponentDecl", "Configuration", "DEFAULT_OPTIONS", "InterfaceSplit",
        "Intervention", "ModelError", "Options", "PartialConfiguration", "RuleRow", "RuleTable", "SystemModel",
        "UnknownNameError", "Violation", "apply_intervention", "check_interface", "clamping_intervention",
        "conjugate_decompose", "constant_table", "reachable", "restrict", "successors", "validate_model",
    ],
    "semantics": ["evaluate", "sat_set"],
    "causality": [
        "CausalChain", "CausalProjection", "CauseCertificate", "CauseQuery", "causal_projection", "check_cause",
        "classify_intervention_effect", "find_causal_chains", "find_causes",
    ],
    "hp": ["HPCauseQuery", "HPModel", "export_hp", "hp_check_actual_cause", "solve"],
    "bisim": [
        "BisimRelation", "BisimResult", "PointedModel", "VariantGraph", "VocabularyMismatch", "check_bisim",
        "intervention_closure",
    ],
    "dsl": ["DslError", "ModelDocument", "parse_model", "parse_query_text"],
    "queries": ["QueryReport", "best_utility", "min_cost_recovery", "run_document", "run_query"],
    "records": ["replace"],
}  # fmt: skip


@pytest.mark.parametrize("module_name", sorted(EXPORTED))
def test_exported_names_resolve_to_their_module(module_name):
    module = importlib.import_module(f"causalmc.{module_name}")
    listed = dir(causalmc)
    for name in EXPORTED[module_name]:
        assert getattr(causalmc, name) is getattr(module, name), name
        assert name in listed


def test_formulas_module_and_version_are_exported():
    from causalmc import formulas

    assert causalmc.formulas is formulas is importlib.import_module("causalmc.formulas")
    assert "formulas" in dir(causalmc)
    assert "__version__" in dir(causalmc)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        causalmc.nonexistent  # noqa: B018
    with pytest.raises(ImportError):
        from causalmc import nonexistent  # noqa: F401
