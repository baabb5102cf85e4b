"""Model checker and actual-causality engine for finite component-based systems.

The public names below load their engine module on first access (PEP 562),
so ``import causalmc`` loads none, and a command that never searches for
causes never loads ``causality``.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them; "formulas" is the module itself
_EXPORTS = {
    "model": (
        "AtomDecl",
        "CapExceeded",
        "ComponentDecl",
        "Configuration",
        "DEFAULT_OPTIONS",
        "InterfaceSplit",
        "Intervention",
        "ModelError",
        "Options",
        "PartialConfiguration",
        "RuleRow",
        "RuleTable",
        "SystemModel",
        "UnknownNameError",
        "Violation",
        "apply_intervention",
        "check_interface",
        "clamping_intervention",
        "conjugate_decompose",
        "constant_table",
        "reachable",
        "restrict",
        "successors",
        "validate_model",
    ),
    "formulas": ("formulas",),
    "semantics": ("evaluate", "sat_set"),
    "causality": (
        "CausalChain",
        "CausalProjection",
        "CauseCertificate",
        "CauseQuery",
        "causal_projection",
        "check_cause",
        "classify_intervention_effect",
        "find_causal_chains",
        "find_causes",
    ),
    "hp": ("HPCauseQuery", "HPModel", "export_hp", "hp_check_actual_cause", "solve"),
    "bisim": (
        "BisimRelation",
        "BisimResult",
        "PointedModel",
        "VariantGraph",
        "VocabularyMismatch",
        "check_bisim",
        "intervention_closure",
    ),
    "dsl": ("DslError", "ModelDocument", "parse_model", "parse_query_text"),
    "queries": ("QueryReport", "best_utility", "min_cost_recovery", "run_document", "run_query"),
    "records": ("replace",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module_name = _MODULE_OF.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{module_name}")
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
