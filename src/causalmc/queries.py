"""Query dispatch and machine-readable reports.

Every stanza produces a QueryReport: the echoed query text, a boolean
verdict, a witness payload sufficient to replay the verdict, timing, and
the engine and schema versions.  Re-running the echoed query on the same
engine version reproduces the verdict and witnesses byte for byte (timing
excluded).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from . import formulas as F
from .bisim import PointedModel, check_bisim
from .causality import (
    CauseQuery,
    causal_projection,
    find_causal_chains,
    find_causes,
)
from .dsl import (
    BisimStanza,
    CauseStanza,
    ChainStanza,
    CheckStanza,
    DecomposeStanza,
    MinCostStanza,
    ModelDocument,
    RecoverStanza,
    UtilityStanza,
    parse_model,
)
from .model import (
    DEFAULT_OPTIONS,
    Configuration,
    Intervention,
    ModelError,
    Options,
    check_interface,
    conjugate_decompose,
    interface_violations,
)
from .semantics import evaluate

SCHEMA_VERSION = "1.0"


@dataclass(frozen=True)
class QueryReport:
    query: str
    kind: str
    verdict: bool
    witnesses: dict
    timing_ms: float

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "engine_version": __version__,
            "query": self.query,
            "kind": self.kind,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "timing_ms": self.timing_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def replay_key(self) -> str:
        """Verdict and witnesses, serialized without timing, for replay checks."""
        d = self.to_dict()
        d.pop("timing_ms")
        return json.dumps(d, sort_keys=True)


def qualifying_interventions(
    doc: ModelDocument, config: Configuration, fail_formula: F.Formula, options: Options
) -> list[Intervention]:
    """Declared interventions that guarantee the failure formula stays false:
    applying the intervention and taking one step reaches a configuration
    whose every successor avoids it."""
    out = []
    for iv in doc.model.interventions:
        recovery = F.Intervene(iv.name, F.Box(F.Not(fail_formula)))
        if evaluate(doc.model, config, recovery, options):
            out.append(iv)
    return out


def min_cost_recovery(
    doc: ModelDocument,
    config: Configuration,
    fail_formula: F.Formula,
    options: Options = DEFAULT_OPTIONS,
) -> Intervention | None:
    """Cheapest qualifying intervention; declaration order breaks ties."""
    return _min_cost(doc, config, fail_formula, options)[0]


def best_utility(
    doc: ModelDocument,
    config: Configuration,
    fail_formula: F.Formula,
    options: Options = DEFAULT_OPTIONS,
) -> Intervention | None:
    """Qualifying intervention maximizing -cost - penalty; declaration order ties."""
    return _best_utility(doc, config, fail_formula, options)[0]


def _min_cost(doc, config, fail_formula, options):
    """The cheapest qualifying intervention and all qualifying ones."""
    for iv in doc.model.interventions:
        if iv.cost is None:
            raise ModelError(f"intervention {iv.name!r} lacks a cost annotation")
    qualifying = qualifying_interventions(doc, config, fail_formula, options)
    return min(qualifying, key=lambda iv: iv.cost, default=None), qualifying


def _best_utility(doc, config, fail_formula, options):
    """The best-utility qualifying intervention and all qualifying ones."""
    for iv in doc.model.interventions:
        if iv.cost is None or iv.penalty is None:
            raise ModelError(f"intervention {iv.name!r} lacks a cost or penalty annotation")
    qualifying = qualifying_interventions(doc, config, fail_formula, options)
    return max(qualifying, key=lambda iv: iv.utility, default=None), qualifying


def run_query(
    doc: ModelDocument,
    stanza,
    options: Options = DEFAULT_OPTIONS,
    strict_ac1: bool = False,
) -> QueryReport:
    started = time.perf_counter()
    kind, verdict, witnesses = _dispatch(doc, stanza, options, strict_ac1)
    elapsed = (time.perf_counter() - started) * 1000.0
    return QueryReport(
        query=stanza.echo(), kind=kind, verdict=verdict, witnesses=witnesses, timing_ms=elapsed
    )


def run_document(
    doc: ModelDocument, options: Options = DEFAULT_OPTIONS, strict_ac1: bool = False
) -> list[QueryReport]:
    return [run_query(doc, q, options, strict_ac1) for q in doc.queries]


def _dispatch(doc, stanza, options, strict_ac1):
    model = doc.model
    mode = "strict" if strict_ac1 else "example"
    if isinstance(stanza, CheckStanza):
        collected: list = []
        verdict = evaluate(model, stanza.config, stanza.formula, options, witnesses=collected)
        return "check", verdict, {"evidence": collected}
    if isinstance(stanza, CauseStanza):
        q = CauseQuery(stanza.start, stanza.end, stanza.effect)
        certs = find_causes(model, q, mode=mode, options=options)
        return (
            "cause",
            bool(certs),
            {"mode": mode, "certificates": [c.to_dict() for c in certs]},
        )
    if isinstance(stanza, ChainStanza):
        chains = find_causal_chains(
            model,
            stanza.start,
            stanza.end,
            max_len=stanza.max_len or 4,
            effect_components=stanza.effect,
            mode=mode,
            options=options,
        )
        projection = causal_projection(model, chains, options)
        return (
            "chain",
            bool(chains),
            {
                "mode": mode,
                "chains": [c.to_dict() for c in chains],
                "projection": projection.to_dict(),
            },
        )
    if isinstance(stanza, DecomposeStanza):
        problems = interface_violations(model, stanza.left, stanza.right)
        split = check_interface(
            model, stanza.left, stanza.right, allow_trivial=options.allow_trivial_split
        )
        if split is None:
            detail = problems or ["cover is not a proper split"]
            return "decompose", False, {"violations": detail}
        left_m, right_m = conjugate_decompose(model, split)
        return (
            "decompose",
            True,
            {
                "interface": list(split.interface),
                "left": {
                    "components": list(left_m.component_order),
                    "free": [c.name for c in left_m.components if c.free],
                },
                "right": {
                    "components": list(right_m.component_order),
                    "free": [c.name for c in right_m.components if c.free],
                },
            },
        )
    if isinstance(stanza, BisimStanza):
        base = Path(doc.path).parent if doc.path else Path(".")
        other_path = Path(stanza.other_path)
        if not other_path.is_absolute():
            other_path = base / other_path
        other_doc = parse_model(other_path.read_text(encoding="utf-8"), path=str(other_path))
        other_cfg = other_doc.configuration(stanza.other_config_label)
        result = check_bisim(
            PointedModel(model, stanza.config), PointedModel(other_doc.model, other_cfg), options
        )
        payload = {
            "left_states": result.left_states,
            "right_states": result.right_states,
        }
        if result.bisimilar:
            payload["relation_size"] = len(result.relation)
        else:
            payload["distinguishing"] = F.pretty(result.distinguishing)
        return "bisim", result.bisimilar, payload
    if isinstance(stanza, RecoverStanza):
        qualifying = qualifying_interventions(doc, stanza.config, stanza.formula, options)
        return (
            "recover",
            bool(qualifying),
            {"qualifying": [iv.name for iv in qualifying]},
        )
    if isinstance(stanza, MinCostStanza):
        chosen, qualifying = _min_cost(doc, stanza.config, stanza.formula, options)
        return (
            "mincost",
            chosen is not None,
            {
                "chosen": chosen.name if chosen else None,
                "qualifying": [{"name": iv.name, "cost": iv.cost} for iv in qualifying],
            },
        )
    if isinstance(stanza, UtilityStanza):
        chosen, qualifying = _best_utility(doc, stanza.config, stanza.formula, options)
        return (
            "utility",
            chosen is not None,
            {
                "chosen": chosen.name if chosen else None,
                "qualifying": [
                    {"name": iv.name, "cost": iv.cost, "penalty": iv.penalty, "utility": iv.utility}
                    for iv in qualifying
                ],
            },
        )
    raise TypeError(f"not a query stanza: {stanza!r}")
