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
from functools import partial
from operator import attrgetter
from pathlib import Path

from . import __version__
from . import formulas as F
from .dsl import DslError, ModelDocument, Stanza, parse_model
from .model import (
    CHAIN_MAX_LEN,
    DEFAULT_OPTIONS,
    Configuration,
    Intervention,
    ModelError,
    Options,
    _restrict_model,
    check_interface,
    interface_violations,
)
from .records import record
from .semantics import evaluate

SCHEMA_VERSION = "1.0"


@record
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


# the declared annotations each recovery choice needs, and how it picks among
# the qualifying interventions (the first in declaration order on ties)
_CHEAPEST = (("cost",), partial(min, key=attrgetter("cost")))
_BEST_UTILITY = (("cost", "penalty"), partial(max, key=attrgetter("utility")))


def min_cost_recovery(
    doc: ModelDocument,
    config: Configuration,
    fail_formula: F.Formula,
    options: Options = DEFAULT_OPTIONS,
) -> Intervention | None:
    """Cheapest qualifying intervention; declaration order breaks ties."""
    return _choose(doc, config, fail_formula, options, *_CHEAPEST)[0]


def best_utility(
    doc: ModelDocument,
    config: Configuration,
    fail_formula: F.Formula,
    options: Options = DEFAULT_OPTIONS,
) -> Intervention | None:
    """Qualifying intervention maximizing -cost - penalty; declaration order ties."""
    return _choose(doc, config, fail_formula, options, *_BEST_UTILITY)[0]


def _choose(doc, config, fail_formula, options, needs, pick):
    """The qualifying intervention ``pick`` selects, and all qualifying ones;
    every declared intervention must carry the annotations in ``needs``."""
    for iv in doc.model.interventions:
        if any(getattr(iv, a) is None for a in needs):
            raise ModelError(f"intervention {iv.name!r} lacks a {' or '.join(needs)} annotation")
    qualifying = qualifying_interventions(doc, config, fail_formula, options)
    return pick(qualifying, default=None), qualifying


def run_query(doc: ModelDocument, stanza: Stanza, options: Options = DEFAULT_OPTIONS) -> QueryReport:
    started = time.perf_counter()
    verdict, witnesses = HANDLERS[stanza.kind](doc, options, *stanza.values)
    elapsed = (time.perf_counter() - started) * 1000.0
    return QueryReport(
        query=stanza.echo(), kind=stanza.kind, verdict=verdict, witnesses=witnesses, timing_ms=elapsed
    )


def run_document(doc: ModelDocument, options: Options = DEFAULT_OPTIONS) -> list[QueryReport]:
    return [run_query(doc, q, options) for q in doc.queries]


# one handler per query kind: (doc, options, *slot values of the
# kind's grammar entry in dsl.QUERIES) -> (verdict, witnesses); the cause,
# chain and bisim handlers import their engine module when they first run


def _check(doc, options, config, formula):
    collected: list = []
    verdict = evaluate(doc.model, config, formula, options, witnesses=collected)
    return verdict, {"evidence": collected}


def _cause(doc, options, start, end, effect):
    from .causality import CauseQuery, ac1_mode, find_causes

    certs = find_causes(doc.model, CauseQuery(start, end, effect), options)
    return bool(certs), {"mode": ac1_mode(options), "certificates": [c.to_dict() for c in certs]}


def _chain(doc, options, start, end, effect, max_len):
    from .causality import ac1_mode, causal_projection, find_causal_chains

    chains = find_causal_chains(
        doc.model, start, end, max_len=CHAIN_MAX_LEN if max_len is None else max_len,
        effect_components=effect, options=options,
    )
    projection = causal_projection(doc.model, chains, options)
    return bool(chains), {
        "mode": ac1_mode(options),
        "chains": [c.to_dict() for c in chains],
        "projection": projection.to_dict(),
    }


def _decompose(doc, options, left, right):
    model = doc.model
    split = check_interface(model, left, right, allow_trivial=options.allow_trivial_split)
    if split is None:
        return False, {"violations": interface_violations(model, left, right) or ["cover is not a proper split"]}
    payload = {"interface": list(split.interface)}
    for side, names in (("left", split.left), ("right", split.right)):
        m = _restrict_model(model, names)  # check_interface validated the split
        payload[side] = {
            "components": list(m.component_order),
            "free": [c.name for c in m.components if c.free],
        }
    return True, payload


def _bisim(doc, options, config, other_model, other_config):
    from .bisim import PointedModel, check_bisim

    other_path = Path(doc.path or ".").parent / other_model
    try:
        other_doc = parse_model(other_path.read_text(encoding="utf-8"), path=str(other_path), stanzas=False)
        other = PointedModel(other_doc.model, other_doc.configuration(other_config))
    except DslError as exc:  # the diagnostics point into the other model's file
        raise DslError(exc.diagnostics, path=str(other_path)) from None
    result = check_bisim(PointedModel(doc.model, config), other, options)
    payload = {"left_states": result.left_states, "right_states": result.right_states}
    if result.bisimilar:
        payload["relation_size"] = len(result.relation)
    else:
        payload["distinguishing"] = F.pretty(result.distinguishing)
    return result.bisimilar, payload


def _recover(doc, options, config, formula):
    qualifying = qualifying_interventions(doc, config, formula, options)
    return bool(qualifying), {"qualifying": [iv.name for iv in qualifying]}


def _choice(choice, fields):
    """A handler reporting the chosen intervention and, per qualifying one, ``fields``."""

    def handler(doc, options, config, formula):
        chosen, qualifying = _choose(doc, config, formula, options, *choice)
        return chosen is not None, {
            "chosen": chosen.name if chosen else None,
            "qualifying": [{"name": iv.name, **{f: getattr(iv, f) for f in fields}} for iv in qualifying],
        }

    return handler


HANDLERS = {
    "check": _check,
    "cause": _cause,
    "chain": _chain,
    "decompose": _decompose,
    "bisim": _bisim,
    "recover": _recover,
    "mincost": _choice(_CHEAPEST, ("cost",)),
    "utility": _choice(_BEST_UTILITY, ("cost", "penalty", "utility")),
}
