"""Reference checks on the reports of the last timed pass.

Each check returns a list of problems for one operation; an empty list
means the answer was confirmed.  The checks are:

- the replay key (the report without timing), with seeded names mapped back
  and the temporary directory masked, matches the digest pinned in
  ``digests.json``;
- a ``cause`` answer on a model of at most six components equals the
  brute-force enumerator in ``tests/oracle.py``;
- every cause certificate, including each chain link's, passes the
  structural-equation checker with its AC1 path;
- a ``bisim`` pair against a renamed copy comes back bisimilar;
- a distinguishing formula holds at the left point and fails at the right.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import families

# the replay key: the report schema without timing (and without anything a
# later engine adds next to timing)
REPLAY_FIELDS = ("schema_version", "engine_version", "query", "kind", "verdict", "witnesses")
ORACLE_MAX_COMPONENTS = 6


def replay_digest(report: dict, tmp: Path) -> str:
    key = json.dumps({k: report.get(k) for k in REPLAY_FIELDS}, sort_keys=True)
    key = families.canonical_names(key.replace(str(tmp), "$TMP"))
    canonical = json.dumps(json.loads(key), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Checker:
    def __init__(self, battery, pinned: dict[str, str]):
        self.battery = battery
        self.pinned = pinned
        self._docs: dict[str, object] = {}

    def document(self, path):
        from causalmc.dsl import parse_model

        path = str(path)
        if path not in self._docs:
            self._docs[path] = parse_model(Path(path).read_text(encoding="utf-8"), path=path)
        return self._docs[path]

    def check(self, op, report: dict) -> list[str]:
        problems = []
        digest = replay_digest(report, self.battery.tmp)
        if self.pinned.get(op.id) != digest:
            problems.append(f"replay digest {digest[:12]} differs from the pinned one")
        kind = op.ref["kind"]
        if kind in ("cause", "chain"):
            problems += self._cause(op, report)
        elif kind == "bisim":
            problems += self._bisim(op, report)
        return problems

    def _cause(self, op, report) -> list[str]:
        from oracle import oracle_find_causes

        doc = self.document(self.battery.docs[op.doc])
        start_label, end_label, effect = op.ref["span"]
        start, end = doc.configuration(start_label), doc.configuration(end_label)
        problems = []
        w = report["witnesses"]
        if op.ref["kind"] == "cause":
            certs = [(c, effect) for c in w["certificates"]]
            if len(doc.model.components) <= ORACLE_MAX_COMPONENTS:
                got = {frozenset(c["cause_set"]) for c in w["certificates"]}
                want = oracle_find_causes(doc.model, start, end, tuple(effect))
                if got != want:
                    problems.append(f"causes {sorted(map(sorted, got))} != oracle {sorted(map(sorted, want))}")
        else:
            certs = [(l["certificate"], l["effect_components"]) for ch in w["chains"] for l in ch["links"]]
        for cert, eff in certs:
            if not self._hp_confirms(doc.model, cert, eff):
                problems.append(f"certificate {cert['cause_set']} refuted by the equation checker")
        return problems

    @staticmethod
    def _hp_confirms(model, cert, effect) -> bool:
        from causalmc.hp import HPCauseQuery, export_hp, hp_check_actual_cause

        path = [model.configuration(g) for g in cert["ac1_path"]]
        first, last = path[0], path[-1]
        query = HPCauseQuery.build(
            {c: last[c] for c in cert["cause_set"]}, {c: last[c] for c in effect}, path=path
        )
        return hp_check_actual_cause(export_hp(model, first), query).is_cause

    def _bisim(self, op, report) -> list[str]:
        from causalmc.dsl import parse_formula_text
        from causalmc.semantics import evaluate

        if op.ref["renamed"]:
            return [] if report["verdict"] else ["renamed copy reported not bisimilar"]
        if report["verdict"]:
            return []
        text = report["witnesses"]["distinguishing"]
        problems = []
        sides = ((self.battery.docs[op.doc], True), (op.ref["other"], False))
        for path, expected in sides:
            doc = self.document(path)
            phi = parse_formula_text(text, doc)
            if evaluate(doc.model, doc.configuration(op.ref["point"]), phi) != expected:
                side = "left" if expected else "right"
                problems.append(f"distinguishing formula {text!r} misjudged at the {side} point")
        return problems
