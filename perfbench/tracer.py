"""Spans around the engine's public functions, recorded from outside.

``Tracer.install`` replaces each listed function, in every ``causalmc``
module that holds a reference to it, by a wrapper that records one span:
name, start, end, parent span and the request (operation) it belongs to.
Spans stay in memory in a flat integer array until ``write`` puts them in
a file.  A listed name the engine no longer defines is reported as absent
and skipped.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

# (module, function) pairs, in the order the metrics are reported
SPANNED = [
    ("dsl", "parse_model"),
    ("model", "successors"),
    ("model", "reachable"),
    ("model", "apply_intervention"),
    ("model", "check_interface"),
    ("semantics", "evaluate"),
    ("semantics", "candidate_splits"),
    ("causality", "check_cause"),
    ("causality", "find_causes"),
    ("causality", "find_causal_chains"),
    ("causality", "causal_projection"),
    ("bisim", "intervention_closure"),
    ("bisim", "check_bisim"),
    ("queries", "run_query"),
    ("cli", "main"),
    ("hp", "export_hp"),
    ("hp", "hp_check_actual_cause"),
]

_FIELDS = 5  # name, start_ns, end_ns, parent, request


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in SPANNED]
        self.absent: list[str] = []
        self.spans = array("q")
        self.request = -1
        self.certified = 0  # check_cause results that certify a cause
        self._stack: list[int] = []
        self._wrappers: list[tuple[object, object]] = []  # (original, wrapper)
        self._patched: list[tuple[object, str, object]] = []
        for name_id, (mod_name, fn_name) in enumerate(SPANNED):
            original = getattr(importlib.import_module(f"causalmc.{mod_name}"), fn_name, None)
            if callable(original):
                self._wrappers.append((original, self._wrap(original, name_id)))
            else:
                self.absent.append(self.names[name_id])

    def _wrap(self, fn, name_id: int):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        counts_yield = self.names[name_id] == "causality.check_cause"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans) // _FIELDS
            spans.extend((name_id, 0, 0, stack[-1] if stack else -1, self.request))
            stack.append(idx)
            spans[idx * _FIELDS + 1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx * _FIELDS + 2] = clock()
                stack.pop()
            if counts_yield and result.is_cause:
                self.certified += 1
            return result

        return wrapper

    def install(self) -> None:
        """Point every ``causalmc`` module's reference to a spanned function at its wrapper."""
        modules = [m for n, m in sys.modules.items() if n == "causalmc" or n.startswith("causalmc.")]
        for original, wrapper in self._wrappers:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        """Index of the next span, to split the record into phases."""
        return len(self.spans) // _FIELDS

    def totals(self, first: int = 0, last: int | None = None) -> dict[str, tuple[int, float]]:
        """Per name: (calls, self milliseconds) over spans [first, last).

        Self time is a span's duration minus the durations of its direct
        children, so nested engine calls are charged to the innermost layer.
        """
        last = self.mark() if last is None else last
        s = self.spans
        child = {}
        for i in range(first, last):
            parent = s[i * _FIELDS + 3]
            if parent >= 0:
                dur = s[i * _FIELDS + 2] - s[i * _FIELDS + 1]
                child[parent] = child.get(parent, 0) + dur
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(first, last):
            name_id = s[i * _FIELDS]
            calls[name_id] += 1
            self_ns[name_id] += s[i * _FIELDS + 2] - s[i * _FIELDS + 1] - child.get(i, 0)
        return {n: (calls[k], self_ns[k] / 1e6) for k, n in enumerate(self.names)}

    def write(self, path) -> None:
        """All spans as gzipped tab-separated lines."""
        s = self.spans
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for i in range(self.mark()):
                row = s[i * _FIELDS : (i + 1) * _FIELDS]
                out.write(f"{i}\t{self.names[row[0]]}\t{row[1]}\t{row[2]}\t{row[3]}\t{row[4]}\n")
