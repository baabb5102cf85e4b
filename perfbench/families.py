"""Seeded model families written as DSL text.

Three families whose state space and search spaces grow with a size knob:
an n-stage pipeline, a fan-in tree, and a ring of nodes with retry.  The
seed picks the names of components, atoms, configurations and
interventions; the structure is fixed by the size arguments.  Every seeded
name is ``<prefix><two-digit index>_<five random letters>``, so the
lexicographic order of names (which the engine uses to order atoms and
intervention labels) is the index order on every seed.  Models generated
from different seeds are therefore isomorphic, cost the same to query, and
their reports agree once names are mapped back with ``canonical_names``.
"""

from __future__ import annotations

import random
import re
import string

_SEEDED = re.compile(r"\b([a-z]\d\d)_[a-z]{5}")


def canonical_names(text: str) -> str:
    """Replace every seeded name by its seed-independent prefix."""
    return _SEEDED.sub(r"\1", text)


class Namer:
    """Seeded names ``<prefix><index>_<letters>`` that sort in index order."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def __call__(self, prefix: str, index: int) -> str:
        tag = "".join(self.rng.choice(string.ascii_lowercase) for _ in range(5))
        return f"{prefix}{index:02d}_{tag}"


def _config(name: str, comps, values) -> str:
    return f"config {name} = (" + ", ".join(f"{c}={v}" for c, v in zip(comps, values)) + ")"


def pipeline(rng: random.Random, n: int, fault_at_start: bool) -> tuple[str, dict]:
    """An n-stage pipeline; stage 0 is the source, stage n-1 the sink.

    Each downstream stage copies its predecessor's outcome (ok or err) once
    it leaves idle, and an errored stage goes back to idle while its
    predecessor reports ok.  With ``fault_at_start`` the source is already
    err in the start configuration and never changes, so the source alone is
    certified as the cause of the sink's error.  Otherwise the source fails
    spontaneously from idle; a deviated idle source fails again, so no
    component set is a cause and every candidate with a but-for contrast
    exhausts its witness sets.

    Returns the DSL text and the names: ``comps``, ``start``, ``end``,
    ``sink_err`` (atom), ``ivs`` (interventions).
    """
    name = Namer(rng)
    comps = [name("c", i) for i in range(n)]
    start, end, sink_err = name("g", 0), name("g", 1), name("p", 0)
    ivs = [name("t", 0), name("t", 1)]
    lines = ["async", ""]
    lines += [f"component {comps[0]} {{", "  domain idle ok err"]
    if not fault_at_start:
        lines.append("  rule idle -> err")
    lines.append("}")
    for i in range(1, n):
        lines += [
            f"component {comps[i]} {{",
            "  domain idle ok err",
            f"  context {comps[i - 1]}",
            "  rule idle (ok) -> ok",
            "  rule idle (err) -> err",
            "  rule err (ok) -> idle",
            "}",
        ]
    first = "err" if fault_at_start else "idle"
    lines += [
        "",
        f"atom {sink_err} = {comps[-1]} = err",
        _config(start, comps, [first] + ["idle"] * (n - 1)),
        _config(end, comps, ["err"] * n),
        f"intervention {ivs[0]} on {comps[0]} {{",
        "  cost 4",
        "  penalty 1",
        f"  rule {comps[0]}: _ -> ok",
        "}",
        f"intervention {ivs[1]} on {comps[-1]} {{",
        "  cost 2",
        "  penalty 3",
        f"  rule {comps[-1]}: _ (_) -> ok",
        "}",
    ]
    names = {"comps": comps, "start": start, "end": end, "sink_err": sink_err, "ivs": ivs}
    return "\n".join(lines) + "\n", names


def fanin(rng: random.Random, leaves: int, faulty: int) -> tuple[str, dict]:
    """``leaves`` leaves feed a collector, which feeds a root.

    Leaves start idle and come up ok, except the first ``faulty`` leaves,
    which are err from the start.  The collector goes err as soon as any
    leaf is err and ok once all are ok; the root copies the collector.
    With one faulty leaf that leaf is the cause of the root's error; with
    two or more the error is overdetermined and no component set is a
    cause.

    Returns the DSL text and the names: ``comps`` (leaves, collector,
    root), ``start``, ``end``, ``root_err`` (atom).
    """
    name = Namer(rng)
    comps = [name("c", i) for i in range(leaves + 2)]
    leaf_names, collector, root = comps[:leaves], comps[leaves], comps[leaves + 1]
    start, end, root_err = name("g", 0), name("g", 1), name("p", 0)
    lines = ["async", ""]
    for leaf in leaf_names:
        lines += [f"component {leaf} {{", "  domain idle ok err", "  rule idle -> ok", "}"]
    lines += [
        f"component {collector} {{",
        "  domain idle ok err",
        "  context " + " ".join(leaf_names),
    ]
    for i in range(leaves):
        pattern = ["_"] * leaves
        pattern[i] = "err"
        lines.append(f"  rule idle ({', '.join(pattern)}) -> err")
    lines += [f"  rule idle ({', '.join(['ok'] * leaves)}) -> ok", "}"]
    lines += [
        f"component {root} {{",
        "  domain idle ok err",
        f"  context {collector}",
        "  rule idle (ok) -> ok",
        "  rule idle (err) -> err",
        "}",
    ]
    start_vals = ["err"] * faulty + ["idle"] * (leaves - faulty) + ["idle", "idle"]
    end_vals = ["err"] * faulty + ["ok"] * (leaves - faulty) + ["err", "err"]
    lines += [
        "",
        f"atom {root_err} = {root} = err",
        _config(start, comps, start_vals),
        _config(end, comps, end_vals),
    ]
    names = {"comps": comps, "start": start, "end": end, "root_err": root_err}
    return "\n".join(lines) + "\n", names


def ring(rng: random.Random, n: int) -> tuple[str, dict]:
    """n nodes in a ring, each watching its predecessor, with retry.

    An up node goes down while its predecessor is down and comes back up
    once its predecessor is up again.  Node 0 recovers through a retry
    state instead, so a failure keeps travelling round the ring.  The
    reachable set from a single failure has 12, 21, 33 and 48
    configurations for n = 3 to 6.  Interventions restart node 0, pin the
    last node up, or isolate node 0 by parking it in retry.

    Returns the DSL text and the names: ``comps``, ``healthy`` (all up),
    ``failing`` (node 0 down, rest up), ``down`` (atom: node 0 down),
    ``last_up`` (atom), ``ivs`` (restart, pin, isolate).
    """
    name = Namer(rng)
    comps = [name("c", i) for i in range(n)]
    healthy, failing = name("g", 0), name("g", 1)
    down, last_up = name("p", 0), name("p", 1)
    ivs = [name("t", i) for i in range(3)]
    lines = ["async", ""]
    lines += [
        f"component {comps[0]} {{",
        "  domain up down retry",
        f"  context {comps[-1]}",
        "  rule up (down) -> down",
        "  rule down (_) -> retry",
        "  rule retry (up) -> up",
        "}",
    ]
    for i in range(1, n):
        lines += [
            f"component {comps[i]} {{",
            "  domain up down",
            f"  context {comps[i - 1]}",
            "  rule up (down) -> down",
            "  rule down (up) -> up",
            "}",
        ]
    lines += [
        "",
        f"atom {down} = {comps[0]} = down",
        f"atom {last_up} = {comps[-1]} = up",
        _config(healthy, comps, ["up"] * n),
        _config(failing, comps, ["down"] + ["up"] * (n - 1)),
        f"intervention {ivs[0]} on {comps[0]} {{",
        "  cost 5",
        "  penalty 0",
        f"  rule {comps[0]}: _ (_) -> up",
        "}",
        f"intervention {ivs[1]} on {comps[-1]} {{",
        "  cost 2",
        "  penalty 4",
        f"  rule {comps[-1]}: _ (_) -> up",
        "}",
        f"intervention {ivs[2]} on {comps[0]} {{",
        "  cost 1",
        "  penalty 1",
        f"  rule {comps[0]}: _ (_) -> retry",
        "}",
    ]
    names = {
        "comps": comps,
        "healthy": healthy,
        "failing": failing,
        "down": down,
        "last_up": last_up,
        "ivs": ivs,
    }
    return "\n".join(lines) + "\n", names
