#!/usr/bin/env python3
"""Scaling curve of the cause search: ``find_causes`` milliseconds, effect
searches, states expanded and certificates built for the benchmark's
pipelines (n stages, with and without a fault at the source) and fan-in
trees (one or two faulty leaves), then the same for ``find_causal_chains``
on the microservice model from f1 to f2 for max-len 3 to 12, and for
max-len 3 and 4 on three queries whose direct link is certified: micro
from f1 to f2 with the effect {FrontEnd}, faulted pipelines of 6 to 9
stages and fan-in trees of 3 to 5 leaves with one faulty, each with its
last component as the effect.  A chain query's links share their clamped
variants and verdicts, so each search it counts is one the query had not
run before.  With max-len 3 such a query looks up no three-waypoint close,
since each has the certified direct link as its shortcut; with max-len 4
the four-waypoint pass still looks up the links from the start that the
three-waypoint pass skipped, so the fan-in rows keep their cost there.
The counts are the work of one run and do not depend on the machine, so a
faster kernel shows as fewer milliseconds at the same counts.

Only the answers and the certificates are checked, not the times: a
spontaneous pipeline and a tree with two faulty leaves have no cause, a
faulty source is the one cause of its pipeline's sink error, and a single
faulty leaf that of its tree's root error; cause search builds one
certificate per cause it returns and no other.  The chains found under a
max-len are those of max-len 12 with at most that many waypoints, and
the one chain of a query with a certified direct link is that link, whose
certificate makes every longer chain non-minimal.  Times are best of ``--repeat`` runs, each
parsing the model afresh, and vary with the machine.
"""

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path

from causalmc import kernel
from causalmc.causality import CauseQuery, find_causal_chains, find_causes
from causalmc.dsl import parse_model

REPO = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no bytecode cache in the benchmark's directory
sys.path.insert(0, str(REPO / "perfbench"))

import families  # noqa: E402


def timed(prepare, repeat: int):
    """Best milliseconds of ``repeat`` runs, the effect searches, states
    expanded and certificates built of one run, and what the last run
    returned; ``prepare`` parses the model afresh and returns the run, so the
    time leaves the parse out.  Each run is recorded, as the counts are."""
    best = float("inf")
    for _ in range(repeat):
        run = prepare()
        with kernel.recording() as events:
            started = time.perf_counter()
            found = run()
            best = min(best, time.perf_counter() - started)
    kinds = Counter(event[0] for event in events)
    return 1000 * best, kinds["effect search"], kinds["expand"], kinds["certificate"], found


def measure(text: str, names: dict, effect: str, repeat: int):
    """Best milliseconds, effect searches, states expanded and certificates
    built of one run, and the cause sets found."""

    def prepare():
        doc = parse_model(text)
        q = CauseQuery(doc.configuration(names["start"]), doc.configuration(names["end"]), (effect,))
        return lambda: find_causes(doc.model, q)

    *counts, found = timed(prepare, repeat)
    return (*counts, [c.cause_set for c in found])


def measure_chains(text: str, start: str, end: str, max_len: int, repeat: int, effect=None):
    """Best milliseconds, effect searches, states expanded and certificates
    built of the chain search between two named configurations, and the
    waypoints of the chains found."""

    def prepare():
        doc = parse_model(text)
        f1, f2 = doc.configuration(start), doc.configuration(end)
        return lambda: find_causal_chains(doc.model, f1, f2, max_len, effect)

    *counts, chains = timed(prepare, repeat)
    return (*counts, [c.configurations for c in chains])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=12, help="longest pipeline (default 12)")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    print(f"{'family':<26}{'ms':>10}{'searches':>10}{'expanded':>10}{'certs':>7}  causes")
    for n in range(4, args.max_n + 1):
        for fault in (False, True):
            text, names = families.pipeline(random.Random(args.seed), n, fault)
            ms, searches, expanded, certs, causes = measure(text, names, names["comps"][-1], args.repeat)
            label = f"pipeline n={n} " + ("fault" if fault else "spontaneous")
            print(f"{label:<26}{ms:>10.1f}{searches:>10}{expanded:>10}{certs:>7}  {causes}")
            assert causes == ([(names["comps"][0],)] if fault else []), causes
            assert certs == len(causes), certs
    for leaves in (3, 4, 5):
        for faulty in (1, 2):
            text, names = families.fanin(random.Random(args.seed), leaves, faulty)
            ms, searches, expanded, certs, causes = measure(text, names, names["comps"][-1], args.repeat)
            label = f"fan-in {leaves} leaves, {faulty} faulty"
            print(f"{label:<26}{ms:>10.1f}{searches:>10}{expanded:>10}{certs:>7}  {causes}")
            assert causes == ([(names["comps"][0],)] if faulty == 1 else []), causes
            assert certs == len(causes), certs
    micro = (REPO / "models" / "microservice.model").read_text(encoding="utf-8")
    *_, longest = measure_chains(micro, "f1", "f2", 12, 1)
    for max_len in range(3, 13):
        ms, searches, expanded, certs, chains = measure_chains(micro, "f1", "f2", max_len, args.repeat)
        label = f"micro chain max-len {max_len}"
        print(f"{label:<26}{ms:>10.1f}{searches:>10}{expanded:>10}{certs:>7}  {len(chains)} chains")
        assert chains == [c for c in longest if len(c) <= max_len], chains
    direct = [("micro {FrontEnd}", micro, {"start": "f1", "end": "f2", "comps": ["FrontEnd"]})]
    direct += [(f"fault chain n={n}", *families.pipeline(random.Random(args.seed), n, True)) for n in range(6, 10)]
    direct += [(f"fan-in {n} leaves", *families.fanin(random.Random(args.seed), n, 1)) for n in (3, 4, 5)]
    for family, text, names in direct:
        doc = parse_model(text)
        link = [(doc.configuration(names["start"]), doc.configuration(names["end"]))]
        for max_len in (3, 4):
            ms, searches, expanded, certs, chains = measure_chains(
                text, names["start"], names["end"], max_len, args.repeat, (names["comps"][-1],)
            )
            label = f"{family} max-len {max_len}"
            print(f"{label:<26}{ms:>10.1f}{searches:>10}{expanded:>10}{certs:>7}  {len(chains)} chains")
            assert chains == link, chains
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
