#!/usr/bin/env python3
"""Mutation check of the engine's fast paths: the token scan and token
positions, successor expansion and the state cap, the transition mode a
kernel reads from its options, the one kernel a model keeps for its
options and the copy of the model it holds, the rule-table lookup,
intervened variants, closure labelling and interface splits with the
sides a kernel keeps and their atoms, chain search, cause search with
the AC1 clause its options select and its shared AC1 searches,
intervention classification, bisimulation, the document lookups stanzas
resolve against and the commands that resolve them, the report writer,
the splits a kernel draws on demand and keeps, and the methods
``records`` writes for the value classes.

Each entry of ``MUTANTS`` is one edit of one source file (its old text,
which must occur exactly once, and its new text) and the tests that must
fail once the edit is made.  The script copies the checkout to a temporary
directory, runs every entry's tests there unmutated (they must pass), then
applies each edit in turn and runs its tests with ``pytest -x -q`` under a
per-mutant timeout.  A mutant is killed when its tests fail or time out.
The exit status is 1 if the unmutated copy fails or any mutant survives,
else 0.

    PYTHONPATH=src python3 scripts/mutants.py
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no bytecode cache in the benchmark's directory
TIMEOUT_S = 60  # per pytest run; each mutant's tests take a few seconds


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


CAUSALITY = "src/causalmc/causality.py"
CLI = "src/causalmc/cli.py"
BISIM = "src/causalmc/bisim.py"
DSL = "src/causalmc/dsl.py"
KERNEL = "src/causalmc/kernel.py"
MODEL = "src/causalmc/model.py"
RECORDS = "src/causalmc/records.py"
SEMANTICS = "src/causalmc/semantics.py"
PINNED = "tests/test_cause_search.py::test_the_states_expanded_and_effect_searches_are_pinned"
MICRO = "tests/test_cause_search.py::test_micro_chain_search_matches_permutations"
STAGED = "tests/test_cause_search.py::test_chain_search_matches_permutations_on_staged_models"
ORDER = "tests/test_cause_search.py::test_cause_searches_run_in_the_reference_order"
COUNTS = "tests/test_cause_search.py::test_search_counts_on_a_spontaneous_pipeline"
BISIM_REFERENCE = "tests/test_bisim.py::test_check_bisim_matches_tuple_keyed_reference"
RECORD_MIRRORS = "tests/test_records.py::test_record_behaves_as_its_dataclass_mirror"
AC1_REUSE = "tests/test_cause_search.py::test_ac1_reuses_a_search_only_where_it_would_run_alike"
CLASSIFY = "tests/test_cause_search.py::test_classification_matches_reference"
OPTIONS_MODE = "tests/test_queries.py::test_transition_mode_of_the_options_holds_for_every_model_a_query_reads"

MUTANTS = (
    Mutant(
        "last-middle prune looks (a, end) up",
        CAUSALITY,
        "links.get((prefix[-1], end, final_effect)) is not None",
        "link(prefix[-1], end) is not None",
        (PINNED + "[faulted chain-19-16]",),
    ),
    Mutant(
        "last-middle prune one waypoint early",
        CAUSALITY,
        "if len(prefix) == n - 2 and links.get(",
        "if len(prefix) == n - 3 and links.get(",
        (STAGED,),
    ),
    Mutant(
        "last-middle prune ignores the explicit effect",
        CAUSALITY,
        "links.get((prefix[-1], end, final_effect))",
        "links.get((prefix[-1], end, None))",
        (PINNED + "[micro effect chain-72-27]",),
    ),
    Mutant(
        "link lookup bypasses the table's memo",
        CAUSALITY,
        "return links[a, b, final_effect if b == end else None]",
        "return links.__missing__((a, b, final_effect if b == end else None))",
        (MICRO + "[3]",),
    ),
    Mutant(
        "extension skips no certified shortcut",
        CAUSALITY,
        "if g not in prefix and not shortcut(prefix, g) and link(prefix[-1], g) is not None:",
        "if g not in prefix and link(prefix[-1], g) is not None:",
        (STAGED,),  # micro's chains hide it: no longer micro chain has only an interior shortcut
    ),
    Mutant(
        "close skips no certified shortcut",
        CAUSALITY,
        "if not shortcut(prefix, end) and link(prefix[-1], end) is not None:",
        "if link(prefix[-1], end) is not None:",
        (STAGED,),
    ),
    Mutant(
        "middles need not reach the end",
        CAUSALITY,
        "if g not in (start, end) and links.realizable(g, end)]",
        "if g not in (start, end)]",
        (MICRO + "[3]",),
    ),
    Mutant(
        "witness walk ignores the candidate's mask",
        CAUSALITY,
        "if mask & held:",
        "if False:",
        (ORDER,),
    ),
    Mutant(
        "witness dropped on failing at a later deviation",
        CAUSALITY,
        "if table[base + first]:",
        "if any(map(table.__getitem__, map(base.__add__, devs))):",
        (ORDER,),
    ),
    Mutant(
        "one untried list per episode, not per offset",
        CAUSALITY,
        "untried = e.untried(first)",
        "untried = e.untried(0)",
        (ORDER,),
    ),
    Mutant(
        "certifying walk keeps nothing after its witness",
        CAUSALITY,
        "untried.items = kept + walked[i + 1 :]",
        "untried.items = kept",
        (ORDER,),
    ),
    Mutant(
        "witness failing at the first deviation is kept",
        CAUSALITY,
        "continue  # fails at the first deviation",
        "kept.append(mask)\n            continue  # fails at the first deviation",
        (COUNTS,),
    ),
    Mutant(
        "kept sequence keeps nothing it draws",
        KERNEL,
        "                items.append(item)\n            yield items[i]",
        "                yield item\n                continue\n            yield items[i]",
        (COUNTS,),
    ),
    Mutant(
        "AC1 reuses a search whatever the held bits",
        CAUSALITY,
        "if held & seen == kept:",
        "if True:",
        (AC1_REUSE,),
    ),
    Mutant(
        "AC1's lost bits skip the start state",
        CAUSALITY,
        "seen |= lost_here",
        "seen |= lost_here if f != e.start else 0",
        (AC1_REUSE,),
    ),
    Mutant(
        "cause search ignores the strict AC1 option",
        CAUSALITY,
        "self.mode = ac1_mode(options)",
        "self.mode = ac1_mode(DEFAULT_OPTIONS)",
        ("tests/test_causality.py::test_strict_mode_requires_start_equals_end",),
    ),
    Mutant(
        "preserved chain re-certified on the model",
        CAUSALITY,
        "found = links[states[i], states[i + 1], effects[i]]",
        "found = _Links(k, shared)[states[i], states[i + 1], effects[i]]",
        (CLASSIFY,),
    ),
    Mutant(
        "right side's lists numbered from 0",
        BISIM,
        "d = listed[at] = first + len(lists)",
        "d = listed[at] = len(lists)",
        (BISIM_REFERENCE,),
    ),
    Mutant(
        "right side's root numbered 0",
        BISIM,
        "self.roots.append(len(self.keys))",
        "self.roots.append(0)",
        (BISIM_REFERENCE,),
    ),
    Mutant(
        "refinement round forgets each state's own colour",
        BISIM,
        "fresh = _number_blocks([(c, tuple(map(sets.__getitem__, row))) for c, row in zip(colour, rows)])",
        "fresh = _number_blocks([tuple(map(sets.__getitem__, row)) for row in rows])",
        (BISIM_REFERENCE,),
    ),
    Mutant(
        "right-only move's parts left unnegated",
        BISIM,
        "_wrap(label, F.conj(_dedup([F.Not(p) for p in parts])))",
        "_wrap(label, F.conj(_dedup(parts)))",
        (BISIM_REFERENCE,),
    ),
    Mutant(
        "stanza formula reads the configuration map",
        DSL,
        "resolved = _resolve_formula(phi, doc.formula_map, doc.model)",
        "resolved = _resolve_formula(phi, doc.config_map, doc.model)",
        ("tests/test_dsl.py::test_stanzas_and_arguments_read_the_documents_names",),
    ),
    Mutant(
        "scan takes a non-decimal digit for a number",
        DSL,
        "return len(t) == 1 and t not in _ONE_CHAR and not t.isdecimal()",
        "return len(t) == 1 and t not in _ONE_CHAR and not t.isdigit()",
        ("tests/test_scanner.py::test_scanner_matches_reference_on_corner_cases",),
    ),
    Mutant(
        "end of input ignores a trailing comment",
        DSL,
        'comment = text.find("#", max(gap, line_start))',
        "comment = -1",
        ("tests/test_scanner.py::test_scanner_matches_reference_on_corner_cases",),
    ),
    Mutant(
        "text read alone may have trailing input",
        DSL,
        "    if p.peek():\n        p.error(f\"trailing input after {what}\")",
        "    if False:\n        p.error(f\"trailing input after {what}\")",
        ("tests/test_dsl.py::test_trailing_input_is_reported",),
    ),
    Mutant(
        "rule lookup tries wildcard rows last",
        MODEL,
        "for row in index.get(own, index[None]):",
        "for row in sorted(index.get(own, index[None]), key=lambda row: row.own is None):",
        ("tests/test_model.py::test_rule_index_matches_linear_scan",),
    ),
    Mutant(
        "kernel ignores the options' transition mode",
        KERNEL,
        "mode = options.mode or model.mode",
        "mode = model.mode",
        (OPTIONS_MODE,),
    ),
    Mutant(
        "async self-loop on every state",
        KERNEL,
        "if self.options.self_loops and stays:",
        "if self.options.self_loops:",
        ("tests/test_kernel.py::test_kernel_matches_reference_on_random_models",),
    ),
    Mutant(
        "expansion recorded on every successor lookup",
        KERNEL,
        "out = self.succ_memo.get(s)",
        'out = self.succ_memo.get(s)\n        if (log := recorder()) is not None:\n            log.append(("expand", self, s))',
        (PINNED,),  # the work pins read the record: a memo hit recorded as an expansion shows
    ),
    Mutant(
        "state cap leaves the start uncounted",
        KERNEL,
        "if len(seen) + (s not in seen) > cap:",
        "if len(seen) > cap:",
        # a goal search holds its start too, and may find its goal there only through a self-loop
        ("tests/test_cause_search.py::test_counterfactual_search_matches_reference",),
    ),
    Mutant(
        "compile keeps a kernel built under other options",
        KERNEL,
        "if found is None or found.options != options:",
        "if found is None:",
        # its cap ladder runs the same generated models under caps 0 to 3 in turn
        ("tests/test_cause_search.py::test_cap_overruns_match_reference",),
    ),
    Mutant(
        "intervened variant left unvalidated",
        KERNEL,
        "check_intervention(self.model, iv)",
        "pass",
        ("tests/test_bisim.py::test_closure_rejects_an_invalid_intervention_as_before",),
    ),
    Mutant(
        "one-state component with a self-loop is acyclic",
        SEMANTICS,
        "return len(members) > 1 or members[0] in self.k.successors(members[0])",
        "return len(members) > 1",
        ("tests/test_labelling.py::test_evaluate_matches_reference_on_random_models",),
    ),
    Mutant(
        "splits need only one side of their own",
        SEMANTICS,
        "left & ~right and right & ~left",
        "left & ~right or right & ~left",
        ("tests/test_labelling.py::test_candidate_splits_match_reference",),
    ),
    Mutant(
        "side of a variant runs the declared rules",
        KERNEL,
        "out.rules = [None if rule is None else self.rules[self.index[c]] for c, rule in zip(out.names, out.rules)]",
        "pass",
        ("tests/test_labelling.py::test_star_under_an_intervention_builds_its_own_sides",),
    ),
    Mutant(
        "side kernels are not kept",
        KERNEL,
        "out = self.sides[names] = Kernel(",
        "out = Kernel(",
        ("tests/test_labelling.py::test_false_star_builds_one_side_model_per_component_subset",),
    ),
    Mutant(
        "splits drawn out of order",
        KERNEL,
        """        items, i = self.items, 0
        while True:
            if i == len(items):
                item = next(self._rest, _DRAWN)
                if item is _DRAWN:
                    return
                items.append(item)
            yield items[i]
            i += 1""",
        # each iteration draws from the shared iterator itself, so an outer
        # ``*`` skips the splits an inner one drew while the outer was paused
        """        yield from self.items
        for item in self._rest:
            self.items.append(item)
            yield item""",
        ("tests/test_labelling.py::test_nested_stars_match_the_eager_split_list[True-ex1_doc]",),
    ),
    Mutant(
        "report writer without its key sort",
        CLI,
        "for key, item in sorted(value.items()):",
        "for key, item in value.items():",
        ("tests/test_cli.py::test_report_writer_matches_json_dumps_on_generated_payloads",),
    ),
    Mutant(
        "run skips stanza resolution",
        CLI,
        'stanzas=args.command == "run"',
        "stanzas=False",
        ("tests/test_cli.py::test_only_run_resolves_the_stanzas_of_a_file",),
    ),
    Mutant(
        "compile holds the model itself",
        KERNEL,
        "Kernel(replace(model), options)",
        "Kernel(model, options)",
        ("tests/test_cli.py::test_a_command_leaves_no_engine_object_in_a_reference_cycle",),
    ),
    Mutant(
        "side atom keeps its unprojected configurations",
        MODEL,
        "g = Configuration(tuple(p for p in f.pairs if p[0] in kept))",
        "g = f",
        ("tests/test_semantics.py::test_extension_atom_holds_at_its_projections_on_a_side",),
    ),
    Mutant(
        "record equality ignores the class",
        RECORDS,
        'lines.append("    if other.__class__ is self.__class__:")',
        'lines.append("    if True:")',
        ("tests/test_records.py::test_records_of_two_classes_never_compare_equal",),
    ),
    Mutant(
        "record hash skips the last field",
        RECORDS,
        'lines.append(f"    return hash(({mine}))")',
        "lines.append(f\"    return hash(({mine.rsplit('self.', 1)[0]}))\")",
        (RECORD_MIRRORS,),
    ),
    Mutant(
        "record assignment allowed",
        RECORDS,
        '("__setattr__", _assign), ',
        "",
        ("tests/test_records.py::test_record_is_frozen",),
    ),
    Mutant(
        "record compares a compare=False field",
        RECORDS,
        "compared = [n for n, f in fields.items() if f.compare]",
        "compared = list(fields)",
        ("tests/test_records.py::test_model_document_path_is_not_compared",),
    ),
)


def pytest(copy: Path, tests, timeout: float = TIMEOUT_S) -> str:
    """"passed", "failed" or "timeout" for ``tests`` run in the copy."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode not in (0, 1):  # a collection or usage error kills no mutant
        raise SystemExit(f"pytest exited {done.returncode} on {' '.join(tests)}:\n{done.stdout}{done.stderr}")
    return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        skip = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks")
        shutil.copytree(REPO, copy, ignore=skip)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        if pytest(copy, tests, TIMEOUT_S * len(MUTANTS)) != "passed":
            print("the unmutated copy fails its mutants' tests")
            return 1
        survived = 0
        for m in MUTANTS:
            path = copy / m.path
            source = path.read_text(encoding="utf-8")
            if source.count(m.old) != 1:
                raise SystemExit(f"{m.name}: the old text occurs {source.count(m.old)} times in {m.path}")
            path.write_text(source.replace(m.old, m.new), encoding="utf-8")
            started = time.perf_counter()
            try:
                outcome = pytest(copy, m.tests)
            finally:
                path.write_text(source, encoding="utf-8")
            survived += outcome == "passed"
            verdict = "SURVIVED" if outcome == "passed" else "killed"
            print(f"{m.name:<48}{outcome:>8}{time.perf_counter() - started:>7.1f} s  {verdict}")
    print(f"{len(MUTANTS)} mutants, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
