"""Post-incident query benchmark for causalmc.

Drives generated and bundled model files through the command-line entry
point ``causalmc.cli.main``, called in-process, one query per call, each
with a ``--report`` file.  Load is a closed loop: one client in one thread
repeats the workload's battery in whole passes until ``--seconds`` have
passed and at least ``MIN_SAMPLES`` queries ran.

    python3 perfbench/run.py --workload cause --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
battery untraced and then traced, and reports per-layer metrics, the
tracing overhead and the scaling curves.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit.  A
results file with run metadata goes to ``perfbench/out/``.
``--pin`` rewrites the workload's replay digests in ``digests.json``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 5
MIN_SAMPLES = 110  # so that at least ten samples lie beyond the 90th percentile
CURVE_BUDGET_S = 0.2  # repeat a scaling point until this much time is spent, at most 5 times
KERNEL_N = 30_000
REFERENCE_KERNEL_S = 0.004  # the speed end-to-end times are scaled to

END_TO_END = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def per_layer_units() -> dict[str, str]:
    from tracer import SPANNED

    units = {}
    for mod, fn in SPANNED:
        units[f"{mod}.{fn}.calls"] = "count"
        units[f"{mod}.{fn}.self_ms"] = "ms"
    units["causality.cause_yield"] = "ratio"
    units["model.reachable.per_query"] = "count"
    units["trace.overhead_pct"] = "%"
    for name in curve_names():
        units[name] = "ms"
    return units


def curve_names() -> list[str]:
    return (
        [f"curve.find_causes.pipeline_n{n}_ms" for n in range(4, 9)]
        + [f"curve.candidate_splits.c{n}_ms" for n in range(5, 9)]
        + [f"curve.evaluate.micro_dplus{k}_ms" for k in range(1, 4)]
        + [f"curve.check_bisim.pipeline_n{n}_ms" for n in range(3, 6)]
    )


class _Sink:
    """Swallows the command line's own printing."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def kernel_s() -> float:
    """Seconds taken by a fixed integer and dictionary loop.

    On a shared host the speed of the same Python code drifts by a quarter
    within seconds to minutes.  The kernel runs between queries, and each
    query's time is scaled by REFERENCE_KERNEL_S over the mean kernel time
    just before and after it (see ``scale``), which cancels that drift: the
    scaled times are what the queries would take on a host where the kernel
    takes REFERENCE_KERNEL_S.
    """
    started = time.perf_counter()
    table = {}
    for i in range(KERNEL_N):
        table[i & 1023] = i * i
    return time.perf_counter() - started


def scale(times: list[float], kernels: list[float]) -> list[float]:
    """``times[i]`` ran between ``kernels[i]`` and ``kernels[i + 1]``."""
    return [
        t * 2 * REFERENCE_KERNEL_S / (before + after)
        for t, before, after in zip(times, kernels, kernels[1:])
    ]


def _require_checkout() -> None:
    needed = [ROOT / "src" / "causalmc" / "cli.py", ROOT / "tests" / "oracle.py"]
    needed += [ROOT / "models" / m for m in ("ex1.model", "microservice.model")]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"perfbench: not a causalmc checkout, missing {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]


def run_op(cli, op) -> str:
    """Run one query; the outcome is answered, exit2, exit3, exit<n> or exception."""
    try:
        code = cli.main(op.argv + ["--report", op.report])
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed operation, not a crashed run
        return f"exception: {type(exc).__name__}: {exc}"
    return "answered" if code in (0, 1) else f"exit{code}"


class Run:
    def __init__(self, workload: str, seed: int):
        before = kernel_s()
        import causalmc.cli

        self.cli = causalmc.cli
        took = time.perf_counter() - PROCESS_START - before
        self.import_s = scale([took], [before, kernel_s()])[0]
        self.workload = workload
        self.seed = seed
        self.outcomes: Counter = Counter()
        self.op_outcomes: Counter = Counter()  # (op id, outcome)
        self.exceptions: list[str] = []

    def set_up(self, repeats: int):
        """Generate, parse and warm up ``repeats`` times; keep the last battery."""
        from causalmc.dsl import parse_model
        from workloads import BUILDERS

        durations = []
        battery = None
        for _ in range(repeats):
            if battery is not None:
                shutil.rmtree(battery.tmp)
            kernels = [kernel_s()]
            started = time.perf_counter()
            tmp = Path(tempfile.mkdtemp(prefix=f"{self.workload}-", dir=OUT))
            battery = BUILDERS[self.workload](self.seed, tmp, ROOT)
            for path in battery.docs.values():
                parse_model(path.read_text(encoding="utf-8"), path=str(path))
            steps = [time.perf_counter() - started]
            kernels.append(kernel_s())
            for op in battery.warmups:
                started = time.perf_counter()
                run_op(self.cli, op)
                steps.append(time.perf_counter() - started)
                kernels.append(kernel_s())
            durations.append(sum(scale(steps, kernels)))
        self.battery = battery
        self.setup_runs = durations
        return self.import_s + statistics.median(durations)

    def passes(self, seconds: float, min_samples: int, tracer=None, scaled=None):
        """Whole battery passes until ``seconds`` and ``min_samples`` are reached.

        Returns raw latencies, pass wall times and elapsed time; with a
        ``scaled`` list, the latencies scaled to the reference speed are
        appended to it (see ``kernel_s``).
        """
        latencies, walls = [], []
        started = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            first = len(latencies)
            kernels = [kernel_s()] if scaled is not None else []
            for op in self.battery.ops:
                if tracer is not None:
                    tracer.request += 1
                t = time.perf_counter()
                outcome = run_op(self.cli, op)
                latencies.append(time.perf_counter() - t)
                key = outcome.split(":")[0]
                self.outcomes[key] += 1
                self.op_outcomes[(op.id, key)] += 1
                if key == "exception" and len(self.exceptions) < 5:
                    self.exceptions.append(f"{op.id}: {outcome}")
                if scaled is not None:
                    kernels.append(kernel_s())
            if scaled is not None:
                scaled += scale(latencies[first:], kernels)
            walls.append(time.perf_counter() - pass_start)
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and len(latencies) >= min_samples:
                return latencies, walls, elapsed

    def verify(self, pin: bool) -> dict[str, list[str]]:
        """Reference checks on the last pass's reports; problems per op id."""
        from checks import Checker, replay_digest

        pinned_all = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
        reports = {}
        problems: dict[str, list[str]] = {}
        for op in self.battery.declared:
            try:
                reports[op.id] = json.loads(Path(op.report).read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems[op.id] = [f"no readable report: {exc}"]
        if pin:
            pinned_all[self.workload] = {
                op_id: replay_digest(r, self.battery.tmp) for op_id, r in sorted(reports.items())
            }
            DIGESTS.write_text(json.dumps(pinned_all, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        checker = Checker(self.battery, pinned_all.get(self.workload, {}))
        for op in self.battery.declared:
            if op.id not in reports:
                continue
            try:
                found = checker.check(op, reports[op.id])
            except Exception as exc:  # a check that cannot run counts as a mismatch
                found = [f"reference check raised {type(exc).__name__}: {exc}"]
            if found:
                problems[op.id] = found
        return problems

    def failures(self, mismatched: dict) -> dict[str, int]:
        """Failed operations by class; a mismatched op's answered runs count as mismatch.

        A cap overrun in cause search exits 2 today rather than 3; both fail.
        """
        out = dict.fromkeys(("exit2", "exit3", "exception", "mismatch"), 0)
        for (op_id, key), n in self.op_outcomes.items():
            if key != "answered":
                out[key] = out.get(key, 0) + n
            elif op_id in mismatched:
                out["mismatch"] += n
        return out


def curves(seed: int) -> tuple[dict[str, float], dict[str, int], list[str]]:
    """Scaling points of the exponential terms, timed untraced."""
    import families
    from causalmc import formulas as F
    from causalmc.bisim import PointedModel, check_bisim
    from causalmc.causality import CauseQuery, find_causes
    from causalmc.dsl import parse_model
    from causalmc.generate import rename_component_behaviours
    from causalmc.semantics import candidate_splits, evaluate

    rng = random.Random(f"curves:{seed}")
    points: dict[str, float] = {}
    reps: dict[str, int] = {}
    problems: list[str] = []

    def timed(name, fn, expect):
        runs, spent = [], 0.0
        while spent < CURVE_BUDGET_S and len(runs) < 5:
            t = time.perf_counter()
            result = fn()
            runs.append(time.perf_counter() - t)
            spent += runs[-1]
        points[name] = statistics.median(runs) * 1000
        reps[name] = len(runs)
        if not expect(result):
            problems.append(f"{name}: unexpected result")

    def pipeline(n, fault):
        text, nm = families.pipeline(rng, n, fault)
        doc = parse_model(text)
        return doc, nm

    for n in range(4, 9):
        doc, nm = pipeline(n, False)
        q = CauseQuery(doc.configuration(nm["start"]), doc.configuration(nm["end"]), (nm["comps"][-1],))
        timed(f"curve.find_causes.pipeline_n{n}_ms", lambda: find_causes(doc.model, q), lambda r: r == [])
    for n in range(5, 9):
        doc, _ = pipeline(n, False)
        timed(f"curve.candidate_splits.c{n}_ms", lambda: candidate_splits(doc.model), lambda r: len(r) > 0)
    micro = parse_model((ROOT / "models" / "microservice.model").read_text(encoding="utf-8"))
    f1 = micro.configuration("f1")
    for k in range(1, 4):
        phi = F.Bot()
        for _ in range(k):
            phi = F.DiamondPlus(phi)
        timed(f"curve.evaluate.micro_dplus{k}_ms", lambda: evaluate(micro.model, f1, phi), lambda r: r is False)
    for n in range(3, 6):
        doc, nm = pipeline(n, True)
        start = doc.configuration(nm["start"])
        ren, ren_cfg = rename_component_behaviours(doc.model, nm["comps"][1])
        a, b = PointedModel(doc.model, start), PointedModel(ren, ren_cfg(start))
        timed(f"curve.check_bisim.pipeline_n{n}_ms", lambda: check_bisim(a, b), lambda r: r.bisimilar)
    return points, reps, problems


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _src_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "causalmc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _expected_names(trace: bool) -> list[str] | None:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    data = json.loads(spec.read_text(encoding="utf-8"))
    return [m["name"] for m in data["per_layer" if trace else "end_to_end"]]


def end_to_end(run: Run, args):
    """Set up, loop untraced, verify: the metrics a user of the engine sees."""
    setup_s = run.set_up(SETUP_REPEATS)
    scaled: list[float] = []
    latencies, walls, wall = run.passes(args.seconds, MIN_SAMPLES, scaled=scaled)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p90 = statistics.quantiles(scaled, n=10)[8]
    metrics = {
        "setup_s": setup_s,
        "queries_per_s": run.outcomes["answered"] / sum(scaled),
        "query_p50_ms": statistics.median(scaled) * 1000,
        "query_p90_ms": p90 * 1000,
        "peak_rss_mb": peak_rss_mb,
    }
    samples = dict.fromkeys(metrics, len(scaled))
    samples.update(setup_s=len(run.setup_runs), peak_rss_mb=1)
    raw_p90 = statistics.quantiles(latencies, n=10)[8]
    notes = {
        "beyond_p90": sum(1 for x in scaled if x > p90),
        "passes": len(walls),
        "timed_wall_s": wall,
        "setup_runs_s": run.setup_runs,
        "import_s": run.import_s,
        "unscaled": {
            "queries_per_s": run.outcomes["answered"] / sum(latencies),
            "query_p50_ms": statistics.median(latencies) * 1000,
            "query_p90_ms": raw_p90 * 1000,
        },
    }
    return metrics, samples, notes, run.verify(args.pin)


def per_layer(run: Run, args):
    """Alternate untraced and traced passes, verify traced, then time the curves."""
    from tracer import Tracer

    run.set_up(1)
    # the overhead is the median ratio of a traced pass to the untraced pass
    # just before it, so drift in machine speed cancels out
    tracer = Tracer()
    plain_walls, traced_walls, traced_ops = [], [], 0
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds or not traced_walls:
        plain_walls += run.passes(0, 1)[1]
        tracer.install()
        try:
            lat, walls, _ = run.passes(0, 1, tracer)
        finally:
            tracer.uninstall()
        traced_walls += walls
        traced_ops += len(lat)
    battery_end = tracer.mark()
    certified = tracer.certified
    tracer.install()
    try:
        mismatched = run.verify(args.pin)
    finally:
        tracer.uninstall()
    points, curve_reps, curve_problems = curves(args.seed)
    if curve_problems:
        mismatched["curves"] = curve_problems

    passes = len(traced_walls)
    layer = tracer.totals(0, battery_end)
    verify_layer = tracer.totals(battery_end)
    metrics = {}
    for name, (calls, self_ms) in layer.items():
        if name.startswith("hp."):
            calls, self_ms = verify_layer[name]
        else:
            calls, self_ms = calls / passes, self_ms / passes
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_ms"] = self_ms
    checks = layer["causality.check_cause"][0]
    metrics["causality.cause_yield"] = certified / checks if checks else 0.0
    metrics["model.reachable.per_query"] = layer["model.reachable"][0] / traced_ops
    ratios = [t / p for t, p in zip(traced_walls, plain_walls)]
    metrics["trace.overhead_pct"] = (statistics.median(ratios) - 1) * 100
    metrics.update(points)
    samples = dict.fromkeys(metrics, passes)
    samples.update({n: 1 for n in metrics if n.startswith("hp.")})
    samples.update(curve_reps)
    samples["trace.overhead_pct"] = len(plain_walls) + passes
    notes = {
        "untraced_passes": len(plain_walls),
        "traced_passes": passes,
        "spans": tracer.mark(),
        "absent": tracer.absent,
        "hp_scope": "hp.* totals cover the verification pass, other spans are per traced pass",
    }
    tracer.write(OUT / f"spans-{args.workload}.tsv.gz")
    return metrics, samples, notes, mismatched


def measure(args) -> dict:
    from workloads import WHY

    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed)
    with contextlib.redirect_stdout(_Sink()), contextlib.redirect_stderr(_Sink()):
        metrics, samples, notes, mismatched = (per_layer if args.trace else end_to_end)(run, args)
        shutil.rmtree(run.battery.tmp)

    failures = run.failures(mismatched)
    attempted = sum(run.outcomes.values())
    failed = sum(failures.values()) + len(mismatched.get("curves", []))
    units = dict(END_TO_END) if not args.trace else per_layer_units()
    result = {
        "correct": not mismatched and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    results_file = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "workloads": WHY,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one thread, in-process cli.main calls",
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "ops_per_pass": len(run.battery.ops),
        "samples": samples,
        "error_rate": failed / attempted,
        "failures": failures,
        "mismatches": mismatched,
        "exceptions": run.exceptions,
        **notes,
        "result": result,
    }
    (OUT / f"results-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(results_file, indent=1) + "\n", encoding="utf-8"
    )
    expected = _expected_names(bool(args.trace))
    if expected is not None and expected != list(units):
        raise SystemExit("perfbench: metric names differ from BENCHMARK.json")
    for name in units:
        mark = "  (absent)" if name.rsplit(".", 1)[0] in notes.get("absent", ()) else ""
        print(f"{args.workload:6} {name:40} {metrics[name]:14.6g} {units[name]}{mark}")
    print(f"{args.workload:6} {'error_rate':40} {failed / attempted:14.6g} ({failed}/{attempted})")
    for key, n in sorted(failures.items()):
        if n:
            print(f"{args.workload:6}   failed {key}: {n}")
    for op_id, found in sorted(mismatched.items()):
        print(f"{args.workload:6}   mismatch {op_id}: {'; '.join(found)}")
    return result


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    from workloads import WHY

    status = 0
    for workload in WHY:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["cause", "check", "bisim", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--pin", action="store_true", help="rewrite this workload's replay digests")
    args = ap.parse_args(argv)
    _require_checkout()
    if args.workload == "all":
        return run_all(args)
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
