#!/usr/bin/env python3
"""Start-up cost of each subcommand, one fresh interpreter per run.

For each subcommand on a bundled model, prints the wall time of a whole
``python -c`` process that runs ``causalmc.cli.main`` (best of
``--repeat`` runs), the time spent importing ``causalmc`` modules as
``-X importtime`` reports it (the top-level ``causalmc`` entries with
everything they imported, including imports made while the command ran),
and the ``causalmc`` modules loaded by the end.

The interpreters import a copy of ``src/causalmc`` with no bytecode cache
and write none (``-B``), so every run compiles the package from source,
as a fresh checkout run with ``PYTHONDONTWRITEBYTECODE=1`` does.  Standard
library modules keep their caches.  Only the exit codes are checked (each
command must answer 0 or 1), not the times, which vary with the machine.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MICRO = str(REPO / "models" / "microservice.model")
EX1 = str(REPO / "models" / "ex1.model")

COMMANDS = [
    ["check", MICRO, "f2", "<theta1> [] ! phi_fail"],
    ["recover", MICRO, "f2", "phi_fail"],
    ["mincost", MICRO, "f2", "phi_fail"],
    ["utility", MICRO, "f2", "phi_fail"],
    ["decompose", EX1, "--left", "c1", "c2", "--right", "c2", "c3"],
    ["cause", MICRO, "--from", "f1", "--to", "f2", "--effect", "FrontEnd"],
    ["chain", EX1, "--from", "start", "--to", "flipped"],
    ["bisim", EX1, "start", EX1, "start"],
    ["export-dot", EX1],
    ["export-dot", EX1, "--variants"],
    ["export-hp", EX1, "--init", "start"],
    ["run", EX1],
]

# run one command with its output discarded; print its exit code and the causalmc modules loaded
CHILD = """
import contextlib, io, json, sys
from causalmc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(json.dumps([code, sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("causalmc."))]))
"""


def run(argv: list[str], env: dict, importtime: bool) -> tuple[float, str, str]:
    """Wall seconds, standard output and standard error of one fresh interpreter."""
    flags = ["-B", "-X", "importtime"] if importtime else ["-B"]
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *flags, "-c", CHILD.format(argv=argv)], capture_output=True, text=True, env=env, check=True
    )
    return time.perf_counter() - started, done.stdout, done.stderr


def causalmc_import_ms(importtime_log: str) -> float:
    """Cumulative microseconds of the top-level ``causalmc`` entries, in milliseconds."""
    total = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line.split("|")
        if name.startswith(" causalmc"):  # one blank after the bar: not nested in another import
            total += int(cumulative)
    return total / 1000


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=1, help="timed runs per command (default 1)")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="causalmc-startup-") as tmp:
        shutil.copytree(REPO / "src" / "causalmc", Path(tmp) / "causalmc", ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=tmp)
        print(f"{'command':<22} {'wall ms':>8} {'import ms':>10}  causalmc modules loaded")
        for argv in COMMANDS:
            wall = min(run(argv, env, importtime=False)[0] for _ in range(args.repeat))
            _, out, log = run(argv, env, importtime=True)
            code, modules = json.loads(out.splitlines()[-1])
            if code not in (0, 1):
                raise SystemExit(f"{' '.join(argv)}: exit {code}")
            label = " ".join([argv[0], *(a for a in argv if a == "--variants")])
            print(f"{label:<22} {1000 * wall:>8.1f} {causalmc_import_ms(log):>10.1f}  {' '.join(modules)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
