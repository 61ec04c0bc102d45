#!/usr/bin/env python3
"""One-off reference timings at the paper's full sizes, for the README.

    python3 perfbench/reference.py

Runs each command once through launch.py and prints wall and CPU time: the
full-size sweep-j10, spectrum-rect and diagonal-rmt invocations, one sweep
point at 1 and 2 BLAS threads, and the sweep-j10 grid for every
OPENT_WORKERS x OPENBLAS_NUM_THREADS pair up to two each (so up to four
compute threads on a two-core machine: the oversubscribed cells are the
point of the table). These are single runs, not benchmark metrics; the
benchmark itself is run.py. Takes about six minutes on two cores.
"""

from __future__ import annotations

import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

import run

SWEEP = ("sweep", "--j1", "10", "--j2", "10", "--k", "6", "--nmax", "1000", "--stride", "5")
FULL = {
    "sweep-j10": (SWEEP + ("--eps", "0.001,1"),),
    "spectrum-rect": (("spectrum", "--j1", "10", "--j2", "10,15", "--k", "6", "--eps", "1",
                       "--window", "200,1000,40", "--bins", "25"),),
    "diagonal-rmt": tuple(("diagonal", "--j1", "10", "--j2", j2, "--alpha", run._csv(i / 20 for i in range(41)))
                          for j2 in ("10", "20"))
                    + tuple(("saturation", "--n", "21", "--m", m) for m in ("21", "41")),
}


def timed(argv: tuple[str, ...], workers: int, blas: int) -> run.Finished:
    env = run.child_env(workers)
    env.update({var: str(blas) for var in run.BLAS_VARS})
    run.RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUNS) as out:
        extra = ["--out", out] if argv[0] != "saturation" else []
        return run.run_child([sys.executable, "-m", "opent.cli", *argv, *extra], env, Path(out), 900)


def report(label: str, runs: list[run.Finished]) -> None:
    wall, cpu = sum(r.wall_s for r in runs), sum(r.cpu_s for r in runs)
    ok = all(r.returncode == 0 for r in runs)
    print(f"| {label} | {wall:.1f} | {cpu:.1f} | {max(r.max_rss_mb for r in runs):.0f} |"
          + ("" if ok else " FAILED"), flush=True)


def main() -> int:
    print(f"nproc={run.NPROC} python={platform.python_version()} numpy={np.__version__}")
    print("| run | wall s | cpu s | peak RSS MB |\n|---|---|---|---|")
    for name, invocations in FULL.items():
        report(f"{name}, full size, 2 workers x 1 BLAS thread, calls in sequence",
               [timed(argv, 2, 1) for argv in invocations])
    for blas in (1, 2):
        report(f"one sweep point (eps=1), {blas} BLAS thread(s)",
               [timed(SWEEP + ("--eps", "1"), 1, blas)])
    for workers in (1, 2):
        for blas in (1, 2):
            report(f"sweep-j10 full, OPENT_WORKERS={workers} x OPENBLAS_NUM_THREADS={blas}",
                   [timed(FULL["sweep-j10"][0], workers, blas)])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
