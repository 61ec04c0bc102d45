#!/usr/bin/env python3
"""Benchmark of the opent CLI, driven from outside in a child process per invocation.

    python3 perfbench/run.py --workload sweep-j10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Run from anywhere; the repository root is the parent of this directory and
the package is imported from its `src/`. A run repeats whole rounds of the
workload's CLI invocations until `--seconds` have passed, times the set-up
(a fresh interpreter that imports `opent.cli` and builds the workload's
operators) before each round, and reports medians. With `--trace 1` it
alternates untraced rounds with rounds run under `tracer.py` and reports
per-layer metrics instead. The first round's outputs
are checked by `checks.py`; every later round must reproduce them byte for
byte. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The physics parameters are fixed; `--seed` is recorded and changes no input.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child, set before numpy loads.
# CLI calls run one after another, each with at most nproc pool workers, so a
# run never has more compute threads than cores.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections.abc import Callable  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
NPROC = len(os.sched_getaffinity(0))
# set-up samples taken before every round, so that they span the same
# stretch of time as the rounds: this host changes speed within seconds
SETUPS_PER_ROUND = 2
INVOCATION_TIMEOUT_S = 150.0
# no new round starts once the rounds so far plus the slowest one would pass this
ROUNDS_LIMIT_S = 140.0


@dataclass(frozen=True)
class Invocation:
    """One CLI call; `points` names the output that shows each grid point finished."""

    argv: tuple[str, ...]
    points: tuple[str, ...]  # file names under --out, or "stdout:<text>"
    spectra: int


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]  # run in this order; call i writes to <round>/<i>
    workers: int  # OPENT_WORKERS for every call
    builders: str  # set-up code run after `import opent.cli`
    check: Callable[[Path, list[str]], list[str]]  # (round dir, stdouts) -> failures


# --- workloads -------------------------------------------------------------

SWEEP_EPS = (0.001, 1.0)
SWEEP = dict(j=10.0, k=6.0, n_max=100, stride=5)

SPECTRUM_J2 = (10.0, 12.5)
SPECTRUM = dict(j1=10.0, k=6.0, eps=1.0, window=(40, 104, 8))

DIAGONAL_J2 = (10.0, 20.0)
ALPHAS = tuple(i / 10 for i in range(21))
SATURATION_NM = ((21, 21), (21, 41))


def _csv(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def _sweep() -> Workload:
    p = SWEEP
    inv = Invocation(
        ("sweep", "--j1", f"{p['j']:g}", "--j2", f"{p['j']:g}", "--k", f"{p['k']:g}",
         "--eps", _csv(SWEEP_EPS), "--nmax", str(p["n_max"]), "--stride", str(p["stride"])),
        tuple(f"sweep_k{p['k']:g}_eps{e:g}.csv" for e in SWEEP_EPS),
        len(SWEEP_EPS) * (p["n_max"] // p["stride"]),
    )
    builders = "".join(
        f"opent.floquet(opent.KickedTopParams({p['j']}, {p['j']}, {p['k']}, {p['k']}, {e}))\n"
        for e in SWEEP_EPS)

    def check(round_dir: Path, stdouts: list[str]) -> list[str]:
        return checks.check_sweep(round_dir / "0", p["j"], p["k"], SWEEP_EPS, p["n_max"], p["stride"])

    return Workload("sweep-j10", (inv,), min(len(SWEEP_EPS), NPROC), builders, check)


def _spectrum() -> Workload:
    p = SPECTRUM
    start, end, stride = p["window"]
    inv = Invocation(
        ("spectrum", "--j1", f"{p['j1']:g}", "--j2", _csv(SPECTRUM_J2), "--k", f"{p['k']:g}",
         "--eps", f"{p['eps']:g}", "--window", f"{start},{end},{stride}", "--bins", "25"),
        tuple(f"eigenvalues_j2_{j2:g}.txt" for j2 in SPECTRUM_J2),
        len(SPECTRUM_J2) * len(range(start, end + 1, stride)),
    )
    builders = "".join(
        f"opent.floquet(opent.KickedTopParams({p['j1']}, {j2}, {p['k']}, {p['k']}, {p['eps']}))\n"
        for j2 in SPECTRUM_J2)

    def check(round_dir: Path, stdouts: list[str]) -> list[str]:
        return checks.check_spectrum(round_dir / "0", stdouts[0], p["j1"], SPECTRUM_J2,
                                     p["k"], p["eps"], p["window"])

    return Workload("spectrum-rect", (inv,), min(len(SPECTRUM_J2), NPROC), builders, check)


def _diagonal() -> Workload:
    diag = [Invocation(("diagonal", "--j1", "10", "--j2", f"{j2:g}", "--alpha", _csv(ALPHAS)),
                       ("diagonal.csv",), len(ALPHAS) + 1) for j2 in DIAGONAL_J2]
    sat = [Invocation(("saturation", "--n", str(n), "--m", str(m)),
                      ("stdout:saturation_estimate",), 0) for n, m in SATURATION_NM]
    builders = "".join(
        f"s1, s2 = opent.SpinSystem.from_j(10), opent.SpinSystem.from_j({j2})\n"
        f"[opent.diagonal_coupling(s1, s2, a) for a in {ALPHAS!r}]\n"
        f"opent.product_rotation(s1, s2, 0.7)\n" for j2 in DIAGONAL_J2)

    def check(round_dir: Path, stdouts: list[str]) -> list[str]:
        errors = []
        for i, j2 in enumerate(DIAGONAL_J2):
            errors += checks.check_diagonal(round_dir / str(i) / "diagonal.csv", 10.0, j2, ALPHAS)
        for stdout, (n, m) in zip(stdouts[len(DIAGONAL_J2):], SATURATION_NM):
            errors += checks.check_saturation(stdout, n, m)
        return errors

    return Workload("diagonal-rmt", (*diag, *sat), 1, builders, check)


WORKLOADS = {w.name: w for w in (_sweep(), _spectrum(), _diagonal())}


# --- child processes -------------------------------------------------------


def child_env(workers: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENT_WORKERS"] = str(workers)
    return env


@dataclass
class Finished:
    returncode: int
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    stdout: str
    stderr: str


def run_child(cmd: list[str], env: dict[str, str], cwd: Path, timeout: float) -> Finished:
    """Run cmd to its end through launch.py; see there why."""
    files = {name: cwd / f".{name}" for name in ("stdout", "stderr", "report")}
    with open(files["stdout"], "w") as out, open(files["stderr"], "w") as err:
        launcher = subprocess.run(
            [sys.executable, str(HERE / "launch.py"), str(files["report"]), str(timeout), *cmd],
            env=env, cwd=cwd, stdout=out, stderr=err, timeout=timeout + 30)
    if launcher.returncode != 0:
        raise RuntimeError(f"launch.py exited {launcher.returncode}: {files['stderr'].read_text()}")
    report = json.loads(files["report"].read_text())
    result = Finished(report["returncode"], report["wall_s"], report["cpu_s"], report["max_rss_mb"],
                      files["stdout"].read_text(), files["stderr"].read_text())
    for path in files.values():
        path.unlink()
    return result


def measure_setup(w: Workload, run_dir: Path) -> list[float]:
    code = "import opent.cli\nimport opent\n" + w.builders
    env = child_env(w.workers)
    times = []
    for _ in range(SETUPS_PER_ROUND):
        done = run_child([sys.executable, "-c", code], env, run_dir, INVOCATION_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        times.append(done.wall_s)
    return times


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    spectra: int
    stdouts: list[str]
    errors: list[str]


def run_round(w: Workload, round_dir: Path, span_dir: Path | None) -> Round:
    """Run the workload's CLI calls once, one after another."""
    env = child_env(w.workers)
    attempted = failed = spectra = 0
    finished: list[Finished] = []
    for i, inv in enumerate(w.invocations):
        out = round_dir / str(i)
        out.mkdir(parents=True)
        argv = list(inv.argv) + (["--out", str(out)] if inv.argv[0] != "saturation" else [])
        if span_dir is None:
            cmd = [sys.executable, "-m", "opent.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(span_dir / str(i)), *argv]
        done = run_child(cmd, env, out, INVOCATION_TIMEOUT_S)
        finished.append(done)
        attempted += len(inv.points)
        for point in inv.points:
            ok = done.returncode == 0 and (
                point.removeprefix("stdout:") in done.stdout if point.startswith("stdout:")
                else (out / point).exists())
            failed += not ok
            spectra += ok * inv.spectra // len(inv.points)
    errors = [f"{inv.argv[0]} exited {d.returncode}: {d.stderr.strip()}"
              for inv, d in zip(w.invocations, finished) if d.returncode != 0]
    return Round(sum(d.wall_s for d in finished), sum(d.cpu_s for d in finished),
                 max(d.max_rss_mb for d in finished), attempted, failed, spectra,
                 [d.stdout for d in finished], errors)


def output_bytes(round_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(round_dir)): p.read_bytes()
            for p in sorted(round_dir.rglob("*")) if p.is_file()}


# --- one benchmark run -----------------------------------------------------


def provenance(w: Workload, seed: int) -> dict:
    return {
        "workload": w.name,
        "seed": seed,
        "seed_note": "inputs are fixed physics parameters; the seed changes none of them",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_config": np.show_config(mode="dicts"),
        "machine": platform.machine(),
        "nproc": NPROC,
        "env": {"OPENT_WORKERS": str(w.workers), **{v: str(BLAS_THREADS) for v in BLAS_VARS}},
        "compute_threads": w.workers * BLAS_THREADS,
        "invocations": [" ".join(inv.argv) for inv in w.invocations],
    }


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = RUNS / f"{w.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    record = provenance(w, seed)
    setup: list[float] = []

    rounds: list[Round] = []
    traced: list[Round] = []
    spans: list[list[dict]] = []
    absent: set[str] = set()
    reference: dict[str, bytes] | None = None
    errors: list[str] = []
    start = time.perf_counter()
    while True:
        if not trace:
            setup += measure_setup(w, run_dir)
        with_trace = trace and len(traced) < len(rounds)
        index = len(rounds) + len(traced)
        round_dir = run_dir / f"round{index}"
        span_dir = run_dir / f"spans{index}" if with_trace else None
        r = run_round(w, round_dir, span_dir)
        (traced if with_trace else rounds).append(r)
        errors += r.errors
        if reference is None:
            errors += w.check(round_dir, r.stdouts)
            reference = output_bytes(round_dir)
        elif output_bytes(round_dir) != reference:
            errors.append(f"round {index}: outputs differ from the first round")
        if with_trace:
            spans.append(tracer.load_spans(span_dir))
            for path in span_dir.glob("*/absent.json"):
                absent.update(json.loads(path.read_text()))
        shutil.rmtree(round_dir)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and (not trace or traced)) or \
                elapsed + max(x.wall_s for x in rounds + traced) > ROUNDS_LIMIT_S:
            break

    every = rounds + traced
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    wall = statistics.median(r.wall_s for r in rounds)
    if trace:
        metrics = tracer.layer_metrics(spans)
        metrics["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - wall
        units = metric_units()[1]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "spectra_per_s": statistics.median(r.spectra / r.wall_s for r in rounds),
            "cpu_s": statistics.median(r.cpu_s for r in rounds),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
        }
        units = metric_units()[0]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    record.update(
        rounds=[vars(r) | {"stdouts": None} for r in rounds],
        traced_rounds=[vars(r) | {"stdouts": None} for r in traced],
        setup_s=setup, absent_layers=sorted(absent), errors=errors,
        attempted=attempted, failed=failed, spectra=sum(r.spectra for r in every), metrics=metrics,
    )
    (run_dir / "run.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "errors": errors,
        "absent": sorted(absent),
        "record": run_dir / "run.json",
    }


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def print_table(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} record={result['record'].relative_to(ROOT)}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
    for error in result["errors"]:
        print(f"  check failed: {error}")
    if result["absent"]:
        print(f"  absent layers: {', '.join(result['absent'])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "opent" / "cli.py").is_file():
        print(f"error: no opent package under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        print_table(args.workload, result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, w in WORKLOADS.items():
        for trace in (False, True):
            result = run(w, args.seed, args.seconds, trace)
            print_table(f"{name} ({'traced' if trace else 'end to end'})", result)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
