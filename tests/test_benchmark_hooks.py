"""The benchmark under perfbench/ reaches into the package; these names must resolve.

`tracer.py` wraps each (module, function) of its TARGETS and reports a missing
one as an absent layer instead of failing, and `run.py` times a set-up that
builds operators through package names. A deletion in the package would
silently blind a layer or break the set-up, so both are checked here, each in
a fresh interpreter that imports the benchmark's own modules, and tiny traced
CLI calls must reach every layer that they run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run_in_perfbench(code: str) -> str:
    code = f"import sys; sys.path.insert(0, {str(PERFBENCH)!r})\n{code}"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_every_tracer_target_resolves():
    code = """
import importlib
import tracer
for name, module, attr, kind in tracer.TARGETS:
    getattr(importlib.import_module(module), attr)
print(len(tracer.TARGETS))
"""
    assert int(run_in_perfbench(code)) > 0


def test_the_benchmark_set_up_builds_every_workload():
    code = """
import re
import run
import opent.cli
import opent
for w in run.WORKLOADS.values():
    exec(w.builders, {"opent": opent})
names = {n for w in run.WORKLOADS.values() for n in re.findall(r"opent\\.(\\w+)[.(]", w.builders)}
print(" ".join(sorted(names)))
"""
    called = set(run_in_perfbench(code).split())
    assert {"floquet", "KickedTopParams", "SpinSystem", "diagonal_coupling", "product_rotation"} <= called


# Per subcommand: a tiny call and the TARGETS layers it must record spans for.
TRACED_CALLS = {
    "sweep": (["--j1", "1", "--j2", "1", "--k", "6", "--eps", "1", "--nmax", "8", "--stride", "2"],
              {"cli.point", "kickedtop.power", "linalg.unitarity_residual", "linalg.svd",
               "schmidt.spectrum", "schmidt.svn", "schmidt.slin"}),
    "spectrum": (["--j1", "1", "--j2", "1.5", "--window", "4,12,4", "--bins", "5"],
                 {"cli.point", "kickedtop.power", "linalg.unitarity_residual", "linalg.svd",
                  "schmidt.spectrum", "rmt.histogram", "rmt.fit_distance"}),
    "diagonal": (["--j1", "1", "--j2", "1", "--alpha", "0.5"],
                 {"cli.point", "linalg.svd", "schmidt.spectrum", "schmidt.svn", "schmidt.slin"}),
    "saturation": (["--n", "3", "--m", "5"], {"cli.point", "rmt.saturation_estimate"}),
}
# Layers that no subcommand reaches, each with its reason.
UNREACHED = {
    "kickedtop.floquet": "a stale target: the sweep and spectrum stream builds U_T with parity_floquet",
    "schmidt.realign": "only schmidt_spectrum's dense mode calls it, and no subcommand runs that mode",
}


def test_traced_cli_calls_reach_every_benchmark_layer(tmp_path):
    code = "import json, tracer\nprint(json.dumps([t[0] for t in tracer.TARGETS]))"
    layers = set(json.loads(run_in_perfbench(code)))
    assert UNREACHED.keys() <= layers
    assert set().union(*(want for _, want in TRACED_CALLS.values())) == layers - UNREACHED.keys()
    for command, (argv, want) in TRACED_CALLS.items():
        spans = tmp_path / command
        extra = [] if command == "saturation" else ["--out", str(tmp_path / f"{command}-out")]
        res = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), str(spans), command, *argv, *extra],
                             capture_output=True, text=True, env=os.environ | {"OPENT_WORKERS": "1"},
                             timeout=120)
        assert res.returncode == 0, res.stderr
        assert json.loads((spans / "absent.json").read_text()) == []
        recorded = {json.loads(line)["name"] for path in spans.glob("spans-*.jsonl")
                    for line in path.read_text().splitlines()}
        assert want <= recorded, (command, want - recorded)
