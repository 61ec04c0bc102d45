"""The benchmark under perfbench/ reaches into the package; these names must resolve.

`tracer.py` wraps each (module, function) of its TARGETS and reports a missing
one as an absent layer instead of failing, and `run.py` times a set-up that
builds operators through package names. A deletion in the package would
silently blind a layer or break the set-up, so both are checked here, each in
a fresh interpreter that imports the benchmark's own modules.
"""

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
