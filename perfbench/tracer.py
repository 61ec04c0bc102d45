#!/usr/bin/env python3
"""Layer spans for one opent CLI invocation, recorded from outside the package.

Run as a script, this installs wrappers around the package's functions and
calls `opent.cli.main` in this process:

    PYTHONPATH=src python3 perfbench/tracer.py SPAN_DIR sweep --j1 10 ...

Each wrapper records a span (name, start, end, parent, pid, attributes) in
memory. The process that called `main` writes its spans to
SPAN_DIR/spans-<pid>.jsonl when `main` returns. Pool workers leave through
`os._exit` and run no exit hooks, so a worker writes its spans whenever a
span ends whose parent was opened before the fork (one grid point, as a
rule). Any function listed in TARGETS that the package no longer has is
reported as absent instead of failing the run.

`layer_metrics` turns the spans of one or more traced rounds into the
per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
from pathlib import Path

# (span name, module, function, kind): kind "stream" wraps a generator and
# records one span per item it yields.
TARGETS = (
    ("kickedtop.floquet", "opent.kickedtop", "floquet", "call"),
    ("kickedtop.power", "opent.kickedtop", "power_sequence", "stream"),
    ("linalg.unitarity_residual", "opent.linalg", "unitarity_residual", "call"),
    ("linalg.svd", "opent.linalg", "singular_values", "call"),
    ("schmidt.spectrum", "opent.schmidt", "schmidt_spectrum", "call"),
    ("schmidt.realign", "opent.schmidt", "realign", "call"),
    ("schmidt.svn", "opent.schmidt", "svn", "call"),
    ("schmidt.slin", "opent.schmidt", "slin", "call"),
    ("rmt.histogram", "opent.rmt", "histogram", "call"),
    ("rmt.fit_distance", "opent.rmt", "fit_distance", "call"),
    ("rmt.saturation_estimate", "opent.rmt", "saturation_estimate", "call"),
    ("cli.point", "opent.cli", "_try_sweep_point", "call"),
    ("cli.point", "opent.cli", "_run_spectrum_point", "call"),
    ("cli.point", "opent.cli", "run_diagonal", "call"),
    ("cli.point", "opent.cli", "run_saturation", "call"),
)


def _health(name: str, result) -> dict:
    """Numerical health read off a layer's result, outside its timed span."""
    if name == "linalg.unitarity_residual":
        return {"residual": float(result)}
    if name == "schmidt.spectrum":
        try:
            return {"sum_rule_defect": abs(float(result.lambdas.sum()) / result.dims.total - 1.0)}
        except AttributeError:
            return {}
    return {}


class Tracer:
    def __init__(self, span_dir: Path):
        self.span_dir = Path(span_dir)
        self.root_pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[tuple[str, int]] = []  # (span id, pid that opened it)
        self.ids = itertools.count()
        os.register_at_fork(after_in_child=self.spans.clear)

    def _open(self) -> tuple[str, str | None, float]:
        sid = f"{os.getpid()}:{next(self.ids)}"
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append((sid, os.getpid()))
        return sid, parent, time.perf_counter()

    def _close(self, name: str, sid: str, parent: str | None, start: float, attrs: dict,
               end: float | None = None) -> None:
        end = time.perf_counter() if end is None else end
        pid = os.getpid()
        self.stack.pop()
        self.spans.append({"id": sid, "parent": parent, "name": name, "start": start,
                           "end": end, "pid": pid, **attrs})
        if pid != self.root_pid and (not self.stack or self.stack[-1][1] != pid):
            self.flush()

    def call(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, sid, parent, start, {})
                raise
            end = time.perf_counter()
            self._close(name, sid, parent, start, _health(name, result), end)
            return result
        return wrapper

    def stream(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            called = time.perf_counter()
            items = iter(fn(*args, **kwargs))
            first = True
            while True:
                sid, parent, start = self._open()
                try:
                    item = next(items)
                except StopIteration:
                    self._close(name, sid, parent, start, {"items": 0})
                    return
                attrs = {"items": 1}
                if first:
                    attrs["first_item_s"] = time.perf_counter() - called
                    first = False
                self._close(name, sid, parent, start, attrs)
                yield item
        return wrapper

    def install(self) -> list[str]:
        """Wrap every target wherever an opent module holds it; return the absent ones."""
        absent = []
        for module_name in {t[1] for t in TARGETS}:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        modules = [m for n, m in list(sys.modules.items()) if n == "opent" or n.startswith("opent.")]
        for name, module_name, attr, kind in TARGETS:
            try:
                original = getattr(sys.modules[module_name], attr)
            except (KeyError, AttributeError):
                absent.append(f"{module_name}.{attr}")
                continue
            wrapped = (self.stream if kind == "stream" else self.call)(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        return absent

    def flush(self) -> None:
        if not self.spans:
            return
        with open(self.span_dir / f"spans-{os.getpid()}.jsonl", "a") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
        self.spans.clear()


def load_spans(span_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(span_dir).rglob("spans-*.jsonl")):
        spans += [json.loads(line) for line in path.read_text().splitlines()]
    return spans


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: s["end"] - s["start"] - _covered(s["start"], s["end"], children.get(s["id"], []))
            for s in spans}


def layer_metrics(rounds: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics averaged over traced rounds; a layer that did not run reads 0."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    samples = 0
    first_items: list[float] = []
    residuals: list[float] = [0.0]
    defects: list[float] = [0.0]
    cli_self, point_max, point_min = [], [], []
    for spans in rounds:
        own_time = self_times(spans)
        points = []
        cli_self.append(sum(own_time[s["id"]] for s in spans if s["name"].startswith("cli.")))
        for s in spans:
            name, dur = s["name"], s["end"] - s["start"]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + own_time[s["id"]]
            samples += s.get("items", 0)
            if "first_item_s" in s:
                first_items.append(s["first_item_s"])
            residuals.append(s.get("residual", 0.0))
            defects.append(s.get("sum_rule_defect", 0.0))
            if name == "cli.point":
                points.append(dur)
        point_max.append(max(points, default=0.0))
        point_min.append(min(points, default=0.0))

    n = len(rounds)

    def per_call_ms(*names: str) -> float:
        count = calls.get(names[0], 0)
        return 1e3 * sum(busy.get(x, 0.0) for x in names) / count if count else 0.0

    return {
        "kickedtop.floquet_ms": per_call_ms("kickedtop.floquet"),
        "kickedtop.floquet_calls": calls.get("kickedtop.floquet", 0) / n,
        "kickedtop.power_ms_per_sample": 1e3 * own.get("kickedtop.power", 0.0) / samples if samples else 0.0,
        "kickedtop.samples": samples / n,
        "kickedtop.first_sample_ms": 1e3 * sum(first_items) / len(first_items) if first_items else 0.0,
        "linalg.unitarity_residual_ms": per_call_ms("linalg.unitarity_residual"),
        "linalg.unitarity_checks": calls.get("linalg.unitarity_residual", 0) / n,
        "linalg.svd_ms": per_call_ms("linalg.svd"),
        "linalg.svd_calls": calls.get("linalg.svd", 0) / n,
        "schmidt.realign_ms": per_call_ms("schmidt.realign"),
        "schmidt.entropy_ms": per_call_ms("schmidt.svn", "schmidt.slin"),
        "schmidt.spectra": calls.get("schmidt.spectrum", 0) / n,
        "rmt.histogram_ms": per_call_ms("rmt.histogram"),
        "rmt.fit_distance_ms": per_call_ms("rmt.fit_distance"),
        "rmt.saturation_estimate_ms": per_call_ms("rmt.saturation_estimate"),
        "cli.self_s": sum(cli_self) / n,
        "cli.point_s_max": sum(point_max) / n,
        "cli.point_s_min": sum(point_min) / n,
        "linalg.max_unitarity_residual": max(residuals),
        "schmidt.max_sum_rule_defect": max(defects),
    }


def main(argv: list[str]) -> int:
    span_dir = Path(argv[0])
    span_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(span_dir)
    absent = tracer.install()
    (span_dir / "absent.json").write_text(json.dumps(absent))
    from opent import cli

    sid, parent, start = tracer._open()
    try:
        return cli.main(argv[1:])
    finally:
        tracer._close("cli.main", sid, parent, start, {})
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
