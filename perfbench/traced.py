"""In-process traced pass: per-layer numbers for one prepared workload.

Usage:
    python3 perfbench/traced.py --workload NAME --dir DIR --frames K --seconds T

Runs the loop of ``percemon monitor`` (``read_stream`` -> ``push_frame`` ->
``to_json_obj`` + ``json.dumps``) over the first K frames of
``DIR/input.jsonl``, alternating untraced passes with traced ones for T
seconds (at least two of each). Traced passes wrap each layer's public
entry points from here, never from inside the package:

* ``percemon.trace.parse_frame``            ingest (``read_stream`` calls it)
* ``percemon.monitor.evaluate``             top-level evaluation per verdict
* ``percemon.evaluate.quantifier_assignments`` quantifier instantiations
* ``percemon.evaluate.EvalContext.at``      temporal steps
* every public function of ``percemon.spatial`` region algebra

Every pass's verdicts are checked against the prepared reference, and the
exact counts must repeat identically across traced passes. Prints one JSON
object with the per-layer metrics; exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import percemon.monitor as monitor_mod
import percemon.spatial as spatial
import percemon.trace as trace_mod
from percemon.monitor import Monitor, MonitorConfig
from percemon.stql import ast as A
from percemon.stql.builtins import resolve_spec

from workloads import WORKLOADS

# ``percemon.evaluate`` is re-exported as the function; this is the module.
evaluate_mod = importlib.import_module("percemon.evaluate")

SPATIAL_FUNCTIONS = sorted(
    name for name, fn in vars(spatial).items()
    if inspect.isfunction(fn) and fn.__module__ == spatial.__name__ and not name.startswith("_")
)
# Counts that must repeat exactly between traced passes of the same input.
EXACT_COUNTS = ("bytes", "window_frames", "buffer_max", "assignments", "quantifier_calls",
                "temporal_steps", "spatial_calls", "rects_out", "core_nodes")


def core_nodes(node) -> int:
    """Formula and spatial-term nodes in a desugared formula."""
    count = 1 if isinstance(node, (A.Formula, A.SpatialTerm)) else 0
    for value in vars(node).values():
        children = value if isinstance(value, tuple) else (value,)
        count += sum(core_nodes(c) for c in children if isinstance(c, (A.Formula, A.SpatialTerm)))
    return count


def _emit(verdict) -> str:
    # What ``cli._emit_verdict`` serializes before echoing.
    return json.dumps(verdict.to_json_obj(), separators=(",", ":"))


def untraced_pass(lines: list[bytes], spec: str, config: MonitorConfig) -> tuple[float, list[bool]]:
    started = time.perf_counter()
    _, formula = resolve_spec(spec)
    monitor = Monitor(formula, config)
    values = []
    for frame in trace_mod.read_stream(lines):
        for verdict in monitor.push_frame(frame):
            _emit(verdict)
            values.append(verdict.value)
    for verdict in monitor.flush():
        _emit(verdict)
        values.append(verdict.value)
    return time.perf_counter() - started, values


class Tracer:
    """Spans and counts collected by the wrappers during one traced pass."""

    def __init__(self):
        self.parse_ns: list[int] = []
        self.eval_ns: list[int] = []
        self.push_self_ns: list[int] = []
        self.emit_ns: list[int] = []
        self.spatial_ns = 0
        self.counts = dict.fromkeys(EXACT_COUNTS, 0)
        self._spatial_depth = 0

    @contextmanager
    def installed(self):
        wrappers = [
            (trace_mod, "parse_frame", self._timed_parse(trace_mod.parse_frame)),
            (monitor_mod, "evaluate", self._timed_evaluate(monitor_mod.evaluate)),
            (evaluate_mod, "quantifier_assignments",
             self._counted_assignments(evaluate_mod.quantifier_assignments)),
            (evaluate_mod.EvalContext, "at", self._counted_step(evaluate_mod.EvalContext.at)),
        ] + [(spatial, name, self._timed_spatial(getattr(spatial, name)))
             for name in SPATIAL_FUNCTIONS]
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in wrappers]
        try:
            for owner, name, wrapper in wrappers:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    def _timed_parse(self, fn):
        def parse_frame(text, *args, **kwargs):
            started = time.perf_counter_ns()
            frame = fn(text, *args, **kwargs)
            self.parse_ns.append(time.perf_counter_ns() - started)
            return frame
        return parse_frame

    def _timed_evaluate(self, fn):
        def evaluate(phi, ctx, *args, **kwargs):
            started = time.perf_counter_ns()
            value = fn(phi, ctx, *args, **kwargs)
            self.eval_ns.append(time.perf_counter_ns() - started)
            self.counts["window_frames"] += len(ctx.trace)
            return value
        return evaluate

    def _counted_assignments(self, fn):
        def quantifier_assignments(variables, frame):
            self.counts["quantifier_calls"] += 1
            for assignment in fn(variables, frame):
                self.counts["assignments"] += 1
                yield assignment
        return quantifier_assignments

    def _counted_step(self, fn):
        def at(ctx, index):
            self.counts["temporal_steps"] += 1
            return fn(ctx, index)
        return at

    def _timed_spatial(self, fn):
        def wrapper(*args, **kwargs):
            # Only the outermost call counts; spatial functions call each other.
            if self._spatial_depth:
                return fn(*args, **kwargs)
            self._spatial_depth = 1
            started = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._spatial_depth = 0
            self.spatial_ns += time.perf_counter_ns() - started
            self.counts["spatial_calls"] += 1
            if isinstance(result, spatial.Region):
                self.counts["rects_out"] += len(result.rects)
            return result
        return wrapper

    def run(self, lines: list[bytes], spec: str, config: MonitorConfig) -> tuple[float, int, list[bool]]:
        """The monitor loop with per-layer spans; returns wall time, set-up ns, verdicts."""
        started = time.perf_counter()
        setup_started = time.perf_counter_ns()
        _, formula = resolve_spec(spec)
        monitor = Monitor(formula, config)
        setup_ns = time.perf_counter_ns() - setup_started
        self.counts["core_nodes"] = core_nodes(monitor.formula)
        self.counts["bytes"] = sum(len(line) for line in lines)
        values = []

        def emit_all(verdicts):
            for verdict in verdicts:
                emit_started = time.perf_counter_ns()
                _emit(verdict)
                self.emit_ns.append(time.perf_counter_ns() - emit_started)
                values.append(verdict.value)

        with self.installed():
            for frame in trace_mod.read_stream(lines):
                evals_before = len(self.eval_ns)
                push_started = time.perf_counter_ns()
                verdicts = monitor.push_frame(frame)
                push_ns = time.perf_counter_ns() - push_started
                self.push_self_ns.append(push_ns - sum(self.eval_ns[evals_before:]))
                self.counts["buffer_max"] = max(self.counts["buffer_max"], monitor.buffered)
                emit_all(verdicts)
            emit_all(monitor.flush())
        return time.perf_counter() - started, setup_ns, values


def _p99(samples) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def layer_metrics(tracers: list[Tracer], traced_s: list[float], untraced_s: list[float],
                  setup_ns: list[int], frames: int) -> dict:
    parse = [x for t in tracers for x in t.parse_ns]
    evals = [x for t in tracers for x in t.eval_ns]
    push_self = [x for t in tracers for x in t.push_self_ns]
    emit = [x for t in tracers for x in t.emit_ns]
    wall_ns = sum(traced_s) * 1e9
    counts = tracers[0].counts
    per_frame = {k: v / frames for k, v in counts.items()}
    spatial_ns = sum(t.spatial_ns for t in tracers)
    return {
        "trace.parse_us_p50": statistics.median(parse) / 1e3,
        "trace.parse_us_p99": _p99(parse) / 1e3,
        "trace.busy_frac": sum(parse) / wall_ns,
        "trace.bytes_per_frame": per_frame["bytes"],
        "monitor.push_self_us_p50": statistics.median(push_self) / 1e3,
        "monitor.window_frames_per_verdict": counts["window_frames"] / len(tracers[0].eval_ns),
        "monitor.buffer_frames_max": counts["buffer_max"],
        "evaluate.us_p50": statistics.median(evals) / 1e3,
        "evaluate.us_p99": _p99(evals) / 1e3,
        "evaluate.busy_frac": sum(evals) / wall_ns,
        "evaluate.assignments_per_frame": per_frame["assignments"],
        "evaluate.quantifier_calls_per_frame": per_frame["quantifier_calls"],
        "evaluate.temporal_steps_per_frame": per_frame["temporal_steps"],
        "spatial.calls_per_frame": per_frame["spatial_calls"],
        "spatial.us_per_frame": spatial_ns / 1e3 / (frames * len(tracers)),
        "spatial.rects_out_per_frame": per_frame["rects_out"],
        "spatial.busy_frac": spatial_ns / wall_ns,
        "cli.emit_us_p50": statistics.median(emit) / 1e3,
        "stql.setup_us": statistics.median(setup_ns) / 1e3,
        "stql.core_nodes": counts["core_nodes"],
        "driver.trace_overhead_frac": statistics.median(traced_s) / statistics.median(untraced_s) - 1.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--frames", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    manifest = json.loads((args.dir / "manifest.json").read_text())
    lines = (args.dir / "input.jsonl").read_bytes().splitlines(keepends=True)[: args.frames]
    expected = [c == "1" for c in manifest["expected"][str(args.frames)]]
    spec = workload.spec_arg()
    config = MonitorConfig(max_history=workload.max_history)

    tracers, traced_s, untraced_s, setup_ns = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(tracers) < 2 or time.perf_counter() < deadline:
        wall, values = untraced_pass(lines, spec, config)
        untraced_s.append(wall)
        tracer = Tracer()
        wall, setup, traced_values = tracer.run(lines, spec, config)
        for name, got in (("untraced", values), ("traced", traced_values)):
            if got != expected:
                wrong = sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))
                print(f"traced: {name} pass gave {wrong} wrong or missing verdicts", file=sys.stderr)
                return 1
        if tracers and tracer.counts != tracers[0].counts:
            print(f"traced: exact counts differ between passes: {tracers[0].counts} vs "
                  f"{tracer.counts}", file=sys.stderr)
            return 1
        tracers.append(tracer)
        traced_s.append(wall)
        setup_ns.append(setup)

    metrics = layer_metrics(tracers, traced_s, untraced_s, setup_ns, len(lines))
    print(json.dumps({"passes": len(tracers), "counts": tracers[0].counts, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
