"""The benchmark under ``perfbench/`` drives the package through its public
names; this runs its traced pass on a short stream so that renaming one of
them fails here rather than only in a benchmark run."""

import dataclasses
import importlib
from pathlib import Path

import pytest

from percemon.evaluate import evaluate_trace
from percemon.monitor import MonitorConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return {name: importlib.import_module(name) for name in ("workloads", "prepare", "traced")}


def test_traced_pass_matches_offline_evaluator(perfbench):
    prepare, traced = perfbench["prepare"], perfbench["traced"]
    workload = dataclasses.replace(perfbench["workloads"].WORKLOADS["phi1-sparse"], frames=50)
    inputs = prepare.Inputs(workload, seed=3)
    lines = inputs.jsonl.splitlines(keepends=True)
    assert len(lines) == 50
    expected = evaluate_trace(inputs.formula, inputs.frames,
                              history=inputs.history, horizon=inputs.horizon)
    assert inputs.reference == expected

    config = MonitorConfig(max_history=workload.max_history)
    _, untraced = traced.untraced_pass(lines, workload.spec_arg(), config)
    tracer = traced.Tracer()
    wall, setup_ns, values = tracer.run(lines, workload.spec_arg(), config)
    assert values == untraced == expected
    assert False in expected  # the faulty stream exercises both verdicts

    metrics = traced.layer_metrics([tracer], [wall], [wall], [setup_ns], len(lines))
    assert len(tracer.parse_ns) == 50
    assert metrics["spatial.calls_per_frame"] == 0
    assert metrics["evaluate.assignments_per_frame"] > 0


@pytest.mark.parametrize("name", ["phi2-crowd", "phi1-sparse", "holds-window"])
def test_traced_pass_keeps_each_workload_in_its_layer_ranges(perfbench, name):
    prepare, traced = perfbench["prepare"], perfbench["traced"]
    workload = perfbench["workloads"].WORKLOADS[name]
    # The generated stream does not depend on its length, so this is the
    # prefix of the seed-7 stream that the benchmark's traced pass reads.
    inputs = prepare.Inputs(dataclasses.replace(workload, frames=workload.traced_frames), seed=7)
    lines = inputs.jsonl.splitlines(keepends=True)
    assert len(lines) == workload.traced_frames

    config = MonitorConfig(max_history=workload.max_history)
    tracer = traced.Tracer()
    wall, setup_ns, values = tracer.run(lines, workload.spec_arg(), config)
    assert values == inputs.reference

    metrics = traced.layer_metrics([tracer], [wall], [wall], [setup_ns], len(lines))
    assert workload.layer_ranges
    for metric, (low, high) in workload.layer_ranges.items():
        assert low <= metrics[metric] <= high, metric


@pytest.mark.parametrize("name, nodes", [("phi2-crowd", 19), ("phi1-sparse", 41),
                                         ("holds-window", 22)])
def test_traced_pass_counts_each_workloads_core_nodes(perfbench, name, nodes):
    # ``traced.core_nodes`` walks ``vars(node)``, so this also fails if syntax
    # nodes stop keeping their fields in an instance dict.
    prepare, traced = perfbench["prepare"], perfbench["traced"]
    workload = perfbench["workloads"].WORKLOADS[name]
    inputs = prepare.Inputs(dataclasses.replace(workload, frames=20), seed=7)
    lines = inputs.jsonl.splitlines(keepends=True)
    tracer = traced.Tracer()
    wall, setup_ns, values = tracer.run(lines, workload.spec_arg(),
                                        MonitorConfig(max_history=workload.max_history))
    assert values == inputs.reference
    metrics = traced.layer_metrics([tracer], [wall], [wall], [setup_ns], len(lines))
    assert metrics["stql.core_nodes"] == nodes


def test_phi2_crowd_counted_work_is_pinned(perfbench):
    # The exact counts of the benchmark's traced pass on its 200-frame seed-7
    # prefix, so that a fast path which skips counted work fails here. Each
    # overlap atom costs two box meets, one per side of its ratio, and box
    # meets return boxes, which are not counted as rectangles out.
    prepare, traced = perfbench["prepare"], perfbench["traced"]
    workload = perfbench["workloads"].WORKLOADS["phi2-crowd"]
    inputs = prepare.Inputs(dataclasses.replace(workload, frames=workload.traced_frames), seed=7)
    lines = inputs.jsonl.splitlines(keepends=True)
    tracer = traced.Tracer()
    wall, setup_ns, values = tracer.run(lines, workload.spec_arg(), MonitorConfig())
    assert values == inputs.reference
    metrics = traced.layer_metrics([tracer], [wall], [wall], [setup_ns], len(lines))
    assert metrics["evaluate.assignments_per_frame"] == 270.72
    assert metrics["evaluate.quantifier_calls_per_frame"] == 16.92
    assert metrics["evaluate.temporal_steps_per_frame"] == 31.84
    assert metrics["spatial.calls_per_frame"] == 31.84
    assert metrics["spatial.rects_out_per_frame"] == 0
