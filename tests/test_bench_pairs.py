"""``scripts/bench_pairs.py`` turns the result lines of alternating
parent/change runs into the summary a committed ``BENCH_<n>.json`` holds."""

import importlib
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture()
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "scripts"))
    return importlib.import_module("bench_pairs")


def _result(fps, setup, rss, failed=0):
    metrics = {"frames_per_s": fps, "setup_s": setup, "peak_rss_mb": rss}
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": value, "unit": ""} for name, value in metrics.items()}}


def test_summary_counts_wins_by_each_metrics_direction(bench_pairs):
    runs = [
        {"workload": "w", "pair": pair, "side": side, "result": result}
        for pair, (parent, change) in enumerate([
            (_result(100, 0.10, 20), _result(120, 0.11, 19)),
            (_result(110, 0.12, 20), _result(105, 0.10, 21)),
            (_result(90, 0.10, 20), _result(130, 0.09, 19)),
            (_result(100, 0.11, 20), _result(125, 0.12, 20)),
        ])
        for side, result in (("parent", parent), ("change", change))
    ]
    metrics = {"frames_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}
    summary = bench_pairs.summarize(runs, metrics)["w"]
    assert summary["frames_per_s"]["change_better_pairs"] == "3/4"
    assert summary["setup_s"]["change_better_pairs"] == "2/4"
    assert summary["peak_rss_mb"]["change_better_pairs"] == "2/4"
    assert summary["frames_per_s"]["median_ratio"] == round(122.5 / 100, 4)
    assert summary["failed_frames"] == {"parent": 0, "change": 0}
    assert summary["runs"] == {"parent": 4, "change": 4}


@pytest.mark.parametrize("path", sorted(REPO.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_summary_reproduces_each_committed_bench_record(bench_pairs, path):
    record = json.loads(path.read_text())
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    assert bench_pairs.summarize(record["runs"], metrics) == record["summary"]


def test_traced_summary_pairs_each_per_layer_metric(bench_pairs):
    def traced(steps, us):
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "evaluate.temporal_steps_per_frame": {"value": steps, "unit": "count/frame"},
            "evaluate.us_p50": {"value": us, "unit": "us"},
        }}
    record = {"w": {"parent": traced(23.783333, 55.25851), "change": traced(5.0, 30.1)}}
    metrics = ["evaluate.temporal_steps_per_frame", "evaluate.us_p50"]
    assert bench_pairs.summarize_traced(record, metrics) == {"w": {
        "evaluate.temporal_steps_per_frame": {"parent": 23.7833, "change": 5.0},
        "evaluate.us_p50": {"parent": 55.2585, "change": 30.1},
    }}


@pytest.mark.parametrize("path", sorted(path for path in REPO.glob("BENCH_*.json")
                                        if "traced_summary" in json.loads(path.read_text())),
                         ids=lambda path: path.name)
def test_traced_summary_reproduces_each_committed_bench_record(bench_pairs, path):
    record = json.loads(path.read_text())
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in benchmark["per_layer"]]
    assert bench_pairs.summarize_traced(record["traced"], metrics) == record["traced_summary"]
