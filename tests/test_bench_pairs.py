"""``scripts/bench_pairs.py`` turns the result lines of alternating
parent/change runs into the summary a committed ``BENCH_<n>.json`` holds,
and retries a run that fails before printing its result line."""

import importlib
import json
from pathlib import Path
from types import SimpleNamespace

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


def _traced(steps, us):
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "evaluate.temporal_steps_per_frame": {"value": steps, "unit": "count/frame"},
        "evaluate.us_p50": {"value": us, "unit": "us"},
    }}


def test_traced_summary_pairs_each_per_layer_metric(bench_pairs):
    # A record with one traced run per side holds that result alone.
    record = {"w": {"parent": _traced(23.783333, 55.25851), "change": _traced(5.0, 30.1)}}
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


def test_traced_summary_takes_each_sides_median(bench_pairs):
    record = {"w": {"parent": [_traced(5.0, 31.0), _traced(5.0, 44.4), _traced(5.0, 30.12345)],
                    "change": [_traced(4.0, 29.0), _traced(4.0, 28.0), _traced(4.0, 35.0)]}}
    metrics = ["evaluate.temporal_steps_per_frame", "evaluate.us_p50"]
    assert bench_pairs.summarize_traced(record, metrics) == {"w": {
        "evaluate.temporal_steps_per_frame": {"parent": 5.0, "change": 4.0},
        "evaluate.us_p50": {"parent": 31.0, "change": 29.0},
    }}


# --- failed runs ---------------------------------------------------------------

CRASH = SimpleNamespace(returncode=1, stdout="", stderr="Traceback (most recent call last):\n"
                        "ZeroDivisionError: float division by zero\n")


def _printed(result, returncode=0):
    return SimpleNamespace(returncode=returncode, stdout="notes\n" + json.dumps(result) + "\n",
                           stderr="")


def _stub_runs(monkeypatch, bench_pairs, outcomes):
    """``subprocess.run`` answering perfbench runs from ``outcomes`` in
    order and ``git describe`` with a fixed name; returns the run commands."""
    commands = []

    def run(cmd, cwd, capture_output, text):
        if cmd[0] == "git":
            return SimpleNamespace(returncode=0, stdout="abc1234\n", stderr="")
        commands.append((Path(cwd).name, cmd[1:]))
        return outcomes.pop(0)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    return commands


def test_a_run_that_crashes_before_its_result_is_retried_once(bench_pairs, monkeypatch):
    commands = _stub_runs(monkeypatch, bench_pairs, [CRASH, _printed(_result(100, 0.1, 20))])
    failures = []
    result = bench_pairs.run_once(Path("change"), "w", 7, ["--trace", "0"], failures)
    assert result == _result(100, 0.1, 20)
    assert len(commands) == 2 and commands[0] == commands[1]
    assert failures == [{"tree": "change",
                         "command": "python3 perfbench/run.py --workload w --seed 7 --trace 0",
                         "exit_code": 1, "stderr": "ZeroDivisionError: float division by zero"}]


@pytest.mark.parametrize("outcomes, attempts", [
    ([CRASH, CRASH], 2),
    # A result line that is not correct is not retried, whatever the exit code.
    ([_printed(_result(100, 0.1, 20, failed=3), returncode=1)], 1),
    ([_printed(_result(100, 0.1, 20, failed=3))], 1),
])
def test_a_run_that_fails_twice_or_is_wrong_stops_the_script(bench_pairs, monkeypatch, capsys,
                                                             outcomes, attempts):
    commands = _stub_runs(monkeypatch, bench_pairs, list(outcomes))
    failures = []
    with pytest.raises(SystemExit, match="bench_pairs: perfbench/run.py --workload w"):
        bench_pairs.run_once(Path("parent"), "w", 7, [], failures)
    assert len(commands) == len(failures) == attempts


def test_the_record_keeps_every_run_and_each_failed_attempt(bench_pairs, monkeypatch, tmp_path):
    # 10 pairs of one workload; the third run crashes once.
    outcomes = [_printed(_result(100 + i, 0.1, 20)) for i in range(20)]
    outcomes.insert(2, CRASH)
    commands = _stub_runs(monkeypatch, bench_pairs, outcomes)
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(bench_pairs.sys, "argv", [
        "bench_pairs.py", "--parent", str(tmp_path / "parent"), "--change",
        str(tmp_path / "change"), "--out", str(out), "--workloads", "w"])
    assert bench_pairs.main() == 0
    record = json.loads(out.read_text())
    assert len(commands) == 21 and not outcomes
    assert [(run["pair"], run["side"]) for run in record["runs"]][:4] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent")]
    assert record["summary"]["w"]["runs"] == {"parent": 10, "change": 10}
    assert [(f["tree"], f["exit_code"]) for f in record["failed_attempts"]] == [("change", 1)]


def test_traced_runs_alternate_in_three_pairs_and_are_all_kept(bench_pairs, monkeypatch,
                                                              tmp_path):
    per_layer = [m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]]

    def traced(value):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {name: {"value": value, "unit": ""} for name in per_layer}}
    outcomes = [_printed(_result(100 + i, 0.1, 20)) for i in range(20)]
    outcomes += [_printed(traced(us)) for us in (30.0, 20.0, 21.0, 31.0, 32.0, 22.0)]
    commands = _stub_runs(monkeypatch, bench_pairs, outcomes)
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(bench_pairs.sys, "argv", [
        "bench_pairs.py", "--parent", str(tmp_path / "parent"), "--change",
        str(tmp_path / "change"), "--out", str(out), "--workloads", "w", "--traced-seconds", "8"])
    assert bench_pairs.main() == 0
    record = json.loads(out.read_text())
    traced = commands[20:]
    assert [tree for tree, _ in traced] == ["parent", "change", "change", "parent", "parent",
                                            "change"]
    assert all(cmd[-4:] == ["--seconds", "8", "--trace", "1"] for _, cmd in traced)
    assert {side: [run["metrics"]["evaluate.us_p50"]["value"] for run in runs]
            for side, runs in record["traced"]["w"].items()} == {
        "parent": [30.0, 31.0, 32.0], "change": [20.0, 21.0, 22.0]}
    assert record["traced_summary"]["w"]["evaluate.us_p50"] == {"parent": 31.0, "change": 21.0}
