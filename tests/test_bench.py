import json

import pytest

from percemon.bench import BenchReport, _p99, render_json, render_tsv, run_bench
from percemon.errors import ConfigError


def test_p99_nearest_rank():
    assert _p99([5]) == 5
    assert _p99(list(range(1, 101))) == 99
    assert _p99([1, 2, 3, 4]) == 4


def test_probe_assignment_counts_are_exact_powers():
    for k in (1, 2):
        for n in (2, 3):
            reports = run_bench(f"probe:exists{k}", [n], frames=10, seed=1,
                                count_assignments=True)
            assert reports[0].assignments_per_frame == n ** k


def test_reports_cover_requested_counts():
    reports = run_bench("builtin:phi1", [1, 2], frames=8, seed=4)
    assert [r.object_count for r in reports] == [1, 2]
    for report in reports:
        assert report.frames == 8
        assert report.seed == 4
        assert report.mean_eval_time_ns > 0
        assert report.p99_eval_time_ns > 0
        assert report.assignments_per_frame is None


@pytest.mark.parametrize("frames", [0, -3])
def test_a_run_of_no_frames_is_refused(frames):
    with pytest.raises(ConfigError, match=f"frames must be at least 1, got {frames}"):
        run_bench("builtin:phi1", [2], frames=frames)


def test_tsv_rendering():
    reports = [
        BenchReport("builtin:phi1", 2, 10, 1000, 2000, 7),
        BenchReport("builtin:phi1", 5, 10, 3000, 4000, 7),
    ]
    text = render_tsv(reports)
    lines = text.splitlines()
    assert lines[0].split("\t") == ["spec", "objects", "frames",
                                    "mean_eval_time_ns", "p99_eval_time_ns", "seed"]
    assert lines[1].split("\t")[1] == "2"
    assert "assignments_per_frame" not in text


def test_tsv_includes_assignments_when_counted():
    reports = [BenchReport("probe:exists2", 2, 10, 10, 10, 0, assignments_per_frame=4)]
    text = render_tsv(reports)
    assert text.splitlines()[0].endswith("assignments_per_frame")
    assert text.splitlines()[1].endswith("4")


def test_json_rendering_round_trips():
    reports = [BenchReport("builtin:phi2", 3, 10, 111, 222, 9, assignments_per_frame=9)]
    decoded = json.loads(render_json(reports))
    assert decoded == [{
        "spec": "builtin:phi2", "objects": 3, "frames": 10,
        "mean_eval_time_ns": 111, "p99_eval_time_ns": 222, "seed": 9,
        "assignments_per_frame": 9,
    }]


@pytest.mark.parametrize("frames, shown", [("0", "0"), ("-3", "-3"), ("x", "'x'")])
def test_bench_of_no_frames_is_a_usage_error(runner, frames, shown):
    # A run of no frames timed nothing, so it has no timings to report.
    result = runner(["bench", "--spec", "builtin:phi1", "--objects", "2", "--frames", frames])
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == f"error: argument --frames: expected a positive integer, got {shown}\n"


def test_bench_of_one_frame_reports_its_timing(runner):
    result = runner(["bench", "--spec", "builtin:phi1", "--objects", "2", "--frames", "1"])
    assert result.exit_code == 0
    header, row = result.stdout.splitlines()
    assert dict(zip(header.split("\t"), row.split("\t")))["frames"] == "1"
