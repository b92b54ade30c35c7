"""End-to-end and per-layer benchmark of ``percemon monitor``.

Usage:
    python3 perfbench/run.py [--seconds S]
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs on the default seed and on an
unseen one, all phases included, and a table of every metric is printed.
With ``--workload`` one workload runs once and the last line of output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.

Per run, from the seed, ``prepare.py`` makes the input stream and the
reference verdicts. Then, within ``--seconds``:

* ``--trace 0``: live (open loop: one session fed on stdin at the
  workload's fixed rate) for LIVE_SHARE of the time, and replay (closed
  loop: repeated sessions over a file) for the rest, half before and half
  after the live phase; both against the real CLI.
* ``--trace 1``: the same live phase, then the in-process traced pass of
  ``traced.py`` for the rest.

Every verdict the CLI prints is checked against the reference. A wrong,
missing or extra verdict, or a non-zero exit, counts the frame as failed,
and the run exits 1. This process never imports ``percemon``: the package
runs only in child processes, so the traced pass's wrappers and the
reference computation stay out of the process that times the CLI.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import phases
from workloads import BENCH_DIR, DEFAULT_SEED, REPO, UNSEEN_SEED, WORKLOADS, Workload

WORK = REPO / ".perfbench-work"
SESSION_TIMEOUT_S = 60.0
# Share of --seconds given to the live phase; replay (or, traced, the
# in-process pass) gets the rest.
LIVE_SHARE = 0.4
# The live phase's p99 is taken per window of this many seconds and the
# median over windows reported: a host stall of a few hundred milliseconds
# then moves one window's tail, not the run's.
P99_WINDOW_S = 2.5

# What calibrate.py took on an uncontended CPU of the host the benchmark was
# written on (a 2-CPU virtual machine, Intel Xeon at 2.1 GHz, Python 3.11.7).
# frames_per_s and setup_s are reported at this host speed: each replay
# session's times are scaled by REFERENCE_PROBE_S / (the mean of the probes
# run just before and after it).
REFERENCE_PROBE_S = 0.016

END_TO_END = {
    "frames_per_s": "frames/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed beside the end-to-end metrics but not part of the result line: on
# a shared host the live latencies and the replay figures as measured, before
# scaling to the reference host speed, spread as wide as any usable
# regression bound, and the error rate is 0 on every accepted run (see
# README.md).
REPORTED = {
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "verdict_error_rate": "fraction",
    "frames_per_s_measured": "frames/s",
    "setup_s_measured": "s",
    "host.probe_ms": "ms",
}
PER_LAYER = {
    "trace.parse_us_p50": "us",
    "trace.parse_us_p99": "us",
    "trace.busy_frac": "fraction",
    "trace.bytes_per_frame": "B/frame",
    "monitor.push_self_us_p50": "us",
    "monitor.window_frames_per_verdict": "frames",
    "monitor.buffer_frames_max": "frames",
    "evaluate.us_p50": "us",
    "evaluate.us_p99": "us",
    "evaluate.busy_frac": "fraction",
    "evaluate.assignments_per_frame": "count/frame",
    "evaluate.quantifier_calls_per_frame": "count/frame",
    "evaluate.temporal_steps_per_frame": "count/frame",
    "spatial.calls_per_frame": "count/frame",
    "spatial.us_per_frame": "us/frame",
    "spatial.rects_out_per_frame": "count/frame",
    "spatial.busy_frac": "fraction",
    "cli.emit_us_p50": "us",
    "stql.setup_us": "us",
    "stql.core_nodes": "count",
    "driver.gen_lag_p99_ms": "ms",
    "driver.backlog_max_frames": "frames",
    "driver.trace_overhead_frac": "fraction",
}


class BenchFailure(Exception):
    """A helper process failed; no result can be reported."""


def _p99(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def _helper(script: str, args: list[str]) -> str:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / script), *args],
                          capture_output=True, text=True, cwd=REPO,
                          env=phases.child_env(), timeout=150)
    if proc.returncode != 0:
        raise BenchFailure(f"{script} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def failed_frames(session: phases.Session, expected: str) -> int:
    """Frames whose verdict is missing, wrong or extra, or all if the exit was non-zero."""
    if session.returncode != 0:
        return session.sent
    bad = abs(len(session.lines) - session.sent)
    for index, line in enumerate(session.lines[: session.sent]):
        try:
            record = json.loads(line)
        except ValueError:
            bad += 1
            continue
        if record.get("frame") != index or record.get("verdict") is not (expected[index] == "1"):
            bad += 1
    return min(bad, session.sent)


def run_workload(workload: Workload, seed: int, seconds: float, wanted: set[str],
                 cpus: set[int] | None) -> dict:
    """Run the wanted phases of one workload; return metrics and failure counts.

    The monitor runs on ``cpus`` (None: wherever it is spawned).
    """
    live_s = seconds * LIVE_SHARE
    other_s = seconds - live_s
    live_frames = min(workload.frames, int(workload.live_rate * live_s))
    work = WORK / f"{workload.name}-{seed}"
    prefixes = [workload.replay_frames, live_frames, workload.traced_frames]
    _helper("prepare.py", ["--workload", workload.name, "--seed", str(seed), "--out", str(work),
                           *[arg for k in prefixes for arg in ("--prefix", str(k))]])
    manifest = json.loads((work / "manifest.json").read_text())
    lines = (work / "input.jsonl").read_bytes().splitlines(keepends=True)
    horizon = manifest["horizon"]
    stderr_path = work / "monitor.stderr"
    metrics: dict[str, float] = {}
    notes: list[str] = []
    sessions: list[tuple[phases.Session, str]] = []

    def replay_for(seconds_left: float) -> None:
        if any(s.returncode != 0 for s, _ in sessions):
            return
        deadline = time.perf_counter() + seconds_left
        probe_before = phases.calibrate(cpus, SESSION_TIMEOUT_S)
        while len(replays) < 2 or time.perf_counter() < deadline:
            session = phases.replay(workload.cli_args(), replay_path, workload.replay_frames,
                                    stderr_path, SESSION_TIMEOUT_S, cpus)
            sessions.append((session, replay_expected))
            if session.returncode != 0 or len(session.times) < 2:
                return
            probe_after = phases.calibrate(cpus, SESSION_TIMEOUT_S)
            replays.append((session, (probe_before + probe_after) / 2))
            probe_before = probe_after

    # Replay runs before and after the live phase, so its sessions sample
    # the host over the whole run rather than one stretch of it. Each
    # session is bracketed by host-speed probes; their mean is its probe.
    replays: list[tuple[phases.Session, float]] = []
    if "replay" in wanted:
        replay_path = work / "replay.jsonl"
        replay_path.write_bytes(b"".join(lines[: workload.replay_frames]))
        replay_expected = manifest["expected"][str(workload.replay_frames)]
        replay_for(other_s / 2)

    if "live" in wanted:
        expected = manifest["expected"][str(live_frames)]
        session = phases.live(workload.cli_args(), lines[:live_frames], horizon,
                              workload.live_rate, stderr_path,
                              live_frames / workload.live_rate + SESSION_TIMEOUT_S, cpus)
        sessions.append((session, expected))
        # Verdict i is due when frame i + horizon is; verdict 0 waited for
        # start-up and flushed verdicts waited for end of stream, so neither counts.
        latencies = [session.times[i] - session.due[i + horizon]
                     for i in range(1, min(len(session.times), live_frames - horizon))]
        if len(latencies) >= 100 and session.gen_lag_s:
            width = int(P99_WINDOW_S * workload.live_rate)
            windows = [latencies[i:i + width] for i in range(0, len(latencies), width)]
            if len(windows) > 1 and len(windows[-1]) < width // 2:
                windows[-2:] = [windows[-2] + windows[-1]]
            metrics["latency_p50_ms"] = statistics.median(latencies) * 1e3
            metrics["latency_p99_ms"] = statistics.median(_p99(w) for w in windows) * 1e3
            metrics["driver.gen_lag_p99_ms"] = _p99(session.gen_lag_s) * 1e3
            metrics["driver.backlog_max_frames"] = session.backlog_max
        notes.append(f"live: {live_frames} frames at {workload.live_rate:g} frames/s, "
                     f"{len(latencies)} latency samples, p99 per {P99_WINDOW_S:g} s window")

    if "replay" in wanted:
        replay_for(other_s / 2)
        if replays:
            rates = [s.sent / (s.times[-1] - s.times[0]) for s, _ in replays]
            setups = [s.times[0] - s.spawned for s, _ in replays]
            # Scaled to the reference host speed: a probe slower than
            # REFERENCE_PROBE_S means the host ran slow during that session.
            speed = [REFERENCE_PROBE_S / probe for _, probe in replays]
            metrics["frames_per_s"] = statistics.median(r / k for r, k in zip(rates, speed))
            metrics["setup_s"] = statistics.median(t * k for t, k in zip(setups, speed))
            metrics["peak_rss_mb"] = statistics.median(s.peak_rss_mb for s, _ in replays)
            metrics["frames_per_s_measured"] = statistics.median(rates)
            metrics["setup_s_measured"] = statistics.median(setups)
            metrics["host.probe_ms"] = statistics.median(p for _, p in replays) * 1e3
        notes.append(f"replay: {len(replays)} sessions of {workload.replay_frames} frames")

    if "traced" in wanted:
        out = json.loads(_helper("traced.py", [
            "--workload", workload.name, "--dir", str(work),
            "--frames", str(workload.traced_frames), "--seconds", str(other_s),
        ]).splitlines()[-1])
        metrics.update(out["metrics"])
        notes.append(f"traced: {out['passes']} passes of {workload.traced_frames} frames")
        for name, (low, high) in workload.layer_ranges.items():
            if not low <= metrics[name] <= high:
                raise BenchFailure(f"{workload.name}: {name} = {metrics[name]} is outside "
                                   f"[{low}, {high}]; the workload no longer loads the layers "
                                   f"it was chosen for")

    attempted = sum(s.sent for s, _ in sessions)
    failed = sum(failed_frames(s, expected) for s, expected in sessions)
    metrics["verdict_error_rate"] = failed / max(1, attempted)
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "notes": notes}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_all(seconds: float, cpus: set[int] | None) -> int:
    seeds = (DEFAULT_SEED, UNSEEN_SEED)
    units = {**END_TO_END, **REPORTED, **PER_LAYER}
    failures = 0
    for workload in WORKLOADS.values():
        results = []
        for seed in seeds:
            result = run_workload(workload, seed, seconds, {"replay", "live", "traced"}, cpus)
            failures += result["failed"]
            results.append(result)
        print(f"== {workload.name}: {workload.why}")
        for seed, result in zip(seeds, results):
            print(f"   seed {seed}: " + "; ".join(result["notes"]))
        print(f"   {'metric':36} {'unit':12} " + " ".join(f"{'seed ' + str(s):>14}" for s in seeds))
        for name, unit in units.items():
            cells = " ".join(f"{_fmt(r['metrics'].get(name, '-')):>14}" for r in results)
            print(f"   {name:36} {unit:12} {cells}")
        print()
    if failures:
        print(f"FAILED: {failures} frames had a missing or wrong verdict", file=sys.stderr)
    return 1 if failures else 0


def run_one(workload: Workload, seed: int, seconds: float, trace: int,
            cpus: set[int] | None) -> int:
    wanted = {"live", "traced"} if trace else {"replay", "live"}
    units = PER_LAYER if trace else END_TO_END
    result = run_workload(workload, seed, seconds, wanted, cpus)
    for note in result["notes"]:
        print(f"# {note}")
    print(f"# {result['failed']} of {result['attempted']} frames failed")
    for name, unit in ({} if trace else REPORTED).items():
        print(f"# {name} {_fmt(result['metrics'].get(name, '-'))} {unit}")
    missing = [name for name in units if name not in result["metrics"]]
    for name in units:
        if name in result["metrics"]:
            print(f"{name} {_fmt(result['metrics'][name])} {units[name]}")
    correct = result["failed"] == 0 and not missing
    if missing:
        print(f"# not measured: {', '.join(missing)}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items() if name in result["metrics"]},
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (REPO / "src" / "percemon").is_dir():
        print(f"run: no percemon sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    cpus = phases.separate_cpus()
    try:
        if args.workload is None:
            return run_all(args.seconds, cpus)
        return run_one(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, cpus)
    except (BenchFailure, subprocess.SubprocessError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
