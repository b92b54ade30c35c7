"""Alternating parent/change benchmark pairs, summarized as a BENCH_<n>.json record.

Usage:
    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json
        [--workloads W1,W2] [--seed 7] [--traced-seconds 8]

DIR is a git checkout of the repository (each keeps its own
``.perfbench-work``). For every workload, pair i of the protocol's 10 runs

    python3 perfbench/run.py --workload W --seed S --trace 0

once in each tree, at the benchmark's own run length, the parent first in
even pairs and the change first in odd ones, so a slow stretch of a shared
host lands on both sides. With ``--traced-seconds`` 3 pairs of ``--trace
1`` runs per workload follow, alternating in the same way. Each run's last
output line is its result.
The record names the command that made it, each tree's ``git describe``,
and the host with the interpreter settings of ``HOST_ENV``; it holds every
result line (``runs``, ``traced``) and, per end-to-end metric of
``BENCHMARK.json``, the parent's and the change's
q1/median/q3, the pairs the change won and the ratio of the medians
(``summary``), and whether that shows a gain (``gain_shown``, see
``gains``). With traced runs it also holds, per workload and per-layer
metric of ``BENCHMARK.json``, the median of the parent's and of the
change's traced runs (``traced_summary``). A run that fails before
printing its result line, such as a crash, is tried up to ``ATTEMPTS`` (3)
times, and every failed attempt is kept in ``failed_attempts``; a run that
fails every attempt, or prints a result that is not correct, stops the
script with exit 1 and no record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")
PAIRS = 10
TRACED_PAIRS = 3
ATTEMPTS = 3
# Settings the runs inherit that change what they cost: the first makes every
# write to stdout a syscall of its own, the second makes every start compile
# the sources.
HOST_ENV = ("PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE")


def result_line(stdout: str) -> dict | None:
    """The JSON object on the last line of a run's output, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def run_once(tree: Path, workload: str, seed: int, extra: list[str],
             failures: list[dict]) -> dict:
    """The result line of one run in ``tree``. A run that fails before it
    prints a result line is tried up to ``ATTEMPTS`` times, and each failed
    attempt is appended to ``failures``; failing every attempt, or a result
    line that is not correct, stops the script."""
    args = ["perfbench/run.py", "--workload", workload, "--seed", str(seed), *extra]
    for _ in range(ATTEMPTS):
        proc = subprocess.run([sys.executable, *args], cwd=tree, capture_output=True, text=True)
        result = result_line(proc.stdout)
        if proc.returncode == 0 and result is not None and result.get("correct", True):
            return result
        stderr = proc.stderr.strip().splitlines()
        failures.append({"tree": tree.name, "command": shlex.join(["python3", *args]),
                         "exit_code": proc.returncode, "stderr": stderr[-1] if stderr else ""})
        if result is not None:
            break
    sys.stderr.write(proc.stdout + proc.stderr)
    raise SystemExit(f"bench_pairs: {shlex.join(args)} failed in {tree} (exit {proc.returncode})")


def describe(tree: Path) -> str | None:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def host() -> str:
    """The machine, its usable CPUs, the Python version and each of ``HOST_ENV``."""
    settings = [f"{name}={os.environ[name]}" if name in os.environ else f"{name} unset"
                for name in HOST_ENV]
    return ", ".join([platform.machine(), f"{len(os.sched_getaffinity(0))} usable CPUs",
                      f"Python {platform.python_version()}", *settings])


def quartiles(values: list[float]) -> list[float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 4), round(median, 4), round(q3, 4)]


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        by_pair = {(run["pair"], run["side"]): run["result"] for run in mine}
        pairs = sorted({run["pair"] for run in mine})
        entry = {}
        for name, better in metrics.items():
            values = {side: [by_pair[pair, side]["metrics"][name]["value"] for pair in pairs]
                      for side in SIDES}
            won = sum((c > p) if better == "higher" else (c < p)
                      for p, c in zip(values["parent"], values["change"]))
            entry[name] = {
                "parent_q1_median_q3": quartiles(values["parent"]),
                "change_q1_median_q3": quartiles(values["change"]),
                "change_better_pairs": f"{won}/{len(pairs)}",
                "median_ratio": round(statistics.median(values["change"])
                                      / statistics.median(values["parent"]), 4),
            }
        entry["failed_frames"] = {side: sum(by_pair[pair, side]["failed"] for pair in pairs)
                                  for side in SIDES}
        entry["runs"] = {side: len(pairs) for side in SIDES}
        summary[workload] = entry
    return summary


def gains(summary: dict, metrics: dict[str, str]) -> dict:
    """Per workload and end-to-end metric, whether the summary shows a gain:
    the change won at least nine tenths of the pairs, ties counting for
    neither, and its median beats the parent's by more than the parent's
    q3 - q1."""
    shown = {}
    for workload, entry in summary.items():
        shown[workload] = {}
        for name, better in metrics.items():
            row = entry[name]
            won, pairs = map(int, row["change_better_pairs"].split("/"))
            q1, parent, q3 = row["parent_q1_median_q3"]
            change = row["change_q1_median_q3"][1]
            margin = change - parent if better == "higher" else parent - change
            shown[workload][name] = 10 * won >= 9 * pairs and margin > q3 - q1
    return shown


def summarize_traced(traced: dict, metrics: list[str]) -> dict:
    """The parent's and the change's median of each per-layer metric over
    their traced runs, per traced workload. A side holds a list of results;
    records made with one traced run per side hold that result alone."""
    def median(results: list[dict] | dict, name: str) -> float:
        if isinstance(results, dict):
            results = [results]
        return round(statistics.median(r["metrics"][name]["value"] for r in results), 4)
    return {
        workload: {name: {side: median(sides[side], name) for side in SIDES} for name in metrics}
        for workload, sides in traced.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default="phi2-crowd,phi1-sparse,holds-window")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--traced-seconds", type=float, default=0.0)
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    per_layer = [m["name"] for m in benchmark["per_layer"]]
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    traced_args = ["--seconds", f"{args.traced_seconds:g}", "--trace", "1"]

    runs, failures = [], []
    for workload in workloads:
        for pair in range(PAIRS):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_once(trees[side], workload, args.seed, ["--trace", "0"], failures)
                runs.append({"workload": workload, "pair": pair, "side": side, "result": result})
                fps = result["metrics"]["frames_per_s"]["value"]
                print(f"{workload} pair {pair} {side}: frames_per_s {fps:.1f}", file=sys.stderr)
    traced = {}
    if args.traced_seconds > 0:
        for workload in workloads:
            traced[workload] = {side: [] for side in SIDES}
            for pair in range(TRACED_PAIRS):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    traced[workload][side].append(
                        run_once(trees[side], workload, args.seed, traced_args, failures))

    command = f"python3 perfbench/run.py --workload W --seed {args.seed}"
    summary = summarize(runs, metrics)
    record = {
        "made_by": shlex.join(["python3", "scripts/bench_pairs.py", *sys.argv[1:]]),
        "parent": describe(trees["parent"]),
        "change": describe(trees["change"]),
        "command": f"{command} --trace 0",
        "traced_command": f"{command} {shlex.join(traced_args)}" if traced else None,
        "host": host(),
        "protocol": f"{PAIRS} pairs per workload, alternating which side runs first"
                    + (f", then {TRACED_PAIRS} traced pairs the same way" if traced else "") + "; "
                    "frames_per_s and setup_s are reported at the reference host speed by "
                    "perfbench's CPU probe",
        "summary": summary,
        "gain_shown": gains(summary, metrics),
        "traced_summary": summarize_traced(traced, per_layer),
        "runs": runs,
        "traced": traced,
        "failed_attempts": failures,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
