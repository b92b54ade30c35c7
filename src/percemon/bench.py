"""Timing and quantifier-blowup measurement over synthetic streams.

For each requested object count the bench generates one fault-free stream
with a fixed seed, runs the online monitor over it and reports mean and
p99 per-verdict evaluation time. Timing covers only the evaluation call;
frames are materialized up front, so JSON handling never pollutes the
numbers, and the program of the specification is built before any
stream is timed. With assignment counting enabled the report also carries
the number of quantifier assignments enumerated per frame, which for the
``probe:existsK`` specifications is exactly n^k.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ConfigError
from .generator import GenConfig, generate_frames
from .monitor import Monitor
from .stql.builtins import resolve_spec


@dataclass(frozen=True)
class BenchReport:
    spec_name: str
    object_count: int
    frames: int
    mean_eval_time_ns: int
    p99_eval_time_ns: int
    seed: int
    assignments_per_frame: int | None = None


def _p99(samples: Sequence[int]) -> int:
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, -(-99 * len(ordered) // 100) - 1))
    return ordered[rank]


def run_bench(
    spec: str,
    object_counts: Sequence[int],
    frames: int = 300,
    seed: int = 0,
    params: Mapping[str, float] | None = None,
    count_assignments: bool = False,
) -> list[BenchReport]:
    """One report per object count, monitoring a seeded synthetic stream
    of ``frames`` frames, at least one: a run of none times nothing."""
    if frames < 1:
        raise ConfigError(f"frames must be at least 1, got {frames}")
    reports: list[BenchReport] = []
    name, formula = resolve_spec(spec, params)
    # Monitors of one specification share its program, which is built at the
    # first verdict: build it before any size is timed, and keep it.
    warm = Monitor(formula)
    for frame in generate_frames(GenConfig(frames=1, objects=1, seed=seed)):
        warm.push_frame(frame)
    warm.flush()
    for count in object_counts:
        stream = generate_frames(GenConfig(frames=frames, objects=count, seed=seed))
        monitor = Monitor(formula)
        verdicts = []
        for frame in stream:
            verdicts.extend(monitor.push_frame(frame))
        verdicts.extend(monitor.flush())
        timings = [v.eval_time_ns for v in verdicts]
        per_frame = None
        if count_assignments:
            per_frame = round(monitor.stats.assignments / len(verdicts))
        reports.append(
            BenchReport(
                spec_name=name,
                object_count=count,
                frames=frames,
                mean_eval_time_ns=int(statistics.fmean(timings)),
                p99_eval_time_ns=_p99(timings),
                seed=seed,
                assignments_per_frame=per_frame,
            )
        )
    return reports


def render_tsv(reports: Sequence[BenchReport]) -> str:
    with_counts = any(r.assignments_per_frame is not None for r in reports)
    header = ["spec", "objects", "frames", "mean_eval_time_ns", "p99_eval_time_ns", "seed"]
    if with_counts:
        header.append("assignments_per_frame")
    lines = ["\t".join(header)]
    for r in reports:
        row = [r.spec_name, str(r.object_count), str(r.frames),
               str(r.mean_eval_time_ns), str(r.p99_eval_time_ns), str(r.seed)]
        if with_counts:
            row.append("" if r.assignments_per_frame is None else str(r.assignments_per_frame))
        lines.append("\t".join(row))
    return "\n".join(lines)


def render_json(reports: Sequence[BenchReport]) -> str:
    rows = []
    for r in reports:
        row = {
            "spec": r.spec_name,
            "objects": r.object_count,
            "frames": r.frames,
            "mean_eval_time_ns": r.mean_eval_time_ns,
            "p99_eval_time_ns": r.p99_eval_time_ns,
            "seed": r.seed,
        }
        if r.assignments_per_frame is not None:
            row["assignments_per_frame"] = r.assignments_per_frame
        rows.append(row)
    return json.dumps(rows, indent=2)
