"""Make one workload's inputs and reference verdicts from its seed.

Usage:
    python3 perfbench/prepare.py --workload NAME --seed N --out DIR --prefix K [--prefix K ...]

Writes ``DIR/input.jsonl`` (the stream exactly as ``percemon gen`` would
write it) and ``DIR/manifest.json`` with the monitor's window and, for each
requested prefix length K, the reference verdicts of the stream cut after
its first K frames as a string of 0/1. The reference is the offline
evaluator over the clipped windows the monitor sees, computed once per
workload and seed. Before writing, it checks the workload's pinned window
and, on the default seed, the stored digests of the stream and of the
verdict sequence. Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from percemon.evaluate import evaluate_trace
from percemon.generator import GenConfig, generate_frames
from percemon.monitor import Monitor, MonitorConfig
from percemon.stql.builtins import resolve_spec
from percemon.trace import read_stream, serialize_frame

from workloads import BENCH_DIR, DEFAULT_SEED, WORKLOADS, Workload

DIGESTS = BENCH_DIR / "digests.json"


class BenchError(Exception):
    """A workload cannot be timed: its pinned shape or a digest changed."""


def _bits(values: list[bool]) -> str:
    return "".join("1" if v else "0" for v in values)


class Inputs:
    """One workload's generated stream, monitor window and reference verdicts."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        frames = generate_frames(GenConfig(frames=workload.frames, objects=workload.objects,
                                           seed=seed, **workload.faults))
        self.jsonl = "".join(serialize_frame(f) + "\n" for f in frames).encode()
        # The reference sees the frames exactly as the CLI parses them.
        self.frames = list(read_stream(self.jsonl.splitlines()))
        _, formula = resolve_spec(workload.spec_arg())
        monitor = Monitor(formula, MonitorConfig(max_history=workload.max_history))
        self._check_pinned(monitor)
        self.formula = monitor.formula
        self.history = monitor.history
        self.horizon = monitor.horizon
        self.reference = evaluate_trace(self.formula, self.frames,
                                        history=self.history, horizon=self.horizon)

    def _check_pinned(self, monitor: Monitor) -> None:
        if self.workload.pinned is None:
            return
        inferred = (monitor.inferred_bounds.history, monitor.inferred_bounds.horizon)
        want_history, want_horizon, want_effective = self.workload.pinned
        if inferred != (want_history, want_horizon) or monitor.history != want_effective:
            raise BenchError(
                f"{self.workload.name}: inferred window is history={inferred[0]} "
                f"horizon={inferred[1]} with effective history={monitor.history}; the "
                f"workload is pinned to history={want_history} horizon={want_horizon} "
                f"with effective history={want_effective}"
            )

    def expected(self, count: int) -> list[bool]:
        """Reference verdicts for the stream cut after its first ``count`` frames.

        A verdict more than ``horizon`` frames before the cut sees the same
        window as in the whole stream; only the last ``horizon`` ones, which
        the monitor flushes at end of stream, are evaluated again.
        """
        if count >= len(self.frames):
            return self.reference
        keep = max(0, count - self.horizon)
        lo = max(0, keep - self.history)
        tail = evaluate_trace(self.formula, self.frames[lo:count],
                              history=self.history, horizon=self.horizon)
        return self.reference[:keep] + tail[keep - lo:]

    def digests(self) -> dict:
        return {
            "jsonl_sha256": hashlib.sha256(self.jsonl).hexdigest(),
            "verdicts_sha256": hashlib.sha256(_bits(self.reference).encode()).hexdigest(),
            "false_verdicts": self.reference.count(False),
        }

    def check_digests(self) -> None:
        """On the default seed, fail if the inputs or the answers have shifted."""
        if self.seed != DEFAULT_SEED:
            return
        stored = json.loads(DIGESTS.read_text())[self.workload.name]
        actual = self.digests()
        if actual != stored:
            raise BenchError(f"{self.workload.name}: seed {self.seed} digests changed: "
                             f"stored {stored}, now {actual}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--prefix", type=int, action="append", default=[])
    parser.add_argument("--print-digests", action="store_true",
                        help="print the digests instead of checking them")
    args = parser.parse_args()

    try:
        inputs = Inputs(WORKLOADS[args.workload], args.seed)
        if args.print_digests:
            print(json.dumps({args.workload: inputs.digests()}, indent=2))
            return 0
        inputs.check_digests()
    except BenchError as exc:
        print(f"prepare: {exc}", file=sys.stderr)
        return 1
    total = len(inputs.frames)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "input.jsonl").write_bytes(inputs.jsonl)
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "history": inputs.history,
        "horizon": inputs.horizon,
        "frames": total,
        "expected": {str(k): _bits(inputs.expected(k)) for k in args.prefix},
    }
    (args.out / "manifest.json").write_text(json.dumps(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
