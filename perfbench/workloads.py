"""Benchmark workloads: what each one runs and why it exists.

This module imports nothing from ``percemon``, so the orchestrating
process stays small: the monitor is spawned from it, and a forked child
starts with its parent's resident set, which ``ru_maxrss`` would count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
DEFAULT_SEED = 7
# A second seed, never used while the benchmark was tuned; claims made on the
# default seed are rechecked on it.
UNSEEN_SEED = 20261017


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: str                   # builtin name, or a spec file under BENCH_DIR
    objects: int
    frames: int                 # length of the generated stream
    replay_frames: int          # prefix read by each replay session
    live_rate: float            # frames/s offered in the live phase
    traced_frames: int          # prefix run by the in-process traced pass
    max_history: int | None = None
    faults: dict = field(default_factory=dict)
    # Window the workload is pinned to: (inferred history, inferred horizon,
    # effective history). None means not pinned.
    pinned: tuple | None = None
    # Inclusive (low, high) range each named per-layer metric must fall in,
    # so a workload cannot drift into exercising different layers.
    layer_ranges: dict = field(default_factory=dict)

    def spec_arg(self) -> str:
        if self.spec.startswith("builtin:"):
            return self.spec
        return str(BENCH_DIR / self.spec)

    def cli_args(self) -> list[str]:
        args = ["monitor", "--spec", self.spec_arg()]
        if self.max_history is not None:
            args += ["--max-history", str(self.max_history)]
        return args


# Live rates sit near a third of the replay capacity measured when the
# benchmark was introduced, so a faster program shows as lower latency under
# an unchanged offered load.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="phi2-crowd",
            why="evaluation-bound: n^2 quantifier assignments and De Morgan region algebra on 16 objects",
            spec="builtin:phi2",
            objects=16,
            frames=1200,
            replay_frames=300,
            live_rate=100.0,
            traced_frames=200,
            # One forall over 16 objects, then an exists over 16 per object;
            # frame 0 skips the inner exists, hence the 1% slack.
            layer_ranges={"evaluate.assignments_per_frame": (0.99 * (16 + 16 ** 2), 16 + 16 ** 2)},
        ),
        Workload(
            name="phi1-sparse",
            why="3 objects with faults: fixed per-frame ingest, window upkeep and serialization costs dominate",
            spec="builtin:phi1",
            objects=3,
            frames=12000,
            replay_frames=4000,
            live_rate=1000.0,
            traced_frames=2000,
            faults={"drop_prob": 0.02, "jump_prob": 0.01, "conf_dip_prob": 0.02},
            layer_ranges={"spatial.calls_per_frame": (0, 0)},
        ),
        Workload(
            name="holds-window",
            why="206-frame window with a 5-frame horizon: temporal scans and window copies, no region algebra",
            spec="specs/holds_window.stql",
            objects=4,
            frames=1200,
            replay_frames=600,
            live_rate=100.0,
            traced_frames=600,
            max_history=200,
            faults={"drop_prob": 0.01, "conf_dip_prob": 0.01},
            pinned=(None, 5, 200),
            layer_ranges={"spatial.calls_per_frame": (0, 0)},
        ),
    )
}
