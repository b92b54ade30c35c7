"""The work the monitor does, counted from outside and pinned exactly.

The benchmark's traced pass (``perfbench/traced.py``) counts evaluation work
by wrapping public names from outside the package: every
``quantifier_assignments`` call and each assignment it yields, every
``EvalContext.at`` step, and every call of a public ``spatial`` function.
This does the same over short seed-7 streams shaped like the benchmark's
three workloads and pins the counts, so that a program which skips one of
those calls, or hides work from them, fails here and not only in a
benchmark run.
"""

import importlib
import inspect
from pathlib import Path

import pytest

from percemon import spatial
from percemon.evaluate import EvalContext
from percemon.generator import GenConfig, generate_frames
from percemon.monitor import Monitor, MonitorConfig
from percemon.stql.builtins import resolve_spec

# ``percemon.evaluate`` is re-exported as the function; this is the module.
evaluate_module = importlib.import_module("percemon.evaluate")

HOLDS_WINDOW = Path(__file__).resolve().parent.parent / "perfbench" / "specs" / "holds_window.stql"

SPATIAL_FUNCTIONS = sorted(
    name for name, fn in vars(spatial).items()
    if inspect.isfunction(fn) and fn.__module__ == spatial.__name__ and not name.startswith("_")
)

# (spec, stream, max_history) shaped like phi2-crowd, phi1-sparse and holds-window.
WORKLOADS = {
    "phi2": ("builtin:phi2", GenConfig(frames=30, objects=16, seed=7), None),
    "phi1": ("builtin:phi1", GenConfig(frames=300, objects=3, drop_prob=0.02, jump_prob=0.01,
                                       conf_dip_prob=0.02, seed=7), None),
    "holds_window": (str(HOLDS_WINDOW), GenConfig(frames=260, objects=4, drop_prob=0.01,
                                                  conf_dip_prob=0.01, seed=7), 200),
}

# Exact counts; the verdicts' false count rides along. Quantifier, assignment
# and spatial counts are those of the closure-tree evaluator that the
# generated programs replaced. A step context is built once per binding of
# its scope, and none for ``prev true``, so the builtins' temporal steps are
# one per verdict that reaches its ``prev``.
PINNED = {
    "phi2": {"quantifier_calls": 494, "assignments": 7904, "temporal_steps": 29,
             "spatial_calls": 928, "stats_assignments": 7904, "false_verdicts": 0},
    "phi1": {"quantifier_calls": 300, "assignments": 885, "temporal_steps": 299,
             "spatial_calls": 0, "stats_assignments": 1753, "false_verdicts": 27},
    "holds_window": {"quantifier_calls": 520, "assignments": 2058, "temporal_steps": 1300,
                     "spatial_calls": 0, "stats_assignments": 2058, "false_verdicts": 78},
}


def _counting(monkeypatch):
    counts = dict.fromkeys(("quantifier_calls", "assignments", "temporal_steps",
                            "spatial_calls"), 0)
    quantifier_assignments = evaluate_module.quantifier_assignments
    at = EvalContext.at

    def counted_assignments(variables, frame):
        counts["quantifier_calls"] += 1
        for assignment in quantifier_assignments(variables, frame):
            counts["assignments"] += 1
            yield assignment

    def counted_at(ctx, index):
        counts["temporal_steps"] += 1
        return at(ctx, index)

    def counted_spatial(fn):
        def wrapper(*args, **kwargs):
            counts["spatial_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(evaluate_module, "quantifier_assignments", counted_assignments)
    monkeypatch.setattr(EvalContext, "at", counted_at)
    for name in SPATIAL_FUNCTIONS:
        monkeypatch.setattr(spatial, name, counted_spatial(getattr(spatial, name)))
    return counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counted_work_is_pinned(monkeypatch, name):
    spec, config, history = WORKLOADS[name]
    frames = list(generate_frames(config))
    monitor = Monitor(resolve_spec(spec)[1], MonitorConfig(max_history=history))
    counts = _counting(monkeypatch)
    verdicts = [v.value for f in frames for v in monitor.push_frame(f)]
    verdicts += [v.value for v in monitor.flush()]
    counts["stats_assignments"] = monitor.stats.assignments
    counts["false_verdicts"] = verdicts.count(False)
    assert counts == PINNED[name]
