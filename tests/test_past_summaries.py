"""Closed past operators: the monitor's summaries against the offline evaluator.

A closed ``since`` (and so ``once``/``holds`` of a closed state formula)
is computed from a per-stream table that the monitor carries from verdict
to verdict. The offline evaluator computes the same entries afresh for
every window, so the two must agree on every verdict, flush included.
"""

import random

import pytest

from percemon.evaluate import evaluate_trace
from percemon.generator import GenConfig, generate_frames
from percemon.monitor import Monitor, MonitorConfig, run_monitor
from percemon.stql import ast as A
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse
from percemon.trace import make_frame

from randgen import FormulaGen

HISTORIES = (0, 1, 3, 10, 50)
# The spec of the benchmark's holds-window workload.
HOLDS_WINDOW_SPEC = (
    "(holds (exists {a} @ prob(a) > 0.5)) "
    "and (forall {b} @ pin (_, f) { always (C_FRAME - f <= 5 implies prob(b) > 0.6) })"
)


def _streams():
    faulty = [
        list(generate_frames(GenConfig(frames=40, objects=objects, drop_prob=0.2, jump_prob=0.05,
                                       conf_dip_prob=0.2, seed=seed)))
        for seed, objects in ((1, 2), (2, 3))
    ]
    # Every third frame empty: quantifiers over no objects are false.
    emptied = [
        make_frame(f.frame_number, f.timestamp, f.width, f.height,
                   [] if i % 3 == 0 else f.objects.values())
        for i, f in enumerate(faulty[0])
    ]
    return faulty + [emptied]


def _past(rng: random.Random, state) -> A.Formula:
    kind = rng.choice(("since", "once", "holds"))
    if kind == "since":
        return A.Since(state(), state())
    return (A.Once if kind == "once" else A.Holds)(state())


def _placed(rng: random.Random) -> A.Formula:
    """A closed past operator over state operands, in a random position."""
    gen = FormulaGen(rng, max_depth=3, allow_sugar=True, allow_temporal=False)

    def state():
        # Mostly a quantifier over the frame's objects, so operands vary.
        if rng.random() < 0.25:
            return gen.formula()
        body = gen.formula((("p",), (), ()))
        return (A.Exists if rng.random() < 0.6 else A.Forall)(("p",), body)

    past = _past(rng, state)
    placement = rng.choice((
        "top", "and", "or", "next", "prev", "until", "always",
        "exists", "forall", "since-outer", "once-outer", "holds-outer",
    ))
    if placement == "top":
        return past
    if placement == "and":
        return A.And(state(), past)
    if placement == "or":
        return A.Or(past, state())
    if placement in ("next", "prev", "always"):
        return {"next": A.Next, "prev": A.Prev, "always": A.Always}[placement](past)
    if placement == "until":
        return A.Until(past, state()) if rng.random() < 0.5 else A.Until(state(), past)
    if placement in ("exists", "forall"):
        beside = A.ProbCmpConst("q", A.Cmp.GT, 0.5)
        body = A.And(beside, past) if placement == "exists" else A.Implies(beside, past)
        return (A.Exists if placement == "exists" else A.Forall)(("q",), body)
    if placement == "since-outer":
        return A.Since(past, state()) if rng.random() < 0.5 else A.Since(state(), past)
    return (A.Once if placement == "once-outer" else A.Holds)(A.Or(past, state()))


def _cases(count: int, seed: int):
    rng = random.Random(seed)
    return [_placed(rng) for _ in range(count)]


@pytest.mark.parametrize("history", HISTORIES)
def test_online_summaries_match_offline_evaluator(history):
    streams = _streams()
    for formula in _cases(25, seed=4200 + history):
        config = MonitorConfig(max_history=history, max_horizon=2)
        monitor = Monitor(formula, config)
        for frames in streams:
            online = [v.value for v in run_monitor(formula, frames, config)]
            offline = evaluate_trace(monitor.formula, frames,
                                     history=monitor.history, horizon=monitor.horizon)
            assert online == offline, (formula, history)


def test_once_sees_a_hit_only_while_it_is_in_the_window():
    # The only hit is at frame 3: it is visible to the verdicts whose
    # history-2 window reaches back to it, and to none after.
    frames = [
        make_frame(i, i / 10, 100, 100, list(f.objects.values()) if i == 3 else [])
        for i, f in enumerate(generate_frames(GenConfig(frames=9, objects=1, seed=0)))
    ]
    spec = parse("once (exists {a} @ true)")
    verdicts = [v.value for v in run_monitor(spec, frames, MonitorConfig(max_history=2))]
    assert verdicts == [False, False, False, True, True, True, False, False, False]
    assert verdicts == evaluate_trace(desugar(spec), frames, history=2, horizon=0)


def test_per_verdict_work_does_not_grow_with_the_window():
    frames = list(generate_frames(GenConfig(frames=150, objects=4, drop_prob=0.05,
                                            conf_dip_prob=0.05, seed=7)))

    def work_per_push(max_history):
        monitor = Monitor(parse(HOLDS_WINDOW_SPEC), MonitorConfig(max_history=max_history))
        counts, seen = [], 0
        for frame in frames + [None]:
            verdicts = monitor.flush() if frame is None else monitor.push_frame(frame)
            counts.append((len(verdicts), monitor.stats.assignments - seen))
            seen = monitor.stats.assignments
        return counts

    assert work_per_push(10) == work_per_push(100) == work_per_push(1000)
