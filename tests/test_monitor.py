import random

import numpy as np
import pytest

from percemon.errors import ConfigError, ContractViolation, SpecError
from percemon.evaluate import EvalContext, evaluate, evaluate_trace
from percemon.generator import GenConfig, generate_frames
from percemon.monitor import Monitor, MonitorConfig, run_monitor
from percemon.stql.bounds import compute_bounds
from percemon.stql.builtins import phi1, phi2
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse
from percemon.stql.printer import format_formula
from percemon.trace import BoundingBox, DetectedObject, make_frame

from randgen import FormulaGen, random_trace
from reference import reference_trace


def frames_of(n):
    return [make_frame(i, i / 10, 100.0, 100.0, []) for i in range(n)]


def test_builtin_monitor_capacity():
    m = Monitor(phi1())
    assert (m.history, m.horizon) == (1, 0)
    assert m.capacity == 2


def test_unbounded_without_override_is_config_error():
    with pytest.raises(ConfigError):
        Monitor(parse("true until true"))
    with pytest.raises(ConfigError):
        Monitor(parse("true since true"))


def test_unbounded_with_override_works():
    m = Monitor(parse("true until true"), MonitorConfig(max_horizon=5))
    assert (m.history, m.horizon) == (0, 5)


def test_next_next_capacity():
    m = Monitor(parse("next next true"), MonitorConfig())
    assert (m.history, m.horizon) == (0, 2)
    assert m.capacity == 3


def test_override_is_a_lower_bound_on_the_window():
    # An override below the inferred requirement must not shrink the window.
    m = Monitor(parse("prev prev true"), MonitorConfig(max_history=1))
    assert m.history == 2
    widened = Monitor(parse("prev true"), MonitorConfig(max_history=4))
    assert widened.history == 4


@pytest.mark.parametrize("override, reason", [
    ("3", "must be an integer number of frames, got '3'"),
    (2.5, "must be an integer number of frames, got 2.5"),
    (True, "must be an integer number of frames, got True"),
    (-1, "must not be negative, got -1"),
    (-1.0, "must not be negative, got -1.0"),
])
def test_a_window_override_that_is_no_frame_count_is_a_config_error(override, reason):
    for config in (MonitorConfig(max_history=override), MonitorConfig(max_horizon=override)):
        with pytest.raises(ConfigError, match=reason):
            Monitor(parse("prev true"), config)


def test_an_integral_float_override_is_that_many_frames():
    spec = parse("prev prev true or next true")
    floated = Monitor(spec, MonitorConfig(max_history=3.0, max_horizon=np.int64(2)))
    integral = Monitor(spec, MonitorConfig(max_history=3, max_horizon=2))
    assert (floated.history, floated.horizon) == (3, 2)
    assert type(floated.history) is type(floated.horizon) is int
    for frame in frames_of(8):
        emitted = [[v.frame_number for v in m.push_frame(frame)] for m in (floated, integral)]
        assert emitted[0] == emitted[1] and floated.buffered == integral.buffered
    assert [v.frame_number for v in floated.flush()] == [v.frame_number for v in integral.flush()]


def test_the_inferred_window_is_sound_for_bounded_random_cores():
    # With no override the window is the inferred one: every verdict must
    # equal the reference's over the whole, untruncated trace.
    rng = random.Random(2601)
    gen = FormulaGen(rng, max_depth=4, allow_sugar=False)
    checked = 0
    while checked < 300:
        core = desugar(gen.formula())
        bounds = compute_bounds(core)
        if None in (bounds.history, bounds.horizon) or bounds.history == bounds.horizon == 0:
            continue
        frames = random_trace(rng, max_frames=20, max_objects=3)
        online = [verdict.value for verdict in run_monitor(core, frames)]
        assert online == reference_trace(core, frames), format_formula(core)
        checked += 1


def test_the_inferred_window_is_sound_for_a_thousand_random_cores():
    # Every bounded core of 1000 depth-4 draws, a zero-width window
    # included: the window with no override must see all a verdict reads.
    checked = 0
    for seed in (1, 2):
        rng = random.Random(seed)
        gen = FormulaGen(rng, max_depth=4, allow_sugar=False)
        for _ in range(500):
            core = desugar(gen.formula())
            frames = random_trace(rng, max_frames=20, max_objects=4)
            bounds = compute_bounds(core)
            if None in (bounds.history, bounds.horizon):
                continue
            online = [verdict.value for verdict in run_monitor(core, frames)]
            assert online == reference_trace(core, frames), format_formula(core)
            checked += 1
    assert checked >= 500


# Summaries (the holds and the guarded idiom), a scan of ``prev`` and a
# lookup of a bound id, so the context carries a summary table and steps.
SHARED_SPEC = ("(holds (exists {a} @ prob(a) > 0.5))"
               " and (forall {b} @ pin (_, f) { always (C_FRAME - f <= 3 implies prob(b) > 0.6) })"
               " and (forall {c} @ (prev exists {d} @ (c == d)) or prob(c) > 0.2)")


def test_monitors_of_one_spec_keep_their_contexts_apart(monkeypatch):
    # Two monitors of one spec, pushed in turn, share one program but each
    # evaluates in its own context over its own window; one is flushed
    # halfway, and contexts built outside them are evaluated in between.
    frames = list(generate_frames(GenConfig(frames=200, objects=4, seed=11, drop_prob=0.2,
                                            conf_dip_prob=0.2)))
    formula = parse(SHARED_SPEC)
    narrow = Monitor(formula, MonitorConfig(max_history=4))
    wide = Monitor(formula, MonitorConfig(max_history=9, max_horizon=2))
    assert narrow.formula is wide.formula
    core = narrow.formula
    whole = reference_trace(core, frames)

    built = []
    init = EvalContext.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(EvalContext, "__init__", counted)
    outside = 0
    verdicts = {narrow: [], wide: []}
    for i, frame in enumerate(frames):
        if i == 100:
            verdicts[narrow] += narrow.flush()
        for monitor in (narrow, wide):
            if i < 100 or monitor is wide:
                verdicts[monitor] += monitor.push_frame(frame)
            else:
                with pytest.raises(ContractViolation, match="already flushed"):
                    monitor.push_frame(frame)
            assert evaluate(core, EvalContext(frames, i)) == whole[i]
            outside += 1
    verdicts[wide] += wide.flush()
    assert len(built) - outside <= 2

    for monitor, seen in ((narrow, frames[:100]), (wide, frames)):
        values = [verdict.value for verdict in verdicts[monitor]]
        assert values == reference_trace(core, seen, monitor.history, monitor.horizon)
        assert [v.frame_number for v in verdicts[monitor]] == [f.frame_number for f in seen]


def test_binding_errors_surface_at_construction():
    with pytest.raises(SpecError):
        Monitor(parse("prob(ghost) > 0.5"))


def test_horizon_zero_emits_every_push():
    m = Monitor(parse("prev true"), MonitorConfig())
    for i, frame in enumerate(frames_of(4)):
        out = m.push_frame(frame)
        assert [v.frame_number for v in out] == [i]
    assert m.flush() == []


def test_horizon_two_lags_two_frames():
    m = Monitor(parse("next next true"), MonitorConfig())
    frames = frames_of(5)
    emitted = []
    for frame in frames:
        emitted.append([v.frame_number for v in m.push_frame(frame)])
    assert emitted == [[], [], [0], [1], [2]]
    assert [v.frame_number for v in m.flush()] == [3, 4]
    assert m.flush() == []


def test_verdict_values_against_offline_next():
    frames = frames_of(5)
    verdicts = run_monitor(parse("next true"), frames, MonitorConfig())
    assert [v.value for v in verdicts] == evaluate_trace(desugar(parse("next true")), frames)


def test_online_equals_offline_for_builtins_on_faulty_streams():
    for seed in range(5):
        stream = generate_frames(
            GenConfig(frames=30, objects=3, drop_prob=0.15, jump_prob=0.1,
                      conf_dip_prob=0.1, seed=seed)
        )
        for spec in (phi1(), phi2()):
            online = [v.value for v in run_monitor(spec, stream)]
            offline = evaluate_trace(desugar(spec), stream)
            assert online == offline


def test_online_equals_offline_for_windowed_until():
    # A config-truncated operator must agree with the offline evaluator
    # restricted to the same window.
    rng = random.Random(88)
    spec = parse("true until (exists {a} @ (prob(a) > 0.6))")
    core = desugar(spec)
    for _ in range(10):
        trace = random_trace(rng, max_frames=12, max_objects=3)
        online = [v.value for v in run_monitor(spec, trace, MonitorConfig(max_horizon=2))]
        offline = evaluate_trace(core, trace, history=0, horizon=2)
        assert online == offline


def test_online_equals_offline_for_windowed_since_with_horizon():
    # Truncated history plus horizon >= 2 exercises the flush path, where
    # the buffer still holds frames older than a late verdict's window.
    rng = random.Random(77)
    spec = parse("(true since (exists {a} @ (prob(a) > 0.6))) or next next true")
    core = desugar(spec)
    for _ in range(10):
        trace = random_trace(rng, max_frames=12, max_objects=3)
        online = [v.value for v in run_monitor(spec, trace, MonitorConfig(max_history=2))]
        offline = evaluate_trace(core, trace, history=2, horizon=2)
        assert online == offline


def test_flush_window_does_not_leak_old_frames():
    # A hit at frame 4 must be invisible to the history-2 window of the
    # verdict at frame 7, which flush evaluates while frame 4 is still
    # buffered for the verdict at frame 6.
    def fr(i, hit):
        conf = 0.9 if hit else 0.1
        return make_frame(i, i / 10, 100, 100,
                          [DetectedObject(1, "car", conf, BoundingBox(0, 0, 10, 10))])

    trace = [fr(i, hit=(i == 4)) for i in range(8)]
    spec = parse("(true since (exists {a} @ (prob(a) > 0.6))) or next next true")
    online = [v.value for v in run_monitor(spec, trace, MonitorConfig(max_history=2))]
    offline = evaluate_trace(desugar(spec), trace, history=2, horizon=2)
    assert online == offline
    assert online[-1] is False


def test_verdicts_are_unique_ordered_and_complete():
    frames = frames_of(7)
    verdicts = run_monitor(parse("prev true or next true"), frames, MonitorConfig())
    numbers = [v.frame_number for v in verdicts]
    assert numbers == [f.frame_number for f in frames]


def test_buffer_never_exceeds_capacity():
    m = Monitor(phi1(), MonitorConfig())
    stream = generate_frames(GenConfig(frames=25, objects=2, seed=3))
    for frame in stream:
        m.push_frame(frame)
        assert m.buffered <= m.capacity


def test_monitor_takes_frames_in_caller_order():
    # Frame order is checked where frames are read, not by the monitor.
    frames = [make_frame(n, t, 10, 10, []) for n, t in ((5, 0.5), (5, 0.6), (2, 0.1))]
    spec = parse("prev true or next true")
    verdicts = run_monitor(spec, frames)
    assert [v.frame_number for v in verdicts] == [5, 5, 2]
    assert [v.value for v in verdicts] == evaluate_trace(desugar(spec), frames)


def test_push_after_flush_rejected():
    m = Monitor(parse("prev true"), MonitorConfig())
    m.push_frame(make_frame(0, 0.0, 10, 10, []))
    m.flush()
    with pytest.raises(ContractViolation):
        m.push_frame(make_frame(1, 0.1, 10, 10, []))


def test_determinism_excluding_timings():
    stream = generate_frames(GenConfig(frames=20, objects=2, drop_prob=0.2, seed=9))
    first = run_monitor(phi1(), stream)
    second = run_monitor(phi1(), stream)
    strip = lambda vs: [(v.frame_number, v.timestamp, v.value) for v in vs]
    assert strip(first) == strip(second)


def test_verdict_wire_format():
    verdicts = run_monitor(parse("prev true"), frames_of(1), MonitorConfig())
    obj = verdicts[0].to_json_obj()
    assert list(obj) == ["frame", "timestamp", "verdict", "eval_time_ns"]
    assert obj["verdict"] is False
    assert obj["eval_time_ns"] >= 0
