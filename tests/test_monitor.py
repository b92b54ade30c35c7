import random

import pytest

from percemon.errors import ConfigError, ContractViolation, SpecError
from percemon.evaluate import evaluate_trace
from percemon.generator import GenConfig, generate_frames
from percemon.monitor import Monitor, MonitorConfig, run_monitor
from percemon.stql.builtins import phi1, phi2
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse
from percemon.trace import BoundingBox, DetectedObject, make_frame

from randgen import random_trace


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
