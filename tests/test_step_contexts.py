"""``prev``/``next`` steps: one context per step scope per binding, none for ``prev true``.

A generated function gives all ``prev`` of one scope one step scope, and
all ``next`` another. Its context is built by the first step that reaches
it and reads the scope, once per binding of the parent scope (a function
call, or a frame a scan visits), and a step whose child reads nothing of
its frame (``prev true``) is its index test alone. A step reads its own
frame by index, its image extent included, which streams whose extent
changes from frame to frame check. These shapes are checked against the
definitional reference, offline and online with a window, and the contexts
built are counted by wrapping ``EvalContext.at`` as the benchmark's tracer
does.
"""

import random

import pytest

from percemon.evaluate import EvalContext, evaluate_trace
from percemon.monitor import Monitor, MonitorConfig, run_monitor
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse
from percemon.trace import BoundingBox, DetectedObject, make_frame

from reference import reference_trace

SPECS = {
    # Two steps in one scope, and a step beside one the other way.
    "two prev, one next": "exists {a} @ (prev prob(a) > 0.5 and prev prob(a) < 0.95 "
                          "and next prob(a) > 0.1)",
    "prev true beside next": "forall {a} @ (prev true implies (next prob(a) > 0.3 "
                             "or prev prob(a) > 0.6))",
    "prev outside and inside": "prev (exists {a} @ prob(a) > 0.4) and "
                               "exists {b} @ (prev prob(b) < 0.7 or next true)",
    "boxes across steps": "exists {a} @ (prev area(bbox(a)) > 20 and next nonempty(bbox(a)) "
                          "and prev prob(a) > 0.2)",
    # A step of a step.
    "prev prev": "exists {a} @ prev prev prob(a) > 0.4",
    "prev prev of exists": "prev prev (exists {a} @ prob(a) > 0.7) or next next true",
    "prev next": "exists {a} @ (prev next prob(a) > 0.5 and next prev prob(a) > 0.2)",
    # Steps inside the operands of scanned ``since``/``until``: each frame
    # the scan visits binds its scope, and its steps, again.
    "step in since operands": "exists {a} @ ((prev prob(a) > 0.2) since "
                              "(prob(a) > 0.8 and prev prob(a) < 0.5))",
    "step in once": "once (exists {a} @ (prev prob(a) > 0.5 and not prev prob(a) > 0.9))",
    "step in eventually": "exists {a} @ eventually (next prob(a) > 0.5 and prev prob(a) < 0.5)",
    "prev true in once": "once (prev true and exists {a} @ prev prob(a) < 0.3)",
    # Steps in expressions split into ``part_N`` functions.
    "steps split into parts": "exists {a} @ " + "(prev prob(a) > 0.5 or (next prob(a) < 0.2 and "
                              * 24 + "true" + "))" * 24,
    "prev next chain split": "exists {a} @ " + "prev next " * 30 + "prob(a) > 0.5",
}


def _frames(seed: int, empty: set[int], n: int = 9) -> list:
    """``n`` frames of up to three objects with random confidences and
    boxes; the frames in ``empty`` hold none."""
    rng = random.Random(seed)
    frames = []
    for i in range(n):
        objects = [] if i in empty else [
            DetectedObject(oid, "car", round(rng.random(), 2),
                           BoundingBox(oid, oid, oid + rng.randint(0, 8), oid + 6))
            for oid in (1, 2, 3) if rng.random() < 0.8]
        frames.append(make_frame(i, i / 10, 100.0, 60.0, objects))
    return frames


# The first and the last frame empty, a gap in the middle, and none empty.
STREAMS = [_frames(seed, empty) for seed, empty in
           enumerate([{0, 8}, {4}, set(), {0, 1, 7, 8}, {2, 3, 5}])]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_steps_agree_with_the_reference_offline(name):
    core = desugar(parse(SPECS[name]))
    for frames in STREAMS:
        assert evaluate_trace(core, frames) == reference_trace(core, frames)
        for history, horizon in ((0, 0), (1, 2), (3, 1)):
            assert (evaluate_trace(core, frames, history, horizon)
                    == reference_trace(core, frames, history, horizon)), (history, horizon)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_steps_agree_with_the_reference_online(name):
    phi = parse(SPECS[name])
    for history, horizon in ((1, 1), (2, 3)):
        config = MonitorConfig(max_history=history, max_horizon=horizon)
        monitor = Monitor(phi, config)
        for frames in STREAMS:
            expected = reference_trace(monitor.formula, frames, monitor.history, monitor.horizon)
            assert [v.value for v in run_monitor(phi, frames, config)] == expected


def _built(monkeypatch, spec, frames):
    """A monitor of ``spec`` over ``frames``: its verdicts, and for each
    push and the flush the contexts built (``EvalContext.at`` calls) and
    the verdicts emitted."""
    built = [0]
    at = EvalContext.at

    def counted(ctx, index):
        built[0] += 1
        return at(ctx, index)
    monitor = Monitor(parse(spec))
    monkeypatch.setattr(EvalContext, "at", counted)
    verdicts, calls = [], []
    for call in [lambda frame=frame: monitor.push_frame(frame) for frame in frames] + [monitor.flush]:
        before = built[0]
        out = call()
        verdicts += out
        calls.append((built[0] - before, len(out)))
    return verdicts, calls


SIX_OBJECTS = [make_frame(i, i / 10, 100.0, 60.0, [
    DetectedObject(oid, "car", round(0.15 * oid + 0.05 * (i % 3), 2), BoundingBox(1, 1, 5, 5))
    for oid in range(6)]) for i in range(10)]


def test_steps_of_one_scope_share_one_context_per_direction(monkeypatch):
    # The parent built a context per step reached, up to 3 per object.
    spec = SPECS["two prev, one next"]
    verdicts, calls = _built(monkeypatch, spec, SIX_OBJECTS)
    assert all(built <= 2 * emitted for built, emitted in calls)
    assert (2, 1) in calls
    core = desugar(parse(spec))
    assert [v.value for v in verdicts] == reference_trace(core, SIX_OBJECTS, 1, 1)


def test_prev_true_builds_no_context(monkeypatch):
    spec = "forall {a} @ (prev true implies prob(a) > 0.2)"
    verdicts, calls = _built(monkeypatch, spec, SIX_OBJECTS)
    assert calls == [(0, 1)] * len(SIX_OBJECTS) + [(0, 0)]
    core = desugar(parse(spec))
    assert [v.value for v in verdicts] == reference_trace(core, SIX_OBJECTS, 1, 0)


# --- frame reads under steps, over a stream whose image extent changes ----------
# A step reads the extent of its own frame, not of its parent's: with every
# frame of one extent, a step that read its parent's would go unseen.

EXTENT_SPECS = {
    "region and box terms": "exists {a} @ (prev area(~bbox(a)) > 3000 "
                            "and next nonempty(bbox(a) & universe))",
    # More than 6500 outside the box only in a 120-wide image.
    "region term under prev": "exists {a} @ prev area(~bbox(a)) > 6500",
    # A box right of x = 100 meets only a 120-wide image.
    "box term under next": "forall {a} @ next nonempty(bbox(a) & universe)",
    "universe and empty under steps": "prev area(universe) > 6500 or next area(~empty) < 6500",
}


def _extent_frames(seed: int, n: int = 10) -> list:
    """``n`` frames 60 high and 100 or 120 wide, of up to three objects,
    each box near the left or the right edge of its image."""
    rng = random.Random(seed)
    frames = []
    for i in range(n):
        width = rng.choice((100.0, 120.0))
        objects = []
        for oid in (1, 2, 3):
            if rng.random() < 0.8:
                x = rng.randint(0, 40) if rng.random() < 0.5 else int(width) - rng.randint(10, 14)
                y = rng.randint(0, 50)
                objects.append(DetectedObject(oid, "car", 0.5, BoundingBox(x, y, x + 8, y + 6)))
        frames.append(make_frame(i, i / 10, width, 60.0, objects))
    return frames


EXTENT_STREAMS = [_extent_frames(seed) for seed in range(6)]


def test_every_extent_stream_changes_extent():
    assert all(len({f.width for f in frames}) == 2 for frames in EXTENT_STREAMS)
    # Some box lies where only a 120-wide image holds it.
    assert any(o.bbox.xmin > 100 for f in EXTENT_STREAMS[0] for o in f.objects.values())


@pytest.mark.parametrize("name", sorted(EXTENT_SPECS))
def test_frame_reads_under_steps_follow_the_extent_offline(name):
    core = desugar(parse(EXTENT_SPECS[name]))
    for frames in EXTENT_STREAMS:
        assert evaluate_trace(core, frames) == reference_trace(core, frames)
        for history, horizon in ((0, 0), (1, 1), (2, 3)):
            assert (evaluate_trace(core, frames, history, horizon)
                    == reference_trace(core, frames, history, horizon)), (history, horizon)


@pytest.mark.parametrize("name", sorted(EXTENT_SPECS))
def test_frame_reads_under_steps_follow_the_extent_online(monkeypatch, name):
    for frames in EXTENT_STREAMS:
        verdicts, calls = _built(monkeypatch, EXTENT_SPECS[name], frames)
        monitor = Monitor(parse(EXTENT_SPECS[name]))
        expected = reference_trace(monitor.formula, frames, monitor.history, monitor.horizon)
        assert [v.value for v in verdicts] == expected
        # At most one context per direction per verdict.
        assert all(built <= 2 * emitted for built, emitted in calls)
        monkeypatch.undo()


def test_a_step_that_reads_its_frame_builds_its_context_once_per_verdict(monkeypatch):
    for frames in EXTENT_STREAMS:
        occupied = [bool(f.objects) for f in frames]
        # ``prev``: reached at every frame after the first that holds an object.
        _, calls = _built(monkeypatch, EXTENT_SPECS["region term under prev"], frames)
        assert sum(built for built, _ in calls) == sum(occupied[1:])
        monkeypatch.undo()
        # ``next``: at every frame but the last that holds an object.
        _, calls = _built(monkeypatch, EXTENT_SPECS["box term under next"], frames)
        assert sum(built for built, _ in calls) == sum(occupied[:-1])
        monkeypatch.undo()
