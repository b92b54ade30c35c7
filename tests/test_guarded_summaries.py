"""Frame-guarded pin idioms and per-id summaries against the reference.

``pin (_, f) { always (C_FRAME - f <= k implies p) }`` and ``pin (_, f) {
once (f - C_FRAME < k and p) }`` compile to one bounded-window node over
``p``; when ``p`` reads its object variables only through id-resolved atoms,
that node, like any such ``since``, keeps one summary per tuple of bound ids.
Every path must give the verdicts of the definitional reference
(``reference.reference_trace``), which scans every operator and keeps no
summary: ``evaluate_trace`` over the whole trace and over clipped windows,
with one table for all verdicts, the monitor (flush and an ingest error
included) and the command line.
"""

import importlib
import json
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

from percemon.evaluate import describe, evaluate_trace
from percemon.generator import GenConfig, generate_frames
from percemon.monitor import Monitor, MonitorConfig, run_monitor
from percemon.stql.builtins import resolve_spec
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse
from percemon.stql.printer import format_formula
from percemon.trace import BoundingBox, DetectedObject, make_frame, serialize_frame

from reference import reference_trace

# ``percemon.evaluate`` is re-exported as the function; this is the module.
evaluate_mod = importlib.import_module("percemon.evaluate")
monitor_mod = importlib.import_module("percemon.monitor")

HOLDS_WINDOW = Path(__file__).resolve().parent.parent / "perfbench" / "specs" / "holds_window.stql"
CLASSES = ("car", "pedestrian", "cyclist")
ORDER = ("<", "<=", ">", ">=")
WINDOWS = ((0, 0), (2, 1), (9, 3))


def _streams():
    """Ids that vanish and reappear, new ids mid-stream, frames with no objects."""
    flickering = list(generate_frames(GenConfig(frames=36, objects=3, drop_prob=0.3,
                                                conf_dip_prob=0.35, seed=5)))
    renamed = []
    for i, frame in enumerate(generate_frames(GenConfig(frames=36, objects=3, drop_prob=0.15,
                                                        conf_dip_prob=0.35, seed=6))):
        # Every 9 frames the tracker hands out new ids; every fifth frame is empty.
        objects = [] if i % 5 == 4 else [
            DetectedObject(obj.object_id + 10 * (i // 9), obj.class_label, obj.confidence, obj.bbox)
            for obj in frame.objects.values()
        ]
        renamed.append(make_frame(frame.frame_number, frame.timestamp, frame.width, frame.height,
                                  objects))
    return [flickering, renamed]


class _States:
    """Random state formulas, as text, over id-resolved atoms of given variables."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.fresh = 0

    def atom(self, variables) -> str:
        rng = self.rng
        var, other = rng.choice(variables), rng.choice(variables)
        return rng.choice((
            f"prob({var}) {rng.choice(ORDER)} {rng.uniform(0.4, 0.9):.2f}",
            f'class({var}) == "{rng.choice(CLASSES)}"',
            f"class({var}) == class({other})",
            f"{var} {rng.choice(('==', '!='))} {other}",
            f"prob({var}) >= {rng.uniform(0.6, 1.4):.2f} * prob({other})",
        ))

    def state(self, variables, depth: int = 2) -> str:
        rng = self.rng
        if depth == 0 or rng.random() < 0.4:
            return self.atom(variables)
        kind = rng.choice(("and", "or", "not", "exists"))
        if kind == "not":
            return f"not ({self.state(variables, depth - 1)})"
        if kind == "exists":
            self.fresh += 1
            inner = f"c{self.fresh}"
            body = self.state(variables + (inner,), depth - 1)
            return f"(exists {{{inner}}} @ ({inner} != {variables[0]} and {body}))"
        return f"({self.state(variables, depth - 1)}) {kind} ({self.state(variables, depth - 1)})"


def _idiom(rng: random.Random, p: str) -> str:
    k = rng.randint(0, 6)
    if rng.random() < 0.5:
        return f"pin (_, f) {{ always (C_FRAME - f {rng.choice(('<=', '<'))} {k} implies ({p})) }}"
    return f"pin (_, f) {{ once (f - C_FRAME {rng.choice(('<', '<='))} {k} and ({p})) }}"


def _summarized(rng: random.Random) -> str:
    """A guarded idiom or an un-pinned per-id ``since``, in a random position."""
    states = _States(rng)
    two = rng.random() < 0.3
    variables = ("a", "b") if two else ("b",)
    p = states.state(variables)
    if rng.random() < 0.6:
        # Confidences change from frame to frame; classes and ids do not.
        p = f"prob({rng.choice(variables)}) > {rng.uniform(0.5, 0.9):.2f} {rng.choice(('and', 'or'))} ({p})"
    shape = rng.choice(("idiom", "idiom", "idiom", "holds", "once", "since"))
    if shape == "idiom":
        node = _idiom(rng, p)
    elif shape == "since":
        node = f"(({states.state(variables)}) since ({p}))"
    else:
        node = f"{shape} ({p})"
    body = f"forall {{b}} @ ({node})" if rng.random() < 0.5 else f"exists {{b}} @ (prob(b) > 0.3 and {node})"
    if two:
        body = f"forall {{a}} @ ({body})"
    placement = rng.choice(("top", "top", "and", "prev", "once", "holds"))
    if placement == "top":
        return body
    if placement == "and":
        return f"({body}) and holds (exists {{z}} @ prob(z) > 0.4)"
    return f"{placement} ({body})"


# Fallbacks: each must keep the plain scan, which check reports.
FALLBACKS = {
    "box atom in p": "forall {b} @ pin (_, f) { always (C_FRAME - f <= 3 implies "
                     "(prob(b) > 0.6 and lat(b, ct) > 300)) }",
    "f read outside the guard": "forall {b} @ pin (_, f) { always (C_FRAME - f <= 3 implies "
                                "(prob(b) > 0.6 or C_FRAME - f <= 1)) }",
    "temporal operator in p": "forall {b} @ pin (_, f) { always (C_FRAME - f <= 3 implies "
                              "(prob(b) > 0.6 and prev prob(b) > 0.5)) }",
    "time pin": "forall {b} @ pin (t, f) { always (C_FRAME - f <= 3 implies "
                "(prob(b) > 0.6 or C_TIME - t < 0.15)) }",
    "box atom in a past idiom": "exists {b} @ pin (_, f) { once (f - C_FRAME < 4 and "
                                "nonempty(bbox(b) & universe)) }",
    # The latest witness does not answer an until whose left operand can fail.
    "until with a left operand": "forall {b} @ (prob(b) > 0.3 until prob(b) < 0.5)",
    # An until with no guard looks to the end of the window, so a summary
    # would seed each id by walking back from there (see the offline cost
    # test below).
    "unguarded always": "forall {b} @ always prob(b) > 0.6",
    "unguarded eventually": "exists {b} @ eventually prob(b) < 0.5",
}
ONE_SCAN = "temporal: 0 closed summaries, 0 per-id summaries, 1 scan"


def _check_every_path(formula, streams):
    core = desugar(formula)
    for frames in streams:
        assert evaluate_trace(core, frames) == reference_trace(core, frames), \
            format_formula(formula)
        for history, horizon in WINDOWS:
            config = MonitorConfig(max_history=history, max_horizon=horizon)
            monitor = Monitor(formula, config)
            expected = reference_trace(monitor.formula, frames, monitor.history, monitor.horizon)
            offline = evaluate_trace(monitor.formula, frames, monitor.history, monitor.horizon)
            assert offline == expected, (format_formula(formula), history, horizon)
            online = [v.value for v in run_monitor(formula, frames, config)]
            assert online == expected, (format_formula(formula), history, horizon)


@pytest.mark.parametrize("seed", range(6))
def test_summarized_shapes_match_the_reference(seed):
    rng = random.Random(9100 + seed)
    streams = _streams()
    for _ in range(10):
        formula = parse(_summarized(rng))
        # A summarized shape takes a summary: no scan left at the top level.
        if format_formula(formula).startswith(("forall", "exists")):
            assert describe(desugar(formula))[0].endswith(" 0 scans"), format_formula(formula)
        _check_every_path(formula, streams)


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_fallbacks_keep_the_scan_and_its_verdicts(name):
    formula = parse(FALLBACKS[name])
    assert describe(desugar(formula))[0] == ONE_SCAN
    _check_every_path(formula, _streams())


@pytest.mark.parametrize("spec, verdict", [
    ("forall {b} @ pin (_, f) { always (C_FRAME - f < 0 implies prob(b) > 0.6) }", True),
    ("exists {b} @ pin (_, f) { once (f - C_FRAME < 0 and prob(b) > 0.5) }", False),
])
def test_a_guard_no_frame_meets_gives_the_empty_witness_range(spec, verdict):
    # The reach is -1: the summary is asked for a latest witness in a range
    # that ends before it starts.
    formula = parse(spec)
    assert describe(desugar(formula))[0].endswith(" 0 scans")
    assert evaluate_trace(desugar(formula), _streams()[0]) == [verdict] * 36
    _check_every_path(formula, _streams())


# The guard, or the whole idiom, under a pin that nothing reads or under
# ``not not``: the window analysis and the idiom recognizer both see
# through it.
@pytest.mark.parametrize("spec, window", [
    ("forall {b} @ pin (_, f) { always (pin (_, g) { C_FRAME - f <= 5 } implies prob(b) > 0.6) }",
     (0, 5)),
    ("forall {b} @ pin (_, f) { pin (_, g) { always (C_FRAME - f <= 5 implies prob(b) > 0.6) } }",
     (0, 5)),
    ("exists {b} @ pin (_, f) { not not once (not not (f - C_FRAME < 3) and prob(b) > 0.7) }",
     (2, 0)),
])
def test_idioms_under_unread_pins_take_a_summary(spec, window):
    formula = parse(spec)
    assert describe(desugar(formula))[0] == \
        "temporal: 0 closed summaries, 1 per-id summary over {b}, 0 scans"
    # No override is needed: the guard bounds the window.
    monitor = Monitor(formula)
    assert (monitor.history, monitor.horizon) == window
    _check_every_path(formula, _streams())


def test_a_query_reaching_below_an_entry_seeds_a_new_one():
    # Near the end of the trace the idiom's window is clipped: the queries at
    # 4, 3 and 2 end at frame 5, where the entry seeded by the query at 5
    # does, but only the query at 2 sees the failure at frame 2. Answered
    # from that entry, it would miss it, and the since at 5 would find its
    # witness at 2.
    box = BoundingBox(10.0, 10.0, 50.0, 50.0)
    frames = [make_frame(i, i / 10, 800.0, 600.0, [DetectedObject(1, "car", confidence, box)])
              for i, confidence in enumerate((0.9, 0.9, 0.3, 0.9, 0.9, 0.9))]
    core = desugar(parse(
        "(forall {b} @ pin (_, f) { always (C_FRAME - f <= 3 implies prob(b) > 0.6) }) "
        "since (exists {c} @ prob(c) < 0.5)"))
    expected = [False] * 6
    assert reference_trace(core, frames) == expected
    assert evaluate_trace(core, frames) == expected


def _lines(frames):
    return [serialize_frame(frame) + "\n" for frame in frames]


@pytest.mark.parametrize("spec", [
    "forall {b} @ pin (_, f) { always (C_FRAME - f <= 4 implies prob(b) > 0.6) }",
    "exists {b} @ pin (_, f) { once (f - C_FRAME < 3 and class(b) == \"car\") }",
    "forall {b} @ holds prob(b) > 0.4",
])
def test_cli_paths_match_the_offline_verdicts(runner, tmp_path, spec):
    spec_file = tmp_path / "spec.stql"
    spec_file.write_text(spec + "\n")
    formula, frames = parse(spec), _streams()[1]
    core = desugar(formula)

    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(_lines(frames)))
    result = runner(["run", "--spec", str(spec_file), "--trace", str(trace)])
    assert result.exit_code == 0
    assert [json.loads(line)["verdict"] for line in result.stdout.splitlines()] == \
        evaluate_trace(core, frames)

    # An ingest error at frame 20: the verdicts of the 20 frames before it
    # are flushed first, and they are those of the offline evaluator.
    broken = tmp_path / "broken.jsonl"
    broken.write_text("".join(_lines(frames[:20])) + "{not json\n" + "".join(_lines(frames[20:])))
    result = runner(["monitor", "--spec", str(spec_file), "--input", str(broken),
                     "--max-history", "6"])
    assert result.exit_code == 1
    assert "line 21" in result.stderr
    monitor = Monitor(formula, MonitorConfig(max_history=6))
    assert [json.loads(line)["verdict"] for line in result.stdout.splitlines()] == \
        evaluate_trace(core, frames[:20], monitor.history, monitor.horizon)


def _fresh_ids(count, confidence):
    """Every frame brings a fresh id; each id lives for three frames."""
    box = BoundingBox(10.0, 10.0, 50.0, 50.0)
    return [make_frame(i, i / 10, 800.0, 600.0,
                       [DetectedObject(j, "car", confidence(j), box)
                        for j in range(max(0, i - 2), i + 1)])
            for i in range(count)]


def _low_every_fourth(object_id):
    return 0.5 if object_id % 4 == 0 else 0.9


def test_summary_table_stays_within_the_ids_in_the_window():
    frames = _fresh_ids(10_000, _low_every_fourth)
    formula = parse(HOLDS_WINDOW.read_text())
    monitor = Monitor(formula, MonitorConfig(max_history=50))
    # One closed summary (the holds) and one per-id summary (the idiom).
    assert describe(monitor.formula)[0] == \
        "temporal: 1 closed summary, 1 per-id summary over {b}, 0 scans"
    nodes = 2
    table = monitor._summaries
    verdicts = []
    for frame in frames:
        verdicts += monitor.push_frame(frame)
        ids = {oid for buffered in monitor._buffer for oid in buffered.objects}
        assert len(table) <= len(ids) * nodes
        # Entries are trimmed to the last verdict's window and the frame before it.
        start = max(0, len(verdicts) - 1 - monitor.history)
        assert all(entry.base >= start - 1 for entry in table.values())
    verdicts += monitor.flush()
    assert len(verdicts) == len(frames)
    tail = frames[-300:]
    assert [v.value for v in verdicts[-240:]] == evaluate_trace(
        monitor.formula, tail, monitor.history, monitor.horizon)[-240:]


def _trims(formula, frames, config):
    """The monitor's verdicts and how many times it trims its summary table."""
    calls = []
    trim = monitor_mod.trim_summaries

    def counted(summaries, start):
        calls.append(start)
        trim(summaries, start)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monitor_mod, "trim_summaries", counted)
        verdicts = run_monitor(formula, frames, config)
    return [v.value for v in verdicts], len(calls)


def test_a_window_that_never_moves_is_never_trimmed():
    # The table is trimmed when the window start moves, at most once per
    # verdict; a whole-trace window never moves, so it is never trimmed.
    frames = _fresh_ids(1000, _low_every_fourth)
    formula = parse(HOLDS_WINDOW.read_text())
    whole = MonitorConfig(max_history=len(frames), max_horizon=len(frames))
    verdicts, trims = _trims(formula, frames, whole)
    assert trims == 0
    assert verdicts == evaluate_trace(desugar(formula), frames)
    verdicts, trims = _trims(formula, frames, MonitorConfig(max_history=50))
    assert 0 < trims <= len(verdicts) == len(frames)


# --- traced counts -------------------------------------------------------------

@contextmanager
def _counting():
    """Temporal steps and quantifier assignments/calls, counted the way
    ``perfbench/traced.py`` counts them: by wrapping ``EvalContext.at`` and
    ``quantifier_assignments``."""
    counts = {"steps": 0, "assignments": 0, "calls": 0}
    at, assignments = evaluate_mod.EvalContext.at, evaluate_mod.quantifier_assignments

    def counted_at(ctx, index):
        counts["steps"] += 1
        return at(ctx, index)

    def counted_assignments(variables, frame):
        counts["calls"] += 1
        for assignment in assignments(variables, frame):
            counts["assignments"] += 1
            yield assignment

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate_mod.EvalContext, "at", counted_at)
        patch.setattr(evaluate_mod, "quantifier_assignments", counted_assignments)
        yield counts


def _counted(spec, frames, config):
    """The monitor's verdicts and its counts (see ``_counting``)."""
    with _counting() as counts:
        verdicts = run_monitor(resolve_spec(spec)[1], frames, config)
    return [v.value for v in verdicts], counts


COUNTED_STREAM = GenConfig(frames=80, objects=4, drop_prob=0.1, jump_prob=0.05,
                           conf_dip_prob=0.1, seed=11)


def test_holds_window_costs_about_one_step_per_object_per_frame():
    frames = list(generate_frames(COUNTED_STREAM))
    config = MonitorConfig(max_history=200)
    verdicts, counts = _counted(str(HOLDS_WINDOW), frames, config)
    monitor = Monitor(resolve_spec(str(HOLDS_WINDOW))[1], config)
    assert verdicts == reference_trace(monitor.formula, frames, monitor.history, monitor.horizon)
    # The scan took 1296 steps here; quantifiers are untouched.
    assert counts["steps"] <= (COUNTED_STREAM.objects + 3) * len(frames)
    assert (counts["assignments"], counts["calls"]) == (584, 160)


def test_unguarded_eventually_offline_costs_one_step_per_object_per_frame():
    # Every fresh id meets the operand wherever it is seen, so the scan from
    # each frame stops there. A latest-witness entry would be seeded by
    # walking back from the last frame of the trace to the id's last frame:
    # about the whole trace per id in the shared table.
    frames = _fresh_ids(600, lambda object_id: 0.9)
    formula = parse("exists {b} @ eventually prob(b) > 0.5")
    whole = MonitorConfig(max_history=len(frames), max_horizon=len(frames))
    with _counting() as offline:
        assert evaluate_trace(desugar(formula), frames) == [True] * len(frames)
    with _counting() as run:
        assert [v.value for v in run_monitor(formula, frames, whole)] == [True] * len(frames)
    assert offline["steps"] <= 3 * len(frames)
    assert run["steps"] <= 3 * len(frames)


def test_a_closed_holds_offline_costs_one_step_per_frame():
    # One summary table serves every verdict of ``evaluate_trace``: each
    # verdict extends the closed entry by one frame. A table per verdict
    # would seed it by a scan back over every frame where the body held.
    frames = list(generate_frames(GenConfig(frames=600, objects=3, seed=7)))
    core = desugar(parse("holds (exists {a} @ prob(a) > 0.05)"))
    with _counting() as counts:
        verdicts = evaluate_trace(core, frames)
    assert verdicts == reference_trace(core, frames)
    assert counts["steps"] <= 2 * len(frames)


@pytest.mark.parametrize("spec, steps, assignments, calls", [
    # phi1's inner exists is an id lookup, which calls no ``quantifier_assignments``.
    ("builtin:phi1", 79, 292, 80),
    ("builtin:phi2", 79, 1350, 368),
])
def test_builtin_counts_do_not_move(spec, steps, assignments, calls):
    _, counts = _counted(spec, list(generate_frames(COUNTED_STREAM)), MonitorConfig())
    assert counts == {"steps": steps, "assignments": assignments, "calls": calls}
