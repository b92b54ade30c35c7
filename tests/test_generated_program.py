"""The generated program of a formula: what a debugger and a profiler see.

``evaluate`` compiles each formula to the source of one Python program.
Its functions are named after their node kind and compile order, the
source is registered with ``linecache`` so that tracebacks show the
generated lines, and an expression that would nest deeper than CPython's
parser allows is split into functions of its own. A program lives exactly
as long as its formula object, and one formula compiles to one source text.
Monitors of one specification share one formula object, and so one program.
"""

import cProfile
import gc
import importlib
import linecache
import math
import pstats
import traceback
from pathlib import Path

import numpy as np
import pytest

from percemon import spatial
from percemon.evaluate import EvalContext, evaluate, evaluate_trace
from percemon.generator import GenConfig, generate_frames
from percemon.monitor import Monitor, MonitorConfig, run_monitor
from percemon.stql import ast as A
from percemon.stql.builtins import phi1, phi2
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse
from percemon.trace import BoundingBox, DetectedObject, make_frame

from reference import reference_trace

PROGRAM = "<percemon program "
HOLDS_WINDOW = Path(__file__).resolve().parent.parent / "perfbench" / "specs" / "holds_window.stql"
evaluate_module = importlib.import_module("percemon.evaluate")
monitor_module = importlib.import_module("percemon.monitor")


EMPTY = [make_frame(0, 0.0, 100.0, 100.0, [])]


def _compiled(phi):
    """Evaluate ``phi``, compiling it, and return its program's ``linecache`` name."""
    before = set(linecache.cache)
    evaluate(phi, EvalContext(EMPTY, 0))
    (name,) = set(linecache.cache) - before
    return name


def test_a_traceback_shows_the_generated_functions_and_lines(monkeypatch):
    def broken_meet(boxes, universe):
        raise RuntimeError("box meet failed")
    monkeypatch.setattr(spatial, "meet_area", broken_meet)
    frames = list(generate_frames(GenConfig(frames=2, objects=2, seed=7)))
    with pytest.raises(RuntimeError) as caught:
        evaluate(desugar(phi2()), EvalContext(frames, 1))
    generated = [entry for entry in traceback.extract_tb(caught.value.__traceback__)
                 if entry.filename.startswith(PROGRAM)]
    assert [entry.name.split("_")[0] for entry in generated] == ["program", "exists", "exists"]
    # The last generated line is the overlap atom's, read back from linecache.
    assert "spatial.meet_area(" in generated[-1].line
    assert linecache.getline(generated[-1].filename, generated[-1].lineno).strip() == \
        generated[-1].line


def test_a_profile_attributes_time_to_each_generated_function():
    frames = list(generate_frames(GenConfig(frames=5, objects=3, seed=7)))
    profile = cProfile.Profile()
    profile.runcall(evaluate_trace, desugar(phi2()), frames)
    # The module body runs once, when the program is built.
    names = {name for filename, _, name in pstats.Stats(profile).stats
             if filename.startswith(PROGRAM) and name != "<module>"}
    assert sorted(name.split("_")[0] for name in names) == ["exists", "exists", "program"]


def _pin(bound):
    return desugar(parse(f"pin (t, _) {{ t - C_TIME <= {bound} }}"))


def test_dropped_programs_leave_the_line_cache():
    gc.collect()
    before = sum(name.startswith(PROGRAM) for name in linecache.cache), len(evaluate_module._programs)
    for bound in range(100):
        evaluate(_pin(bound), EvalContext(EMPTY, 0))
    gc.collect()
    # Each formula was dropped right after its verdict, and its program with it.
    assert (sum(name.startswith(PROGRAM) for name in linecache.cache),
            len(evaluate_module._programs)) == before


def test_a_program_lives_exactly_as_long_as_its_formula():
    formulas = [_pin(bound) for bound in range(100)]
    names = {id(phi): _compiled(phi) for phi in formulas}
    assert names.keys() <= evaluate_module._programs.keys()
    assert all(name in linecache.cache for name in names.values())
    del formulas
    gc.collect()
    assert not names.keys() & evaluate_module._programs.keys()
    assert not any(name in linecache.cache for name in names.values())


def _counting_builds(monkeypatch):
    builds = []
    build = evaluate_module._build
    monkeypatch.setattr(evaluate_module, "_build",
                        lambda phi, reads: builds.append(phi) or build(phi, reads))
    return builds


def test_65_live_monitors_of_one_spec_build_one_program(monkeypatch):
    builds = _counting_builds(monkeypatch)
    frames = list(generate_frames(GenConfig(frames=10, objects=3, seed=7)))
    monitors = [Monitor(phi1()) for _ in range(65)]
    verdicts = [[] for _ in monitors]
    for frame in frames:
        for monitor, out in zip(monitors, verdicts):
            out += monitor.push_frame(frame)
    for monitor, out in zip(monitors, verdicts):
        out += monitor.flush()
    assert len(builds) == 1
    values = [[verdict.value for verdict in out] for out in verdicts]
    assert all(out == values[0] and len(out) == len(frames) for out in values)


def test_monitors_of_one_spec_share_a_program_until_the_last_is_dropped(monkeypatch):
    builds = _counting_builds(monkeypatch)
    frames = list(generate_frames(GenConfig(frames=6, objects=3, seed=7)))
    gc.collect()
    cores = len(monitor_module._cores)
    outs = [[v.value for v in run_monitor(phi2(), frames)] for _ in range(5)]
    assert len(builds) == 1 and all(out == outs[0] for out in outs)
    kept = Monitor(phi2())
    assert kept.formula is builds[0] and len(monitor_module._cores) == cores + 1
    programs = len(evaluate_module._programs)
    del kept, builds[:]
    gc.collect()
    # The last monitor took the core with it, and the core its program.
    assert len(monitor_module._cores) == cores
    assert len(evaluate_module._programs) == programs - 1


@pytest.mark.parametrize("spec", ["true", "pin (_, f) { true }"])
def test_a_spec_whose_core_is_part_of_it_leaves_with_its_monitor(spec):
    # ``desugar`` returns the ``true`` of these specs itself; an entry whose
    # key held its own core would never go.
    gc.collect()
    cores = len(monitor_module._cores)
    monitor = Monitor(parse(spec))
    assert len(monitor_module._cores) == cores + 1
    del monitor
    gc.collect()
    assert len(monitor_module._cores) == cores


def _guarded_reach(bound):
    """``exists {a} @ pin (_, f) { always (f - C_FRAME >= bound implies
    area(bbox(a)) > 10) }``, whose frame bound is the scan's reach."""
    guard = A.FrameConstraint("f", A.Cmp.GE, bound)
    return A.Exists(("a",), A.Freeze(None, "f", A.Always(A.Implies(guard, parse(
        "area(bbox(a)) > 10")))))


# Formulas equal by ``==`` whose constants were given as different types.
EQUAL_PAIRS = {
    "int and numpy reach": (_guarded_reach(-2), _guarded_reach(np.int64(-2))),
    "numpy ratio": (A.Exists(("a",), A.ProbCmpRatio("a", A.Cmp.GE, 0.5, "a")),
                    A.Exists(("a",), A.ProbCmpRatio("a", A.Cmp.GE, np.float64(0.5), "a"))),
    "infinite bound": (A.Exists(("a",), A.ProbCmpConst("a", A.Cmp.LT, math.inf)),
                       A.Exists(("a",), A.ProbCmpConst("a", A.Cmp.LT, np.float64(math.inf)))),
    "int and float time bound": (parse("pin (t, _) { next (t - C_TIME >= -1) }"),
                                 A.Freeze("t", None, A.Next(A.TimeConstraint("t", A.Cmp.GE, -1.0)))),
}


@pytest.mark.parametrize("name", sorted(EQUAL_PAIRS))
def test_equal_formulas_each_agree_with_the_reference_beside_the_other(name):
    frames = [make_frame(i, i / 10, 100.0, 60.0,
                         [DetectedObject(1, "car", 0.9 if i % 3 else 0.1, BoundingBox(1, 1, 5, 5))])
              for i in range(8)]
    config = MonitorConfig(max_history=3, max_horizon=3)
    formulas = EQUAL_PAIRS[name]
    assert formulas[0] == formulas[1]
    # Both monitors live at once, so that they would share a program if any.
    monitors = [Monitor(phi, config) for phi in formulas]
    outs = [[], []]
    for frame in frames:
        for monitor, out in zip(monitors, outs):
            out += monitor.push_frame(frame)
    for phi, monitor, out in zip(formulas, monitors, outs):
        out += monitor.flush()
        expected = reference_trace(desugar(phi), frames, history=3, horizon=3)
        assert [verdict.value for verdict in out] == expected


def test_an_int_and_an_integral_float_frame_bound_share_one_core():
    # A node stores a frame bound as an int, so the float spec's program is
    # the int spec's, and its reach bounds a ``range``.
    frames = list(generate_frames(GenConfig(frames=8, objects=3, seed=7)))
    floated = Monitor(_guarded_reach(-2.0))
    integral = Monitor(_guarded_reach(-2))
    assert floated.formula is integral.formula
    expected = reference_trace(floated.formula, frames)
    for monitor in (floated, integral):
        out = [verdict for frame in frames for verdict in monitor.push_frame(frame)]
        assert [verdict.value for verdict in out + monitor.flush()] == expected


def test_one_formula_compiles_to_the_same_source():
    text = HOLDS_WINDOW.read_text()
    formulas = [desugar(parse(text)) for _ in range(2)]
    first, second = (linecache.getlines(_compiled(phi)) for phi in formulas)
    assert first and first == second


DEEP = {
    "next": "next " * 99 + "true",
    "prev": "prev " * 99 + "true",
    "next-in-exists": "exists {a} @ " + "next " * 98 + "prob(a) > 0.5",
    "and-or": "exists {a} @ " + "(prob(a) > 0.5 and (prob(a) < 0.2 or " * 24 + "true" + "))" * 24,
    "pins": "".join(f"pin (t{i}, f{i}) {{ next (" for i in range(33))
            + "t0 - C_TIME < 1 and f0 - C_FRAME < 0" + ") }" * 33,
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_deep_expressions_are_split_and_agree_with_the_reference(shape):
    frames = [make_frame(i, i / 10, 100.0, 60.0,
                         [DetectedObject(1, "car", 0.9 if i % 2 else 0.1, BoundingBox(1, 1, 5, 5))])
              for i in range(4)]
    core = desugar(parse(DEEP[shape]))
    assert evaluate_trace(core, frames) == reference_trace(core, frames)


def _guarded_always(bound, body):
    """``exists {a} @ pin (_, f) { always (f - C_FRAME >= bound implies body) }``,
    built directly."""
    guard = A.FrameConstraint("f", A.Cmp.GE, bound)
    return A.Exists(("a",), desugar(A.Freeze(None, "f", A.Always(A.Implies(guard, body)))))


PROB, AREA = parse("prob(a) > 0.5"), parse("area(bbox(a)) > 10")

# Constants given as values that have no literal of their own (numpy
# scalars, a float frame bound, infinities), each beside the same formula
# with plain constants; the frame guard's reach takes the summary path with
# ``prob`` and the scan with a box atom.
CONSTANTS = {
    "numpy reach, summary": (_guarded_always(np.int64(-2), PROB), _guarded_always(-2, PROB)),
    "numpy reach, scan": (_guarded_always(np.int64(-2), AREA), _guarded_always(-2, AREA)),
    "float reach, summary": (_guarded_always(-2.0, PROB), _guarded_always(-2, PROB)),
    "float reach, scan": (_guarded_always(np.float64(-2.0), AREA), _guarded_always(-2, AREA)),
    "infinite bound": (A.Exists(("a",), A.ProbCmpConst("a", A.Cmp.LT, np.float64(math.inf))),
                       A.Exists(("a",), A.ProbCmpConst("a", A.Cmp.LT, math.inf))),
    "numpy ratio": (A.Exists(("a",), A.ProbCmpRatio("a", A.Cmp.GE, np.float64(0.5), "a")),
                    A.Exists(("a",), A.ProbCmpRatio("a", A.Cmp.GE, 0.5, "a"))),
}


@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_constants_without_a_literal_agree_with_the_reference(name):
    # They compile to the plain formula's source, whose literals ``repr`` or
    # ``math`` spells, and run as the reference does.
    frames = [make_frame(i, i / 10, 100.0, 60.0,
                         [DetectedObject(1, "car", 0.9 if i % 3 else 0.1, BoundingBox(1, 1, 5, 5))])
              for i in range(6)]
    phi, plain = CONSTANTS[name]
    assert linecache.getlines(_compiled(phi)) == linecache.getlines(_compiled(plain))
    assert evaluate_trace(phi, frames) == reference_trace(phi, frames)


@pytest.mark.parametrize("body", [PROB, AREA], ids=["summary", "scan"])
def test_a_float_frame_bound_runs_as_the_reference(body):
    frames = list(generate_frames(GenConfig(frames=8, objects=3, seed=7)))
    phi = _guarded_always(-2.0, body)
    assert reference_trace(phi, frames) == [True] * 8
    assert evaluate_trace(phi, frames) == [True] * 8
    assert [verdict.value for verdict in run_monitor(phi, frames)] == [True] * 8


def test_a_monitor_runs_a_quantifier_built_with_a_list():
    listed = A.Exists(["a"], A.ProbCmpConst("a", A.Cmp.GT, 0.5))
    frames = list(generate_frames(GenConfig(frames=4, objects=3, seed=7)))
    assert [v.value for v in run_monitor(listed, frames)] == reference_trace(listed, frames)
