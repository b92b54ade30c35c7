"""The generated program of a formula: what a debugger and a profiler see.

``evaluate`` compiles each formula to the source of one Python program.
Its functions are named after their node kind and compile order, the
source is registered with ``linecache`` so that tracebacks show the
generated lines, and an expression that would nest deeper than CPython's
parser allows is split into functions of its own. A program lives exactly
as long as its formula object, and one formula compiles to one source text.
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
from percemon.monitor import Monitor
from percemon.stql import ast as A
from percemon.stql.builtins import phi1, phi2
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse
from percemon.trace import BoundingBox, DetectedObject, make_frame

from reference import reference_trace

PROGRAM = "<percemon program "
HOLDS_WINDOW = Path(__file__).resolve().parent.parent / "perfbench" / "specs" / "holds_window.stql"
evaluate_module = importlib.import_module("percemon.evaluate")


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


def test_65_live_monitors_build_65_programs(monkeypatch):
    builds = []
    build = evaluate_module._build
    monkeypatch.setattr(evaluate_module, "_build",
                        lambda phi, reads: builds.append(phi) or build(phi, reads))
    frames = list(generate_frames(GenConfig(frames=10, objects=3, seed=7)))
    monitors = [Monitor(phi1()) for _ in range(65)]
    verdicts = [[] for _ in monitors]
    for frame in frames:
        for monitor, out in zip(monitors, verdicts):
            out += monitor.push_frame(frame)
    for monitor, out in zip(monitors, verdicts):
        out += monitor.flush()
    assert len(builds) == 65
    values = [[verdict.value for verdict in out] for out in verdicts]
    assert all(out == values[0] and len(out) == len(frames) for out in values)


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


# Constants that have no literal (numpy scalars, infinities) are passed to
# the program as values; the frame guard's reach takes the summary path with
# ``prob`` and the scan with a box atom.
CONSTANTS = {
    "numpy reach, summary": _guarded_always(np.int64(-2), parse("prob(a) > 0.5")),
    "numpy reach, scan": _guarded_always(np.int64(-2), parse("area(bbox(a)) > 10")),
    "infinite bound": A.Exists(("a",), A.ProbCmpConst("a", A.Cmp.LT, math.inf)),
    "numpy ratio": A.Exists(("a",), A.ProbCmpRatio("a", A.Cmp.GE, np.float64(0.5), "a")),
}


@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_constants_without_a_literal_agree_with_the_reference(name):
    frames = [make_frame(i, i / 10, 100.0, 60.0,
                         [DetectedObject(1, "car", 0.9 if i % 3 else 0.1, BoundingBox(1, 1, 5, 5))])
              for i in range(6)]
    phi = CONSTANTS[name]
    assert evaluate_trace(phi, frames) == reference_trace(phi, frames)
