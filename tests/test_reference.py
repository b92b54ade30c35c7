"""The definitional reference (``reference.py``) pinned by hand-worked rows,
and the builtins and benchmark specs checked against it.

Each row is a formula over a few frames whose verdicts follow from the
conventions of ``percemon.evaluate`` by hand; the reference must give them,
and so must ``evaluate_trace``. The reference is then the oracle for the
builtins and ``holds_window.stql`` on random and generated streams, through
``evaluate_trace`` and the monitor.
"""

import random
from pathlib import Path

import pytest

from percemon.evaluate import evaluate_trace
from percemon.generator import GenConfig, generate_frames
from percemon.stql.builtins import resolve_spec
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse
from percemon.trace import BoundingBox, DetectedObject, make_frame

from randgen import random_trace
from reference import reference_trace
from test_guarded_summaries import _check_every_path

HOLDS_WINDOW = Path(__file__).resolve().parent.parent / "perfbench" / "specs" / "holds_window.stql"
BOX = BoundingBox(0.0, 0.0, 10.0, 10.0)


def _frames(*contents):
    """One frame per entry, each a list of (id, class, confidence, box)."""
    return [make_frame(i, i / 10, 100.0, 100.0,
                       [DetectedObject(oid, label, conf, box) for oid, label, conf, box in objects])
            for i, objects in enumerate(contents)]


def _car(object_id, confidence=0.9, box=BOX):
    return (object_id, "car", confidence, box)


# (name, spec, frames, history, horizon, verdicts)
ROWS = [
    ("next at the last frame", "next true", _frames([], [], []), None, None,
     [True, True, False]),
    ("prev at the first frame", "prev true", _frames([], [], []), None, None,
     [False, True, True]),
    ("exists on an empty frame", "exists {a} @ true",
     _frames([_car(1)], [], [_car(1)]), None, None, [True, False, True]),
    ("forall on an empty frame", "forall {a} @ prob(a) > 2",
     _frames([_car(1)], []), None, None, [False, True]),
    # 0 >= 1 * 0 would hold; a zero denominator makes the atom false.
    ("zero ratio denominator", "exists {a} @ prob(a) >= 1 * prob(a)",
     _frames([_car(1, 0.0)], [_car(1, 0.5)]), None, None, [False, True]),
    ("zero area denominator", "exists {a} @ area(bbox(a)) >= 0 * area(bbox(a) & empty)",
     _frames([_car(1)]), None, None, [False]),
    # The only witness is frame 0; a history of 2 keeps it in view up to frame 2.
    ("since witness outside a clipped window", "once (exists {a} @ prob(a) > 0.8)",
     _frames([_car(1, 0.9)], [_car(1, 0.1)], [_car(1, 0.1)], [_car(1, 0.1)], [_car(1, 0.1)]),
     2, 0, [True, True, True, False, False]),
    ("since witness in the whole trace", "once (exists {a} @ prob(a) > 0.8)",
     _frames([_car(1, 0.9)], [_car(1, 0.1)], [_car(1, 0.1)], [_car(1, 0.1)], [_car(1, 0.1)]),
     None, None, [True] * 5),
    # The witness at frame 2 is beyond a horizon of 1 from frame 0.
    ("until witness outside a clipped window", "eventually (exists {a} @ prob(a) > 0.8)",
     _frames([_car(1, 0.1)], [_car(1, 0.1)], [_car(1, 0.9)]), 0, 1, [False, True, True]),
    # The left operand must hold at the witness too.
    ("until left operand at the witness",
     "(exists {a} @ prob(a) > 0.5) until (exists {a} @ class(a) == \"pedestrian\")",
     _frames([_car(1, 0.9)], [(1, "pedestrian", 0.1, BOX)]), None, None, [False, False]),
    # Id 1 is gone from frame 1: its prob atom is false there, and so its negation holds.
    ("prob of an absent id", "exists {a} @ next prob(a) >= 0",
     _frames([_car(1)], [_car(2)]), None, None, [False, False]),
    ("negated prob of an absent id", "exists {a} @ next not prob(a) >= 0",
     _frames([_car(1)], [_car(2)]), None, None, [True, False]),
    # class and prob read id 1 in frame 1; the box atom reads the box captured at frame 0.
    ("class/prob re-resolve, box atoms read the snapshot",
     "exists {a} @ next (class(a) == \"pedestrian\" and prob(a) < 0.5 and lat(a, lm) < 5)",
     _frames([_car(1, 0.9, BoundingBox(0.0, 0.0, 10.0, 10.0))],
             [(1, "pedestrian", 0.2, BoundingBox(50.0, 50.0, 60.0, 60.0))]),
     None, None, [True, False]),
    ("box atom on the current snapshot",
     "exists {a} @ (class(a) == \"pedestrian\" and lat(a, lm) < 5)",
     _frames([_car(1, 0.9, BoundingBox(0.0, 0.0, 10.0, 10.0))],
             [(1, "pedestrian", 0.2, BoundingBox(50.0, 50.0, 60.0, 60.0))]),
     None, None, [False, False]),
    # The pinned frame index minus the current one.
    ("frame pin", "pin (_, f) { eventually (f - C_FRAME <= -2) }", _frames([], [], []),
     None, None, [True, False, False]),
]


@pytest.mark.parametrize("name, spec, frames, history, horizon, verdicts", ROWS,
                         ids=[row[0] for row in ROWS])
def test_hand_worked_rows(name, spec, frames, history, horizon, verdicts):
    core = desugar(parse(spec))
    assert reference_trace(core, frames, history, horizon) == verdicts
    assert evaluate_trace(core, frames, history, horizon) == verdicts


def test_the_reference_reads_the_core_only():
    with pytest.raises(TypeError, match="desugared core"):
        reference_trace(parse("always true"), _frames([]))


SPECS = ["builtin:phi1", "builtin:phi2", "probe:exists1", "probe:exists2", "probe:exists3",
         str(HOLDS_WINDOW)]


def _streams(seed):
    rng = random.Random(seed)
    randoms = [random_trace(rng, max_frames=20, max_objects=4, width=800.0, height=600.0)
               for _ in range(3)]
    generated = list(generate_frames(GenConfig(frames=40, objects=4, drop_prob=0.1,
                                               jump_prob=0.05, conf_dip_prob=0.2, seed=seed)))
    return randoms + [generated]


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("seed", range(2))
def test_builtins_and_bench_specs_agree_with_the_reference(spec, seed):
    _check_every_path(resolve_spec(spec)[1], _streams(seed))
