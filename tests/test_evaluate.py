import math
import random

import pytest

from percemon.errors import ContractViolation
from percemon.evaluate import (
    EMPTY_ENV,
    Env,
    EvalContext,
    EvalStats,
    evaluate,
    evaluate_trace,
    quantifier_assignments,
)
from percemon.spatial import area, is_empty
from percemon.stql import ast as A
from percemon.stql.builtins import phi1
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse
from percemon.trace import BoundingBox, DetectedObject, make_frame

from randgen import FormulaGen, Universe, random_trace
from reference import region


def obj(oid, label="car", prob=0.9, box=(10, 20, 30, 60)):
    return DetectedObject(oid, label, prob, BoundingBox(*box))


def frame(number, *objects, width=100.0, height=100.0, t=None):
    return make_frame(number, number / 10 if t is None else t, width, height, objects)


def ctx(*frames, index=0):
    return EvalContext(list(frames), index)


def ev(text, context, env=EMPTY_ENV):
    return evaluate(desugar(parse(text)), context, env)


# --- constraint arithmetic --------------------------------------------------

def test_time_constraint_examples():
    env = Env(time_pins={"x": 1.0})
    assert evaluate(parse("x - C_TIME > -0.5"), ctx(frame(0, t=1.4)), env) is True
    env0 = Env(time_pins={"x": 1.0})
    assert evaluate(parse("x - C_TIME >= 0"), ctx(frame(0, t=1.0)), env0) is True
    env1 = Env(time_pins={"x": 0.0})
    assert evaluate(parse("x - C_TIME > -1.0"), ctx(frame(0, t=2.0)), env1) is False


def test_frame_constraint_examples():
    trace = [frame(i) for i in range(13)]
    env = Env(frame_pins={"f": 4})
    assert evaluate(parse("f - C_FRAME == 0"), EvalContext(trace, 4), env) is True
    assert evaluate(parse("f - C_FRAME > -6"), EvalContext(trace, 7), env) is True
    assert evaluate(parse("f - C_FRAME > -6"), EvalContext(trace, 12), env) is False


def test_freeze_pins_are_self_consistent():
    text = "pin (x, f) { x - C_TIME >= 0 and x - C_TIME <= 0 and f - C_FRAME == 0 }"
    trace = [frame(i) for i in range(5)]
    for i in range(5):
        assert evaluate(desugar(parse(text)), EvalContext(trace, i)) is True


# --- object atoms -------------------------------------------------------------

def test_id_equality_uses_captured_ids():
    seven = obj(7)
    env = Env(objects={"id1": seven, "id2": seven})
    assert evaluate(parse("id1 == id2"), ctx(frame(0, seven)), env) is True
    other = Env(objects={"id1": seven, "id2": obj(8)})
    assert evaluate(parse("id1 != id2"), ctx(frame(0, seven)), other) is True


def test_class_lookup_in_current_frame():
    pedestrian = obj(7, label="pedestrian")
    env = Env(objects={"id1": pedestrian})
    assert evaluate(parse('class(id1) == "car"'), ctx(frame(0, pedestrian)), env) is False
    assert evaluate(parse('class(id1) == "pedestrian"'), ctx(frame(0, pedestrian)), env) is True


def test_missing_object_makes_atom_false():
    seven = obj(7)
    empty = frame(0)  # object 7 absent from the current frame
    env = Env(objects={"id1": seven})
    assert evaluate(parse("prob(id1) > 0"), ctx(empty), env) is False
    # ... and its negation true
    assert evaluate(desugar(parse("not prob(id1) > 0")), ctx(empty), env) is True


def test_prob_tracks_object_through_frames():
    env = Env(objects={"id1": obj(7, prob=0.9)})
    later = frame(1, obj(7, prob=0.4))
    assert evaluate(parse("prob(id1) > 0.8"), ctx(later), env) is False
    assert evaluate(parse("prob(id1) > 0.3"), ctx(later), env) is True


def test_prob_ratio():
    a, b = obj(1, prob=0.9), obj(2, prob=0.3)
    env = Env(objects={"u": a, "v": b})
    c = ctx(frame(0, a, b))
    assert evaluate(parse("prob(u) >= 2 * prob(v)"), c, env) is True
    assert evaluate(parse("prob(u) >= 4 * prob(v)"), c, env) is False


def test_zero_denominator_ratio_is_false_and_warns(caplog):
    a, b = obj(1, prob=0.9), obj(2, prob=0.0)
    env = Env(objects={"u": a, "v": b})
    with caplog.at_level("DEBUG", logger="percemon.evaluate"):
        assert evaluate(parse("prob(u) >= 0.1 * prob(v)"), ctx(frame(0, a, b)), env) is False
    assert any("denominator" in r.message for r in caplog.records)


def test_zero_denominator_warning_not_repeated_at_warning_level(caplog):
    a, b = obj(1, prob=0.9), obj(2, prob=0.0)
    env = Env(objects={"u": a, "v": b})
    phi = parse("prob(u) >= 0.1 * prob(v)")
    with caplog.at_level("WARNING", logger="percemon.evaluate"):
        for _ in range(5):
            evaluate(phi, ctx(frame(0, a, b)), env)
    repeats = [r for r in caplog.records if "prob(v)" in r.message]
    assert len(repeats) <= 1


def test_each_compiled_formula_warns_once_on_its_own(caplog):
    # Warn-once state belongs to the compiled formula, not to the process.
    a, b = obj(1, prob=0.9), obj(2, prob=0.0)
    env = Env(objects={"u": a, "v": b})
    with caplog.at_level("WARNING", logger="percemon.evaluate"):
        for _ in range(2):
            phi = parse("prob(u) >= 0.1 * prob(v)")
            for _ in range(3):
                evaluate(phi, ctx(frame(0, a, b)), env)
    warnings = [r for r in caplog.records if "prob(v)" in r.message]
    assert len(warnings) == 2


# --- reference points, offsets, distances ------------------------------------

@pytest.mark.parametrize("ref, box, point", [
    ("lm", (10, 20, 30, 60), (10, 40)),
    ("rm", (10, 20, 30, 60), (30, 40)),
    ("tm", (0, 0, 10, 10), (5, 0)),
    ("bm", (10, 20, 30, 60), (20, 60)),
    ("ct", (10, 20, 30, 60), (20, 40)),
])
def test_lat_and_lon_read_each_reference_point(ref, box, point):
    # Each coordinate is pinned from both sides through the compiled atom.
    tracked = obj(1, box=box)
    env, c = Env(objects={"a": tracked}), ctx(frame(0, tracked))
    for axis, value in zip(("lat", "lon"), point):
        assert ev(f"{axis}(a, {ref}) >= {value}", c, env) is True
        assert ev(f"{axis}(a, {ref}) > {value}", c, env) is False


def test_offsets_are_image_coordinates():
    tracked = obj(1, box=(10, 20, 30, 60))
    env = Env(objects={"a": tracked})
    c = ctx(frame(0, tracked))
    assert evaluate(parse("lat(a, lm) >= 10"), c, env) is True
    assert evaluate(parse("lat(a, lm) > 10"), c, env) is False
    assert evaluate(parse("lon(a, tm) >= 20"), c, env) is True
    assert evaluate(parse("lat(a, rm) >= 30"), c, env) is True


def test_margin_check_example():
    # c1..c4 = (5, 595, 5, 795) on an 800x600 frame, box [10,20,30,60]
    tracked = obj(1, box=(10, 20, 30, 60))
    env = Env(objects={"id1": tracked})
    c = EvalContext([frame(0, tracked, width=800.0, height=600.0)], 0)
    text = "lon(id1, tm) > 5 and lon(id1, bm) < 595 and lat(id1, lm) > 5 and lat(id1, rm) < 795"
    assert evaluate(desugar(parse(text)), c, env) is True


def test_euclidean_distance():
    a = obj(1, box=(0, 0, 10, 10))
    b = obj(2, box=(10, 10, 20, 20))
    env = Env(objects={"u": a, "v": b})
    c = ctx(frame(0, a, b))
    assert evaluate(parse(f"dist(u, ct, v, ct) <= {math.sqrt(200)}"), c, env) is True
    assert evaluate(parse("dist(u, ct, v, ct) < 14.142"), c, env) is False
    assert evaluate(parse("dist(u, ct, u, ct) <= 0"), c, env) is True
    tiny = obj(3, box=(0, 0, 2, 2))
    env2 = Env(objects={"u": tiny, "v": tiny})
    assert evaluate(parse("dist(u, lm, v, rm) >= 2"), ctx(frame(0, tiny)), env2) is True


# --- quantifiers --------------------------------------------------------------

def test_quantifier_assignment_enumeration():
    # Ascending id order whatever order the detections came in.
    for f in (frame(0, obj(3), obj(7)), frame(0, obj(7), obj(3))):
        single = list(quantifier_assignments(["v"], f))
        assert [a[0].object_id for a in single] == [3, 7]
        double = list(quantifier_assignments(["v", "w"], f))
        assert [(a[0].object_id, a[1].object_id) for a in double] == [
            (3, 3), (3, 7), (7, 3), (7, 7)
        ]


def test_exists_on_empty_frame_is_false():
    assert ev("exists {a} @ (prob(a) > 0.5)", ctx(frame(0))) is False


def test_exists_enumerates_the_whole_domain():
    trace = [frame(0, obj(1), obj(2), obj(3))]
    stats = EvalStats()
    phi = desugar(parse("exists {a, b} @ (prob(a) > 1)"))
    assert evaluate(phi, EvalContext(trace, 0, stats)) is False
    assert stats.assignments == 9
    # ... even when the first assignment already satisfies the body
    stats = EvalStats()
    sat = desugar(parse("exists {a} @ (prob(a) > 0)"))
    assert evaluate(sat, EvalContext(trace, 0, stats)) is True
    assert stats.assignments == 3


def test_forall_exists_duality():
    rng = random.Random(555)
    gen = FormulaGen(rng, max_depth=2, allow_sugar=False)
    for _ in range(60):
        trace = random_trace(rng, max_frames=6, max_objects=3)
        body = gen.formula(scope=(("v",), (), ()))
        forall = desugar(A.Forall(("v",), body))
        neg_exists = desugar(A.Not(A.Exists(("v",), A.Not(body))))
        for i in range(len(trace)):
            c = EvalContext(trace, i)
            assert evaluate(forall, c) == evaluate(neg_exists, c)


# --- spatial atoms ------------------------------------------------------------

def test_universe_area():
    c = ctx(frame(0))
    assert area(region(A.UniverseSet(), Universe(100, 100), {})) == 100 * 100
    assert evaluate(A.AreaCmpConst(A.UniverseSet(), A.Cmp.EQ, 100 * 100), c) is True
    assert evaluate(A.AreaCmpConst(A.UniverseSet(), A.Cmp.LT, 100 * 100), c) is False


def test_area_of_a_box_complement():
    tracked = obj(1, box=(10, 10, 20, 20))
    env = Env(objects={"a": tracked})
    term = A.Complement(A.BBoxOf("a"))
    assert area(region(term, Universe(100, 100), {("object", "a"): tracked})) == 9900
    c = ctx(frame(0, tracked))
    assert evaluate(A.AreaCmpConst(term, A.Cmp.EQ, 9900), c, env) is True
    assert evaluate(A.AreaCmpConst(term, A.Cmp.GT, 9900), c, env) is False
    assert evaluate(A.SpatialExists(term), c, env) is True


def test_intersection_area():
    a = obj(1, box=(0, 0, 10, 10))
    b = obj(2, box=(5, 0, 15, 10))
    env = Env(objects={"u": a, "v": b})
    phi = desugar(parse("area(bbox(u) & bbox(v)) >= 50"))
    assert evaluate(phi, ctx(frame(0, a, b)), env) is True
    phi_strict = desugar(parse("area(bbox(u) & bbox(v)) > 50"))
    assert evaluate(phi_strict, ctx(frame(0, a, b)), env) is False


def test_spatial_exists_matches_emptiness():
    rng = random.Random(31415)
    gen = FormulaGen(rng, max_depth=2)
    for _ in range(80):
        trace = random_trace(rng, max_frames=3, max_objects=3)
        f = trace[0]
        if not f.objects:
            continue
        term = gen._spatial(tuple(["v"]))
        first = f.objects[sorted(f.objects)[0]]
        phi = desugar(A.SpatialExists(term))
        denoted = region(phi.term, Universe(f.width, f.height), {("object", "v"): first})
        c = EvalContext(trace, 0)
        assert evaluate(phi, c, Env(objects={"v": first})) == (not is_empty(denoted))


# --- temporal semantics -------------------------------------------------------

def test_next_and_prev_at_bounds():
    trace = [frame(0), frame(1)]
    assert evaluate(parse("next true"), EvalContext(trace, 1)) is False
    assert evaluate(parse("next true"), EvalContext(trace, 0)) is True
    assert evaluate(parse("prev true"), EvalContext(trace, 0)) is False
    assert evaluate(parse("prev true"), EvalContext(trace, 1)) is True


def test_until_requires_lhs_at_witness():
    # The defining disjunction demands the left operand through the witness
    # frame inclusive, so a true rhs at the start is not enough on its own.
    trace = [frame(0, obj(1, prob=0.9)), frame(1, obj(1, prob=0.9))]
    lhs = A.ProbCmpConst("v", A.Cmp.GT, 2.0)  # always false
    until = A.Exists(("v",), A.Until(lhs, A.TrueConst()))
    assert evaluate(desugar(until), EvalContext(trace, 0)) is False


def test_until_and_since_unrolling():
    rng = random.Random(999)
    gen = FormulaGen(rng, max_depth=2, allow_sugar=False)
    for _ in range(80):
        trace = random_trace(rng, max_frames=8, max_objects=3)
        lhs, rhs = gen.formula(), gen.formula()
        until = A.Until(lhs, rhs)
        since = A.Since(lhs, rhs)
        n = len(trace)
        for i in range(n):
            c = EvalContext(trace, i)
            direct = evaluate(until, c)
            unrolled = evaluate(lhs, c) and (
                evaluate(rhs, c) or (i + 1 < n and evaluate(until, c.at(i + 1)))
            )
            assert direct == unrolled
            direct_s = evaluate(since, c)
            unrolled_s = evaluate(lhs, c) and (
                evaluate(rhs, c) or (i > 0 and evaluate(since, c.at(i - 1)))
            )
            assert direct_s == unrolled_s


def test_since_mirrors_until_on_reversed_trace():
    # Holds for present-state operands: nested temporal operators and pins
    # would themselves need mirroring.
    rng = random.Random(31337)
    gen = FormulaGen(rng, max_depth=2, allow_sugar=False, allow_freeze=False,
                     allow_temporal=False)
    for _ in range(60):
        trace = random_trace(rng, max_frames=8, max_objects=3)
        lhs, rhs = gen.formula(), gen.formula()
        n = len(trace)
        mirrored = list(reversed(trace))
        for i in range(n):
            forward = evaluate(A.Since(lhs, rhs), EvalContext(trace, i))
            backward = evaluate(A.Until(lhs, rhs), EvalContext(mirrored, n - 1 - i))
            assert forward == backward


def test_propositional_laws_hold_pointwise():
    rng = random.Random(2718)
    gen = FormulaGen(rng, max_depth=3, allow_sugar=False)
    for _ in range(60):
        trace = random_trace(rng, max_frames=6, max_objects=3)
        phi, psi = gen.formula(), gen.formula()
        for i in range(len(trace)):
            c = EvalContext(trace, i)
            assert evaluate(A.Not(A.Not(phi)), c) == evaluate(phi, c)
            assert evaluate(A.Or(phi, psi), c) == evaluate(A.Or(psi, phi), c)


# --- worked persistence example ----------------------------------------------

def test_consistent_detection_fails_when_object_is_new():
    # Frame 1 contains a confident, centered object that frame 0 lacks.
    appearing = obj(9, prob=0.95, box=(300, 200, 380, 280))
    trace = [
        frame(0, width=800.0, height=600.0),
        frame(1, appearing, width=800.0, height=600.0),
    ]
    verdicts = evaluate_trace(desugar(phi1()), trace)
    assert verdicts == [True, False]


def test_sugar_rejected_by_evaluator():
    with pytest.raises(ContractViolation):
        evaluate(parse("true and true"), ctx(frame(0)))


def test_unbound_variable_is_contract_violation():
    with pytest.raises(ContractViolation):
        evaluate(parse("prob(ghost) > 0"), ctx(frame(0, obj(1))))


# Each read here is never reached: bindings are checked before evaluation.
@pytest.mark.parametrize("text, context, env, message", [
    ("prev prob(ghost) > 0", ctx(frame(0, obj(1))), EMPTY_ENV, "object variable 'ghost'"),
    ("exists {a} @ prob(ghost) > 0", ctx(frame(0)), EMPTY_ENV, "object variable 'ghost'"),
    ("next (t - C_TIME <= 1)", ctx(frame(0)), EMPTY_ENV, "time variable 't'"),
    ("exists {a} @ f - C_FRAME == 0", ctx(frame(0)), EMPTY_ENV, "frame variable 'f'"),
    # A name bound in another kind is unbound as the kind it is read as.
    ("exists {b} @ a - C_TIME <= 1", ctx(frame(0)), Env(objects={"a": obj(1)}),
     "time variable 'a'"),
    # The first offending variable in name order.
    ("prev (z == y and x - C_FRAME > 0)", ctx(frame(0)), Env(objects={"y": obj(1)}),
     "frame variable 'x'"),
])
def test_unbound_read_raises_before_any_frame_is_evaluated(text, context, env, message):
    with pytest.raises(ContractViolation, match=f"{message} is unbound; run check_bindings first"):
        ev(text, context, env)


def test_a_spatial_atom_with_an_unbound_box_raises():
    term = A.SpatialIntersect(A.BBoxOf("b"), A.Complement(A.BBoxOf("a")))
    with pytest.raises(ContractViolation, match="object variable 'a' is unbound"):
        evaluate(A.SpatialExists(term), ctx(frame(0, obj(1))), Env(objects={"b": obj(1)}))
    with pytest.raises(ContractViolation, match="object variable 'a' is unbound"):
        evaluate(A.AreaCmpConst(A.BBoxOf("a"), A.Cmp.GT, 0), ctx(frame(0)), EMPTY_ENV)


def test_windowed_evaluation_restricts_visibility():
    trace = [frame(i, obj(1)) for i in range(5)]
    phi = desugar(parse("prev prev true"))
    full = evaluate_trace(phi, trace)
    windowed = evaluate_trace(phi, trace, history=1, horizon=0)
    assert full == [False, False, True, True, True]
    assert windowed == [False] * 5  # one frame of history hides the second prev
