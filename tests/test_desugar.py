import random

from percemon.evaluate import Env, EvalContext, evaluate
from percemon.stql import ast as A
from percemon.stql.ast import is_core
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse
from percemon.trace import BoundingBox, DetectedObject, make_frame

from randgen import FormulaGen

P = A.ProbCmpConst("a", A.Cmp.GT, 0.5)


def test_always_definition():
    assert desugar(A.Always(P)) == A.Not(A.Until(A.TrueConst(), A.Not(P)))


def test_eventually_definition():
    assert desugar(A.Eventually(P)) == A.Until(A.TrueConst(), P)


def test_once_and_holds_definitions():
    assert desugar(A.Once(P)) == A.Since(A.TrueConst(), P)
    assert desugar(A.Holds(P)) == A.Not(A.Since(A.TrueConst(), A.Not(P)))


def test_forall_definition():
    assert desugar(A.Forall(("id",), P)) == A.Not(A.Exists(("id",), A.Not(P)))


def test_conjunction_definition():
    q = A.TrueConst()
    assert desugar(A.And(P, q)) == A.Not(A.Or(A.Not(P), A.Not(q)))


def test_implication_definition():
    q = A.TrueConst()
    assert desugar(A.Implies(P, q)) == A.Or(A.Not(P), q)


def test_spatial_intersection_de_morgan():
    # Spatial intersection is core: it survives desugaring, and its verdict
    # equals that of the explicit De Morgan form ~(~A | ~B).
    a, b = A.BBoxOf("x"), A.BBoxOf("y")
    before = A.SpatialExists(A.SpatialIntersect(a, b))
    assert desugar(before) == before
    de_morgan = A.SpatialExists(A.Complement(A.SpatialUnion(A.Complement(a), A.Complement(b))))
    overlap = make_frame(0, 0.0, 100.0, 100.0, [
        DetectedObject(1, "car", 0.9, BoundingBox(0, 0, 10, 10)),
        DetectedObject(2, "car", 0.9, BoundingBox(5, 5, 20, 20)),
        DetectedObject(3, "car", 0.9, BoundingBox(10, 0, 30, 10)),
    ])
    for x, y, expected in ((1, 2, True), (1, 3, False), (2, 3, True)):
        env = Env(objects={"x": overlap.objects[x], "y": overlap.objects[y]})
        ctx = EvalContext([overlap], 0)
        assert evaluate(desugar(before), ctx, env) is expected
        assert evaluate(de_morgan, ctx, env) is expected


def test_nested_sugar_in_area_ratio():
    phi = parse("area(bbox(a) & bbox(b)) / area(bbox(a)) >= 0.3")
    assert is_core(desugar(phi))


def test_desugar_idempotent_and_core_only():
    rng = random.Random(77)
    gen = FormulaGen(rng, max_depth=4, allow_sugar=True)
    for _ in range(150):
        phi = gen.formula()
        core = desugar(phi)
        assert is_core(core)
        assert desugar(core) == core
