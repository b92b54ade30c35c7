import random
from functools import reduce

import numpy as np
import pytest

from percemon.stql import ast as A
from percemon.stql.builtins import phi1, phi2
from percemon.stql.parser import parse
from percemon.stql.printer import format_formula

from randgen import FormulaGen

# One entry per grammar production: core operators, every atom family,
# every spatial production, every reference point, and all sugar forms.
CORPUS = [
    "true",
    "not true",
    "true or true",
    "true and true",
    "true implies true",
    "next true",
    "prev true",
    "always true",
    "eventually true",
    "once true",
    "holds true",
    "true until true",
    "true since true",
    "exists {a} @ (prob(a) >= 0.5)",
    "forall {a, b} @ (a == b)",
    "pin (x, f) { x - C_TIME <= 0.5 and f - C_FRAME >= -2 }",
    "pin (_, f) { C_FRAME - f <= 3 }",
    "pin (x, _) { C_TIME - x < 1.5 }",
    "pin (_, _) { true }",
    'exists {a} @ (class(a) == "car")',
    "exists {a, b} @ (class(a) == class(b))",
    "exists {a} @ (prob(a) > 0.8)",
    "exists {a, b} @ (prob(a) >= 0.5 * prob(b))",
    "exists {a, b} @ (prob(a) / prob(b) >= 0.5)",
    "exists {a, b} @ (a == b and a != b)",
    "exists {a} @ (nonempty(bbox(a)))",
    "nonempty(universe)",
    "nonempty(empty)",
    "exists {a} @ (nonempty(~bbox(a)))",
    "exists {a, b} @ (nonempty(bbox(a) | bbox(b)))",
    "exists {a, b} @ (nonempty(bbox(a) & bbox(b)))",
    "area(universe) >= 100.0",
    "exists {a, b} @ (area(bbox(a)) >= 0.3 * area(bbox(b)))",
    "exists {a, b} @ (area(bbox(a) & bbox(b)) / area(bbox(a)) >= 0.3)",
    "exists {a, b} @ (dist(a, ct, b, lm) < 50)",
    "exists {a} @ (lat(a, lm) > 5 and lat(a, rm) < 795 and lon(a, tm) > 5 and lon(a, bm) < 595)",
    "exists {a, b} @ (lat(a, ct) >= 2 * lon(b, ct))",
    "(true until true) until true",
    "not (true and true)",
    "(exists {a} @ (prob(a) > 0.5)) and true",
]


@pytest.mark.parametrize("text", CORPUS)
def test_corpus_round_trip(text):
    phi = parse(text)
    assert parse(format_formula(phi)) == phi


def test_builtins_round_trip():
    for phi in (phi1(), phi2()):
        assert parse(format_formula(phi)) == phi


def test_format_examples():
    assert format_formula(A.Exists(("id1",), A.TrueConst())) == "exists {id1} @ (true)"
    assert format_formula(A.Freeze(None, "f", A.TrueConst())) == "pin (_, f) { true }"
    assert format_formula(A.ProbCmpConst("a", A.Cmp.GT, 0.8)) == "prob(a) > 0.8"


def test_numpy_constants_print_as_literals_that_parse_back():
    # A node stores plain numbers, so no numpy repr reaches the text.
    ct, lm = A.ReferencePoint.CT, A.ReferencePoint.LM
    a, b = A.BBoxOf("a"), A.BBoxOf("b")
    lat, lon = A.OffsetTerm(A.Axis.LAT, "a", ct), A.OffsetTerm(A.Axis.LON, "b", lm)
    atoms = [
        A.TimeConstraint("t", A.Cmp.LE, np.float64(0.5)),
        A.FrameConstraint("f", A.Cmp.GE, np.int64(-2)),
        A.FrameConstraint("f", A.Cmp.LE, np.float64(3.0)),
        A.ProbCmpConst("a", A.Cmp.GT, np.float64(0.5)),
        A.ProbCmpRatio("a", A.Cmp.GE, np.float32(0.25), "b"),
        A.AreaCmpConst(a, A.Cmp.GT, np.int64(10)),
        A.AreaCmpRatio(A.SpatialIntersect(a, b), A.Cmp.GE, np.float64(0.3), a),
        A.EDCmp("a", ct, "b", lm, A.Cmp.LT, np.float64(40.0)),
        A.OffsetCmpConst(lat, A.Cmp.LT, np.int64(795)),
        A.OffsetCmpRatio(lat, A.Cmp.GE, np.float64(2), lon),
    ]
    phi = A.Freeze("t", "f", A.Exists(["a", "b"], reduce(A.And, atoms)))
    text = format_formula(phi)
    assert "np." not in text
    assert parse(text) == phi


def test_quantifier_operand_is_parenthesized():
    phi = A.And(A.Exists(("a",), A.ProbCmpConst("a", A.Cmp.GT, 0.5)), A.TrueConst())
    text = format_formula(phi)
    assert parse(text) == phi  # would swallow "and true" without parens


def test_random_ast_round_trip_core():
    rng = random.Random(2401)
    gen = FormulaGen(rng, max_depth=4, allow_sugar=False)
    for _ in range(200):
        phi = gen.formula()
        assert parse(format_formula(phi)) == phi


def test_random_ast_round_trip_sugar():
    rng = random.Random(2402)
    gen = FormulaGen(rng, max_depth=4, allow_sugar=True)
    for _ in range(200):
        phi = gen.formula()
        assert parse(format_formula(phi)) == phi
