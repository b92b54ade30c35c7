import random

import pytest
from randgen import FormulaGen

from percemon.errors import SpecError
from percemon.evaluate import evaluate_trace
from percemon.monitor import MonitorConfig, run_monitor
from percemon.stql import ast as A
from percemon.stql.bindings import check_bindings
from percemon.stql.desugar import desugar
from percemon.stql.parser import MAX_NESTING, parse
from percemon.stql.printer import format_formula
from percemon.trace import BoundingBox, DetectedObject, make_frame


def test_exists_with_prob_atom():
    phi = parse("exists {id1} @ (prob(id1) > 0.8)")
    assert phi == A.Exists(("id1",), A.ProbCmpConst("id1", A.Cmp.GT, 0.8))


def test_pin_with_reversed_frame_constraint():
    # C_FRAME - f <= 3 normalizes to f - C_FRAME >= -3.
    phi = parse("pin (x, f) { C_FRAME - f <= 3 }")
    assert phi == A.Freeze("x", "f", A.FrameConstraint("f", A.Cmp.GE, -3))


def test_overlap_ratio_written_as_division():
    phi = parse("area(bbox(id1) & bbox(id2)) / area(bbox(id1)) >= 0.3")
    assert phi == A.AreaCmpRatio(
        A.SpatialIntersect(A.BBoxOf("id1"), A.BBoxOf("id2")),
        A.Cmp.GE,
        0.3,
        A.BBoxOf("id1"),
    )


def test_ratio_written_as_multiplication():
    assert parse("area(bbox(a)) >= 0.3 * area(bbox(b))") == A.AreaCmpRatio(
        A.BBoxOf("a"), A.Cmp.GE, 0.3, A.BBoxOf("b")
    )
    assert parse("prob(a) >= 0.5 * prob(b)") == A.ProbCmpRatio("a", A.Cmp.GE, 0.5, "b")
    assert parse("prob(a) / prob(b) >= 0.5") == A.ProbCmpRatio("a", A.Cmp.GE, 0.5, "b")


def test_time_constraint_both_orders():
    assert parse("x - C_TIME <= 0.5") == A.TimeConstraint("x", A.Cmp.LE, 0.5)
    assert parse("C_TIME - x < 1.5") == A.TimeConstraint("x", A.Cmp.GT, -1.5)


def test_negative_bounds():
    assert parse("f - C_FRAME > -6") == A.FrameConstraint("f", A.Cmp.GT, -6)
    assert parse("x - C_TIME > -0.5") == A.TimeConstraint("x", A.Cmp.GT, -0.5)


def test_id_comparisons():
    assert parse("id1 == id2") == A.IdEq("id1", "id2")
    assert parse("id1 != id2") == A.IdNeq("id1", "id2")


def test_class_comparisons():
    assert parse('class(a) == "car"') == A.ClassEqConst("a", "car")
    assert parse("class(a) == class(b)") == A.ClassEqVar("a", "b")
    assert parse('class(a) != "car"') == A.Not(A.ClassEqConst("a", "car"))


def test_string_escapes():
    assert parse(r'class(a) == "c\"x\\y"') == A.ClassEqConst("a", 'c"x\\y')


def test_dist_atom():
    phi = parse("dist(a, ct, b, lm) < 40")
    assert phi == A.EDCmp("a", A.ReferencePoint.CT, "b", A.ReferencePoint.LM, A.Cmp.LT, 40.0)


def test_offset_atoms():
    assert parse("lat(a, rm) < 795") == A.OffsetCmpConst(
        A.OffsetTerm(A.Axis.LAT, "a", A.ReferencePoint.RM), A.Cmp.LT, 795.0
    )
    assert parse("lon(a, tm) >= 2 * lat(b, bm)") == A.OffsetCmpRatio(
        A.OffsetTerm(A.Axis.LON, "a", A.ReferencePoint.TM),
        A.Cmp.GE,
        2.0,
        A.OffsetTerm(A.Axis.LAT, "b", A.ReferencePoint.BM),
    )


def test_spatial_grammar():
    phi = parse("nonempty(~bbox(a) & (empty | universe))")
    assert phi == A.SpatialExists(
        A.SpatialIntersect(
            A.Complement(A.BBoxOf("a")),
            A.SpatialUnion(A.EmptySet(), A.UniverseSet()),
        )
    )


def test_spatial_precedence_intersection_binds_tighter():
    phi = parse("nonempty(bbox(a) | bbox(b) & bbox(c))")
    assert phi == A.SpatialExists(
        A.SpatialUnion(A.BBoxOf("a"), A.SpatialIntersect(A.BBoxOf("b"), A.BBoxOf("c")))
    )


def test_boolean_precedence():
    assert parse("true and true or true") == A.Or(A.And(A.TrueConst(), A.TrueConst()), A.TrueConst())
    assert parse("true or true implies true") == A.Implies(
        A.Or(A.TrueConst(), A.TrueConst()), A.TrueConst()
    )
    assert parse("not true until true") == A.Until(A.Not(A.TrueConst()), A.TrueConst())
    assert parse("true until true until true") == A.Until(
        A.TrueConst(), A.Until(A.TrueConst(), A.TrueConst())
    )


def test_quantifier_body_extends_right():
    phi = parse("exists {a} @ prob(a) > 0.5 and true")
    assert phi == A.Exists(("a",), A.And(A.ProbCmpConst("a", A.Cmp.GT, 0.5), A.TrueConst()))


def test_pin_body_is_delimited():
    phi = parse("pin (x, _) { true } and true")
    assert phi == A.And(A.Freeze("x", None, A.TrueConst()), A.TrueConst())


def test_comments_and_whitespace():
    phi = parse(
        """
        # leading comment
        exists {a} @ (   # trailing comment
            prob(a) > 0.5
        )
        """
    )
    assert phi == A.Exists(("a",), A.ProbCmpConst("a", A.Cmp.GT, 0.5))


def _error_of(text):
    with pytest.raises(SpecError) as excinfo:
        parse(text)
    return excinfo.value


def test_error_carries_location():
    err = _error_of("exists {a} @\n  (prob(a) >< 0.5)")
    diag = err.diagnostics[0]
    assert diag.line == 2
    assert diag.column is not None


def test_unknown_function_reported():
    err = _error_of("probability(a) > 0.5")
    assert "unknown function" in err.diagnostics[0].message


def test_equality_rejected_for_prob():
    err = _error_of("prob(a) == 0.5")
    assert "==" in err.diagnostics[0].message or "class" in err.diagnostics[0].message


def test_float_frame_bound_rejected():
    err = _error_of("f - C_FRAME <= 2.5")
    assert "integer" in err.diagnostics[0].message


def test_frame_constraint_accepts_equality():
    assert parse("f - C_FRAME == 0") == A.FrameConstraint("f", A.Cmp.EQ, 0)


def test_unknown_reference_point():
    err = _error_of("lat(a, xx) > 1")
    assert "reference point" in err.diagnostics[0].message


def test_trailing_input_rejected():
    err = _error_of("true true")
    assert "trailing" in err.diagnostics[0].message


def test_empty_specification_rejected():
    err = _error_of("   # nothing here\n")
    assert "empty" in err.diagnostics[0].message


def test_unterminated_string():
    err = _error_of('class(a) == "car')
    assert err.diagnostics[0].kind == "lexical"


def test_scientific_notation():
    assert parse("prob(a) > 1e-06") == A.ProbCmpConst("a", A.Cmp.GT, 1e-06)


# --- nesting limit ------------------------------------------------------------

def _chain(op, n):
    return f" {op} ".join(["true"] * (n + 1))


# Each builds a specification nested exactly n levels deep, counting the
# formula and spatial-term nodes below the root (or the parentheses).
NESTING_SHAPES = {
    "not": lambda n: "not " * n + "true",
    "always": lambda n: "always " * n + "true",
    "parens": lambda n: "(" * n + "true" + ")" * n,
    "and-chain": lambda n: _chain("and", n),
    "or-chain": lambda n: _chain("or", n),
    "implies-chain": lambda n: _chain("implies", n),
    "until-chain": lambda n: _chain("until", n),
    "pin": lambda n: "".join(f"pin (_, f{i}) {{ " for i in range(n)) + "true" + " }" * n,
    "forall": lambda n: ("".join(f"forall {{a{i}}} @ " for i in range(n - 1))
                         + "nonempty(bbox(a0))"),
    "complement": lambda n: "exists {a} @ nonempty(" + "~" * (n - 2) + "bbox(a))",
    "union-chain": lambda n: "exists {a} @ nonempty(" + " | ".join(["bbox(a)"] * (n - 1)) + ")",
}


@pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
def test_nesting_at_the_limit_runs_end_to_end(shape):
    # Desugaring, compiling and evaluating all recurse per level; a formula
    # at the limit must still get through every stage.
    phi = parse(NESTING_SHAPES[shape](MAX_NESTING))
    assert check_bindings(phi) == []
    core = desugar(phi)
    format_formula(core)
    frames = [make_frame(i, i / 10, 100.0, 100.0,
                         [DetectedObject(1, "car", 0.9, BoundingBox(1, 1, 5, 5))])
              for i in range(3)]
    assert evaluate_trace(core, frames) == [True] * 3
    config = MonitorConfig(max_history=3, max_horizon=3)
    assert [v.value for v in run_monitor(phi, frames, config)] == [True] * 3


@pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
def test_nesting_past_the_limit_is_a_located_error(shape):
    diag = _error_of(NESTING_SHAPES[shape](MAX_NESTING + 1)).diagnostics[0]
    assert f"deeper than {MAX_NESTING}" in diag.message
    assert diag.line == 1 and diag.column is not None


# --- exact diagnostics --------------------------------------------------------

# One malformed specification per place the lexer or parser reports a
# problem, with its diagnostics exactly as ``check`` renders them.
GOLDEN_DIAGNOSTICS = [
    ('class(a) == "car', ['1:13: lexical: unterminated string literal']),
    ('class(a) == "car\\"', ['1:13: lexical: unterminated string literal']),
    ('prob(a) > $', ["1:11: lexical: unexpected character '$'"]),
    ('"open\n  $ prob(a) ! "x\\\\" "y', [
        '1:1: lexical: unterminated string literal',
        "2:3: lexical: unexpected character '$'",
        "2:13: lexical: unexpected character '!'",
        '2:21: lexical: unterminated string literal',
    ]),
    ('   # nothing here\n', ['2:1: syntax: empty specification']),
    ('true true', ["1:6: syntax: unexpected trailing input starting at 'true'"]),
    ("not " * 101 + "true", ['1:401: syntax: specification nests deeper than 100 levels']),
    (" or ".join(["true"] * 102), ['1:9: syntax: specification nests deeper than 100 levels']),
    ('true and', ["1:9: syntax: expected a formula, found 'end of input'"]),
    ('exists a', ["1:8: syntax: expected '{', found 'a'"]),
    ('exists {}', ["1:9: syntax: expected a variable name, found '}'"]),
    ('exists {a,}', ["1:11: syntax: expected a variable name, found '}'"]),
    ('exists {a b}', ["1:11: syntax: expected '}', found 'b'"]),
    ('exists {a} prob(a) > 1', ["1:12: syntax: expected '@', found 'prob'"]),
    ('pin x', ["1:5: syntax: expected '(', found 'x'"]),
    ('pin (1, f) { true }', ["1:6: syntax: expected a variable name or '_', found '1'"]),
    ('pin (x f) { true }', ["1:8: syntax: expected ',', found 'f'"]),
    ('pin (x, f { true }', ["1:11: syntax: expected ')', found '{'"]),
    ('pin (x, f) true', ["1:12: syntax: expected '{', found 'true'"]),
    ('pin (x, f) { true', ["1:18: syntax: expected '}', found 'end of input'"]),
    ('(true', ["1:6: syntax: expected ')', found 'end of input'"]),
    (')', ["1:1: syntax: expected a formula, found ')'"]),
    ('nonempty bbox(a)', ["1:10: syntax: expected '(', found 'bbox'"]),
    ('nonempty(bbox(a)', ["1:17: syntax: expected ')', found 'end of input'"]),
    ('prob a', ["1:6: syntax: expected '(', found 'a'"]),
    ('prob(1)', ["1:6: syntax: expected an object variable, found '1'"]),
    ('prob(a', ["1:7: syntax: expected ')', found 'end of input'"]),
    ('prob(a) 0.5', ['1:9: syntax: expected a comparison operator after probability']),
    ('prob(a) == 0.5', [
        '1:9: syntax: probability comparisons use <, <=, > or >= (== and != apply to classes and ids only)',
    ]),
    ('prob(a) > x', ["1:11: syntax: expected a number, found 'x'"]),
    ('prob(a) > -x', ["1:12: syntax: expected a number, found 'x'"]),
    ('prob(a) / area(bbox(b)) > 1', ["1:11: syntax: expected 'prob', found 'area'"]),
    ('prob(a) / prob(b) 2', ['1:19: syntax: expected a comparison operator after probability']),
    ('prob(a) > 2 * area(bbox(b))', ["1:15: syntax: expected 'prob', found 'area'"]),
    ('class a', ["1:7: syntax: expected '(', found 'a'"]),
    ('class(1)', ["1:7: syntax: expected an object variable, found '1'"]),
    ('class(a', ["1:8: syntax: expected ')', found 'end of input'"]),
    ('class(a) < "car"', ['1:10: syntax: class comparisons use == or !=']),
    ('class(a) == car', [
        "1:13: syntax: expected a quoted class label or 'class(...)', found 'car'",
    ]),
    ('class(a) == class b', ["1:19: syntax: expected '(', found 'b'"]),
    ('class(a) == class(1)', ["1:19: syntax: expected an object variable, found '1'"]),
    ('class(a) == class(b', ["1:20: syntax: expected ')', found 'end of input'"]),
    ('area bbox(a)', ["1:6: syntax: expected '(', found 'bbox'"]),
    ('area(bbox(a)', ["1:13: syntax: expected ')', found 'end of input'"]),
    ('area(bbox(a)) != 3', [
        '1:15: syntax: area comparisons use <, <=, > or >= (== and != apply to classes and ids only)',
    ]),
    ('area(bbox(a)) 3', ['1:15: syntax: expected a comparison operator after area']),
    ('area(bbox(a)) / prob(a) > 1', ["1:17: syntax: expected 'area', found 'prob'"]),
    ('area(bbox(a)) > 0.5 * bbox(b)', ["1:23: syntax: expected 'area', found 'bbox'"]),
    ('lat a', ["1:5: syntax: expected '(', found 'a'"]),
    ('lat(1, ct)', ["1:5: syntax: expected an object variable, found '1'"]),
    ('lat(a ct)', ["1:7: syntax: expected ',', found 'ct'"]),
    ('lat(a, 3)', ["1:8: syntax: expected a reference point (lm, rm, tm, bm or ct), found '3'"]),
    ('lat(a, xx) > 1', [
        "1:8: syntax: unknown reference point 'xx'; expected lm, rm, tm, bm or ct",
    ]),
    ('lat(a, ct > 1', ["1:11: syntax: expected ')', found '>'"]),
    ('lat(a, ct) == 1', [
        '1:12: syntax: offset comparisons use <, <=, > or >= (== and != apply to classes and ids only)',
    ]),
    ('lon(a, ct) 1', ['1:12: syntax: expected a comparison operator after offset']),
    ('lat(a, ct) / area(bbox(a)) > 1', ["1:14: syntax: expected 'lat' or 'lon'"]),
    ('lon(a, ct) > 2 * prob(b)', ["1:18: syntax: expected 'lat' or 'lon'"]),
    ('dist a', ["1:6: syntax: expected '(', found 'a'"]),
    ('dist(1, ct, b, lm) < 1', ["1:6: syntax: expected an object variable, found '1'"]),
    ('dist(a ct, b, lm) < 1', ["1:8: syntax: expected ',', found 'ct'"]),
    ('dist(a, ct b, lm) < 1', ["1:12: syntax: expected ',', found 'b'"]),
    ('dist(a, ct, 1, lm) < 1', ["1:13: syntax: expected an object variable, found '1'"]),
    ('dist(a, ct, b lm) < 1', ["1:15: syntax: expected ',', found 'lm'"]),
    ('dist(a, ct, b, lm < 1', ["1:19: syntax: expected ')', found '<'"]),
    ('dist(a, ct, b, lm) == 1', [
        '1:20: syntax: distance comparisons use <, <=, > or >= (== and != apply to classes and ids only)',
    ]),
    ('dist(a, ct, b, lm) 1', ['1:20: syntax: expected a comparison operator after distance']),
    ('C_TIME x', ["1:8: syntax: expected '-', found 'x'"]),
    ('C_FRAME - 1', ["1:11: syntax: expected a pinned variable, found '1'"]),
    ('C_TIME - x 1', ['1:12: syntax: expected a comparison operator after a time constraint']),
    ('C_FRAME - f 1', ['1:13: syntax: expected a comparison operator after a frame constraint']),
    ('C_FRAME - f <= 2.5', ['1:16: syntax: a frame constraint bound must be an integer, got 2.5']),
    ('C_FRAME - f <= 1e2', [
        '1:16: syntax: a frame constraint bound must be an integer, got 100.0',
    ]),
    ('x - C_TIME', ['1:11: syntax: expected a comparison operator after a time constraint']),
    ('x - C_TIME <= y', ["1:15: syntax: expected a number, found 'y'"]),
    ('f - C_FRAME <= 2.5', ['1:16: syntax: a frame constraint bound must be an integer, got 2.5']),
    ('f - x > 1', ["1:5: syntax: expected C_TIME or C_FRAME after '-'"]),
    ('a == 1', ["1:6: syntax: expected an object variable, found '1'"]),
    ('a != "b"', ['1:6: syntax: expected an object variable, found \'"b"\'']),
    ('a != ""', ['1:6: syntax: expected an object variable, found \'""\'']),
    ('"" and true', ['1:1: syntax: expected a formula, found \'""\'']),
    ('nonempty("")', ['1:10: syntax: expected a spatial term, found \'""\'']),
    ('true "b\\"c"', ['1:6: syntax: unexpected trailing input starting at \'"b\\\\"c"\'']),
    ('exists {a} @ class(a) == ""', ['1:26: syntax: class label must not be empty']),
    ('probability(a) > 0.5', ["1:1: syntax: unknown function 'probability'"]),
    ('a > b', ["1:3: syntax: expected '-', '==' or '!=' after variable 'a'"]),
    ('a', ["1:2: syntax: expected '-', '==' or '!=' after variable 'a'"]),
    ('in', ["1:3: syntax: expected '-', '==' or '!=' after variable 'in'"]),
    ('', ['1:1: syntax: empty specification']),
    ('nonempty(bbox 1)', ["1:15: syntax: expected '(', found '1'"]),
    ('nonempty(bbox(1))', ["1:15: syntax: expected an object variable, found '1'"]),
    ('nonempty(bbox(a)', ["1:17: syntax: expected ')', found 'end of input'"]),
    ('nonempty((bbox(a))', ["1:19: syntax: expected ')', found 'end of input'"]),
    ('nonempty(~)', ["1:11: syntax: expected a spatial term, found ')'"]),
    ('nonempty(bbox(a) | )', ["1:20: syntax: expected a spatial term, found ')'"]),
    ('nonempty(bbox(a) & 3)', ["1:20: syntax: expected a spatial term, found '3'"]),
    ("exists {a} @ nonempty(" + "~" * 100 + "bbox(a))", [
        '1:122: syntax: specification nests deeper than 100 levels',
    ]),
    ("exists {a} @ nonempty(" + " | ".join(["bbox(a)"] * 101) + ")", [
        '1:43: syntax: specification nests deeper than 100 levels',
    ]),
    ('exists {a} @\n  (prob(a) >< 0.5)', ["2:13: syntax: expected a number, found '<'"]),
    ('# c\n\n  exists {a} @ # c\n\tprob(a) >\r\n   =', ["5:4: lexical: unexpected character '='"]),
]


# Number literals must be finite, and only a decimal digit starts a number:
# a non-decimal numeric character such as ``²`` starts an identifier.
LITERAL_DIAGNOSTICS = [
    ("exists {a} @ prob(a) > 1e999", ["1:24: lexical: number out of range: '1e999'"]),
    ("prob(a) > 1" + "0" * 400, ["1:11: lexical: number out of range: '1" + "0" * 400 + "'"]),
    ("f - C_FRAME > -" + "0" * 5000, ["1:16: lexical: number out of range: '" + "0" * 5000 + "'"]),
    ("prob(a) > ²", ["1:11: syntax: expected a number, found '²'"]),
    ("prob(a) > 1²", ["1:12: syntax: unexpected trailing input starting at '²'"]),
]


@pytest.mark.parametrize("text, rendered", GOLDEN_DIAGNOSTICS + LITERAL_DIAGNOSTICS,
                         ids=[repr(text)[:40] for text, _ in GOLDEN_DIAGNOSTICS + LITERAL_DIAGNOSTICS])
def test_diagnostics_render_exactly(text, rendered):
    assert [d.render() for d in _error_of(text).diagnostics] == rendered


def test_numerals_of_other_scripts():
    assert parse("prob(a) > ٣") == A.ProbCmpConst("a", A.Cmp.GT, 3.0)
    assert parse("f - C_FRAME > ١٢") == A.FrameConstraint("f", A.Cmp.GT, 12)
    assert parse("½ == Ⅻ") == A.IdEq("½", "Ⅻ")


# Inserted by the mutations below: non-decimal numerics, a decimal digit of
# another script, a form feed, quotes, backslashes and line breaks.
MUTATION_CHARS = "²½Ⅻ٣\x0c\"\\\n#$(){}<>=!-*/~|&@,._0123456789eE+ a"


def test_mutated_specs_parse_or_give_located_diagnostics():
    rng = random.Random(1313)
    gen = FormulaGen(random.Random(1314), max_depth=4, allow_sugar=True)
    for _ in range(2000):
        text = format_formula(gen.formula())
        for _ in range(rng.randint(1, 4)):
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(MUTATION_CHARS) + text[at + rng.randint(0, 1):]
        try:
            parse(text)
        except SpecError as exc:
            assert all(d.line is not None and d.column is not None for d in exc.diagnostics), text
