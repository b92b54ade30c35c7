"""The syntax-tree node base: construction, value semantics and walks."""

import math
from decimal import Decimal
from enum import Enum
from fractions import Fraction

import numpy as np
import pytest

from percemon.errors import ContractViolation
from percemon.stql import ast as A
from percemon.stql.parser import parse

# One specification per concrete node kind that contains a node of that kind.
EXAMPLES = {
    A.EmptySet: "nonempty(empty)",
    A.UniverseSet: "nonempty(universe)",
    A.BBoxOf: "nonempty(bbox(a))",
    A.Complement: "nonempty(~bbox(a))",
    A.SpatialUnion: "nonempty(bbox(a) | universe)",
    A.SpatialIntersect: "nonempty(bbox(a) & universe)",
    A.OffsetTerm: "lat(a, rm) < 795",
    A.TrueConst: "true",
    A.Not: "not true",
    A.Or: "true or true",
    A.And: "true and true",
    A.Implies: "true implies true",
    A.Next: "next true",
    A.Prev: "prev true",
    A.Always: "always true",
    A.Eventually: "eventually true",
    A.Once: "once true",
    A.Holds: "holds true",
    A.Until: "true until true",
    A.Since: "true since true",
    A.Exists: "exists {a, b} @ true",
    A.Forall: "forall {a} @ true",
    A.Freeze: "pin (t, _) { true }",
    A.TimeConstraint: "x - C_TIME <= 0.5",
    A.FrameConstraint: "f - C_FRAME > -6",
    A.ClassEqConst: 'class(a) == "car"',
    A.ClassEqVar: "class(a) == class(b)",
    A.ProbCmpConst: "prob(a) > 0.8",
    A.ProbCmpRatio: "prob(a) >= 0.5 * prob(b)",
    A.IdEq: "a == b",
    A.IdNeq: "a != b",
    A.SpatialExists: "nonempty(empty)",
    A.AreaCmpConst: "area(bbox(a)) > 3",
    A.AreaCmpRatio: "area(bbox(a) & bbox(b)) / area(bbox(a)) >= 0.3",
    A.EDCmp: "dist(a, ct, b, lm) < 40",
    A.OffsetCmpConst: "lat(a, rm) < 795",
    A.OffsetCmpRatio: "lon(a, tm) >= 2 * lat(b, bm)",
}


def _nodes(node):
    yield node
    for child in node.children():
        yield from _nodes(child)


def _concrete_kinds():
    abstract = (A.Node, A.Formula, A.SpatialTerm)
    return {kind for kind in vars(A).values()
            if isinstance(kind, type) and issubclass(kind, A.Node) and kind not in abstract}


def test_every_concrete_kind_has_an_example():
    assert set(EXAMPLES) == _concrete_kinds()


@pytest.mark.parametrize("kind", sorted(EXAMPLES, key=lambda kind: kind.__name__))
def test_identity_map_rebuilds_an_equal_node_with_its_location(kind):
    node = next(n for n in _nodes(parse(EXAMPLES[kind])) if type(n) is kind)
    assert node.loc is not None
    copy = node.map(lambda sub: sub)
    assert copy is not node
    assert type(copy) is kind
    assert copy == node and hash(copy) == hash(node)
    assert copy.loc == node.loc
    assert copy.children() == node.children()
    assert repr(copy) == repr(node)


def test_equality_ignores_location():
    located = parse("prob(a) > 0.8 until a == b")
    assert located.loc == A.Loc(1, 1)
    built = A.Until(A.ProbCmpConst("a", A.Cmp.GT, 0.8), A.IdEq("a", "b"))
    assert built.loc is None
    assert located == built and hash(located) == hash(built)
    assert A.TrueConst(loc=A.Loc(3, 4)) == A.TrueConst(loc=A.Loc(5, 6))


@pytest.mark.parametrize("left, right", [
    (A.Until, A.Since), (A.Since, A.Until), (A.And, A.Or), (A.Or, A.And),
    (A.Implies, A.Or), (A.IdEq, A.IdNeq), (A.IdNeq, A.IdEq), (A.ClassEqVar, A.IdEq),
    (A.Next, A.Prev), (A.Prev, A.Not), (A.Always, A.Eventually), (A.Once, A.Holds),
])
def test_kinds_with_equal_fields_differ(left, right):
    args = (("a", "b") if left in (A.IdEq, A.IdNeq, A.ClassEqVar)
            else (A.TrueConst(),) * len(left._fields))
    assert left(*args) != right(*args)
    assert left(*args) == left(*args)


def test_nodes_are_values():
    node = A.Freeze("t", None, A.TimeConstraint("t", A.Cmp.LE, 0.5))
    assert node == A.Freeze("t", None, A.TimeConstraint("t", A.Cmp.LE, 0.5))
    assert node != A.Freeze(None, "t", A.TimeConstraint("t", A.Cmp.LE, 0.5))
    assert node != A.Freeze("t", None, A.TimeConstraint("t", A.Cmp.LE, 0.6))
    assert len({node, A.Freeze("t", None, A.TimeConstraint("t", A.Cmp.LE, 0.5), loc=A.Loc(1, 1))}) == 1
    assert repr(node) == ("Freeze(time_var='t', frame_var=None, "
                          "child=TimeConstraint(var='t', cmp=<Cmp.LE: '<='>, bound=0.5))")
    assert node.children() == [node.child]
    assert vars(node) == {"time_var": "t", "frame_var": None, "child": node.child, "loc": None}


@pytest.mark.parametrize("build", [
    lambda: A.Not(),
    lambda: A.Not(A.TrueConst(), A.TrueConst()),
    lambda: A.TrueConst(A.TrueConst()),
    lambda: A.Until(A.TrueConst()),
    lambda: A.EDCmp("a", A.ReferencePoint.CT, "b", A.ReferencePoint.LM, A.Cmp.LT),
    lambda: A.Not(A.TrueConst(), A.Loc(1, 1)),
])
def test_wrong_field_count_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_nodes_are_immutable():
    node = parse("not true")
    with pytest.raises(AttributeError):
        node.child = A.TrueConst()
    with pytest.raises(AttributeError):
        node.loc = None
    with pytest.raises(AttributeError):
        node.extra = 1
    with pytest.raises(AttributeError):
        del node.child
    assert node == A.Not(A.TrueConst()) and node.loc == A.Loc(1, 1)


def test_map_applies_to_sub_nodes_only_and_keeps_location():
    node = parse("exists {a} @ area(bbox(a)) > 3")
    seen = []
    copy = node.child.map(lambda sub: seen.append(sub) or A.UniverseSet())
    assert seen == [node.child.term]
    assert copy == A.AreaCmpConst(A.UniverseSet(), A.Cmp.GT, 3.0)
    assert copy.loc == node.child.loc
    assert A.TrueConst(loc=A.Loc(2, 2)).map(lambda sub: 1 / 0).loc == A.Loc(2, 2)


# Per field kind that ``ast.FIELD_RULES`` normalizes: the values a node
# takes, each with what it stores, and values it refuses.
FIELD_CASES = {
    "float": (
        [(0.5, 0.5), (3, 3.0), (-0.0, -0.0), (np.float64(0.5), 0.5), (np.float32(0.25), 0.25),
         (np.int64(-2), -2.0), (Fraction(1, 4), 0.25), (math.inf, math.inf),
         (np.float64(-math.inf), -math.inf), (math.nan, math.nan), (10 ** 400, math.inf),
         (-10 ** 400, -math.inf)],
        [True, np.bool_(False), "0.5", b"1", None, 1j, Decimal("0.5"), [0.5]],
    ),
    "int": (
        [(-2, -2), (-2.0, -2), (0.0, 0), (np.int64(4), 4), (np.float64(3.0), 3),
         (10 ** 30, 10 ** 30), (Fraction(6, 3), 2)],
        [2.5, math.inf, math.nan, "2", True, False, np.bool_(True), None, (2,)],
    ),
    "tuple[str, ...]": (
        [(("a",), ("a",)), (["a", "b"], ("a", "b"))],
        ["a", "", (), [], ("a", 1), ["a", None], None, {"a"}],
    ),
}

RULED = sorted((kind.__name__, name, annotation) for kind in _concrete_kinds()
               for name, annotation in kind.__dict__.get("__annotations__", {}).items()
               if annotation in A.FIELD_RULES)


def _with(kind_name: str, field: str, value):
    """The example node of ``kind_name`` with ``field`` set to ``value``."""
    kind = getattr(A, kind_name)
    node = next(n for n in _nodes(parse(EXAMPLES[kind])) if type(n) is kind)
    return kind(*(value if name == field else getattr(node, name) for name in kind._fields))


def test_every_field_kind_of_the_rules_is_tested_and_used():
    assert set(FIELD_CASES) == set(A.FIELD_RULES) == {annotation for _, _, annotation in RULED}


@pytest.mark.parametrize("kind_name, field, annotation", RULED)
def test_a_node_stores_each_ruled_field_as_its_one_type(kind_name, field, annotation):
    taken, refused = FIELD_CASES[annotation]
    for given, stored in taken:
        value = getattr(_with(kind_name, field, given), field)
        assert (type(value), repr(value)) == (type(stored), repr(stored)), given
    for given in refused:
        with pytest.raises(ContractViolation, match=f"{kind_name}.{field} must be"):
            _with(kind_name, field, given)


def test_every_annotation_has_a_rule_or_names_a_node_an_enum_or_a_string():
    for kind in _concrete_kinds():
        for name, annotation in kind.__dict__.get("__annotations__", {}).items():
            named = getattr(A, annotation, None)
            assert (annotation in A.FIELD_RULES or annotation in ("str", "Optional[str]")
                    or isinstance(named, type) and issubclass(named, (A.Node, Enum))), \
                f"{kind.__name__}.{name}: {annotation}"
