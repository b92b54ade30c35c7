"""The syntax-tree node base: construction, value semantics and walks."""

import pytest

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
