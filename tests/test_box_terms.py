"""The box path against the ``Region`` algebra it stands in for.

A spatial term built only from ``bbox``, ``universe`` and ``&`` is compiled
to one ``spatial.box_meet`` call, its area to one product and ``nonempty`` to
a None test. These tests check that every such area and emptiness equals,
exactly, what ``from_box``, ``intersect``, ``area`` and ``is_empty`` give, on
random terms, on hostile boxes and against the pixel-grid oracle, and that
every other term still runs through the ``Region`` functions.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from percemon import spatial
from percemon.errors import ContractViolation
from percemon.evaluate import EMPTY_ENV, Env, EvalContext, describe_spatial, evaluate
from percemon.spatial import Universe, area, is_empty
from percemon.stql import ast as A
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse
from percemon.trace import BoundingBox, DetectedObject, make_frame

from randgen import random_box, random_term, rasterize, term_region


def _compiled_term(term):
    """The syntax tree of a ``randgen`` term, one variable per box leaf, and
    the objects that bind those variables."""
    objects = {}

    def build(t):
        kind = t[0]
        if kind == "box":
            name = f"v{len(objects)}"
            objects[name] = DetectedObject(len(objects) + 1, "car", 0.9, BoundingBox(*t[1]))
            return A.BBoxOf(name)
        if kind == "universe":
            return A.UniverseSet()
        if kind == "empty":
            return A.EmptySet()
        if kind == "comp":
            return A.Complement(build(t[1]))
        node = A.SpatialUnion if kind == "union" else A.SpatialIntersect
        return node(build(t[1]), build(t[2]))

    return build(term), objects


def _is_box_term(term) -> bool:
    kind = term[0]
    if kind == "inter":
        return _is_box_term(term[1]) and _is_box_term(term[2])
    return kind in ("box", "universe")


def _assert_paths_agree(term, width, height):
    """The compiled term's area and emptiness equal the Region algebra's
    exactly; returns that area."""
    universe = Universe(float(width), float(height))
    region = term_region(term, universe)
    expected_area, expected_nonempty = area(region), not is_empty(region)
    ast_term, objects = _compiled_term(term)
    ctx, env = EvalContext([make_frame(0, 0.0, width, height, [])], 0), Env(objects=objects)
    area_atom = A.AreaCmpConst(ast_term, A.Cmp.EQ, expected_area)
    assert describe_spatial(area_atom) == (
        "spatial: 1 box term, 0 region terms" if _is_box_term(term)
        else "spatial: 0 box terms, 1 region term")
    assert evaluate(area_atom, ctx, env) is True, (term, expected_area)
    assert evaluate(A.SpatialExists(ast_term), ctx, env) is expected_nonempty, term
    return expected_area


def _box_terms(rng, boxes, count):
    terms = []
    while len(terms) < count:
        term = random_term(rng, boxes, depth=4)
        if _is_box_term(term):
            terms.append(term)
    return terms


def test_random_box_terms_match_the_region_algebra_and_the_grid():
    rng = random.Random(0xB0C5)
    size = 120
    for _ in range(60):
        boxes = [random_box(rng, size) for _ in range(rng.randint(1, 5))]
        # Some boxes hang over an edge of the universe or lie outside it.
        boxes += [tuple(v + rng.choice((-size, -30, 30, size)) for v in random_box(rng, size))
                  for _ in range(rng.randint(0, 2))]
        for term in _box_terms(rng, boxes, 5):
            got = _assert_paths_agree(term, size, size)
            assert got == int(rasterize(term, size).sum())


def test_other_random_terms_keep_the_region_algebra():
    rng = random.Random(0x5EED)
    size = 60
    for _ in range(200):
        boxes = [random_box(rng, size) for _ in range(rng.randint(1, 4))]
        term = random_term(rng, boxes, depth=4)
        assert _assert_paths_agree(term, size, size) == int(rasterize(term, size).sum())


# Hostile boxes in a 100 x 80 universe.
HOSTILE = {
    "inside": (10, 10, 40, 30),
    "edge-contact": (40, 10, 60, 30),
    "corner-contact": (40, 30, 60, 50),
    "zero-width": (20, 5, 20, 60),
    "zero-height": (5, 20, 60, 20),
    "over-left-top": (-10, -5, 15, 12),
    "over-right-bottom": (90, 70, 130, 100),
    "outside-right": (110, 0, 120, 10),
    "outside-left-top": (-20, -20, -5, -5),
    "touching-right-edge": (100, 0, 110, 10),
    "covers-universe": (-1, -1, 101, 81),
    "fractional": (0.1, 0.2, 0.1 + 0.2 + 0.4, 1 / 3 + 10),
}


@pytest.mark.parametrize("first", sorted(HOSTILE))
@pytest.mark.parametrize("second", sorted(HOSTILE))
def test_hostile_box_pairs_match_the_region_algebra(first, second):
    a, b = ("box", HOSTILE[first]), ("box", HOSTILE[second])
    universe = ("universe",)
    for term in (a, ("inter", a, b), ("inter", universe, a), ("inter", a, ("inter", universe, b)),
                 ("inter", a, a)):
        _assert_paths_agree(term, 100, 80)


def test_edge_and_corner_contact_and_degenerate_boxes_are_empty():
    inside = ("box", HOSTILE["inside"])
    for name in ("edge-contact", "corner-contact"):
        assert _assert_paths_agree(("inter", inside, ("box", HOSTILE[name])), 100, 80) == 0
    for name in ("zero-width", "zero-height", "outside-right", "outside-left-top",
                 "touching-right-edge"):
        assert _assert_paths_agree(("box", HOSTILE[name]), 100, 80) == 0


def test_universe_alone_and_with_a_box():
    assert _assert_paths_agree(("universe",), 100, 80) == 8000
    assert _assert_paths_agree(("inter", ("universe",), ("box", HOSTILE["covers-universe"])),
                               100, 80) == 8000
    assert _assert_paths_agree(("inter", ("universe",), ("box", HOSTILE["over-left-top"])),
                               100, 80) == 15 * 12


coordinates = st.one_of(st.floats(-200, 300, allow_nan=False),
                        st.sampled_from([0.0, -0.0, 100.0, 80.0, 0.1, 0.2, 0.30000000000000004]))


@given(st.lists(st.tuples(coordinates, coordinates, coordinates, coordinates), min_size=1,
                max_size=4))
def test_float_box_meets_match_the_region_algebra(corners):
    boxes = [("box", (min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)))
             for x1, y1, x2, y2 in corners]
    term = boxes[0]
    for other in boxes[1:]:
        term = ("inter", term, other)
    _assert_paths_agree(term, 100, 80)


def test_box_terms_never_build_regions(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a box term built a Region")

    for name in ("from_box", "full_region", "intersect", "area", "is_empty"):
        monkeypatch.setattr(spatial, name, forbidden)
    _assert_paths_agree(("inter", ("box", HOSTILE["inside"]), ("box", HOSTILE["over-left-top"])),
                        100, 80)


@pytest.mark.parametrize("term", [
    ("union", ("box", HOSTILE["inside"]), ("box", HOSTILE["edge-contact"])),
    ("comp", ("box", HOSTILE["inside"])),
    ("inter", ("box", HOSTILE["inside"]), ("empty",)),
    ("inter", ("box", HOSTILE["inside"]), ("comp", ("box", HOSTILE["corner-contact"]))),
])
def test_terms_with_complement_union_or_empty_never_meet_boxes(monkeypatch, term):
    def forbidden(*args):
        raise AssertionError("a region term took the box path")

    monkeypatch.setattr(spatial, "box_meet", forbidden)
    _assert_paths_agree(term, 100, 80)


@pytest.mark.parametrize("text", [
    "nonempty(bbox(a) & bbox(b) & bbox(c))",
    "area(universe & bbox(a) & bbox(b)) > 1",
    "area(bbox(c)) / area(bbox(a) & bbox(b)) > 0.5",
])
def test_unbound_variable_of_a_box_term_names_the_first_missing_one(text):
    # A ratio reads its denominator first.
    phi = desugar(parse(text))
    frames = [make_frame(0, 0.0, 100.0, 80.0, [])]
    bound = {name: DetectedObject(i, "car", 0.9, BoundingBox(1, 1, 50, 50))
             for i, name in enumerate("abc", 1)}
    for missing, env in (("a", Env(objects={"c": bound["c"]})),
                         ("b", Env(objects={"a": bound["a"], "c": bound["c"]})),
                         ("a", EMPTY_ENV)):
        with pytest.raises(ContractViolation, match=f"object variable '{missing}' is unbound"):
            evaluate(phi, EvalContext(frames, 0), env)
