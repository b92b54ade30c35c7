import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from percemon.errors import ContractViolation
from percemon.spatial import (
    Region,
    area,
    complement,
    empty_region,
    from_box,
    full_region,
    intersect,
    is_empty,
    union,
)
from percemon.trace import BoundingBox, DetectedObject, make_frame

from randgen import Universe, difference, random_box, random_term, rasterize, symmetric_difference_area, term_region

U = Universe(100.0, 100.0)


def box(x1, y1, x2, y2):
    return from_box(BoundingBox(x1, y1, x2, y2), U)


def test_from_box_area():
    assert area(box(0, 0, 10, 5)) == 50


def test_from_box_degenerate_is_empty():
    assert is_empty(box(10, 10, 10, 20))


def test_from_box_clips_to_universe():
    region = from_box(BoundingBox(-5, 0, 5, 5), U)
    assert region.rects == (BoundingBox(0, 0, 5, 5),)


def test_union_inclusion_exclusion_example():
    assert area(union(box(0, 0, 10, 10), box(5, 5, 15, 15))) == 175


def test_union_with_empty_is_identity():
    r = box(3, 4, 20, 30)
    assert symmetric_difference_area(union(r, empty_region(U)), r) == 0


def test_union_idempotent():
    r = box(3, 4, 20, 30)
    assert symmetric_difference_area(union(r, r), r) == 0


def test_complement_of_universe_is_empty():
    assert area(complement(full_region(U))) == 0


def test_complement_of_empty_is_universe():
    assert area(complement(empty_region(U))) == 100 * 100


def test_complement_of_box():
    assert area(complement(box(10, 10, 20, 20))) == 9900


def test_intersect_overlap():
    assert area(intersect(box(0, 0, 10, 10), box(5, 0, 15, 10))) == 50


def test_intersect_disjoint_is_empty():
    assert is_empty(intersect(box(0, 0, 10, 10), box(20, 20, 30, 30)))


def test_intersect_with_universe_is_identity():
    r = box(7, 9, 41, 77)
    assert symmetric_difference_area(intersect(r, full_region(U)), r) == 0


def test_edge_contact_intersection_is_empty():
    # Boxes sharing only an edge have a measure-zero intersection.
    assert is_empty(intersect(box(0, 0, 10, 10), box(10, 0, 20, 10)))


def test_area_of_empty():
    assert area(empty_region(U)) == 0


def test_area_single_box():
    assert area(box(10, 20, 30, 60)) == 800


def test_mixed_universes_rejected():
    other = full_region(Universe(50.0, 50.0))
    with pytest.raises(ContractViolation):
        union(box(0, 0, 10, 10), other)


def test_regions_of_frames_with_one_extent_combine():
    # A region's universe is its frame's image: two frames of one extent,
    # whatever else they hold, give regions that combine.
    first = make_frame(0, 0.0, 100.0, 80.0, [])
    second = make_frame(1, 0.1, 100.0, 80.0,
                        [DetectedObject(3, "car", 0.5, BoundingBox(0, 0, 5, 5))])
    a, b = from_box(BoundingBox(0, 0, 10, 10), first), from_box(BoundingBox(5, 0, 15, 10), second)
    assert area(union(a, b)) == 150
    assert area(intersect(a, b)) == 50
    assert area(union(a, full_region(second))) == 8000
    wider = make_frame(2, 0.2, 120.0, 80.0, [])
    for op in (union, intersect):
        with pytest.raises(ContractViolation, match="different universes: 100x80 vs 120x80"):
            op(a, from_box(BoundingBox(0, 0, 10, 10), wider))


def _disjointness_holds(region: Region) -> bool:
    rects = region.rects
    for i, a in enumerate(rects):
        for b in rects[i + 1:]:
            if (min(a.xmax, b.xmax) > max(a.xmin, b.xmin)
                    and min(a.ymax, b.ymax) > max(a.ymin, b.ymin)):
                return False
    return True


@st.composite
def int_boxes(draw, size=60):
    x1 = draw(st.integers(0, size - 1))
    x2 = draw(st.integers(x1 + 1, size))
    y1 = draw(st.integers(0, size - 1))
    y2 = draw(st.integers(y1 + 1, size))
    return BoundingBox(x1, y1, x2, y2)


SMALL = Universe(60.0, 60.0)


@st.composite
def regions(draw):
    out = empty_region(SMALL)
    for b in draw(st.lists(int_boxes(), max_size=4)):
        out = union(out, from_box(b, SMALL))
    return out


@given(regions(), regions())
def test_union_commutes(a, b):
    assert symmetric_difference_area(union(a, b), union(b, a)) == 0


@given(regions(), regions(), regions())
def test_union_associates(a, b, c):
    assert symmetric_difference_area(union(union(a, b), c), union(a, union(b, c))) == 0


@given(regions(), regions())
def test_intersect_commutes(a, b):
    assert symmetric_difference_area(intersect(a, b), intersect(b, a)) == 0


@given(regions(), regions())
def test_de_morgan(a, b):
    direct = intersect(a, b)
    via_complement = complement(union(complement(a), complement(b)))
    assert symmetric_difference_area(direct, via_complement) == 0


@given(regions())
def test_double_complement(a):
    back = complement(complement(a))
    assert area(back) == area(a)
    assert symmetric_difference_area(back, a) == 0


@given(regions(), regions())
def test_monotonicity_bounds(a, b):
    assert area(intersect(a, b)) <= min(area(a), area(b)) + 1e-9
    assert area(union(a, b)) <= area(a) + area(b) + 1e-9


@given(regions())
def test_disjoint_decomposition(a):
    assert _disjointness_holds(a)
    assert all(r.xmax > r.xmin and r.ymax > r.ymin for r in a.rects)


@given(regions(), regions())
def test_difference_partitions_area(a, b):
    assert area(difference(a, b)) + area(intersect(a, b)) == pytest.approx(area(a))


def test_random_terms_match_grid_oracle():
    rng = random.Random(987)
    size = 60
    universe = Universe(float(size), float(size))
    for _ in range(120):
        boxes = [random_box(rng, size) for _ in range(rng.randint(1, 4))]
        term = random_term(rng, boxes, depth=3)
        region = term_region(term, universe)
        grid = rasterize(term, size)
        assert area(region) == int(grid.sum())
        assert is_empty(region) == (not grid.any())
        assert _disjointness_holds(region)


# --- rectangles built without validation --------------------------------------

@st.composite
def float_boxes(draw):
    """Finite boxes that may stick out of SMALL on any side (exercises the clip)."""
    coord = st.floats(-20.0, 80.0, allow_nan=False, allow_infinity=False)
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return BoundingBox(x1, y1, x2, y2)


@st.composite
def region_terms(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return ("box", draw(float_boxes()))
    op = draw(st.sampled_from(("union", "intersect", "complement", "difference")))
    if op == "complement":
        return (op, draw(region_terms(depth - 1)))
    return (op, draw(region_terms(depth - 1)), draw(region_terms(depth - 1)))


_BINARY = {"union": union, "intersect": intersect, "difference": difference}


def _built_checked(term) -> Region:
    """Build the region of a term, checking the rectangles of every step."""
    if term[0] == "box":
        region = from_box(term[1], SMALL)
    elif term[0] == "complement":
        region = complement(_built_checked(term[1]))
    else:
        region = _BINARY[term[0]](_built_checked(term[1]), _built_checked(term[2]))
    for r in region.rects:
        coords = (r.xmin, r.ymin, r.xmax, r.ymax)
        assert all(type(v) is float for v in coords)
        assert r.xmax > r.xmin and r.ymax > r.ymin
        assert 0.0 <= r.xmin and r.xmax <= SMALL.width
        assert 0.0 <= r.ymin and r.ymax <= SMALL.height
    assert _disjointness_holds(region)
    return region


@given(region_terms())
def test_derived_rectangles_would_pass_validation(term):
    _built_checked(term)
