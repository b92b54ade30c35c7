"""Exact region algebra over finite unions of axis-aligned rectangles.

A region's universe is its frame's image, [0, width] x [0, height]: the
operations read the extent from the frame the evaluator already holds.
Every operation keeps the representation as pairwise interior-disjoint,
non-degenerate rectangles, so area is a plain sum and emptiness means "no
rectangles". Regions are compared by area (Lebesgue measure): shared edges
and zero-width slivers count as empty. Coordinates are ordinary IEEE
doubles; the operations only ever take mins and maxes of input
coordinates, so no epsilon handling is needed.

Rectangles are plain ``BoundingBox`` values and nothing here checks them
again: ingest (``trace``) has checked every input box and image extent,
and a rectangle derived from checked boxes by mins and maxes is finite and
ordered.

A term built only from boxes, the universe and intersection is at most one
rectangle, so the evaluator computes it with ``meet_area``: the area of that
rectangle, or None when it has no area, with no rectangle built. The area is
one product of the same differences ``area`` sums, so both paths agree
exactly; the ``Region`` operations stay the reference for every other term.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ContractViolation
from .trace import BoundingBox, Frame


class Region:
    """A finite union of interior-disjoint rectangles inside the image of
    ``universe``, a frame of which only ``width`` and ``height`` are read.

    Construct regions through the module functions; they maintain the
    disjointness invariant. Two regions with different rectangle
    decompositions may denote the same point set, so compare regions by
    area of their symmetric difference, not by equality. A plain slotted
    class: the evaluator builds several per quantifier assignment.
    """

    __slots__ = ("universe", "rects")

    def __init__(self, universe: Frame, rects: tuple[BoundingBox, ...] = ()):
        self.universe = universe
        self.rects = rects

    def __repr__(self) -> str:
        return f"Region({self.universe!r}, {self.rects!r})"


def _subtract_box(piece: BoundingBox, cutter: BoundingBox) -> list[BoundingBox]:
    """Split ``piece`` minus ``cutter`` into at most four disjoint rectangles."""
    ox1 = max(piece.xmin, cutter.xmin)
    oy1 = max(piece.ymin, cutter.ymin)
    ox2 = min(piece.xmax, cutter.xmax)
    oy2 = min(piece.ymax, cutter.ymax)
    if ox1 >= ox2 or oy1 >= oy2:
        # No overlap of positive area; edge contact does not cut anything.
        return [piece]
    out = []
    if piece.xmin < ox1:
        out.append(BoundingBox(piece.xmin, piece.ymin, ox1, piece.ymax))
    if ox2 < piece.xmax:
        out.append(BoundingBox(ox2, piece.ymin, piece.xmax, piece.ymax))
    if piece.ymin < oy1:
        out.append(BoundingBox(ox1, piece.ymin, ox2, oy1))
    if oy2 < piece.ymax:
        out.append(BoundingBox(ox1, oy2, ox2, piece.ymax))
    return out


def _subtract_all(pieces: list[BoundingBox], cutters: tuple[BoundingBox, ...]) -> list[BoundingBox]:
    for cutter in cutters:
        pieces = [part for piece in pieces for part in _subtract_box(piece, cutter)]
        if not pieces:
            break
    return pieces


def _same_universe(a: Region, b: Region) -> Frame:
    u, v = a.universe, b.universe
    if u is not v and (u.width != v.width or u.height != v.height):
        raise ContractViolation(f"regions belong to different universes: "
                                f"{u.width:g}x{u.height:g} vs {v.width:g}x{v.height:g}")
    return u


def empty_region(frame: Frame) -> Region:
    return Region(frame, ())


def full_region(frame: Frame) -> Region:
    return Region(frame, (BoundingBox(0.0, 0.0, frame.width, frame.height),))


def from_box(box: BoundingBox, frame: Frame) -> Region:
    """The region of a single box, clipped into the frame's image.

    A box that is degenerate after clipping yields the empty region.
    """
    width, height = frame.width, frame.height
    if 0.0 <= box.xmin < box.xmax <= width and 0.0 <= box.ymin < box.ymax <= height:
        # Inside and non-degenerate: the clip is the box itself.
        return Region(frame, (box,))
    clipped = box.clip(width, height)
    if not (clipped.xmax > clipped.xmin and clipped.ymax > clipped.ymin):
        return empty_region(frame)
    return Region(frame, (clipped,))


def meet_area(boxes: Iterable[BoundingBox], frame: Frame) -> float | None:
    """The area of the intersection of ``boxes`` and the frame's image, or
    None when that intersection has no area.

    Equal to ``area`` of the universe intersected with ``from_box`` of each
    box: clamping into the image commutes with max and min, and a box that
    clips to nothing leaves a meet with no area. Edge contact is empty, as in
    ``intersect``. Emptiness is None, never a zero area: a meet of positive
    width and height whose product underflows to 0.0 is nonempty, as its
    ``Region`` is.
    """
    x1 = y1 = 0.0
    x2, y2 = frame.width, frame.height
    for box in boxes:
        if box.xmin > x1:
            x1 = box.xmin
        if box.ymin > y1:
            y1 = box.ymin
        if box.xmax < x2:
            x2 = box.xmax
        if box.ymax < y2:
            y2 = box.ymax
    if x1 < x2 and y1 < y2:
        return (x2 - x1) * (y2 - y1)
    return None


def union(a: Region, b: Region) -> Region:
    """Point-set union, re-decomposed into disjoint rectangles."""
    u = _same_universe(a, b)
    rects = list(a.rects)
    for box in b.rects:
        rects.extend(_subtract_all([box], a.rects))
    return Region(u, tuple(rects))


def intersect(a: Region, b: Region) -> Region:
    """Point-set intersection (equal, by area, to the De Morgan double complement).

    One rectangle per overlapping pair of input rectangles; pieces of
    disjoint inputs are themselves disjoint.
    """
    u = _same_universe(a, b)
    rects = []
    for pa in a.rects:
        for pb in b.rects:
            x1 = max(pa.xmin, pb.xmin)
            y1 = max(pa.ymin, pb.ymin)
            x2 = min(pa.xmax, pb.xmax)
            y2 = min(pa.ymax, pb.ymax)
            if x1 < x2 and y1 < y2:
                rects.append(BoundingBox(x1, y1, x2, y2))
    return Region(u, tuple(rects))


def complement(a: Region) -> Region:
    """The universe minus the region, as a point set."""
    u = a.universe
    pieces = _subtract_all([BoundingBox(0.0, 0.0, u.width, u.height)], a.rects)
    return Region(u, tuple(pieces))


def area(a: Region) -> float:
    """Total area in square pixels (exact sum over disjoint rectangles)."""
    return sum([(r.xmax - r.xmin) * (r.ymax - r.ymin) for r in a.rects])


def is_empty(a: Region) -> bool:
    """True if the point set has zero area."""
    return not a.rects
