"""Seeded random generators shared by property and acceptance tests.

The formula generator produces closed formulas by construction: every
atom draws only variables bound by an enclosing quantifier or pin, and
binders always introduce fresh names. Budgets keep the worst-case cost of
one evaluation bounded (object variables and temporal-binary operators
blow up evaluation the fastest).
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from percemon.spatial import Universe, area, from_box, full_region, empty_region, union, intersect, complement
from percemon.stql import ast as A
from percemon.trace import BoundingBox, DetectedObject, Frame, make_frame

CLASSES = ("car", "pedestrian", "cyclist")
ORDER_CMPS = (A.Cmp.LT, A.Cmp.LE, A.Cmp.GT, A.Cmp.GE)
ALL_CMPS = tuple(A.Cmp)
REFS = tuple(A.ReferencePoint)


class FormulaGen:
    """Random closed formulas over the full grammar (core or sugared)."""

    def __init__(
        self,
        rng: random.Random,
        max_depth: int = 4,
        allow_sugar: bool = False,
        allow_freeze: bool = True,
        allow_temporal: bool = True,
        max_object_vars: int = 3,
        max_temporal: int = 2,
    ):
        self.rng = rng
        self.max_depth = max_depth
        self.allow_sugar = allow_sugar
        self.allow_freeze = allow_freeze
        self.allow_temporal = allow_temporal
        self.max_object_vars = max_object_vars
        self.max_temporal = max_temporal

    def formula(self, scope: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]] = ((), (), ())) -> A.Formula:
        self._fresh = 0
        self._obj_budget = self.max_object_vars - len(scope[0])
        self._temporal_budget = self.max_temporal
        return self._node(self.max_depth, scope)

    def _name(self, prefix: str) -> str:
        self._fresh += 1
        return f"{prefix}{self._fresh}"

    def _node(self, depth: int, scope) -> A.Formula:
        rng = self.rng
        obj_vars, time_vars, frame_vars = scope
        if depth <= 1 or rng.random() < 0.3:
            return self._atom(scope)

        ops = ["not", "or"]
        if self.allow_temporal:
            ops += ["next", "prev"]
        ops += ["exists"] * (3 if not obj_vars else 1) if self._obj_budget > 0 else []
        if self.allow_freeze:
            ops.append("freeze")
        if self.allow_temporal and self._temporal_budget > 0:
            ops += ["until", "since"]
        if self.allow_sugar:
            ops += ["and", "implies"]
            if self._obj_budget > 0:
                ops.append("forall")
            if self.allow_temporal and self._temporal_budget > 0:
                ops += ["always", "eventually", "once", "holds"]
        op = rng.choice(ops)

        if op == "not":
            return A.Not(self._node(depth - 1, scope))
        if op == "or":
            return A.Or(self._node(depth - 1, scope), self._node(depth - 1, scope))
        if op == "and":
            return A.And(self._node(depth - 1, scope), self._node(depth - 1, scope))
        if op == "implies":
            return A.Implies(self._node(depth - 1, scope), self._node(depth - 1, scope))
        if op == "next":
            return A.Next(self._node(depth - 1, scope))
        if op == "prev":
            return A.Prev(self._node(depth - 1, scope))
        if op in ("until", "since"):
            self._temporal_budget -= 1
            lhs = self._node(depth - 1, scope)
            rhs = self._node(depth - 1, scope)
            return A.Until(lhs, rhs) if op == "until" else A.Since(lhs, rhs)
        if op in ("always", "eventually", "once", "holds"):
            self._temporal_budget -= 1
            ctor = {"always": A.Always, "eventually": A.Eventually,
                    "once": A.Once, "holds": A.Holds}[op]
            return ctor(self._node(depth - 1, scope))
        if op in ("exists", "forall"):
            count = 2 if self._obj_budget >= 2 and rng.random() < 0.2 else 1
            self._obj_budget -= count
            names = tuple(self._name("o") for _ in range(count))
            inner = (obj_vars + names, time_vars, frame_vars)
            ctor = A.Exists if op == "exists" else A.Forall
            return ctor(names, self._node(depth - 1, inner))
        # freeze
        time_var = self._name("t") if rng.random() < 0.8 else None
        frame_var = self._name("k") if rng.random() < 0.8 else None
        inner = (
            obj_vars,
            time_vars + ((time_var,) if time_var else ()),
            frame_vars + ((frame_var,) if frame_var else ()),
        )
        return A.Freeze(time_var, frame_var, self._node(depth - 1, inner))

    def _spatial(self, obj_vars: Sequence[str], depth: int = 3) -> A.SpatialTerm:
        rng = self.rng
        if depth <= 1 or rng.random() < 0.4:
            roll = rng.random()
            if obj_vars and roll < 0.6:
                return A.BBoxOf(rng.choice(obj_vars))
            if roll < 0.8:
                return A.UniverseSet()
            return A.EmptySet()
        kind = rng.choice(("comp", "union", "inter"))
        if kind == "comp":
            return A.Complement(self._spatial(obj_vars, depth - 1))
        lhs = self._spatial(obj_vars, depth - 1)
        rhs = self._spatial(obj_vars, depth - 1)
        return A.SpatialUnion(lhs, rhs) if kind == "union" else A.SpatialIntersect(lhs, rhs)

    def _offset(self, obj_vars) -> A.OffsetTerm:
        rng = self.rng
        return A.OffsetTerm(rng.choice((A.Axis.LAT, A.Axis.LON)), rng.choice(obj_vars), rng.choice(REFS))

    def _atom(self, scope) -> A.Formula:
        rng = self.rng
        obj_vars, time_vars, frame_vars = scope
        options = [lambda: A.TrueConst()]
        if time_vars:
            options.append(
                lambda: A.TimeConstraint(rng.choice(time_vars), rng.choice(ALL_CMPS),
                                         round(rng.uniform(-2.0, 2.0), 2))
            )
        if frame_vars:
            options.append(
                lambda: A.FrameConstraint(rng.choice(frame_vars), rng.choice(ALL_CMPS),
                                          rng.randint(-5, 5))
            )
        if obj_vars:
            options += [
                lambda: A.ProbCmpConst(rng.choice(obj_vars), rng.choice(ORDER_CMPS),
                                       round(rng.random(), 2)),
                lambda: A.ProbCmpRatio(rng.choice(obj_vars), rng.choice(ORDER_CMPS),
                                       round(rng.uniform(0.1, 2.0), 2), rng.choice(obj_vars)),
                lambda: A.ClassEqConst(rng.choice(obj_vars), rng.choice(CLASSES)),
                lambda: A.ClassEqVar(rng.choice(obj_vars), rng.choice(obj_vars)),
                lambda: A.IdEq(rng.choice(obj_vars), rng.choice(obj_vars)),
                lambda: A.IdNeq(rng.choice(obj_vars), rng.choice(obj_vars)),
                lambda: A.SpatialExists(self._spatial(obj_vars)),
                lambda: A.AreaCmpConst(self._spatial(obj_vars), rng.choice(ORDER_CMPS),
                                       round(rng.uniform(0, 12000), 1)),
                lambda: A.AreaCmpRatio(self._spatial(obj_vars), rng.choice(ORDER_CMPS),
                                       round(rng.uniform(0.1, 2.0), 2), self._spatial(obj_vars)),
                lambda: A.EDCmp(rng.choice(obj_vars), rng.choice(REFS),
                                rng.choice(obj_vars), rng.choice(REFS),
                                rng.choice(ORDER_CMPS), round(rng.uniform(0, 150), 1)),
                lambda: A.OffsetCmpConst(self._offset(obj_vars), rng.choice(ORDER_CMPS),
                                         round(rng.uniform(0, 200), 1)),
                lambda: A.OffsetCmpRatio(self._offset(obj_vars), rng.choice(ORDER_CMPS),
                                         round(rng.uniform(0.1, 2.0), 2), self._offset(obj_vars)),
            ]
        return rng.choice(options)()


def random_trace(
    rng: random.Random,
    max_frames: int = 20,
    max_objects: int = 5,
    width: float = 100.0,
    height: float = 100.0,
) -> list[Frame]:
    """Frames with drop-in/drop-out objects, gaps in frame numbers, and
    occasionally repeated timestamps."""
    length = rng.randint(1, max_frames)
    frames = []
    timestamp = 0.0
    number = rng.randint(0, 3)
    for _ in range(length):
        detections = []
        for oid in range(1, max_objects + 1):
            if rng.random() < 0.7:
                x1 = rng.randint(0, int(width) - 1)
                x2 = rng.randint(x1 + 1, int(width))
                y1 = rng.randint(0, int(height) - 1)
                y2 = rng.randint(y1 + 1, int(height))
                detections.append(
                    DetectedObject(oid, rng.choice(CLASSES), round(rng.random(), 2),
                                   BoundingBox(x1, y1, x2, y2))
                )
        frames.append(make_frame(number, timestamp, width, height, detections))
        number += rng.randint(1, 3)
        timestamp = round(timestamp + rng.choice((0.0, 0.1, 0.2)), 2)
    return frames


# --- random spatial terms with an independent rasterization oracle ---------

def random_box(rng: random.Random, size: int) -> tuple[int, int, int, int]:
    x1 = rng.randint(0, size - 1)
    x2 = rng.randint(x1 + 1, size)
    y1 = rng.randint(0, size - 1)
    y2 = rng.randint(y1 + 1, size)
    return x1, y1, x2, y2


def random_term(rng: random.Random, boxes: list[tuple[int, int, int, int]], depth: int):
    if depth <= 1 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.7:
            return ("box", rng.choice(boxes))
        if roll < 0.85:
            return ("empty",)
        return ("universe",)
    op = rng.choice(("comp", "union", "inter"))
    if op == "comp":
        return ("comp", random_term(rng, boxes, depth - 1))
    return (op, random_term(rng, boxes, depth - 1), random_term(rng, boxes, depth - 1))


def term_region(term, universe: Universe):
    kind = term[0]
    if kind == "empty":
        return empty_region(universe)
    if kind == "universe":
        return full_region(universe)
    if kind == "box":
        return from_box(BoundingBox(*term[1]), universe)
    if kind == "comp":
        return complement(term_region(term[1], universe))
    if kind == "union":
        return union(term_region(term[1], universe), term_region(term[2], universe))
    return intersect(term_region(term[1], universe), term_region(term[2], universe))


def rasterize(term, size: int) -> np.ndarray:
    """Unit-cell rasterization of a term; exact for integer coordinates."""
    kind = term[0]
    if kind == "empty":
        return np.zeros((size, size), dtype=bool)
    if kind == "universe":
        return np.ones((size, size), dtype=bool)
    if kind == "box":
        x1, y1, x2, y2 = (max(0, min(int(v), size)) for v in term[1])
        grid = np.zeros((size, size), dtype=bool)
        grid[y1:y2, x1:x2] = True
        return grid
    if kind == "comp":
        return ~rasterize(term[1], size)
    if kind == "union":
        return rasterize(term[1], size) | rasterize(term[2], size)
    return rasterize(term[1], size) & rasterize(term[2], size)


def region_area(term, universe: Universe) -> float:
    return area(term_region(term, universe))
