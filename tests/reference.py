"""A definitional reference evaluator: the desugared core read directly.

Each formula kind is its semantic clause over a list of frames at an index,
written once and run as written. Every quantifier assignment is enumerated,
every temporal operator scans its frames, and nothing is remembered between
calls: no compiled program, fusion, id lookup or summary. Spatial terms go
through the ``spatial.Region`` algebra, which the grid oracle of acceptance
criterion 5 checks. It is slow by design and serves only as the oracle the
evaluator and the monitor are compared with (differential testing); the
package never imports it.

The semantics is TQTL over finite traces with the spatial atoms the monitor
reads, under the conventions stated in ``percemon.evaluate``:

* ``next`` at the last frame and ``prev`` at the first frame are false;
* ``lhs until rhs`` at i holds when some j >= i in the trace has ``rhs`` at
  j and ``lhs`` on every frame of [i, j], j included; ``since`` mirrors it
  over j <= i;
* a pin captures the current timestamp and frame index; a frame constraint
  compares the pinned index minus the current one, a time constraint the
  pinned timestamp minus the current one;
* ``exists`` ranges over every tuple of the current frame's objects,
  repetition allowed, each variable capturing the object's snapshot;
* ``class``/``prob`` re-resolve the captured id in the current frame and are
  false when it is absent; box atoms read the captured box;
* a ratio atom whose right-hand base value is zero is false.

``reference_trace`` gives each verdict the window ``evaluate_trace`` gives
it: the frames [i - history, i + horizon], clipped to the trace.
"""

from __future__ import annotations

import itertools
import math
import operator

from percemon import spatial
from percemon.stql import ast as A

# Each comparison as its two-argument operator function.
CMP = {A.Cmp.LT: operator.lt, A.Cmp.LE: operator.le, A.Cmp.GT: operator.gt,
       A.Cmp.GE: operator.ge, A.Cmp.EQ: operator.eq, A.Cmp.NE: operator.ne}


def reference_trace(phi: A.Formula, frames, history: int | None = None,
                    horizon: int | None = None) -> list[bool]:
    """The verdict of the core formula ``phi`` at every frame of ``frames``."""
    frames = list(frames)
    n = len(frames)
    out = []
    for i in range(n):
        lo = 0 if history is None else max(0, i - history)
        hi = n - 1 if horizon is None else min(n - 1, i + horizon)
        out.append(holds(phi, frames[lo : hi + 1], i - lo, {}))
    return out


def holds(phi: A.Formula, trace, i: int, env: dict) -> bool:
    """Whether ``phi`` holds at frame ``i`` of ``trace`` under ``env``.

    ``env`` maps ("object", v) to the captured object, ("time", t) to the
    pinned timestamp and ("frame", f) to the pinned index.
    """
    kind = type(phi)
    frame = trace[i]
    if kind is A.TrueConst:
        return True
    if kind is A.Not:
        return not holds(phi.child, trace, i, env)
    if kind is A.Or:
        return holds(phi.lhs, trace, i, env) or holds(phi.rhs, trace, i, env)
    if kind in (A.Next, A.Prev):
        j = i + 1 if kind is A.Next else i - 1
        return 0 <= j < len(trace) and holds(phi.child, trace, j, env)
    if kind in (A.Until, A.Since):
        # The candidate witnesses j in order of distance from i: ``lhs`` must
        # hold on each frame up to the witness, the witness included.
        candidates = range(i, len(trace)) if kind is A.Until else range(i, -1, -1)
        for j in candidates:
            if not holds(phi.lhs, trace, j, env):
                return False
            if holds(phi.rhs, trace, j, env):
                return True
        return False
    if kind is A.Freeze:
        pinned = dict(env)
        if phi.time_var is not None:
            pinned["time", phi.time_var] = frame.timestamp
        if phi.frame_var is not None:
            pinned["frame", phi.frame_var] = i
        return holds(phi.child, trace, i, pinned)
    if kind is A.Exists:
        objects = list(frame.objects.values())
        for combo in itertools.product(objects, repeat=len(phi.variables)):
            bound = dict(env)
            bound.update((("object", v), obj) for v, obj in zip(phi.variables, combo))
            if holds(phi.child, trace, i, bound):
                return True
        return False
    if kind is A.TimeConstraint:
        return CMP[phi.cmp](env["time", phi.var] - frame.timestamp, phi.bound)
    if kind is A.FrameConstraint:
        return CMP[phi.cmp](env["frame", phi.var] - i, phi.bound)
    if kind in (A.IdEq, A.IdNeq):
        same = env["object", phi.lhs].object_id == env["object", phi.rhs].object_id
        return same if kind is A.IdEq else not same
    if kind is A.ClassEqConst:
        current = _current(frame, env, phi.var)
        return current is not None and current.class_label == phi.label
    if kind is A.ClassEqVar:
        lhs, rhs = _current(frame, env, phi.lhs), _current(frame, env, phi.rhs)
        return lhs is not None and rhs is not None and lhs.class_label == rhs.class_label
    if kind is A.ProbCmpConst:
        current = _current(frame, env, phi.var)
        return current is not None and CMP[phi.cmp](current.confidence, phi.bound)
    if kind is A.ProbCmpRatio:
        lhs, rhs = _current(frame, env, phi.lhs), _current(frame, env, phi.rhs)
        if lhs is None or rhs is None or rhs.confidence == 0:
            return False
        return CMP[phi.cmp](lhs.confidence, phi.ratio * rhs.confidence)
    # A region's universe is the image of the frame it is evaluated at.
    if kind is A.SpatialExists:
        return not spatial.is_empty(region(phi.term, frame, env))
    if kind is A.AreaCmpConst:
        return CMP[phi.cmp](spatial.area(region(phi.term, frame, env)), phi.bound)
    if kind is A.AreaCmpRatio:
        rhs = spatial.area(region(phi.rhs, frame, env))
        if rhs == 0:
            return False
        return CMP[phi.cmp](spatial.area(region(phi.lhs, frame, env)), phi.ratio * rhs)
    if kind is A.EDCmp:
        lx, ly = point(env["object", phi.lhs].bbox, phi.lhs_ref)
        rx, ry = point(env["object", phi.rhs].bbox, phi.rhs_ref)
        return CMP[phi.cmp](math.hypot(lx - rx, ly - ry), phi.bound)
    if kind is A.OffsetCmpConst:
        return CMP[phi.cmp](offset(phi.term, env), phi.bound)
    if kind is A.OffsetCmpRatio:
        rhs = offset(phi.rhs, env)
        if rhs == 0:
            return False
        return CMP[phi.cmp](offset(phi.lhs, env), phi.ratio * rhs)
    raise TypeError(f"the reference reads the desugared core, got {kind.__name__}")


def _current(frame, env: dict, var: str):
    """The object in ``frame`` with the id captured for ``var``, or None."""
    return frame.objects.get(env["object", var].object_id)


def region(term: A.SpatialTerm, universe, env: dict) -> spatial.Region:
    """The region a spatial term denotes in ``universe``, a frame or any
    value with its ``width`` and ``height``."""
    kind = type(term)
    if kind is A.EmptySet:
        return spatial.empty_region(universe)
    if kind is A.UniverseSet:
        return spatial.full_region(universe)
    if kind is A.BBoxOf:
        return spatial.from_box(env["object", term.var].bbox, universe)
    if kind is A.Complement:
        return spatial.complement(region(term.term, universe, env))
    if kind is A.SpatialUnion:
        return spatial.union(region(term.lhs, universe, env), region(term.rhs, universe, env))
    if kind is A.SpatialIntersect:
        return spatial.intersect(region(term.lhs, universe, env), region(term.rhs, universe, env))
    raise TypeError(f"the reference reads core spatial terms, got {kind.__name__}")


def point(box, ref: A.ReferencePoint) -> tuple[float, float]:
    """The (x, y) of a box's edge midpoint or centroid."""
    x = {A.ReferencePoint.LM: box.xmin, A.ReferencePoint.RM: box.xmax}.get(
        ref, (box.xmin + box.xmax) / 2.0)
    y = {A.ReferencePoint.TM: box.ymin, A.ReferencePoint.BM: box.ymax}.get(
        ref, (box.ymin + box.ymax) / 2.0)
    return x, y


def offset(term: A.OffsetTerm, env: dict) -> float:
    """The lateral (x) or longitudinal (y) coordinate an offset term names."""
    x, y = point(env["object", term.var].bbox, term.ref)
    return x if term.axis is A.Axis.LAT else y
