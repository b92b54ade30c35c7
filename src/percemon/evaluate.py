"""Reference Boolean evaluation of core formulas over finite traces.

This is the offline semantics used directly by ``run`` and as the oracle
for the online monitor. A formula is compiled once into a tree of
closures, one per node or fused group of nodes (see below), each holding
the semantic clause of its node kind; ``evaluate`` looks up the compiled
program of the formula object and calls it. ``until`` and ``since`` scan for a witness frame for the right
operand, with the left operand required at every frame from the evaluated
one up to and including the witness, within the visible trace.

A closed ``since`` is the exception: one with no free variable and no
``next``/``prev``/``until``/``since`` in either operand, such as the
desugared ``once p`` and ``holds p`` of a closed state formula ``p``. Its
operands at a frame depend on that frame alone, so it is computed by the
Havelund-Rosu recurrence under the same truncated semantics: per stream
index k it keeps the latest witness j <= k (right operand at j, left
operand on all of [j, k]) or -1, derived from the entry for k - 1 with one
evaluation of each operand, and in a window starting at stream index s it
is true when that witness is >= s. An ``EvalContext`` may carry a table of
these entries together with the window's stream offset; the monitor keeps
one for the life of a stream, so each verdict costs one step per closed
``since`` however long the window is. Without a table, each ``evaluate``
call computes the entries afresh from the window start, which is the same
code run from scratch.

A pin compiles to its body when nothing below it reads its variables.

The propositional core is fused as it is compiled, so a desugared ``and``
costs one node rather than four:

* a chain of ``or``, however associated, is one node over its flattened
  disjuncts, evaluated left to right up to the first true one;
* ``not (a or b or ...)``, which is what ``and`` and the body of a
  ``forall`` desugar to, is one conjunction of the negated disjuncts,
  evaluated left to right up to the first false one;
* ``not not a`` is ``a``, and ``not (x == y)``/``not (x != y)`` are
  ``x != y``/``x == y``. No other atom has an exact complement
  (``prob``/``class`` atoms are false when the id is absent, ratio atoms
  when the denominator is zero), so any other ``not`` stays a node.

Evaluation order, short-circuiting and every quantifier assignment, region
operation and temporal step are those of the unfused tree.

Conventions for finite traces and partial data:

* ``next`` at the last frame and ``prev`` at the first frame are false: a
  verdict never asserts facts about frames that do not exist.
* An object quantifier ranges over the objects of the frame at which the
  quantifier is evaluated. Each bound variable captures the object
  snapshot (id, class, confidence, box) from that frame; tuples may repeat
  objects. Every assignment is evaluated (an order-independent fold, no
  early exit), so quantifier cost genuinely scales with the domain.
* ``class``/``prob`` atoms re-resolve the captured id in the frame where
  the atom is evaluated, so they track the object through time; if the id
  is absent there, the atom is false. Box-derived atoms (``bbox``,
  ``lat``/``lon``, ``dist``) use the captured box itself, which is what
  lets a specification compare boxes across frames.
* Ratio atoms whose right-hand base value is zero are false and log a
  warning, once per distinct message and compiled formula.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from . import spatial
from .errors import ContractViolation
from .spatial import Region, Universe
from .stql import ast as A
from .stql.bindings import free_variables
from .trace import BoundingBox, DetectedObject, Frame

log = logging.getLogger("percemon.evaluate")


class Env:
    """Pinned timestamps, pinned frame indices, and captured objects.

    No evaluation keeps an ``Env`` past the call it was passed to, so a
    quantifier may rebind its variables in place in its own copy of
    ``objects`` instead of copying the map once per assignment.
    """

    __slots__ = ("time_pins", "frame_pins", "objects")

    def __init__(
        self,
        time_pins: Mapping[str, float] | None = None,
        frame_pins: Mapping[str, int] | None = None,
        objects: Mapping[str, DetectedObject] | None = None,
    ):
        self.time_pins = {} if time_pins is None else time_pins
        self.frame_pins = {} if frame_pins is None else frame_pins
        self.objects = {} if objects is None else objects


EMPTY_ENV = Env()


@dataclass
class EvalStats:
    """Mutable counters threaded through an evaluation."""

    assignments: int = 0


class EvalContext:
    """A trace (or buffered window) and the index under evaluation.

    ``offset`` is the stream index of ``trace[0]``. ``summaries`` holds the
    closed ``since`` entries of one formula over one stream, keyed by node;
    the caller owns it and passes it again with every later window of that
    stream, whose start may only move forward. With None, ``evaluate``
    computes the entries from the window start for that call alone.
    """

    __slots__ = ("trace", "index", "stats", "offset", "summaries")

    def __init__(
        self,
        trace: Sequence[Frame],
        index: int,
        stats: EvalStats | None = None,
        offset: int = 0,
        summaries: dict | None = None,
    ):
        if not 0 <= index < len(trace):
            raise ContractViolation(
                f"evaluation index {index} outside trace of length {len(trace)}"
            )
        self.trace = trace
        self.index = index
        self.stats = stats
        self.offset = offset
        self.summaries = summaries

    @property
    def frame(self) -> Frame:
        return self.trace[self.index]

    def at(self, index: int) -> "EvalContext":
        """The same trace at another index; the caller has bound-checked it."""
        ctx = object.__new__(EvalContext)
        ctx.trace = self.trace
        ctx.index = index
        ctx.stats = self.stats
        ctx.offset = self.offset
        ctx.summaries = self.summaries
        return ctx


def quantifier_assignments(
    variables: Sequence[str], frame: Frame
) -> Iterator[dict[str, DetectedObject]]:
    """All |objects|^k assignments of frame objects to the variables.

    Objects are enumerated in the order of the frame's map, which ingest
    keeps in ascending id order, and tuples in lexicographic order over the
    variable positions; repetition is allowed.
    """
    if not variables:
        raise ContractViolation("quantifier without variables")
    objs = frame.objects.values()
    if len(variables) == 1:
        var = variables[0]
        for obj in objs:
            yield {var: obj}
        return
    for combo in itertools.product(objs, repeat=len(variables)):
        yield dict(zip(variables, combo))


def _coordinate(axis: A.Axis, ref: A.ReferencePoint) -> Callable[[BoundingBox], float]:
    """The ``axis`` coordinate of a box's named reference point, as a function."""
    if axis is A.Axis.LAT:
        if ref is A.ReferencePoint.LM:
            return lambda box: box.xmin
        if ref is A.ReferencePoint.RM:
            return lambda box: box.xmax
        return lambda box: (box.xmin + box.xmax) / 2.0
    if ref is A.ReferencePoint.TM:
        return lambda box: box.ymin
    if ref is A.ReferencePoint.BM:
        return lambda box: box.ymax
    return lambda box: (box.ymin + box.ymax) / 2.0


def ref_point(box: BoundingBox, ref: A.ReferencePoint) -> tuple[float, float]:
    """Coordinates of a named reference point of a box."""
    return _coordinate(A.Axis.LAT, ref)(box), _coordinate(A.Axis.LON, ref)(box)


def _unbound(exc: KeyError) -> ContractViolation:
    """The error for an object variable missing from ``Env.objects``.

    Atoms read captured objects with a plain ``env.objects[name]`` inside a
    ``try`` where nothing else can raise ``KeyError``, and turn it into this.
    """
    name = exc.args[0]
    return ContractViolation(f"object variable {name!r} is unbound; run check_bindings first")


def _pin(pins: Mapping[str, float], name: str, kind: str):
    if name not in pins:
        raise ContractViolation(f"{kind} variable {name!r} is unbound; run check_bindings first")
    return pins[name]


def _universe(ctx: EvalContext) -> Universe:
    """The current frame's universe."""
    frame = ctx.trace[ctx.index]
    return Universe(frame.width, frame.height)


class _Compiler:
    """Builds the closure tree of one formula and owns its per-program state:
    warn-once messages."""

    def __init__(self) -> None:
        self.warned: set[str] = set()

    def formula(self, phi: A.Formula) -> Check:
        build = _FORMULA_BUILDERS.get(type(phi))
        if build is None:
            raise ContractViolation(f"evaluator needs a desugared formula, got {type(phi).__name__}")
        return build(self, phi)

    def disjuncts(self, phi: A.Formula) -> list[Check]:
        """Checks whose disjunction, in list order, is ``phi``: an ``or``
        chain of any association, flattened."""
        if type(phi) is A.Or:
            return self.disjuncts(phi.lhs) + self.disjuncts(phi.rhs)
        return [self.formula(phi)]

    def conjuncts(self, phi: A.Formula) -> list[Check]:
        """Checks whose conjunction, in list order, is ``phi``."""
        if type(phi) is A.Not:
            return self.negated(phi.child)
        return [self.formula(phi)]

    def negated(self, phi: A.Formula) -> list[Check]:
        """Checks whose conjunction, in list order, is ``not phi``.

        ``not (a or b)`` is ``not a and not b`` (De Morgan), ``not not a``
        is ``a``, and the id comparisons are each other's complement. Other
        atoms have none: ``prob``/``class`` are false when the id is absent
        and a ratio atom is false on a zero denominator.
        """
        kind = type(phi)
        if kind is A.Or:
            return self.negated(phi.lhs) + self.negated(phi.rhs)
        if kind is A.Not:
            return self.conjuncts(phi.child)
        if kind is A.IdEq or kind is A.IdNeq:
            return [_id_check(phi.lhs, phi.rhs, equal=kind is A.IdNeq)]
        child = self.formula(phi)

        def check(ctx: EvalContext, env: Env) -> bool:
            return not child(ctx, env)
        return [check]

    def term(self, term: A.SpatialTerm) -> Term:
        build = _TERM_BUILDERS.get(type(term))
        if build is None:
            raise ContractViolation(f"evaluator needs a core spatial term, got {type(term).__name__}")
        return build(self, term)

    def ratio_rhs_ok(self, value: float, what: str) -> bool:
        if value == 0:
            message = f"ratio denominator ({what}) is zero; the atom is false"
            # A degenerate box can recur on every frame of a stream; warn once
            # per distinct message and demote repeats so stderr stays readable.
            if message not in self.warned and len(self.warned) < 256:
                self.warned.add(message)
                log.warning("%s (repeats logged at debug level)", message)
            else:
                log.debug("%s", message)
            return False
        return True


# --- propositional and temporal core ----------------------------------------

def _true(c: _Compiler, phi: A.TrueConst) -> Check:
    def check(ctx: EvalContext, env: Env) -> bool:
        return True
    return check


def _any(parts: list[Check]) -> Check:
    """Left to right, stopping at the first true part."""
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        first, second = parts

        def check(ctx: EvalContext, env: Env) -> bool:
            return first(ctx, env) or second(ctx, env)
        return check
    parts = tuple(parts)

    def check(ctx: EvalContext, env: Env) -> bool:
        for part in parts:
            if part(ctx, env):
                return True
        return False
    return check


def _all(parts: list[Check]) -> Check:
    """Left to right, stopping at the first false part."""
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        first, second = parts

        def check(ctx: EvalContext, env: Env) -> bool:
            return first(ctx, env) and second(ctx, env)
        return check
    parts = tuple(parts)

    def check(ctx: EvalContext, env: Env) -> bool:
        for part in parts:
            if not part(ctx, env):
                return False
        return True
    return check


def _not(c: _Compiler, phi: A.Not) -> Check:
    return _all(c.negated(phi.child))


def _or(c: _Compiler, phi: A.Or) -> Check:
    return _any(c.disjuncts(phi))


def _next_prev(c: _Compiler, phi: A.Next | A.Prev) -> Check:
    child = c.formula(phi.child)
    step = 1 if type(phi) is A.Next else -1

    def check(ctx: EvalContext, env: Env) -> bool:
        j = ctx.index + step
        if not 0 <= j < len(ctx.trace):
            return False
        return child(ctx.at(j), env)
    return check


def _until_since(c: _Compiler, phi: A.Until | A.Since) -> Check:
    lhs, rhs = c.formula(phi.lhs), c.formula(phi.rhs)
    forward = type(phi) is A.Until

    def check(ctx: EvalContext, env: Env) -> bool:
        # Disjunction over witnesses j (j >= i for until, j <= i for since),
        # with lhs required at every frame from i through j inclusive.
        witnesses = range(ctx.index, len(ctx.trace)) if forward else range(ctx.index, -1, -1)
        for j in witnesses:
            here = ctx.at(j)
            if not lhs(here, env):
                return False
            if rhs(here, env):
                return True
        return False
    return check


_TEMPORAL = (A.Next, A.Prev, A.Until, A.Since)


def _is_closed_since(phi: A.Since) -> bool:
    """No free variable, and both operands read the evaluated frame only."""
    operands = itertools.chain(A.subformulas(phi.lhs), A.subformulas(phi.rhs))
    return not free_variables(phi) and not any(isinstance(sub, _TEMPORAL) for sub in operands)


class _Witnesses:
    """Closed ``since`` entries for the stream indices base, base + 1, ...

    ``latest[k - base]`` is the latest witness j <= k or -1. Entries only
    depend on frames, so they stay valid for every later window; the entry
    at ``base`` is kept as the predecessor of the first one still needed.
    """

    __slots__ = ("base", "latest")

    def __init__(self, start: int):
        # Nothing before the window start is visible: a -1 sentinel entry.
        self.base = start - 1
        self.latest = [-1]


def _since(c: _Compiler, phi: A.Since) -> Check:
    """A closed ``since`` by its recurrence, any other by the scan."""
    if not _is_closed_since(phi):
        return _until_since(c, phi)
    lhs, rhs = c.formula(phi.lhs), c.formula(phi.rhs)
    key = id(phi)

    def check(ctx: EvalContext, env: Env) -> bool:
        start = ctx.offset
        summary = ctx.summaries.get(key)
        if summary is None or not summary.base < start <= summary.base + len(summary.latest):
            # No entry for the frame before the window: summarize from its start.
            summary = ctx.summaries[key] = _Witnesses(start)
        elif summary.base < start - 1:
            del summary.latest[: start - 1 - summary.base]
            summary.base = start - 1
        latest, base = summary.latest, summary.base
        wanted = start + ctx.index
        for k in range(base + len(latest), wanted + 1):
            here = ctx.at(k - start)
            if not lhs(here, env):
                latest.append(-1)
            else:
                latest.append(k if rhs(here, env) else latest[-1])
        return latest[wanted - base] >= start
    return check


def _freeze(c: _Compiler, phi: A.Freeze) -> Check:
    child = c.formula(phi.child)
    used = free_variables(phi.child)
    time_var = phi.time_var if phi.time_var in used else None
    frame_var = phi.frame_var if phi.frame_var in used else None
    if time_var is None and frame_var is None:
        return child

    def check(ctx: EvalContext, env: Env) -> bool:
        # Copy only the pin maps that change; the pinned values are those of
        # the current frame.
        time_pins, frame_pins = env.time_pins, env.frame_pins
        if time_var is not None:
            time_pins = {**time_pins, time_var: ctx.trace[ctx.index].timestamp}
        if frame_var is not None:
            frame_pins = {**frame_pins, frame_var: ctx.index}
        return child(ctx, Env(time_pins, frame_pins, env.objects))
    return check


def _exists(c: _Compiler, phi: A.Exists) -> Check:
    child = c.formula(phi.child)
    variables = phi.variables

    def check(ctx: EvalContext, env: Env) -> bool:
        frame = ctx.trace[ctx.index]
        if not frame.objects:
            return False
        objects = dict(env.objects)
        inner = Env(env.time_pins, env.frame_pins, objects)
        # Full fold over the domain, no early exit: quantifier cost scales
        # with the number of assignments, which is the behavior the bench
        # measures, and the result is independent of enumeration order.
        result = False
        count = 0
        for assignment in quantifier_assignments(variables, frame):
            objects.update(assignment)
            count += 1
            if child(ctx, inner):
                result = True
        if ctx.stats is not None:
            ctx.stats.assignments += count
        return result
    return check


# --- atoms -------------------------------------------------------------------
# Each reads its captured objects with ``env.objects[name]`` (see ``_unbound``).

def _time_constraint(c: _Compiler, phi: A.TimeConstraint) -> Check:
    var, op, bound = phi.var, phi.cmp.function, phi.bound

    def check(ctx: EvalContext, env: Env) -> bool:
        return op(_pin(env.time_pins, var, "time") - ctx.trace[ctx.index].timestamp, bound)
    return check


def _frame_constraint(c: _Compiler, phi: A.FrameConstraint) -> Check:
    var, op, bound = phi.var, phi.cmp.function, phi.bound

    def check(ctx: EvalContext, env: Env) -> bool:
        return op(_pin(env.frame_pins, var, "frame") - ctx.index, bound)
    return check


def _id_check(lhs_var: str, rhs_var: str, equal: bool) -> Check:
    """``lhs_var == rhs_var`` on captured ids, or ``!=`` when not ``equal``."""
    if equal:
        def check(ctx: EvalContext, env: Env) -> bool:
            objects = env.objects
            try:
                return objects[lhs_var].object_id == objects[rhs_var].object_id
            except KeyError as exc:
                raise _unbound(exc) from None
    else:
        def check(ctx: EvalContext, env: Env) -> bool:
            objects = env.objects
            try:
                return objects[lhs_var].object_id != objects[rhs_var].object_id
            except KeyError as exc:
                raise _unbound(exc) from None
    return check


def _id_cmp(c: _Compiler, phi: A.IdEq | A.IdNeq) -> Check:
    return _id_check(phi.lhs, phi.rhs, equal=type(phi) is A.IdEq)


def _class_eq_const(c: _Compiler, phi: A.ClassEqConst) -> Check:
    var, label = phi.var, phi.label

    def check(ctx: EvalContext, env: Env) -> bool:
        try:
            object_id = env.objects[var].object_id
        except KeyError as exc:
            raise _unbound(exc) from None
        current = ctx.trace[ctx.index].objects.get(object_id)
        return current is not None and current.class_label == label
    return check


def _class_eq_var(c: _Compiler, phi: A.ClassEqVar) -> Check:
    lhs_var, rhs_var = phi.lhs, phi.rhs

    def check(ctx: EvalContext, env: Env) -> bool:
        objects = env.objects
        try:
            lhs_id, rhs_id = objects[lhs_var].object_id, objects[rhs_var].object_id
        except KeyError as exc:
            raise _unbound(exc) from None
        current = ctx.trace[ctx.index].objects
        lhs, rhs = current.get(lhs_id), current.get(rhs_id)
        return lhs is not None and rhs is not None and lhs.class_label == rhs.class_label
    return check


def _prob_const(c: _Compiler, phi: A.ProbCmpConst) -> Check:
    var, op, bound = phi.var, phi.cmp.function, phi.bound

    def check(ctx: EvalContext, env: Env) -> bool:
        try:
            object_id = env.objects[var].object_id
        except KeyError as exc:
            raise _unbound(exc) from None
        current = ctx.trace[ctx.index].objects.get(object_id)
        return current is not None and op(current.confidence, bound)
    return check


def _prob_ratio(c: _Compiler, phi: A.ProbCmpRatio) -> Check:
    lhs_var, rhs_var, op, ratio = phi.lhs, phi.rhs, phi.cmp.function, phi.ratio
    what = f"prob({rhs_var})"
    ratio_ok = c.ratio_rhs_ok

    def check(ctx: EvalContext, env: Env) -> bool:
        objects = env.objects
        try:
            lhs_id, rhs_id = objects[lhs_var].object_id, objects[rhs_var].object_id
        except KeyError as exc:
            raise _unbound(exc) from None
        current = ctx.trace[ctx.index].objects
        lhs, rhs = current.get(lhs_id), current.get(rhs_id)
        if lhs is None or rhs is None:
            return False
        if not ratio_ok(rhs.confidence, what):
            return False
        return op(lhs.confidence, ratio * rhs.confidence)
    return check


def _spatial_exists(c: _Compiler, phi: A.SpatialExists) -> Check:
    term = c.term(phi.term)

    def check(ctx: EvalContext, env: Env) -> bool:
        return not spatial.is_empty(term(_universe(ctx), env))
    return check


def _area_const(c: _Compiler, phi: A.AreaCmpConst) -> Check:
    term, op, bound = c.term(phi.term), phi.cmp.function, phi.bound

    def check(ctx: EvalContext, env: Env) -> bool:
        return op(spatial.area(term(_universe(ctx), env)), bound)
    return check


def _area_ratio(c: _Compiler, phi: A.AreaCmpRatio) -> Check:
    lhs, rhs = c.term(phi.lhs), c.term(phi.rhs)
    op, ratio = phi.cmp.function, phi.ratio
    ratio_ok = c.ratio_rhs_ok

    def check(ctx: EvalContext, env: Env) -> bool:
        universe = _universe(ctx)
        rhs_area = spatial.area(rhs(universe, env))
        if not ratio_ok(rhs_area, "area"):
            return False
        return op(spatial.area(lhs(universe, env)), ratio * rhs_area)
    return check


def _ed(c: _Compiler, phi: A.EDCmp) -> Check:
    lhs, lhs_ref, rhs, rhs_ref = phi.lhs, phi.lhs_ref, phi.rhs, phi.rhs_ref
    op, bound = phi.cmp.function, phi.bound
    lhs_x, lhs_y = _coordinate(A.Axis.LAT, lhs_ref), _coordinate(A.Axis.LON, lhs_ref)
    rhs_x, rhs_y = _coordinate(A.Axis.LAT, rhs_ref), _coordinate(A.Axis.LON, rhs_ref)

    def check(ctx: EvalContext, env: Env) -> bool:
        objects = env.objects
        try:
            lhs_box, rhs_box = objects[lhs].bbox, objects[rhs].bbox
        except KeyError as exc:
            raise _unbound(exc) from None
        dx = lhs_x(lhs_box) - rhs_x(rhs_box)
        return op(math.hypot(dx, lhs_y(lhs_box) - rhs_y(rhs_box)), bound)
    return check


def _offset_const(c: _Compiler, phi: A.OffsetCmpConst) -> Check:
    var, coordinate = phi.term.var, _coordinate(phi.term.axis, phi.term.ref)
    op, bound = phi.cmp.function, phi.bound

    def check(ctx: EvalContext, env: Env) -> bool:
        try:
            box = env.objects[var].bbox
        except KeyError as exc:
            raise _unbound(exc) from None
        return op(coordinate(box), bound)
    return check


def _offset_ratio(c: _Compiler, phi: A.OffsetCmpRatio) -> Check:
    lhs_var, lhs_coordinate = phi.lhs.var, _coordinate(phi.lhs.axis, phi.lhs.ref)
    rhs_var, rhs_coordinate = phi.rhs.var, _coordinate(phi.rhs.axis, phi.rhs.ref)
    op, ratio = phi.cmp.function, phi.ratio
    what = f"{phi.rhs.axis.value}({rhs_var})"
    ratio_ok = c.ratio_rhs_ok

    def check(ctx: EvalContext, env: Env) -> bool:
        objects = env.objects
        try:
            rhs_value = rhs_coordinate(objects[rhs_var].bbox)
            if not ratio_ok(rhs_value, what):
                return False
            lhs_value = lhs_coordinate(objects[lhs_var].bbox)
        except KeyError as exc:
            raise _unbound(exc) from None
        return op(lhs_value, ratio * rhs_value)
    return check


_FORMULA_BUILDERS: dict[type, Callable[[_Compiler, A.Formula], Check]] = {
    A.TrueConst: _true,
    A.Not: _not,
    A.Or: _or,
    A.Next: _next_prev,
    A.Prev: _next_prev,
    A.Until: _until_since,
    A.Since: _since,
    A.Freeze: _freeze,
    A.Exists: _exists,
    A.TimeConstraint: _time_constraint,
    A.FrameConstraint: _frame_constraint,
    A.IdEq: _id_cmp,
    A.IdNeq: _id_cmp,
    A.ClassEqConst: _class_eq_const,
    A.ClassEqVar: _class_eq_var,
    A.ProbCmpConst: _prob_const,
    A.ProbCmpRatio: _prob_ratio,
    A.SpatialExists: _spatial_exists,
    A.AreaCmpConst: _area_const,
    A.AreaCmpRatio: _area_ratio,
    A.EDCmp: _ed,
    A.OffsetCmpConst: _offset_const,
    A.OffsetCmpRatio: _offset_ratio,
}


# --- spatial terms -----------------------------------------------------------
# Region operations go through the public ``spatial`` functions, looked up at
# call time, so that the layer can be wrapped from outside.

def _constant_set(c: _Compiler, term: A.EmptySet | A.UniverseSet) -> Term:
    name = "empty_region" if type(term) is A.EmptySet else "full_region"

    def region(universe: Universe, env: Env) -> Region:
        return getattr(spatial, name)(universe)
    return region


def _bbox_of(c: _Compiler, term: A.BBoxOf) -> Term:
    var = term.var

    def region(universe: Universe, env: Env) -> Region:
        try:
            box = env.objects[var].bbox
        except KeyError as exc:
            raise _unbound(exc) from None
        return spatial.from_box(box, universe)
    return region


def _complement(c: _Compiler, term: A.Complement) -> Term:
    inner = c.term(term.term)

    def region(universe: Universe, env: Env) -> Region:
        return spatial.complement(inner(universe, env))
    return region


def _union_intersect(c: _Compiler, term: A.SpatialUnion | A.SpatialIntersect) -> Term:
    lhs, rhs = c.term(term.lhs), c.term(term.rhs)
    name = "union" if type(term) is A.SpatialUnion else "intersect"

    def region(universe: Universe, env: Env) -> Region:
        return getattr(spatial, name)(lhs(universe, env), rhs(universe, env))
    return region


_TERM_BUILDERS: dict[type, Callable[[_Compiler, A.SpatialTerm], Term]] = {
    A.EmptySet: _constant_set,
    A.UniverseSet: _constant_set,
    A.BBoxOf: _bbox_of,
    A.Complement: _complement,
    A.SpatialUnion: _union_intersect,
    A.SpatialIntersect: _union_intersect,
}


def eval_spatial(term: A.SpatialTerm, ctx: EvalContext, env: Env) -> Region:
    """Evaluate a core spatial term within the current frame's universe."""
    return _Compiler().term(term)(_universe(ctx), env)


# Compiled programs by formula identity. Each entry holds its formula, so the
# identity cannot be reused by another object while the entry exists.
_PROGRAMS_MAX = 64
_programs: dict[int, tuple[A.Formula, Check]] = {}


def evaluate(phi: A.Formula, ctx: EvalContext, env: Env = EMPTY_ENV) -> bool:
    """Boolean quality of a desugared formula at ``ctx.index``.

    The formula is compiled on first use and its program kept for later
    calls with the same formula object. Without a summary table in ``ctx``
    the call uses one of its own, computed from the window start.
    """
    entry = _programs.get(id(phi))
    if entry is None:
        program = _Compiler().formula(phi)
        if len(_programs) >= _PROGRAMS_MAX:
            del _programs[next(iter(_programs))]
        entry = _programs[id(phi)] = (phi, program)
    if ctx.summaries is None:
        ctx = EvalContext(ctx.trace, ctx.index, ctx.stats, ctx.offset, {})
    return entry[1](ctx, env)


def evaluate_trace(
    phi: A.Formula,
    frames: Sequence[Frame],
    history: int | None = None,
    horizon: int | None = None,
    stats: EvalStats | None = None,
) -> list[bool]:
    """Verdict for every frame index of a finite trace.

    Frames are taken in the order given; their frame numbers and
    timestamps are not checked (``read_stream`` checks them where frames
    are read). With ``history``/``horizon`` set, each index is evaluated
    over its clipped window only (mirroring what a bounded online monitor
    sees); with both None the whole trace is visible from every index.
    """
    frames = list(frames)
    n = len(frames)
    out: list[bool] = []
    for i in range(n):
        if history is None and horizon is None:
            ctx = EvalContext(frames, i, stats)
        else:
            lo = 0 if history is None else max(0, i - history)
            hi = n - 1 if horizon is None else min(n - 1, i + horizon)
            ctx = EvalContext(frames[lo : hi + 1], i - lo, stats)
        out.append(evaluate(phi, ctx))
    return out
