"""Boolean evaluation of core formulas over finite traces.

This is the offline semantics: ``evaluate_trace`` gives the verdict of
every frame of a trace, and the online monitor runs the same programs over
its window. A formula is compiled once into a tree of closures, one per
node or fused group of nodes (see below), each holding the semantic clause
of its node kind; ``evaluate`` looks up the compiled program of the
formula object and calls it.

Every ``until`` and ``since`` compiles to one node (``_temporal``): ``lhs
until/since R``, with the witness at most a reach of frames away,
optionally negated. At frame i a witness is a frame where R holds, with
``lhs`` at every frame from i up to and including it, within the visible
trace and the reach. A plain ``until``/``since`` has an unbounded reach. A
pin that only a frame-distance guard reads, over ``until``/``since`` with a
true left operand, is the guarded idiom of ``always (C_FRAME - f <= k
implies p)`` and ``once (f - C_FRAME < k and p)``: it is the same node with
the guard's reach and the rest of R, with no pin left (see
``_guarded_idiom``). A pin that nothing below it reads compiles to its body.
The idiom, the true left operand and R's conjuncts are read through
``bounds.bare``, as the window analysis reads them.

The node scans the frames within reach in its operator's order, unless it
is a ``since`` or a guarded idiom whose operands allow a summary: they hold
no temporal operator and no free time or frame variable, and their free
object variables are read only by atoms that re-resolve the id (``prob``,
``class``, ``==``, ``!=``; box atoms read the snapshot captured where the
variable was bound). Such operands at a frame depend on that frame and the
bound ids alone. Per node and tuple of ids the evaluator keeps, for stream
indices k, the latest witness j <= k (R at j, ``lhs`` on all of [j, k]) or
-1, each derived from the one for k - 1 with one evaluation of each
operand: the Havelund-Rosu recurrence, sliced by track id as in parametric
trace slicing. Un-negated, the node holds when the latest witness at the
last visible frame of its reach lies within the reach (for a guarded
``always`` the witness is a failure of ``p``). A closed node is the case
with no ids. An ``until`` with an unbounded reach keeps the scan: the query
would end at the last visible frame, so each new id would be seeded by a
walk back from there, about the whole trace per id offline, where the scan
forward from the evaluated frame often stops at once. The truncated-window
semantics are unchanged: a witness outside the window does not count.

An ``EvalContext`` carries the table of these entries together with the
window's stream offset. One table serves one stream: ``evaluate_trace``
shares one across its verdicts, and the monitor keeps one for the life of
a stream and trims it as its window moves (``trim_summaries``), so each
verdict costs one step per summarized node and id tuple however long the
window is. A new entry is seeded by the plain scan back from the frame it
is first needed at, so a new track costs what the scan would. A context
built without a table gets an empty one of its own.

The propositional core is fused as it is compiled, so a desugared ``and``
costs one node rather than four:

* a chain of ``or``, however associated, is one node over its flattened
  disjuncts, evaluated left to right up to the first true one;
* ``not (a or b or ...)``, which is what ``and`` and the body of a
  ``forall`` desugar to, is one conjunction of the negated disjuncts,
  evaluated left to right up to the first false one;
* ``not not a`` is ``a`` (``bounds.bare``), and ``not (x == y)``/``not
  (x != y)`` are ``x != y``/``x == y``. No other atom has an exact complement
  (``prob``/``class`` atoms are false when the id is absent, ratio atoms
  when the denominator is zero), so any other ``not`` stays a node;
* a pin that nothing below it reads is its body (``bounds.bare``), so
  both chains flatten through it, as ``not pin (_, f) { a or b }`` in the
  body of ``phi1``'s ``forall`` does;
* an id comparison at the head of such a chain, as in ``id1 == id2 and
  ...`` or ``id1 == id2 implies ...``, is no node of its own: the chain
  node compares the two captured ids itself (``_id_head``);
* a one-variable quantifier whose body is such a chain, comparing the
  quantified variable with one bound outside, runs that comparison
  itself. ``exists {v} @ (v == w and rest)`` (``phi1``'s inner ``exists``)
  and its ``forall`` duals ``forall {v} @ (v != w or p)`` and ``forall {v}
  @ (v == w implies p)`` are one lookup of ``w``'s id in the frame
  (``_lookup``): the frame's objects are keyed by id, so the object with
  that id, if present, is the only assignment the comparison does not
  settle to false, and ``rest`` runs on it alone. Any other such
  quantifier (``phi2``'s ``v != w or rest``) enumerates every assignment,
  reads the outer id once and runs the rest of the chain only for the
  assignments the comparison does not settle.

A spatial term built only from ``bbox``, ``universe`` and ``&`` is at most
one rectangle. Such a box term compiles to one ``spatial.box_meet`` call,
which returns the clipped intersection as a box or None; its area is one
product and ``nonempty`` a None test, bit for bit what the ``Region``
operations give. Terms with ``~``, ``|`` or ``empty`` run through the
``Region`` algebra.

Evaluation order, short-circuiting, errors and every temporal step are
those of the unfused tree, and so is every quantifier assignment that is
enumerated. A lookup binds one object instead of enumerating the frame; it
counts as one assignment in ``EvalStats`` and calls no
``quantifier_assignments``.

Conventions for finite traces and partial data:

* ``next`` at the last frame and ``prev`` at the first frame are false: a
  verdict never asserts facts about frames that do not exist.
* An object quantifier ranges over the objects of the frame at which the
  quantifier is evaluated. Each bound variable captures the object
  snapshot (id, class, confidence, box) from that frame; tuples may repeat
  objects. A quantifier that enumerates evaluates every assignment (an
  order-independent fold, no early exit, each one bound in place), so its
  cost scales with the domain, as the ``probe`` specs measure; an id
  lookup costs one dict probe and the body on at most one object.
* ``class``/``prob`` atoms re-resolve the captured id in the frame where
  the atom is evaluated, so they track the object through time; if the id
  is absent there, the atom is false. Box-derived atoms (``bbox``,
  ``lat``/``lon``, ``dist``) use the captured box itself, which is what
  lets a specification compare boxes across frames.
* Ratio atoms whose right-hand base value is zero are false and log a
  warning, once per distinct message and compiled formula.
* The binding contract is checked once, before evaluation: a variable that
  is read but bound neither by the formula nor by the ``Env`` passed in
  raises ``ContractViolation`` before any frame is evaluated, so no atom
  guards its own reads.
"""

from __future__ import annotations

import itertools
import logging
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from . import spatial
from .errors import ContractViolation
from .spatial import Region, Universe
from .stql import ast as A
from .stql.bindings import FRAME, OBJECT, TIME, free_variables, unbound_reads
from .stql.bounds import bare, conjuncts, disjuncts, frame_guard
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
    temporal summaries of one formula over one stream, keyed by (node id,
    tuple of the object ids bound to the node's free object variables);
    closed nodes have the empty tuple. The caller owns it and passes it
    again with every later window of that stream, whose start may only
    move forward, and may drop what the window no longer needs with
    ``trim_summaries``. With None, the context gets an empty table of its
    own.
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
        self.summaries = {} if summaries is None else summaries

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
) -> Iterator[tuple[DetectedObject, ...]]:
    """All |objects|^k assignments of frame objects to the variables, each
    a tuple of objects in variable order.

    Objects are enumerated in the order of the frame's map, which ingest
    keeps in ascending id order, and tuples in lexicographic order over the
    variable positions; repetition is allowed.
    """
    if not variables:
        raise ContractViolation("quantifier without variables")
    return itertools.product(frame.objects.values(), repeat=len(variables))


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


def _require_bound(reads: list[tuple[str, str]], env: Env) -> None:
    """Raise for the first of ``reads`` (``bindings.unbound_reads`` of the
    evaluated node) that ``env`` does not bind in its kind."""
    bound = {OBJECT: env.objects, TIME: env.time_pins, FRAME: env.frame_pins}
    for name, kind in reads:
        if name not in bound[kind]:
            raise ContractViolation(f"{kind} variable {name!r} is unbound; run check_bindings first")


class _Compiler:
    """Builds the closure tree of one formula and owns its per-program state:
    warn-once messages and the universe of the last image extent. ``plan``
    lists, per ``until``/``since`` and guarded idiom in compile order, the
    variables its summary is keyed by, or None for a scan; ``box_terms``
    lists, per spatial term of an atom, whether it takes the box path;
    ``lookups``, per quantifier, whether it is an id lookup."""

    def __init__(self) -> None:
        self.warned: set[str] = set()
        self.plan: list[tuple[str, ...] | None] = []
        self.box_terms: list[bool] = []
        self.lookups: list[bool] = []
        self.last_universe: Universe | None = None

    def universe(self, ctx: EvalContext) -> Universe:
        """The current frame's universe. A stream keeps its image extent, so
        one universe serves every spatial atom until the extent changes."""
        frame = ctx.trace[ctx.index]
        universe = self.last_universe
        if universe is None or universe.width != frame.width or universe.height != frame.height:
            universe = self.last_universe = Universe(frame.width, frame.height)
        return universe

    def formula(self, phi: A.Formula) -> Check:
        return _check(self.part(phi))

    def part(self, phi: A.Formula) -> Part:
        """``phi`` as a part of an ``or``/``and`` chain: a check, or an
        ``IdEq``/``IdNeq`` node, kept as data for the chain to test inline."""
        build = _FORMULA_BUILDERS.get(type(phi))
        if build is None:
            raise ContractViolation(f"evaluator needs a desugared formula, got {type(phi).__name__}")
        return build(self, phi)

    def measure(self, term: A.SpatialTerm, area: bool) -> Measure:
        """The area of ``term`` in a universe, or whether it is nonempty.

        A term of boxes, the universe and ``&`` alone takes the box path
        (``_box_measure``); any other goes through its ``Region``."""
        variables = _box_variables(term)
        self.box_terms.append(variables is not None)
        if variables is not None:
            return _box_measure(variables, area)
        region = self.term(term)
        if area:
            return lambda universe, env: spatial.area(region(universe, env))
        return lambda universe, env: not spatial.is_empty(region(universe, env))

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


# Id comparisons reach the chain builders as their syntax nodes, so that a
# chain can test one at its head itself.
_ID_TESTS = (A.IdEq, A.IdNeq)


def _check(part: Part) -> Check:
    # A lone id comparison is the chain ``test or false``.
    return _id_head(part, _false, stop=True) if type(part) in _ID_TESTS else part


def _false(ctx: EvalContext, env: Env) -> bool:
    return False


def _id_head(test: A.IdEq | A.IdNeq, rest: Check, stop: bool) -> Check:
    """``test or rest`` (``stop`` True) or ``test and rest`` (False): the
    ids are compared inline and ``rest`` runs only if they do not settle it.

    The closure keeps (test, rest, stop) as ``id_head``, so that a
    quantifier over its body can run the comparison in its own fold."""
    lhs, rhs = test.lhs, test.rhs
    settles_on_equal = (type(test) is A.IdEq) == stop

    def check(ctx: EvalContext, env: Env) -> bool:
        objects = env.objects
        if (objects[lhs].object_id == objects[rhs].object_id) is settles_on_equal:
            return stop
        return rest(ctx, env)
    check.id_head = (test, rest, stop)
    return check


def _chain(parts: list[Part], stop: bool) -> Part:
    """Left to right, stopping at the first part whose value is ``stop``: the
    disjunction of ``parts`` with ``stop`` True, their conjunction with False."""
    if len(parts) == 1:
        return parts[0]
    if type(parts[0]) in _ID_TESTS:
        return _id_head(parts[0], _check(_chain(parts[1:], stop)), stop)
    parts = [_check(part) for part in parts]
    if len(parts) == 2:
        # Run once per outer assignment on ``phi1`` and ``phi2``.
        first, second = parts
        if stop:
            def check(ctx: EvalContext, env: Env) -> bool:
                return first(ctx, env) or second(ctx, env)
        else:
            def check(ctx: EvalContext, env: Env) -> bool:
                return first(ctx, env) and second(ctx, env)
        return check
    parts = tuple(parts)

    # Every compiled check returns a bool, so ``is`` compares values.
    def check(ctx: EvalContext, env: Env) -> bool:
        for part in parts:
            if part(ctx, env) is stop:
                return stop
        return not stop
    return check


def _not(c: _Compiler, phi: A.Not) -> Part:
    return _chain([_negated(c, part.child) if type(part) is A.Not else c.part(part)
                   for part in conjuncts(phi)], stop=False)


def _negated(c: _Compiler, leaf: A.Formula) -> Part:
    """``not leaf``, for a ``leaf`` that is neither an ``or`` nor a ``not``.

    The id comparisons are each other's complement. Other atoms have none:
    ``prob``/``class`` are false when the id is absent and a ratio atom is
    false on a zero denominator.
    """
    kind = type(leaf)
    if kind is A.IdEq or kind is A.IdNeq:
        return (A.IdNeq if kind is A.IdEq else A.IdEq)(leaf.lhs, leaf.rhs)
    child = c.formula(leaf)

    def check(ctx: EvalContext, env: Env) -> bool:
        return not child(ctx, env)
    return check


def _or(c: _Compiler, phi: A.Or) -> Part:
    return _chain([c.part(part) for part in disjuncts(phi)], stop=True)


def _next_prev(c: _Compiler, phi: A.Next | A.Prev) -> Check:
    child = c.formula(phi.child)
    step = 1 if type(phi) is A.Next else -1

    def check(ctx: EvalContext, env: Env) -> bool:
        j = ctx.index + step
        if not 0 <= j < len(ctx.trace):
            return False
        return child(ctx.at(j), env)
    return check


_TEMPORAL = (A.Next, A.Prev, A.Until, A.Since)
# Atoms that read the box captured where their object variables were bound.
_BOX_ATOMS = (A.SpatialExists, A.AreaCmpConst, A.AreaCmpRatio, A.EDCmp,
              A.OffsetCmpConst, A.OffsetCmpRatio)


def _summary_ids(parts: Sequence[A.Formula]) -> tuple[str, ...] | None:
    """The object variables whose ids key a summary of ``parts``, or None.

    A summary needs parts whose value at a frame depends on that frame and
    on the ids bound to their free object variables alone: no temporal
    operator, no free time or frame variable, and no box atom reading a
    free object variable (``prob``/``class``/``==``/``!=`` re-resolve the
    id). Bindings never shadow, so a variable free in a part is bound
    outside it; box atoms over variables bound inside read that frame.
    """
    free = frozenset().union(*(free_variables(part) for part in parts))
    for part in parts:
        for sub in A.subformulas(part):
            if isinstance(sub, _TEMPORAL):
                return None
            if isinstance(sub, (A.TimeConstraint, A.FrameConstraint)) and sub.var in free:
                return None
            if isinstance(sub, _BOX_ATOMS) and free_variables(sub) & free:
                return None
    return tuple(sorted(free))


def _summary_key(node: A.Formula, variables: tuple[str, ...]) -> Callable[[Env], tuple]:
    """The table key of ``node`` under the ids the environment binds to ``variables``."""
    node_id = id(node)
    if not variables:
        closed = (node_id, ())
        return lambda env: closed
    if len(variables) == 1:
        var = variables[0]
        return lambda env: (node_id, (env.objects[var].object_id,))

    def key(env: Env) -> tuple:
        objects = env.objects
        return node_id, tuple([objects[var].object_id for var in variables])
    return key


class _Witnesses:
    """Summary entries of one node for one tuple of ids, at stream indices
    base, base + 1, ...

    ``latest[k - base]`` is the latest witness j in [lower, k] (right
    operand at j, left operand on all of [j, k]) or -1. Entries depend on
    frames and ids only, so they stay valid for every later window, and
    they answer for the frames [low, k] whenever low >= lower.
    """

    __slots__ = ("lower", "base", "latest")

    def __init__(self, lower: int, base: int, found: int):
        self.lower = lower
        self.base = base
        self.latest = [found]


def _latest(ctx: EvalContext, env: Env, key: tuple, lhs: Check | None, rhs: Check,
            lower: int, target: int) -> int:
    """The latest witness in [lower, target], or -1, from the entry under ``key``.

    Stream indices; ``target`` is at most the window's end and a None
    ``lhs`` is true. An entry that covers the query is extended to
    ``target`` by the Havelund-Rosu recurrence, one evaluation of each
    operand per frame. Otherwise a new one is seeded at ``target`` by the
    scan back from it, which stops at its first decision as the plain
    ``since`` scan does. With ``lower > target`` (a guard no frame meets)
    the range is empty and the answer is below ``lower``.
    """
    start = ctx.offset
    summaries = ctx.summaries
    entry = summaries.get(key)
    if (entry is None or lower < entry.lower or target < entry.base
            or entry.base + len(entry.latest) < start):
        found = -1
        for k in range(target, lower - 1, -1):
            here = ctx.at(k - start)
            if lhs is not None and not lhs(here, env):
                break
            if rhs(here, env):
                found = k
                break
        summaries[key] = _Witnesses(lower, target, found)
        return found
    latest, base = entry.latest, entry.base
    for k in range(base + len(latest), target + 1):
        here = ctx.at(k - start)
        if lhs is not None and not lhs(here, env):
            latest.append(-1)
        else:
            latest.append(k if rhs(here, env) else latest[-1])
    return latest[target - base]


def trim_summaries(summaries: dict, start: int) -> None:
    """Trim a summary table to a window that starts at stream index ``start``.

    Entries that end before it are dropped: their ids have left the window,
    or a later query seeds them afresh. The others keep the entries from
    ``start - 1`` on, the predecessor of the first one a query can need.
    """
    dead = []
    for key, entry in summaries.items():
        base, latest = entry.base, entry.latest
        if base + len(latest) <= start:
            dead.append(key)
        elif base < start - 1:
            del latest[: start - 1 - base]
            entry.base = start - 1
    for key in dead:
        del summaries[key]


def _guarded_idiom(phi: A.Freeze):
    """The frame-guarded pin idiom under ``phi``, or None.

    The idiom is ``pin (_, f) { X }`` or ``pin (_, f) { not X }`` where X is
    ``true until R`` or ``true since R`` and the conjuncts of R are a
    frame-distance guard on ``f`` (``bounds.frame_guard``, which also sizes
    the window) and at least one part that reads neither ``f`` nor the
    pinned time. It is what ``always (C_FRAME - f <= k implies p)`` and
    ``once (f - C_FRAME < k and p)`` desugar to. The pin's body and the left
    operand are read through ``bounds.bare``, as the conjuncts of R are.
    Returns (operator, negated, reach, parts).
    """
    frame_var, child = phi.frame_var, bare(phi.child)
    negated = type(child) is A.Not
    op = child.child if negated else child
    if (frame_var is None or type(op) not in (A.Until, A.Since)
            or type(bare(op.lhs)) is not A.TrueConst):
        return None
    if phi.time_var is not None and phi.time_var in free_variables(child):
        return None
    guard = frame_guard(op.rhs, frozenset((frame_var,)), future=type(op) is A.Until)
    if guard is None or not guard[1] or any(frame_var in free_variables(part) for part in guard[1]):
        return None
    return op, negated, guard[0], guard[1]


# The reach of an unguarded ``until``/``since``: past the end of any window.
_UNBOUNDED = sys.maxsize


def _temporal(c: _Compiler, node: A.Formula, idiom: tuple | None = None) -> Check:
    """``lhs until/since R``, R a conjunction of parts, with the witness at
    most ``reach`` frames away, optionally negated.

    A plain ``until``/``since`` is ``node`` itself with an unbounded reach
    and its right operand as the only part; a guarded idiom (see
    ``_guarded_idiom``) brings its operator, negation, reach and parts, and
    ``node`` is its pin. At frame i the witness is a frame j in [i, i +
    reach] for ``until``, in [i - reach, i] for ``since``, clipped to the
    visible trace, where the parts hold together, with ``lhs`` on every
    frame from i through j. With a summary (see ``_summary_ids``; for
    ``until`` only with a bounded reach, i.e. a guarded idiom, whose ``lhs``
    is true) that is the latest witness in those frames, keyed by the ids
    of the operands' free object variables; otherwise the frames are
    scanned in the operator's own order.
    """
    op, negated, reach, parts = idiom or (node, False, _UNBOUNDED, (node.rhs,))
    forward = type(op) is A.Until
    true_lhs = type(bare(op.lhs)) is A.TrueConst
    variables = _summary_ids((op.lhs, *parts)) if idiom or not forward else None
    c.plan.append(variables)
    lhs = None if true_lhs else c.formula(op.lhs)
    body = _check(_chain([c.part(part) for part in parts], stop=False))
    if variables is None:
        def check(ctx: EvalContext, env: Env) -> bool:
            i = ctx.index
            if forward:
                frames = range(i, min(i + reach, len(ctx.trace) - 1) + 1)
            else:
                frames = range(i, max(i - reach, 0) - 1, -1)
            for j in frames:
                here = ctx.at(j)
                if lhs is not None and not lhs(here, env):
                    return negated
                if body(here, env):
                    return not negated
            return negated
        return check
    key = _summary_key(node, variables)

    def check(ctx: EvalContext, env: Env) -> bool:
        i, start = ctx.index, ctx.offset
        if forward:
            lo, hi = i, min(i + reach, len(ctx.trace) - 1)
        else:
            lo, hi = max(i - reach, 0), i
        lower = start + lo
        return (_latest(ctx, env, key(env), lhs, body, lower, start + hi) >= lower) != negated
    return check


def _freeze(c: _Compiler, phi: A.Freeze) -> Check:
    idiom = _guarded_idiom(phi)
    if idiom is not None:
        return _temporal(c, phi, idiom)
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
    variables = phi.variables
    child = c.formula(phi.child)
    lookup = _lookup(child, variables)
    c.lookups.append(lookup is not None)
    if lookup is not None:
        return lookup
    fold, size = _fold(child, variables), len(variables)

    def check(ctx: EvalContext, env: Env) -> bool:
        frame = ctx.trace[ctx.index]
        if not frame.objects:
            return False
        result = fold(ctx, env, frame)
        if ctx.stats is not None:
            ctx.stats.assignments += len(frame.objects) ** size
        return result
    return check


def _lookup(child: Check, variables: Sequence[str]) -> Check | None:
    """``exists {v} @ (v == w and rest)``, ``w`` bound outside, as one
    lookup of ``w``'s id in the frame, or None for any other quantifier.

    A frame's objects are keyed by id, so the one assignment the head
    comparison does not settle to false is the object with ``w``'s id, if
    the frame holds it; ``rest`` runs on it alone. The ``forall`` duals
    ``forall {v} @ (v != w or p)`` and ``forall {v} @ (v == w implies p)``
    compile to this shape. The lookup counts as one assignment.
    """
    test, rest, stop = getattr(child, "id_head", (None, None, None))
    if (len(variables) != 1 or type(test) is not A.IdEq or stop
            or (test.lhs == variables[0]) == (test.rhs == variables[0])):
        return None
    var = variables[0]
    outer = test.rhs if test.lhs == var else test.lhs

    def check(ctx: EvalContext, env: Env) -> bool:
        objects = env.objects
        obj = ctx.trace[ctx.index].objects.get(objects[outer].object_id)
        if ctx.stats is not None:
            ctx.stats.assignments += 1
        if obj is None:
            return False
        return rest(ctx, Env(env.time_pins, env.frame_pins, {**objects, var: obj}))
    return check


def _fold(child: Check, variables: Sequence[str]) -> Callable[[EvalContext, Env, Frame], bool]:
    """Whether ``child`` holds under some assignment of ``frame``'s objects
    to ``variables``, bound in place in one copy of the captured objects.

    Every assignment is enumerated, with no early exit, and the result is
    independent of enumeration order (``_lookup`` takes ``v == w and ...``,
    where one assignment decides). A one-variable body whose chain starts
    with an id comparison of the variable with one bound outside
    (``_id_head``) reads the outer id once and binds and runs the rest of
    the chain only for the assignments the comparison does not settle.
    """
    if len(variables) > 1:
        def fold(ctx: EvalContext, env: Env, frame: Frame) -> bool:
            objects = dict(env.objects)
            inner = Env(env.time_pins, env.frame_pins, objects)
            result = False
            for combo in quantifier_assignments(variables, frame):
                objects.update(zip(variables, combo))
                if child(ctx, inner):
                    result = True
            return result
        return fold
    var = variables[0]
    test, rest, stop = getattr(child, "id_head", (None, None, None))
    if test is None or (test.lhs == var) == (test.rhs == var):
        def fold(ctx: EvalContext, env: Env, frame: Frame) -> bool:
            objects = dict(env.objects)
            inner = Env(env.time_pins, env.frame_pins, objects)
            result = False
            for (obj,) in quantifier_assignments(variables, frame):
                objects[var] = obj
                if child(ctx, inner):
                    result = True
            return result
        return fold
    outer = test.rhs if test.lhs == var else test.lhs

    def bound(env: Env) -> tuple[dict, Env, int]:
        objects = dict(env.objects)
        return objects, Env(env.time_pins, env.frame_pins, objects), objects[outer].object_id
    # One closure per outcome that settles the chain, so that the loop, run
    # n^2 times per frame on ``phi2``, tests a plain comparison; a settled
    # assignment's body is ``stop``. ``v == w and rest`` is ``_lookup``'s,
    # so a chain that differing ids settle is ``v != w or rest``.
    if (type(test) is A.IdEq) == stop:
        def fold(ctx: EvalContext, env: Env, frame: Frame) -> bool:
            objects, inner, outer_id = bound(env)
            result = settled = False
            for (obj,) in quantifier_assignments(variables, frame):
                if obj.object_id == outer_id:
                    settled = True
                else:
                    objects[var] = obj
                    if rest(ctx, inner):
                        result = True
            return result or (stop and settled)
    else:
        def fold(ctx: EvalContext, env: Env, frame: Frame) -> bool:
            objects, inner, outer_id = bound(env)
            result = settled = False
            for (obj,) in quantifier_assignments(variables, frame):
                if obj.object_id != outer_id:
                    settled = True
                else:
                    objects[var] = obj
                    if rest(ctx, inner):
                        result = True
            return result or settled
    return fold


# --- atoms -------------------------------------------------------------------
# Each reads its captured objects and pins with a plain ``env.objects[name]``
# or ``env.time_pins[name]``: ``evaluate`` checks every read is bound before
# the program runs (``_require_bound``).

def _time_constraint(c: _Compiler, phi: A.TimeConstraint) -> Check:
    var, op, bound = phi.var, phi.cmp.function, phi.bound

    def check(ctx: EvalContext, env: Env) -> bool:
        return op(env.time_pins[var] - ctx.trace[ctx.index].timestamp, bound)
    return check


def _frame_constraint(c: _Compiler, phi: A.FrameConstraint) -> Check:
    var, op, bound = phi.var, phi.cmp.function, phi.bound

    def check(ctx: EvalContext, env: Env) -> bool:
        return op(env.frame_pins[var] - ctx.index, bound)
    return check


def _id_cmp(c: _Compiler, phi: A.IdEq | A.IdNeq) -> A.IdEq | A.IdNeq:
    return phi


def _class_eq_const(c: _Compiler, phi: A.ClassEqConst) -> Check:
    var, label = phi.var, phi.label

    def check(ctx: EvalContext, env: Env) -> bool:
        current = ctx.trace[ctx.index].objects.get(env.objects[var].object_id)
        return current is not None and current.class_label == label
    return check


def _class_eq_var(c: _Compiler, phi: A.ClassEqVar) -> Check:
    lhs_var, rhs_var = phi.lhs, phi.rhs

    def check(ctx: EvalContext, env: Env) -> bool:
        objects = env.objects
        lhs_id, rhs_id = objects[lhs_var].object_id, objects[rhs_var].object_id
        current = ctx.trace[ctx.index].objects
        lhs, rhs = current.get(lhs_id), current.get(rhs_id)
        return lhs is not None and rhs is not None and lhs.class_label == rhs.class_label
    return check


def _prob_const(c: _Compiler, phi: A.ProbCmpConst) -> Check:
    var, op, bound = phi.var, phi.cmp.function, phi.bound

    def check(ctx: EvalContext, env: Env) -> bool:
        current = ctx.trace[ctx.index].objects.get(env.objects[var].object_id)
        return current is not None and op(current.confidence, bound)
    return check


def _prob_ratio(c: _Compiler, phi: A.ProbCmpRatio) -> Check:
    lhs_var, rhs_var, op, ratio = phi.lhs, phi.rhs, phi.cmp.function, phi.ratio
    what = f"prob({rhs_var})"
    ratio_ok = c.ratio_rhs_ok

    def check(ctx: EvalContext, env: Env) -> bool:
        objects = env.objects
        lhs_id, rhs_id = objects[lhs_var].object_id, objects[rhs_var].object_id
        current = ctx.trace[ctx.index].objects
        lhs, rhs = current.get(lhs_id), current.get(rhs_id)
        if lhs is None or rhs is None:
            return False
        if not ratio_ok(rhs.confidence, what):
            return False
        return op(lhs.confidence, ratio * rhs.confidence)
    return check


def _spatial_exists(c: _Compiler, phi: A.SpatialExists) -> Check:
    nonempty, universe = c.measure(phi.term, area=False), c.universe

    def check(ctx: EvalContext, env: Env) -> bool:
        return nonempty(universe(ctx), env)
    return check


def _area_const(c: _Compiler, phi: A.AreaCmpConst) -> Check:
    area, op, bound = c.measure(phi.term, area=True), phi.cmp.function, phi.bound
    universe = c.universe

    def check(ctx: EvalContext, env: Env) -> bool:
        return op(area(universe(ctx), env), bound)
    return check


def _area_ratio(c: _Compiler, phi: A.AreaCmpRatio) -> Check:
    lhs, rhs = c.measure(phi.lhs, area=True), c.measure(phi.rhs, area=True)
    op, ratio = phi.cmp.function, phi.ratio
    ratio_ok, universe_of = c.ratio_rhs_ok, c.universe

    def check(ctx: EvalContext, env: Env) -> bool:
        universe = universe_of(ctx)
        rhs_area = rhs(universe, env)
        if not ratio_ok(rhs_area, "area"):
            return False
        return op(lhs(universe, env), ratio * rhs_area)
    return check


def _ed(c: _Compiler, phi: A.EDCmp) -> Check:
    lhs, lhs_ref, rhs, rhs_ref = phi.lhs, phi.lhs_ref, phi.rhs, phi.rhs_ref
    op, bound = phi.cmp.function, phi.bound
    lhs_x, lhs_y = _coordinate(A.Axis.LAT, lhs_ref), _coordinate(A.Axis.LON, lhs_ref)
    rhs_x, rhs_y = _coordinate(A.Axis.LAT, rhs_ref), _coordinate(A.Axis.LON, rhs_ref)

    def check(ctx: EvalContext, env: Env) -> bool:
        objects = env.objects
        lhs_box, rhs_box = objects[lhs].bbox, objects[rhs].bbox
        dx = lhs_x(lhs_box) - rhs_x(rhs_box)
        return op(math.hypot(dx, lhs_y(lhs_box) - rhs_y(rhs_box)), bound)
    return check


def _offset_const(c: _Compiler, phi: A.OffsetCmpConst) -> Check:
    var, coordinate = phi.term.var, _coordinate(phi.term.axis, phi.term.ref)
    op, bound = phi.cmp.function, phi.bound

    def check(ctx: EvalContext, env: Env) -> bool:
        return op(coordinate(env.objects[var].bbox), bound)
    return check


def _offset_ratio(c: _Compiler, phi: A.OffsetCmpRatio) -> Check:
    lhs_var, lhs_coordinate = phi.lhs.var, _coordinate(phi.lhs.axis, phi.lhs.ref)
    rhs_var, rhs_coordinate = phi.rhs.var, _coordinate(phi.rhs.axis, phi.rhs.ref)
    op, ratio = phi.cmp.function, phi.ratio
    what = f"{phi.rhs.axis.value}({rhs_var})"
    ratio_ok = c.ratio_rhs_ok

    def check(ctx: EvalContext, env: Env) -> bool:
        objects = env.objects
        rhs_value = rhs_coordinate(objects[rhs_var].bbox)
        if not ratio_ok(rhs_value, what):
            return False
        return op(lhs_coordinate(objects[lhs_var].bbox), ratio * rhs_value)
    return check


_FORMULA_BUILDERS: dict[type, Callable[[_Compiler, A.Formula], Part]] = {
    A.TrueConst: _true,
    A.Not: _not,
    A.Or: _or,
    A.Next: _next_prev,
    A.Prev: _next_prev,
    A.Until: _temporal,
    A.Since: _temporal,
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
# call time, so that the layer can be wrapped from outside. Box terms call
# ``spatial.box_meet`` the same way.

def _box_variables(term: A.SpatialTerm) -> tuple[str, ...] | None:
    """The variables of the boxes ``term`` intersects, in reading order, if
    it is built from ``bbox``, ``universe`` and ``&`` alone; else None."""
    kind = type(term)
    if kind is A.BBoxOf:
        return (term.var,)
    if kind is A.UniverseSet:
        return ()
    if kind is A.SpatialIntersect:
        lhs, rhs = _box_variables(term.lhs), _box_variables(term.rhs)
        if lhs is not None and rhs is not None:
            return lhs + rhs
    return None


def _box_measure(variables: tuple[str, ...], area: bool) -> Measure:
    """The area, or nonemptiness, of the meet of the universe and the boxes
    captured for ``variables``: one ``spatial.box_meet``, then a product or
    a None test, equal to what the ``Region`` operations give."""
    def measure(universe: Universe, env: Env):
        objects = env.objects
        box = spatial.box_meet([objects[var].bbox for var in variables], universe)
        if not area:
            return box is not None
        # ``area`` of the empty region is the empty sum, 0.
        return 0 if box is None else (box.xmax - box.xmin) * (box.ymax - box.ymin)
    return measure


def _constant_set(c: _Compiler, term: A.EmptySet | A.UniverseSet) -> Term:
    name = "empty_region" if type(term) is A.EmptySet else "full_region"

    def region(universe: Universe, env: Env) -> Region:
        return getattr(spatial, name)(universe)
    return region


def _bbox_of(c: _Compiler, term: A.BBoxOf) -> Term:
    var = term.var

    def region(universe: Universe, env: Env) -> Region:
        return spatial.from_box(env.objects[var].bbox, universe)
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


def describe_temporal(phi: A.Formula) -> str:
    """One line on how each ``until``/``since`` of a desugared formula runs.

    For example ``temporal: 1 closed summary, 1 per-id summary over {b},
    0 scans``. It is read from the plan the compiler records as it decides,
    so it says what the evaluator does. ``next``/``prev`` are single steps
    and not counted.
    """
    plan = _compiled(phi).plan
    per_id = [ids for ids in plan if ids]
    line = (f"temporal: {_count(plan.count(()), 'closed summary', 'closed summaries')}, "
            f"{_count(len(per_id), 'per-id summary', 'per-id summaries')}")
    if per_id:
        line += " over " + ", ".join("{" + ", ".join(ids) + "}" for ids in per_id)
    return f"{line}, {_count(plan.count(None), 'scan', 'scans')}"


def describe_spatial(phi: A.Formula) -> str:
    """One line on how the spatial terms of a desugared formula's atoms run,
    for example ``spatial: 2 box terms, 0 region terms``: a box term is one
    ``spatial.box_meet``, a region term the ``Region`` algebra. Read from the
    compiler's plan, as ``describe_temporal`` is."""
    box_terms = _compiled(phi).box_terms
    return (f"spatial: {_count(box_terms.count(True), 'box term', 'box terms')}, "
            f"{_count(box_terms.count(False), 'region term', 'region terms')}")


def describe_quantifiers(phi: A.Formula) -> str:
    """One line on how the object quantifiers of a desugared formula run,
    for example ``quantifiers: 1 id lookup, 1 enumeration``: an id lookup
    is one ``_lookup``, an enumeration a fold over every assignment. Read
    from the compiler's plan, as ``describe_temporal`` is."""
    lookups = _compiled(phi).lookups
    return (f"quantifiers: {_count(lookups.count(True), 'id lookup', 'id lookups')}, "
            f"{_count(lookups.count(False), 'enumeration', 'enumerations')}")


def _compiled(phi: A.Formula) -> _Compiler:
    compiler = _Compiler()
    compiler.formula(phi)
    return compiler


def _count(n: int, noun: str, plural: str) -> str:
    return f"{n} {noun if n == 1 else plural}"


def eval_spatial(term: A.SpatialTerm, ctx: EvalContext, env: Env) -> Region:
    """Evaluate a core spatial term within the current frame's universe."""
    _require_bound(unbound_reads(term), env)
    compiler = _Compiler()
    return compiler.term(term)(compiler.universe(ctx), env)


# Compiled programs by formula identity, with the variables each reads
# unbound. Each entry holds its formula, so the identity cannot be reused by
# another object while the entry exists.
_PROGRAMS_MAX = 64
_programs: dict[int, tuple[A.Formula, Check, list[tuple[str, str]]]] = {}


def evaluate(phi: A.Formula, ctx: EvalContext, env: Env = EMPTY_ENV) -> bool:
    """Boolean quality of a desugared formula at ``ctx.index``.

    The formula is compiled on first use and its program kept for later
    calls with the same formula object. A variable that ``phi`` reads but
    neither it nor ``env`` binds raises ``ContractViolation`` before any
    frame is evaluated; a closed formula is checked once, at compile time.
    The temporal summaries are read from and added to ``ctx.summaries``.
    """
    entry = _programs.get(id(phi))
    if entry is None:
        program = _Compiler().formula(phi)
        if len(_programs) >= _PROGRAMS_MAX:
            del _programs[next(iter(_programs))]
        entry = _programs[id(phi)] = (phi, program, unbound_reads(phi))
    if entry[2]:
        _require_bound(entry[2], env)
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
    Window starts never move backwards, so one summary table serves every
    verdict, and a window that is the whole trace is ``frames`` itself.
    """
    frames = list(frames)
    n = len(frames)
    summaries: dict = {}
    out: list[bool] = []
    for i in range(n):
        lo = 0 if history is None else max(0, i - history)
        hi = n - 1 if horizon is None else min(n - 1, i + horizon)
        window = frames if hi - lo == n - 1 else frames[lo : hi + 1]
        out.append(evaluate(phi, EvalContext(window, i - lo, stats, lo, summaries)))
    return out
