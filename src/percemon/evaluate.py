"""Boolean evaluation of core formulas over finite traces.

This is the offline semantics: ``evaluate_trace`` gives the verdict of
every frame of a trace, and the online monitor runs the same programs over
its window. A formula is compiled once into the source of one Python
program, which ``compile`` and ``exec`` build, and ``evaluate`` looks up
the program of the formula object and calls it. The program lives exactly
as long as the formula object: when the formula is collected, its program
and its ``linecache`` lines go too. One formula always compiles to the same
source text.

The program is straight-line code. Captured objects and the pins that are
read are Python locals; an ``or`` chain, however associated, and the
conjunction ``not (a or b or ...)`` that ``and`` and a ``forall`` body
desugar to are Python's own short-circuit ``or`` and ``and`` over their
flattened parts (``bounds.disjuncts``/``bounds.conjuncts``, as the window
analysis reads them), evaluated left to right. The compiler reads
``desugar``'s canonical core, which has no ``not not``, no negated id
comparison and no pin that nothing reads. Any other core formula compiles
too: each such wrapper runs as the operator it is, and a guarded idiom or
id lookup that one hides runs as the plain scan or enumeration.

Each enumerating quantifier, each scanned ``until``/``since`` and each
operand of a summarized one is a top-level function of the program, named
after its node kind and compile order (``exists_3``, ``since_rhs_7``) and
passed the captured objects and pins it reads. So is an expression that
would nest deeper than CPython's parser allows (``part_N``, ``region_N``).
The source is registered with ``linecache`` as ``<percemon program N>``,
so tracebacks, ``pdb`` and ``cProfile`` show the generated lines and
functions.

The program calls ``quantifier_assignments``, ``EvalContext.at`` and the
public ``spatial`` functions, looked up at call time through their module
or class, so that the layers can be wrapped from outside. Each time it is
evaluated, an enumerating quantifier calls ``quantifier_assignments`` once
and a box term ``spatial.meet_area`` once.
``EvalContext.at`` builds the context of each frame a scan or a summary
visits, and of each ``prev``/``next`` step scope: all steps of one scope in
one direction share one context, built from the function's own ``ctx`` by
the first step that reaches it and reads the scope. That is at most once
per call of the function, or per frame a scan visits, however many
quantifier assignments reach the step. A scope binds only its index, its
context and, outside a step, its frame; a step scope reads its frame as
``trace[i]``. A step whose operand reads nothing of its frame, such as
``prev true``, is its index test alone.

Every ``until`` and ``since`` is one node: ``lhs until/since R``, with the
witness at most a reach of frames away, optionally negated. At frame i a
witness is a frame where R holds, with ``lhs`` at every frame from i up to
and including it, within the visible trace and the reach. A plain
``until``/``since`` has an unbounded reach. A pin that only a
frame-distance guard reads, over ``until``/``since`` with a true left
operand, is the guarded idiom of ``always (C_FRAME - f <= k implies p)``
and ``once (f - C_FRAME < k and p)``: it is the same node with the guard's
reach and the rest of R, with no pin left (see ``_guarded_idiom``).

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
trace slicing. An entry is keyed by the node's generated ``rhs`` operand
function and the ids, a live reference that no other program can reuse.
Un-negated, the node holds when the latest witness at the last visible
frame of its reach lies within the reach (for a guarded ``always`` the
witness is a failure of ``p``). A closed node is the case with no ids. An
``until`` with an unbounded reach keeps the scan: the query would end at
the last visible frame, so each new id would be seeded by a walk back from
there, about the whole trace per id offline, where the scan forward from
the evaluated frame often stops at once. The truncated-window semantics
are unchanged: a witness outside the window does not count.

An ``EvalContext`` carries the table of these entries together with the
window's stream offset. One table serves one stream: ``evaluate_trace``
shares one across its verdicts, and the monitor keeps one context for the
life of a stream, over its buffer and with the table, moves it to each
verdict's index and offset, and trims the table only when its window start
moves (``trim_summaries``), so each verdict costs one step per summarized
node and id tuple however long the window is. A new entry is seeded by the plain scan back from the frame it
is first needed at, so a new track costs what the scan would. A context
built without a table gets an empty one of its own.

A one-variable ``exists {v} @ (v == w and rest)``, ``w`` bound outside, and
its ``forall`` duals ``forall {v} @ (v != w or p)`` and ``forall {v} @ (v
== w implies p)`` are one lookup of ``w``'s id in the frame (``lookup_N``):
the frame's objects are keyed by id, so the object with that id, if
present, is the only assignment the comparison does not settle to false,
and ``rest`` runs on it alone. It counts as one assignment in
``EvalStats`` and calls no ``quantifier_assignments``. Any other
quantifier enumerates every assignment.

A spatial term built only from ``bbox``, ``universe`` and ``&`` is at most
one rectangle. Such a box term compiles to one ``spatial.meet_area`` call,
which returns the area of the clipped intersection, one product, or None
when it has no area, and builds no rectangle; ``area`` reads None as 0 and
``nonempty`` is a None test, bit for bit what the ``Region`` operations
give. Terms with ``~``, ``|`` or ``empty`` run through the ``Region``
algebra. Both read the universe, the frame's image, from the frame the
scope already holds.

Conventions for finite traces and partial data:

* ``next`` at the last frame and ``prev`` at the first frame are false: a
  verdict never asserts facts about frames that do not exist.
* An object quantifier ranges over the objects of the frame at which the
  quantifier is evaluated. Each bound variable captures the object
  snapshot (id, class, confidence, box) from that frame; tuples may repeat
  objects. A quantifier that enumerates evaluates every assignment (an
  order-independent fold, no early exit), so its cost scales with the
  domain, as the ``probe`` specs measure; an id lookup costs one dict probe
  and the body on at most one object.
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
import linecache
import logging
import math
import sys
import weakref
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from . import spatial
from .errors import ContractViolation
from .stql import ast as A
from .stql.bindings import FRAME, OBJECT, TIME, free_variables, unbound_reads
from .stql.bounds import conjuncts, disjuncts, frame_guard
from .trace import DetectedObject, Frame

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
    temporal summaries of one formula over one stream, keyed by (the node's
    generated ``rhs`` operand function, tuple of the object ids bound to the
    node's free object variables); closed nodes have the empty tuple. The
    caller owns it and passes it again with every later window of that
    stream, whose start may only move forward, and may drop what the window
    no longer needs with ``trim_summaries``. With None, the context gets an
    empty table of its own.
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
    return itertools.product(frame.objects.values(), repeat=len(variables))


def _coordinate(axis: A.Axis, ref: A.ReferencePoint) -> tuple[str, ...]:
    """The box fields whose mean is the ``axis`` coordinate of a named
    reference point: one edge, or both for the midpoint."""
    low, high = ("xmin", "xmax") if axis is A.Axis.LAT else ("ymin", "ymax")
    if ref is (A.ReferencePoint.LM if axis is A.Axis.LAT else A.ReferencePoint.TM):
        return (low,)
    if ref is (A.ReferencePoint.RM if axis is A.Axis.LAT else A.ReferencePoint.BM):
        return (high,)
    return low, high


# The ``Env`` map that binds each kind of variable.
_ENV_MAPS = {OBJECT: "objects", TIME: "time_pins", FRAME: "frame_pins"}


def _require_bound(reads: list[tuple[str, str]], env: Env) -> None:
    """Raise for the first of ``reads`` (``bindings.unbound_reads`` of the
    evaluated node) that ``env`` does not bind in its kind."""
    for name, kind in reads:
        if name not in getattr(env, _ENV_MAPS[kind]):
            raise ContractViolation(f"{kind} variable {name!r} is unbound; run check_bindings first")


# CPython rejects more than 200 nested parentheses; an expression more than
# this many formula or term levels deep is split into a function of its own.
_MAX_DEPTH = 40


class _Function:
    """One generated function: its name, fixed parameters, the locals it
    reads from its caller (``captured``, passed after the fixed ones),
    the object ids of those it reads (``hoisted``), and its root scope.
    ``head`` lines come first; ``env`` names the locals an operand function
    unpacks from its ``env`` argument instead of taking them as
    parameters."""

    def __init__(self, name: str, params: tuple[str, ...]):
        self.name = name
        self.params = params
        self.captured: list[str] = []
        self.hoisted: dict[str, str] = {}
        self.head: list[str] = []
        self.env: list[str] | None = None
        self.trace = False
        self.root: _Scope


class _Scope:
    """A frame in a generated function: the local names of its index and
    context; a root or scan scope also binds its frame, if read.

    A root scope reads its index from the function's ``ctx`` once per call,
    and a scan binds its scope once per frame it visits. A step scope is
    the frame before (``shift`` "-") or after ("+") its parent's, one per
    parent and direction (``steps``), shared by every ``prev`` or ``next``
    of that parent. Its index and an unbuilt context are bound with the
    binding of its nearest root or scan scope; its context is built by the
    first step that reaches it and reads the scope, so at most once per
    binding of its parent, and its frame is read as ``trace[i_N]``."""

    __slots__ = ("fn", "ctx", "n", "root", "reads", "shift", "steps", "used")

    def __init__(self, fn: _Function, ctx: str, n: int, root: bool, shift: str | None = None):
        self.fn, self.ctx, self.n, self.root, self.shift = fn, ctx, n, root, shift
        self.reads: set[str] = set()
        self.steps: dict[str, _Scope] = {}
        # Whether the scope was read since ``step`` last cleared this.
        self.used = False

    def context(self) -> str:
        self.used = True
        self.reads.add("ctx")
        return self.ctx

    def index(self) -> str:
        self.reads.add("index")
        return f"i_{self.n}"

    def frame(self) -> str:
        index = self.index()
        self.fn.trace = self.used = True
        self.reads.add("frame")
        return f"frame_{self.n}" if self.shift is None else f"trace[{index}]"

    def binds(self) -> list[tuple[str, str]]:
        """(local, value) for each name a root or scan scope's binding sets,
        in binding order: its own names, then the index and unbuilt context
        of each step scope below it."""
        out = []
        if self.root and "index" in self.reads:
            out.append((f"i_{self.n}", f"{self.ctx}.index"))
        if "frame" in self.reads:
            out.append((f"frame_{self.n}", f"trace[i_{self.n}]"))
        return out + self.step_binds()

    def step_binds(self) -> list[tuple[str, str]]:
        out = []
        for step in self.steps.values():
            if "index" in step.reads:
                out.append((f"i_{step.n}", f"i_{self.n} {step.shift} 1"))
            if "ctx" in step.reads:
                out.append((step.ctx, "None"))
            out += step.step_binds()
        return out


def _join(parts: list[str], op: str) -> str:
    return parts[0] if len(parts) == 1 else "(" + f" {op} ".join(parts) + ")"


def _tuple(items: list[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _lookup(variables: tuple[str, ...], parts: list[A.Formula]):
    """The outer variable ``w`` and the rest of the chain, for ``exists {v} @
    (v == w and rest)`` with the body's conjuncts ``parts``, or None for any
    other quantifier.

    A frame's objects are keyed by id, so the one assignment the head
    comparison does not settle to false is the object with ``w``'s id, if
    the frame holds it. The ``forall`` duals ``forall {v} @ (v != w or p)``
    and ``forall {v} @ (v == w implies p)`` desugar to this shape.
    """
    if len(variables) != 1 or len(parts) < 2:
        return None
    test, var = parts[0], variables[0]
    if type(test) is not A.IdEq or (test.lhs == var) == (test.rhs == var):
        return None
    return (test.rhs if test.lhs == var else test.lhs), parts[1:]


class _Compiler:
    """Emits the program of one formula and owns its per-program state, the
    warn-once messages, which the program reads as ``_c``. ``plan`` lists, per ``until``/``since`` and
    guarded idiom in compile order, the variables its summary is keyed by,
    or None for a scan; ``box_terms`` lists, per spatial term of an atom,
    whether it takes the box path; ``lookups``, per quantifier, whether it
    is an id lookup."""

    def __init__(self) -> None:
        self.warned: set[str] = set()
        self.plan: list[tuple[str, ...] | None] = []
        self.box_terms: list[bool] = []
        self.lookups: list[bool] = []
        self.functions: list[str] = []
        # The function that binds each local name a variable maps to.
        self.owner: dict[str, _Function] = {}
        self.count = itertools.count(1)

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

    # --- functions and names ---------------------------------------------------

    def source(self, phi: A.Formula, reads: list[tuple[str, str]]) -> str:
        """The program: ``program(ctx, env)`` returns the value of ``phi``
        with the variables ``reads`` lists (``bindings.unbound_reads``) taken
        from ``env``; the functions it calls come before it."""
        fn = self.function("program", ("ctx", "env"))
        names: dict[tuple[str, str], str] = {}
        for var, kind in reads:
            fn.head.append(f"{self.bind(names, var, kind, fn)} = env.{_ENV_MAPS[kind]}[{var!r}]")
        self.finish(fn, [f"return {self.formula(phi, fn.root, names)}"])
        return "\n\n".join(self.functions) + "\n"

    def function(self, kind: str, params: tuple[str, ...] = ("ctx",)) -> _Function:
        n = next(self.count)
        fn = _Function(kind if kind == "program" else f"{kind}_{n}", params)
        fn.root = self.scope(fn, "ctx", n, root=True)
        return fn

    def scope(self, fn: _Function, ctx: str, n: int, root: bool = False,
              shift: str | None = None) -> _Scope:
        self.owner[f"i_{n}"] = fn
        return _Scope(fn, ctx, n, root, shift)

    def finish(self, fn: _Function, body: list[str]) -> None:
        """Add ``fn`` to the program: its prologue binds what the body reads."""
        lines = list(fn.head)
        if fn.env:
            lines.append(f"{', '.join(fn.env)} = env")
        if fn.trace:
            lines.append("trace = ctx.trace")
        lines += [f"{name} = {value}" for name, value in fn.root.binds()]
        lines += [f"{hoisted} = {local}.object_id" for local, hoisted in fn.hoisted.items()]
        params = fn.params if fn.env is not None else fn.params + tuple(fn.captured)
        text = (f"def {fn.name}({', '.join(params)}):\n"
                + "".join(f"    {line}\n" for line in lines + body))
        self.functions.append(text)

    def call(self, fn: _Function, s: _Scope) -> str:
        args = [s.context()] + [self.use(local, s.fn) for local in fn.captured]
        return f"{fn.name}({', '.join(args)})"

    def bind(self, names: dict, var: str, kind: str, fn: _Function) -> str:
        """A new local for ``var`` as a ``kind`` variable bound in ``fn``."""
        stem = var if var.isascii() and var.isidentifier() else "v"
        local = names[var, kind] = f"{stem}_{next(self.count)}"
        self.owner[local] = fn
        return local

    def use(self, local: str, fn: _Function) -> str:
        """``local`` read in ``fn``: a parameter of ``fn`` unless ``fn`` binds it."""
        if self.owner[local] is not fn and local not in fn.captured:
            fn.captured.append(local)
        return local

    def read(self, names: dict, var: str, kind: str, s: _Scope) -> str:
        return self.use(names[var, kind], s.fn)

    def object_id(self, names: dict, var: str, s: _Scope) -> str:
        """The id of ``var``'s object; read once per call when it is captured."""
        local = self.read(names, var, OBJECT, s)
        if self.owner[local] is s.fn:
            return f"{local}.object_id"
        return s.fn.hoisted.setdefault(local, f"{local}_id")

    def temp(self, stem: str) -> str:
        return f"{stem}_{next(self.count)}"

    @staticmethod
    def const(value: int | float | str) -> str:
        """A literal for a node's constant, which ``ast.Node`` made a plain
        int, float or str; ``math`` spells the floats ``repr`` cannot."""
        if type(value) is not float or math.isfinite(value):
            return repr(value)
        return "math.nan" if math.isnan(value) else "math.inf" if value > 0 else "-math.inf"

    # --- propositional and temporal core ------------------------------------------

    def formula(self, phi: A.Formula, s: _Scope, names: dict, depth: int = 0) -> str:
        """A Python expression for the value of ``phi`` in scope ``s``."""
        if depth > _MAX_DEPTH:
            fn = self.function("part")
            self.finish(fn, [f"return {self.formula(phi, fn.root, names)}"])
            return self.call(fn, s)
        emit = _FORMULA_EMITTERS.get(type(phi))
        if emit is None:
            raise ContractViolation(f"evaluator needs a desugared formula, got {type(phi).__name__}")
        return emit(self, phi, s, names, depth + 1)

    def conjunction(self, parts: list[A.Formula], s: _Scope, names: dict, depth: int) -> str:
        """The ``conjuncts`` of a formula: a ``not`` part is the negation of its child."""
        return _join([f"(not {self.formula(part.child, s, names, depth)})" if type(part) is A.Not
                      else self.formula(part, s, names, depth) for part in parts], "and")

    def true(self, phi: A.TrueConst, s: _Scope, names: dict, depth: int) -> str:
        return "True"

    def not_(self, phi: A.Not, s: _Scope, names: dict, depth: int) -> str:
        return self.conjunction(conjuncts(phi), s, names, depth)

    def or_(self, phi: A.Or, s: _Scope, names: dict, depth: int) -> str:
        return _join([self.formula(part, s, names, depth) for part in disjuncts(phi)], "or")

    def step(self, phi: A.Next | A.Prev, s: _Scope, names: dict, depth: int) -> str:
        """``prev``/``next``: the index test, then, if the child reads the
        step scope, its context, built by the first step of ``s`` in this
        direction that reaches it (see ``_Scope``)."""
        shift = "-" if type(phi) is A.Prev else "+"
        inner = s.steps.get(shift)
        if inner is None:
            n = next(self.count)
            inner = s.steps[shift] = self.scope(s.fn, f"c_{n}", n, shift=shift)
        inner.used = False
        child = self.formula(phi.child, inner, names, depth)
        if shift == "-":
            parts = [f"({s.index()} >= 1)"]
        else:
            s.fn.trace = True
            parts = [f"({s.index()} + 1 < len(trace))"]
        if inner.used:
            c = inner.context()
            parts.append(f"({c} is not None or ({c} := ctx.at({inner.index()})) is not None)")
        return _join(parts + ([child] if child != "True" else []), "and")

    def freeze(self, phi: A.Freeze, s: _Scope, names: dict, depth: int) -> str:
        idiom = _guarded_idiom(phi)
        if idiom is not None:
            return self.temporal(phi, s, names, idiom)
        used = free_variables(phi.child)
        names = dict(names)
        pins = []
        if phi.frame_var is not None and phi.frame_var in used:
            # The pinned index is the index local of this frame.
            names[phi.frame_var, FRAME] = s.index()
        if phi.time_var is not None and phi.time_var in used:
            time = self.bind(names, phi.time_var, TIME, s.fn)
            pins.append(f"({time} := {s.frame()}.timestamp) is not None")
        return _join(pins + [self.formula(phi.child, s, names, depth)], "and")

    def until_since(self, phi: A.Until | A.Since, s: _Scope, names: dict, depth: int) -> str:
        return self.temporal(phi, s, names)

    def temporal(self, node: A.Formula, s: _Scope, names: dict, idiom: tuple | None = None) -> str:
        """``lhs until/since R``, R a conjunction of parts, with the witness at
        most ``reach`` frames away, optionally negated.

        A plain ``until``/``since`` is ``node`` itself with an unbounded reach
        and its right operand as the only part; a guarded idiom (see
        ``_guarded_idiom``) brings its operator, negation, reach and parts,
        and ``node`` is its pin. At frame i the witness is a frame j in [i, i
        + reach] for ``until``, in [i - reach, i] for ``since``, clipped to
        the visible trace, where the parts hold together, with ``lhs`` on
        every frame from i through j. With a summary (see ``_summary_ids``;
        for ``until`` only with a bounded reach, i.e. a guarded idiom, whose
        ``lhs`` is true) that is the latest witness in those frames, keyed by
        the ids of the operands' free object variables; otherwise a function
        scans the frames in the operator's own order.
        """
        op, negated, reach, parts = idiom or (node, False, None, (node.rhs,))
        reach = None if reach is None else self.const(reach)
        forward = type(op) is A.Until
        kind = "until" if forward else "since"
        lhs = None if type(op.lhs) is A.TrueConst else op.lhs
        variables = _summary_ids((op.lhs, *parts)) if idiom or not forward else None
        self.plan.append(variables)
        if variables is None:
            return self.scan(kind, lhs, parts, negated, reach, s, names)
        objects = [self.read(names, var, OBJECT, s) for var in variables]
        ids = _tuple([self.object_id(names, var, s) for var in variables])
        env = "None" if not objects else objects[0] if len(objects) == 1 else _tuple(objects)
        operands = ["None" if lhs is None else self.operand(f"{kind}_lhs", [lhs], names, objects),
                    self.operand(f"{kind}_rhs", parts, names, objects)]
        i, lower = s.index(), self.temp("w")
        if forward:
            s.fn.trace = True
            lo, hi = i, f"min({i} + {reach}, len(trace) - 1)"
        else:
            lo, hi = "0" if reach is None else f"max({i} - {reach}, 0)", i
        ctx = s.context()
        return (f"(_latest({ctx}, {env}, {ids}, {', '.join(operands)}, "
                f"({lower} := {ctx}.offset + {lo}), {ctx}.offset + {hi}) "
                f"{'<' if negated else '>='} {lower})")

    def scan(self, kind: str, lhs: A.Formula | None, parts, negated: bool, reach: str | None,
             s: _Scope, names: dict) -> str:
        fn = self.function(kind)
        n = next(self.count)
        here = self.scope(fn, f"c_{n}", n)
        left = None if lhs is None else self.formula(lhs, here, names)
        body = _join([self.formula(part, here, names) for part in parts], "and")
        i = fn.root.index()
        if kind == "until":
            fn.trace = True
            end = "len(trace)" if reach is None else f"min({i} + {reach}, len(trace) - 1) + 1"
            frames = f"range({i}, {end})"
        else:
            end = "-1" if reach is None else f"max({i} - {reach}, 0) - 1"
            frames = f"range({i}, {end}, -1)"
        lines = [f"for i_{n} in {frames}:", f"    c_{n} = ctx.at(i_{n})"]
        lines += [f"    {name} = {value}" for name, value in here.binds()]
        if left is not None:
            lines += [f"    if not {left}:", f"        return {negated}"]
        lines += [f"    if {body}:", f"        return {not negated}", f"return {negated}"]
        self.finish(fn, lines)
        return self.call(fn, s)

    def operand(self, kind: str, parts, names: dict, objects: list[str]) -> str:
        """A summary operand: a function of a context and ``env``, the
        captured ``objects`` the summary is keyed by, for ``_latest``."""
        fn = self.function(kind, ("ctx", "env"))
        fn.env = objects
        body = _join([self.formula(part, fn.root, names) for part in parts], "and")
        self.finish(fn, [f"return {body}"])
        return fn.name

    def exists(self, phi: A.Exists, s: _Scope, names: dict, depth: int) -> str:
        parts = conjuncts(phi.child)
        lookup = _lookup(phi.variables, parts)
        fn = self.function("lookup" if lookup else "exists")
        frame, names = fn.root.frame(), dict(names)
        if lookup:
            outer, rest = lookup
            found = self.bind(names, phi.variables[0], OBJECT, fn)
            outer_id = self.object_id(names, outer, fn.root)
            body = self.conjunction(rest, fn.root, names, 0)
            self.finish(fn, [f"{found} = {frame}.objects.get({outer_id})",
                             "if ctx.stats is not None:",
                             "    ctx.stats.assignments += 1",
                             f"return {found} is not None and {body}"])
        else:
            bound = [self.bind(names, var, OBJECT, fn) for var in phi.variables]
            body = self.conjunction(parts, fn.root, names, 0)
            power = "" if len(bound) == 1 else f" ** {len(bound)}"
            self.finish(fn, [
                "result = False",
                f"for {_tuple(bound)} in _ev.quantifier_assignments({phi.variables!r}, {frame}):",
                f"    if {body}:",
                "        result = True",
                "if ctx.stats is not None:",
                f"    ctx.stats.assignments += len({frame}.objects){power}",
                "return result",
            ])
        self.lookups.append(lookup is not None)
        return self.call(fn, s)

    # --- atoms ---------------------------------------------------------------------
    # Each reads its captured objects and pins as plain locals: ``evaluate``
    # checks every read is bound before the program runs (``_require_bound``).

    def time_constraint(self, phi: A.TimeConstraint, s: _Scope, names: dict, depth: int) -> str:
        pinned = self.read(names, phi.var, TIME, s)
        return f"({pinned} - {s.frame()}.timestamp {phi.cmp.value} {self.const(phi.bound)})"

    def frame_constraint(self, phi: A.FrameConstraint, s: _Scope, names: dict, depth: int) -> str:
        pinned = self.read(names, phi.var, FRAME, s)
        return f"({pinned} - {s.index()} {phi.cmp.value} {self.const(phi.bound)})"

    def id_cmp(self, phi: A.IdEq | A.IdNeq, s: _Scope, names: dict, depth: int) -> str:
        op = "==" if type(phi) is A.IdEq else "!="
        return f"({self.object_id(names, phi.lhs, s)} {op} {self.object_id(names, phi.rhs, s)})"

    def current(self, names: dict, var: str, s: _Scope) -> tuple[str, str]:
        """A test that binds the object with ``var``'s id in this frame, if
        present, and the local it is bound to."""
        local = self.temp("x")
        oid = self.object_id(names, var, s)
        return f"({local} := {s.frame()}.objects.get({oid})) is not None", local

    def ratio(self, lhs: str, phi, rhs: str, what: str) -> str:
        """``lhs cmp ratio * rhs``, false on a zero ``rhs``, which is evaluated first."""
        denominator = self.temp("r")
        return (f"((({denominator} := {rhs}) != 0 or _c.ratio_rhs_ok({denominator}, {what!r})) "
                f"and {lhs} {phi.cmp.value} {self.const(phi.ratio)} * {denominator})")

    def class_eq_const(self, phi: A.ClassEqConst, s: _Scope, names: dict, depth: int) -> str:
        test, obj = self.current(names, phi.var, s)
        return f"({test} and {obj}.class_label == {self.const(phi.label)})"

    def class_eq_var(self, phi: A.ClassEqVar, s: _Scope, names: dict, depth: int) -> str:
        (lhs_test, lhs), (rhs_test, rhs) = (self.current(names, phi.lhs, s),
                                            self.current(names, phi.rhs, s))
        return f"({lhs_test} and {rhs_test} and {lhs}.class_label == {rhs}.class_label)"

    def prob_const(self, phi: A.ProbCmpConst, s: _Scope, names: dict, depth: int) -> str:
        test, obj = self.current(names, phi.var, s)
        return f"({test} and {obj}.confidence {phi.cmp.value} {self.const(phi.bound)})"

    def prob_ratio(self, phi: A.ProbCmpRatio, s: _Scope, names: dict, depth: int) -> str:
        (lhs_test, lhs), (rhs_test, rhs) = (self.current(names, phi.lhs, s),
                                            self.current(names, phi.rhs, s))
        ratio = self.ratio(f"{lhs}.confidence", phi, f"{rhs}.confidence", f"prob({phi.rhs})")
        return f"({lhs_test} and {rhs_test} and {ratio})"

    def spatial_exists(self, phi: A.SpatialExists, s: _Scope, names: dict, depth: int) -> str:
        return self.measure(phi.term, s, names, depth, area=False)

    def area_const(self, phi: A.AreaCmpConst, s: _Scope, names: dict, depth: int) -> str:
        area = self.measure(phi.term, s, names, depth, area=True)
        return f"({area} {phi.cmp.value} {self.const(phi.bound)})"

    def area_ratio(self, phi: A.AreaCmpRatio, s: _Scope, names: dict, depth: int) -> str:
        lhs = self.measure(phi.lhs, s, names, depth, area=True)
        return self.ratio(lhs, phi, self.measure(phi.rhs, s, names, depth, area=True), "area")

    def offset(self, term: A.OffsetTerm, s: _Scope, names: dict) -> str:
        return self.coordinate(f"{self.read(names, term.var, OBJECT, s)}.bbox", term.axis, term.ref)

    @staticmethod
    def coordinate(box: str, axis: A.Axis, ref: A.ReferencePoint) -> str:
        fields = [f"{box}.{field}" for field in _coordinate(axis, ref)]
        return fields[0] if len(fields) == 1 else f"({fields[0]} + {fields[1]}) / 2.0"

    def ed(self, phi: A.EDCmp, s: _Scope, names: dict, depth: int) -> str:
        lhs = f"{self.read(names, phi.lhs, OBJECT, s)}.bbox"
        rhs = f"{self.read(names, phi.rhs, OBJECT, s)}.bbox"
        dx, dy = (f"{self.coordinate(lhs, axis, phi.lhs_ref)} - "
                  f"{self.coordinate(rhs, axis, phi.rhs_ref)}" for axis in A.Axis)
        return f"(math.hypot({dx}, {dy}) {phi.cmp.value} {self.const(phi.bound)})"

    def offset_const(self, phi: A.OffsetCmpConst, s: _Scope, names: dict, depth: int) -> str:
        return f"({self.offset(phi.term, s, names)} {phi.cmp.value} {self.const(phi.bound)})"

    def offset_ratio(self, phi: A.OffsetCmpRatio, s: _Scope, names: dict, depth: int) -> str:
        what = f"{phi.rhs.axis.value}({phi.rhs.var})"
        rhs = self.offset(phi.rhs, s, names)
        return self.ratio(self.offset(phi.lhs, s, names), phi, rhs, what)

    # --- spatial terms ---------------------------------------------------------------
    # Region operations and box meets go through the public ``spatial``
    # functions, looked up at call time, so that the layer can be wrapped from
    # outside.

    def measure(self, term: A.SpatialTerm, s: _Scope, names: dict, depth: int, area: bool) -> str:
        """The area of ``term`` in the frame's image, or whether it is nonempty.

        A term of boxes, the universe and ``&`` alone is one
        ``spatial.meet_area``, whose None reads as 0 for an area and as empty
        for ``nonempty``, equal to what the ``Region`` operations give; any
        other goes through its ``Region``."""
        variables = _box_variables(term)
        self.box_terms.append(variables is not None)
        if variables is None:
            region = self.term(term, s, names, depth)
            return f"spatial.area({region})" if area else f"(not spatial.is_empty({region}))"
        boxes = _tuple([f"{self.read(names, var, OBJECT, s)}.bbox" for var in variables])
        meet = f"spatial.meet_area({boxes}, {s.frame()})"
        if not area:
            return f"({meet} is not None)"
        # ``area`` of the empty region is the empty sum, 0.
        value = self.temp("area")
        return f"(0 if ({value} := {meet}) is None else {value})"

    def term(self, term: A.SpatialTerm, s: _Scope, names: dict, depth: int = 0) -> str:
        """A Python expression for the ``Region`` of ``term`` in scope ``s``."""
        if depth > _MAX_DEPTH:
            fn = self.function("region")
            self.finish(fn, [f"return {self.term(term, fn.root, names)}"])
            return self.call(fn, s)
        kind, depth = type(term), depth + 1
        if kind is A.EmptySet or kind is A.UniverseSet:
            name = "empty_region" if kind is A.EmptySet else "full_region"
            return f"spatial.{name}({s.frame()})"
        if kind is A.BBoxOf:
            return f"spatial.from_box({self.read(names, term.var, OBJECT, s)}.bbox, {s.frame()})"
        if kind is A.Complement:
            return f"spatial.complement({self.term(term.term, s, names, depth)})"
        if kind is A.SpatialUnion or kind is A.SpatialIntersect:
            name = "union" if kind is A.SpatialUnion else "intersect"
            return (f"spatial.{name}({self.term(term.lhs, s, names, depth)}, "
                    f"{self.term(term.rhs, s, names, depth)})")
        raise ContractViolation(f"evaluator needs a core spatial term, got {kind.__name__}")


_FORMULA_EMITTERS: dict[type, Callable[[_Compiler, A.Formula, _Scope, dict, int], str]] = {
    A.TrueConst: _Compiler.true,
    A.Not: _Compiler.not_,
    A.Or: _Compiler.or_,
    A.Next: _Compiler.step,
    A.Prev: _Compiler.step,
    A.Until: _Compiler.until_since,
    A.Since: _Compiler.until_since,
    A.Freeze: _Compiler.freeze,
    A.Exists: _Compiler.exists,
    A.TimeConstraint: _Compiler.time_constraint,
    A.FrameConstraint: _Compiler.frame_constraint,
    A.IdEq: _Compiler.id_cmp,
    A.IdNeq: _Compiler.id_cmp,
    A.ClassEqConst: _Compiler.class_eq_const,
    A.ClassEqVar: _Compiler.class_eq_var,
    A.ProbCmpConst: _Compiler.prob_const,
    A.ProbCmpRatio: _Compiler.prob_ratio,
    A.SpatialExists: _Compiler.spatial_exists,
    A.AreaCmpConst: _Compiler.area_const,
    A.AreaCmpRatio: _Compiler.area_ratio,
    A.EDCmp: _Compiler.ed,
    A.OffsetCmpConst: _Compiler.offset_const,
    A.OffsetCmpRatio: _Compiler.offset_ratio,
}


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


def _latest(ctx: EvalContext, env, ids: tuple, lhs: Callable | None, rhs: Callable,
            lower: int, target: int) -> int:
    """The latest witness in [lower, target], or -1, from the entry under
    (``rhs``, ``ids``).

    Stream indices; ``target`` is at most the window's end. ``lhs`` and
    ``rhs`` are the node's generated operand functions, called with a
    context and ``env``, the captured objects ``ids`` were read from; a None
    ``lhs`` is true. A window that starts at ``start`` extends only an entry
    that holds a value at ``start`` or later, by the Havelund-Rosu
    recurrence, one evaluation of each operand per frame, and only if the
    entry covers the query. Otherwise a new one is seeded at ``target`` by
    the scan back from it, which stops at its first decision as the plain
    ``since`` scan does. With ``lower > target`` (a guard no frame meets)
    the range is empty and the answer is below ``lower``.
    """
    start = ctx.offset
    summaries = ctx.summaries
    key = (rhs, ids)
    entry = summaries.get(key)
    if (entry is None or lower < entry.lower or target < entry.base
            or entry.base + len(entry.latest) <= start):
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

    A window that starts at ``start`` extends only an entry that holds a
    value at ``start`` or later (``_latest``). Entries that end before it
    are dropped: their ids have left the window, or a later query seeds
    them afresh. The others keep their values from ``start`` on.
    """
    dead = []
    for key, entry in summaries.items():
        base, latest = entry.base, entry.latest
        if base + len(latest) <= start:
            dead.append(key)
        elif base < start:
            del latest[: start - base]
            entry.base = start
    for key in dead:
        del summaries[key]


def _guarded_idiom(phi: A.Freeze):
    """The frame-guarded pin idiom under ``phi``, or None.

    The idiom is ``pin (_, f) { X }`` or ``pin (_, f) { not X }`` where X is
    ``true until R`` or ``true since R`` and the conjuncts of R are a
    frame-distance guard on ``f`` (``bounds.frame_guard``, which also sizes
    the window) and at least one part that reads neither ``f`` nor the
    pinned time. It is what ``always (C_FRAME - f <= k implies p)`` and
    ``once (f - C_FRAME < k and p)`` desugar to. The shape is read
    structurally, as ``desugar``'s canonical core gives it: an idiom behind
    a ``not not`` or a pin that nothing reads runs as the plain pin and
    scan. Returns (operator, negated, reach, parts).
    """
    frame_var, child = phi.frame_var, phi.child
    negated = type(child) is A.Not
    op = child.child if negated else child
    if (frame_var is None or type(op) not in (A.Until, A.Since)
            or type(op.lhs) is not A.TrueConst):
        return None
    if phi.time_var is not None and phi.time_var in free_variables(child):
        return None
    guard = frame_guard(op.rhs, frozenset((frame_var,)), future=type(op) is A.Until)
    if guard is None or not guard[1] or any(frame_var in free_variables(part) for part in guard[1]):
        return None
    return op, negated, guard[0], guard[1]


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


def describe(phi: A.Formula) -> tuple[str, str, str]:
    """Three lines on how the evaluator runs a formula in ``desugar``'s
    canonical core, read from the plan the compiler records as it decides,
    so they say what the evaluator does.

    The temporal line counts each ``until``/``since`` by how it runs, for
    example ``temporal: 1 closed summary, 1 per-id summary over {b}, 0
    scans``; ``next``/``prev`` are single steps and not counted. The
    spatial line counts the spatial terms of atoms, for example ``spatial:
    2 box terms, 0 region terms``: a box term is one ``spatial.meet_area``,
    a region term the ``Region`` algebra. The quantifier line counts the
    object quantifiers, for example ``quantifiers: 1 id lookup, 1
    enumeration``: an id lookup is one ``lookup_N``, an enumeration a fold
    over every assignment.
    """
    compiler = _Compiler()
    compiler.source(phi, unbound_reads(phi))
    plan, box_terms, lookups = compiler.plan, compiler.box_terms, compiler.lookups
    per_id = [ids for ids in plan if ids]
    temporal = (f"temporal: {_count(plan.count(()), 'closed summary', 'closed summaries')}, "
                f"{_count(len(per_id), 'per-id summary', 'per-id summaries')}")
    if per_id:
        temporal += " over " + ", ".join("{" + ", ".join(ids) + "}" for ids in per_id)
    return (f"{temporal}, {_count(plan.count(None), 'scan', 'scans')}",
            f"spatial: {_count(box_terms.count(True), 'box term', 'box terms')}, "
            f"{_count(box_terms.count(False), 'region term', 'region terms')}",
            f"quantifiers: {_count(lookups.count(True), 'id lookup', 'id lookups')}, "
            f"{_count(lookups.count(False), 'enumeration', 'enumerations')}")


def _count(n: int, noun: str, plural: str) -> str:
    return f"{n} {noun if n == 1 else plural}"


_PROGRAM_NUMBERS = itertools.count()


def _build(phi: A.Formula, reads: list[tuple[str, str]]) -> Callable[[EvalContext, Env], bool]:
    """Compile the program of a formula that reads ``reads`` unbound, and
    return its ``program(ctx, env)``. The source is registered with
    ``linecache`` under the code's file name."""
    compiler = _Compiler()
    source = compiler.source(phi, reads)
    filename = f"<percemon program {next(_PROGRAM_NUMBERS)}>"
    namespace = {"_c": compiler, "_ev": sys.modules[__name__], "_latest": _latest,
                 "spatial": spatial, "math": math}
    exec(compile(source, filename, "exec"), namespace)
    linecache.cache[filename] = (len(source), None, source.splitlines(keepends=True), filename)
    return namespace["program"]


def _forget(key: int, filename: str) -> None:
    """Drop the program of a collected formula and its ``linecache`` lines."""
    del _programs[key]
    linecache.cache.pop(filename, None)


# Compiled programs by formula identity, with the variables each reads
# unbound. An entry lives exactly as long as its formula: a finalizer on the
# formula drops it, before the identity can be reused.
_programs: dict[int, tuple[Callable[[EvalContext, Env], bool], list[tuple[str, str]]]] = {}


def evaluate(phi: A.Formula, ctx: EvalContext, env: Env = EMPTY_ENV) -> bool:
    """Boolean quality of a core formula, as ``desugar`` gives it, at ``ctx.index``.

    The formula is compiled on first use, and its program kept for later
    calls with the same formula object for as long as that object lives. A
    variable that ``phi`` reads but neither it nor ``env`` binds raises
    ``ContractViolation`` before any frame is evaluated; a closed formula is
    checked once, at compile time. The temporal summaries are read from and
    added to ``ctx.summaries``.
    """
    entry = _programs.get(id(phi))
    if entry is None:
        reads = unbound_reads(phi)
        program = _build(phi, reads)
        entry = _programs[id(phi)] = (program, reads)
        weakref.finalize(phi, _forget, id(phi), program.__code__.co_filename)
    if entry[1]:
        _require_bound(entry[1], env)
    return entry[0](ctx, env)


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
