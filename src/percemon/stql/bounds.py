"""History and horizon analysis for core formulas.

The result says how many past frames (history) and delayed future frames
(horizon) a verdict at one frame may depend on; the online monitor sizes
its FIFO window from these numbers. The analysis is a structural recursion
that is conservative by design:

* atoms need (0, 0); negation preserves bounds; disjunction takes the
  pointwise maximum,
* ``next`` adds one frame of horizon (and can absorb one of history),
  ``prev`` the mirror image,
* ``until`` is unbounded in the future and ``since`` in the past, unless
  the operator's right operand carries a frame-distance guard on a pinned
  frame variable, in which case the guard bound replaces "unbounded".

Guard recognition is syntactic: the desugared right operand must contain,
as a positive conjunct, ``C_FRAME - f <= n`` (or ``< n``) for ``until``,
respectively ``f - C_FRAME <= n`` (or ``< n``) for ``since``, where ``f``
is bound by an enclosing pin. The usual sources of such conjuncts are
``always (guard implies body)`` and ``once (guard and body)``, whose
desugared forms both expose the guard. Anything the recognizer cannot see
is reported unbounded and needs an explicit monitor override. Time-variable
constraints never contribute: timestamps are not frame-indexed.

The analysis reads ``desugar``'s canonical core, in which no ``not not``
and no pin that nothing below it reads hides a conjunct. ``conjuncts`` and
``disjuncts`` are structural, and the evaluator's ``or``/``and`` chains and
its guarded-idiom recognizer read the same parts, so the window and the
evaluator see the same shapes. Any other core formula is analyzed too, with
a guard it hides reported unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from ..errors import ContractViolation
from . import ast as A
from .desugar import negate


@dataclass(frozen=True)
class FrameBounds:
    """Frames of history and horizon a formula needs; None means unbounded."""

    history: int | None
    horizon: int | None

    def describe(self) -> str:
        h = "unbounded" if self.history is None else str(self.history)
        z = "unbounded" if self.horizon is None else str(self.horizon)
        return f"history={h} horizon={z}"


def conjuncts(phi: A.Formula) -> list[A.Formula]:
    """Positive conjuncts of a canonical core formula, in order.

    Conjunction desugars to ``not (not a or not b)``; this flattens that
    shape back into its parts, each the ``negate`` of a disjunct, so a part
    that is a ``not`` negates neither an ``or`` nor a ``not``.
    """
    if type(phi) is A.Not and type(phi.child) is A.Or:
        return [negate(part) for part in disjuncts(phi.child)]
    return [phi]


def disjuncts(phi: A.Formula) -> list[A.Formula]:
    """The disjuncts of an ``or`` chain of any association, in order: no
    part is an ``or``."""
    if type(phi) is A.Or:
        return disjuncts(phi.lhs) + disjuncts(phi.rhs)
    return [phi]


def _guard_reach(part: A.FrameConstraint, future: bool) -> int | None:
    """How far from the pin a frame-distance guard lets the witness lie.

    The canonical form is pinned minus current, ``f - C_FRAME cmp bound``.
    Going forward that difference is <= 0, so the useful guards are lower
    bounds with a non-positive constant (``C_FRAME - f <= n``); going back
    it is >= 0 and they are upper bounds with a non-negative one. The
    result is the largest distance at which the guard holds, -1 when it
    holds at none, or None when ``part`` is no such guard.
    """
    if future:
        if part.cmp is A.Cmp.GE and part.bound <= 0:
            return -part.bound
        if part.cmp is A.Cmp.GT and part.bound <= 0:
            return -part.bound - 1
    else:
        if part.cmp is A.Cmp.LE and part.bound >= 0:
            return part.bound
        if part.cmp is A.Cmp.LT and part.bound >= 0:
            return part.bound - 1
    return None


def frame_guard(
    rhs: A.Formula, pinned: frozenset[str], future: bool
) -> tuple[int, list[A.Formula]] | None:
    """The frame-distance guard among the positive conjuncts of ``rhs``.

    Returns the reach of the tightest guard on a ``pinned`` frame variable
    (see ``_guard_reach``; ``future`` for ``until``, else ``since``) and the
    other conjuncts in order, or None when ``rhs`` has no such guard.
    """
    reach: int | None = None
    rest: list[A.Formula] = []
    for part in conjuncts(rhs):
        here = None
        if isinstance(part, A.FrameConstraint) and part.var in pinned:
            here = _guard_reach(part, future)
        if here is None:
            rest.append(part)
        else:
            reach = here if reach is None else min(reach, here)
    return None if reach is None else (reach, rest)


def _guard_bound(rhs: A.Formula, pinned: frozenset[str], future: bool) -> float:
    """Frames of horizon (``future``) or history a guard in ``rhs`` implies, or inf."""
    guard = frame_guard(rhs, pinned, future)
    return inf if guard is None else max(guard[0], 0)


def _bounds(phi: A.Formula, pinned: frozenset[str]) -> tuple[float, float]:
    """Frames of history and horizon, inf for unbounded."""
    if isinstance(phi, A.Not):
        return _bounds(phi.child, pinned)
    if isinstance(phi, A.Or):
        lh, lz = _bounds(phi.lhs, pinned)
        rh, rz = _bounds(phi.rhs, pinned)
        return max(lh, rh), max(lz, rz)
    if isinstance(phi, A.Next):
        h, z = _bounds(phi.child, pinned)
        return max(h - 1, 0), z + 1
    if isinstance(phi, A.Prev):
        h, z = _bounds(phi.child, pinned)
        return h + 1, max(z - 1, 0)
    if isinstance(phi, A.Exists):
        return _bounds(phi.child, pinned)
    if isinstance(phi, A.Freeze):
        if phi.frame_var is not None:
            pinned = pinned | {phi.frame_var}
        return _bounds(phi.child, pinned)
    if isinstance(phi, A.Until):
        lh, lz = _bounds(phi.lhs, pinned)
        rh, rz = _bounds(phi.rhs, pinned)
        return max(lh, rh), _guard_bound(phi.rhs, pinned, future=True) + max(lz, rz)
    if isinstance(phi, A.Since):
        lh, lz = _bounds(phi.lhs, pinned)
        rh, rz = _bounds(phi.rhs, pinned)
        return _guard_bound(phi.rhs, pinned, future=False) + max(lh, rh), max(lz, rz)
    if isinstance(phi, A.ATOM_KINDS):
        return 0, 0
    raise ContractViolation(f"bounds analysis needs a core formula, got {type(phi).__name__}")


def compute_bounds(phi: A.Formula) -> FrameBounds:
    """History/horizon requirement of a binding-checked core formula, as
    ``desugar`` gives it. A sugar node raises ``ContractViolation`` naming
    its kind."""
    history, horizon = _bounds(phi, frozenset())
    return FrameBounds(None if history == inf else history, None if horizon == inf else horizon)
