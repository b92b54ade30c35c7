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
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ContractViolation
from . import ast as A
from .ast import is_core


@dataclass(frozen=True)
class FrameBounds:
    """Frames of history and horizon a formula needs; None means unbounded."""

    history: int | None
    horizon: int | None

    @property
    def bounded(self) -> bool:
        return self.history is not None and self.horizon is not None

    def describe(self) -> str:
        h = "unbounded" if self.history is None else str(self.history)
        z = "unbounded" if self.horizon is None else str(self.horizon)
        return f"history={h} horizon={z}"


def _inc(value: int | None) -> int | None:
    return None if value is None else value + 1


def _dec(value: int | None) -> int | None:
    return None if value is None else max(value - 1, 0)


def _max(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return max(a, b)


def _add(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return a + b


def _negated(phi: A.Formula) -> A.Formula:
    return phi.child if isinstance(phi, A.Not) else A.Not(phi)


def conjuncts(phi: A.Formula) -> list[A.Formula]:
    """Positive conjuncts of a desugared formula.

    Desugared conjunction is ``not (not a or not b)``; this flattens that
    shape (and double negations) back into its parts.
    """
    if isinstance(phi, A.Not):
        inner = phi.child
        if isinstance(inner, A.Or):
            return conjuncts(_negated(inner.lhs)) + conjuncts(_negated(inner.rhs))
        if isinstance(inner, A.Not):
            return conjuncts(inner.child)
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


def _guard_bound(rhs: A.Formula, pinned: frozenset[str], future: bool) -> int | None:
    """Frames of horizon (``future``) or history a guard in ``rhs`` implies, or None."""
    guard = frame_guard(rhs, pinned, future)
    return None if guard is None else max(guard[0], 0)


def _bounds(phi: A.Formula, pinned: frozenset[str]) -> tuple[int | None, int | None]:
    if isinstance(phi, A.Not):
        return _bounds(phi.child, pinned)
    if isinstance(phi, A.Or):
        lh, lz = _bounds(phi.lhs, pinned)
        rh, rz = _bounds(phi.rhs, pinned)
        return _max(lh, rh), _max(lz, rz)
    if isinstance(phi, A.Next):
        h, z = _bounds(phi.child, pinned)
        return _dec(h), _inc(z)
    if isinstance(phi, A.Prev):
        h, z = _bounds(phi.child, pinned)
        return _inc(h), _dec(z)
    if isinstance(phi, A.Exists):
        return _bounds(phi.child, pinned)
    if isinstance(phi, A.Freeze):
        if phi.frame_var is not None:
            pinned = pinned | {phi.frame_var}
        return _bounds(phi.child, pinned)
    if isinstance(phi, A.Until):
        lh, lz = _bounds(phi.lhs, pinned)
        rh, rz = _bounds(phi.rhs, pinned)
        guard = _guard_bound(phi.rhs, pinned, future=True)
        horizon = None if guard is None else _add(guard, _max(lz, rz))
        return _max(lh, rh), horizon
    if isinstance(phi, A.Since):
        lh, lz = _bounds(phi.lhs, pinned)
        rh, rz = _bounds(phi.rhs, pinned)
        guard = _guard_bound(phi.rhs, pinned, future=False)
        history = None if guard is None else _add(guard, _max(lh, rh))
        return history, _max(lz, rz)
    if isinstance(phi, A.ATOM_KINDS):
        return 0, 0
    raise ContractViolation(f"bounds analysis needs a core formula, got {type(phi).__name__}")


def compute_bounds(phi: A.Formula) -> FrameBounds:
    """History/horizon requirement of a desugared, binding-checked formula."""
    if not is_core(phi):
        raise ContractViolation("compute_bounds requires a desugared formula")
    history, horizon = _bounds(phi, frozenset())
    return FrameBounds(history, horizon)
