"""Rewrite a formula into its canonical core.

    a and b          ->  not (not a or not b)
    a implies b      ->  not a or b
    eventually p     ->  true until p
    always p         ->  not (true until not p)
    once p           ->  true since p
    holds p          ->  not (true since not p)
    forall {v} @ p   ->  not exists {v} @ (not p)
    not not a        ->  a
    not (x == y)     ->  x != y, and not (x != y) -> x == y
    pin (t, f) { p } ->  p, when p reads neither t nor f

The rewrite is one bottom-up pass that also collects the variables each
node reads free, so its cost is linear in the size of the formula. Every
``not`` above goes through ``negate``, so no ``not`` of the output negates
a ``not`` or an id comparison, and no pin of the output is unread. Spatial
terms, intersection included, are already core and pass through unchanged.
The rewrite is idempotent and its output contains only core node kinds.

The window analysis (``bounds``) and the evaluator read formula shapes
structurally, and recognize their idioms in this canonical form; on any
other core formula they fall back to their general paths.
"""

from __future__ import annotations

from ..errors import ContractViolation
from . import ast as A
from .bindings import free_variables


def desugar(phi: A.Formula) -> A.Formula:
    """Return the canonical core of ``phi``: an equivalent formula of core
    node kinds, in which the three rewrites that change nothing are done."""
    return _core(phi)[0]


def negate(phi: A.Formula) -> A.Formula:
    """``not phi``, canonical when ``phi`` is: ``not not a`` is ``a``, and
    a negated id comparison is its complement."""
    kind = type(phi)
    if kind is A.Not:
        return phi.child
    if kind is A.IdEq:
        return A.IdNeq(phi.lhs, phi.rhs, loc=phi.loc)
    if kind is A.IdNeq:
        return A.IdEq(phi.lhs, phi.rhs, loc=phi.loc)
    return A.Not(phi)


# Each sugar kind, and ``not``, as a function of its canonical operands.
_REWRITES = {
    A.Not: negate,
    A.And: lambda a, b: negate(A.Or(negate(a), negate(b))),
    A.Implies: lambda a, b: A.Or(negate(a), b),
    A.Eventually: lambda p: A.Until(A.TrueConst(), p),
    A.Always: lambda p: negate(A.Until(A.TrueConst(), negate(p))),
    A.Once: lambda p: A.Since(A.TrueConst(), p),
    A.Holds: lambda p: negate(A.Since(A.TrueConst(), negate(p))),
}

_CORE_CONNECTIVES = (A.Or, A.Next, A.Prev, A.Until, A.Since)


def _core(phi: A.Formula) -> tuple[A.Formula, frozenset[str]]:
    """The canonical core of ``phi`` and the names it reads free."""
    if isinstance(phi, A.ATOM_KINDS):
        return phi, free_variables(phi)
    kind = type(phi)
    if kind is A.Exists or kind is A.Forall:
        body, reads = _core(phi.child)
        reads = reads.difference(phi.variables)
        if kind is A.Forall:
            return negate(A.Exists(phi.variables, negate(body), loc=phi.loc)), reads
        return A.Exists(phi.variables, body, loc=phi.loc), reads
    if kind is A.Freeze:
        body, reads = _core(phi.child)
        pinned = {phi.time_var, phi.frame_var}
        if pinned.isdisjoint(reads):
            return body, reads
        return A.Freeze(phi.time_var, phi.frame_var, body, loc=phi.loc), reads - pinned
    if kind in _REWRITES or kind in _CORE_CONNECTIVES:
        operands, reads = [], frozenset()
        for child in phi.children():
            operand, child_reads = _core(child)
            operands.append(operand)
            reads |= child_reads
        if kind in _REWRITES:
            return _REWRITES[kind](*operands), reads
        return kind(*operands, loc=phi.loc), reads
    raise ContractViolation(f"unknown formula node {phi!r}")
