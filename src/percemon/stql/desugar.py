"""Rewrite derived operators into the core grammar.

    a and b          ->  not (not a or not b)
    a implies b      ->  not a or b
    eventually p     ->  true until p
    always p         ->  not (true until not p)
    once p           ->  true since p
    holds p          ->  not (true since not p)
    forall {v} @ p   ->  not exists {v} @ (not p)

Spatial terms, intersection included, are already core and pass through
unchanged. The rewrite is idempotent and its output contains only core
node kinds.
"""

from __future__ import annotations

from ..errors import ContractViolation
from . import ast as A


def desugar(phi: A.Formula) -> A.Formula:
    """Return an equivalent formula using only core node kinds."""
    if isinstance(phi, A.And):
        return A.Not(A.Or(A.Not(desugar(phi.lhs)), A.Not(desugar(phi.rhs))))
    if isinstance(phi, A.Implies):
        return A.Or(A.Not(desugar(phi.lhs)), desugar(phi.rhs))
    if isinstance(phi, A.Eventually):
        return A.Until(A.TrueConst(), desugar(phi.child))
    if isinstance(phi, A.Always):
        return A.Not(A.Until(A.TrueConst(), A.Not(desugar(phi.child))))
    if isinstance(phi, A.Once):
        return A.Since(A.TrueConst(), desugar(phi.child))
    if isinstance(phi, A.Holds):
        return A.Not(A.Since(A.TrueConst(), A.Not(desugar(phi.child))))
    if isinstance(phi, A.Forall):
        return A.Not(A.Exists(phi.variables, A.Not(desugar(phi.child))))

    if isinstance(phi, A.ATOM_KINDS):
        return phi
    if isinstance(phi, A.Formula):
        return phi.map(desugar)
    raise ContractViolation(f"unknown formula node {phi!r}")
