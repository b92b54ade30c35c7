"""Static scope checking for specification variables.

Every variable occurrence must be introduced by an enclosing binder of the
right kind: object variables by ``exists``/``forall``, time variables by
the first pin slot, frame variables by the second. Rebinding a name that
is already in scope is an error (names share one namespace), which keeps
the pinned-value maps unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ContractViolation, Diagnostic, SpecError
from . import ast as A

OBJECT = "object"
TIME = "time"
FRAME = "frame"

UNBOUND = "unbound-variable"
KIND_MISMATCH = "kind-mismatch"
SHADOWING = "shadowing"


@dataclass(frozen=True)
class BindDiagnostic:
    kind: str
    name: str
    message: str
    loc: A.Loc | None = None

    def render(self) -> str:
        if self.loc is None:
            return f"{self.kind}: {self.message}"
        return f"{self.loc.line}:{self.loc.column}: {self.kind}: {self.message}"


def check_bindings(phi: A.Formula) -> list[BindDiagnostic]:
    """Return all binding problems; an empty list means the formula is closed."""
    out: list[BindDiagnostic] = []
    _walk(phi, {}, out)
    return out


def require_bindings(phi: A.Formula) -> None:
    """Raise ``SpecError`` listing every binding problem of ``phi``, if any."""
    problems = check_bindings(phi)
    if problems:
        raise SpecError([
            Diagnostic(d.kind, d.message, d.loc.line if d.loc else None,
                       d.loc.column if d.loc else None)
            for d in problems
        ])


def free_variables(phi: A.Formula) -> frozenset[str]:
    """Names of every kind that ``phi`` reads without binding them itself."""
    return frozenset(d.name for d in check_bindings(phi) if d.kind == UNBOUND)


def _use(name: str, expected: str, scope: dict[str, str], loc, out) -> None:
    actual = scope.get(name)
    if actual is None:
        out.append(BindDiagnostic(UNBOUND, name, f"variable {name!r} is not bound here", loc))
    elif actual != expected:
        out.append(
            BindDiagnostic(
                KIND_MISMATCH,
                name,
                f"variable {name!r} is a {actual} variable but is used as a {expected} variable",
                loc,
            )
        )


def _bind(name: str, kind: str, scope: dict[str, str], loc, out) -> dict[str, str]:
    if name in scope:
        out.append(
            BindDiagnostic(SHADOWING, name, f"variable {name!r} rebinds a name already in scope", loc)
        )
    scope = dict(scope)
    scope[name] = kind
    return scope


def _walk_spatial(term: A.SpatialTerm, scope, out) -> None:
    if isinstance(term, A.BBoxOf):
        _use(term.var, OBJECT, scope, term.loc, out)
    elif isinstance(term, A.Complement):
        _walk_spatial(term.term, scope, out)
    elif isinstance(term, (A.SpatialUnion, A.SpatialIntersect)):
        _walk_spatial(term.lhs, scope, out)
        _walk_spatial(term.rhs, scope, out)
    elif not isinstance(term, (A.EmptySet, A.UniverseSet)):
        raise ContractViolation(f"unknown spatial term {term!r}")


def _walk(phi: A.Formula, scope: dict[str, str], out: list[BindDiagnostic]) -> None:
    if isinstance(phi, (A.Exists, A.Forall)):
        inner = scope
        for name in phi.variables:
            inner = _bind(name, OBJECT, inner, phi.loc, out)
        _walk(phi.child, inner, out)
        return
    if isinstance(phi, A.Freeze):
        inner = scope
        if phi.time_var is not None:
            inner = _bind(phi.time_var, TIME, inner, phi.loc, out)
        if phi.frame_var is not None:
            inner = _bind(phi.frame_var, FRAME, inner, phi.loc, out)
        _walk(phi.child, inner, out)
        return

    if isinstance(phi, (A.Not, A.Next, A.Prev, A.Always, A.Eventually, A.Once, A.Holds)):
        _walk(phi.child, scope, out)
        return
    if isinstance(phi, (A.Or, A.And, A.Implies, A.Until, A.Since)):
        _walk(phi.lhs, scope, out)
        _walk(phi.rhs, scope, out)
        return

    if isinstance(phi, A.TrueConst):
        return
    if isinstance(phi, A.TimeConstraint):
        _use(phi.var, TIME, scope, phi.loc, out)
        return
    if isinstance(phi, A.FrameConstraint):
        _use(phi.var, FRAME, scope, phi.loc, out)
        return
    if isinstance(phi, A.ClassEqConst):
        _use(phi.var, OBJECT, scope, phi.loc, out)
        return
    if isinstance(phi, (A.ClassEqVar, A.IdEq, A.IdNeq, A.ProbCmpRatio)):
        _use(phi.lhs, OBJECT, scope, phi.loc, out)
        _use(phi.rhs, OBJECT, scope, phi.loc, out)
        return
    if isinstance(phi, A.ProbCmpConst):
        _use(phi.var, OBJECT, scope, phi.loc, out)
        return
    if isinstance(phi, A.SpatialExists):
        _walk_spatial(phi.term, scope, out)
        return
    if isinstance(phi, A.AreaCmpConst):
        _walk_spatial(phi.term, scope, out)
        return
    if isinstance(phi, A.AreaCmpRatio):
        _walk_spatial(phi.lhs, scope, out)
        _walk_spatial(phi.rhs, scope, out)
        return
    if isinstance(phi, A.EDCmp):
        _use(phi.lhs, OBJECT, scope, phi.loc, out)
        _use(phi.rhs, OBJECT, scope, phi.loc, out)
        return
    if isinstance(phi, A.OffsetCmpConst):
        _use(phi.term.var, OBJECT, scope, phi.term.loc or phi.loc, out)
        return
    if isinstance(phi, A.OffsetCmpRatio):
        _use(phi.lhs.var, OBJECT, scope, phi.lhs.loc or phi.loc, out)
        _use(phi.rhs.var, OBJECT, scope, phi.rhs.loc or phi.loc, out)
        return
    raise ContractViolation(f"unknown formula node {phi!r}")
