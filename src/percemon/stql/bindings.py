"""Static scope checking for specification variables.

Every variable occurrence must be introduced by an enclosing binder of the
right kind: object variables by ``exists``/``forall``, time variables by
the first pin slot, frame variables by the second. Rebinding a name that
is already in scope is an error (names share one namespace), which keeps
the pinned-value maps unambiguous. At most ``MAX_OBJECT_VARIABLES`` object
variables may be bound at once on one path of nested quantifiers, counting
each quantifier that reads one of its variables: k of them cost n^k
assignments on an n-object frame.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import Diagnostic, SpecError
from . import ast as A

OBJECT = "object"
TIME = "time"
FRAME = "frame"

UNBOUND = "unbound-variable"
KIND_MISMATCH = "kind-mismatch"
SHADOWING = "shadowing"
ARITY = "quantifier-arity"

MAX_OBJECT_VARIABLES = 4


@dataclass(frozen=True)
class BindDiagnostic:
    kind: str
    name: str
    message: str
    loc: A.Loc | None = None
    # The kind the variable is read as, for an unbound read or a kind mismatch.
    read_as: str | None = None


def check_bindings(phi: A.Formula) -> list[BindDiagnostic]:
    """Return all binding problems; an empty list means the formula is closed."""
    out: list[BindDiagnostic] = []
    _walk(phi, {}, out)
    _arity(phi, out)
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
    out: list[BindDiagnostic] = []
    _walk(phi, {}, out)
    return frozenset(d.name for d in out if d.kind == UNBOUND)


def unbound_reads(node: A.Node) -> list[tuple[str, str]]:
    """The (name, kind) pairs that ``node`` reads as a variable of that kind
    without binding one of that kind itself, in name order: a caller that
    binds each of them around ``node`` leaves no read below it unbound."""
    out: list[BindDiagnostic] = []
    _walk(node, {}, out)
    return sorted({(d.name, d.read_as) for d in out if d.read_as is not None})


def _use(name: str, expected: str, scope: dict[str, str], loc, out) -> None:
    actual = scope.get(name)
    if actual is None:
        out.append(BindDiagnostic(UNBOUND, name, f"variable {name!r} is not bound here", loc,
                                  expected))
    elif actual != expected:
        out.append(
            BindDiagnostic(
                KIND_MISMATCH,
                name,
                f"variable {name!r} is a {actual} variable but is used as a {expected} variable",
                loc,
                expected,
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


# The variables that each atom or term reads, as (field, kind) pairs in
# reading order. Binders are handled in ``_walk``; other nodes read none.
_READS = {
    A.TimeConstraint: (("var", TIME),),
    A.FrameConstraint: (("var", FRAME),),
    A.ClassEqConst: (("var", OBJECT),),
    A.ProbCmpConst: (("var", OBJECT),),
    A.BBoxOf: (("var", OBJECT),),
    A.OffsetTerm: (("var", OBJECT),),
    A.ClassEqVar: (("lhs", OBJECT), ("rhs", OBJECT)),
    A.ProbCmpRatio: (("lhs", OBJECT), ("rhs", OBJECT)),
    A.IdEq: (("lhs", OBJECT), ("rhs", OBJECT)),
    A.IdNeq: (("lhs", OBJECT), ("rhs", OBJECT)),
    A.EDCmp: (("lhs", OBJECT), ("rhs", OBJECT)),
}


def _walk(node: A.Node, scope: dict[str, str], out: list[BindDiagnostic], loc=None) -> None:
    # A node without a location reports the nearest enclosing one.
    loc = node.loc or loc
    if isinstance(node, (A.Exists, A.Forall)):
        for name in node.variables:
            scope = _bind(name, OBJECT, scope, loc, out)
    elif isinstance(node, A.Freeze):
        if node.time_var is not None:
            scope = _bind(node.time_var, TIME, scope, loc, out)
        if node.frame_var is not None:
            scope = _bind(node.frame_var, FRAME, scope, loc, out)
    else:
        for name, kind in _READS.get(type(node), ()):
            _use(getattr(node, name), kind, scope, loc, out)
    for child in node.children():
        _walk(child, scope, out, loc)


def _arity(node: A.Node, out: list[BindDiagnostic], loc=None) -> tuple[set[str], int]:
    """The object variables read below ``node``, and the most variables of
    reading quantifiers nested on one path below it, reporting a quantifier
    that takes that count past ``MAX_OBJECT_VARIABLES``.

    A quantifier counts when its body reads one of its variables. One that
    reads none is still enumerated, but does not count: the parser's nesting
    limit admits a chain of 99 such quantifiers, which runs in constant time
    on a one-object frame.
    """
    loc = node.loc or loc
    reads: set[str] = set()
    depth = 0
    for child in node.children():
        child_reads, child_depth = _arity(child, out, loc)
        reads |= child_reads
        depth = max(depth, child_depth)
    for name, kind in _READS.get(type(node), ()):
        if kind == OBJECT:
            reads.add(getattr(node, name))
    if isinstance(node, (A.Exists, A.Forall)) and reads.intersection(node.variables):
        if depth <= MAX_OBJECT_VARIABLES < depth + len(node.variables):
            out.append(BindDiagnostic(
                ARITY, node.variables[0],
                f"{depth + len(node.variables)} nested object variables; at most "
                f"{MAX_OBJECT_VARIABLES} may be bound at once", loc))
        depth += len(node.variables)
    return reads, depth
