"""Abstract syntax for the specification language.

Formula trees combine a propositional and temporal core with freeze
quantifiers over time/frame variables, existential quantifiers over the
objects of a frame, and atoms over object attributes and box-derived
regions. Sugar node kinds (conjunction, implication, always, eventually,
once, holds, universal quantification) parse and print normally but are
rewritten into the core by ``desugar``. Spatial intersection is core: the
evaluator computes it directly.

Node equality ignores source locations, so a parsed formula compares equal
to the same formula built programmatically.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union


@dataclass(frozen=True)
class Loc:
    line: int
    column: int


def _loc_field():
    return field(default=None, compare=False, repr=False, kw_only=True)


class Cmp(Enum):
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="

    @property
    def function(self):
        """The two-argument operator function, e.g. ``operator.lt`` for ``<``."""
        return _CMP_FUNCS[self]

    def flipped(self) -> "Cmp":
        """The comparison seen from the other side (for a - b vs b - a)."""
        return _CMP_FLIP[self]


_CMP_FUNCS = {
    Cmp.LT: operator.lt,
    Cmp.LE: operator.le,
    Cmp.GT: operator.gt,
    Cmp.GE: operator.ge,
    Cmp.EQ: operator.eq,
    Cmp.NE: operator.ne,
}

_CMP_FLIP = {
    Cmp.LT: Cmp.GT,
    Cmp.LE: Cmp.GE,
    Cmp.GT: Cmp.LT,
    Cmp.GE: Cmp.LE,
    Cmp.EQ: Cmp.EQ,
    Cmp.NE: Cmp.NE,
}

ORDER_CMPS = frozenset((Cmp.LT, Cmp.LE, Cmp.GT, Cmp.GE))


class ReferencePoint(Enum):
    """Named reference point of a box: edge midpoints and the centroid."""

    LM = "lm"
    RM = "rm"
    TM = "tm"
    BM = "bm"
    CT = "ct"


class Axis(Enum):
    LAT = "lat"  # x coordinate: offset from the left image edge
    LON = "lon"  # y coordinate: offset from the top image edge


class Formula:
    """Base class of all formula nodes."""


class SpatialTerm:
    """Base class of all spatial term nodes."""


# --- spatial terms ----------------------------------------------------------

@dataclass(frozen=True)
class EmptySet(SpatialTerm):
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class UniverseSet(SpatialTerm):
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class BBoxOf(SpatialTerm):
    var: str
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Complement(SpatialTerm):
    term: SpatialTerm
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class SpatialUnion(SpatialTerm):
    lhs: SpatialTerm
    rhs: SpatialTerm
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class SpatialIntersect(SpatialTerm):
    lhs: SpatialTerm
    rhs: SpatialTerm
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class OffsetTerm:
    """Lateral or longitudinal coordinate of a reference point of a box."""

    axis: Axis
    var: str
    ref: ReferencePoint
    loc: Optional[Loc] = _loc_field()


# --- propositional / temporal core -----------------------------------------

@dataclass(frozen=True)
class TrueConst(Formula):
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Not(Formula):
    child: Formula
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class And(Formula):  # sugar
    lhs: Formula
    rhs: Formula
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Implies(Formula):  # sugar
    lhs: Formula
    rhs: Formula
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Next(Formula):
    child: Formula
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Prev(Formula):
    child: Formula
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Always(Formula):  # sugar
    child: Formula
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Eventually(Formula):  # sugar
    child: Formula
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Once(Formula):  # sugar
    child: Formula
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Holds(Formula):  # sugar
    child: Formula
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Until(Formula):
    lhs: Formula
    rhs: Formula
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Since(Formula):
    lhs: Formula
    rhs: Formula
    loc: Optional[Loc] = _loc_field()


# --- binders ----------------------------------------------------------------

@dataclass(frozen=True)
class Exists(Formula):
    variables: tuple[str, ...]
    child: Formula
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Forall(Formula):  # sugar
    variables: tuple[str, ...]
    child: Formula
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Freeze(Formula):
    """Pin the current timestamp and frame index into variables.

    Either slot may be omitted (None), written ``_`` in the surface syntax.
    """

    time_var: Optional[str]
    frame_var: Optional[str]
    child: Formula
    loc: Optional[Loc] = _loc_field()


# --- atoms ------------------------------------------------------------------

@dataclass(frozen=True)
class TimeConstraint(Formula):
    """Pinned timestamp minus current timestamp, compared with a constant."""

    var: str
    cmp: Cmp
    bound: float
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class FrameConstraint(Formula):
    """Pinned frame index minus current index, compared with a constant."""

    var: str
    cmp: Cmp
    bound: int
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class ClassEqConst(Formula):
    var: str
    label: str
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class ClassEqVar(Formula):
    lhs: str
    rhs: str
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class ProbCmpConst(Formula):
    var: str
    cmp: Cmp
    bound: float
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class ProbCmpRatio(Formula):
    lhs: str
    cmp: Cmp
    ratio: float
    rhs: str
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class IdEq(Formula):
    lhs: str
    rhs: str
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class IdNeq(Formula):
    lhs: str
    rhs: str
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class SpatialExists(Formula):
    """True when the spatial term denotes a region of positive area."""

    term: SpatialTerm
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class AreaCmpConst(Formula):
    term: SpatialTerm
    cmp: Cmp
    bound: float
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class AreaCmpRatio(Formula):
    lhs: SpatialTerm
    cmp: Cmp
    ratio: float
    rhs: SpatialTerm
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class EDCmp(Formula):
    """Euclidean distance between reference points of two boxes."""

    lhs: str
    lhs_ref: ReferencePoint
    rhs: str
    rhs_ref: ReferencePoint
    cmp: Cmp
    bound: float
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class OffsetCmpConst(Formula):
    term: OffsetTerm
    cmp: Cmp
    bound: float
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class OffsetCmpRatio(Formula):
    lhs: OffsetTerm
    cmp: Cmp
    ratio: float
    rhs: OffsetTerm
    loc: Optional[Loc] = _loc_field()


SUGAR_FORMULAS = (And, Implies, Always, Eventually, Once, Holds, Forall)

ATOM_KINDS = (
    TrueConst,
    TimeConstraint,
    FrameConstraint,
    ClassEqConst,
    ClassEqVar,
    ProbCmpConst,
    ProbCmpRatio,
    IdEq,
    IdNeq,
    SpatialExists,
    AreaCmpConst,
    AreaCmpRatio,
    EDCmp,
    OffsetCmpConst,
    OffsetCmpRatio,
)

Node = Union[Formula, SpatialTerm, OffsetTerm]


def subformulas(phi: Formula):
    """Yield ``phi`` and every formula node below it, pre-order."""
    yield phi
    for name in ("child", "lhs", "rhs"):
        sub = getattr(phi, name, None)
        if isinstance(sub, Formula):
            yield from subformulas(sub)


def is_core(phi: Formula) -> bool:
    """True when no sugar node kind appears anywhere in the tree."""
    return not any(isinstance(sub, SUGAR_FORMULAS) for sub in subformulas(phi))
