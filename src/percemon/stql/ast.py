"""Abstract syntax for the specification language.

Formula trees combine a propositional and temporal core with freeze
quantifiers over time/frame variables, existential quantifiers over the
objects of a frame, and atoms over object attributes and box-derived
regions. Sugar node kinds (conjunction, implication, always, eventually,
once, holds, universal quantification) parse and print normally but are
rewritten into the core by ``desugar``. Spatial intersection is core: the
evaluator computes it directly.

Every node kind declares its fields as class annotations, in constructor
order, and derives the rest from ``Node``: a positional constructor with a
keyword-only source location ``loc``, equality and hashing by kind and
fields (locations ignored, so a parsed formula compares equal to the same
formula built programmatically), a repr, immutability, and the structural
walks ``children`` and ``map``. Passes that recurse over the tree go
through those two, so this module alone says which fields hold sub-nodes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional


@dataclass(frozen=True)
class Loc:
    line: int
    column: int


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


class Node:
    """Base class of every syntax-tree node.

    Nodes keep their values in the instance ``__dict__`` (no slots), so
    ``vars(node)`` lists the fields and ``loc``.
    """

    _fields: tuple[str, ...] = ()
    loc: Optional[Loc]

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *values, loc: Optional[Loc] = None) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} field(s) "
                            f"{self._fields}, got {len(values)}")
        state = self.__dict__
        state.update(zip(self._fields, values))
        state["loc"] = loc

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self), self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def children(self) -> list[Node]:
        """The sub-nodes held in this node's fields, in field order."""
        return [value for value in self._values() if isinstance(value, Node)]

    def map(self, fn: Callable[[Node], Node]) -> Node:
        """The same kind of node with ``fn`` applied to each sub-node.

        Other fields and ``loc`` are kept.
        """
        values = [fn(value) if isinstance(value, Node) else value for value in self._values()]
        return type(self)(*values, loc=self.loc)


class Formula(Node):
    """Base class of all formula nodes."""


class SpatialTerm(Node):
    """Base class of all spatial term nodes."""


# --- spatial terms ----------------------------------------------------------

class EmptySet(SpatialTerm):
    """The empty region."""

class UniverseSet(SpatialTerm):
    """The whole image."""

class BBoxOf(SpatialTerm):
    var: str


class Complement(SpatialTerm):
    term: SpatialTerm


class SpatialUnion(SpatialTerm):
    lhs: SpatialTerm
    rhs: SpatialTerm


class SpatialIntersect(SpatialTerm):
    lhs: SpatialTerm
    rhs: SpatialTerm


class OffsetTerm(Node):
    """Lateral or longitudinal coordinate of a reference point of a box."""

    axis: Axis
    var: str
    ref: ReferencePoint


# --- propositional / temporal core -----------------------------------------

class TrueConst(Formula):
    """The constant true."""

class Not(Formula):
    child: Formula


class Or(Formula):
    lhs: Formula
    rhs: Formula


class And(Formula):  # sugar
    lhs: Formula
    rhs: Formula


class Implies(Formula):  # sugar
    lhs: Formula
    rhs: Formula


class Next(Formula):
    child: Formula


class Prev(Formula):
    child: Formula


class Always(Formula):  # sugar
    child: Formula


class Eventually(Formula):  # sugar
    child: Formula


class Once(Formula):  # sugar
    child: Formula


class Holds(Formula):  # sugar
    child: Formula


class Until(Formula):
    lhs: Formula
    rhs: Formula


class Since(Formula):
    lhs: Formula
    rhs: Formula


# --- binders ----------------------------------------------------------------

class Exists(Formula):
    variables: tuple[str, ...]
    child: Formula


class Forall(Formula):  # sugar
    variables: tuple[str, ...]
    child: Formula


class Freeze(Formula):
    """Pin the current timestamp and frame index into variables.

    Either slot may be omitted (None), written ``_`` in the surface syntax.
    """

    time_var: Optional[str]
    frame_var: Optional[str]
    child: Formula


# --- atoms ------------------------------------------------------------------

class TimeConstraint(Formula):
    """Pinned timestamp minus current timestamp, compared with a constant."""

    var: str
    cmp: Cmp
    bound: float


class FrameConstraint(Formula):
    """Pinned frame index minus current index, compared with a constant."""

    var: str
    cmp: Cmp
    bound: int


class ClassEqConst(Formula):
    var: str
    label: str


class ClassEqVar(Formula):
    lhs: str
    rhs: str


class ProbCmpConst(Formula):
    var: str
    cmp: Cmp
    bound: float


class ProbCmpRatio(Formula):
    lhs: str
    cmp: Cmp
    ratio: float
    rhs: str


class IdEq(Formula):
    lhs: str
    rhs: str


class IdNeq(Formula):
    lhs: str
    rhs: str


class SpatialExists(Formula):
    """True when the spatial term denotes a region of positive area."""

    term: SpatialTerm


class AreaCmpConst(Formula):
    term: SpatialTerm
    cmp: Cmp
    bound: float


class AreaCmpRatio(Formula):
    lhs: SpatialTerm
    cmp: Cmp
    ratio: float
    rhs: SpatialTerm


class EDCmp(Formula):
    """Euclidean distance between reference points of two boxes."""

    lhs: str
    lhs_ref: ReferencePoint
    rhs: str
    rhs_ref: ReferencePoint
    cmp: Cmp
    bound: float


class OffsetCmpConst(Formula):
    term: OffsetTerm
    cmp: Cmp
    bound: float


class OffsetCmpRatio(Formula):
    lhs: OffsetTerm
    cmp: Cmp
    ratio: float
    rhs: OffsetTerm


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

def subformulas(phi: Formula):
    """Yield ``phi`` and every formula node below it, pre-order."""
    yield phi
    for sub in phi.children():
        if isinstance(sub, Formula):
            yield from subformulas(sub)


def is_core(phi: Formula) -> bool:
    """True when no sugar node kind appears anywhere in the tree."""
    return not any(isinstance(sub, SUGAR_FORMULAS) for sub in subformulas(phi))
