"""Render formulas back into the surface syntax.

``parse(format_formula(phi))`` reconstructs an equal tree for every
formula whose constants are finite, with parentheses inserted only where
precedence demands. An infinite or NaN constant, which only a formula built
in code can hold, has no surface syntax: printing it is a
``ContractViolation``.
Quantifier bodies are always parenthesized because their scope otherwise
extends maximally to the right.
"""

from __future__ import annotations

import math

from ..errors import ContractViolation
from . import ast as A

# Binding strength of each node kind when printed. Quantifiers share the
# lowest level with implication: their body swallows everything to the
# right, so they need parentheses in any operand position.
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_TEMPORAL = 4
_PREC_UNARY = 5
_PREC_ATOM = 6

_UNARY_WORDS = {
    A.Not: "not", A.Next: "next", A.Prev: "prev", A.Always: "always",
    A.Eventually: "eventually", A.Once: "once", A.Holds: "holds",
}


def _escape(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_spatial(term: A.SpatialTerm) -> str:
    return _spatial(term, 0)


def _spatial(term: A.SpatialTerm, required: int) -> str:
    # Spatial precedence: union 1, intersection 2, complement 3, atoms 4.
    if isinstance(term, A.EmptySet):
        return "empty"
    if isinstance(term, A.UniverseSet):
        return "universe"
    if isinstance(term, A.BBoxOf):
        return f"bbox({term.var})"
    if isinstance(term, A.Complement):
        text = f"~{_spatial(term.term, 3)}"
        return text if required <= 3 else f"({text})"
    if isinstance(term, A.SpatialUnion):
        text = f"{_spatial(term.lhs, 1)} | {_spatial(term.rhs, 2)}"
        return text if required <= 1 else f"({text})"
    if isinstance(term, A.SpatialIntersect):
        text = f"{_spatial(term.lhs, 2)} & {_spatial(term.rhs, 3)}"
        return text if required <= 2 else f"({text})"
    raise ContractViolation(f"unknown spatial term {term!r}")


def _num(phi: A.Formula, value: float) -> str:
    # The lexer reads only finite numbers, so ``inf`` or ``nan`` would not parse.
    if not math.isfinite(value):
        raise ContractViolation(f"{type(phi).__name__} constant {value!r} has no surface syntax")
    return repr(value)


def _offset(term: A.OffsetTerm) -> str:
    return f"{term.axis.value}({term.var}, {term.ref.value})"


def format_formula(phi: A.Formula) -> str:
    """Surface-syntax text for any formula (sugar included)."""
    return _formula(phi, 0)


def _wrap(text: str, prec: int, required: int) -> str:
    return text if prec >= required else f"({text})"


def _formula(phi: A.Formula, required: int) -> str:
    word = _UNARY_WORDS.get(type(phi))
    if word is not None:
        return _wrap(f"{word} {_formula(phi.child, _PREC_UNARY)}", _PREC_UNARY, required)

    if isinstance(phi, A.TrueConst):
        return "true"
    if isinstance(phi, A.Or):
        text = f"{_formula(phi.lhs, _PREC_OR)} or {_formula(phi.rhs, _PREC_OR + 1)}"
        return _wrap(text, _PREC_OR, required)
    if isinstance(phi, A.And):
        text = f"{_formula(phi.lhs, _PREC_AND)} and {_formula(phi.rhs, _PREC_AND + 1)}"
        return _wrap(text, _PREC_AND, required)
    if isinstance(phi, A.Implies):
        text = f"{_formula(phi.lhs, _PREC_IMPLIES + 1)} implies {_formula(phi.rhs, _PREC_IMPLIES)}"
        return _wrap(text, _PREC_IMPLIES, required)
    if isinstance(phi, (A.Until, A.Since)):
        op = "until" if isinstance(phi, A.Until) else "since"
        text = f"{_formula(phi.lhs, _PREC_UNARY)} {op} {_formula(phi.rhs, _PREC_TEMPORAL)}"
        return _wrap(text, _PREC_TEMPORAL, required)
    if isinstance(phi, (A.Exists, A.Forall)):
        word = "exists" if isinstance(phi, A.Exists) else "forall"
        text = f"{word} {{{', '.join(phi.variables)}}} @ ({_formula(phi.child, 0)})"
        return _wrap(text, _PREC_IMPLIES, required)
    if isinstance(phi, A.Freeze):
        t = phi.time_var or "_"
        f = phi.frame_var or "_"
        return f"pin ({t}, {f}) {{ {_formula(phi.child, 0)} }}"

    # atoms
    if isinstance(phi, A.TimeConstraint):
        return f"{phi.var} - C_TIME {phi.cmp.value} {_num(phi, phi.bound)}"
    if isinstance(phi, A.FrameConstraint):
        return f"{phi.var} - C_FRAME {phi.cmp.value} {phi.bound!r}"
    if isinstance(phi, A.ClassEqConst):
        return f"class({phi.var}) == {_escape(phi.label)}"
    if isinstance(phi, A.ClassEqVar):
        return f"class({phi.lhs}) == class({phi.rhs})"
    if isinstance(phi, A.ProbCmpConst):
        return f"prob({phi.var}) {phi.cmp.value} {_num(phi, phi.bound)}"
    if isinstance(phi, A.ProbCmpRatio):
        return f"prob({phi.lhs}) {phi.cmp.value} {_num(phi, phi.ratio)} * prob({phi.rhs})"
    if isinstance(phi, A.IdEq):
        return f"{phi.lhs} == {phi.rhs}"
    if isinstance(phi, A.IdNeq):
        return f"{phi.lhs} != {phi.rhs}"
    if isinstance(phi, A.SpatialExists):
        return f"nonempty({format_spatial(phi.term)})"
    if isinstance(phi, A.AreaCmpConst):
        return f"area({format_spatial(phi.term)}) {phi.cmp.value} {_num(phi, phi.bound)}"
    if isinstance(phi, A.AreaCmpRatio):
        return (
            f"area({format_spatial(phi.lhs)}) {phi.cmp.value} "
            f"{_num(phi, phi.ratio)} * area({format_spatial(phi.rhs)})"
        )
    if isinstance(phi, A.EDCmp):
        return (
            f"dist({phi.lhs}, {phi.lhs_ref.value}, {phi.rhs}, {phi.rhs_ref.value}) "
            f"{phi.cmp.value} {_num(phi, phi.bound)}"
        )
    if isinstance(phi, A.OffsetCmpConst):
        return f"{_offset(phi.term)} {phi.cmp.value} {_num(phi, phi.bound)}"
    if isinstance(phi, A.OffsetCmpRatio):
        return f"{_offset(phi.lhs)} {phi.cmp.value} {_num(phi, phi.ratio)} * {_offset(phi.rhs)}"

    raise ContractViolation(f"unknown formula node {phi!r}")
