"""Surface syntax for specifications: lexer and recursive-descent parser.

The grammar, loosest binding first:

    formula  := or_part 'implies' formula | or_part          (right assoc)
    or_part  := and_part ('or' and_part)*
    and_part := temporal ('and' temporal)*
    temporal := unary ('until' | 'since') temporal | unary   (right assoc)
    unary    := ('not'|'next'|'prev'|'always'|'eventually'|'once'|'holds') unary
              | 'exists' '{' vars '}' '@' formula            (body extends right)
              | 'forall' '{' vars '}' '@' formula
              | 'pin' '(' slot ',' slot ')' '{' formula '}'
              | primary
    primary  := 'true' | '(' formula ')' | atom

Atoms cover constraint, attribute, identity, distance, offset and region
comparisons, e.g. ``prob(a) > 0.8``, ``f - C_FRAME >= -3``,
``area(bbox(a) & bbox(b)) / area(bbox(a)) >= 0.3``, ``dist(a, ct, b, lm) < 40``,
``nonempty(~bbox(a) | universe)``. Ratio comparisons may be written either
as division (``area(A)/area(B) >= r``) or multiplication
(``area(A) >= r * area(B)``); both parse to the same ratio node. Time and
frame constraints accept either operand order (``x - C_TIME`` or
``C_TIME - x``) and are normalized to the pinned-minus-current form.

Tokens are separated by spaces, tabs, line breaks and ``#`` line comments.
Identifiers are word characters not starting with a decimal digit; the
keywords and ``_`` are reserved. Numbers are decimal digits with an
optional fraction and exponent (``3``, ``0.5``, ``1e-06``) and must be
finite as a float. Strings are double-quoted on one line and escape only
``\\"`` and ``\\\\``. Each token's kind is its own text, except for
``IDENT``, ``NUMBER``, ``STRING`` and ``EOF``. A token's text is its source
form; a number's value is its numeric value and a string's its unescaped
body. A class label must not be empty, as ingest rejects empty labels.

A specification may nest at most ``MAX_NESTING`` levels deep, counting
operators, binders, parentheses and spatial terms. Deeper input raises a
located ``SpecError``, before any later stage (which recurses once or a few
times per level) can exhaust the interpreter stack.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass

from ..errors import Diagnostic, SpecError
from . import ast as A

KEYWORDS = frozenset(
    """
    true exists forall pin not and or implies
    next prev until since always eventually once holds
    nonempty empty universe bbox area lat lon dist prob class
    C_TIME C_FRAME _
    """.split()
)

# One alternative per token class; only ``space`` can hold a line break.
_TOKEN = re.compile(
    r"""
      (?P<space>(?:[ \t\r\n]|\#[^\n]*)+)
    | (?P<string>"(?P<body>(?:[^"\\\n]|\\["\\]|\\(?!["\\]))*)(?P<close>"?))
    | (?P<number>\d+(?P<real>(?:\.\d+)?(?:[eE][+-]?\d+)?))
    | (?P<word>[^\W\d]\w*)
    | (?P<symbol>[<>=!]=|[<>{}(),@~|&*/-])
    | (?P<other>.)
    """,
    re.VERBOSE,
)
_ESCAPE = re.compile(r'\\(["\\])')
_INF = float("inf")

_CMPS = {c.value: c for c in A.Cmp}

REFERENCE_POINTS = {rp.value: rp for rp in A.ReferencePoint}

# Desugaring can triple a formula's depth and compiling it takes two stack
# frames per core node, so 100 levels stay well inside Python's default
# recursion limit of 1000.
MAX_NESTING = 100


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int
    value: object = None


def _err(kind: str, message: str, line: int | None, column: int | None) -> SpecError:
    return SpecError([Diagnostic(kind, message, line, column)])


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    problems: list[Diagnostic] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, lexeme, column = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "space":
            breaks = lexeme.count("\n")
            if breaks:
                line += breaks
                line_start = m.start() + lexeme.rindex("\n") + 1
        elif kind == "string":
            if m["close"]:
                tokens.append(Token("STRING", lexeme, line, column, _ESCAPE.sub(r"\1", m["body"])))
            else:
                problems.append(Diagnostic("lexical", "unterminated string literal", line, column))
        elif kind == "number":
            try:  # int() refuses over 4300 digits, float() of a larger int overflows
                value = float(lexeme) if m["real"] else int(lexeme)
                finite = float(value) != _INF
            except (ValueError, OverflowError):
                finite = False
            if finite:
                tokens.append(Token("NUMBER", lexeme, line, column, value))
            else:
                problems.append(Diagnostic("lexical", f"number out of range: {lexeme!r}", line, column))
        elif kind == "word":
            tokens.append(Token(lexeme if lexeme in KEYWORDS else "IDENT", lexeme, line, column))
        elif kind == "symbol":
            tokens.append(Token(lexeme, lexeme, line, column))
        else:
            problems.append(Diagnostic("lexical", f"unexpected character {lexeme!r}", line, column))
    if problems:
        raise SpecError(problems)
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


def _too_deep(line: int | None, column: int | None) -> SpecError:
    return _err("syntax", f"specification nests deeper than {MAX_NESTING} levels", line, column)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open nesting levels on the parse stack

    # -- token plumbing --

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        """The next token, which must be of ``kind`` (described as ``what``, or quoted)."""
        tok = self.peek()
        if tok.kind != kind:
            raise self.expected(what or repr(kind))
        return self.next()

    def expected(self, what: str) -> SpecError:
        """``expected <what>, found 'x'`` at the next token, shown as written."""
        tok = self.peek()
        return self.fail(f"expected {what}, found {'end of input' if tok.kind == 'EOF' else tok.text!r}")

    def variable(self, what: str = "an object variable") -> str:
        return self.expect("IDENT", what).text

    def fail(self, message: str) -> SpecError:
        tok = self.peek()
        return _err("syntax", message, tok.line, tok.column)

    @staticmethod
    def loc(tok: Token) -> A.Loc:
        return A.Loc(tok.line, tok.column)

    @contextmanager
    def nested(self, tok: Token):
        """One more nesting level, opened at ``tok``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _too_deep(tok.line, tok.column)
        yield
        self.depth -= 1

    # -- formula levels --

    def formula(self) -> A.Formula:
        lhs = self.or_part()
        tok = self.accept("implies")
        if tok:
            with self.nested(tok):
                rhs = self.formula()
            return A.Implies(lhs, rhs, loc=lhs.loc)
        return lhs

    def or_part(self) -> A.Formula:
        lhs = self.and_part()
        while self.accept("or"):
            lhs = A.Or(lhs, self.and_part(), loc=lhs.loc)
        return lhs

    def and_part(self) -> A.Formula:
        lhs = self.temporal()
        while self.accept("and"):
            lhs = A.And(lhs, self.temporal(), loc=lhs.loc)
        return lhs

    def temporal(self) -> A.Formula:
        lhs = self.unary()
        tok = self.peek()
        if tok.kind not in ("until", "since"):
            return lhs
        self.next()
        with self.nested(tok):
            rhs = self.temporal()
        ctor = A.Until if tok.kind == "until" else A.Since
        return ctor(lhs, rhs, loc=lhs.loc)

    _UNARY = {
        "not": A.Not, "next": A.Next, "prev": A.Prev, "always": A.Always,
        "eventually": A.Eventually, "once": A.Once, "holds": A.Holds,
    }

    def unary(self) -> A.Formula:
        tok = self.peek()
        ctor = self._UNARY.get(tok.kind)
        if ctor is not None:
            self.next()
            with self.nested(tok):
                child = self.unary()
            return ctor(child, loc=self.loc(tok))
        if tok.kind in ("exists", "forall"):
            self.next()
            self.expect("{")
            names = [self.variable("a variable name")]
            while self.accept(","):
                names.append(self.variable("a variable name"))
            self.expect("}")
            self.expect("@")
            with self.nested(tok):
                body = self.formula()
            ctor = A.Exists if tok.kind == "exists" else A.Forall
            return ctor(tuple(names), body, loc=self.loc(tok))
        if tok.kind == "pin":
            self.next()
            self.expect("(")
            time_var = self.pin_slot()
            self.expect(",")
            frame_var = self.pin_slot()
            self.expect(")")
            self.expect("{")
            with self.nested(tok):
                body = self.formula()
            self.expect("}")
            return A.Freeze(time_var, frame_var, body, loc=self.loc(tok))
        return self.primary()

    def pin_slot(self) -> str | None:
        if self.accept("_"):
            return None
        return self.variable("a variable name or '_'")

    # -- atoms --

    def primary(self) -> A.Formula:
        tok = self.peek()
        if tok.kind == "true":
            self.next()
            return A.TrueConst(loc=self.loc(tok))
        if tok.kind == "(":
            self.next()
            with self.nested(tok):
                inner = self.formula()
            self.expect(")")
            return inner
        if tok.kind == "nonempty":
            self.next()
            self.expect("(")
            term = self.spatial()
            self.expect(")")
            return A.SpatialExists(term, loc=self.loc(tok))
        if tok.kind == "prob":
            return self.ratio_atom(self.prob_term, "probability", A.ProbCmpConst, A.ProbCmpRatio)
        if tok.kind == "area":
            return self.ratio_atom(self.area_term, "area", A.AreaCmpConst, A.AreaCmpRatio)
        if tok.kind in ("lat", "lon"):
            return self.ratio_atom(self.offset_term, "offset", A.OffsetCmpConst, A.OffsetCmpRatio)
        if tok.kind == "class":
            return self.class_atom()
        if tok.kind == "dist":
            return self.dist_atom()
        if tok.kind in ("C_TIME", "C_FRAME"):
            self.next()
            self.expect("-")
            return self.constraint(self.variable("a pinned variable"), tok, tok, flip=True)
        if tok.kind == "IDENT":
            return self.ident_atom()
        raise self.expected("a formula")

    def cmp(self, what: str, order: bool = True) -> A.Cmp:
        """A comparison operator after ``what``; with ``order``, not == or !=."""
        cmp = _CMPS.get(self.peek().kind)
        if cmp is None:
            raise self.fail(f"expected a comparison operator after {what}")
        if order and cmp not in A.ORDER_CMPS:
            raise self.fail(
                f"{what} comparisons use <, <=, > or >= (== and != apply to classes and ids only)"
            )
        self.next()
        return cmp

    def number(self) -> tuple[float | int, Token]:
        neg = self.accept("-")
        tok = self.expect("NUMBER", "a number")
        return (-tok.value if neg else tok.value), tok

    def real_number(self) -> float:
        return float(self.number()[0])

    def int_number(self, what: str) -> int:
        value, tok = self.number()
        if not isinstance(value, int):
            raise _err("syntax", f"{what} must be an integer, got {value}", tok.line, tok.column)
        return value

    def ratio_atom(self, term, what: str, const_kind, ratio_kind) -> A.Formula:
        """``T cmp c``, ``T cmp r * T`` or ``T / T cmp r``, with ``term`` parsing ``T``."""
        tok = self.peek()
        lhs = term()
        if self.accept("/"):
            rhs = term()
            cmp = self.cmp(what)
            return ratio_kind(lhs, cmp, self.real_number(), rhs, loc=self.loc(tok))
        cmp = self.cmp(what)
        bound = self.real_number()
        if self.accept("*"):
            return ratio_kind(lhs, cmp, bound, term(), loc=self.loc(tok))
        return const_kind(lhs, cmp, bound, loc=self.loc(tok))

    def object_arg(self) -> str:
        """``(v)``: one object variable in parentheses."""
        self.expect("(")
        var = self.variable()
        self.expect(")")
        return var

    def prob_term(self) -> str:
        self.expect("prob")
        return self.object_arg()

    def area_term(self) -> A.SpatialTerm:
        self.expect("area")
        self.expect("(")
        term = self.spatial()
        self.expect(")")
        return term

    def offset_term(self) -> A.OffsetTerm:
        tok = self.peek()
        if tok.kind not in ("lat", "lon"):
            raise self.fail("expected 'lat' or 'lon'")
        self.next()
        self.expect("(")
        var, ref = self.point()
        self.expect(")")
        return A.OffsetTerm(A.Axis(tok.kind), var, ref, loc=self.loc(tok))

    def point(self) -> tuple[str, A.ReferencePoint]:
        """``v, ref``: a named reference point of an object's box."""
        var = self.variable()
        self.expect(",")
        tok = self.expect("IDENT", "a reference point (lm, rm, tm, bm or ct)")
        ref = REFERENCE_POINTS.get(tok.text)
        if ref is None:
            raise _err(
                "syntax",
                f"unknown reference point {tok.text!r}; expected lm, rm, tm, bm or ct",
                tok.line, tok.column,
            )
        return var, ref

    def class_atom(self) -> A.Formula:
        tok = self.next()  # 'class'
        lhs = self.object_arg()
        op = self.peek()
        if op.kind not in ("==", "!="):
            raise self.fail("class comparisons use == or !=")
        self.next()
        label = self.accept("STRING")
        if label:
            if not label.value:
                raise _err("syntax", "class label must not be empty", label.line, label.column)
            atom: A.Formula = A.ClassEqConst(lhs, label.value, loc=self.loc(tok))
        else:
            self.expect("class", "a quoted class label or 'class(...)'")
            atom = A.ClassEqVar(lhs, self.object_arg(), loc=self.loc(tok))
        return A.Not(atom, loc=self.loc(tok)) if op.kind == "!=" else atom

    def dist_atom(self) -> A.Formula:
        tok = self.next()  # 'dist'
        self.expect("(")
        lhs, lhs_ref = self.point()
        self.expect(",")
        rhs, rhs_ref = self.point()
        self.expect(")")
        cmp = self.cmp("distance")
        bound = self.real_number()
        return A.EDCmp(lhs, lhs_ref, rhs, rhs_ref, cmp, bound, loc=self.loc(tok))

    def constraint(self, var: str, anchor: Token, tok: Token, flip: bool) -> A.Formula:
        """``var - anchor ~ c`` at ``tok``; ``flip`` normalizes ``anchor - var ~ c`` to it."""
        if anchor.kind == "C_TIME":
            cmp = self.cmp("a time constraint", order=False)
            ctor, bound = A.TimeConstraint, self.real_number()
        else:
            cmp = self.cmp("a frame constraint", order=False)
            ctor, bound = A.FrameConstraint, self.int_number("a frame constraint bound")
        if flip:
            cmp, bound = cmp.flipped(), -bound
        return ctor(var, cmp, bound, loc=self.loc(tok))

    def ident_atom(self) -> A.Formula:
        tok = self.next()
        after = self.peek()
        if after.kind == "-":
            self.next()
            anchor = self.peek()
            if anchor.kind not in ("C_TIME", "C_FRAME"):
                raise self.fail("expected C_TIME or C_FRAME after '-'")
            self.next()
            return self.constraint(tok.text, anchor, tok, flip=False)
        if after.kind in ("==", "!="):
            self.next()
            ctor = A.IdEq if after.kind == "==" else A.IdNeq
            return ctor(tok.text, self.variable(), loc=self.loc(tok))
        if after.kind == "(":
            raise _err("syntax", f"unknown function {tok.text!r}", tok.line, tok.column)
        raise self.fail(f"expected '-', '==' or '!=' after variable {tok.text!r}")

    # -- spatial terms --

    def spatial(self) -> A.SpatialTerm:
        lhs = self.spatial_intersect()
        while self.accept("|"):
            lhs = A.SpatialUnion(lhs, self.spatial_intersect(), loc=lhs.loc)
        return lhs

    def spatial_intersect(self) -> A.SpatialTerm:
        lhs = self.spatial_primary()
        while self.accept("&"):
            lhs = A.SpatialIntersect(lhs, self.spatial_primary(), loc=lhs.loc)
        return lhs

    def spatial_primary(self) -> A.SpatialTerm:
        tok = self.peek()
        if tok.kind == "empty":
            self.next()
            return A.EmptySet(loc=self.loc(tok))
        if tok.kind == "universe":
            self.next()
            return A.UniverseSet(loc=self.loc(tok))
        if tok.kind == "bbox":
            self.next()
            return A.BBoxOf(self.object_arg(), loc=self.loc(tok))
        if tok.kind == "~":
            self.next()
            with self.nested(tok):
                inner = self.spatial_primary()
            return A.Complement(inner, loc=self.loc(tok))
        if tok.kind == "(":
            self.next()
            with self.nested(tok):
                inner = self.spatial()
            self.expect(")")
            return inner
        raise self.expected("a spatial term")


def _check_depth(phi: A.Formula) -> None:
    """Reject trees nested deeper than ``MAX_NESTING``.

    The parser's own count misses left-associative chains such as
    ``a or a or ...``, which nest the tree without nesting the parse, so
    the finished tree is measured too, without recursion.
    """
    stack = [(phi, 0, None)]
    while stack:
        node, depth, loc = stack.pop()
        loc = node.loc or loc
        if depth > MAX_NESTING:
            raise _too_deep(loc.line if loc else None, loc.column if loc else None)
        stack.extend((child, depth + 1, loc) for child in node.children()
                     if isinstance(child, (A.Formula, A.SpatialTerm)))


def parse(text: str) -> A.Formula:
    """Parse one formula; raises ``SpecError`` with located diagnostics."""
    parser = _Parser(tokenize(text))
    if parser.peek().kind == "EOF":
        raise parser.fail("empty specification")
    phi = parser.formula()
    if parser.peek().kind != "EOF":
        raise parser.fail(f"unexpected trailing input starting at {parser.peek().text!r}")
    _check_depth(phi)
    return phi
