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
``#`` starts a line comment.

A specification may nest at most ``MAX_NESTING`` levels deep, counting
operators, binders, parentheses and spatial terms. Deeper input raises a
located ``SpecError``, before any later stage (which recurses once or a few
times per level) can exhaust the interpreter stack.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from ..errors import Diagnostic, SpecError
from . import ast as A

KEYWORDS = frozenset(
    """
    true exists forall pin not and or implies
    next prev until since always eventually once holds
    nonempty empty universe bbox area lat lon dist prob class
    C_TIME C_FRAME
    """.split()
)

_SYMBOLS = (
    ("<=", "LE"), (">=", "GE"), ("==", "EQ"), ("!=", "NE"),
    ("<", "LT"), (">", "GT"),
    ("{", "LBRACE"), ("}", "RBRACE"), ("(", "LPAREN"), (")", "RPAREN"),
    (",", "COMMA"), ("@", "AT"), ("~", "TILDE"), ("|", "PIPE"), ("&", "AMP"),
    ("-", "MINUS"), ("*", "STAR"), ("/", "SLASH"),
)

CMP_TOKENS = {
    "LT": A.Cmp.LT, "LE": A.Cmp.LE, "GT": A.Cmp.GT,
    "GE": A.Cmp.GE, "EQ": A.Cmp.EQ, "NE": A.Cmp.NE,
}

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
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                advance()
            continue
        start_line, start_col = line, col
        if ch == '"':
            advance()
            buf = []
            closed = False
            while i < n:
                c = text[i]
                if c == "\n":
                    break
                if c == "\\" and i + 1 < n and text[i + 1] in ('"', "\\"):
                    buf.append(text[i + 1])
                    advance(2)
                    continue
                if c == '"':
                    advance()
                    closed = True
                    break
                buf.append(c)
                advance()
            if not closed:
                problems.append(Diagnostic("lexical", "unterminated string literal", start_line, start_col))
                continue
            tokens.append(Token("STRING", "".join(buf), start_line, start_col, "".join(buf)))
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            is_int = True
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                is_int = False
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    is_int = False
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            value = int(lexeme) if is_int else float(lexeme)
            advance(j - i)
            tokens.append(Token("NUMBER", lexeme, start_line, start_col, value))
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            advance(j - i)
            if word == "_":
                tokens.append(Token("UNDERSCORE", word, start_line, start_col))
            elif word in KEYWORDS:
                tokens.append(Token(word, word, start_line, start_col))
            else:
                tokens.append(Token("IDENT", word, start_line, start_col))
            continue
        for sym, kind in _SYMBOLS:
            if text.startswith(sym, i):
                advance(len(sym))
                tokens.append(Token(kind, sym, start_line, start_col))
                break
        else:
            problems.append(Diagnostic("lexical", f"unexpected character {ch!r}", start_line, start_col))
            advance()
    if problems:
        raise SpecError(problems)
    tokens.append(Token("EOF", "", line, col))
    return tokens


def _too_deep(line: int | None, column: int | None) -> SpecError:
    return _err("syntax", f"specification nests deeper than {MAX_NESTING} levels", line, column)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open nesting levels on the parse stack

    # -- token plumbing --

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text or "end of input"
            raise _err("syntax", f"expected {what}, found {found!r}", tok.line, tok.column)
        return self.next()

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
            return A.Implies(lhs, rhs, loc=_first_loc(lhs))
        return lhs

    def or_part(self) -> A.Formula:
        lhs = self.and_part()
        while self.accept("or"):
            lhs = A.Or(lhs, self.and_part(), loc=_first_loc(lhs))
        return lhs

    def and_part(self) -> A.Formula:
        lhs = self.temporal()
        while self.accept("and"):
            lhs = A.And(lhs, self.temporal(), loc=_first_loc(lhs))
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
        return ctor(lhs, rhs, loc=_first_loc(lhs))

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
            self.expect("LBRACE", "'{'")
            names = [self.expect("IDENT", "a variable name").text]
            while self.accept("COMMA"):
                names.append(self.expect("IDENT", "a variable name").text)
            self.expect("RBRACE", "'}'")
            self.expect("AT", "'@'")
            with self.nested(tok):
                body = self.formula()
            ctor = A.Exists if tok.kind == "exists" else A.Forall
            return ctor(tuple(names), body, loc=self.loc(tok))
        if tok.kind == "pin":
            self.next()
            self.expect("LPAREN", "'('")
            time_var = self.pin_slot()
            self.expect("COMMA", "','")
            frame_var = self.pin_slot()
            self.expect("RPAREN", "')'")
            self.expect("LBRACE", "'{'")
            with self.nested(tok):
                body = self.formula()
            self.expect("RBRACE", "'}'")
            return A.Freeze(time_var, frame_var, body, loc=self.loc(tok))
        return self.primary()

    def pin_slot(self) -> str | None:
        if self.accept("UNDERSCORE"):
            return None
        return self.expect("IDENT", "a variable name or '_'").text

    # -- atoms --

    def primary(self) -> A.Formula:
        tok = self.peek()
        if tok.kind == "true":
            self.next()
            return A.TrueConst(loc=self.loc(tok))
        if tok.kind == "LPAREN":
            self.next()
            with self.nested(tok):
                inner = self.formula()
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind == "nonempty":
            self.next()
            self.expect("LPAREN", "'('")
            term = self.spatial()
            self.expect("RPAREN", "')'")
            return A.SpatialExists(term, loc=self.loc(tok))
        if tok.kind == "prob":
            return self.prob_atom()
        if tok.kind == "class":
            return self.class_atom()
        if tok.kind == "area":
            return self.area_atom()
        if tok.kind in ("lat", "lon"):
            return self.offset_atom()
        if tok.kind == "dist":
            return self.dist_atom()
        if tok.kind in ("C_TIME", "C_FRAME"):
            return self.constraint_atom_reversed()
        if tok.kind == "IDENT":
            return self.ident_atom()
        found = tok.text or "end of input"
        raise _err("syntax", f"expected a formula, found {found!r}", tok.line, tok.column)

    def order_cmp(self, what: str) -> A.Cmp:
        tok = self.peek()
        cmp = CMP_TOKENS.get(tok.kind)
        if cmp is None:
            raise self.fail(f"expected a comparison operator after {what}")
        if cmp not in A.ORDER_CMPS:
            raise _err(
                "syntax",
                f"{what} comparisons use <, <=, > or >= (== and != apply to classes and ids only)",
                tok.line, tok.column,
            )
        self.next()
        return cmp

    def any_cmp(self, what: str) -> A.Cmp:
        tok = self.peek()
        cmp = CMP_TOKENS.get(tok.kind)
        if cmp is None:
            raise self.fail(f"expected a comparison operator after {what}")
        self.next()
        return cmp

    def signed_number(self) -> tuple[float | int, bool, Token]:
        neg = self.accept("MINUS")
        tok = self.expect("NUMBER", "a number")
        value = -tok.value if neg else tok.value
        return value, isinstance(tok.value, int), tok

    def real_number(self) -> float:
        value, _, _ = self.signed_number()
        return float(value)

    def int_number(self, what: str) -> int:
        value, is_int, tok = self.signed_number()
        if not is_int:
            raise _err("syntax", f"{what} must be an integer, got {value}", tok.line, tok.column)
        return int(value)

    def prob_term(self) -> str:
        self.expect("prob", "'prob'")
        self.expect("LPAREN", "'('")
        var = self.expect("IDENT", "an object variable").text
        self.expect("RPAREN", "')'")
        return var

    def prob_atom(self) -> A.Formula:
        tok = self.peek()
        lhs = self.prob_term()
        if self.accept("SLASH"):
            rhs = self.prob_term()
            cmp = self.order_cmp("probability")
            ratio = self.real_number()
            return A.ProbCmpRatio(lhs, cmp, ratio, rhs, loc=self.loc(tok))
        cmp = self.order_cmp("probability")
        bound = self.real_number()
        if self.accept("STAR"):
            rhs = self.prob_term()
            return A.ProbCmpRatio(lhs, cmp, bound, rhs, loc=self.loc(tok))
        return A.ProbCmpConst(lhs, cmp, bound, loc=self.loc(tok))

    def class_atom(self) -> A.Formula:
        tok = self.next()  # 'class'
        self.expect("LPAREN", "'('")
        lhs = self.expect("IDENT", "an object variable").text
        self.expect("RPAREN", "')'")
        op = self.peek()
        if op.kind not in ("EQ", "NE"):
            raise self.fail("class comparisons use == or !=")
        self.next()
        if self.peek().kind == "STRING":
            label = self.next().value
            atom: A.Formula = A.ClassEqConst(lhs, label, loc=self.loc(tok))
        else:
            self.expect("class", "a quoted class label or 'class(...)'")
            self.expect("LPAREN", "'('")
            rhs = self.expect("IDENT", "an object variable").text
            self.expect("RPAREN", "')'")
            atom = A.ClassEqVar(lhs, rhs, loc=self.loc(tok))
        if op.kind == "NE":
            return A.Not(atom, loc=self.loc(tok))
        return atom

    def area_term(self) -> A.SpatialTerm:
        self.expect("area", "'area'")
        self.expect("LPAREN", "'('")
        term = self.spatial()
        self.expect("RPAREN", "')'")
        return term

    def area_atom(self) -> A.Formula:
        tok = self.peek()
        lhs = self.area_term()
        if self.accept("SLASH"):
            rhs = self.area_term()
            cmp = self.order_cmp("area")
            ratio = self.real_number()
            return A.AreaCmpRatio(lhs, cmp, ratio, rhs, loc=self.loc(tok))
        cmp = self.order_cmp("area")
        bound = self.real_number()
        if self.accept("STAR"):
            rhs = self.area_term()
            return A.AreaCmpRatio(lhs, cmp, bound, rhs, loc=self.loc(tok))
        return A.AreaCmpConst(lhs, cmp, bound, loc=self.loc(tok))

    def reference_point(self) -> A.ReferencePoint:
        tok = self.expect("IDENT", "a reference point (lm, rm, tm, bm or ct)")
        ref = REFERENCE_POINTS.get(tok.text)
        if ref is None:
            raise _err(
                "syntax",
                f"unknown reference point {tok.text!r}; expected lm, rm, tm, bm or ct",
                tok.line, tok.column,
            )
        return ref

    def offset_term(self) -> A.OffsetTerm:
        tok = self.peek()
        if tok.kind not in ("lat", "lon"):
            raise self.fail("expected 'lat' or 'lon'")
        self.next()
        axis = A.Axis.LAT if tok.kind == "lat" else A.Axis.LON
        self.expect("LPAREN", "'('")
        var = self.expect("IDENT", "an object variable").text
        self.expect("COMMA", "','")
        ref = self.reference_point()
        self.expect("RPAREN", "')'")
        return A.OffsetTerm(axis, var, ref, loc=self.loc(tok))

    def offset_atom(self) -> A.Formula:
        tok = self.peek()
        lhs = self.offset_term()
        if self.accept("SLASH"):
            rhs = self.offset_term()
            cmp = self.order_cmp("offset")
            ratio = self.real_number()
            return A.OffsetCmpRatio(lhs, cmp, ratio, rhs, loc=self.loc(tok))
        cmp = self.order_cmp("offset")
        bound = self.real_number()
        if self.accept("STAR"):
            rhs = self.offset_term()
            return A.OffsetCmpRatio(lhs, cmp, bound, rhs, loc=self.loc(tok))
        return A.OffsetCmpConst(lhs, cmp, bound, loc=self.loc(tok))

    def dist_atom(self) -> A.Formula:
        tok = self.next()  # 'dist'
        self.expect("LPAREN", "'('")
        lhs = self.expect("IDENT", "an object variable").text
        self.expect("COMMA", "','")
        lhs_ref = self.reference_point()
        self.expect("COMMA", "','")
        rhs = self.expect("IDENT", "an object variable").text
        self.expect("COMMA", "','")
        rhs_ref = self.reference_point()
        self.expect("RPAREN", "')'")
        cmp = self.order_cmp("distance")
        bound = self.real_number()
        return A.EDCmp(lhs, lhs_ref, rhs, rhs_ref, cmp, bound, loc=self.loc(tok))

    def constraint_atom_reversed(self) -> A.Formula:
        """``C_TIME - x ~ c`` and ``C_FRAME - f ~ n``, normalized by flipping."""
        tok = self.next()
        self.expect("MINUS", "'-'")
        var = self.expect("IDENT", "a pinned variable").text
        if tok.kind == "C_TIME":
            cmp = self.any_cmp("a time constraint")
            bound = self.real_number()
            return A.TimeConstraint(var, cmp.flipped(), -bound, loc=self.loc(tok))
        cmp = self.any_cmp("a frame constraint")
        bound = self.int_number("a frame constraint bound")
        return A.FrameConstraint(var, cmp.flipped(), -bound, loc=self.loc(tok))

    def ident_atom(self) -> A.Formula:
        tok = self.next()
        after = self.peek()
        if after.kind == "MINUS":
            self.next()
            anchor = self.peek()
            if anchor.kind == "C_TIME":
                self.next()
                cmp = self.any_cmp("a time constraint")
                bound = self.real_number()
                return A.TimeConstraint(tok.text, cmp, bound, loc=self.loc(tok))
            if anchor.kind == "C_FRAME":
                self.next()
                cmp = self.any_cmp("a frame constraint")
                bound = self.int_number("a frame constraint bound")
                return A.FrameConstraint(tok.text, cmp, bound, loc=self.loc(tok))
            raise self.fail("expected C_TIME or C_FRAME after '-'")
        if after.kind == "EQ":
            self.next()
            rhs = self.expect("IDENT", "an object variable").text
            return A.IdEq(tok.text, rhs, loc=self.loc(tok))
        if after.kind == "NE":
            self.next()
            rhs = self.expect("IDENT", "an object variable").text
            return A.IdNeq(tok.text, rhs, loc=self.loc(tok))
        if after.kind == "LPAREN":
            raise _err("syntax", f"unknown function {tok.text!r}", tok.line, tok.column)
        raise _err(
            "syntax",
            f"expected '-', '==' or '!=' after variable {tok.text!r}",
            after.line, after.column,
        )

    # -- spatial terms --

    def spatial(self) -> A.SpatialTerm:
        lhs = self.spatial_intersect()
        while self.accept("PIPE"):
            lhs = A.SpatialUnion(lhs, self.spatial_intersect(), loc=_first_loc(lhs))
        return lhs

    def spatial_intersect(self) -> A.SpatialTerm:
        lhs = self.spatial_primary()
        while self.accept("AMP"):
            lhs = A.SpatialIntersect(lhs, self.spatial_primary(), loc=_first_loc(lhs))
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
            self.expect("LPAREN", "'('")
            var = self.expect("IDENT", "an object variable").text
            self.expect("RPAREN", "')'")
            return A.BBoxOf(var, loc=self.loc(tok))
        if tok.kind == "TILDE":
            self.next()
            with self.nested(tok):
                inner = self.spatial_primary()
            return A.Complement(inner, loc=self.loc(tok))
        if tok.kind == "LPAREN":
            self.next()
            with self.nested(tok):
                inner = self.spatial()
            self.expect("RPAREN", "')'")
            return inner
        found = tok.text or "end of input"
        raise _err("syntax", f"expected a spatial term, found {found!r}", tok.line, tok.column)


def _first_loc(node) -> A.Loc | None:
    return getattr(node, "loc", None)


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
    tokens = tokenize(text)
    parser = _Parser(tokens)
    if parser.peek().kind == "EOF":
        tok = parser.peek()
        raise _err("syntax", "empty specification", tok.line, tok.column)
    phi = parser.formula()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise _err(
            "syntax",
            f"unexpected trailing input starting at {trailing.text!r}",
            trailing.line, trailing.column,
        )
    _check_depth(phi)
    return phi
