import random

import pytest

from percemon.errors import ContractViolation
from percemon.stql import ast as A
from percemon.stql.bounds import FrameBounds, bare, compute_bounds
from percemon.stql.builtins import phi1, phi2, probe
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse

from randgen import FormulaGen


def bounds_of(text):
    b = compute_bounds(desugar(parse(text)))
    return b.history, b.horizon


# Each structural rule exercised once, with hand-derived expectations.
CASES = [
    ("true", (0, 0)),
    ("not true", (0, 0)),
    ("exists {a} @ (prob(a) > 0.5)", (0, 0)),
    ("pin (x, f) { x - C_TIME <= 1.0 }", (0, 0)),
    ("prev true", (1, 0)),
    ("next next true", (0, 2)),
    ("next prev true", (0, 1)),
    ("prev next true", (1, 0)),
    ("prev true or next true", (1, 1)),
    ("prev prev true and next true", (2, 1)),
    ("true until true", (0, None)),
    ("true since true", (None, 0)),
    ("true until prev true", (1, None)),
    ("prev (true since true)", (None, 0)),
    # future guards: always (guard implies ...), eventually (guard and ...)
    ("pin (_, f) { always (C_FRAME - f <= 3 implies true) }", (0, 3)),
    ("pin (_, f) { always (C_FRAME - f < 3 implies true) }", (0, 2)),
    ("pin (_, f) { eventually (C_FRAME - f <= 2 and prev true) }", (1, 2)),
    ("pin (_, f) { eventually (C_FRAME - f <= 2 and next true) }", (0, 3)),
    ("pin (_, f) { true until (f - C_FRAME >= -4 and true) }", (0, 4)),
    # past guards: holds (guard implies ...), once (guard and ...)
    ("pin (_, f) { once (f - C_FRAME <= 4 and true) }", (4, 0)),
    ("pin (_, f) { once (f - C_FRAME < 4 and true) }", (3, 0)),
    ("pin (_, f) { holds (f - C_FRAME < 6 implies true) }", (5, 0)),
    ("pin (_, f) { holds ((f - C_FRAME < 6 and prev true) implies true) }", (6, 0)),
    # guards seen through a pin that nothing reads, and through not not
    ("forall {b} @ pin (_, f) { always (pin (_, g) { C_FRAME - f <= 5 } implies prob(b) > 0.6) }",
     (0, 5)),
    ("forall {b} @ pin (_, f) { pin (_, g) { always (C_FRAME - f <= 5 implies prob(b) > 0.6) } }",
     (0, 5)),
    ("pin (_, f) { once (not not pin (s, _) { f - C_FRAME <= 2 } and true) }", (2, 0)),
    # guards that must not be recognized
    ("pin (_, f) { true until (f - C_FRAME <= 3 and true) }", (0, None)),
    ("pin (_, f) { true since (C_FRAME - f <= 3 and true) }", (None, 0)),
    ("pin (x, _) { always (C_TIME - x <= 3.0 implies true) }", (0, None)),
    ("pin (_, f) { always (C_FRAME - f <= 3 or true) }", (0, None)),
    # a pin whose variable is read hides the guard
    ("pin (_, f) { always (pin (_, g) { C_FRAME - f <= 3 and C_FRAME - g <= 0 } implies true) }",
     (0, None)),
    ("always true", (0, None)),
    ("once true", (None, 0)),
]


@pytest.mark.parametrize("text,expected", CASES)
def test_bounds_corpus(text, expected):
    assert bounds_of(text) == expected


def test_builtins_need_one_frame_of_history():
    for formula in (phi1(), phi2()):
        bounds = compute_bounds(desugar(formula))
        assert (bounds.history, bounds.horizon) == (1, 0)


@pytest.mark.parametrize("text, expected", [
    ("not not prob(a) > 0.5", "prob(a) > 0.5"),
    ("not not not prob(a) > 0.5", "not prob(a) > 0.5"),
    ("not not not not prob(a) > 0.5", "prob(a) > 0.5"),
    ("pin (s, g) { prob(a) > 0.5 }", "prob(a) > 0.5"),
    ("not pin (_, g) { not pin (s, _) { prob(a) > 0.5 } }", "prob(a) > 0.5"),
    ("not pin (_, g) { not not prob(a) > 0.5 }", "not prob(a) > 0.5"),
    # A pin whose time or frame variable is read stays, and so does its body.
    ("pin (_, g) { C_FRAME - g <= 1 }", "pin (_, g) { C_FRAME - g <= 1 }"),
    ("not not pin (s, g) { not not C_TIME - s < 1.0 }", "pin (s, g) { not not C_TIME - s < 1.0 }"),
    ("not (prob(a) > 0.5 or not not true)", "not (prob(a) > 0.5 or not not true)"),
])
def test_bare_strips_only_the_wrappers_that_change_nothing(text, expected):
    assert bare(desugar(parse(text))) == desugar(parse(expected))


def test_probe_is_memoryless():
    assert compute_bounds(probe(3)) == FrameBounds(0, 0)


def test_sugar_rejected():
    with pytest.raises(ContractViolation):
        compute_bounds(parse("true and true"))


def test_describe():
    assert FrameBounds(1, 0).describe() == "history=1 horizon=0"
    assert FrameBounds(0, None).describe() == "history=0 horizon=unbounded"


def _shift(value, by):
    return None if value is None else value + by


def test_prev_and_next_wrapping_monotone():
    rng = random.Random(4242)
    gen = FormulaGen(rng, max_depth=3, allow_sugar=False)
    for _ in range(150):
        phi = gen.formula()
        base = compute_bounds(phi)
        wrapped_prev = compute_bounds(A.Prev(phi))
        wrapped_next = compute_bounds(A.Next(phi))
        assert wrapped_prev.history == _shift(base.history, 1)
        assert wrapped_next.horizon == _shift(base.horizon, 1)
