import random

import pytest

from percemon.errors import ContractViolation
from percemon.evaluate import describe
from percemon.stql import ast as A
from percemon.stql import bindings
from percemon.stql.bounds import FrameBounds, compute_bounds
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
    ("not (a == b)", "a != b"),
    ("not not not (a != b)", "a == b"),
    ("pin (_, g) { not (a == b) and true }", "not (a == b or not true)"),
    # A pin whose time or frame variable is read stays, and so does its body.
    ("pin (_, g) { C_FRAME - g <= 1 }", "pin (_, g) { C_FRAME - g <= 1 }"),
    ("not not pin (s, g) { not not C_TIME - s < 1.0 }", "pin (s, g) { C_TIME - s < 1.0 }"),
    ("pin (s, _) { pin (_, g) { C_TIME - s < 1.0 } }", "pin (s, _) { C_TIME - s < 1.0 }"),
    # Any other ``not`` stays.
    ("not (prob(a) > 0.5 or not not true)", "not (prob(a) > 0.5 or true)"),
    ("not exists {a} @ not prob(a) > 0.5", "not exists {a} @ not prob(a) > 0.5"),
])
def test_desugar_strips_only_the_wrappers_that_change_nothing(text, expected):
    core = parse(expected)
    assert desugar(parse(text)) == core
    assert desugar(core) == core


def test_probe_is_memoryless():
    assert compute_bounds(probe(3)) == FrameBounds(0, 0)


@pytest.mark.parametrize("text, kind", [
    ("true and true", "And"),
    ("prev (true implies next true)", "Implies"),
    ("exists {a} @ pin (_, f) { always prob(a) > 0.5 }", "Always"),
    ("not (true until eventually true)", "Eventually"),
    ("true since (once true)", "Once"),
    ("next holds true", "Holds"),
    ("true or forall {a} @ prob(a) > 0.5", "Forall"),
])
def test_sugar_rejected(text, kind):
    # The walk itself names the first sugar node it meets, however deep.
    with pytest.raises(ContractViolation, match=f"needs a core formula, got {kind}$"):
        compute_bounds(parse(text))


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


@pytest.fixture
def walk_visits(monkeypatch):
    """``work(run, phi)``: the nodes that the walk behind ``free_variables``
    and ``unbound_reads`` visits while ``run(phi)`` runs."""
    visits = [0]
    walk = bindings._walk

    def counted(node, *args):
        visits[0] += 1
        return walk(node, *args)
    monkeypatch.setattr(bindings, "_walk", counted)

    def work(run, phi):
        visits[0] = 0
        run(phi)
        return visits[0]
    return work


def _compile_and_bound(phi):
    core = desugar(phi)
    compute_bounds(core)
    describe(core)


def _nested_unread_pins(depth):
    """``exists {a} @ not pin (_, g0) { not pin (_, g1) { ... prob(a) > 0.5 } }``."""
    body = "prob(a) > 0.5"
    for level in reversed(range(depth)):
        body = f"not pin (_, g{level}) {{ {body} }}"
    return parse(f"exists {{a}} @ {body}")


def test_nested_unread_pins_cost_work_linear_in_their_depth(walk_visits):
    shallow, deep = _nested_unread_pins(15), _nested_unread_pins(29)
    core = A.Exists(("a",), A.Not(A.ProbCmpConst("a", A.Cmp.GT, 0.5)))
    assert desugar(deep) == desugar(shallow) == core
    # ``desugar`` reads the variables of each atom once, whatever the depth
    # of the wrappers above it.
    assert walk_visits(desugar, shallow) == walk_visits(desugar, deep)
    assert walk_visits(_compile_and_bound, deep) <= 2 * walk_visits(_compile_and_bound, shallow)


def _pinned_and_chain(depth):
    """``exists {a} @ pin (_, g0) { prob(a) > 0.1 and pin (_, g1) { ... } }``,
    ``depth`` pins that nothing reads, each over one ``and``."""
    body = "prob(a) > 0.1"
    for level in reversed(range(depth)):
        body = f"pin (_, g{level}) {{ prob(a) > 0.1 and {body} }}"
    return parse(f"exists {{a}} @ {body}")


def test_an_and_chain_with_unread_pins_compiles_in_linear_work(walk_visits):
    shallow, deep = _pinned_and_chain(20), _pinned_and_chain(40)
    assert not any(type(sub) is A.Freeze for sub in A.subformulas(desugar(deep)))
    assert describe(desugar(deep))[2] == "quantifiers: 0 id lookups, 1 enumeration"
    assert walk_visits(_compile_and_bound, deep) <= 2 * walk_visits(_compile_and_bound, shallow)
