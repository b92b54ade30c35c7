import pytest

from percemon.errors import ConfigError
from percemon.stql.bindings import (
    ARITY,
    KIND_MISMATCH,
    MAX_OBJECT_VARIABLES,
    SHADOWING,
    UNBOUND,
    check_bindings,
    free_variables,
    unbound_reads,
)
from percemon.stql import ast as A
from percemon.stql.builtins import phi1, phi2, probe
from percemon.stql.parser import parse


def kinds(text):
    return [d.kind for d in check_bindings(parse(text))]


def names(text):
    return [d.name for d in check_bindings(parse(text))]


def test_unbound_object_variable():
    assert kinds("prob(id1) > 0.5") == [UNBOUND]
    assert names("prob(id1) > 0.5") == ["id1"]


def test_unbound_in_spatial_term():
    assert kinds("nonempty(bbox(a))") == [UNBOUND]


def test_unbound_pin_variables():
    assert kinds("x - C_TIME <= 1") == [UNBOUND]
    assert kinds("f - C_FRAME <= 1") == [UNBOUND]


def test_free_variables_are_those_bound_outside():
    body = parse("pin (x, f) { exists {a} @ x - C_TIME <= 1 and prob(b) > 0.5 }").child
    assert free_variables(body) == {"x", "b"}
    assert free_variables(parse("exists {a} @ prob(a) > 0.5")) == frozenset()


def test_unbound_reads_name_each_variable_with_the_kind_it_is_read_as():
    text = ("pin (x, f) { exists {a} @ x - C_TIME <= 1 and prob(b) > 0.5"
            " and f - C_TIME <= 2 and prob(a) > 0 and b == a }")
    # ``f`` is pinned as a frame but read as a time: unbound as a time.
    assert unbound_reads(parse(text)) == [("b", "object"), ("f", "time")]
    assert unbound_reads(parse("prev (z == a and a - C_FRAME <= 1)")) == [
        ("a", "frame"), ("a", "object"), ("z", "object")]
    assert unbound_reads(A.Complement(A.BBoxOf("a"))) == [("a", "object")]
    assert unbound_reads(phi1()) == unbound_reads(phi2()) == []


def test_well_bound_formulas_pass():
    assert kinds("exists {a} @ (prob(a) > 0.5)") == []
    assert kinds("pin (x, f) { x - C_TIME <= 1 and f - C_FRAME <= 1 }") == []
    assert check_bindings(phi1()) == []
    assert check_bindings(phi2()) == []


def test_shadowing_nested_quantifier():
    assert kinds("exists {id1} @ exists {id1} @ (prob(id1) > 0.5)") == [SHADOWING]


def test_shadowing_within_one_quantifier():
    assert kinds("exists {a, a} @ (prob(a) > 0.5)") == [SHADOWING]


def test_shadowing_across_kinds():
    # Names share one namespace: a pin may not reuse a quantified name.
    assert SHADOWING in kinds("exists {v} @ pin (v, _) { prob(v) > 0.5 }")
    assert kinds("pin (v, v) { true }") == [SHADOWING]


def test_kind_mismatch_time_var_in_frame_position():
    assert kinds("pin (x, f) { x - C_FRAME <= 1 }") == [KIND_MISMATCH]
    assert kinds("pin (x, f) { f - C_TIME <= 1 }") == [KIND_MISMATCH]


def test_kind_mismatch_object_position():
    assert kinds("pin (x, f) { prob(x) > 0.5 }") == [KIND_MISMATCH]
    assert kinds("exists {a} @ (a - C_FRAME <= 1)") == [KIND_MISMATCH]


def test_diagnostics_carry_location():
    diag = check_bindings(parse("prob(id1) > 0.5"))[0]
    assert diag.loc is not None
    assert diag.loc.line == 1


def test_multiple_problems_all_reported():
    out = check_bindings(parse("prob(a) > 0.5 and prob(b) > 0.5"))
    assert [d.name for d in out] == ["a", "b"]


@pytest.mark.parametrize("text", [
    "exists {a, b, c, d} @ prob(a) > 0.5",
    "exists {a, b} @ forall {c, d} @ (prob(a) > 0.5 and prob(d) > 0.5)",
    # Siblings are enumerated one after the other, not nested.
    "(exists {a, b, c} @ prob(a) > 0.5) and (exists {d, e, f} @ prob(d) > 0.5)",
    # A quantifier whose body reads none of its variables does not count.
    "exists {a} @ exists {b, c, d, e} @ prob(a) > 0.5",
])
def test_quantifier_arity_within_the_limit_passes(text):
    assert MAX_OBJECT_VARIABLES == 4
    assert kinds(text) == []


@pytest.mark.parametrize("text, name", [
    ("exists {a, b, c, d, e} @ prob(a) > 0.5", "a"),
    ("exists {a, b} @ forall {c} @ exists {d, e} @ (prob(a) > 0.5 and prob(c) > 0.5 and "
     "prob(e) > 0.5)", "a"),
    ("exists {a} @ forall {b, c, d, e} @ (prob(a) > 0.5 and prob(e) > 0.5)", "a"),
])
def test_quantifier_arity_past_the_limit_is_reported_once_at_its_quantifier(text, name):
    # Counted from the innermost quantifier out, the one that passes the
    # limit is reported, by its first variable.
    out = check_bindings(parse(text))
    assert [(d.kind, d.name) for d in out] == [(ARITY, name)]
    assert out[0].loc.line == 1
    assert "at most 4 may be bound at once" in out[0].message
    assert free_variables(parse(text)) == frozenset()


def test_probes_stay_within_the_arity_limit():
    for k in range(1, MAX_OBJECT_VARIABLES + 1):
        assert check_bindings(probe(k)) == []
    with pytest.raises(ConfigError, match="between 1 and 4"):
        probe(MAX_OBJECT_VARIABLES + 1)
