from percemon.stql.bindings import KIND_MISMATCH, SHADOWING, UNBOUND, check_bindings, free_variables
from percemon.stql.builtins import phi1, phi2
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
