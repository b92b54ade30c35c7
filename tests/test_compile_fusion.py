"""Differential tests for the flattened propositional core of the compiler.

``evaluate`` compiles ``or`` chains into one Python ``or`` over their
parts, ``not (a or b)`` into one ``and`` of the negated parts, and
``exists {v} @ (v == w and ...)`` into one lookup of ``w``'s id. These
tests check that the generated program means the same as the syntax tree:
the same verdicts on rewritten but equivalent trees, the same errors, the
same evaluation order and the same quantifier work, that the window
analysis and the compiler decide the same for their canonical cores, and
that a lookup agrees with the enumeration it replaces.
"""

import itertools
import logging
import random

import pytest

from percemon import spatial
from percemon.errors import ContractViolation
from percemon.evaluate import (EMPTY_ENV, Env, EvalContext, EvalStats, describe, evaluate,
                               evaluate_trace)
from percemon.generator import GenConfig, generate_frames
from percemon.monitor import Monitor, run_monitor
from percemon.stql import ast as A
from percemon.stql.bounds import compute_bounds
from percemon.stql.builtins import phi1, phi2
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse
from percemon.stql.printer import format_formula
from percemon.trace import BoundingBox, DetectedObject, make_frame

from randgen import FormulaGen, random_trace
from test_guarded_summaries import _summarized

_OPPOSITE_ID = {A.IdEq: A.IdNeq, A.IdNeq: A.IdEq}


def _disjuncts(phi):
    if type(phi) is A.Or:
        return _disjuncts(phi.lhs) + _disjuncts(phi.rhs)
    return [phi]


def _regroup(parts, rng):
    """The disjunction of ``parts`` in order, split at random points."""
    if len(parts) == 1:
        return parts[0]
    cut = rng.randint(1, len(parts) - 1)
    return A.Or(_regroup(parts[:cut], rng), _regroup(parts[cut:], rng))


_FRESH = itertools.count()


def scramble(phi, rng):
    """An equivalent core formula: ``or`` chains re-associated, random
    subformulas wrapped in ``not not`` or in a pin of fresh time and frame
    variables that nothing reads, and negated id comparisons swapped for
    their complement (and back)."""
    kind = type(phi)
    if kind is A.Or:
        out = _regroup([scramble(part, rng) for part in _disjuncts(phi)], rng)
    elif kind is A.Not and type(phi.child) in _OPPOSITE_ID and rng.random() < 0.5:
        out = _OPPOSITE_ID[type(phi.child)](phi.child.lhs, phi.child.rhs)
    elif kind in _OPPOSITE_ID and rng.random() < 0.3:
        out = A.Not(_OPPOSITE_ID[kind](phi.lhs, phi.rhs))
    else:
        out = phi.map(lambda sub: scramble(sub, rng) if isinstance(sub, A.Formula) else sub)
    if rng.random() < 0.3:
        out = A.Not(A.Not(out))
    if rng.random() < 0.2:
        fresh = next(_FRESH)
        out = A.Freeze(f"unread_t{fresh}", f"unread_k{fresh}", out)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_equivalent_trees_give_the_same_verdicts(seed):
    # And the same quantifier work: the rewrites change no assignment.
    rng = random.Random(seed)
    gen = FormulaGen(rng, max_depth=5, allow_sugar=True)
    changed = pinned = 0
    for _ in range(200):
        phi = desugar(gen.formula())
        variant = scramble(phi, rng)
        changed += variant != phi
        pinned += any(type(sub) is A.Freeze and str(sub.time_var).startswith("unread_")
                      for sub in A.subformulas(variant))
        for trace in (random_trace(rng, max_frames=6, max_objects=3) for _ in range(2)):
            stats, variant_stats = EvalStats(), EvalStats()
            assert (evaluate_trace(variant, trace, stats=variant_stats)
                    == evaluate_trace(phi, trace, stats=stats)), (phi, variant)
            assert variant_stats == stats, (phi, variant)
    assert changed > 100  # most trees have something to rewrite
    assert pinned > 50


def _decisions(core):
    """What the compiler decides for ``core``: its window and how each
    temporal operator, spatial term and quantifier runs."""
    return (compute_bounds(core).describe(), *describe(core))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_equivalent_trees_compile_to_the_same_decisions(seed):
    # ``desugar`` undoes every rewrite that ``scramble`` makes but the
    # re-association of ``or`` chains, which the window analysis and the
    # compiler flatten alike, so no rewrite moves the window, a summary, a box
    # term or a lookup.
    rng = random.Random(seed)
    gen = FormulaGen(rng, max_depth=5, allow_sugar=True)
    cores = [desugar(gen.formula()) for _ in range(100)]
    cores += [desugar(parse(_summarized(rng))) for _ in range(100)]
    for core in cores:
        decisions = _decisions(core)
        for _ in range(3):
            variant = scramble(core, rng)
            assert _decisions(desugar(variant)) == decisions, \
                (format_formula(core), format_formula(variant))


def _frame_with(*objects):
    return make_frame(0, 0.0, 100.0, 100.0, objects)


def _car(oid, box=(10, 10, 30, 30)):
    return DetectedObject(oid, "car", 0.9, BoundingBox(*box))


@pytest.mark.parametrize("ids", [(1, 1), (1, 2)])
def test_negated_id_comparisons_are_their_complements(ids):
    frames = [_frame_with(_car(1), _car(2))]
    env = Env(objects={"a": frames[0].objects[ids[0]], "b": frames[0].objects[ids[1]]})
    context = EvalContext(frames, 0)
    for atom, complement in ((A.IdEq("a", "b"), A.IdNeq("a", "b")),
                             (A.IdNeq("a", "b"), A.IdEq("a", "b"))):
        assert evaluate(A.Not(atom), context, env) == evaluate(complement, context, env)
        assert evaluate(A.Not(A.Not(atom)), context, env) == evaluate(atom, context, env)
        assert evaluate(A.Not(atom), context, env) != evaluate(atom, context, env)


@pytest.mark.parametrize("text", [
    "true and a == b",
    "a == b and true",
    "true implies prob(a) > 0.5",
    "not (a == b) implies true",
    "a != b",
    "not (a == b)",
    "true and (false or (true and lat(a, lm) > 1))",
    # An id comparison at the head of a longer chain is tested by the chain.
    "a == b and true and true",
    "a != b or false or false",
    "not (a != b or false) or true",
])
def test_unbound_variable_under_fused_nodes_still_raises(text):
    phi = desugar(parse(text.replace("false", "not true")))
    frames = [_frame_with(_car(1))]
    with pytest.raises(ContractViolation, match="object variable 'a' is unbound"):
        evaluate(phi, EvalContext(frames, 0), EMPTY_ENV)
    # With only the other variable bound, the error still names the missing one.
    env = Env(objects={"b": frames[0].objects[1]})
    with pytest.raises(ContractViolation, match="object variable 'a' is unbound"):
        evaluate(phi, EvalContext(frames, 0), env)


# Ratio atoms over a, b and c, which have distinct areas, and z, a zero-area
# box: each records its denominator's area, then its numerator's.
RATIO_TRUE = "area(bbox(a) & bbox(b)) / area(bbox(a)) >= 0.1"      # areas 100, 25
RATIO_ZERO = "area(bbox(b)) / area(bbox(z)) >= 0.5"                 # area 0, warns
RATIO_NEVER = "area(bbox(c)) / area(bbox(c)) >= 0.5"                # areas 900, 900


@pytest.mark.parametrize("spec, value, areas", [
    (f"{RATIO_TRUE} and {RATIO_ZERO}", False, [100.0, 25.0, 0]),
    (f"({RATIO_TRUE} and {RATIO_ZERO}) and {RATIO_NEVER}", False, [100.0, 25.0, 0]),
    (f"{RATIO_TRUE} and ({RATIO_ZERO} and {RATIO_NEVER})", False, [100.0, 25.0, 0]),
    (f"{RATIO_ZERO} or {RATIO_TRUE}", True, [0, 100.0, 25.0]),
    (f"{RATIO_ZERO} or ({RATIO_TRUE} or {RATIO_NEVER})", True, [0, 100.0, 25.0]),
    (f"forall {{q}} @ (q == a implies ({RATIO_TRUE} and {RATIO_ZERO} and {RATIO_NEVER}))",
     False, [100.0, 25.0, 0]),
])
def test_fused_ratio_atoms_run_left_to_right_and_stop(monkeypatch, caplog, spec, value, areas):
    seen = []
    _run_ratio_atoms(monkeypatch, caplog, spec, value, "meet_area", _recording_meet(seen))
    # Each atom is evaluated in source order until the outcome is settled.
    assert seen == areas * 2


# A pin that nothing reads and ``not not`` are seen through, into one chain.
@pytest.mark.parametrize("spec, value, areas", [
    (f"pin (_, g) {{ {RATIO_TRUE} and {RATIO_ZERO} }} and {RATIO_NEVER}", False, [100.0, 25.0, 0]),
    (f"not pin (_, g) {{ {RATIO_ZERO} or {RATIO_TRUE} or {RATIO_NEVER} }}", False, [0, 100.0, 25.0]),
    (f"{RATIO_ZERO} or not not ({RATIO_TRUE} or {RATIO_NEVER})", True, [0, 100.0, 25.0]),
    (f"{RATIO_ZERO} or pin (s, g) {{ not not ({RATIO_TRUE} or {RATIO_NEVER}) }}",
     True, [0, 100.0, 25.0]),
    (f"not not ({RATIO_ZERO} or not pin (_, g) {{ not ({RATIO_TRUE} or {RATIO_NEVER}) }})",
     True, [0, 100.0, 25.0]),
    # An id lookup under a pin runs the rest of the chain on ``a`` alone.
    (f"forall {{q}} @ pin (_, g) {{ q == a implies ({RATIO_TRUE} and {RATIO_ZERO} and "
     f"{RATIO_NEVER}) }}", False, [100.0, 25.0, 0]),
])
def test_unread_pins_and_double_negations_keep_the_stop_order(monkeypatch, caplog, spec, value,
                                                               areas):
    seen = []
    _run_ratio_atoms(monkeypatch, caplog, spec, value, "meet_area", _recording_meet(seen))
    assert seen == areas * 2


def _recording_meet(seen):
    """``spatial.meet_area`` that appends the area of each meet to ``seen``,
    None as 0: box-only terms run through it."""
    original = spatial.meet_area

    def recording_meet(boxes, universe):
        result = original(boxes, universe)
        seen.append(0 if result is None else result)
        return result
    return recording_meet


# The same order with region terms, which run through ``spatial.area``.
@pytest.mark.parametrize("spec, value, areas", [
    ("area(~bbox(c)) / area(bbox(a) | bbox(z)) >= 0.5 and "
     "area(bbox(b)) / area(bbox(z) | bbox(z)) >= 0.5", False, [100.0, 9100.0, 0]),
    ("area(bbox(b)) / area(bbox(z) | bbox(z)) >= 0.5 or "
     "area(bbox(a) | bbox(b)) / area(bbox(a) | bbox(a)) >= 0.1", True, [0, 100.0, 475.0]),
])
def test_region_ratio_atoms_run_left_to_right_and_stop(monkeypatch, caplog, spec, value, areas):
    seen = []
    original = spatial.area

    def recording_area(region):
        result = original(region)
        seen.append(result)
        return result

    _run_ratio_atoms(monkeypatch, caplog, spec, value, "area", recording_area)
    assert seen == areas * 2


def _run_ratio_atoms(monkeypatch, caplog, spec, value, name, recorder):
    """Evaluate ``spec`` twice with ``spatial.<name>`` replaced by ``recorder``;
    one zero denominator warns once."""
    objects = {"a": _car(1, (0, 0, 10, 10)), "b": _car(2, (5, 5, 25, 25)),
               "c": _car(3, (40, 40, 70, 70)), "z": _car(4, (50, 0, 50, 20))}
    phi = desugar(parse(spec))
    frames = [_frame_with(*objects.values())]
    monkeypatch.setattr(spatial, name, recorder)
    with caplog.at_level(logging.DEBUG, logger="percemon.evaluate"):
        for _ in range(2):
            assert evaluate(phi, EvalContext(frames, 0), Env(objects=objects)) is value
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1  # warn-once per compiled formula
    assert "ratio denominator (area) is zero" in warnings[0].getMessage()


def test_universe_follows_each_frames_extent():
    # One compiled formula over frames of the same width and other heights.
    fits = A.AreaCmpConst(A.UniverseSet(), A.Cmp.EQ, 100.0 * 50.0)
    for height, value in ((50.0, True), (100.0, False), (50.0, True)):
        frames = [make_frame(0, 0.0, 100.0, height, [])]
        assert evaluate(fits, EvalContext(frames, 0)) is value


def test_phi2_assignments_stay_n_plus_n_squared():
    n = 16
    frames = list(generate_frames(GenConfig(frames=12, objects=n, seed=7)))
    assert all(len(f.objects) == n for f in frames)
    monitor = Monitor(phi2())
    per_verdict = []
    for f in frames:
        before = monitor.stats.assignments
        assert len(monitor.push_frame(f)) == 1
        per_verdict.append(monitor.stats.assignments - before)
    # Frame 0 has no previous frame, so the inner exists is never reached.
    assert per_verdict == [n] + [n + n * n] * (len(frames) - 1)


# --- id comparisons at the head of a quantifier body ---------------------------
# A one-variable quantifier whose body starts with ``v == w`` or ``v != w``,
# ``w`` bound outside, tests the ids inside its fold. ``true and ...`` moves
# the comparison off the head, which takes the generic fold.

HEAD_TESTS = ["v == w", "w == v", "v != w", "w != v"]
HEAD_RESTS = ["prob(v) > 0.5", "class(v) == class(w)",
              "area(bbox(v) & bbox(w)) >= 0.3 * area(bbox(w))", "prev prob(v) > 0.3"]


def _head_bodies(tests):
    for test in tests:
        yield test
        for rest in HEAD_RESTS:
            yield f"{test} and {rest}"
            yield f"{test} or {rest}"
            yield f"{test} implies {rest}"
        yield f"{test} and {HEAD_RESTS[0]} and {HEAD_RESTS[2]}"


def _fused_and_generic(body, outer):
    """The formula with ``body`` under a quantifier over ``v``, and the same
    with ``true and`` in front of the body, for each quantifier; each with
    the quantifier."""
    for quantifier in ("exists {v}", "forall {v}"):
        fused, generic = (f"{outer}({quantifier} @ ({b}))" for b in (body, f"true and ({body})"))
        yield quantifier, desugar(parse(fused)), desugar(parse(generic))


# ``exists {v} @ (v == w and ...)`` and its ``forall`` duals look ``w``'s id up.
LOOKUPS = {("exists {v}", "==", "and"), ("forall {v}", "!=", "or"),
           ("forall {v}", "==", "implies")}


PLANS = {True: "quantifiers: 1 id lookup, 1 enumeration",
         False: "quantifiers: 0 id lookups, 2 enumerations"}


def _takes_lookup(quantifier, body):
    words = body.split()
    return len(words) > 3 and (quantifier, words[1], words[3]) in LOOKUPS


def _same_verdicts_and_work(fused, generic, traces, lookup=False):
    """Equal verdicts, and equal work unless the fused quantifier is a
    lookup; then the outer fold's assignments plus one per lookup, which
    is one per outer assignment."""
    for trace in traces:
        fused_stats, generic_stats = EvalStats(), EvalStats()
        assert (evaluate_trace(fused, trace, stats=fused_stats)
                == evaluate_trace(generic, trace, stats=generic_stats)), (fused, trace)
        outer = sum(len(frame.objects) for frame in trace)
        expected = 2 * outer if lookup else generic_stats.assignments
        assert fused_stats.assignments == expected


@pytest.mark.parametrize("body", list(_head_bodies(HEAD_TESTS)))
def test_head_id_test_in_the_fold_matches_the_generic_fold(body):
    rng = random.Random(body)
    traces = [random_trace(rng, max_frames=6, max_objects=4) for _ in range(6)]
    for outer in ("forall {w} @ ", "exists {w} @ "):
        for quantifier, fused, generic in _fused_and_generic(body, outer):
            lookup = _takes_lookup(quantifier, body)
            assert describe(fused)[2] == PLANS[lookup]
            assert describe(generic)[2] == PLANS[False]
            _same_verdicts_and_work(fused, generic, traces, lookup)


def _id_test_last(phi):
    """``phi`` with each ``id1 == id2 and p`` written ``p and id1 == id2``."""
    if type(phi) is A.And and type(phi.lhs) is A.IdEq:
        return A.And(phi.rhs, phi.lhs)
    return phi.map(lambda sub: _id_test_last(sub) if isinstance(sub, A.Formula) else sub)


@pytest.mark.parametrize("seed", [3, 7])
def test_phi1_lookup_matches_the_enumeration_on_a_faulty_crowd(seed):
    frames = list(generate_frames(GenConfig(frames=300, objects=16, drop_prob=0.05,
                                            jump_prob=0.02, seed=seed)))
    # Frames hold ids that the frame before lacks: there the lookup misses.
    assert any(set(frame.objects) - set(before.objects) for before, frame in zip(frames, frames[1:]))
    fused, generic = phi1(), _id_test_last(phi1())
    assert describe(desugar(fused))[2] == PLANS[True]
    assert describe(desugar(generic))[2] == PLANS[False]
    online = [v.value for v in run_monitor(fused, frames)]
    assert online == [v.value for v in run_monitor(generic, frames)]
    assert online == evaluate_trace(desugar(fused), frames) == evaluate_trace(desugar(generic), frames)
    assert 0 < online.count(False) < len(frames) - 1


@pytest.mark.parametrize("body", ["v == v and prob(v) > 0.5", "v != v or prob(v) > 0.5",
                                  "w == u and prob(v) > 0.5", "u != w or prob(v) > 0.5"])
def test_comparisons_not_on_the_quantified_variable_match(body):
    # Neither takes the fused fold; both still mean what the generic one does.
    rng = random.Random(body)
    traces = [random_trace(rng, max_frames=5, max_objects=3) for _ in range(6)]
    for _, fused, generic in _fused_and_generic(body, outer="forall {w} @ exists {u} @ "):
        _same_verdicts_and_work(fused, generic, traces)


@pytest.mark.parametrize("body", list(_head_bodies(HEAD_TESTS[:1] + HEAD_TESTS[2:3])))
def test_head_id_test_with_an_unbound_outer_variable_raises(body):
    frames = [_frame_with(_car(1), _car(2))]
    for _, fused, generic in _fused_and_generic(body, outer=""):
        for formula in (fused, generic):
            with pytest.raises(ContractViolation, match="object variable 'w' is unbound"):
                evaluate(formula, EvalContext(frames, 0), EMPTY_ENV)
            # Bindings are checked before evaluation, so a frame without
            # objects, where no assignment reads ``w``, raises too.
            with pytest.raises(ContractViolation, match="object variable 'w' is unbound"):
                evaluate(formula, EvalContext([_frame_with()], 0))
