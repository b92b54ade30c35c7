"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Seeds are fixed so every run exercises identical cases.
"""

import json
import random
import time

from percemon.bench import run_bench
from percemon.evaluate import evaluate_trace
from percemon.generator import (
    GenConfig,
    drop_fault_trace,
    generate_frames,
    jump_fault_trace,
    stationary_trace,
)
from percemon.monitor import Monitor, MonitorConfig, run_monitor
from percemon.spatial import (
    area,
    complement,
    intersect,
    is_empty,
    union,
)
from percemon.stql.bounds import compute_bounds
from percemon.stql.builtins import phi1, phi2
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse
from percemon.stql.printer import format_formula

from randgen import (
    FormulaGen,
    Universe,
    random_box,
    random_term,
    random_trace,
    rasterize,
    symmetric_difference_area,
    term_region,
)
from reference import reference_trace
from test_bounds import CASES as BOUNDS_CASES
from test_guarded_summaries import WINDOWS
from test_printer import CORPUS as SYNTAX_CORPUS


def test_criterion_1_online_offline_equivalence():
    """Monitor and offline verdicts equal the definitional reference on
    randomized formulas and traces, over the whole trace and clipped windows."""
    rng = random.Random(0xC0FFEE)
    gen = FormulaGen(rng, max_depth=4, allow_sugar=False)
    cases = 1000
    started = time.monotonic()
    for case in range(cases):
        formula = gen.formula()
        trace = random_trace(rng, max_frames=20, max_objects=5)
        window = len(trace)
        where = f"case {case} diverged for {format_formula(formula)} on {len(trace)} frames"
        expected = reference_trace(formula, trace)
        online = [
            v.value
            for v in run_monitor(formula, trace,
                                 MonitorConfig(max_history=window, max_horizon=window))
        ]
        assert online == expected, where
        assert evaluate_trace(formula, trace) == expected, where
        for history, horizon in WINDOWS:
            config = MonitorConfig(max_history=history, max_horizon=horizon)
            monitor = Monitor(formula, config)
            expected = reference_trace(formula, trace, monitor.history, monitor.horizon)
            assert evaluate_trace(formula, trace, monitor.history, monitor.horizon) == expected, \
                (where, history, horizon)
            assert [v.value for v in run_monitor(formula, trace, config)] == expected, \
                (where, history, horizon)
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"equivalence sweep took {elapsed:.1f}s, budget is 60s"
    print(f"\nACCEPTANCE 1 PASS: {cases} online/offline/reference equivalence cases, "
          f"{1 + len(WINDOWS)} windows each, in {elapsed:.1f}s")


def test_criterion_2_quantifier_blowup_trend():
    """Mean eval time grows with object count; probes enumerate exactly n^k."""
    for spec in ("builtin:phi1", "builtin:phi2"):
        # Each size's figure is its smallest mean over three runs, so one host
        # stall during one run cannot reorder the sizes.
        runs = [run_bench(spec, [2, 5, 10], frames=300, seed=2026) for _ in range(3)]
        means = [min(r.mean_eval_time_ns for r in size) for size in zip(*runs)]
        assert means[0] < means[1] < means[2], f"{spec} means not increasing: {means}"
    for k in (1, 2, 3):
        reports = run_bench(f"probe:exists{k}", [2, 5, 10], frames=300, seed=2026,
                            count_assignments=True)
        assert [r.assignments_per_frame for r in reports] == [2 ** k, 5 ** k, 10 ** k]
    print("\nACCEPTANCE 2 PASS: eval-time trend strictly increasing; probe counts are n^k "
          "for k in {1,2,3}, n in {2,5,10}")


def test_criterion_3_persistence_fault_detection():
    """A single dropped detection is flagged exactly at the reappearance frame."""
    trace = drop_fault_trace(frames=100, drop_at=47)
    offline = evaluate_trace(desugar(phi1()), trace)
    assert [i for i, v in enumerate(offline) if not v] == [48]
    online = [v.value for v in run_monitor(phi1(), trace)]
    assert online == offline
    print("\nACCEPTANCE 3 PASS: dropped detection at frame 47 flagged exactly at frame 48, "
          "online matches oracle")


def test_criterion_4_smoothness_fault_detection():
    """A box teleport is flagged exactly once; stationary streams are clean."""
    trace = jump_fault_trace(frames=100, jump_at=61)
    offline = evaluate_trace(desugar(phi2()), trace)
    assert [i for i, v in enumerate(offline) if not v] == [61]
    online = [v.value for v in run_monitor(phi2(), trace)]
    assert online == offline

    steady = stationary_trace(frames=60, objects=1)
    assert all(evaluate_trace(desugar(phi2()), steady))
    assert all(v.value for v in run_monitor(phi2(), steady))
    print("\nACCEPTANCE 4 PASS: teleport at frame 61 flagged exactly there; "
          "stationary stream is all-true")


def test_criterion_5_region_algebra_vs_grid_oracle():
    """Exact agreement with unit-cell rasterization on a 200x200 integer universe."""
    rng = random.Random(0xA5A5)
    size = 200
    universe = Universe(float(size), float(size))
    cases = 500
    for _ in range(cases):
        boxes = [random_box(rng, size) for _ in range(rng.randint(1, 6))]
        term = random_term(rng, boxes, depth=4)
        region = term_region(term, universe)
        grid = rasterize(term, size)
        assert area(region) == int(grid.sum())
        assert is_empty(region) == (not grid.any())
        assert symmetric_difference_area(complement(complement(region)), region) == 0
        other = term_region(random_term(rng, boxes, depth=3), universe)
        de_morgan = complement(union(complement(region), complement(other)))
        assert symmetric_difference_area(intersect(region, other), de_morgan) == 0
    print(f"\nACCEPTANCE 5 PASS: {cases} random spatial terms match the grid oracle exactly; "
          "double complement and De Morgan hold")


def test_criterion_6_parser_round_trip():
    """parse(format(ast)) is the identity on random and curated formulas."""
    rng = random.Random(0xF00D)
    cases = 1000
    for case in range(cases):
        gen = FormulaGen(rng, max_depth=4, allow_sugar=bool(case % 2))
        formula = gen.formula()
        assert parse(format_formula(formula)) == formula
    for text in SYNTAX_CORPUS:
        formula = parse(text)
        assert parse(format_formula(formula)) == formula
    for builtin in (phi1(), phi2()):
        assert parse(format_formula(builtin)) == builtin
    print(f"\nACCEPTANCE 6 PASS: {cases} random ASTs plus a {len(SYNTAX_CORPUS)}-entry "
          "grammar corpus and both builtins round-trip")


def test_criterion_7_bounds_analysis():
    """Structural-rule corpus matches hand-derived pairs; builtins need (1, 0)."""
    for text, expected in BOUNDS_CASES:
        bounds = compute_bounds(desugar(parse(text)))
        assert (bounds.history, bounds.horizon) == expected, text
    for builtin in (phi1(), phi2()):
        bounds = compute_bounds(desugar(builtin))
        assert (bounds.history, bounds.horizon) == (1, 0)
    print(f"\nACCEPTANCE 7 PASS: {len(BOUNDS_CASES)} hand-derived bound pairs match; "
          "both builtins yield history=1 horizon=0")


def test_criterion_8_streaming_contract(runner, tmp_path, monkeypatch):
    """Output lags by exactly the horizon; gen | monitor equals run on verdict values."""
    spec = parse("next next (exists {a} @ (prob(a) > 0.5))")
    stream = generate_frames(GenConfig(frames=40, objects=2, drop_prob=0.1, seed=13))
    monitor = Monitor(spec, MonitorConfig())
    assert monitor.horizon == 2
    for i, frame in enumerate(stream):
        emitted = monitor.push_frame(frame)
        if i < 2:
            assert emitted == []
        else:
            assert [v.frame_number for v in emitted] == [stream[i - 2].frame_number]
    assert [v.frame_number for v in monitor.flush()] == [38, 39]

    generated = runner(["gen", "--frames", "30", "--objects", "3", "--drop-prob", "0.1",
                        "--seed", "5"])
    assert generated.exit_code == 0

    def values_only(text: str) -> str:
        lines = []
        for line in text.splitlines():
            record = json.loads(line)
            record.pop("eval_time_ns")
            lines.append(json.dumps(record, separators=(",", ":")))
        return "\n".join(lines)

    for spec_name in ("builtin:phi1", "builtin:phi2"):
        piped = runner(["monitor", "--spec", spec_name, "--input", "-"],
                       input=generated.stdout)
        assert piped.exit_code == 0
        with monkeypatch.context() as patch:
            patch.chdir(tmp_path)
            with open("trace.jsonl", "w", encoding="utf-8") as fp:
                fp.write(generated.stdout)
            offline = runner(["run", "--spec", spec_name, "--trace", "trace.jsonl"])
        assert offline.exit_code == 0
        assert values_only(piped.stdout) == values_only(offline.stdout)
    print("\nACCEPTANCE 8 PASS: horizon-2 monitor lags by exactly 2 records, flush completes, "
          "and gen | monitor equals run byte-for-byte on verdict values")
