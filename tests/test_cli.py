import importlib
import io
import json
import os
import re
import select
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from percemon.cli import main
from percemon.evaluate import evaluate_trace
from percemon.generator import GenConfig, generate_frames
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse
from percemon.monitor import Verdict, run_monitor
from percemon.trace import read_stream, serialize_frame


HOLDS_WINDOW = Path(__file__).resolve().parent.parent / "perfbench" / "specs" / "holds_window.stql"


def invoke(runner, *args, **kwargs):
    return runner(list(args), **kwargs)


def verdict_values(text):
    return [
        (rec["frame"], rec["verdict"])
        for rec in (json.loads(line) for line in text.splitlines() if line.strip())
    ]


def gen_lines(runner, *extra):
    result = invoke(runner, "gen", "--frames", "12", "--objects", "2", "--seed", "3", *extra)
    assert result.exit_code == 0
    return result.stdout


REPO = Path(__file__).resolve().parent.parent
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}


def python(*args):
    return subprocess.run([sys.executable, *args], env=SRC_ENV, capture_output=True, text=True)


def imported_modules(importtime_stderr):
    """The modules named by the ``-X importtime`` lines of a run's stderr."""
    return {line.rpartition("|")[2].strip() for line in importtime_stderr.splitlines()
            if line.startswith("import time:")}


# --- verdict lines -----------------------------------------------------------

# Ingest admits any finite timestamp, so the verdict line must print every one
# as JSON does: shortest round-trip digits, exponents, subnormals, -0.0.
timestamps = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 0.1 + 0.2, 1e16, 1e22, 5e-324, 3.0, -1.0, 2.0 ** 53]),
    st.integers(-(10 ** 6), 10 ** 6).map(float),
)


@given(st.integers(0, 10 ** 30), timestamps, st.booleans(), st.integers(0, 2 ** 64))
def test_verdict_line_is_the_compact_json_of_the_verdict(frame_number, timestamp, value, eval_ns):
    verdict = Verdict(frame_number, timestamp, value, eval_ns)
    assert verdict.to_json_line() == json.dumps(verdict.to_json_obj(), separators=(",", ":")) + "\n"


# --- check -------------------------------------------------------------------

def test_check_builtin_reports_window(runner):
    result = invoke(runner, "check", "--spec", "builtin:phi1")
    assert result.exit_code == 0
    assert "history=1 horizon=0" in result.stdout


def test_check_reports_desugared_form(runner):
    result = invoke(runner, "check", "--spec", "builtin:phi2")
    assert "desugared:" in result.stdout
    assert "forall" not in result.stdout.split("desugared:")[1].splitlines()[0]


def test_check_unbounded_warns_but_succeeds(runner, tmp_path):
    spec = tmp_path / "liveness.pmspec"
    spec.write_text("true until (exists {a} @ (prob(a) > 0.5))\n")
    result = invoke(runner, "check", "--spec", str(spec))
    assert result.exit_code == 0
    assert "horizon=unbounded" in result.stdout
    assert "max-horizon" in result.stderr


def test_check_unbound_variable_fails_with_location(runner, tmp_path):
    spec = tmp_path / "broken.pmspec"
    spec.write_text("# comment\nprob(id1) > 0.5\n")
    result = invoke(runner, "check", "--spec", str(spec))
    assert result.exit_code == 1
    assert "2:" in result.stderr
    assert "id1" in result.stderr


def test_check_empty_class_label_fails_with_location(runner, tmp_path):
    spec = tmp_path / "empty_label.pmspec"
    spec.write_text('exists {a} @ class(a) == ""\n')
    result = invoke(runner, "check", "--spec", str(spec))
    assert result.exit_code == 1
    assert result.stderr == "error: 1:26: syntax: class label must not be empty\n"
    assert result.stdout == ""


def test_check_missing_file(runner):
    result = invoke(runner, "check", "--spec", "no/such/file.pmspec")
    assert result.exit_code == 1


HOLDS_WINDOW_SPEC = REPO / "perfbench" / "specs" / "holds_window.stql"


@pytest.mark.parametrize("spec, line", [
    (str(HOLDS_WINDOW_SPEC), "temporal: 1 closed summary, 1 per-id summary over {b}, 0 scans"),
    ("builtin:phi1", "temporal: 0 closed summaries, 0 per-id summaries, 0 scans"),
    # A box atom reads the box captured at the pin, not the track's box at
    # the frame under evaluation, so the guarded always keeps its scan.
    ("forall {b} @ pin (_, f) { always (C_FRAME - f <= 5 implies lat(b, ct) > 300) }",
     "temporal: 0 closed summaries, 0 per-id summaries, 1 scan"),
    # An always with no guard looks to the end of the window: it scans.
    ("forall {b} @ always prob(b) > 0.6",
     "temporal: 0 closed summaries, 0 per-id summaries, 1 scan"),
])
def test_check_reports_how_each_temporal_operator_runs(runner, tmp_path, spec, line):
    if not spec.startswith("builtin:") and not spec.endswith(".stql"):
        (tmp_path / "spec.stql").write_text(spec + "\n")
        spec = str(tmp_path / "spec.stql")
    result = invoke(runner, "check", "--spec", spec)
    assert result.exit_code == 0
    assert line in result.stdout.splitlines()


@pytest.mark.parametrize("spec, line", [
    ("builtin:phi2", "spatial: 2 box terms, 0 region terms"),
    ("builtin:phi1", "spatial: 0 box terms, 0 region terms"),
    (str(HOLDS_WINDOW_SPEC), "spatial: 0 box terms, 0 region terms"),
    ("nonempty(universe)", "spatial: 1 box term, 0 region terms"),
    ("exists {a, b} @ area(bbox(a) | bbox(b)) / area(universe & bbox(a)) >= 0.5",
     "spatial: 1 box term, 1 region term"),
    ("exists {a} @ (nonempty(~bbox(a)) or area(bbox(a) & empty) > 0)",
     "spatial: 0 box terms, 2 region terms"),
])
def test_check_reports_how_each_spatial_term_runs(runner, tmp_path, spec, line):
    if not spec.startswith("builtin:") and not spec.endswith(".stql"):
        (tmp_path / "spec.stql").write_text(spec + "\n")
        spec = str(tmp_path / "spec.stql")
    result = invoke(runner, "check", "--spec", spec)
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    # The spatial line follows the temporal one.
    assert lines[lines.index(line) - 1].startswith("temporal: ")


@pytest.mark.parametrize("spec, line", [
    ("builtin:phi1", "quantifiers: 1 id lookup, 1 enumeration"),
    ("builtin:phi2", "quantifiers: 0 id lookups, 2 enumerations"),
    (str(HOLDS_WINDOW_SPEC), "quantifiers: 0 id lookups, 2 enumerations"),
    ("forall {a} @ exists {b} @ (b == a and prob(b) > 0.5)",
     "quantifiers: 1 id lookup, 1 enumeration"),
    # The dual head ``b != a or ...`` still enumerates.
    ("forall {a} @ exists {b} @ (b != a or prob(b) > 0.5)",
     "quantifiers: 0 id lookups, 2 enumerations"),
    ("exists {a, b} @ (a == b and prob(b) > 0.5)", "quantifiers: 0 id lookups, 1 enumeration"),
    ("true", "quantifiers: 0 id lookups, 0 enumerations"),
])
def test_check_reports_how_each_quantifier_runs(runner, tmp_path, spec, line):
    if not spec.startswith("builtin:") and not spec.endswith(".stql"):
        (tmp_path / "spec.stql").write_text(spec + "\n")
        spec = str(tmp_path / "spec.stql")
    result = invoke(runner, "check", "--spec", spec)
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    # The quantifier line follows the spatial one.
    assert lines[lines.index(line) - 1].startswith("spatial: ")


def test_importing_the_cli_leaves_the_bench_module_unloaded():
    # Nor the spec parser: a builtin spec never needs it, and a spec file
    # imports it on first use (``builtins.read_spec_file``).
    unused = {"percemon.bench", "statistics", "percemon.generator", "percemon.stql.printer",
              "click", "percemon.stql.parser"}
    out = python("-c", f"import sys, percemon.cli; print(sorted({unused!r} & set(sys.modules)))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_monitor_on_a_builtin_spec_never_imports_the_parser(runner, tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(gen_lines(runner, "--frames", "2"))
    out = python("-X", "importtime", "-m", "percemon.cli", "monitor", "--spec", "builtin:phi1",
                 "--input", str(trace))
    assert out.returncode == 0, out.stderr
    assert [frame for frame, _ in verdict_values(out.stdout)] == [0, 1]
    modules = imported_modules(out.stderr)
    assert "percemon.monitor" in modules
    assert not {"percemon.stql.parser", "click"} & modules


def test_monitor_on_a_spec_file_imports_the_parser_and_matches_run(runner, tmp_path):
    spec = tmp_path / "spec.stql"
    spec.write_text("prev (exists {a} @ prob(a) > 0.8) and next (forall {a} @ prob(a) > 0.5)\n")
    trace = tmp_path / "trace.jsonl"
    trace.write_text(gen_lines(runner, "--drop-prob", "0.3", "--conf-dip-prob", "0.3"))
    out = python("-X", "importtime", "-m", "percemon.cli", "monitor", "--spec", str(spec),
                 "--input", str(trace))
    assert out.returncode == 0, out.stderr
    assert "percemon.stql.parser" in imported_modules(out.stderr)
    offline = invoke(runner, "run", "--spec", str(spec), "--trace", str(trace))
    assert offline.exit_code == 0
    assert len(verdict_values(out.stdout)) == 12
    assert verdict_values(out.stdout) == verdict_values(offline.stdout)
    assert len({value for _, value in verdict_values(out.stdout)}) == 2


def test_every_command_runs_without_click(runner, tmp_path):
    # ``click`` set to None in sys.modules makes any ``import click`` fail.
    trace = tmp_path / "trace.jsonl"
    trace.write_text(gen_lines(runner))
    spec = tmp_path / "spec.stql"
    spec.write_text("forall {a} @ prob(a) > 0.1\n")
    code = textwrap.dedent("""
        import json, sys
        sys.modules["click"] = None
        from percemon.cli import main
        spec, trace = sys.argv[1:]
        codes = [main(argv) for argv in (
            ["gen", "--frames", "2", "--objects", "1"],
            ["check", "--spec", spec],
            ["run", "--spec", spec, "--trace", trace],
            ["monitor", "--spec", spec, "--input", trace],
        )]
        print(json.dumps(codes), file=sys.stderr)
    """)
    out = python("-c", code, str(spec), str(trace))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stderr.splitlines()[-1]) == [0, 0, 0, 0]


def test_the_package_has_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fp:
        assert tomllib.load(fp)["project"]["dependencies"] == []


def test_every_package_export_resolves():
    import percemon
    import percemon.stql
    for package in (percemon, percemon.stql):
        for name in package.__all__:
            assert getattr(package, name) is not None, (package.__name__, name)
    # Names shared by a module and its function re-export the function.
    assert percemon.evaluate is importlib.import_module("percemon.evaluate").evaluate
    assert percemon.stql.desugar is importlib.import_module("percemon.stql.desugar").desugar
    assert percemon.desugar is percemon.stql.desugar


def test_check_param_overrides(runner):
    result = invoke(runner, "check", "--spec", "builtin:phi1", "--param", "c1=5",
                    "--param", "prob_high=0.9")
    assert result.exit_code == 0
    assert "> 5" in result.stdout.replace("5.0", "5")
    assert "0.9" in result.stdout


def test_check_unknown_param_fails(runner):
    result = invoke(runner, "check", "--spec", "builtin:phi1", "--param", "nope=1")
    assert result.exit_code == 1


@pytest.mark.parametrize("command", ["check", "monitor"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_param_fails(runner, command, value):
    extra = ("--input", "-") if command == "monitor" else ()
    result = invoke(runner, command, "--spec", "builtin:phi2", "--param", f"overlap={value}",
                    *extra, input="")
    assert result.exit_code == 1
    assert result.stderr.startswith("error: parameter overlap must be finite")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["check", "monitor"])
@pytest.mark.parametrize("param, message", [
    ("width=-5", "error: parameter width must be positive, got -5\n"),
    ("height=0", "error: parameter height must be positive, got 0\n"),
    ("prob_high=-2", "error: parameter prob_high must lie in [0, 1], got -2\n"),
    ("prob_low=1.5", "error: parameter prob_low must lie in [0, 1], got 1.5\n"),
    ("overlap=1.5", "error: parameter overlap must lie in [0, 1], got 1.5\n"),
])
def test_param_that_makes_a_check_vacuous_fails(runner, command, param, message):
    extra = ("--input", "-") if command == "monitor" else ()
    result = invoke(runner, command, "--spec", "builtin:phi1", "--param", param, *extra, input="")
    assert result.exit_code == 1
    assert result.stderr == message
    assert result.stdout == ""


@pytest.mark.parametrize("command", ["check", "monitor"])
@pytest.mark.parametrize("spec, at", [
    ("exists {a, b, c, d, e, f, g, h} @ prob(a) > 0.5", "1:1"),
    # Nested quantifiers that read their variables count together.
    ("true and\n  exists {a, b} @ forall {c} @ exists {d, e} @\n"
     "    (prob(a) > 0.5 and prob(c) > 0.5 and prob(e) > 0.1)", "2:3"),
])
def test_quantifier_arity_past_the_limit_fails_before_any_frame(runner, tmp_path, command, spec,
                                                                 at):
    (tmp_path / "wide.stql").write_text(spec + "\n")
    extra = ("--input", "-") if command == "monitor" else ()
    # A frame on stdin that would be read if the check came late.
    result = invoke(runner, command, "--spec", str(tmp_path / "wide.stql"), *extra,
                    input=gen_lines(runner))
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: {at}: quantifier-arity: ")
    assert "at most 4 may be bound at once" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("command", ["check", "run", "monitor", "bench"])
def test_spec_file_that_is_not_utf8_is_a_located_error(runner, tmp_path, command):
    spec = tmp_path / "bad.stql"
    spec.write_bytes(b"exists {a} @\r\n  prob(a) > 0.\xe9\n")
    trace = tmp_path / "trace.jsonl"
    trace.write_text(gen_lines(runner))
    extra = {"check": (), "run": ("--trace", str(trace)), "monitor": ("--input", str(trace)),
             "bench": ("--objects", "1", "--frames", "2")}[command]
    result = invoke(runner, command, "--spec", str(spec), *extra)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: 2:15: lexical: not valid UTF-8")
    assert "Traceback" not in result.stderr



@pytest.mark.parametrize("spec, message", [
    ("prob(a) > ²", "error: 1:11: syntax: expected a number, found '²'"),
    ("exists {a} @ prob(a) > 1e999", "error: 1:24: lexical: number out of range: '1e999'"),
])
def test_check_reports_a_bad_number_literal_as_a_located_error(runner, tmp_path, spec, message):
    path = tmp_path / "bad.stql"
    path.write_text(spec + "\n", encoding="utf-8")
    result = invoke(runner, "check", "--spec", str(path))
    assert result.exit_code == 1
    assert result.stderr == message + "\n"

# --- gen ----------------------------------------------------------------------

@pytest.mark.parametrize("flag", ["--width", "--height"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_rejects_non_finite_extent(runner, flag, value):
    result = invoke(runner, "gen", "--frames", "2", "--objects", "1", flag, value)
    assert result.exit_code == 1
    assert result.stderr == "error: image extent must be positive and finite\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--width", "0.5", "error: image extent 0.5 x 600 is too small for 30-60 px boxes inside "
                       "5% margins\n"),
    ("--height", "40", "error: image extent 800 x 40 is too small for 30-60 px boxes inside "
                       "5% margins\n"),
    ("--width", "1e308", "error: image extent must be at most 2^53, got 1e+308 x 600\n"),
])
def test_gen_rejects_an_extent_the_random_walk_cannot_use(runner, flag, value, message):
    result = invoke(runner, "gen", "--frames", "2", "--objects", "1", flag, value)
    assert result.exit_code == 1
    assert result.stderr == message
    assert result.stdout == ""


def test_gen_is_deterministic(runner):
    assert gen_lines(runner) == gen_lines(runner)


def test_gen_emits_valid_monotone_jsonl(runner):
    lines = [json.loads(line) for line in gen_lines(runner).splitlines()]
    assert [rec["frame"] for rec in lines] == list(range(12))
    assert all(len(rec["objects"]) == 2 for rec in lines)


# --- run ---------------------------------------------------------------------

def test_run_smooth_trajectories_all_true(runner, tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(gen_lines(runner))
    result = invoke(runner, "run", "--spec", "builtin:phi2", "--trace", str(trace))
    assert result.exit_code == 0
    values = verdict_values(result.stdout)
    assert len(values) == 12
    assert all(v for _, v in values)


@pytest.mark.parametrize("spec_text", [
    "once (exists {a} @ prob(a) > 0.8)",
    "(forall {a} @ (prob(a) < 0.5 or prob(a) > 0.9)) since (forall {a} @ prob(a) < 0.5)",
])
def test_run_matches_offline_evaluator_on_closed_past_specs(runner, tmp_path, spec_text):
    spec = tmp_path / "spec.pmspec"
    spec.write_text(spec_text + "\n")
    trace = tmp_path / "trace.jsonl"
    trace.write_text(gen_lines(runner, "--drop-prob", "0.3", "--conf-dip-prob", "0.3"))
    result = invoke(runner, "run", "--spec", str(spec), "--trace", str(trace))
    assert result.exit_code == 0
    frames = list(read_stream(trace.read_bytes().splitlines()))
    expected = evaluate_trace(desugar(parse(spec_text)), frames)
    assert [v for _, v in verdict_values(result.stdout)] == expected


# ``holds_window.stql`` has an unbounded history; an empty trace is a
# whole-trace window of no frames.
@pytest.mark.parametrize("spec", ["builtin:phi1", str(HOLDS_WINDOW)], ids=["phi1", "holds-window"])
def test_run_empty_trace_produces_no_output(runner, tmp_path, spec):
    trace = tmp_path / "empty.jsonl"
    trace.write_text("")
    result = invoke(runner, "run", "--spec", spec, "--trace", str(trace))
    assert (result.exit_code, result.stdout, result.stderr) == (0, "", "")


def test_run_reports_a_spec_error_before_a_missing_trace(runner, tmp_path):
    spec = tmp_path / "broken.pmspec"
    spec.write_text("prob(id1) > 0.5\n")
    result = invoke(runner, "run", "--spec", str(spec), "--trace", "no/such/trace.jsonl")
    assert result.exit_code == 1
    assert "id1" in result.stderr
    assert "no/such/trace.jsonl" not in result.stderr
    assert result.stdout == ""


def test_run_needs_no_override_for_an_unbounded_history(runner, tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(invoke(runner, "gen", "--frames", "60", "--objects", "3", "--seed", "7",
                            "--drop-prob", "0.05", "--conf-dip-prob", "0.05").stdout)
    result = invoke(runner, "run", "--spec", str(HOLDS_WINDOW), "--trace", str(trace))
    assert result.exit_code == 0
    frames = list(read_stream(trace.read_bytes().splitlines()))
    expected = evaluate_trace(desugar(parse(HOLDS_WINDOW.read_text())), frames)
    assert verdict_values(result.stdout) == [(f.frame_number, v) for f, v in zip(frames, expected)]
    assert not all(expected) and any(expected)


def test_run_rejects_malformed_trace(runner, tmp_path):
    trace = tmp_path / "bad.jsonl"
    trace.write_text("not json\n")
    result = invoke(runner, "run", "--spec", "builtin:phi1", "--trace", str(trace))
    assert result.exit_code == 1


def record(frame, timestamp, width="10", objects="[]"):
    return (f'{{"frame":{frame},"timestamp":{timestamp},"width":{width},"height":10,'
            f'"objects":{objects}}}\n')


OUT_OF_ORDER = [
    (record(0, 0.0) + record(1, 0.1) + record(1, 0.2), "line 3: frame number 1 does not increase over 1"),
    (record(0, 0.0) + "\n" + record(1, 0.3) + record(2, 0.2), "line 4: timestamp 0.2 decreases below 0.3"),
]


@pytest.mark.parametrize("payload, message", OUT_OF_ORDER)
def test_run_rejects_out_of_order_trace(runner, tmp_path, payload, message):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(payload)
    result = invoke(runner, "run", "--spec", "builtin:phi1", "--trace", str(trace))
    assert result.exit_code == 1
    assert result.stdout == ""  # run is all or nothing
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("command", ["run", "monitor"])
@pytest.mark.parametrize("width, reason", [
    ('"800"', "expected a number, got '800'"),
    ("[]", "expected a number, got []"),
    ("true", "expected a number, got True"),
    ("0", "image extent must be positive"),
])
def test_malformed_width_is_a_located_error(runner, tmp_path, command, width, reason):
    trace = tmp_path / "trace.jsonl"
    box = '[{"id":1,"class":"car","prob":0.5,"bbox":[0,0,5,5]}]'
    trace.write_text(record(0, 0.0) + record(1, 0.1, width=width, objects=box))
    flag = "--trace" if command == "run" else "--input"
    result = invoke(runner, command, "--spec", "builtin:phi1", flag, str(trace))
    assert result.exit_code == 1
    assert f"error: line 2: invalid field 'width': {reason}\n" in result.stderr
    assert "Traceback" not in result.stderr


HUGE = str(10**400)


@pytest.mark.parametrize("command", ["run", "monitor"])
@pytest.mark.parametrize("timestamp, width, bbox, prob, message", [
    ("0.1", "10", f"[0,0,{HUGE},5]", "0.5", "invalid field 'xmax': coordinate must be finite"),
    (HUGE, "10", "[0,0,5,5]", "0.5", "invalid field 'timestamp': must be finite"),
    ("0.1", HUGE, "[0,0,5,5]", "0.5", "invalid field 'width': must be finite"),
    ("0.1", "10", "[0,0,5,5]", HUGE, "confidence inf is outside [0, 1]"),
    ("0.1", "10", "[0,0,5,5]", "-" + HUGE, "confidence -inf is outside [0, 1]"),
], ids=["bbox", "timestamp", "width", "prob", "negative-prob"])
def test_huge_integer_is_a_located_error(runner, tmp_path, command, timestamp, width, bbox, prob,
                                         message):
    trace = tmp_path / "trace.jsonl"
    box = f'[{{"id":1,"class":"car","prob":{prob},"bbox":{bbox}}}]'
    trace.write_text(record(0, 0.0) + record(1, timestamp, width=width, objects=box))
    flag = "--trace" if command == "run" else "--input"
    result = invoke(runner, command, "--spec", "builtin:phi1", flag, str(trace))
    assert result.exit_code == 1
    assert result.stderr.startswith("error: line 2: ")
    assert f"error: line 2: {message}\n" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["run", "monitor"])
def test_invalid_utf8_is_a_located_error(runner, tmp_path, command):
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes(record(0, 0.0).encode() + b"\xff\xfe\n")
    flag = "--trace" if command == "run" else "--input"
    result = invoke(runner, command, "--spec", "builtin:phi1", flag, str(trace))
    assert result.exit_code == 1
    assert result.stderr.startswith("error: line 2: not valid UTF-8")


# --- monitor -----------------------------------------------------------------

def test_monitor_stdin_matches_run(runner, tmp_path):
    payload = gen_lines(runner)
    trace = tmp_path / "trace.jsonl"
    trace.write_text(payload)
    offline = invoke(runner, "run", "--spec", "builtin:phi1", "--trace", str(trace))
    online = invoke(runner, "monitor", "--spec", "builtin:phi1", "--input", "-",
                    input=payload)
    assert online.exit_code == 0
    assert verdict_values(online.stdout) == verdict_values(offline.stdout)


@pytest.mark.parametrize("spec", [
    "forall {b} @ pin (_, f) { always (pin (_, g) { C_FRAME - f <= 5 } implies prob(b) > 0.6) }",
    "forall {b} @ pin (_, f) { pin (_, g) { always (C_FRAME - f <= 5 implies prob(b) > 0.6) } }",
])
def test_guard_under_an_unread_pin_bounds_the_window(runner, tmp_path, spec):
    spec_file = tmp_path / "spec.stql"
    spec_file.write_text(spec + "\n")
    checked = invoke(runner, "check", "--spec", str(spec_file))
    assert checked.exit_code == 0
    lines = checked.stdout.splitlines()
    assert "history=0 horizon=5" in lines
    assert "temporal: 0 closed summaries, 1 per-id summary over {b}, 0 scans" in lines
    # The monitor needs no --max-horizon and gives the offline verdicts.
    payload = gen_lines(runner, "--conf-dip-prob", "0.3")
    trace = tmp_path / "trace.jsonl"
    trace.write_text(payload)
    offline = invoke(runner, "run", "--spec", str(spec_file), "--trace", str(trace))
    online = invoke(runner, "monitor", "--spec", str(spec_file), "--input", "-", input=payload)
    assert online.exit_code == 0
    assert online.stderr == ""
    assert verdict_values(online.stdout) == verdict_values(offline.stdout)
    assert {value for _, value in verdict_values(online.stdout)} == {True, False}


def test_monitor_unbounded_spec_requires_override(runner, tmp_path):
    spec = tmp_path / "liveness.pmspec"
    spec.write_text("true until (exists {a} @ (prob(a) > 0.5))\n")
    payload = gen_lines(runner)
    result = invoke(runner, "monitor", "--spec", str(spec), "--input", "-", input=payload)
    assert result.exit_code == 1
    assert "max_horizon" in result.stderr
    bounded = invoke(runner, "monitor", "--spec", str(spec), "--input", "-",
                     "--max-horizon", "3", input=payload)
    assert bounded.exit_code == 0
    assert len(verdict_values(bounded.stdout)) == 12


def test_monitor_unbound_variable_fails_with_location(runner, tmp_path):
    spec = tmp_path / "broken.pmspec"
    spec.write_text("# comment\nexists {a} @ prob(b) > 0.5\n")
    result = invoke(runner, "monitor", "--spec", str(spec), "--input", "-",
                    input=gen_lines(runner))
    assert result.exit_code == 1
    assert result.stderr == "error: 2:14: unbound-variable: variable 'b' is not bound here\n"
    assert result.stdout == ""


@pytest.mark.parametrize("spec_text, flag, value", [
    ("holds (exists {a} @ prob(a) > 0.5)", "--max-history", "-5"),
    ("prev true", "--max-horizon", "-3"),
])
def test_monitor_rejects_negative_window_override(runner, tmp_path, spec_text, flag, value):
    spec = tmp_path / "spec.pmspec"
    spec.write_text(spec_text + "\n")
    result = invoke(runner, "monitor", "--spec", str(spec), "--input", "-", flag, value,
                    input=gen_lines(runner))
    assert result.exit_code == 1
    assert f"error: {flag[2:].replace('-', '_')} must not be negative, got {value}" in result.stderr
    assert result.stdout == ""


def test_monitor_rejects_non_monotonic_input(runner):
    lines = (
        '{"frame":1,"timestamp":0.1,"width":10,"height":10,"objects":[]}\n'
        '{"frame":0,"timestamp":0.2,"width":10,"height":10,"objects":[]}\n'
    )
    result = invoke(runner, "monitor", "--spec", "builtin:phi1", "--input", "-", input=lines)
    assert result.exit_code == 1
    assert "frame number" in result.stderr


@pytest.mark.parametrize("payload, message", OUT_OF_ORDER)
def test_monitor_reports_out_of_order_input_by_line(runner, payload, message):
    result = invoke(runner, "monitor", "--spec", "builtin:phi1", "--input", "-", input=payload)
    assert result.exit_code == 1
    assert result.stderr == f"error: {message}\n"


def test_monitor_flushes_accepted_frames_before_reporting_bad_input(runner, tmp_path):
    spec = tmp_path / "spec.pmspec"
    spec.write_text("next next true\n")
    good = [record(n, n / 10) for n in range(4)]
    bad = record(4, 0.4, objects='[{"id":1,"class":"car","prob":0.5,"bbox":[5,5,1,1]}]')
    result = invoke(runner, "monitor", "--spec", str(spec), "--input", "-",
                    input="".join(good) + bad)
    assert result.exit_code == 1
    assert result.stderr == ("error: line 5: invalid field 'bbox': "
                             "inverted box [5.0, 5.0, 1.0, 1.0]\n")
    accepted = list(read_stream(good))
    expected = [(v.frame_number, v.value) for v in run_monitor(parse("next next true"), accepted)]
    assert verdict_values(result.stdout) == expected
    assert [n for n, _ in expected] == [0, 1, 2, 3]


def test_monitor_reads_from_file(runner, tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(gen_lines(runner))
    result = invoke(runner, "monitor", "--spec", "builtin:phi2", "--input", str(trace))
    assert result.exit_code == 0
    assert len(verdict_values(result.stdout)) == 12


# --- bench -------------------------------------------------------------------

def test_bench_tsv_output(runner):
    result = invoke(runner, "bench", "--spec", "builtin:phi1", "--objects", "1,2",
                    "--frames", "6", "--seed", "2")
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0].startswith("spec\tobjects")
    assert len(lines) == 3


def test_bench_counts_assignments(runner):
    result = invoke(runner, "bench", "--spec", "probe:exists2", "--objects", "2,3",
                    "--frames", "5", "--count-assignments", "--json")
    assert result.exit_code == 0
    rows = json.loads(result.stdout)
    assert [row["assignments_per_frame"] for row in rows] == [4, 9]


def test_bench_rejects_bad_counts(runner):
    result = invoke(runner, "bench", "--spec", "builtin:phi1", "--objects", "x")
    assert result.exit_code != 0


# --- logging -------------------------------------------------------------------

def test_log_level_env_mapping(monkeypatch):
    import logging

    from percemon.cli import log_level_from_env

    for name, level in (("error", logging.ERROR), ("warn", logging.WARNING),
                        ("info", logging.INFO), ("debug", logging.DEBUG)):
        monkeypatch.setenv("PERCEMON_LOG", name)
        assert log_level_from_env() == level
    monkeypatch.setenv("PERCEMON_LOG", "bogus")
    assert log_level_from_env() == logging.WARNING
    monkeypatch.delenv("PERCEMON_LOG")
    assert log_level_from_env() == logging.WARNING


# --- exit-code contract --------------------------------------------------------

@pytest.mark.parametrize("args, names", [
    (["monitor", "--input", "-"], "--spec"),
    (["bench", "--spec", "builtin:phi1", "--objects", "2", "--frames", "x"], "--frames"),
    (["check", "--spec", "builtin:phi1", "--frobnicate"], "--frobnicate"),
    (["frobnicate", "--spec", "builtin:phi1"], "frobnicate"),
    ([], "COMMAND"),
    (["check", "--spec", "builtin:phi1", "--param", "foo"], "expected name=value, got 'foo'"),
    (["monitor", "--spec", "builtin:phi1", "--param", "x=abc"], "'abc' is not a number"),
    (["bench", "--spec", "builtin:phi1", "--objects", "a,b"], "--objects"),
    (["bench", "--spec", "builtin:phi1", "--objects", ",,"], "--objects"),
    (["run", "--spec", "builtin:phi1", "--trace", "no/such/trace.jsonl"], "no/such/trace.jsonl"),
    (["run", "--spec", "builtin:phi1", "--trace", str(Path(__file__).parent)], "directory"),
    (["check", "--spec", "builtin:phi3"], "unknown builtin specification 'builtin:phi3'"),
    (["monitor", "--spec", "probe:foo"], "unknown probe specification 'probe:foo'"),
    (["gen", "--frames", "-1", "--objects", "2"], "frames and objects must be non-negative"),
], ids=["missing-spec", "frames-not-an-int", "unknown-option", "unknown-command", "no-command",
        "param-without-value", "param-not-a-number", "objects-not-ints", "no-objects",
        "missing-trace", "trace-is-a-directory", "unknown-builtin", "unknown-probe",
        "negative-frames"])
def test_usage_errors_exit_1_with_one_error_line(runner, args, names):
    result = invoke(runner, *args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert names in result.stderr
    assert "Traceback" not in result.stderr


def test_version(runner):
    result = invoke(runner, "--version")
    assert result.exit_code == 0
    assert result.stdout == "percemon, version 0.1.0\n"


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [[], ["check"], ["run"], ["monitor"], ["bench"], ["gen"]],
                         ids=["root", "check", "run", "monitor", "bench", "gen"])
def test_help_exits_0(runner, command, flag):
    result = invoke(runner, *command, flag)
    assert result.exit_code == 0
    assert result.stdout.startswith("usage: percemon")
    assert result.stderr == ""


def test_internal_contract_violations_exit_2():
    from percemon.cli import _guarded
    from percemon.errors import ContractViolation

    @_guarded
    def boom():
        raise ContractViolation("broken invariant")

    with pytest.raises(SystemExit) as excinfo:
        boom()
    assert excinfo.value.code == 2


def test_input_errors_exit_1():
    from percemon.cli import _guarded
    from percemon.errors import ConfigError

    @_guarded
    def bad_input():
        raise ConfigError("bad input")

    with pytest.raises(SystemExit) as excinfo:
        bad_input()
    assert excinfo.value.code == 1


@pytest.mark.parametrize("command", ["check", "monitor"])
def test_deeply_nested_spec_is_a_diagnostic_not_a_crash(runner, tmp_path, command):
    spec = tmp_path / "deep.pmspec"
    spec.write_text("not " * 3000 + "true\n")
    extra = ("--input", "-") if command == "monitor" else ()
    result = invoke(runner, command, "--spec", str(spec), *extra, input="")
    assert result.exit_code == 1
    assert "1:401: syntax: specification nests deeper than 100 levels" in result.stderr
    assert "Traceback" not in result.stderr


# --- output into a closed pipe -------------------------------------------------

@pytest.mark.parametrize("command", ["monitor", "run", "gen"])
def test_closed_pipe_exits_quietly(tmp_path, command):
    # Far more lines than a pipe buffers, so writes hit the closed pipe.
    trace = tmp_path / "trace.jsonl"
    frames = generate_frames(GenConfig(frames=4000, objects=3, seed=5))
    trace.write_text("".join(serialize_frame(f) + "\n" for f in frames))
    args = {"monitor": ["--spec", "builtin:phi1", "--input", str(trace)],
            "run": ["--spec", "builtin:phi1", "--trace", str(trace)],
            "gen": ["--frames", "4000", "--objects", "3", "--seed", "5"]}[command]
    proc = subprocess.Popen(
        [sys.executable, "-m", "percemon.cli", command, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SRC_ENV,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 128 + 13
    assert json.loads(first)["frame"] == 0
    assert stderr == ""  # no "Exception ignored ... BrokenPipeError" at shutdown


# --- streaming ---------------------------------------------------------------

def masked(text):
    """Verdict lines with their measured ``eval_time_ns``, which differs run to run, zeroed."""
    return re.sub(r'"eval_time_ns":\d+', '"eval_time_ns":0', text)


def stream_lines(frames, seed=11):
    config = GenConfig(frames=frames, objects=3, seed=seed, jump_prob=0.05, drop_prob=0.05)
    return [serialize_frame(frame) for frame in generate_frames(config)]


def cli(*args, stderr=subprocess.PIPE):
    return subprocess.run([sys.executable, "-m", "percemon.cli", *args], env=SRC_ENV,
                          stdout=subprocess.PIPE, stderr=stderr, text=True)


def test_monitor_answers_each_frame_before_the_next_arrives():
    # builtin:phi1 has horizon 0, so each frame settles its own verdict.
    lines = [line.encode() + b"\n" for line in stream_lines(6)]
    proc = subprocess.Popen([sys.executable, "-m", "percemon.cli", "monitor", "--spec",
                             "builtin:phi1", "--input", "-"], env=SRC_ENV,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    received = b""
    try:
        for n, line in enumerate(lines):
            # A frame arrives in two pieces; the monitor waits for the rest.
            proc.stdin.write(line[:len(line) // 2])
            proc.stdin.flush()
            time.sleep(0.05)
            proc.stdin.write(line[len(line) // 2:])
            proc.stdin.flush()
            deadline = time.monotonic() + 30
            while received.count(b"\n") <= n:
                left = deadline - time.monotonic()
                ready = left > 0 and select.select([proc.stdout], [], [], left)[0]
                assert ready, f"no verdict for frame {n} within 30 s"
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                assert chunk, proc.stderr.read().decode()
                received += chunk
            assert received.count(b"\n") == n + 1
        proc.stdin.close()
        assert proc.wait(timeout=30) == 0
        assert proc.stderr.read() == b""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert [json.loads(line)["frame"] for line in received.splitlines()] == list(range(6))


def crlf_at_the_first_boundary(lines):
    # Trailing spaces after the first record put the ``\r`` of a later CRLF
    # at the last byte of the first 8 KiB read and its ``\n`` at the first
    # byte of the second.
    text = "\r\n".join(lines) + "\r\n"
    last_cr = text.rindex("\r", 0, io.DEFAULT_BUFFER_SIZE)
    pad = " " * (io.DEFAULT_BUFFER_SIZE - 1 - last_cr)
    text = lines[0] + pad + text[len(lines[0]):]
    assert text[io.DEFAULT_BUFFER_SIZE - 1:io.DEFAULT_BUFFER_SIZE + 1] == "\r\n"
    return text


STREAM_LAYOUTS = {
    "lf": lambda lines: "\n".join(lines) + "\n",
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "blank lines": lambda lines: "".join(
        line + "\n" + ("\n \n\r\n" if n % 7 == 3 else "") for n, line in enumerate(lines)),
    "no final newline": lambda lines: "\n".join(lines),
    "crlf split by a read": crlf_at_the_first_boundary,
}


@pytest.mark.parametrize("spec", ["builtin:phi1", "next next (exists {a} @ prob(a) > 0.9)"])
@pytest.mark.parametrize("layout", STREAM_LAYOUTS)
def test_monitor_replay_prints_what_run_prints(tmp_path, layout, spec):
    if not spec.startswith("builtin:"):
        (tmp_path / "spec.stql").write_text(spec + "\n")
        spec = str(tmp_path / "spec.stql")
    data = STREAM_LAYOUTS[layout](stream_lines(100)).encode()
    # Records straddle the 8 KiB reads of the monitor.
    size = io.DEFAULT_BUFFER_SIZE
    assert len(data) > 3 * size
    assert any(data[k - 1:k] != b"\n" for k in range(size, len(data), size))
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes(data)
    ran = cli("run", "--spec", spec, "--trace", str(trace))
    monitored = cli("monitor", "--spec", spec, "--input", str(trace))
    assert (ran.returncode, ran.stderr) == (monitored.returncode, monitored.stderr) == (0, "")
    assert masked(monitored.stdout) == masked(ran.stdout)
    assert len(monitored.stdout.splitlines()) == 100


def test_an_ingest_error_mid_chunk_follows_the_verdicts_of_its_accepted_frames(tmp_path):
    (tmp_path / "spec.stql").write_text("next next (exists {a} @ prob(a) > 0.9)\n")
    spec = str(tmp_path / "spec.stql")
    lines = [line + "\n" for line in stream_lines(60)]
    lines[40] = re.sub(r'"bbox":\[[^\]]*\]', '"bbox":[5,5,1,1]', lines[40], count=1)
    starts = [sum(map(len, lines[:n])) for n in range(len(lines))]
    size = io.DEFAULT_BUFFER_SIZE
    # Line 41 starts in the same read as line 40, whose frame is accepted.
    assert starts[40] // size == starts[39] // size >= 1
    (tmp_path / "good.jsonl").write_text("".join(lines[:40]))
    (tmp_path / "trace.jsonl").write_text("".join(lines))
    ran = cli("run", "--spec", spec, "--trace", str(tmp_path / "good.jsonl"))
    # stderr joins stdout, so the order of the two is kept.
    monitored = cli("monitor", "--spec", spec, "--input", str(tmp_path / "trace.jsonl"),
                    stderr=subprocess.STDOUT)
    assert monitored.returncode == 1
    *verdicts, error = monitored.stdout.splitlines(keepends=True)
    assert masked("".join(verdicts)) == masked(ran.stdout)
    assert len(verdicts) == 40
    assert error.startswith("error: line 41: invalid field 'bbox': inverted box")


class RecordedWrites(io.RawIOBase):
    """A binary stdout that keeps each write and accepts at most ``limit`` bytes of it."""

    def __init__(self, limit=None):
        self.writes = []
        self.limit = limit

    def writable(self):
        return True

    def write(self, data):
        data = bytes(data[:self.limit])
        self.writes.append(data)
        return len(data)


def monitored_writes(monkeypatch, trace, limit=None):
    raw = RecordedWrites(limit)
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
    assert main(["monitor", "--spec", "builtin:phi1", "--input", str(trace)]) == 0
    return raw.writes


def test_monitor_writes_verdict_0_alone_then_once_per_read(monkeypatch, tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(line + "\n" for line in stream_lines(100)))
    writes = monitored_writes(monkeypatch, trace)
    assert json.loads(writes[0])["frame"] == 0 and writes[0].count(b"\n") == 1
    # Then, before each read after the first, the verdicts of the chunk
    # before it; builtin:phi1 has horizon 0, so none wait for the flush.
    reads = -(-trace.stat().st_size // io.DEFAULT_BUFFER_SIZE)
    assert len(writes) == 1 + reads
    frames = [json.loads(line)["frame"] for line in b"".join(writes).splitlines()]
    assert frames == list(range(100))


def test_a_short_write_is_completed_not_dropped(monkeypatch, tmp_path):
    # An unbuffered stdout (python -u) can take part of a block; the rest
    # is written, not dropped by the text layer.
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(line + "\n" for line in stream_lines(100)))
    writes = monitored_writes(monkeypatch, trace, limit=100)
    assert max(map(len, writes)) == 100
    frames = [json.loads(line)["frame"] for line in b"".join(writes).splitlines()]
    assert frames == list(range(100))
