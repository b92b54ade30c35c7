"""Command-line interface: check, run, monitor, bench and gen.

Verdicts stream as compact JSONL records
``{"frame":n,"timestamp":t,"verdict":b,"eval_time_ns":k}``; frames
use the trace module's wire format and are read with ``read_stream``, so
an ingest error names its input line. Exit codes: 0 on success, 1 on usage,
input or specification errors, 2 on internal contract violations. Set
``PERCEMON_LOG`` to error, warn, info or debug to control diagnostics on
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import os
import sys

from . import __version__
from .errors import ContractViolation, IngestError, PercemonError
from .evaluate import describe_quantifiers, describe_spatial, describe_temporal
from .monitor import Monitor, MonitorConfig, Verdict, run_monitor
from .stql.bindings import require_bindings
from .stql.bounds import compute_bounds
from .stql.builtins import resolve_spec
from .stql.desugar import desugar
from .trace import read_stream, serialize_frame

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def log_level_from_env() -> int:
    wanted = os.environ.get("PERCEMON_LOG", "warn").lower()
    return _LOG_LEVELS.get(wanted, logging.WARNING)


def setup_logging() -> None:
    logging.basicConfig(stream=sys.stderr, level=log_level_from_env(),
                        format="%(levelname)s %(name)s: %(message)s")


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
            sys.stdout.flush()
        except BrokenPipeError:
            # Downstream consumer closed the pipe (e.g. piping into head).
            # Point stdout at devnull so interpreter shutdown stays quiet.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            sys.exit(128 + 13)
        except ContractViolation as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            sys.exit(2)
        except (PercemonError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(1)

    return wrapper


def _param(pair: str) -> tuple[str, float]:
    name, sep, value = pair.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected name=value, got {pair!r}")
    try:
        return name.strip(), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number") from None


def _counts(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers") from None


def _checked_spec(spec: str, params: dict[str, float]):
    name, formula = resolve_spec(spec, params)
    require_bindings(formula)
    return name, formula


def _emit_verdict(verdict: Verdict) -> None:
    # One buffered write per verdict; the commands flush where output must
    # be seen, inside ``_guarded`` so that a closed pipe exits quietly.
    sys.stdout.write(verdict.to_json_line())


@_guarded
def check(spec: str, params: list[tuple[str, float]]) -> None:
    """Parse and analyze a specification; print its window requirement."""
    # Imported here: only ``check`` prints formulas.
    from .stql.printer import format_formula

    name, formula = _checked_spec(spec, dict(params))
    core = desugar(formula)
    bounds = compute_bounds(core)
    print(f"spec: {name}")
    print(f"formula: {format_formula(formula)}")
    print(f"desugared: {format_formula(core)}")
    print(bounds.describe())
    print(describe_temporal(core))
    print(describe_spatial(core))
    print(describe_quantifiers(core))
    if bounds.history is None:
        print("warning: history is unbounded; online monitoring needs --max-history",
              file=sys.stderr)
    if bounds.horizon is None:
        print("warning: horizon is unbounded; online monitoring needs --max-horizon",
              file=sys.stderr)


@_guarded
def run(spec: str, trace_path: str, params: list[tuple[str, float]]) -> None:
    """Evaluate a specification over a recorded trace, each verdict seeing the whole trace."""
    _, formula = _checked_spec(spec, dict(params))
    # All or nothing: the whole trace is read and checked before any verdict.
    with open(trace_path, "rb") as fp:
        frames = list(read_stream(fp))
    # A monitor whose window is the whole trace: every verdict sees every
    # frame, so the window start never moves and one summary table serves all.
    whole = MonitorConfig(max_history=len(frames), max_horizon=len(frames))
    for verdict in run_monitor(formula, frames, whole):
        _emit_verdict(verdict)


@_guarded
def monitor(spec: str, input_path: str, max_history: int | None,
            max_horizon: int | None, params: list[tuple[str, float]]) -> None:
    """Monitor a frame stream online, emitting verdicts as they settle.

    On bad input, the verdicts of every frame accepted so far are flushed
    before the error is reported.
    """
    # ``Monitor`` checks the bindings and reports them as ``check`` does.
    _, formula = resolve_spec(spec, dict(params))
    engine = Monitor(formula, MonitorConfig(max_history=max_history, max_horizon=max_horizon))
    try:
        source = (contextlib.nullcontext(sys.stdin.buffer) if input_path == "-"
                  else open(input_path, "rb"))
        with source as stream:
            for frame in read_stream(stream):
                for verdict in engine.push_frame(frame):
                    _emit_verdict(verdict)
                sys.stdout.flush()
    except IngestError:
        for verdict in engine.flush():
            _emit_verdict(verdict)
        sys.stdout.flush()
        raise
    for verdict in engine.flush():
        _emit_verdict(verdict)


@_guarded
def bench(spec: str, objects: list[int], frames: int, seed: int,
          count_assignments: bool, as_json: bool, params: list[tuple[str, float]]) -> None:
    """Measure per-verdict evaluation time against synthetic streams."""
    # Imported here: ``monitor`` and ``run`` never need it or its imports.
    from .bench import render_json, render_tsv, run_bench

    reports = run_bench(spec, objects, frames=frames, seed=seed,
                        params=dict(params), count_assignments=count_assignments)
    print(render_json(reports) if as_json else render_tsv(reports))


@_guarded
def gen(frames: int, objects: int, drop_prob: float, jump_prob: float,
        conf_dip_prob: float, seed: int, width: float, height: float) -> None:
    """Emit a deterministic synthetic frame stream as JSONL."""
    # Imported here: only ``gen`` and ``bench`` generate frames.
    from .generator import GenConfig, generate_frames

    config = GenConfig(frames=frames, objects=objects, drop_prob=drop_prob,
                       jump_prob=jump_prob, conf_dip_prob=conf_dip_prob,
                       seed=seed, width=width, height=height)
    for frame in generate_frames(config):
        print(serialize_frame(frame))


class UsageError(Exception):
    """A command line that does not parse; ``main`` reports it and returns 1."""


class _Parser(argparse.ArgumentParser):
    # Raises where ``ArgumentParser`` prints usage and exits with status 2.
    def error(self, message: str):
        raise UsageError(message)


def _parser() -> argparse.ArgumentParser:
    root = _Parser(prog="percemon", allow_abbrev=False,
                   description="Online monitoring of spatio-temporal quality specifications.")
    root.add_argument("--version", action="version", version=f"percemon, version {__version__}")
    commands = root.add_subparsers(metavar="COMMAND", required=True)

    def command(fn, spec_help: str | None = None) -> argparse.ArgumentParser:
        doc = fn.__doc__ or ""  # None under python -OO
        sub = commands.add_parser(fn.__name__, allow_abbrev=False, help=doc.partition("\n")[0],
                                  description=doc)
        sub.set_defaults(command=fn)
        if spec_help is not None:
            sub.add_argument("--spec", required=True, help=spec_help)
            sub.add_argument("--param", dest="params", action="append", default=[], type=_param,
                             metavar="NAME=VALUE", help="Override a builtin constant (repeatable).")
        return sub

    command(check, "Specification file, builtin:phi1/builtin:phi2, or probe:existsK.")

    sub = command(run, "Specification file or builtin name.")
    sub.add_argument("--trace", dest="trace_path", required=True, help="Frame JSONL file.")

    sub = command(monitor, "Specification file or builtin name.")
    sub.add_argument("--input", dest="input_path", default="-",
                     help="Frame JSONL file, or - for stdin (default: -).")
    sub.add_argument("--max-history", type=int, default=None,
                     help="Window override for unbounded or widened history.")
    sub.add_argument("--max-horizon", type=int, default=None,
                     help="Window override for unbounded or widened horizon.")

    sub = command(bench, "Specification file, builtin or probe name.")
    sub.add_argument("--objects", required=True, type=_counts,
                     help="Comma-separated object counts, e.g. 2,5,10.")
    sub.add_argument("--frames", type=int, default=300, help="(default: %(default)s)")
    sub.add_argument("--seed", type=int, default=0, help="(default: %(default)s)")
    sub.add_argument("--count-assignments", action="store_true",
                     help="Also report quantifier assignments per frame.")
    sub.add_argument("--json", dest="as_json", action="store_true",
                     help="Emit JSON instead of TSV.")

    sub = command(gen)
    sub.add_argument("--frames", type=int, required=True)
    sub.add_argument("--objects", type=int, required=True)
    for flag, kind, default in (("--drop-prob", float, 0.0), ("--jump-prob", float, 0.0),
                                ("--conf-dip-prob", float, 0.0), ("--seed", int, 0),
                                ("--width", float, 800.0), ("--height", float, 600.0)):
        sub.add_argument(flag, type=kind, default=default, help="(default: %(default)s)")
    return root


def main(argv: list[str] | None = None) -> int:
    setup_logging()
    try:
        args = vars(_parser().parse_args(argv))
        args.pop("command")(**args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # From --help and --version, and the exit codes of ``_guarded``.
        return int(exc.code or 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
