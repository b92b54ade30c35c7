"""Command-line interface: check, run, monitor, bench and gen.

Verdicts stream as compact JSONL records
``{"frame":n,"timestamp":t,"verdict":b,"eval_time_ns":k}``; frames
use the trace module's wire format and are read with ``read_stream``, so
an ingest error names its input line. Exit codes: 0 on success, 1 on input
or specification errors, 2 on internal contract violations. Set
``PERCEMON_LOG`` to error, warn, info or debug to control diagnostics on
stderr.
"""

from __future__ import annotations

import functools
import logging
import os
import sys
import time

# The package's modules are imported before ``click``: compiling a module
# after it raises a start's peak memory by most of that compile's own peak
# (1.4 MB by tracemalloc for the parser). That is also why the parser, which
# only a spec file needs, is imported here.
from . import __version__
from .errors import ContractViolation, IngestError, PercemonError
from .evaluate import EvalContext, describe_spatial, describe_temporal, evaluate
from .monitor import Monitor, MonitorConfig, Verdict
from .stql.bindings import require_bindings
from .stql.bounds import compute_bounds
from .stql.builtins import resolve_spec
from .stql.desugar import desugar
from .stql import parser  # noqa: F401
from .trace import read_stream, serialize_frame

import click

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
            return fn(*args, **kwargs)
        except BrokenPipeError:
            # Downstream consumer closed the pipe (e.g. piping into head).
            # Point stdout at devnull so interpreter shutdown stays quiet.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            sys.exit(128 + 13)
        except ContractViolation as exc:
            click.echo(f"internal error: {exc}", err=True)
            sys.exit(2)
        except (PercemonError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _parse_params(pairs: tuple[str, ...]) -> dict[str, float]:
    params: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise click.BadParameter(f"expected name=value, got {pair!r}", param_hint="--param")
        try:
            params[name.strip()] = float(value)
        except ValueError:
            raise click.BadParameter(f"{value!r} is not a number", param_hint="--param")
    return params


def _checked_spec(spec: str, params: dict[str, float]):
    name, formula = resolve_spec(spec, params)
    require_bindings(formula)
    return name, formula


def _emit_verdict(verdict: Verdict) -> None:
    # One buffered write per verdict; the commands flush where output must
    # be seen, inside ``_guarded`` so that a closed pipe exits quietly.
    sys.stdout.write(verdict.to_json_line())


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__, prog_name="percemon")
def cli() -> None:
    """Online monitoring of spatio-temporal quality specifications."""
    setup_logging()


@cli.command()
@click.option("--spec", "spec", required=True,
              help="Specification file, builtin:phi1/builtin:phi2, or probe:existsK.")
@click.option("--param", "params", multiple=True, metavar="NAME=VALUE",
              help="Override a builtin constant (repeatable).")
@_guarded
def check(spec: str, params: tuple[str, ...]) -> None:
    """Parse and analyze a specification; print its window requirement."""
    # Imported here: only ``check`` prints formulas.
    from .stql.printer import format_formula

    name, formula = _checked_spec(spec, _parse_params(params))
    core = desugar(formula)
    bounds = compute_bounds(core)
    click.echo(f"spec: {name}")
    click.echo(f"formula: {format_formula(formula)}")
    click.echo(f"desugared: {format_formula(core)}")
    click.echo(bounds.describe())
    click.echo(describe_temporal(core))
    click.echo(describe_spatial(core))
    if bounds.history is None:
        click.echo("warning: history is unbounded; online monitoring needs --max-history", err=True)
    if bounds.horizon is None:
        click.echo("warning: horizon is unbounded; online monitoring needs --max-horizon", err=True)


@cli.command()
@click.option("--spec", required=True, help="Specification file or builtin name.")
@click.option("--trace", "trace_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--param", "params", multiple=True, metavar="NAME=VALUE")
@_guarded
def run(spec: str, trace_path: str, params: tuple[str, ...]) -> None:
    """Offline-evaluate a specification over a recorded trace."""
    _, formula = _checked_spec(spec, _parse_params(params))
    core = desugar(formula)
    # All or nothing: the whole trace is read and checked before any verdict.
    with open(trace_path, "rb") as fp:
        frames = list(read_stream(fp))
    # Every verdict sees the whole trace, so the window start never moves and
    # one table of temporal summaries serves all of them.
    summaries: dict = {}
    for index, frame in enumerate(frames):
        started = time.perf_counter_ns()
        value = evaluate(core, EvalContext(frames, index, summaries=summaries))
        elapsed = time.perf_counter_ns() - started
        _emit_verdict(Verdict(frame.frame_number, frame.timestamp, bool(value), elapsed))
    sys.stdout.flush()


@cli.command()
@click.option("--spec", required=True, help="Specification file or builtin name.")
@click.option("--input", "input_path", default="-", show_default=True,
              help="Frame JSONL file, or - for stdin.")
@click.option("--max-history", type=int, default=None,
              help="Window override for unbounded or widened history.")
@click.option("--max-horizon", type=int, default=None,
              help="Window override for unbounded or widened horizon.")
@click.option("--param", "params", multiple=True, metavar="NAME=VALUE")
@_guarded
def monitor(spec: str, input_path: str, max_history: int | None,
            max_horizon: int | None, params: tuple[str, ...]) -> None:
    """Monitor a frame stream online, emitting verdicts as they settle.

    On bad input, the verdicts of every frame accepted so far are flushed
    before the error is reported.
    """
    # ``Monitor`` checks the bindings and reports them as ``check`` does.
    _, formula = resolve_spec(spec, _parse_params(params))
    engine = Monitor(formula, MonitorConfig(max_history=max_history, max_horizon=max_horizon))
    try:
        with click.open_file(input_path, "rb") as stream:
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
    sys.stdout.flush()


@cli.command()
@click.option("--spec", required=True, help="Specification file, builtin or probe name.")
@click.option("--objects", required=True, help="Comma-separated object counts, e.g. 2,5,10.")
@click.option("--frames", default=300, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--count-assignments", is_flag=True,
              help="Also report quantifier assignments per frame.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of TSV.")
@click.option("--param", "params", multiple=True, metavar="NAME=VALUE")
@_guarded
def bench(spec: str, objects: str, frames: int, seed: int,
          count_assignments: bool, as_json: bool, params: tuple[str, ...]) -> None:
    """Measure per-verdict evaluation time against synthetic streams."""
    # Imported here: ``monitor`` and ``run`` never need it or its imports.
    from .bench import render_json, render_tsv, run_bench

    try:
        counts = [int(part) for part in objects.split(",") if part.strip()]
    except ValueError:
        raise click.BadParameter("expected comma-separated integers", param_hint="--objects")
    reports = run_bench(spec, counts, frames=frames, seed=seed,
                        params=_parse_params(params), count_assignments=count_assignments)
    click.echo(render_json(reports) if as_json else render_tsv(reports))


@cli.command()
@click.option("--frames", required=True, type=int)
@click.option("--objects", required=True, type=int)
@click.option("--drop-prob", default=0.0, show_default=True, type=float)
@click.option("--jump-prob", default=0.0, show_default=True, type=float)
@click.option("--conf-dip-prob", default=0.0, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--width", default=800.0, show_default=True, type=float)
@click.option("--height", default=600.0, show_default=True, type=float)
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
        click.echo(serialize_frame(frame))


def main(argv: list[str] | None = None) -> int:
    setup_logging()
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
