"""Online monitoring over a bounded FIFO frame window.

A monitor is initialized with a specification, desugars it, checks
bindings and derives its history/horizon requirement. Frames are pushed
one at a time; the verdict for frame i is emitted as soon as frame
i + horizon has arrived (so output lags input by exactly the horizon), and
``flush`` completes the sequence at end of stream using the same
truncated-trace semantics as the offline evaluator. The window never holds
more than history + horizon + 1 frames.

Configured bounds act as lower bounds on the window: the effective history
and horizon are the maximum of the inferred requirement and the override.
A specification whose requirement is unbounded needs an explicit override.

The monitor takes frames in the order the caller pushes them and does not
check it; ``trace.read_stream`` checks frame order where frames are read.
The buffer is the window of the verdict under evaluation, which reads it
in place without a copy. A ``Verdict`` is a plain value built like the
trace records (``trace.plain_value``); ``Verdict.to_json_line`` is the
line the CLI prints for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import ConfigError, ContractViolation
from .evaluate import EvalContext, EvalStats, evaluate, trim_summaries
from .stql import ast as A
from .stql.bindings import require_bindings
from .stql.bounds import FrameBounds, compute_bounds
from .stql.desugar import desugar
from .trace import Frame, plain_value


@dataclass(frozen=True)
class MonitorConfig:
    """Window overrides; each acts as a lower bound on its side of the window."""

    max_history: int | None = None
    max_horizon: int | None = None


@plain_value
class Verdict:
    """Per-frame monitoring output, a plain value like the trace records."""

    frame_number: int
    timestamp: float
    value: bool
    eval_time_ns: int

    def to_json_obj(self) -> dict:
        return {
            "frame": self.frame_number,
            "timestamp": self.timestamp,
            "verdict": self.value,
            "eval_time_ns": self.eval_time_ns,
        }

    def to_json_line(self) -> str:
        """The verdict as one JSONL line, newline included.

        Formatted directly, with the bytes of ``json.dumps(self.to_json_obj(),
        separators=(",", ":"))``: an int and a finite float (ingest checks
        timestamps) print as their repr in JSON too.
        """
        return (
            f'{{"frame":{self.frame_number!r},"timestamp":{self.timestamp!r},'
            f'"verdict":{"true" if self.value else "false"},'
            f'"eval_time_ns":{self.eval_time_ns!r}}}\n'
        )


def _effective_bound(inferred: int | None, override: int | None, side: str) -> int:
    if override is not None and override < 0:
        raise ConfigError(f"max_{side} must not be negative, got {override}")
    if inferred is None and override is None:
        raise ConfigError(
            f"specification needs an unbounded {side}; supply max_{side} to truncate the window"
        )
    if inferred is None:
        return override
    if override is None:
        return inferred
    return max(inferred, override)


class Monitor:
    """Single-owner online monitor; push frames sequentially, then flush.

    Frames are taken in the order given; frame numbers and timestamps are
    not checked here (``read_stream`` does that for frames read from JSONL).
    """

    def __init__(self, formula: A.Formula, config: MonitorConfig | None = None):
        config = config or MonitorConfig()
        require_bindings(formula)
        self.formula = desugar(formula)
        self.inferred_bounds: FrameBounds = compute_bounds(self.formula)
        self.history = _effective_bound(self.inferred_bounds.history, config.max_history, "history")
        self.horizon = _effective_bound(self.inferred_bounds.horizon, config.max_horizon, "horizon")
        self.capacity = self.history + self.horizon + 1
        self.stats = EvalStats()
        # Per-node, per-id temporal summaries, carried from verdict to
        # verdict and trimmed as the window start moves (see ``evaluate``).
        self._summaries: dict = {}
        self._buffer: list[Frame] = []
        self._base = 0          # stream index of the oldest buffered frame
        self._pushed = 0        # total frames pushed
        self._next = 0          # next verdict index to emit
        self._flushed = False

    def _evict(self, start: int) -> None:
        """Drop the buffered frames before stream index ``start`` and trim the
        summaries to it; a window that never moves is never trimmed."""
        if start > self._base:
            del self._buffer[: start - self._base]
            self._base = start
            trim_summaries(self._summaries, start)

    def _emit(self, index: int) -> Verdict:
        # The verdict window is exactly [index - history, index + horizon],
        # clamped to the stream, and the buffer already ends where it does.
        # During pushes eviction already keeps the buffer's start there;
        # during flush the buffer still holds older frames, so evict them.
        # Verdicts are emitted in index order and the base only grows, so
        # window starts never move backwards, flush included: that is what
        # lets the summaries reuse entries computed for earlier windows.
        self._evict(index - self.history)
        start, window = self._base, self._buffer
        rel = index - start
        started = time.perf_counter_ns()
        ctx = EvalContext(window, rel, self.stats, offset=start, summaries=self._summaries)
        value = evaluate(self.formula, ctx)
        elapsed = time.perf_counter_ns() - started
        frame = window[rel]
        return Verdict(frame.frame_number, frame.timestamp, bool(value), elapsed)

    def push_frame(self, frame: Frame) -> list[Verdict]:
        """Append one frame; return the verdicts it makes decidable."""
        if self._flushed:
            raise ContractViolation("monitor already flushed")
        self._buffer.append(frame)
        self._pushed += 1
        newest = self._pushed - 1

        out: list[Verdict] = []
        while self._next + self.horizon <= newest:
            out.append(self._emit(self._next))
            self._next += 1
            self._evict(self._next - self.history)
        if len(self._buffer) > self.capacity:
            raise ContractViolation(
                f"window holds {len(self._buffer)} frames, capacity is {self.capacity}"
            )
        return out

    def flush(self) -> list[Verdict]:
        """Emit the verdicts still pending at end of stream."""
        if self._flushed:
            return []
        out = [self._emit(index) for index in range(self._next, self._pushed)]
        self._next = self._pushed
        self._flushed = True
        return out

    @property
    def buffered(self) -> int:
        return len(self._buffer)


def run_monitor(formula: A.Formula, frames, config: MonitorConfig | None = None) -> list[Verdict]:
    """Push a whole finite trace through a fresh monitor and flush."""
    monitor = Monitor(formula, config)
    out: list[Verdict] = []
    for frame in frames:
        out.extend(monitor.push_frame(frame))
    out.extend(monitor.flush())
    return out
