"""Untraced CLI phases: ``percemon monitor`` run as a black-box child process.

* Replay is a closed loop: the monitor reads a JSONL file as fast as it can.
* Live is an open loop: frames are written to the monitor's stdin on a fixed
  schedule from one single-threaded ``select`` loop, whether or not the
  monitor keeps up, so a stall delays every later verdict.

Each session reports the verdict lines it received with their arrival times,
the child's exit code and its peak RSS.

Peak RSS is ``VmHWM`` from ``/proc/<pid>/status``, sampled while verdicts
arrive. ``ru_maxrss`` from ``wait4`` would be wrong here: a forked child
inherits its parent's high-water mark and keeps it across ``exec``, so it
reports at least the size of this process.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from workloads import BENCH_DIR, REPO


@dataclass
class Session:
    sent: int                          # frames offered to the monitor
    lines: list[bytes] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    spawned: float = 0.0
    returncode: int | None = None
    peak_rss_mb: float = 0.0
    rss_sampled: float = 0.0
    # Live phase only.
    due: list[float] = field(default_factory=list)
    gen_lag_s: list[float] = field(default_factory=list)
    backlog_max: int = 0


RSS_SAMPLE_S = 0.05


def _vm_hwm_mb(pid: int) -> float | None:
    try:
        with open(f"/proc/{pid}/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None   # exited, or no /proc


class _LineReader:
    """Splits a pipe into lines, stamping each with the read that completed it.

    Once the monitor has printed a verdict it has certainly exec'd, so its
    own high-water mark is sampled from then on, at most every RSS_SAMPLE_S
    and whenever the last expected verdict arrives.
    """

    def __init__(self, proc: subprocess.Popen, session: Session):
        self.pid = proc.pid
        self.fd = proc.stdout.fileno()
        self.session = session
        self.partial = b""
        self.eof = False

    def read(self) -> None:
        chunk = os.read(self.fd, 1 << 16)
        now = time.perf_counter()
        if not chunk:
            self.eof = True
            return
        parts = (self.partial + chunk).split(b"\n")
        self.partial = parts.pop()
        session = self.session
        session.lines.extend(parts)
        session.times.extend([now] * len(parts))
        if session.lines and (now - session.rss_sampled >= RSS_SAMPLE_S
                              or len(session.lines) >= session.sent):
            session.rss_sampled = now
            hwm = _vm_hwm_mb(self.pid)
            if hwm is not None:
                session.peak_rss_mb = max(session.peak_rss_mb, hwm)


def separate_cpus() -> set[int] | None:
    """Keep this process on one CPU and return the others, for the monitor.

    The load generator and the monitor then never wait for each other's time
    slice, so neither the schedule nor the timestamps carry the other's work.
    Returns None, and pins nothing, when only one CPU is available.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return set(cpus[1:])


def child_env() -> dict:
    """Environment for child processes: the package is imported from ``src``."""
    return dict(os.environ, PYTHONPATH=str(REPO / "src"))


def _spawn(cli_args: list[str], stdin, stderr_path: Path, cpus: set[int] | None) -> subprocess.Popen:
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "percemon.cli", *cli_args],
                                stdin=stdin, stdout=subprocess.PIPE, stderr=err,
                                cwd=REPO, env=child_env())
    if cpus is not None:
        os.sched_setaffinity(proc.pid, cpus)
    return proc


def calibrate(cpus: set[int] | None, timeout: float) -> float:
    """Seconds the host-speed probe takes now on ``cpus`` (see calibrate.py)."""
    cmd = [sys.executable, str(BENCH_DIR / "calibrate.py")]
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=REPO)
    if cpus is not None:
        os.sched_setaffinity(proc.pid, cpus)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd, out, err)
    return float(out)


def _reap(proc: subprocess.Popen, session: Session, kill: bool) -> None:
    """Wait for the child, killing it first if asked, and record its exit code."""
    if kill:
        proc.kill()
    if proc.stdin is not None and not proc.stdin.closed:
        proc.stdin.close()
    session.returncode = proc.wait()
    proc.stdout.close()


def replay(cli_args: list[str], input_path: Path, frames: int, stderr_path: Path,
           timeout: float, cpus: set[int] | None) -> Session:
    """Closed loop: the monitor reads the whole file; collect its verdicts."""
    session = Session(sent=frames)
    session.spawned = time.perf_counter()
    proc = _spawn([*cli_args, "--input", str(input_path)], subprocess.DEVNULL, stderr_path, cpus)
    reader = _LineReader(proc, session)
    deadline = session.spawned + timeout
    try:
        while not reader.eof:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([reader.fd], [], [], left)[0]:
                break
            reader.read()
    finally:
        _reap(proc, session, kill=not reader.eof)
    return session


def live(cli_args: list[str], lines: list[bytes], horizon: int, rate: float,
         stderr_path: Path, timeout: float, cpus: set[int] | None) -> Session:
    """Open loop: write ``lines`` to stdin at ``rate`` frames/s.

    The first ``horizon + 1`` frames are written at once and the schedule
    starts when their verdict arrives, so interpreter start-up is not
    counted as latency. After that, frame ``j`` is due at
    ``start + (j - horizon - 1) / rate`` whatever the monitor is doing.
    """
    count = len(lines)
    warm = min(count, horizon + 1)
    session = Session(sent=count, due=[0.0] * count)
    session.spawned = time.perf_counter()
    proc = _spawn([*cli_args, "--input", "-"], subprocess.PIPE, stderr_path, cpus)
    out_fd = proc.stdin.fileno()
    os.set_blocking(out_fd, False)
    reader = _LineReader(proc, session)

    try:
        pending = bytearray()
        queued = 0                               # bytes handed to ``pending`` so far
        written = 0                              # bytes the pipe has accepted
        ends: deque[tuple[int, int]] = deque()   # (frame, end offset) not yet written
        frames_written = 0
        start = None
        deadline = session.spawned + timeout

        def schedule(frame: int) -> None:
            nonlocal queued
            pending.extend(lines[frame])
            queued += len(lines[frame])
            ends.append((frame, queued))

        for frame in range(warm):
            schedule(frame)
        next_frame = warm
        while not reader.eof and time.perf_counter() < deadline:
            if start is None and session.lines:
                start = time.perf_counter()
            if start is not None:
                now = time.perf_counter()
                while next_frame < count and start + (next_frame - warm) / rate <= now:
                    session.due[next_frame] = start + (next_frame - warm) / rate
                    schedule(next_frame)
                    next_frame += 1
            if pending:
                try:
                    accepted = os.write(out_fd, pending)
                except BlockingIOError:
                    accepted = 0
                except BrokenPipeError:
                    # The monitor exited early; its missing verdicts count as failures.
                    pending.clear()
                    ends.clear()
                    next_frame = count
                    accepted = 0
                del pending[:accepted]
                written += accepted
                now = time.perf_counter()
                while ends and ends[0][1] <= written:
                    frame, _ = ends.popleft()
                    frames_written = frame + 1
                    if frame >= warm:
                        session.gen_lag_s.append(now - session.due[frame])
            if next_frame == count and not pending and not proc.stdin.closed:
                proc.stdin.close()
            session.backlog_max = max(session.backlog_max,
                                      frames_written - len(session.lines) - horizon)
            if start is not None and next_frame < count:
                wait = start + (next_frame - warm) / rate - time.perf_counter()
            else:
                wait = deadline - time.perf_counter()
            writers = [out_fd] if pending else []
            if select.select([reader.fd], writers, [], max(0.0, wait))[0]:
                reader.read()
    finally:
        _reap(proc, session, kill=not reader.eof)
    return session
