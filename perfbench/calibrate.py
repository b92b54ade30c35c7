"""Host-speed probe: time a fixed pure-Python workload and print seconds.

Usage:
    python3 perfbench/calibrate.py

The benchmark's host is a shared virtual machine whose CPU speed changes by
up to 1.7x over stretches of tens of seconds, with CPU time tracking wall
time, so neither a longer run nor CPU time removes the change. ``run.py``
runs this probe on the monitor's CPU between replay sessions and scales
each session's times to a fixed reference speed (see README.md).

The workload imitates the monitor's mix of work: JSON parsing and
serialization, small objects, attribute access, min/max arithmetic over
pairs, and dict building. It imports nothing from ``percemon``, so it
measures the host, never the program under test.
"""

from __future__ import annotations

import json
import statistics
import time

REPEATS = 5
UNITS_PER_REPEAT = 50

DOC = json.dumps({
    "frame": 1,
    "objects": [{"id": i, "class": "car", "prob": 0.5 + i / 100,
                 "bbox": [i, 2 * i, i + 10, 2 * i + 5]} for i in range(4)],
})


class Box:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


def unit() -> float:
    acc = 0.0
    for _ in range(20):
        record = json.loads(DOC)
        boxes = [Box(o["bbox"][0], o["bbox"][3]) for o in record["objects"]]
        for a in boxes:
            for b in boxes:
                acc += max(a.x, b.x) - min(a.y, b.y)
        header = {k: v for k, v in record.items() if k != "objects"}
        acc += len(json.dumps(header))
    return acc


def main() -> None:
    unit()   # warm-up
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(UNITS_PER_REPEAT):
            unit()
        times.append(time.perf_counter() - started)
    print(repr(statistics.median(times)))


if __name__ == "__main__":
    main()
