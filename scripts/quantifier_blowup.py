#!/usr/bin/env python3
"""Quantifier blow-up experiment.

Monitors the two built-in checks over synthetic streams with a growing
number of objects and reports per-verdict evaluation time, then verifies
the n^k assignment counts of the quantifier probes. Timings are hardware
specific; the point is the growth trend.

Usage:
    python scripts/quantifier_blowup.py [--frames 300] [--seed 2026] \
        [--objects 1,2,3,4,5,6,7,8,9,10]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from percemon.bench import render_tsv, run_bench  # noqa: E402
from percemon.cli import _counts  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=300)
    parser.add_argument("--seed", type=int, default=2026)
    # The object counts of ``percemon bench --objects``, checked the same way.
    parser.add_argument("--objects", type=_counts, default="1,2,3,4,5,6,7,8,9,10")
    args = parser.parse_args()

    for spec in ("builtin:phi1", "builtin:phi2"):
        print(f"# {spec}")
        print(render_tsv(run_bench(spec, args.objects, frames=args.frames, seed=args.seed)))
        print()

    print("# quantifier probes (assignments per frame should be n^k)")
    for k in (1, 2, 3):
        reports = run_bench(f"probe:exists{k}", args.objects, frames=args.frames,
                            seed=args.seed, count_assignments=True)
        print(render_tsv(reports))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
