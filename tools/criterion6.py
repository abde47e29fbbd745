"""Criterion-6 ratio over fresh processes, alternating two checkouts.

    python3 tools/criterion6.py [--runs N] CHECKOUT [CHECKOUT]

Each run is a fresh Python process that puts a checkout's ``src`` and
``tests`` first on ``sys.path``, imports that checkout's
``tests/test_acceptance.py`` and calls
``test_criterion_6_performance_trend``. The ratio the test prints
(monolithic over decomposed median per-pattern time) is collected, also
from a run whose ratio is below the test's floor; a run that fails before
it prints a ratio stops the tool. With two checkouts, the runs go in
pairs and the side that runs first alternates from pair to pair. Each
checkout's min, median and max over its N runs are printed, then one JSON
line with every ratio.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import contextlib, io, re, sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/tests"]
import test_acceptance
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        test_acceptance.test_criterion_6_performance_trend()
    except AssertionError:
        if "ratio" not in out.getvalue():
            raise  # failed before measuring: no ratio to report
print(re.search(r"ratio ([0-9.]+)x", out.getvalue()).group(1))
"""

TIMEOUT_S = 600.0


def one_run(checkout: Path) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout)],
        capture_output=True, text=True, check=True, timeout=TIMEOUT_S,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--runs", type=int, default=25)
    args = parser.parse_args(argv)
    if not 1 <= len(args.checkouts) <= 2:
        parser.error("give one or two checkouts")
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    checkouts = [c.resolve() for c in args.checkouts]
    ratios: dict[str, list[float]] = {str(c): [] for c in checkouts}
    for i in range(args.runs):
        for c in checkouts if i % 2 == 0 else checkouts[::-1]:
            ratio = one_run(c)
            ratios[str(c)].append(ratio)
            print(f"run {i + 1} {c}: {ratio:.2f}x", flush=True)
    for c, rs in ratios.items():
        print(f"{c}: min {min(rs):.2f}x, median {statistics.median(rs):.2f}x, "
              f"max {max(rs):.2f}x over {len(rs)} runs")
    print(json.dumps(ratios))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
