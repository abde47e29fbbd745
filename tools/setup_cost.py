"""Setup cost of a mining run over fresh processes, alternating checkouts.

    python3 tools/setup_cost.py [--runs N] GRAPHS CHECKOUT [CHECKOUT]

Each run is a fresh Python process that puts a checkout's ``src`` first on
``sys.path`` and times ``from patmine import dataio, miner`` (import), then
that plus reading GRAPHS, ``parse_graphs`` and ``build_dataset`` (load).
Both are in milliseconds from just before the import. Interpreter start is
not included. With ``PYTHONDONTWRITEBYTECODE`` set and no bytecode cache,
every run compiles each module it imports, and that compile time is part of
both figures. With two checkouts, the runs go in pairs and the side that
runs first alternates from pair to pair. Each checkout's min, median and
max over its N runs are printed, then the number of pairs in which the
second checkout's load was lower, then one JSON line with every figure, one
object per checkout in the order given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1] + "/src")
from patmine import dataio, miner
t1 = time.perf_counter()
with open(sys.argv[2], encoding="utf-8") as f:
    dataio.build_dataset(dataio.parse_graphs(f.read()), 0, 0)
t2 = time.perf_counter()
print((t1 - t0) * 1e3, (t2 - t0) * 1e3)
"""

TIMEOUT_S = 60.0


def one_run(checkout: Path, graphs: Path) -> tuple[float, float]:
    """(import ms, load ms) of one fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout), str(graphs)],
        capture_output=True, text=True, check=True, timeout=TIMEOUT_S,
    )
    import_ms, load_ms = proc.stdout.split()
    return float(import_ms), float(load_ms)


def summary(values: list[float]) -> str:
    return (f"min {min(values):.1f}, median {statistics.median(values):.1f}, "
            f"max {max(values):.1f} ms")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("graphs", type=Path)
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--runs", type=int, default=40)
    args = parser.parse_args(argv)
    if not 1 <= len(args.checkouts) <= 2:
        parser.error("give one or two checkouts")
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if not args.graphs.is_file():
        parser.error(f"graphs file {args.graphs} is not a file")
    sides = [
        {"checkout": str(c.resolve()), "import_ms": [], "load_ms": []}
        for c in args.checkouts
    ]
    for i in range(args.runs):
        for side in sides if i % 2 == 0 else sides[::-1]:
            import_ms, load_ms = one_run(Path(side["checkout"]), args.graphs)
            side["import_ms"].append(import_ms)
            side["load_ms"].append(load_ms)
            print(f"run {i + 1} {side['checkout']}: import {import_ms:.1f} ms, "
                  f"load {load_ms:.1f} ms", flush=True)
    for side in sides:
        print(f"{side['checkout']}: import {summary(side['import_ms'])}; "
              f"load {summary(side['load_ms'])} over {args.runs} runs")
    if len(sides) == 2:
        first, second = (side["load_ms"] for side in sides)
        lower = sum(b < a for a, b in zip(first, second))
        print(f"second checkout's load lower in {lower} of {args.runs} pairs")
    print(json.dumps(sides))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
