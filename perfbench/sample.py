"""One timed sample: a fresh process that loads, mines and writes patterns.

    python3 perfbench/sample.py GRAPHS OUT NPOS NNEG MAX_SIZE STRATEGY SPAWN [SPANS]

SPAWN is the parent's ``time.perf_counter()`` just before it started this
process (CLOCK_MONOTONIC, shared by all processes), so setup covers
interpreter start, import, parse and build. With SPANS the layer wrappers
of ``spans.py`` are installed and the trace is written there at the end.
Prints one JSON line: setup_s, mine_s, elapsed_ms per pattern, peak_rss_mb.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from patmine import dataio, miner


def main(argv: list[str]) -> None:
    graphs, out, npos, nneg, max_size, strategy, spawn = argv[:7]
    spans_path = argv[7] if len(argv) > 7 else None
    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer(run_id=Path(spans_path).stem)
        tracer.install()

    def span(name: str):
        return tracer.span(name) if tracer else nullcontext()

    with span("dataio.load"):
        blocks = dataio.parse_graphs(Path(graphs).read_text(encoding="utf-8"))
        dataset = dataio.build_dataset(blocks, int(npos), int(nneg))
    t_built = time.perf_counter()

    config = miner.MiningConfig(
        n_pos_threshold=int(npos),
        n_neg_threshold=int(nneg),
        max_pattern_size=int(max_size),
        strategy=miner.Strategy(strategy),
    )
    with span("mine"):
        results = miner.mine(dataset, config)
    with span("dataio.write"):
        Path(out).write_text(dataio.write_patterns(results), encoding="utf-8")
    t_done = time.perf_counter()

    if tracer:
        tracer.dump(Path(spans_path))
    print(
        json.dumps(
            {
                "setup_s": t_built - float(spawn),
                "mine_s": t_done - t_built,
                "elapsed_ms": [r.elapsed_ms for r in results],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1:])
