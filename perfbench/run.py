"""patmine benchmark: cold-process mining runs, each output checked.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Every timed sample is a fresh Python process (``sample.py``) that imports
patmine, loads the workload's graph file, mines it serially with the
library defaults and writes the pattern file. Samples run one at a time
until ``--seconds`` have passed (at least MIN_SAMPLES). Each has a timeout
and counts as failed on timeout, a non-zero exit or a wrong output. The
first output of each strategy is checked from scratch (``checks.py``);
every later one must equal it up to its timing fields.

Samples alternate with runs of ``reference.py``, a fixed pure-Python
workload, each in a fresh process. Other tenants of a shared machine slow
every process down in phases of 10-60 s, by up to 1.9x: identical samples
here ranged over 1.02-2.07 s. Each sample's times are therefore scaled by
NOMINAL_S / (mean of the reference times just before and after it), which
reads as seconds at the machine's uncontended speed. Medians are then
taken over the samples. The unscaled figures are printed too.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced samples with traced ones, whose layer wrappers (``spans.py``)
give the per-layer metrics; the mine_s difference between the two is the
tracing overhead. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from reference import NOMINAL_S  # noqa: E402

SAMPLE_TIMEOUT_S = 30.0
MIN_SAMPLES = 3

E2E_UNITS = {
    "mine_s": "s",
    "setup_s": "s",
    "pattern_ms_p50": "ms",
    "pattern_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
DERIVED_UNITS = {"miner.mono_over_dec": "ratio", "trace_overhead_frac": "ratio"}


class Run:
    """Samples of one workload at one seed, sharing one input file."""

    def __init__(self, workload, seed: int, workdir: Path):
        from patmine.dataio import write_graphs
        from workloads import make_dataset, pinned_subsets

        self.workload = workload
        self.workdir = workdir
        self.dataset = make_dataset(workload, seed)
        self.graphs = workdir / "input.graphs"
        self.graphs.write_text(write_graphs(self.dataset), encoding="utf-8")
        self.pinned = pinned_subsets(workload)
        self.checked: dict[str, str] = {}  # strategy -> its checked output
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._ref_s: float | None = None  # the latest reference time

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)

    def sample(self, strategy: str | None = None, trace: bool = False) -> dict | None:
        """Run one sample; its measurements, or None if it failed."""
        from checks import same_output, verify_patterns

        w = self.workload
        strategy = strategy or w.strategy
        k = self.attempted
        self.attempted += 1
        out = self.workdir / f"sample-{k}.patterns"
        spans = self.workdir / f"{w.name}-{k}.spans.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if self._ref_s is None:
            self._ref_s = reference_seconds()
        ref_before = self._ref_s
        t_spawn = time.perf_counter()
        cmd = [
            sys.executable, str(HERE / "sample.py"), str(self.graphs), str(out),
            str(w.n_pos), str(w.n_neg), str(w.max_size), strategy, repr(t_spawn),
        ] + ([str(spans)] if trace else [])
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                timeout=SAMPLE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self._ref_s = None
            self._fail(f"sample {k} ({strategy}): timeout after {SAMPLE_TIMEOUT_S} s")
            return None
        self._ref_s = reference_seconds()
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or [""])[-1]
            self._fail(f"sample {k} ({strategy}): exit {proc.returncode}: {tail}")
            return None
        text = out.read_text(encoding="utf-8")
        out.unlink()
        checked = self.checked.get(strategy)
        if checked is None:
            problems = verify_patterns(text, self.dataset, self.pinned)
            if problems:
                self._fail(f"sample {k} ({strategy}): {problems[0]}")
                self.problems.extend(problems[1:])
                return None
            self.checked[strategy] = text
        elif not same_output(text, checked):
            self._fail(f"sample {k} ({strategy}): output differs from the first")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["scale"] = 2 * NOMINAL_S / (ref_before + self._ref_s)
        if trace:
            result["trace"] = json.loads(spans.read_text(encoding="utf-8"))
            spans.unlink()
        return result

    def repeat(self, seconds: float, kinds: list[tuple[str | None, bool]]) -> list[list[dict]]:
        """Take samples of each (strategy, trace) kind in turn until
        ``seconds`` pass and each kind has MIN_SAMPLES (or the run has
        MIN_SAMPLES failures). Returns the good samples per kind."""
        deadline = time.perf_counter() + seconds
        good: list[list[dict]] = [[] for _ in kinds]
        while time.perf_counter() < deadline or (
            min(map(len, good)) < MIN_SAMPLES and self.failed < MIN_SAMPLES
        ):
            for kind, samples in zip(kinds, good):
                result = self.sample(*kind)
                if result is not None:
                    samples.append(result)
        return good


def reference_seconds() -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "reference.py")],
        capture_output=True, text=True, check=True, timeout=SAMPLE_TIMEOUT_S,
    )
    return json.loads(proc.stdout)["ref_s"]


def _scaled(samples: list[dict], key: str) -> float:
    """Median over the samples of ``key`` at the machine's nominal speed."""
    return statistics.median(s[key] * s["scale"] for s in samples)


def end_to_end(run: Run, seconds: float) -> dict:
    w = run.workload
    extra = {}
    if w.compare:
        # Checks the other strategy's output against the same pinned list.
        other = run.sample(w.compare)
        if other is not None:
            extra[f"_{w.compare}_mine_s"] = other["mine_s"]
    (samples,) = run.repeat(seconds, [(None, False)])
    if not samples:
        return {}
    per_pattern = [
        statistics.median(col)
        for col in zip(*([ms * s["scale"] for ms in s["elapsed_ms"]] for s in samples))
    ]
    return {
        "mine_s": _scaled(samples, "mine_s"),
        "setup_s": _scaled(samples, "setup_s"),
        "pattern_ms_p50": statistics.median(per_pattern),
        "pattern_ms_p90": statistics.quantiles(per_pattern, n=10)[8],
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "_samples": len(samples),
        "_patterns": len(per_pattern),
        "_unscaled_mine_s_median": statistics.median(s["mine_s"] for s in samples),
        "_unscaled_mine_s_range": (
            min(s["mine_s"] for s in samples), max(s["mine_s"] for s in samples)
        ),
        "_slowdown_median": statistics.median(1 / s["scale"] for s in samples),
        **extra,
    }


# Self-time metrics of each layer inside mine(), for the printed shares.
LAYER_GROUPS = {
    "enumeration": ("miner.enumerate_s",),
    "construction": ("graphs.induced_s",),
    "dispatch": ("miner.evaluate_s",),
    "coverage": ("morphism.coverage_s", "morphism.find_s"),
    "witness": ("morphism.witness_s",),
    "canonicity": ("miner.occurrences_s", "morphism.iso_s"),
    "mine": ("mine.self_s",),
}


def _shares(layer_times: dict) -> dict[str, str]:
    times = {g: sum(layer_times[k] for k in keys) for g, keys in LAYER_GROUPS.items()}
    total = sum(times.values()) or 1.0
    return {g: f"{100 * t / total:.1f}%" for g, t in times.items()}


def per_layer(run: Run, seconds: float) -> dict:
    from spans import COUNT_METRICS, layer_metrics

    w = run.workload
    kinds = [(w.strategy, False), (w.strategy, True)]
    if w.compare:
        kinds.append((w.compare, False))
    plain, traced, *other = run.repeat(seconds, kinds)
    if not traced or not plain or not all(other):
        return {}
    layers = [layer_metrics(r["trace"]) for r in traced]
    counts = [{k: m[k] for k in COUNT_METRICS} for m in layers]
    c = counts[0]
    checks = {
        "counts differ between traced runs of one input":
            any(x != c for x in counts),
        "evaluated != accepted + rejected_pos + rejected_neg":
            c["miner.evaluated"]
            != c["miner.accepted"] + c["miner.rejected_pos"] + c["miner.rejected_neg"],
        "accepted != patterns emitted":
            c["miner.accepted"] != len(traced[0]["elapsed_ms"]),
        "find_hits > find_calls": c["morphism.find_hits"] > c["morphism.find_calls"],
    }
    run.problems.extend(why for why, broken in checks.items() if broken)
    out = {
        k: statistics.median(m[k] * r["scale"] for m, r in zip(layers, traced))
        for k in layers[0]
    }
    out.update(c)
    out["trace_overhead_frac"] = _scaled(traced, "mine_s") / _scaled(plain, "mine_s") - 1
    out["miner.mono_over_dec"] = 0.0
    if w.compare:
        by_strategy = {w.strategy: plain, w.compare: other[0]}
        out["miner.mono_over_dec"] = _scaled(
            by_strategy["monolithic"], "mine_s"
        ) / _scaled(by_strategy["decomposed"], "mine_s")
    out["_samples"] = len(traced)
    out["_self_time_share"] = _shares(out)
    out["_levels"] = traced[0]["trace"]["levels"]
    out["_absent"] = traced[0]["trace"]["absent"]
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    from spans import LAYER_UNITS
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        run = Run(workload, seed, workdir)
        values = (per_layer if trace else end_to_end)(run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    units = {**LAYER_UNITS, **DERIVED_UNITS} if trace else E2E_UNITS
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    correct = not run.problems and len(metrics) == len(units)
    attempted, failed = run.attempted, run.failed

    print(f"{name} seed={seed} trace={trace} strategy={workload.strategy}: "
          f"{attempted} sample(s) attempted, {failed} failed, "
          f"fail_frac {failed / attempted:.4f}")
    for k, v in values.items():
        if k.startswith("_"):
            print(f"{name} {k[1:]} {v}")
    for k, m in metrics.items():
        print(f"{name} {k} {m['value']:.6g} {m['unit']}")
    for p in run.problems:
        print(f"{name} PROBLEM {p}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "patmine" / "__init__.py").is_file():
        print(f"error: no patmine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
