"""The benchmark's own tests: counter identities, trace determinism, checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import same_output, verify_patterns  # noqa: E402
from run import DERIVED_UNITS, E2E_UNITS  # noqa: E402
from spans import COUNT_METRICS, LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, make_dataset  # noqa: E402

from patmine import (  # noqa: E402
    MiningConfig,
    Strategy,
    induced_subgraph,
    is_connected,
    mine,
)
from patmine.dataio import SynthParams, write_graphs, write_patterns  # noqa: E402
from patmine.demo import demo_dataset  # noqa: E402

SMALL = Workload(
    "small", SynthParams(24, (8, 11), 11, 3, 0.5, 7), 3, 1, 4, "decomposed"
)

CASES = {
    "demo": (demo_dataset(), MiningConfig(1, 0)),
    "small-dec": (make_dataset(SMALL, 0), MiningConfig(3, 1, max_pattern_size=4)),
    "small-mono": (
        make_dataset(SMALL, 0),
        MiningConfig(3, 1, max_pattern_size=4, strategy=Strategy.MONOLITHIC),
    ),
}


def traced_mine(dataset, config):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("mine"):
            results = mine(dataset, config)
    finally:
        tracer.uninstall()
    return results, tracer.to_json()


def connected_subsets(template, k: int) -> int:
    return sum(
        1
        for subset in itertools.combinations(range(template.n), k)
        if is_connected(induced_subgraph(template, subset))
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_counter_identities(case):
    dataset, config = CASES[case]
    results, trace = traced_mine(dataset, config)
    m = layer_metrics(trace)
    assert trace["absent"] == []
    assert trace["levels"]
    for level, row in trace["levels"].items():
        assert connected_subsets(dataset.template, int(level)) == (
            row["candidates"] + row["blocked"]
        ), level
    assert m["miner.evaluated"] == (
        m["miner.accepted"] + m["miner.rejected_pos"] + m["miner.rejected_neg"]
    )
    assert m["miner.accepted"] == len(results) > 0
    assert m["morphism.find_hits"] <= m["morphism.find_calls"]
    assert m["miner.candidates"] == m["miner.evaluated"]


def test_small_instance_rejects_on_both_thresholds():
    # Keeps the identity above from holding trivially.
    _, trace = traced_mine(*CASES["small-dec"])
    m = layer_metrics(trace)
    assert m["miner.rejected_pos"] > 0 and m["miner.rejected_neg"] > 0
    assert m["miner.blocked"] > 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_runs_repeat_counts_and_match_untraced(case):
    dataset, config = CASES[case]
    first, t1 = traced_mine(dataset, config)
    second, t2 = traced_mine(dataset, config)
    m1, m2 = layer_metrics(t1), layer_metrics(t2)
    assert {k: m1[k] for k in COUNT_METRICS} == {k: m2[k] for k in COUNT_METRICS}
    assert t1["levels"] == t2["levels"]
    plain = mine(dataset, config)
    assert [r.subset for r in first] == [r.subset for r in second]
    assert [r.subset for r in first] == [r.subset for r in plain]


def test_uninstall_restores_the_program():
    import patmine.miner
    import patmine.morphism

    before = (patmine.miner.coverage, patmine.morphism.find_homomorphism)
    tracer = Tracer()
    tracer.install()
    assert patmine.miner.coverage is not before[0]
    tracer.uninstall()
    assert (patmine.miner.coverage, patmine.morphism.find_homomorphism) == before


def test_missing_name_is_reported_absent(monkeypatch):
    import patmine.miner

    monkeypatch.delattr(patmine.miner, "template_occurrences")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["patmine.miner.template_occurrences"]


def test_seed_renumbers_examples_but_keeps_the_patterns():
    def graph_file(seed):
        return write_graphs(make_dataset(SMALL, seed))

    assert graph_file(3) == graph_file(3)
    assert graph_file(3) != graph_file(4)
    config = CASES["small-dec"][1]
    subsets = {
        seed: [r.subset for r in mine(make_dataset(SMALL, seed), config)]
        for seed in (0, 1, 2)
    }
    assert subsets[0] == subsets[1] == subsets[2]


def _small_output():
    dataset, config = CASES["small-dec"]
    results = mine(dataset, config)
    return dataset, write_patterns(results), [r.subset for r in results]


def test_verify_accepts_the_mined_output():
    dataset, text, subsets = _small_output()
    assert verify_patterns(text, dataset, subsets) == []
    assert same_output(text.replace("time_ms=", "time_ms=9"), text)


def test_verify_rejects_broken_outputs():
    dataset, text, subsets = _small_output()
    lines = text.splitlines(keepends=True)
    first_edge = next(i for i, line in enumerate(lines) if line.startswith("e "))
    dropped = "".join(lines[:first_edge] + lines[first_edge + 1 :])
    assert any("induced" in p for p in verify_patterns(dropped, dataset, subsets))
    assert verify_patterns(text, dataset, subsets[1:] + subsets[:1])
    block = text.split("\n\n")[0] + "\n\n"
    doubled = text + block.replace("p # 1 ", f"p # {len(subsets) + 1} ")
    assert any("isomorphic" in p for p in verify_patterns(doubled, dataset, subsets))
    assert not same_output(dropped, text)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **LAYER_UNITS,
        **DERIVED_UNITS,
    }


def test_reference_workload_is_unchanged():
    proc = subprocess.run(
        [sys.executable, str(HERE / "reference.py")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert json.loads(proc.stdout)["total"] == 83


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed-neg", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
