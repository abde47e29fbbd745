"""The benchmark's workloads and the seeded inputs it makes for them.

Each workload fixes one synthetic instance (``gen_synthetic`` at structure
seed 0) plus the thresholds and size limit a mining run uses. The run's
``--seed`` draws an isomorphic copy of that instance: every example graph
gets a seeded vertex numbering and the label alphabet is renamed
consistently. The template keeps its vertex ids, so the mined subset list
is the same at every seed and is pinned in ``pinned.json``.

Why the structure is fixed: mining cost depends on the template's shape.
Across structure seeds 0-5, one decomposed run took 0.81-2.17 s on the
yoshida preset and 0.53-2.07 s on canon-dense, which would swamp any
regression bound. Renumbering example vertices changes the order in which
the coverage search meets targets, and the input bytes, but not the
number of candidates, the verdicts or the isomorphism classes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from patmine import Dataset, Example, LabeledGraph, build_graph
from patmine.dataio import SynthParams, gen_synthetic

PINNED = Path(__file__).resolve().parent / "pinned.json"


@dataclass(frozen=True)
class Workload:
    name: str
    params: SynthParams
    n_pos: int
    n_neg: int
    max_size: int
    strategy: str
    # The other strategy, run on the same file to check that both give the
    # same patterns and for the monolithic/decomposed ratio.
    compare: str | None = None


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "yoshida-dec", SynthParams(265, (15, 25), 23, 9, 1.0, 0),
            14, 0, 6, "decomposed",
        ),
        Workload(
            "mixed-neg", SynthParams(120, (15, 25), 23, 9, 0.75, 0),
            9, 1, 4, "monolithic", compare="decomposed",
        ),
        Workload(
            "canon-dense", SynthParams(4, (20, 25), 30, 2, 1.0, 0),
            1, 0, 6, "decomposed",
        ),
    )
}


def _renumber(
    g: LabeledGraph, order: list[int], rename: dict[str, str]
) -> LabeledGraph:
    labels = [""] * g.n
    for v in range(g.n):
        labels[order[v]] = rename[g.labels[v]]
    edges = [(order[u], order[v]) for u, v in g.edges]
    return build_graph(g.n, edges, labels, undirected=g.undirected_input)


def make_dataset(workload: Workload, seed: int) -> Dataset:
    """The workload's instance as seen at ``seed`` (seed 0 is the base)."""
    base = gen_synthetic(workload.params)
    template, examples = base.template, base.examples
    if seed:
        rng = random.Random(seed)
        alphabet = sorted(base.label_universe())
        renamed = alphabet[:]
        rng.shuffle(renamed)
        rename = dict(zip(alphabet, renamed))
        template = _renumber(template, list(range(template.n)), rename)
        shuffled = []
        for ex in examples:
            order = list(range(ex.graph.n))
            rng.shuffle(order)
            shuffled.append(
                Example(ex.graph_id, ex.cls, _renumber(ex.graph, order, rename))
            )
        examples = tuple(shuffled)
    return Dataset(template, examples, workload.n_pos, workload.n_neg)


def pinned_subsets(workload: Workload) -> list[tuple[int, ...]]:
    table = json.loads(PINNED.read_text(encoding="utf-8"))
    return [tuple(s) for s in table[workload.name]]
