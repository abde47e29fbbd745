"""Graph-file parsing and serialization, benchmark CSV, synthetic datasets.

File format (line-oriented, '#'-prefixed comment lines and blank lines
ignored)::

    mode directed|undirected          one header line per file
    t # <id> <pos|neg|template>       block start
    v <vid> <label>                   vertex ids dense 0..n-1 per block
    e <src> <dst>                     edge within the block

Undirected mode symmetrizes edges at load; labels are interned
dataset-wide. All parse errors carry a 1-based line number.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from .graphs import (
    Dataset,
    EdgeOutOfRange,
    Example,
    ExampleClass,
    LabeledGraph,
    build_graph,
)
from .miner import MineResult

if TYPE_CHECKING:
    from ._rng import SplitMix64

CLASS_TAGS = tuple(cls.value for cls in ExampleClass) + ("template",)


class GraphFileError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GraphSyntaxError(GraphFileError):
    pass


class NonDenseVertexIds(GraphFileError):
    pass


class UnknownClassTag(GraphFileError):
    pass


class DuplicateBlockId(GraphFileError):
    pass


class DatasetLoadError(ValueError):
    pass


class InfeasibleEdgeTarget(ValueError):
    pass


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, fields) of each line that is not blank or a
    '#' comment."""
    for lineno, fields in enumerate(map(str.split, text.splitlines()), start=1):
        if fields and fields[0][0] != "#":
            yield lineno, fields


def _blocks(
    records: Iterator[tuple[int, list[str]]], head: str, where: str
) -> Iterator[tuple[int, list[str], list[tuple[int, list[str]]]]]:
    """(header line, header fields, body records) of each block; a block
    starts at each record of kind ``head``. A record before the first header
    is an error, reported as outside ``where``."""
    block = None
    for lineno, fields in records:
        if fields[0] == head:
            if block is not None:
                yield block
            block = (lineno, fields, [])
        elif block is not None:
            block[2].append((lineno, fields))
        elif fields[0] in ("v", "e"):
            kind = "vertex" if fields[0] == "v" else "edge"
            raise GraphSyntaxError(f"{kind} line outside {where}", lineno)
        else:
            raise GraphSyntaxError(f"unrecognized line kind {fields[0]!r}", lineno)
    if block is not None:
        yield block


def _body(
    body: list[tuple[int, list[str]]], dense: bool
) -> tuple[dict[int, str], list[tuple[int, int]], list[int]]:
    """Vertices {vid: interned label}, edges [(src, dst)] and each edge's
    line number, of the ``v <vid> <label>`` and ``e <src> <dst>`` lines of a
    block, read in file order. Vertex ids must be distinct, and with
    ``dense`` must also run 0, 1, 2, ... in file order."""
    vertices: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    lines: list[int] = []
    for lineno, fields in body:
        kind = fields[0]
        if kind == "v":
            if len(fields) != 3:
                raise GraphSyntaxError("expected 'v <vid> <label>'", lineno)
            try:
                vid = int(fields[1])
            except ValueError:
                raise GraphSyntaxError(f"non-integer vertex id {fields[1]!r}", lineno)
            if dense and vid != len(vertices):
                raise NonDenseVertexIds(
                    f"vertex id {vid} breaks dense 0..n-1 numbering "
                    f"(expected {len(vertices)})",
                    lineno,
                )
            if vid in vertices:
                raise GraphSyntaxError(f"duplicate vertex id {vid}", lineno)
            vertices[vid] = sys.intern(fields[2])
        elif kind == "e":
            if len(fields) != 3:
                raise GraphSyntaxError("expected 'e <src> <dst>'", lineno)
            try:
                src, dst = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphSyntaxError("non-integer edge endpoint", lineno)
            edges.append((src, dst))
            lines.append(lineno)
        else:
            raise GraphSyntaxError(f"unrecognized line kind {kind!r}", lineno)
    return vertices, edges, lines


def parse_graphs(text: str) -> list[tuple[int, str, LabeledGraph]]:
    """Parse a graph file into (block_id, class_tag, graph) triples."""
    records = _records(text)
    first = next(records, None)
    if first is None:
        return []
    lineno, fields = first
    if fields[0] != "mode" or fields[1:] not in (["directed"], ["undirected"]):
        raise GraphSyntaxError("expected header 'mode directed|undirected'", lineno)
    undirected = fields[1] == "undirected"

    blocks: list[tuple[int, str, LabeledGraph]] = []
    seen_ids: set[int] = set()
    for lineno, fields, body in _blocks(records, "t", "a block"):
        if len(fields) != 4 or fields[1] != "#":
            raise GraphSyntaxError("expected 't # <id> <class>'", lineno)
        try:
            block_id = int(fields[2])
        except ValueError:
            raise GraphSyntaxError(f"non-integer block id {fields[2]!r}", lineno)
        tag = fields[3]
        if tag not in CLASS_TAGS:
            raise UnknownClassTag(f"unknown class tag {tag!r}", lineno)
        if block_id in seen_ids:
            raise DuplicateBlockId(f"duplicate block id {block_id}", lineno)
        seen_ids.add(block_id)
        vertices, edges, lines = _body(body, dense=True)
        try:
            graph = build_graph(len(vertices), edges, vertices.values(), undirected)
        except EdgeOutOfRange as exc:
            # The first equal pair is the one build_graph stopped at.
            raise GraphSyntaxError(str(exc), lines[edges.index(exc.edge)])
        blocks.append((block_id, tag, graph))
    return blocks


def build_dataset(
    blocks: list[tuple[int, str, LabeledGraph]],
    n_pos_threshold: int,
    n_neg_threshold: int,
) -> Dataset:
    """Assemble a Dataset from parsed blocks; exactly one template required.

    Example graphs keep their block order and get contiguous graph ids
    starting at 0.
    """
    templates = [g for _, tag, g in blocks if tag == "template"]
    if len(templates) != 1:
        raise DatasetLoadError(
            f"expected exactly one template block, found {len(templates)}"
        )
    tagged = [(tag, graph) for _, tag, graph in blocks if tag != "template"]
    return Dataset(
        template=templates[0],
        examples=tuple(
            Example(i, ExampleClass(tag), graph) for i, (tag, graph) in enumerate(tagged)
        ),
        n_pos_threshold=n_pos_threshold,
        n_neg_threshold=n_neg_threshold,
    )


def edge_lines(graph: LabeledGraph) -> list[tuple[int, int]]:
    """The (u, v) of each 'e' line written for ``graph``, ascending; an
    undirected edge, stored in both directions, is written once with u <= v."""
    if graph.undirected_input:
        return sorted({(min(u, v), max(u, v)) for u, v in graph.edges})
    return sorted(graph.edges)


def _graph_lines(graph: LabeledGraph, ids: Sequence[int] | None = None) -> list[str]:
    """Vertex then edge lines, vertex ``v`` named ``ids[v]`` (default ``v``)."""
    names = graph.vertices() if ids is None else ids
    return [f"v {names[v]} {graph.labels[v]}" for v in graph.vertices()] + [
        f"e {names[u]} {names[v]}" for u, v in edge_lines(graph)
    ]


def write_graphs(dataset: Dataset) -> str:
    """Serialize a dataset in the graph file format (template block first)."""
    mode = "undirected" if dataset.template.undirected_input else "directed"
    lines = [f"mode {mode}"]
    blocks = [(0, "template", dataset.template)] + [
        (ex.graph_id + 1, ex.cls.value, ex.graph) for ex in dataset.examples
    ]
    for block_id, tag, graph in blocks:
        lines.append(f"t # {block_id} {tag}")
        lines.extend(_graph_lines(graph))
    return "\n".join(lines) + "\n"


def write_patterns(results: list[MineResult]) -> str:
    """Serialize mined patterns with their coverage and timing metadata.

    Vertex and edge lines use the pattern's original template ids.
    """
    lines: list[str] = []
    for res in results:
        lines.append(
            f"p # {res.index} size={res.pattern.n} pos={res.positive_covered} "
            f"neg={res.negative_covered} time_ms={res.elapsed_ms:.3f}"
        )
        lines.extend(_graph_lines(res.pattern, res.subset))
        lines.append("")
    return "\n".join(lines) + "\n" if lines else ""


@dataclass(frozen=True)
class PatternBlock:
    """One pattern block of a write_patterns file, as read back."""
    index: int
    size: int
    pos: int
    neg: int
    time_ms: float
    subset: tuple[int, ...]
    labels: dict[int, str]
    edges: tuple[tuple[int, int], ...]  # original template ids, as written


def parse_patterns(text: str) -> list[PatternBlock]:
    """Read back a write_patterns file (original template ids preserved)."""
    out: list[PatternBlock] = []
    for lineno, fields, body in _blocks(_records(text), "p", "a pattern block"):
        if len(fields) != 7 or fields[1] != "#":
            raise GraphSyntaxError("malformed pattern header", lineno)
        try:
            kv = dict(f.split("=", 1) for f in fields[3:])
            index, size = int(fields[2]), int(kv["size"])
            pos, neg, time_ms = int(kv["pos"]), int(kv["neg"]), float(kv["time_ms"])
        except (KeyError, ValueError):
            raise GraphSyntaxError("malformed pattern header", lineno)
        vertices, edges, _ = _body(body, dense=False)
        if not vertices:
            raise GraphSyntaxError("pattern block has no vertex lines", lineno)
        if size != len(vertices):
            raise GraphSyntaxError(
                f"size={size} but the block has {len(vertices)} vertices", lineno
            )
        out.append(
            PatternBlock(
                index=index,
                size=size,
                pos=pos,
                neg=neg,
                time_ms=time_ms,
                subset=tuple(sorted(vertices)),
                labels=vertices,
                edges=tuple(edges),
            )
        )
    return out


def write_bench_csv(
    records: list[tuple[str, int, float, str, int]]
) -> str:
    """CSV with header strategy,index,elapsed_ms,dataset,seed; rows keep input order."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["strategy", "index", "elapsed_ms", "dataset", "seed"])
    for strategy, index, elapsed_ms, dataset_tag, seed in records:
        writer.writerow([strategy, index, f"{elapsed_ms:.3f}", dataset_tag, seed])
    return buf.getvalue()


@dataclass(frozen=True)
class SynthParams:
    """Parameters of gen_synthetic: graph count and sizes, edges, labels, seed."""
    n_graphs: int
    vertex_range: tuple[int, int]
    target_avg_edges: int
    n_labels: int
    positive_fraction: float
    seed: int

    def __post_init__(self) -> None:
        lo, hi = self.vertex_range
        if lo < 2 or hi < lo:
            raise ValueError("vertex_range lower bound must be >= 2 and range nonempty")
        if self.n_labels < 1:
            raise ValueError("n_labels must be >= 1")
        if not (0.0 <= self.positive_fraction <= 1.0):
            raise ValueError("positive_fraction must lie in [0, 1]")
        if self.n_graphs < 0:
            raise ValueError("n_graphs must be non-negative")


def _label_symbols(k: int) -> list[str]:
    if k <= 26:
        return [chr(ord("a") + i) for i in range(k)]
    return [f"l{i}" for i in range(k)]


def _random_tree(rng: SplitMix64, n: int) -> list[tuple[int, int]]:
    """Uniform random labeled spanning tree via a Pruefer sequence."""
    import heapq

    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _random_connected_graph(
    rng: SplitMix64, n: int, target_edges: int, labels: list[str]
) -> LabeledGraph:
    tree = _random_tree(rng, n)
    max_edges = n * (n - 1) // 2
    want = min(max(target_edges + rng.below(5) - 2, n - 1), max_edges)
    tree_set = {(min(u, v), max(u, v)) for u, v in tree}
    spare = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in tree_set
    ]
    rng.shuffle(spare)
    edges = sorted(tree_set) + spare[: want - len(tree_set)]
    vlabels = [labels[rng.below(len(labels))] for _ in range(n)]
    return build_graph(n, edges, vlabels, undirected=True)


def gen_synthetic(params: SynthParams) -> Dataset:
    """Seed-deterministic dataset with connected graphs matching the target
    statistics; thresholds default to ceil(5% of the positives) and 0."""
    lo, hi = params.vertex_range
    if params.target_avg_edges < lo - 1:
        raise InfeasibleEdgeTarget(
            f"target_avg_edges {params.target_avg_edges} is below the spanning "
            f"tree minimum {lo - 1} for every vertex count in range"
        )
    from ._rng import SplitMix64

    rng = SplitMix64(params.seed)
    labels = _label_symbols(params.n_labels)

    graphs = []
    for _ in range(params.n_graphs):
        n = rng.randrange(lo, hi)
        graphs.append(_random_connected_graph(rng, n, params.target_avg_edges, labels))
    template = _random_connected_graph(rng, hi, params.target_avg_edges, labels)

    n_pos = round(params.positive_fraction * params.n_graphs)
    classes = [ExampleClass.POSITIVE] * n_pos + [ExampleClass.NEGATIVE] * (
        params.n_graphs - n_pos
    )
    rng.shuffle(classes)

    examples = tuple(
        Example(i, cls, g) for i, (cls, g) in enumerate(zip(classes, graphs))
    )
    return Dataset(
        template=template,
        examples=examples,
        n_pos_threshold=math.ceil(0.05 * n_pos),
        n_neg_threshold=0,
    )
