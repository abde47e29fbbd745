"""Labeled-graph value types, connectivity queries, and induced subgraphs."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

VertexId = int
Label = str


class cached_property:
    """``functools.cached_property`` without its first-access lock (taken
    before Python 3.12). Mining builds a fresh small graph per candidate;
    with functools, the first accesses were about a third of the cost of
    building one with its adjacency table and degrees. Each cache is built
    on first use only: a candidate that the class table decides builds its
    degrees and, for its search, its adjacency table, and an example graph,
    which is only ever a search target, builds its target table only."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _at_least(adj: list[int]) -> list[int]:
    """Masks of the vertices with at least d bits in ``adj``, d = 0, 1, ..."""
    counts = [m.bit_count() for m in adj]
    masks = [0] * (max(counts, default=0) + 1)
    for v, d in enumerate(counts):
        masks[d] |= 1 << v
    for d in range(len(masks) - 2, -1, -1):
        masks[d] |= masks[d + 1]
    return masks


class GraphError(ValueError):
    """Invalid graph construction or query."""


class EdgeOutOfRange(GraphError):
    """An edge names a vertex outside 0..n-1; ``edge`` is that (u, v)."""

    def __init__(self, edge: tuple[VertexId, VertexId], n: int):
        u, v = edge
        super().__init__(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        self.edge = edge


class LabelArityMismatch(GraphError):
    pass


class VertexNotInGraph(GraphError):
    pass


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable vertex-labeled directed graph with dense vertex ids 0..n-1.

    Undirected inputs are stored as their symmetric closure with
    ``undirected_input`` set. ``orig_ids`` records, for graphs produced by
    :func:`induced_subgraph`, the original vertex id of each dense id; it is
    excluded from equality.
    """

    n: int
    edges: frozenset[tuple[VertexId, VertexId]]
    labels: tuple[Label, ...]
    undirected_input: bool = False
    orig_ids: tuple[VertexId, ...] | None = field(default=None, compare=False)

    @cached_property
    def sym_adj(self) -> tuple[tuple[VertexId, ...], ...]:
        """Distinct neighbors under the symmetric closure of the edge set."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def degrees(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(out-degrees, in-degrees), counted in one pass over the edges; an
        undirected graph counts its closure once and gives one tuple twice."""
        out, inn = [0] * self.n, [0] * self.n
        if self.undirected_input:
            for u, _ in self.edges:
                out[u] += 1
            return (out := tuple(out)), out
        for u, v in self.edges:
            out[u] += 1
            inn[v] += 1
        return tuple(out), tuple(inn)

    @cached_property
    def target_table(self) -> tuple:
        """Int masks, bit t for vertex t, that every search into this graph
        reads: the successors and predecessors of each vertex (one list if
        undirected), each label's vertices, "out-degree >= d" and "in-degree
        >= d" (bit counts of those masks) for d up to the largest degree,
        and the vertices with a self-loop. Read-only once built."""
        n, edges, bits = self.n, self.edges, [1 << v for v in range(self.n)]
        succ = [0] * n
        for u, v in edges:
            succ[u] |= bits[v]
        pred = succ if self.undirected_input else [0] * n
        for u, v in edges if pred is not succ else ():
            pred[v] |= bits[u]
        label_masks: dict[Label, int] = {}
        for v, label in enumerate(self.labels):
            label_masks[label] = label_masks.get(label, 0) | bits[v]
        out_ge = _at_least(succ)
        in_ge = out_ge if pred is succ else _at_least(pred)
        return succ, pred, label_masks, out_ge, in_ge, sum(map(int.__and__, succ, bits))

    @cached_property
    def label_pairs(self) -> frozenset[tuple[Label, Label]]:
        """(source label, target label) of every edge."""
        labels = self.labels
        return frozenset((labels[u], labels[v]) for u, v in self.edges)

    def vertices(self) -> range:
        return range(self.n)


class ExampleClass(Enum):
    POSITIVE = "pos"
    NEGATIVE = "neg"


@dataclass(frozen=True)
class Example:
    """An example graph with its dataset-wide id and its class."""
    graph_id: int
    cls: ExampleClass
    graph: LabeledGraph


@dataclass(frozen=True)
class Dataset:
    """A mining instance: template graph, classified examples, thresholds.
    Every example is in the template's mode (directed or undirected)."""

    template: LabeledGraph
    examples: tuple[Example, ...]
    n_pos_threshold: int
    n_neg_threshold: int

    def __post_init__(self) -> None:
        ids = [ex.graph_id for ex in self.examples]
        if ids != list(range(len(ids))):
            raise ValueError("example graph ids must be contiguous from 0")
        modes = ("directed", "undirected")
        mode = self.template.undirected_input
        for ex in self.examples:
            if ex.graph.undirected_input != mode:
                raise ValueError(
                    f"example graph {ex.graph_id} is in mode "
                    f"{modes[ex.graph.undirected_input]} but the template is in "
                    f"mode {modes[mode]}"
                )
        if self.n_pos_threshold < 0 or self.n_neg_threshold < 0:
            raise ValueError("thresholds must be non-negative")
        if self.n_pos_threshold > len(self.positives()):
            raise ValueError(
                f"n_pos_threshold {self.n_pos_threshold} exceeds the "
                f"{len(self.positives())} positive example(s)"
            )

    @cached_property
    def _by_class(self) -> dict[ExampleClass, tuple[Example, ...]]:
        split: dict[ExampleClass, list[Example]] = {c: [] for c in ExampleClass}
        for ex in self.examples:
            split[ex.cls].append(ex)
        return {c: tuple(v) for c, v in split.items()}

    def positives(self) -> tuple[Example, ...]:
        return self._by_class[ExampleClass.POSITIVE]

    def negatives(self) -> tuple[Example, ...]:
        return self._by_class[ExampleClass.NEGATIVE]

    def of_class(self, cls: ExampleClass) -> tuple[Example, ...]:
        return self._by_class[cls]

    @cached_property
    def pair_index(self) -> tuple[dict[ExampleClass, int], dict[tuple, int]]:
        """(class masks, pair masks): int bitmasks, bit g for the example
        with graph_id g, one per class and one per directed (source label,
        target label) pair, of the examples with such an edge. Built in one
        pass over each example's edges, on the first decomposed count."""
        classes, pairs = dict.fromkeys(ExampleClass, 0), {}
        for ex in self.examples:
            bit, labels = 1 << ex.graph_id, ex.graph.labels
            classes[ex.cls] |= bit
            for pair in {(labels[u], labels[v]) for u, v in ex.graph.edges}:
                pairs[pair] = pairs.get(pair, 0) | bit
        return classes, pairs

    def label_universe(self) -> tuple[Label, ...]:
        seen: set[str] = set(self.template.labels)
        for ex in self.examples:
            seen.update(ex.graph.labels)
        return tuple(sorted(seen))


def build_graph(
    n: int,
    edges: Iterable[tuple[VertexId, VertexId]],
    labels: Iterable[Label],
    undirected: bool,
) -> LabeledGraph:
    """Construct a validated LabeledGraph: the one rule that turns an edge
    list into an edge set. The first edge outside 0..n-1, in the order
    given, raises :class:`EdgeOutOfRange`. With ``undirected=True`` the
    stored edge set is the symmetric closure of the given pairs."""
    label_tuple = tuple(labels)
    if len(label_tuple) != n:
        raise LabelArityMismatch(f"expected {n} labels, got {len(label_tuple)}")
    edge_set: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeOutOfRange((u, v), n)
        edge_set.add((u, v))
        if undirected:
            edge_set.add((v, u))
    return LabeledGraph(
        n=n,
        edges=frozenset(edge_set),
        labels=label_tuple,
        undirected_input=undirected,
    )


def is_connected(g: LabeledGraph) -> bool:
    """Every pair of distinct vertices mutually reachable; n <= 1 is connected."""
    if g.n <= 1:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in g.sym_adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


def induced_subgraph(g: LabeledGraph, subset: Iterable[VertexId]) -> LabeledGraph:
    """Subgraph induced by ``subset``, densely re-indexed in ascending id order.

    Keeps each ``sym_adj`` neighbour inside the subset: all of them in an
    undirected ``g``, only successors in a directed one. ``orig_ids`` maps
    each new dense id back to its vertex id in ``g``. A vertex outside ``g``
    raises :class:`VertexNotInGraph`, naming the first in sorted order.
    """
    order = sorted(set(subset))
    if order and not (0 <= order[0] and order[-1] < g.n):
        v = next(v for v in order if not 0 <= v < g.n)
        raise VertexNotInGraph(f"vertex {v} not in graph of size {g.n}")
    remap = {old: new for new, old in enumerate(order)}
    sym_adj, edges, labels, undirected = g.sym_adj, g.edges, g.labels, g.undirected_input
    kept = frozenset([
        (remap[u], remap[v]) for u in order for v in sym_adj[u]
        if v in remap and (undirected or (u, v) in edges)
    ])
    return LabeledGraph(
        len(order), kept, tuple([labels[v] for v in order]), undirected, tuple(order)
    )
