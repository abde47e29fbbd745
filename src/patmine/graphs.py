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
    building one with its adjacency and degree tables.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class GraphError(ValueError):
    """Invalid graph construction or query."""


class EdgeOutOfRange(GraphError):
    pass


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
    def out_adj(self) -> tuple[tuple[VertexId, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def in_adj(self) -> tuple[tuple[VertexId, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def sym_adj(self) -> tuple[tuple[VertexId, ...], ...]:
        """Distinct neighbors under the symmetric closure of the edge set."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def out_degree(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.out_adj)

    @cached_property
    def in_degree(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.in_adj)

    @cached_property
    def by_label(self) -> dict[Label, tuple[VertexId, ...]]:
        """Vertex ids of each label, ascending. Every search into this graph
        reads it, so callers must not mutate it."""
        index: dict[Label, list[VertexId]] = {}
        for v, label in enumerate(self.labels):
            index.setdefault(label, []).append(v)
        return {label: tuple(vs) for label, vs in index.items()}

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
    graph_id: int
    cls: ExampleClass
    graph: LabeledGraph


@dataclass(frozen=True)
class Dataset:
    """A mining instance: template graph, classified examples, thresholds."""

    template: LabeledGraph
    examples: tuple[Example, ...]
    n_pos_threshold: int
    n_neg_threshold: int

    def __post_init__(self) -> None:
        ids = [ex.graph_id for ex in self.examples]
        if ids != list(range(len(ids))):
            raise ValueError("example graph ids must be contiguous from 0")
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
    """Construct a validated LabeledGraph.

    With ``undirected=True`` the stored edge set is the symmetric closure of
    the given pairs.
    """
    label_tuple = tuple(labels)
    if len(label_tuple) != n:
        raise LabelArityMismatch(f"expected {n} labels, got {len(label_tuple)}")
    edge_set: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeOutOfRange(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
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

    The returned graph's ``orig_ids`` maps each new dense id back to the
    original vertex id in ``g``.
    """
    order = sorted(set(subset))
    for v in order:
        if not (0 <= v < g.n):
            raise VertexNotInGraph(f"vertex {v} not in graph of size {g.n}")
    remap = {old: new for new, old in enumerate(order)}
    out_adj = g.out_adj
    kept = frozenset(
        (remap[u], remap[v]) for u in order for v in out_adj[u] if v in remap
    )
    return LabeledGraph(
        n=len(order),
        edges=kept,
        labels=tuple(g.labels[v] for v in order),
        undirected_input=g.undirected_input,
        orig_ids=tuple(order),
    )
