"""Injective homomorphism search, isomorphism testing, and coverage counting.

A homomorphism here is an injective, label-preserving, edge-preserving map
from pattern vertices to target vertices (i.e. a subgraph monomorphism).
Mappings are represented as tuples indexed by pattern vertex id.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass

from .graphs import Dataset, ExampleClass, LabeledGraph, VertexId

Mapping = tuple[VertexId, ...]


@dataclass(frozen=True)
class CoverageReport:
    """Per-class coverage counts plus per-example verdicts.

    ``per_example`` holds (graph_id, has_homomorphism) pairs in graph_id
    order for the queried class; examples skipped as known misses or
    decided by edge labels carry False, and examples skipped by an early
    stop carry None.
    """

    positive_covered: int
    negative_covered: int
    per_example: tuple[tuple[int, bool | None], ...]


def _plan(
    pattern: LabeledGraph, target: LabeledGraph
) -> tuple[list[int], list[list[tuple[int, bool]]], list[list[int]]] | None:
    """Search order, back-edge checks and per-position target candidates.

    The order is connectivity-first: it starts at a vertex of maximum degree
    (distinct neighbours in the symmetric closure; a self-loop makes a
    vertex its own neighbour), ties broken toward the smaller id, and
    extends breadth-first, visiting each vertex's neighbours in ascending
    id; each further component starts the same way among the vertices not
    yet placed. ``checks[i]`` lists the pattern edges between
    ``order[i]`` and earlier positions as (earlier_position, outgoing), where
    outgoing means the edge runs order[i] -> order[j]. Candidates for a
    pattern vertex share its label, have at least its in- and out-degree, and
    carry a self-loop where it does. Returns None when no injective mapping
    can exist: the pattern is larger than the target or some pattern vertex
    has no candidate.
    """
    if pattern.n > target.n:
        return None
    by_label: dict[str, list[int]] = {}
    for t in range(target.n):
        by_label.setdefault(target.labels[t], []).append(t)

    n, sym_adj, out_adj, in_adj = (
        pattern.n, pattern.sym_adj, pattern.out_adj, pattern.in_adj
    )
    roots = iter(sorted(range(n), key=lambda v: (-len(sym_adj[v]), v)))
    pos = [n] * n  # position in the order; n while not yet placed
    order: list[int] = []  # doubles as the BFS queue: order[i:] is pending
    checks: list[list[tuple[int, bool]]] = []
    candidates: list[list[int]] = []
    for i in range(n):
        if i == len(order):  # the component is done: start the next one
            root = next(v for v in roots if pos[v] == n)
            pos[root] = i
            order.append(root)
        v = order[i]
        for w in sym_adj[v]:
            if pos[w] == n:
                pos[w] = len(order)
                order.append(w)
        # Earlier positions only; a self-loop is a candidate condition.
        checks.append(
            [(pos[w], True) for w in out_adj[v] if pos[w] < i]
            + [(pos[w], False) for w in in_adj[v] if pos[w] < i]
        )
        self_loop = (v, v) in pattern.edges
        cand = [
            t
            for t in by_label.get(pattern.labels[v], [])
            if target.out_degree[t] >= pattern.out_degree[v]
            and target.in_degree[t] >= pattern.in_degree[v]
            and (not self_loop or (t, t) in target.edges)
        ]
        if not cand:
            return None
        candidates.append(cand)
    return order, checks, candidates


def iter_homomorphisms(pattern: LabeledGraph, target: LabeledGraph):
    """Yield every injective homomorphism, lazily.

    Pattern vertices are assigned in connectivity-first order and target
    candidates are tried in ascending id, so mappings come out in that
    search order. The search keeps its own stack (one candidate cursor per
    position), so its depth is not bounded by the interpreter's recursion
    limit. A pattern with no vertices has exactly one mapping, ``()``.

    This is the witness stream consumed by the monolithic strategy's
    chronological search, which resumes it to enumerate alternatives.
    """
    plan = _plan(pattern, target)
    if plan is None:
        return
    order, checks, candidates = plan
    np = pattern.n
    edges_t = target.edges
    used = [False] * target.n
    assigned: list[int] = []  # target vertex of each position below i
    cursors = [0] * np  # next candidate index to try at each position
    i = 0
    while i >= 0:
        if i == np:
            result = [0] * np
            for k, v in enumerate(order):
                result[v] = assigned[k]
            yield tuple(result)
            i -= 1
            continue
        if len(assigned) > i:  # back from position i + 1: release position i
            used[assigned.pop()] = False
        cand, chk = candidates[i], checks[i]
        for c in range(cursors[i], len(cand)):
            t = cand[c]
            if used[t]:
                continue
            for j, outgoing in chk:
                s = assigned[j]
                if ((t, s) if outgoing else (s, t)) not in edges_t:
                    break
            else:
                used[t] = True
                assigned.append(t)
                cursors[i] = c + 1
                i += 1
                break
        else:
            cursors[i] = 0
            i -= 1


def find_homomorphism(pattern: LabeledGraph, target: LabeledGraph) -> Mapping | None:
    """First injective label/edge-preserving mapping, or None if none exists.

    The search is complete: None means no homomorphism exists. The result is
    the first mapping :func:`iter_homomorphisms` yields.
    """
    return next(iter_homomorphisms(pattern, target), None)


def is_isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """True iff a label-preserving bijection maps the edge sets onto each other.

    Between graphs with equal vertex and edge counts, an injective
    edge-preserving map is a bijection on vertices and on edges (self-loops
    included), so the count checks and one homomorphism search decide the
    question.
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    return find_homomorphism(g1, g2) is not None


def coverage(
    pattern: LabeledGraph,
    dataset: Dataset,
    cls: ExampleClass,
    stop_at: int | None = None,
    known_misses: Container[int] = (),
) -> CoverageReport:
    """Count examples of ``cls`` admitting a homomorphism from ``pattern``.

    Examples are scanned serially in graph_id order, one
    :func:`find_homomorphism` call each. Examples whose graph_id is in
    ``known_misses`` (the caller knows ``pattern`` does not map into them)
    are reported as False without a search. With ``stop_at=k`` the scan
    stops as soon as the covered count reaches k and the remaining examples
    are reported as None (untested); ``stop_at=None`` tests all. An example
    still to be tested that lacks one of the pattern's directed edge-label
    pairs (:attr:`LabeledGraph.label_pairs`) is a miss, since a
    homomorphism maps each edge onto an edge with the same two labels: it
    is reported as False without a search.
    """
    if stop_at is not None and stop_at < 0:
        raise ValueError("stop_at must be non-negative")
    per_example: list[tuple[int, bool | None]] = []
    covered = 0
    for ex in dataset.of_class(cls):
        if ex.graph_id in known_misses:
            per_example.append((ex.graph_id, False))
        elif stop_at is not None and covered >= stop_at:
            per_example.append((ex.graph_id, None))
        elif not pattern.label_pairs <= ex.graph.label_pairs:
            per_example.append((ex.graph_id, False))
        else:
            hit = find_homomorphism(pattern, ex.graph) is not None
            per_example.append((ex.graph_id, hit))
            covered += hit

    pos = covered if cls is ExampleClass.POSITIVE else 0
    neg = covered if cls is ExampleClass.NEGATIVE else 0
    return CoverageReport(
        positive_covered=pos,
        negative_covered=neg,
        per_example=tuple(per_example),
    )
