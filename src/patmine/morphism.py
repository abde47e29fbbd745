"""Injective homomorphism search, isomorphism testing, and coverage counting.

A homomorphism here is an injective, label-preserving, edge-preserving map
from pattern vertices to target vertices (i.e. a subgraph monomorphism).
Mappings are represented as tuples indexed by pattern vertex id.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Dataset, ExampleClass, LabeledGraph, VertexId

Mapping = tuple[VertexId, ...]


@dataclass(frozen=True)
class CoverageReport:
    """Per-class coverage counts plus per-example verdicts.

    ``per_example`` holds (graph_id, has_homomorphism) pairs in graph_id
    order for the queried class.
    """

    positive_covered: int
    negative_covered: int
    per_example: tuple[tuple[int, bool], ...]


Order = tuple[list[int], list[list[tuple[int, bool]]]]


def _order(pattern: LabeledGraph) -> Order:
    """Search order and back-edge checks; they depend on the pattern alone.

    The order is connectivity-first: it starts at a vertex of maximum degree
    (distinct neighbours in the symmetric closure; a self-loop makes a
    vertex its own neighbour), ties broken toward the smaller id, and
    extends breadth-first, visiting each vertex's neighbours in ascending
    id; each further component starts the same way among the vertices not
    yet placed. ``checks[i]`` lists the pattern edges between
    ``order[i]`` and earlier positions as (earlier_position, outgoing), where
    outgoing means the edge runs order[i] -> order[j]. They are read off the
    edge set in one pass, in no particular order: a candidate must pass all
    of them. A self-loop is a candidate condition (:func:`_candidates`), not
    a check.
    """
    n, sym_adj = pattern.n, pattern.sym_adj
    roots = iter(sorted(range(n), key=lambda v: (-len(sym_adj[v]), v)))
    pos = [n] * n  # position in the order; n while not yet placed
    order: list[int] = []  # doubles as the BFS queue: order[i:] is pending
    for i in range(n):
        if i == len(order):  # the component is done: start the next one
            root = next(v for v in roots if pos[v] == n)
            pos[root] = i
            order.append(root)
        for w in sym_adj[order[i]]:
            if pos[w] == n:
                pos[w] = len(order)
                order.append(w)
    checks: list[list[tuple[int, bool]]] = [[] for _ in order]
    for u, v in pattern.edges:
        if pos[u] > pos[v]:
            checks[pos[u]].append((pos[v], True))
        elif pos[v] > pos[u]:
            checks[pos[v]].append((pos[u], False))
    return order, checks


def _candidates(
    pattern: LabeledGraph, target: LabeledGraph
) -> list[list[int]] | None:
    """Target candidates of each pattern vertex, by id: same label, at
    least its in- and out-degree, a self-loop where it has one. None when
    the pattern is larger than the target or a vertex has no candidate."""
    if pattern.n > target.n:
        return None
    by_label, edges_p, edges_t = target.by_label, pattern.edges, target.edges
    out_t, in_t = target.degrees
    candidates: list[list[int]] = []
    for v, (label, out_v, in_v) in enumerate(zip(pattern.labels, *pattern.degrees)):
        self_loop = (v, v) in edges_p
        cand = [
            t
            for t in by_label.get(label, ())
            if out_t[t] >= out_v and in_t[t] >= in_v
            and (not self_loop or (t, t) in edges_t)
        ]
        if not cand:
            return None
        candidates.append(cand)
    return candidates


def iter_homomorphisms(
    pattern: LabeledGraph, target: LabeledGraph, order: Order | None = None
):
    """Yield every injective homomorphism, lazily.

    Pattern vertices are assigned in connectivity-first order and target
    candidates are tried in ascending id, so mappings come out in that
    search order. The search keeps its own stack (one candidate cursor per
    position), so its depth is not bounded by the interpreter's recursion
    limit. A pattern with no vertices has exactly one mapping, ``()``.

    ``order`` is ``_order(pattern)``, built here if not given once every
    pattern vertex has a candidate. The decomposed scan hands one order to
    all its searches; each monolithic witness stream builds its own.
    """
    per_vertex = _candidates(pattern, target)
    if per_vertex is None:
        return
    order, checks = _order(pattern) if order is None else order
    candidates = [per_vertex[v] for v in order]
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


def find_homomorphism(
    pattern: LabeledGraph, target: LabeledGraph, order: Order | None = None
) -> Mapping | None:
    """First injective label/edge-preserving mapping, or None if none exists.

    The search is complete: None means no homomorphism exists. The result is
    the first mapping :func:`iter_homomorphisms` yields.
    """
    return next(iter_homomorphisms(pattern, target, order), None)


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


def count_covered(
    pattern: LabeledGraph,
    dataset: Dataset,
    cls: ExampleClass,
    stop_at: int,
    misses: int = 0,
    need: int = 0,
) -> tuple[int, int]:
    """Examples of ``cls`` that ``pattern`` maps into, counted in graph_id
    order until the count reaches ``stop_at`` or cannot reach ``need``, and
    the miss mask after it.

    A miss mask sets bit g for each example with graph_id g that ``pattern``
    is known not to map into. The candidates are the class mask minus
    ``misses``, ANDed with the mask of each of the pattern's directed
    edge-label pairs (:attr:`Dataset.pair_index`), since a homomorphism maps
    each edge onto an edge with the same two labels. Each candidate, lowest
    bit first, gets one :func:`find_homomorphism` call; all share one
    :func:`_order` of the pattern, built at the first search. Before a
    candidate, the scan stops if the count plus the candidates left, that
    one included, is below ``need``. The returned mask adds each example
    below the stop that was not counted; examples past it are not tested.
    """
    classes, pairs = dataset.pair_index
    todo = classes[cls] & ~misses
    if stop_at <= 0 or not todo:
        return 0, misses
    left = todo
    for pair in pattern.label_pairs:
        left &= pairs.get(pair, 0)
    examples, covered, hits, order = dataset.examples, 0, 0, None
    while left:
        low = left & -left
        if covered + left.bit_count() < need:
            todo &= low - 1
            break
        left ^= low
        if find_homomorphism(
            pattern, examples[low.bit_length() - 1].graph,
            order or (order := _order(pattern)),
        ) is not None:
            hits |= low
            covered += 1
            if covered >= stop_at:
                todo &= low - 1
                break
    return covered, misses | (todo & ~hits)


def coverage(
    pattern: LabeledGraph, dataset: Dataset, cls: ExampleClass
) -> CoverageReport:
    """Count examples of ``cls`` admitting a homomorphism from ``pattern``,
    with a verdict per example: :func:`count_covered` with no stop, so an
    example is covered unless its bit is set in the returned miss mask.
    """
    examples = dataset.of_class(cls)
    covered, misses = count_covered(pattern, dataset, cls, len(examples))
    return CoverageReport(
        positive_covered=covered if cls is ExampleClass.POSITIVE else 0,
        negative_covered=covered if cls is ExampleClass.NEGATIVE else 0,
        per_example=tuple(
            (ex.graph_id, not misses >> ex.graph_id & 1) for ex in examples
        ),
    )
