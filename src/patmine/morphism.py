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
Plan = tuple[list[int], list[list[tuple[int, bool]]], list[tuple]]


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


def _needs(pattern: LabeledGraph) -> list[tuple]:
    """(label, out-degree, in-degree, self-loop) of each pattern vertex."""
    return [(*lio, (v, v) in pattern.edges)
            for v, lio in enumerate(zip(pattern.labels, *pattern.degrees))]


def _plan(pattern: LabeledGraph) -> Plan:
    """What every search reads of ``pattern``: :func:`_order`, :func:`_needs`."""
    return (*_order(pattern), _needs(pattern))


def _candidates(needs: list[tuple], target: LabeledGraph) -> list[int] | None:
    """One mask of target candidates per pattern vertex, from the target's
    table: its label, at least its out- and in-degree, a self-loop if it has
    one. None if the pattern is larger or a vertex has no candidate."""
    if len(needs) > target.n:
        return None
    _, _, label_masks, out_ge, in_ge, loops = target.target_table
    try:
        masks = [label_masks.get(label, 0) & out_ge[o] & in_ge[i]
                 & (loops if loop else -1) for label, o, i, loop in needs]
    except IndexError:  # a degree above the target's largest
        return None
    return masks if all(masks) else None


def iter_homomorphisms(
    pattern: LabeledGraph, target: LabeledGraph, plan: Plan | None = None
):
    """Yield every injective homomorphism, lazily; a pattern with no
    vertices has one, ``()``. A target that leaves a pattern vertex without
    a candidate (:func:`_candidates`) ends the search at once. Otherwise
    the vertices are assigned in :func:`_order`, each position keeping one
    domain mask: its candidates minus the target vertices used, ANDed with
    the successor or predecessor mask of each back-edge partner assigned.
    The lowest bit goes first, so mappings come out as from a search that
    tries candidates in ascending id. The stack of domains is the search's
    own, so its depth is not bounded by the recursion limit. The decomposed
    scan hands every search one ``plan``, ``_plan(pattern)``; without one,
    as in each monolithic witness stream, the search derives the needs and
    builds the order once every pattern vertex has a candidate."""
    domains = _candidates(plan[2] if plan else _needs(pattern), target)
    if domains is None:
        return
    order, checks = plan[:2] if plan else _order(pattern)
    if not order:
        yield ()
        return
    candidates = [domains[v] for v in order]
    adjs = target.target_table[:2]  # (successors, predecessors) by outgoing
    np, assigned = len(order), [0] * len(order)  # target vertex per position
    rest = [0] * np  # the domain bits each position has not tried yet
    rest[0], used, i = candidates[0], 0, 0
    while True:
        dom = rest[i]
        if not dom:  # position i is exhausted: release position i - 1
            if not i:
                return
            i -= 1
            used ^= 1 << assigned[i]
            continue
        low = dom & -dom
        rest[i] = dom ^ low
        assigned[i] = low.bit_length() - 1
        if i + 1 == np:
            yield tuple([t for _, t in sorted(zip(order, assigned))])
            continue
        used |= low
        i += 1
        dom = candidates[i] & ~used
        for j, outgoing in checks[i]:
            dom &= adjs[outgoing][assigned[j]]
        rest[i] = dom


def find_homomorphism(
    pattern: LabeledGraph, target: LabeledGraph, plan: Plan | None = None
) -> Mapping | None:
    """First injective label/edge-preserving mapping, or None if none exists.

    The search is complete: None means no homomorphism exists. The result is
    the first mapping :func:`iter_homomorphisms` yields.
    """
    return next(iter_homomorphisms(pattern, target, plan), None)


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
    :func:`_plan` of the pattern, built at the first search, so its order,
    checks and needs are paid once per scan. Before a candidate, the scan
    stops if the count plus the candidates left, that one included, is
    below ``need``. The returned mask adds each example below the stop
    that was not counted; examples past it are not tested.
    """
    classes, pairs = dataset.pair_index
    todo = classes[cls] & ~misses
    if stop_at <= 0 or not todo:
        return 0, misses
    left = todo
    for pair in pattern.label_pairs:
        left &= pairs.get(pair, 0)
    examples, covered, hits, plan = dataset.examples, 0, 0, None
    while left:
        low = left & -left
        if covered + left.bit_count() < need:
            todo &= low - 1
            break
        left ^= low
        if find_homomorphism(
            pattern, examples[low.bit_length() - 1].graph,
            plan or (plan := _plan(pattern)),
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
