"""Independent brute-force oracles used to certify the implementation.

Everything here is deliberately naive: transitive closure by iteration,
union-find connectivity, permutation-based bijection and homomorphism
search, and exhaustive pattern enumeration with brute-force coverage. None
of it shares code with the search paths it checks, except
:func:`recursive_homomorphisms`, which walks the search kernel's own plan
and so pins the order of its mappings.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from patmine import (
    Dataset,
    LabeledGraph,
    Mapping,
    VertexNotInGraph,
    build_graph,
    induced_subgraph,
)
from patmine.demo import HEX_EDGES
from patmine.morphism import _candidates, _needs, _order

BRUTE_FORCE_MAX_PATTERN = 8

# The demo template's hexagon with its chord (1, 4), a valid pattern at
# thresholds (1, 0), and its tail path, which also maps into the negative.
HEXCHORD_SUBSET = (0, 1, 2, 3, 4, 5)
TAILPATH_SUBSET = (3, 6, 7)


class PatternTooLarge(ValueError):
    pass


def reachable(g: LabeledGraph, x: int, y: int) -> bool:
    """True iff y is reachable from x by a nonempty path in the symmetric
    closure, by breadth-first search. The package has no caller of this
    query; it lives here, checked against :func:`closure_reachable`."""
    if not (0 <= x < g.n):
        raise VertexNotInGraph(f"vertex {x} not in graph of size {g.n}")
    if not (0 <= y < g.n):
        raise VertexNotInGraph(f"vertex {y} not in graph of size {g.n}")
    # Start from x's neighbors so that reachable(g, x, x) demands a real cycle.
    seen = set(g.sym_adj[x])
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        if v == y:
            return True
        for w in g.sym_adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return y in seen


def closure_reachable(g: LabeledGraph, x: int, y: int) -> bool:
    """Nonempty-path reachability via iterated composition over the
    symmetrized edge relation."""
    pairs = set(g.edges) | {(v, u) for u, v in g.edges}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(pairs), repeat=2):
            if b == c and (a, d) not in pairs:
                pairs.add((a, d))
                changed = True
    return (x, y) in pairs


def unionfind_connected(g: LabeledGraph) -> bool:
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        parent[ru] = rv
    return g.n <= 1 or len({find(v) for v in range(g.n)}) == 1


def bijection_isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Try every bijection; check labels and edge preservation both ways."""
    if g1.n != g2.n:
        return False
    for perm in itertools.permutations(range(g2.n)):
        if any(g1.labels[v] != g2.labels[perm[v]] for v in range(g1.n)):
            continue
        fwd = all((perm[u], perm[v]) in g2.edges for u, v in g1.edges)
        if not fwd:
            continue
        inv = {t: s for s, t in enumerate(perm)}
        if all((inv[u], inv[v]) in g1.edges for u, v in g2.edges):
            return True
    return False


def adjacency_signature(g: LabeledGraph) -> tuple:
    """A test-side isomorphism invariant: one round of colour refinement,
    read from out- and in-neighbour lists built here from the edge set and
    the graph's cached degrees. Each vertex's (label, out-degree,
    in-degree), extended by the sorted colours of its out- and
    in-neighbours; returns the sorted colours, equal for isomorphic graphs.
    ``TestClassTable`` uses it to skip pairs that cannot be isomorphic, and
    ``TestTemplateRenumbering`` to group emitted classes."""
    out = [[v for u, v in g.edges if u == x] for x in range(g.n)]
    inn = [[u for u, v in g.edges if v == x] for x in range(g.n)]
    colour = tuple(zip(g.labels, *g.degrees)).__getitem__
    colours = [(colour(v), tuple(sorted(map(colour, out[v]))),
                tuple(sorted(map(colour, inn[v])))) for v in range(g.n)]
    return tuple(sorted(colours))


def random_graph(
    rng: random.Random,
    n: int,
    labels: tuple[str, ...] = ("a", "b"),
    edge_prob: float = 0.4,
    undirected: bool = True,
    loops: bool = False,
) -> LabeledGraph:
    """Random labelled graph; with ``loops`` each vertex also gets a
    self-loop with probability ``edge_prob``. Loop-free draws consume the
    same random numbers with or without the option."""
    edges = []
    for u in range(n):
        for v in range(n):
            if (u != v or loops) and rng.random() < edge_prob:
                if undirected and u > v:
                    continue
                edges.append((u, v))
    vlabels = [rng.choice(labels) for _ in range(n)]
    return build_graph(n, edges, vlabels, undirected=undirected)


def is_homomorphism(pattern: LabeledGraph, target: LabeledGraph, m: Mapping) -> bool:
    """Re-check that m is a total injective label/edge-preserving mapping."""
    if len(m) != pattern.n or len(set(m)) != pattern.n:
        return False
    if any(not (0 <= t < target.n) for t in m):
        return False
    if any(pattern.labels[v] != target.labels[m[v]] for v in range(pattern.n)):
        return False
    return all((m[u], m[v]) in target.edges for u, v in pattern.edges)


def brute_force_homomorphisms(
    pattern: LabeledGraph, target: LabeledGraph
) -> list[Mapping]:
    """All injective homomorphisms, in lexicographic order of the mapping tuple.

    Exhaustive enumeration over injective assignments; intended as the
    independent oracle for :func:`find_homomorphism` at small sizes.
    """
    if pattern.n > BRUTE_FORCE_MAX_PATTERN:
        raise PatternTooLarge(
            f"pattern has {pattern.n} vertices, oracle limit is {BRUTE_FORCE_MAX_PATTERN}"
        )
    if pattern.n > target.n:
        return []
    out = []
    for perm in itertools.permutations(range(target.n), pattern.n):
        if is_homomorphism(pattern, target, perm):
            out.append(perm)
    return out


def covered(pattern: LabeledGraph, examples) -> int:
    return sum(bool(brute_force_homomorphisms(pattern, ex.graph)) for ex in examples)


def exhaustive_pattern_classes(
    dataset: Dataset, min_size: int, max_size: int
) -> dict[int, list[LabeledGraph]]:
    """One representative per isomorphism class of valid patterns, per size.

    Enumerates every vertex subset of the template, keeps connected induced
    subgraphs meeting both coverage thresholds (coverage via the
    brute-force homomorphism lists), and dedupes with the permutation-based
    isomorphism oracle.
    """
    template = dataset.template
    out: dict[int, list[LabeledGraph]] = {}
    for size in range(min_size, min(max_size, template.n) + 1):
        classes: list[LabeledGraph] = []
        for subset in itertools.combinations(range(template.n), size):
            g = induced_subgraph(template, subset)
            if not unionfind_connected(g):
                continue
            if covered(g, dataset.positives()) < dataset.n_pos_threshold:
                continue
            if covered(g, dataset.negatives()) > dataset.n_neg_threshold:
                continue
            if not any(bijection_isomorphic(g, c) for c in classes):
                classes.append(g)
        out[size] = classes
    return out


def reference_mine(
    dataset: Dataset, min_size: int = 1, max_size: int | None = None,
    max_patterns: int | None = None,
) -> list[tuple[tuple[int, ...], int, int]]:
    """The mining problem's definition, with none of the miner's shortcuts.

    Size by size from ``min_size`` to ``max_size`` (default: the template's
    size), every vertex subset in lexicographic order is emitted when the
    subgraph it induces (read here off the edge set) is connected, maps
    into at least N+ positives and at most N- negatives (full brute-force
    counts), and is not isomorphic to a subset emitted earlier at its size.
    Returns (subset, positives covered, negatives covered) for the first
    ``max_patterns`` emitted subsets. No level ends early and nothing is
    pruned or keyed.
    """
    template = dataset.template
    top = template.n if max_size is None else min(max_size, template.n)
    out: list[tuple[tuple[int, ...], int, int]] = []
    for size in range(min_size, top + 1):
        accepted: list[LabeledGraph] = []
        for subset in itertools.combinations(range(template.n), size):
            new_id = {v: i for i, v in enumerate(subset)}
            g = build_graph(
                size,
                [(new_id[u], new_id[v]) for u, v in template.edges
                 if u in new_id and v in new_id],
                [template.labels[v] for v in subset],
                template.undirected_input,
            )
            if not unionfind_connected(g):
                continue
            pos = covered(g, dataset.positives())
            if pos < dataset.n_pos_threshold:
                continue
            neg = covered(g, dataset.negatives())
            if neg > dataset.n_neg_threshold:
                continue
            if any(bijection_isomorphic(g, a) for a in accepted):
                continue
            accepted.append(g)
            out.append((subset, pos, neg))
    return out[:max_patterns]


def recursive_homomorphisms(pattern: LabeledGraph, target: LabeledGraph):
    """Every injective homomorphism, by plain recursion over the order,
    checks and candidates of :func:`patmine.morphism.iter_homomorphisms`:
    the reference for the kernel's mappings and their order (depth bounded
    by the recursion limit). Candidates are read off each candidate mask's
    bits in ascending order, and each back edge is checked as a tuple in
    the target's edge set."""
    masks = _candidates(_needs(pattern), target)
    if masks is None:
        return
    order, checks = _order(pattern)
    candidates = [[t for t in range(target.n) if masks[v] >> t & 1] for v in order]
    np = pattern.n
    assigned: list[int] = []
    used = [False] * target.n

    def extend(i: int):
        if i == np:
            result = [0] * np
            for k, v in enumerate(order):
                result[v] = assigned[k]
            yield tuple(result)
            return
        for t in candidates[i]:
            if used[t]:
                continue
            ok = True
            for j, outgoing in checks[i]:
                s = assigned[j]
                if outgoing:
                    if (t, s) not in target.edges:
                        ok = False
                        break
                elif (s, t) not in target.edges:
                    ok = False
                    break
            if ok:
                used[t] = True
                assigned.append(t)
                yield from extend(i + 1)
                assigned.pop()
                used[t] = False

    yield from extend(0)


def hexagon_with_chord(chord: tuple[int, int]) -> LabeledGraph:
    """A 6-cycle plus one chord; the two long-chord placements (1,4) and
    (0,3) are isomorphic candidates of the demo instance."""
    return build_graph(6, HEX_EDGES + [chord], ["a"] * 6, undirected=True)
