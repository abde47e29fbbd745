from __future__ import annotations

import itertools
import random

import pytest

from patmine import (
    EdgeOutOfRange,
    LabelArityMismatch,
    VertexNotInGraph,
    build_graph,
    induced_subgraph,
    is_connected,
)
from patmine.demo import HEXCHORD_SUBSET, TAILPATH_SUBSET

from oracles import (
    closure_reachable,
    random_graph,
    reachable,
    unionfind_connected,
)


def undirected_pairs(g):
    return sorted({(min(u, v), max(u, v)) for u, v in g.edges})


class TestBuildGraph:
    def test_symmetrizes_undirected_input(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)], ["a"] * 4, undirected=True)
        assert len(g.edges) == 6
        assert g.undirected_input

    def test_single_isolated_vertex(self):
        g = build_graph(1, [], ["a"], undirected=False)
        assert g.n == 1 and not g.edges

    def test_directed_edges_stored_as_given(self):
        g = build_graph(2, [(0, 1), (1, 0)], ["a", "b"], undirected=False)
        assert g.edges == frozenset({(0, 1), (1, 0)})

    def test_edge_out_of_range(self):
        with pytest.raises(EdgeOutOfRange):
            build_graph(2, [(0, 2)], ["a", "a"], undirected=False)

    def test_label_arity_mismatch(self):
        with pytest.raises(LabelArityMismatch):
            build_graph(3, [], ["a", "a"], undirected=False)

    def test_symmetric_closure_idempotent(self):
        rng = random.Random(11)
        for _ in range(30):
            pairs = [(rng.randrange(5), rng.randrange(5)) for _ in range(6)]
            g1 = build_graph(5, pairs, ["a"] * 5, undirected=True)
            g2 = build_graph(5, sorted(g1.edges), ["a"] * 5, undirected=True)
            assert g1.edges == g2.edges


class TestReachable:
    def test_path_transitivity(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)], ["a"] * 4, undirected=True)
        assert reachable(g, 0, 3)

    def test_disconnected_components(self):
        g = build_graph(4, [(0, 1), (2, 3)], ["a"] * 4, undirected=True)
        assert not reachable(g, 0, 2)

    def test_template_hexagon_to_tail_tip(self, template):
        assert reachable(template, 0, 7)
        assert closure_reachable(template, 0, 7)

    def test_vertex_out_of_range(self, template):
        with pytest.raises(VertexNotInGraph):
            reachable(template, 0, 99)

    def test_symmetric_on_undirected_graphs(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(2, 7))
            for x, y in itertools.combinations(range(g.n), 2):
                assert reachable(g, x, y) == reachable(g, y, x)

    def test_matches_closure_oracle_on_directed_graphs(self):
        rng = random.Random(7)
        for _ in range(15):
            g = random_graph(rng, rng.randrange(2, 6), undirected=False)
            for x, y in itertools.permutations(range(g.n), 2):
                assert reachable(g, x, y) == closure_reachable(g, x, y)


class TestIsConnected:
    def test_demo_positive_is_connected(self, positive):
        assert is_connected(positive)

    def test_empty_graph_connected(self):
        assert is_connected(build_graph(0, [], [], undirected=True))

    def test_isolated_vertex_disconnects(self):
        g = build_graph(3, [(0, 1)], ["a"] * 3, undirected=True)
        assert not is_connected(g)

    def test_agrees_with_unionfind_over_subsets(self, template):
        for size in range(1, template.n + 1):
            for subset in itertools.combinations(range(template.n), size):
                sub = induced_subgraph(template, subset)
                assert is_connected(sub) == unionfind_connected(sub)


class TestInducedSubgraph:
    def test_hexagon_subset_gives_valid_candidate(self, template):
        sub = induced_subgraph(template, HEXCHORD_SUBSET)
        assert sub.n == 6
        assert undirected_pairs(sub) == [
            (0, 1), (0, 5), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5),
        ]
        assert sub.orig_ids == HEXCHORD_SUBSET

    def test_full_subset_identity(self, template):
        sub = induced_subgraph(template, range(template.n))
        assert sub == template
        assert sub.orig_ids == tuple(range(template.n))

    def test_tail_subset_is_three_path(self, template):
        sub = induced_subgraph(template, TAILPATH_SUBSET)
        assert sub.n == 3
        assert undirected_pairs(sub) == [(0, 1), (1, 2)]
        assert sub.orig_ids == (3, 6, 7)

    def test_unknown_vertex_rejected(self, template):
        with pytest.raises(VertexNotInGraph):
            induced_subgraph(template, {0, 42})

    def test_intersection_edges_subset(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_graph(rng, 7)
            s1 = set(rng.sample(range(7), rng.randrange(2, 7)))
            s2 = set(rng.sample(range(7), rng.randrange(2, 7)))
            inter = induced_subgraph(g, s1 & s2) if s1 & s2 else None
            big = induced_subgraph(g, s1)
            if inter is None:
                continue
            to_orig = lambda sub: {
                (sub.orig_ids[u], sub.orig_ids[v]) for u, v in sub.edges
            }
            assert to_orig(inter) <= to_orig(big)

    def test_matches_filtered_edge_list(self):
        rng = random.Random(37)
        for undirected in (True, False):
            for loops in (False, True):
                for _ in range(6):
                    n = rng.randrange(1, 10)
                    g = random_graph(
                        rng, n, undirected=undirected, loops=loops,
                        edge_prob=rng.uniform(0.1, 0.9),
                    )
                    for size in range(1, n + 1):
                        subset = rng.sample(range(n), size)
                        new_id = {v: i for i, v in enumerate(sorted(subset))}
                        expected = {
                            (new_id[u], new_id[v]) for u, v in g.edges
                            if u in new_id and v in new_id
                        }
                        sub = induced_subgraph(g, subset)
                        assert sub.edges == expected
                        assert sub.labels == tuple(g.labels[v] for v in sorted(subset))
