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
from patmine.morphism import _candidates, _needs

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

    @pytest.mark.parametrize(("n", "edges", "message"), [
        (2, [(0, 1), (0, 2), (3, 0)], "edge (0, 2) outside vertex range 0..1"),
        (3, [(1, 2), (-1, 0)], "edge (-1, 0) outside vertex range 0..2"),
        (0, [(0, 0)], "edge (0, 0) outside vertex range 0..-1"),
    ])
    @pytest.mark.parametrize("undirected", [True, False])
    def test_edge_out_of_range_names_the_first_bad_edge(
        self, n, edges, message, undirected
    ):
        with pytest.raises(EdgeOutOfRange) as exc:
            build_graph(n, edges, ["a"] * n, undirected=undirected)
        assert str(exc.value) == message
        assert exc.value.edge == next(
            (u, v) for u, v in edges if not (0 <= u < n and 0 <= v < n)
        )

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


class TestDegrees:
    """Degrees are counted over the edge set, without building the
    adjacency table, and equal each vertex's out- and in-neighbour counts.
    They are one cached (out-degrees, in-degrees) pair per graph, which the
    class table's degree profile and a pattern's search needs both read. A search
    target reads its degrees off its table's degree masks instead."""

    @staticmethod
    def graphs():
        """Seeded graphs, undirected then directed, with self-loops and
        isolated vertices, each group led by the empty graph."""
        rng = random.Random(31)
        for undirected in (True, False):
            yield build_graph(0, [], [], undirected=undirected)
            for _ in range(80):
                yield random_graph(rng, rng.randrange(1, 9), edge_prob=0.25,
                                   undirected=undirected, loops=True)

    @staticmethod
    def edge_counts(g):
        """Each vertex's out- and in-neighbours, listed from the edge set."""
        outs = [[v for u, v in g.edges if u == x] for x in g.vertices()]
        ins = [[u for u, v in g.edges if v == x] for x in g.vertices()]
        return outs, ins

    def test_self_loop_counts_once_in_each_direction(self):
        g = build_graph(3, [(0, 0), (0, 1)], ["a"] * 3, undirected=False)
        assert g.degrees == ((2, 0, 0), (1, 1, 0))
        g = build_graph(2, [(1, 1)], ["a"] * 2, undirected=True)
        assert g.degrees == ((0, 1), (0, 1))

    def test_match_adjacency_lengths(self):
        loops = isolated = 0
        for g in self.graphs():
            out_degree, in_degree = g.degrees
            assert "sym_adj" not in g.__dict__
            outs, ins = self.edge_counts(g)
            assert out_degree == tuple(len(a) for a in outs)
            assert in_degree == tuple(len(a) for a in ins)
            loops += sum((v, v) in g.edges for v in g.vertices())
            isolated += sum(not a and not b for a, b in zip(outs, ins))
        assert loops > 50 and isolated > 20

    def test_undirected_degrees_are_one_tuple_given_twice(self):
        # The closure holds (v, u) with each (u, v): out- and in-degrees are
        # equal, so they are counted once and are one object. Directed
        # graphs keep two tuples. Both equal the edge-set counts.
        shared = 0
        for g in [build_graph(1, [], "a", True), build_graph(1, [(0, 0)], "a", True),
                  *self.graphs()]:
            out_degree, in_degree = g.degrees
            outs, ins = self.edge_counts(g)
            assert out_degree == tuple(map(len, outs))
            assert in_degree == tuple(map(len, ins))
            if g.undirected_input:
                assert out_degree is in_degree
                shared += 1
            elif any(out_degree):
                assert out_degree is not in_degree
        assert shared > 80

    def test_signature_and_candidates_read_one_degree_pass(self):
        # The profile ``mine`` buckets a built candidate by.
        for g in self.graphs():
            sorted(zip(g.labels, *g.degrees))
            assert "degrees" in vars(g) and "sym_adj" not in vars(g)
            degrees = vars(g)["degrees"]
            target = build_graph(g.n, g.edges, g.labels, g.undirected_input)
            _candidates(_needs(g), target)
            assert vars(g)["degrees"] is degrees and "degrees" not in vars(target)
            outs, ins = self.edge_counts(g)
            assert degrees == (tuple(map(len, outs)), tuple(map(len, ins)))
            # The target's degree masks: "at least d" up to the largest.
            for masks, nbrs in zip(vars(target)["target_table"][3:5], (outs, ins)):
                assert len(masks) == max(map(len, nbrs), default=0) + 1
                for d, mask in enumerate(masks):
                    assert mask == sum(1 << v for v, a in enumerate(nbrs) if len(a) >= d)


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

    @staticmethod
    def reference(g, subset):
        """The induced subgraph read off the edge set: every edge with both
        ends in the subset, renumbered in ascending id order."""
        order = sorted(set(subset))
        new_id = {v: i for i, v in enumerate(order)}
        edges = {(new_id[u], new_id[v]) for u, v in g.edges
                 if u in new_id and v in new_id}
        return (len(order), edges, tuple(g.labels[v] for v in order),
                g.undirected_input, tuple(order))

    def test_equals_the_edge_set_reference_on_both_modes(self):
        # Every subset of seeded graphs of both modes, with self-loops and
        # isolated vertices, and n = 0 and 1.
        rng = random.Random(41)
        loops = isolated = 0
        for undirected in (True, False):
            graphs = [build_graph(0, [], [], undirected),
                      build_graph(1, [], "a", undirected),
                      build_graph(1, [(0, 0)], "b", undirected)]
            graphs += [random_graph(rng, rng.randrange(2, 7), undirected=undirected,
                                    loops=trial % 2 == 1, edge_prob=rng.uniform(0.1, 0.7))
                       for trial in range(30)]
            for g in graphs:
                loops += sum((v, v) in g.edges for v in g.vertices())
                isolated += sum(not a for a in g.sym_adj)
                for size in range(g.n + 1):
                    for subset in itertools.combinations(range(g.n), size):
                        sub = induced_subgraph(g, reversed(subset))
                        assert (sub.n, sub.edges, sub.labels, sub.undirected_input,
                                sub.orig_ids) == self.reference(g, subset)
        assert loops > 20 and isolated > 10

    def test_directed_template_drops_in_only_neighbours(self):
        # 1 is a neighbour of 0 and 2 in sym_adj, but only through 0 -> 1
        # and 2 -> 1: a directed subgraph keeps those edges one way.
        g = build_graph(3, [(0, 1), (2, 1)], "abc", undirected=False)
        assert g.sym_adj[1] == (0, 2)
        assert induced_subgraph(g, [0, 1, 2]).edges == {(0, 1), (2, 1)}
        assert induced_subgraph(g, [1, 2]).edges == {(1, 0)}
        undirected = build_graph(3, [(0, 1), (2, 1)], "abc", undirected=True)
        assert induced_subgraph(undirected, [1, 2]).edges == {(0, 1), (1, 0)}

    @pytest.mark.parametrize("undirected", [True, False])
    @pytest.mark.parametrize("subset,named", [
        ([0, 42], 42), ([7, 5, 0], 5), ([-2, 0, 5], -2), ([4], 4),
        ({1, 9, 4, 2}, 4), ([-1, -3], -3),
    ])
    def test_out_of_range_names_the_first_vertex_of_the_sorted_subset(
        self, undirected, subset, named
    ):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)], "abab", undirected)
        with pytest.raises(VertexNotInGraph) as err:
            induced_subgraph(g, subset)
        assert str(err.value) == f"vertex {named} not in graph of size 4"
