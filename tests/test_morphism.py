from __future__ import annotations

import random
from collections import deque

import pytest

import patmine.morphism
from patmine import (
    Dataset,
    Example,
    ExampleClass,
    LabeledGraph,
    build_graph,
    coverage,
    find_homomorphism,
    induced_subgraph,
    is_isomorphic,
)
from patmine.demo import HEXCHORD_SUBSET, TAILPATH_SUBSET, hexagon_with_chord
from patmine.morphism import _plan, count_covered, iter_homomorphisms

from oracles import (
    PatternTooLarge,
    bijection_isomorphic,
    brute_force_homomorphisms,
    is_homomorphism,
    random_graph,
    recursive_homomorphisms,
    unionfind_connected,
)


def path_graph(n, label="a"):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], [label] * n, True)


def cycle_graph(n, label="a"):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return build_graph(n, edges, [label] * n, True)


def permuted(rng, g):
    """g with its vertices renumbered by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    labels = [None] * g.n
    for v in range(g.n):
        labels[perm[v]] = g.labels[v]
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    return build_graph(g.n, edges, labels, g.undirected_input)


def rewired(rng, g):
    """g with one edge pair (a, b), (c, d) replaced by (a, d), (c, b) where
    possible. Every vertex keeps its label, in-degree and out-degree."""
    arcs = sorted(
        (u, v) for u, v in g.edges
        if u != v and (not g.undirected_input or u < v)
    )
    rng.shuffle(arcs)
    for i, (a, b) in enumerate(arcs):
        for c, d in arcs[i + 1:]:
            if len({a, b, c, d}) == 4 and (a, d) not in g.edges and (c, b) not in g.edges:
                kept = [e for e in arcs if e not in ((a, b), (c, d))]
                loops = [(v, v) for v in range(g.n) if (v, v) in g.edges]
                return build_graph(
                    g.n, kept + loops + [(a, d), (c, b)], g.labels, g.undirected_input
                )
    return g


class TestFindHomomorphism:
    def test_hexchord_maps_into_positive(self, template, positive):
        pattern = induced_subgraph(template, HEXCHORD_SUBSET)
        m = find_homomorphism(pattern, positive)
        assert m is not None
        assert is_homomorphism(pattern, positive, m)

    def test_hexchord_cannot_map_into_negative(self, template, negative):
        pattern = induced_subgraph(template, HEXCHORD_SUBSET)
        assert find_homomorphism(pattern, negative) is None

    def test_three_path_into_four_path(self):
        m = find_homomorphism(path_graph(3), path_graph(4))
        assert m is not None
        assert len(brute_force_homomorphisms(path_graph(3), path_graph(4))) == 4

    def test_label_mismatch_blocks(self):
        p = build_graph(1, [], ["b"], True)
        t = build_graph(2, [(0, 1)], ["a", "a"], True)
        assert find_homomorphism(p, t) is None

    def test_empty_pattern(self):
        assert find_homomorphism(
            build_graph(0, [], [], True), path_graph(2)
        ) == ()

    def test_directed_edge_orientation_respected(self):
        p = build_graph(2, [(0, 1)], ["a", "a"], False)
        t = build_graph(2, [(1, 0)], ["a", "a"], False)
        m = find_homomorphism(p, t)
        assert m == (1, 0)


class TestBruteForce:
    def test_single_vertex_counts_label_matches(self):
        p = build_graph(1, [], ["a"], True)
        t = build_graph(4, [(0, 1), (1, 2), (2, 3)], ["a", "b", "a", "a"], True)
        assert len(brute_force_homomorphisms(p, t)) == 3

    def test_forced_assignment(self):
        p = build_graph(2, [(0, 1)], ["a", "a"], False)
        t = build_graph(2, [(0, 1)], ["a", "a"], False)
        assert brute_force_homomorphisms(p, t) == [(0, 1)]

    def test_lexicographic_order(self):
        homs = brute_force_homomorphisms(path_graph(3), path_graph(4))
        assert homs == sorted(homs)

    def test_oversized_pattern_rejected(self):
        with pytest.raises(PatternTooLarge):
            brute_force_homomorphisms(path_graph(9), path_graph(9))


class TestIsIsomorphic:
    def test_two_chord_placements_isomorphic(self):
        assert is_isomorphic(hexagon_with_chord((1, 4)), hexagon_with_chord((0, 3)))

    def test_reflexive(self, template):
        assert is_isomorphic(template, template)

    def test_cycle_vs_path(self):
        assert not is_isomorphic(cycle_graph(6), path_graph(6))

    def test_labels_matter(self):
        g1 = build_graph(2, [(0, 1)], ["a", "b"], True)
        g2 = build_graph(2, [(0, 1)], ["a", "a"], True)
        assert not is_isomorphic(g1, g2)

    def test_equivalence_relation_on_pool(self):
        rng = random.Random(23)
        pool = [random_graph(rng, rng.randrange(2, 6)) for _ in range(12)]
        for g in pool:
            assert is_isomorphic(g, g)
        for g1 in pool:
            for g2 in pool:
                assert is_isomorphic(g1, g2) == is_isomorphic(g2, g1)
        for g1 in pool:
            for g2 in pool:
                for g3 in pool:
                    if is_isomorphic(g1, g2) and is_isomorphic(g2, g3):
                        assert is_isomorphic(g1, g3)

    def test_matches_bijection_oracle(self):
        # Permuted copies are isomorphic; rewired copies keep every vertex's
        # label and degrees, so only the search can tell them apart.
        rng = random.Random(29)
        for undirected in (True, False):
            for loops in (False, True):
                kind = dict(undirected=undirected, loops=loops)
                isomorphic = 0
                for _ in range(60):
                    n = rng.randrange(1, 8)
                    g1 = random_graph(rng, n, **kind)
                    draw = rng.random()
                    if draw < 0.4:
                        g2 = permuted(rng, g1)
                    elif draw < 0.7:
                        g2 = permuted(rng, rewired(rng, g1))
                    else:
                        g2 = random_graph(rng, n, **kind)
                    expected = bijection_isomorphic(g1, g2)
                    assert is_isomorphic(g1, g2) == expected
                    isomorphic += expected
                assert 0 < isomorphic < 60


class TestIterHomomorphisms:
    def test_first_yield_matches_find(self):
        rng = random.Random(61)
        for _ in range(40):
            pattern = random_graph(rng, rng.randrange(1, 6))
            target = random_graph(rng, rng.randrange(1, 8))
            first = next(iter_homomorphisms(pattern, target), None)
            assert first == find_homomorphism(pattern, target)

    def test_enumerates_same_set_as_brute_force(self):
        rng = random.Random(67)
        for _ in range(30):
            pattern = random_graph(rng, rng.randrange(1, 5))
            target = random_graph(rng, rng.randrange(1, 7))
            lazy = sorted(iter_homomorphisms(pattern, target))
            assert lazy == brute_force_homomorphisms(pattern, target)

    def test_same_sequence_as_recursive_reference(self):
        rng = random.Random(71)
        for undirected in (True, False):
            for loops in (False, True):
                kind = dict(undirected=undirected, loops=loops)
                several = 0
                for _ in range(50):
                    pattern = random_graph(rng, rng.randrange(1, 6), **kind)
                    target = random_graph(rng, rng.randrange(1, 9), **kind)
                    expected = list(recursive_homomorphisms(pattern, target))
                    assert list(iter_homomorphisms(pattern, target)) == expected
                    several += len(expected) > 1
                assert several > 0

    def test_empty_pattern_yields_one_empty_mapping(self):
        empty = build_graph(0, [], [], True)
        for target in (empty, path_graph(3)):
            assert list(iter_homomorphisms(empty, target)) == [()]


class TestPlan:
    """``_plan`` against the rule its docstring states, computed here from
    the raw edge set. The recursive reference walks ``_plan`` itself, so only
    this test sees a change of the order."""

    @staticmethod
    def reference_plan(pattern, target):
        if pattern.n > target.n:
            return None
        n, edges = pattern.n, pattern.edges
        nbrs = [
            sorted({b for a, b in edges if a == v} | {a for a, b in edges if b == v})
            for v in range(n)
        ]
        unplaced = set(range(n))
        order = []
        while unplaced:
            start = min(unplaced, key=lambda v: (-len(nbrs[v]), v))
            unplaced.discard(start)
            queue = deque([start])
            while queue:
                v = queue.popleft()
                order.append(v)
                for w in nbrs[v]:
                    if w in unplaced:
                        unplaced.discard(w)
                        queue.append(w)
        pos = {v: i for i, v in enumerate(order)}
        checks = [set() for _ in order]
        for a, b in edges:
            if pos[a] > pos[b]:
                checks[pos[a]].add((pos[b], True))
            elif pos[b] > pos[a]:
                checks[pos[b]].add((pos[a], False))

        def out_in(g, v):
            return sum(a == v for a, _ in g.edges), sum(b == v for _, b in g.edges)

        candidates = [
            [
                t for t in range(target.n)
                if target.labels[t] == pattern.labels[v]
                and all(x >= y for x, y in zip(out_in(target, t), out_in(pattern, v)))
                and ((v, v) not in edges or (t, t) in target.edges)
            ]
            for v in order
        ]
        if not all(candidates):
            return None
        return order, checks, candidates

    def test_matches_documented_rule(self):
        rng = random.Random(79)
        planned = disconnected = start_ties = 0
        for undirected in (True, False):
            for loops in (False, True):
                kind = dict(undirected=undirected, loops=loops)
                for _ in range(60):
                    pattern = random_graph(rng, rng.randrange(1, 8), **kind)
                    other = random_graph(rng, rng.randrange(1, 10), **kind)
                    for target in (pattern, other):
                        expected = self.reference_plan(pattern, target)
                        plan = _plan(pattern, target)
                        if expected is None:
                            assert plan is None
                            continue
                        (order, checks, candidates), want = plan, expected
                        assert order == want[0]
                        assert list(map(sorted, checks)) == list(map(sorted, want[1]))
                        assert candidates == want[2]
                        planned += 1
                    degree = [len(a) for a in pattern.sym_adj]
                    disconnected += not unionfind_connected(pattern)
                    start_ties += degree.count(max(degree, default=0)) > 1
        assert planned > 300 and disconnected > 20 and start_ties > 50


class TestCaches:
    """Each graph caches what every search into or from it reads: the
    per-label vertex index, the adjacency and degree tables and the
    edge-label pairs. The caches are read-only, so a graph with warm caches
    plans, searches and compares exactly as a fresh equal copy does."""

    CACHED = ("by_label", "label_pairs", "out_adj", "in_adj", "sym_adj",
              "out_degree", "in_degree")

    @staticmethod
    def fresh(g):
        return LabeledGraph(g.n, g.edges, g.labels, g.undirected_input)

    @staticmethod
    def instances(seed):
        """Seeded (pattern, six targets), directed and undirected, with
        self-loops."""
        rng = random.Random(seed)
        for undirected in (True, False):
            for _ in range(40):
                kind = dict(undirected=undirected, loops=True)
                pattern = random_graph(rng, rng.randrange(1, 5), **kind)
                yield pattern, [
                    random_graph(rng, rng.randrange(1, 8), **kind) for _ in range(6)
                ]

    def test_warm_plans_match_fresh_copies(self):
        planned = 0
        for pattern, targets in self.instances(83):
            # The second pass plans against targets whose caches are warm.
            for target in targets + targets:
                plan = _plan(pattern, target)
                fresh_p, fresh_t = self.fresh(pattern), self.fresh(target)
                assert plan == _plan(fresh_p, fresh_t)
                want = TestPlan.reference_plan(pattern, target)
                if want is None:
                    assert plan is None
                    continue
                order, checks, candidates = plan
                assert order == want[0] and candidates == want[2]
                assert list(map(sorted, checks)) == list(map(sorted, want[1]))
                assert list(iter_homomorphisms(pattern, target)) == list(
                    iter_homomorphisms(fresh_p, fresh_t)
                )
                planned += 1
        assert planned > 300

    def test_interleaved_streams_match_independent_ones(self):
        witnesses = 0
        for pattern, targets in self.instances(89):
            # Two streams into each target, advanced in turn, as the
            # monolithic search keeps one stream per example alive.
            streams = [iter_homomorphisms(pattern, t) for t in targets + targets]
            got = [[] for _ in streams]
            live = list(range(len(streams)))
            while live:
                for i in list(live):
                    m = next(streams[i], None)
                    if m is None:
                        live.remove(i)
                    else:
                        got[i].append(m)
            assert got == [
                list(iter_homomorphisms(self.fresh(pattern), self.fresh(t)))
                for t in targets + targets
            ]
            witnesses += sum(map(len, got))
        assert witnesses > 800

    def test_populated_caches_keep_equality_and_hash(self):
        for pattern, targets in self.instances(97):
            for g in [pattern, *targets]:
                copy = self.fresh(g)
                for name in self.CACHED:
                    getattr(g, name)
                assert all(name in vars(g) for name in self.CACHED)
                assert not any(name in vars(copy) for name in self.CACHED)
                assert g == copy and copy == g and hash(g) == hash(copy)
                assert {copy: True}[g]


class TestDeepInputs:
    """A 1,200-vertex path is deeper than the default recursion limit, so a
    search that recursed once per pattern vertex would fail on it."""

    def test_path_searches_return(self):
        g = path_graph(1200)
        m = find_homomorphism(g, g)
        assert m is not None and is_homomorphism(g, g, m)
        assert next(iter_homomorphisms(g, g)) == m
        assert is_isomorphic(g, g)


class TestOracleEquivalence:
    def test_find_matches_brute_force_on_random_pairs(self):
        rng = random.Random(101)
        for _ in range(100):
            pattern = random_graph(rng, rng.randrange(1, 7))
            target = random_graph(rng, rng.randrange(1, 9))
            homs = brute_force_homomorphisms(pattern, target)
            found = find_homomorphism(pattern, target)
            assert (found is None) == (len(homs) == 0)
            if found is not None:
                assert found in homs
                assert is_homomorphism(pattern, target, found)

    def test_isomorphic_targets_interchangeable(self):
        rng = random.Random(37)
        for _ in range(25):
            n = rng.randrange(2, 6)
            t1 = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            labels = [None] * n
            for v in range(n):
                labels[perm[v]] = t1.labels[v]
            t2 = build_graph(
                n, [(perm[u], perm[v]) for u, v in t1.edges], labels, True
            )
            assert is_isomorphic(t1, t2)
            p = random_graph(rng, rng.randrange(1, n + 1))
            assert (find_homomorphism(p, t1) is None) == (
                find_homomorphism(p, t2) is None
            )


class TestLabelPairs:
    def test_directed_pairs_and_loops(self):
        g = build_graph(3, [(0, 1), (2, 2), (1, 0)], ["a", "b", "c"], False)
        assert g.label_pairs == {("a", "b"), ("b", "a"), ("c", "c")}
        h = build_graph(2, [(0, 1)], ["a", "b"], True)
        assert h.label_pairs == {("a", "b"), ("b", "a")}

    def test_missing_pair_means_no_homomorphism(self):
        # The coverage scan reports a miss without a search when the
        # example lacks one of the pattern's label pairs; that must only
        # happen where no injective homomorphism exists.
        rng = random.Random(2024)
        fired = 0
        for undirected in (True, False):
            for _ in range(300):
                pattern = random_graph(rng, rng.randrange(1, 5), ("a", "b", "c"),
                                       undirected=undirected, loops=True)
                target = random_graph(rng, rng.randrange(1, 7), ("a", "b", "c"),
                                      undirected=undirected, loops=True)
                if not pattern.label_pairs <= target.label_pairs:
                    fired += 1
                    assert brute_force_homomorphisms(pattern, target) == []
        assert fired > 200


def labelled_dataset(*graphs):
    """A dataset whose examples are ``graphs``, all positive, N+ = 1."""
    return Dataset(
        template=graphs[0],
        examples=tuple(
            Example(i, ExampleClass.POSITIVE, g) for i, g in enumerate(graphs)
        ),
        n_pos_threshold=1,
        n_neg_threshold=0,
    )


class TestCoverage:
    # An a-b edge maps into itself; the second example has both labels
    # but no a-b edge.
    AB = build_graph(2, [(0, 1)], ["a", "b"], True)
    AA_B = build_graph(3, [(0, 1)], ["a", "a", "b"], True)

    def test_label_miss_reads_false_without_search(self, monkeypatch):
        ds = labelled_dataset(self.AB, self.AA_B)
        assert not self.AB.label_pairs <= self.AA_B.label_pairs
        monkeypatch.setattr(patmine.morphism, "find_homomorphism", None)
        rep = coverage(self.AB, labelled_dataset(self.AA_B), ExampleClass.POSITIVE)
        assert rep.per_example == ((0, False),) and rep.positive_covered == 0
        monkeypatch.undo()
        rep = coverage(self.AB, ds, ExampleClass.POSITIVE)
        assert rep.per_example == ((0, True), (1, False))

    def test_label_miss_past_early_stop_reads_none(self):
        # The count stops at its first hit: the label miss after it is not
        # tested, so it does not join the miss set.
        ds = labelled_dataset(self.AB, self.AA_B)
        misses = set()
        assert count_covered(self.AB, ds, ExampleClass.POSITIVE, 1, misses) == 1
        assert misses == set()

    def test_hexchord_covers_positive(self, template, dataset):
        pattern = induced_subgraph(template, HEXCHORD_SUBSET)
        rep = coverage(pattern, dataset, ExampleClass.POSITIVE)
        assert rep.positive_covered == 1
        assert rep.per_example == ((0, True),)

    def test_tailpath_covers_negative(self, template, dataset):
        pattern = induced_subgraph(template, TAILPATH_SUBSET)
        rep = coverage(pattern, dataset, ExampleClass.NEGATIVE)
        assert rep.negative_covered == 1

    def test_empty_class_scan(self, template, dataset):
        pattern = induced_subgraph(template, TAILPATH_SUBSET)
        pos_only = type(dataset)(
            template=dataset.template,
            examples=tuple(ex for ex in dataset.examples if ex.graph_id == 0),
            n_pos_threshold=0,
            n_neg_threshold=0,
        )
        rep = coverage(pattern, pos_only, ExampleClass.NEGATIVE)
        assert rep.negative_covered == 0 and rep.per_example == ()

    def test_early_stop_marks_unknown(self, monkeypatch, template, dataset):
        # A count that stops at 0 tests no example.
        pattern = induced_subgraph(template, TAILPATH_SUBSET)
        monkeypatch.setattr(patmine.morphism, "find_homomorphism", None)
        misses = set()
        assert count_covered(pattern, dataset, ExampleClass.POSITIVE, 0, misses) == 0
        assert misses == set()

    def test_full_counts_match_brute_force(self, dataset):
        rng = random.Random(41)
        for _ in range(15):
            pattern = random_graph(rng, rng.randrange(1, 5), labels=("a",))
            rep = coverage(pattern, dataset, ExampleClass.POSITIVE)
            expected = sum(
                bool(brute_force_homomorphisms(pattern, ex.graph))
                for ex in dataset.positives()
            )
            assert rep.positive_covered == expected
