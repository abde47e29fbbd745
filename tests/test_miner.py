from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

import patmine.miner
from patmine import (
    Dataset,
    Example,
    ExampleClass,
    LabeledGraph,
    MiningConfig,
    Strategy,
    build_graph,
    candidate_subsets,
    coverage,
    evaluate_strategy,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    is_valid_pattern,
    mine,
)
from patmine.dataio import SynthParams, gen_synthetic
from patmine.demo import HEXCHORD_SUBSET, TAILPATH_SUBSET, demo_dataset
from patmine.morphism import count_covered

from oracles import (
    BRUTE_FORCE_MAX_PATTERN,
    adjacency_signature,
    bijection_isomorphic,
    brute_force_homomorphisms,
    exhaustive_pattern_classes,
    random_graph,
    reference_mine,
    unionfind_connected,
)
from test_acceptance import desk_scale_instances


def config(n_pos=1, n_neg=0, **kw):
    return MiningConfig(n_pos_threshold=n_pos, n_neg_threshold=n_neg, **kw)


class TestCandidateSubsets:
    def test_size_two_yields_template_edges(self, template):
        subsets = list(candidate_subsets(template, 2))
        expected = sorted({(min(u, v), max(u, v)) for u, v in template.edges})
        assert subsets == expected
        assert len(subsets) == 9

    def test_singletons_are_connected(self, template):
        assert list(candidate_subsets(template, 1)) == [(v,) for v in range(8)]

    def test_lexicographic_order(self, template):
        for size in (2, 3, 4, 5):
            subsets = list(candidate_subsets(template, size))
            assert subsets == sorted(subsets)
            assert len(set(subsets)) == len(subsets)

    def test_only_connected_induced_subgraphs(self, template):
        from patmine import is_connected

        got = set(candidate_subsets(template, 4))
        import itertools

        for subset in itertools.combinations(range(template.n), 4):
            expected = is_connected(induced_subgraph(template, subset))
            assert (subset in got) == expected

    def test_subsets_deeper_than_recursion_limit(self):
        # ESU grows a subset one vertex per step, so k = 1100 is 1100 steps.
        n = 1200
        path = build_graph(n, [(i, i + 1) for i in range(n - 1)], ["a"] * n, True)
        subsets = list(candidate_subsets(path, 1100))
        assert subsets == [tuple(range(r, r + 1100)) for r in range(101)]

    @pytest.mark.parametrize("trial", range(8))
    def test_root_bound_equals_every_root(self, trial):
        # Roots above n - k are not enumerated; the brute force over every
        # k-combination shows they would add no k-subset.
        rng = random.Random(90 + trial)
        t = random_graph(
            rng, rng.randrange(4, 9), edge_prob=(0.3, 0.6)[trial % 2],
            undirected=trial % 2 == 0, loops=trial % 4 >= 2,
        )
        for k in range(1, t.n + 2):
            brute = [s for s in itertools.combinations(range(t.n), k)
                     if is_connected(induced_subgraph(t, s))]
            assert list(candidate_subsets(t, k)) == brute


class TestIsValidPattern:
    def test_hexchord_valid(self, template, dataset):
        pattern = induced_subgraph(template, HEXCHORD_SUBSET)
        assert is_valid_pattern(pattern, dataset, config()) == (True, 1, 0)

    def test_tailpath_invalid_by_negative(self, template, dataset):
        pattern = induced_subgraph(template, TAILPATH_SUBSET)
        assert is_valid_pattern(pattern, dataset, config()) == (False, 1, 1)

    def test_vacuous_thresholds_accept_anything(self, template, dataset):
        cfg = config(n_pos=0, n_neg=len(dataset.negatives()))
        pattern = induced_subgraph(template, TAILPATH_SUBSET)
        ok, _, _ = is_valid_pattern(pattern, dataset, cfg)
        assert ok


def decided_by(monkeypatch, dataset, cfg):
    """Mine ``dataset`` and return the results and, for each candidate
    that took another subset's decision, in scan order: (candidate,
    that subset, path, built), subsets as tuples. The path is the step
    that decides it: "extension" when ``miner._extension`` gives it the
    key an earlier candidate got, whose decision it takes (the candidate
    is yielded, not pruned and never built, and built is None), else
    "search" when ``miner._entry`` maps it into another pattern of its
    bucket, and built is (the candidate's graph, that pattern)."""
    shared, firsts = [], {}
    real_entry, real_extension = patmine.miner._entry, patmine.miner._extension

    def entry(pattern, bucket):
        found, iso = real_entry(pattern, bucket)
        if found is not pattern:
            shared.append((pattern.orig_ids, found.orig_ids, "search", (pattern, found)))
        return found, iso

    def extension(template, subset, below):
        found = real_extension(template, subset, below)
        if found is not None and (first := firsts.setdefault(found[0], subset)) != subset:
            shared.append((subset, first, "extension", None))
        return found

    monkeypatch.setattr(patmine.miner, "_entry", entry)
    monkeypatch.setattr(patmine.miner, "_extension", extension)
    results = mine(dataset, cfg)
    monkeypatch.undo()
    return results, shared


def owners(shared):
    """Each candidate in ``shared`` (from :func:`decided_by`) mapped to the
    subset whose own decision it took: an extension's first candidate was
    built, and is that subset or was decided by it."""
    owner: dict[tuple[int, ...], tuple[int, ...]] = {}
    for candidate, decider, _, _ in shared:
        owner[candidate] = owner.get(decider, decider)
    return owner


def occurrences(monkeypatch, template, min_size=1, max_size=None, paths=None):
    """Mine ``template`` with vacuous thresholds, so every candidate is
    valid, and map each emitted subset to its occurrences in the template:
    itself, then the candidates blocked as isomorphic to it, in scan order.
    With every candidate valid, each shared decision is a blocking one: an
    extension takes that of an earlier candidate, which is emitted or
    blocked itself. The path that found it is counted in ``paths`` when
    one is given."""
    ds = Dataset(template=template, examples=(), n_pos_threshold=0,
                 n_neg_threshold=0)
    results, shared = decided_by(monkeypatch, ds, config(
        n_pos=0, min_pattern_size=min_size, max_pattern_size=max_size))
    owner = owners(shared)
    blocked: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for candidate, _, path, _ in shared:
        blocked.setdefault(owner[candidate], []).append(candidate)
        if paths is not None:
            paths[path] += 1
    return {r.subset: [r.subset, *blocked.get(r.subset, [])] for r in results}


def two_cycles():
    """Two one-label directed 5-cycles, numbered along the cycle and in
    steps of 2: isomorphic, and every vertex has one colour."""
    return build_graph(10, [(v, (v + 1) % 5) for v in range(5)]
                       + [(5 + v, 5 + (v + 2) % 5) for v in range(5)], "a" * 10, False)


class TestTemplateOccurrences:
    def test_hexchord_occurs_once(self, monkeypatch, template):
        occ = occurrences(monkeypatch, template, 6, 6)
        assert occ[HEXCHORD_SUBSET] == [HEXCHORD_SUBSET]

    def test_single_vertex_everywhere(self, monkeypatch, template):
        occ = occurrences(monkeypatch, template, 1, 1)
        assert occ == {(0,): [(v,) for v in range(8)]}

    def test_two_path_occurs_per_edge(self, monkeypatch, template):
        occ = occurrences(monkeypatch, template, 2, 2)
        assert list(occ.values()) == [list(candidate_subsets(template, 2))]
        assert len(occ[(0, 1)]) == 9

    def test_includes_own_subset(self, monkeypatch, template):
        k = len(TAILPATH_SUBSET)
        occ = occurrences(monkeypatch, template, k, k)
        owners = [s for s, group in occ.items() if TAILPATH_SUBSET in group]
        assert len(owners) == 1
        tailpath = induced_subgraph(template, TAILPATH_SUBSET)
        assert bijection_isomorphic(induced_subgraph(template, owners[0]), tailpath)

    def test_equals_brute_force_isomorphic_subsets(self, monkeypatch):
        # Each level emits the lexicographically first subset of every
        # isomorphism class, and blocks exactly the rest of the class.
        # Both ways of finding the blocking pattern occur. Two one-label
        # directed 5-cycles, numbered along the cycle and in steps of 2,
        # show both on one pair: mined from size 1, the second cycle
        # extends a 4-path the way the first does and takes its decision
        # by extension key; mined from size 5, where no level below is
        # kept, the search decides it.
        rng = random.Random(53)
        checked = 0
        paths = Counter()
        templates = [(random_graph(
            rng, rng.randrange(4, 8), edge_prob=0.5,
            undirected=trial % 2 == 0, loops=trial % 4 >= 2,
        ), 1, 4) for trial in range(24)]
        cycles = two_cycles()
        for t, low, top in [*templates, (cycles, 1, 5), (cycles, 5, 5)]:
            occ = occurrences(monkeypatch, t, low, top, paths)
            for k in range(low, top + 1):
                classes: list[list[tuple[int, ...]]] = []
                for s in itertools.combinations(range(t.n), k):
                    g = induced_subgraph(t, s)
                    if not unionfind_connected(g):
                        continue
                    for cls in classes:
                        if bijection_isomorphic(induced_subgraph(t, cls[0]), g):
                            cls.append(s)
                            break
                    else:
                        classes.append([s])
                level = {s: group for s, group in occ.items() if len(s) == k}
                assert level == {cls[0]: cls for cls in classes}
                checked += sum(len(cls) > 1 for cls in classes)
        assert checked > 0
        assert set(paths) == {"search", "extension"}, paths


def seeded_templates():
    """Seeded random templates: undirected and directed, with and without
    self-loops, two labels, sparse to dense."""
    rng = random.Random(71)
    return [
        random_graph(
            rng, rng.randrange(5, 8), edge_prob=(0.3, 0.5, 0.8)[trial % 3],
            undirected=trial % 2 == 0, loops=trial % 4 >= 2,
        )
        for trial in range(12)
    ]


SEEDED_TEMPLATES = seeded_templates()


def switched_union(g):
    """``g`` beside a copy of itself (ids shifted by ``g.n``) in which the
    edges a->x and c->y become a->y and c->x, where a, c and x, y have
    equal (label, out-degree, in-degree). Every vertex keeps that triple,
    so both copies have one degree profile, and its one-round colour, so
    they share :func:`oracles.adjacency_signature` too. The first such
    swap that leaves the copy connected, or None when there is none."""
    colour = list(zip(g.labels, *g.degrees))
    for (a, x), (c, y) in itertools.combinations(sorted(g.edges), 2):
        if len({a, x, c, y}) < 4 or colour[a] != colour[c] or colour[x] != colour[y]:
            continue
        old, new = {(a, x), (c, y)}, {(a, y), (c, x)}
        if g.undirected_input:
            old |= {(v, u) for u, v in old}
            new |= {(v, u) for u, v in new}
        edges = (g.edges - old) | new
        copy = build_graph(g.n, edges, g.labels, g.undirected_input)
        if len(edges) == len(g.edges) and is_connected(copy):
            return build_graph(
                2 * g.n, [*g.edges, *((u + g.n, v + g.n) for u, v in edges)],
                g.labels * 2, g.undirected_input,
            )
    return None


class TestOccurrenceSignature:
    """The class table's buckets: which built candidates share one, and
    how a bucket decides a candidate."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def bucket_pairs(trial):
        """Mine seeded template ``trial`` with vacuous thresholds from size
        1, where every level above the first keys on its deck too, and from
        size 3, whose first level keys on the degree profile alone. Returns
        the isomorphic pairs of built patterns, as (pair of orig_ids, both
        looked up in one bucket), counted by (min size, above the first
        level)."""
        t = SEEDED_TEMPLATES[trial]
        ds = Dataset(template=t, examples=(), n_pos_threshold=0, n_neg_threshold=0)
        real = patmine.miner._entry
        pairs = Counter()
        for min_size in (1, 3):
            looked_up = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(patmine.miner, "_entry", lambda g, bucket: (
                    looked_up.append((g, bucket)) or real(g, bucket)))
                mine(ds, config(n_pos=0, min_pattern_size=min_size))
            for (a, in_a), (b, in_b) in itertools.combinations(looked_up, 2):
                if a.n == b.n and bijection_isomorphic(a, b):
                    key = (min_size, a.n > min_size)
                    pairs[key, (a.orig_ids, b.orig_ids), in_a is in_b] += 1
        return pairs

    @pytest.mark.parametrize("trial", range(len(SEEDED_TEMPLATES)))
    def test_isomorphic_subsets_share_a_group(self, trial):
        # The class table's bucket key is sound: every two patterns a level
        # builds that are isomorphic were looked up in one bucket.
        pairs = self.bucket_pairs(trial)
        assert [ids for (_, ids, same) in pairs if not same] == []
        assert pairs

    def test_isomorphic_patterns_share_a_bucket(self):
        # Over the seeded templates, isomorphic pairs are met on first
        # levels and on deck-keyed levels above them, from both min sizes.
        # Three templates build no such pair above their first level.
        counts = Counter()
        for trial in range(len(SEEDED_TEMPLATES)):
            for (key, _, _), n in self.bucket_pairs(trial).items():
                counts[key] += n
        assert min(counts.values()) >= 8 and len(counts) == 4, counts

    @pytest.mark.parametrize("trial", range(len(SEEDED_TEMPLATES)))
    def test_groups_partition_the_level(self, monkeypatch, trial):
        # An emitted subset and the candidates it blocks form one group;
        # with every candidate valid, a level's groups partition it.
        t = SEEDED_TEMPLATES[trial]
        occ = occurrences(monkeypatch, t)
        for k in range(1, t.n + 1):
            groups = [group for s, group in occ.items() if len(s) == k]
            members = [subset for group in groups for subset in group]
            assert sorted(members) == list(patmine.miner._connected_ksubsets(t, k))
            for group in groups:
                assert group == sorted(group)

    def test_search_decides_a_bucket(self, monkeypatch):
        # A one-label directed 5-cycle, a renumbered copy of it and a
        # 2-cycle beside a 3-cycle have one degree profile, so they may
        # share a bucket. The copy maps into the cycle, and that mapping is
        # the isomorphism returned; the split graph maps into nothing in the
        # bucket, so it is appended and keeps the identity.
        cycle = build_graph(5, [(v, (v + 1) % 5) for v in range(5)], "a" * 5, False)
        copy = build_graph(5, [(v, (v + 2) % 5) for v in range(5)], "a" * 5, False)
        split = build_graph(5, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)], "a" * 5, False)
        bucket = []
        assert patmine.miner._entry(cycle, bucket) == (cycle, tuple(range(5)))
        verdicts = []
        real = patmine.miner.find_homomorphism
        monkeypatch.setattr(patmine.miner, "find_homomorphism",
                            lambda g1, g2: verdicts.append(real(g1, g2)) or verdicts[-1])
        for g, same in ((copy, True), (split, False)):
            assert sorted(zip(g.labels, *g.degrees)) == sorted(zip(cycle.labels, *cycle.degrees))
            assert bijection_isomorphic(cycle, g) == same
            rep, iso = patmine.miner._entry(g, bucket)
            assert (rep is cycle) == same and (rep is g) == (not same)
            assert iso == (verdicts[-1] if same else tuple(range(5)))
        assert [mapping is not None for mapping in verdicts] == [True, False]
        assert {(verdicts[0][u], verdicts[0][v]) for u, v in copy.edges} == cycle.edges
        assert bucket == [cycle, split]

    def test_blocking_lookup_tests_only_isomorphic_patterns(self, monkeypatch):
        # The canonicity-heavy benchmark instance: 2 labels, N+=1, max-size 6.
        # 1,162 candidates are blocked. An extension key decides 946 of
        # them unbuilt; a search in the class table decides the 216 built.
        # Each of the 217 searches, one per built copy, meets a bucket whose
        # first pattern is isomorphic to it, so none misses.
        # Two more candidates are copies of one that failed N+ and take
        # its record unevaluated: one extends its class the same way, and
        # the class table holds the other's rejected class. No candidate an
        # extension key decides is built; one the class table decides builds
        # its adjacency table for its search.
        base = gen_synthetic(SynthParams(4, (20, 25), 30, 2, 1.0, 0))
        ds = Dataset(template=base.template, examples=base.examples,
                     n_pos_threshold=1, n_neg_threshold=0)
        verdicts, built = [], set()
        real_find, real_induced = patmine.miner.find_homomorphism, induced_subgraph
        monkeypatch.setattr(patmine.miner, "find_homomorphism",
                            lambda g1, g2: verdicts.append(real_find(g1, g2)) or verdicts[-1])
        monkeypatch.setattr(patmine.miner, "induced_subgraph",
                            lambda g, s: built.add(s) or real_induced(g, s))
        results, shared = decided_by(monkeypatch, ds, config(max_pattern_size=6))
        emitted = {r.subset for r in results}
        owner = owners(shared)
        blocked = [(candidate, path, graphs) for candidate, _, path, graphs in shared
                   if owner[candidate] in emitted]
        assert len(results) == 222
        assert Counter(path for _, path, _ in blocked) == {"extension": 946, "search": 216}
        assert len(verdicts) == 217 and None not in verdicts
        assert not any(c in built for c, path, _ in blocked if path == "extension")
        assert all("sym_adj" in graphs[0].__dict__ for _, path, graphs in blocked
                   if path == "search")
        rejected = [(owner[c], path) for c, _, path, _ in shared if owner[c] not in emitted]
        assert [path for _, path in rejected] == ["extension", "search"]
        assert len({subset for subset, _ in rejected}) == 1
        pattern = induced_subgraph(ds.template, rejected[0][0])
        assert is_valid_pattern(pattern, ds, config()) == (False, 0, 0)


class TestEvaluateStrategy:
    @pytest.mark.parametrize("subset,expected", [
        (HEXCHORD_SUBSET, True),
        (TAILPATH_SUBSET, False),
    ])
    def test_strategies_agree_on_demo_candidates(
        self, template, dataset, subset, expected
    ):
        pattern = induced_subgraph(template, subset)
        dec = evaluate_strategy(pattern, dataset, config(strategy=Strategy.DECOMPOSED))
        mono = evaluate_strategy(pattern, dataset, config(strategy=Strategy.MONOLITHIC))
        assert dec[0] == mono[0] == expected

    def test_single_positive_degenerate_case(self, template, dataset):
        one = Dataset(
            template=template,
            examples=dataset.examples[:1],
            n_pos_threshold=1,
            n_neg_threshold=0,
        )
        pattern = induced_subgraph(template, HEXCHORD_SUBSET)
        dec = evaluate_strategy(pattern, one, config(strategy=Strategy.DECOMPOSED))
        mono = evaluate_strategy(pattern, one, config(strategy=Strategy.MONOLITHIC))
        assert dec == mono == (True, 1, 0)

    @pytest.mark.parametrize("instance", range(20))
    def test_established_counts(self, instance):
        # Pinned (valid, pos, neg) of both strategies for every connected
        # subset of size 1-4, N+ in 0..P and N- in 0..2, from the full-scan
        # coverage counts C+/C- and per-example hits. On an N+ failure the
        # decomposed pos is the chronological count over the positives that
        # have every edge-label pair of the pattern, the ones it searches.
        ds = (desk_scale_instances() + small_instances())[instance]
        n_positives = len(ds.positives())
        checked = 0
        for size in range(1, 5):
            for subset in candidate_subsets(ds.template, size):
                pattern = induced_subgraph(ds.template, subset)
                pos_hits = [h for _, h in coverage(
                    pattern, ds, ExampleClass.POSITIVE).per_example]
                neg_hits = [h for _, h in coverage(
                    pattern, ds, ExampleClass.NEGATIVE).per_example]
                cp, cn = sum(pos_hits), sum(neg_hits)
                pairs = edge_label_pairs(pattern)
                searched_hits = [
                    hit for ex, hit in zip(ds.positives(), pos_hits)
                    if pairs <= edge_label_pairs(ex.graph)
                ]
                for n_pos in range(n_positives + 1):
                    for n_neg in range(3):
                        ok = cp >= n_pos and cn <= n_neg
                        dec_pos = (n_pos if cp >= n_pos
                                   else chronological_count(searched_hits, n_pos))
                        dec = evaluate_strategy(pattern, ds, config(n_pos, n_neg))
                        assert dec == (ok, dec_pos,
                                       0 if cp < n_pos else min(cn, n_neg + 1))
                        mono_pos = chronological_count(pos_hits, n_pos)
                        mono_neg = (chronological_count(neg_hits, n_neg + 1)
                                    if mono_pos >= n_pos else 0)
                        mono = evaluate_strategy(pattern, ds, config(
                            n_pos, n_neg, strategy=Strategy.MONOLITHIC))
                        assert mono == (ok, mono_pos, mono_neg)
                        checked += 1
        assert checked > 0


def chronological_count(hits, threshold):
    """Count the monolithic search establishes for one class with these
    per-example hits: the hits before the first depth d where hits so far
    plus the m - d examples left cannot reach ``threshold``, or all hits if
    there is no such depth."""
    t = 0
    for d, hit in enumerate(hits):
        if t + (len(hits) - d) < threshold:
            return t
        t += hit
    return t


def edge_label_pairs(g):
    """(source label, target label) of each edge of ``g``, read off its
    edges and labels, so no graph caches its ``label_pairs``."""
    return {(g.labels[u], g.labels[v]) for u, v in g.edges}


def small_instances():
    """Seeded desk-scale instances: template <= 8 vertices, <= 6 examples."""
    out = []
    for seed in range(10):
        params = SynthParams(
            n_graphs=4 + (seed % 3),
            vertex_range=(4, 8),
            target_avg_edges=7,
            n_labels=2,
            positive_fraction=0.7,
            seed=1000 + seed,
        )
        ds = gen_synthetic(params)
        ds = Dataset(
            template=ds.template,
            examples=ds.examples,
            n_pos_threshold=1 + (seed % 2),
            n_neg_threshold=seed % 2,
        )
        out.append(ds)
    return out


class TestMine:
    def test_demo_matches_exhaustive_oracle(self, dataset):
        results = mine(dataset, config(min_pattern_size=2))
        oracle = exhaustive_pattern_classes(dataset, 2, dataset.template.n)

        mined_by_size: dict[int, list] = {}
        for res in results:
            mined_by_size.setdefault(res.pattern.n, []).append(res.pattern)

        for size, expected in oracle.items():
            got = mined_by_size.get(size, [])
            assert len(got) == len(expected), f"size {size}"
            for g in got:
                assert any(bijection_isomorphic(g, e) for e in expected)

        # no candidate shapes appear below size 4 on the demo instance
        assert set(mined_by_size) == {4, 5, 6}
        assert Counter({k: len(v) for k, v in mined_by_size.items()}) == Counter(
            {4: 2, 5: 3, 6: 5}
        )

    @staticmethod
    def directed_instances():
        """Twelve seeded directed instances: templates of 4-6 vertices,
        2-3 positive and 1-2 negative examples of 3-6 vertices, with
        one-way and antiparallel edges, and self-loops in every other one."""
        rng = random.Random(41)
        for i in range(12):
            kind = dict(undirected=False, loops=i % 2 == 1)
            template = random_graph(rng, rng.randrange(4, 7), **kind)
            classes = ([ExampleClass.POSITIVE] * rng.randrange(2, 4)
                       + [ExampleClass.NEGATIVE] * rng.randrange(1, 3))
            examples = tuple(
                Example(gid, cls, random_graph(rng, rng.randrange(3, 7),
                                               edge_prob=0.5, **kind))
                for gid, cls in enumerate(classes)
            )
            yield Dataset(template, examples, rng.randrange(1, 3), rng.randrange(2))

    def test_directed_instances_match_exhaustive_oracle(self):
        # gen_synthetic makes only undirected datasets, so this is the one
        # end-to-end check of directed back-edge checks and induced edges.
        mined = Counter()
        for ds in self.directed_instances():
            oracle = exhaustive_pattern_classes(ds, 1, ds.template.n)
            for strategy in Strategy:
                results = mine(ds, config(ds.n_pos_threshold, ds.n_neg_threshold,
                                          min_pattern_size=1, strategy=strategy))
                by_size: dict[int, list] = {}
                for res in results:
                    by_size.setdefault(res.pattern.n, []).append(res.pattern)
                    edges = res.pattern.edges
                    mined["pattern"] += 1
                    mined["antiparallel"] += any(
                        u != v and (v, u) in edges for u, v in edges)
                    mined["one-way"] += any((v, u) not in edges for u, v in edges)
                    mined["self-loop"] += any(u == v for u, v in edges)
                for size, expected in oracle.items():
                    got = by_size.get(size, [])
                    assert len(got) == len(expected), f"{strategy} size {size}"
                    for g in got:
                        assert any(bijection_isomorphic(g, e) for e in expected)
        assert mined == {"pattern": 122, "antiparallel": 28, "one-way": 96,
                         "self-loop": 66}

    def test_hexchord_among_size_six_results(self, dataset, template):
        results = mine(dataset, config(min_pattern_size=6, max_pattern_size=6))
        hexchord = induced_subgraph(template, HEXCHORD_SUBSET)
        assert any(is_isomorphic(r.pattern, hexchord) for r in results)
        assert HEXCHORD_SUBSET in [r.subset for r in results]

    def test_results_are_canonical_and_sound(self, dataset):
        results = mine(dataset, config())
        for i, r1 in enumerate(results):
            assert r1.positive_covered >= 1
            assert r1.negative_covered <= 0
            assert r1.pattern == induced_subgraph(dataset.template, r1.subset)
            for r2 in results[i + 1 :]:
                if r1.pattern.n == r2.pattern.n:
                    assert not is_isomorphic(r1.pattern, r2.pattern)

    def test_indices_and_elapsed(self, dataset):
        results = mine(dataset, config())
        assert [r.index for r in results] == list(range(1, len(results) + 1))
        assert all(r.elapsed_ms >= 0.0 for r in results)

    def test_max_patterns_zero(self, dataset):
        assert mine(dataset, config(max_patterns=0)) == []

    def test_max_patterns_truncates(self, dataset):
        full = mine(dataset, config())
        cut = mine(dataset, config(max_patterns=3))
        assert [r.subset for r in cut] == [r.subset for r in full][:3]

    def test_zero_examples_one_pattern_per_label(self):
        template = build_graph(
            3, [(0, 1), (1, 2)], ["a", "b", "a"], undirected=True
        )
        ds = Dataset(
            template=template, examples=(), n_pos_threshold=0, n_neg_threshold=0
        )
        results = mine(ds, config(n_pos=0, n_neg=0, min_pattern_size=1,
                                  max_pattern_size=1))
        labels = sorted(r.pattern.labels[0] for r in results)
        assert labels == ["a", "b"]

    def test_deterministic_output(self, dataset):
        a = mine(dataset, config())
        b = mine(dataset, config())
        assert [(r.index, r.subset) for r in a] == [(r.index, r.subset) for r in b]

    @pytest.mark.parametrize("seed", range(20))
    def test_strategy_equivalence_on_synthetic(self, seed):
        params = SynthParams(
            n_graphs=4 + (seed % 7),  # up to 10 examples
            vertex_range=(4, 8),
            target_avg_edges=6,
            n_labels=1 + (seed % 3),
            positive_fraction=0.7,
            seed=2000 + seed,
        )
        base = gen_synthetic(params)
        ds = Dataset(
            template=base.template,
            examples=base.examples,
            n_pos_threshold=1 + (seed % 2),
            n_neg_threshold=seed % 2,
        )
        dec = mine(ds, MiningConfig(ds.n_pos_threshold, ds.n_neg_threshold,
                                    strategy=Strategy.DECOMPOSED))
        mono = mine(ds, MiningConfig(ds.n_pos_threshold, ds.n_neg_threshold,
                                     strategy=Strategy.MONOLITHIC))
        assert [r.subset for r in dec] == [r.subset for r in mono]


def reference_instances():
    """Sixty seeded small instances for :func:`oracles.reference_mine`:
    directed and undirected, N- 0-2 and min size 1-3 in every combination
    (each at least three times), one or two labels, self-loops in half the
    graphs, sparse examples with isolated vertices. Templates have 3-6
    vertices and examples 2-5, which keeps the brute-force counts cheap."""
    rng = random.Random(113)
    out = []
    for i in range(60):
        undirected, n_neg, min_size = i % 2 == 0, i // 2 % 3, 1 + i // 6 % 3
        kind = dict(undirected=undirected, labels=("a", "b")[: 1 + i // 18 % 2])
        template = random_graph(rng, rng.randrange(3, 7), edge_prob=rng.uniform(0.3, 0.6),
                                loops=rng.random() < 0.5, **kind)
        # Positives dense, negatives sparse, so that N- leaves some patterns.
        n_pos, n_graphs = rng.randrange(1, 4), rng.randrange(3, 7)
        graphs = [
            random_graph(rng, rng.randrange(2, 7), edge_prob=rng.uniform(*(
                (0.4, 0.9) if g < n_pos else (0.1, 0.5))), loops=rng.random() < 0.5, **kind)
            for g in range(n_graphs)
        ]
        examples = tuple(
            Example(g, ExampleClass.POSITIVE if g < n_pos else ExampleClass.NEGATIVE, graph)
            for g, graph in enumerate(graphs)
        )
        dataset = Dataset(template, examples, rng.randint(1, min(n_pos, 2)), n_neg)
        out.append((dataset, min_size))
    return out


REFERENCE_INSTANCES = reference_instances()


@functools.lru_cache(maxsize=None)
def reference_result(i):
    """``reference_mine`` on instance ``i``, computed once for both strategies."""
    dataset, min_size = REFERENCE_INSTANCES[i]
    return reference_mine(dataset, min_size)


class TestReferenceMine:
    """``mine()`` against the problem's definition (``reference_mine``),
    which has no early end, pruning, known misses, label-pair test, N+
    give-up, extension key or handed plan."""

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_emits_the_reference_subsets(self, strategy):
        emitted = large = 0
        for i, (dataset, min_size) in enumerate(REFERENCE_INSTANCES):
            expected = reference_result(i)
            results = mine(dataset, config(
                dataset.n_pos_threshold, dataset.n_neg_threshold,
                min_pattern_size=min_size, strategy=strategy,
            ))
            assert [r.subset for r in results] == [s for s, _, _ in expected], i
            # The miner's counts stop early, so they bound the full ones.
            for r, (_, pos, neg) in zip(results, expected):
                assert dataset.n_pos_threshold <= r.positive_covered <= pos
                assert r.negative_covered <= neg <= dataset.n_neg_threshold
            emitted += len(results)
            large += any(len(r.subset) >= 3 for r in results)
        assert emitted > 150 and large > 15

    def test_instances_cover_the_stated_range(self):
        combos = Counter(
            (d.template.undirected_input, d.n_neg_threshold, min_size)
            for d, min_size in REFERENCE_INSTANCES
        )
        assert len(combos) == 18 and min(combos.values()) >= 3
        graphs = [g for d, _ in REFERENCE_INSTANCES
                  for g in (d.template, *(ex.graph for ex in d.examples))]
        assert sum(any((v, v) in g.edges for v in g.vertices()) for g in graphs) > 100
        assert sum(not all(g.sym_adj) for g in graphs) > 80
        assert sum(bool(d.negatives()) for d, _ in REFERENCE_INSTANCES) > 50


def unpruned_mine(dataset, config):
    """Reference loop without superset pruning, the early stop, class-table
    buckets or known misses: every connected candidate of every size level
    is evaluated unless the permutation oracle finds it isomorphic to a
    pattern accepted earlier at its level. Returns (subset,
    positive_covered, negative_covered) per emitted pattern."""
    template = dataset.template
    top = min(template.n, config.max_pattern_size or template.n)
    out = []
    for size in range(config.min_pattern_size, top + 1):
        accepted = []
        for subset in candidate_subsets(template, size):
            pattern = induced_subgraph(template, subset)
            if any(bijection_isomorphic(p, pattern) for p in accepted):
                continue
            ok, pos, neg = evaluate_strategy(pattern, dataset, config)
            if ok:
                out.append((subset, pos, neg))
                accepted.append(pattern)
    return out


PRUNING_INSTANCES = desk_scale_instances() + [demo_dataset()]


def recorded_mine(monkeypatch, dataset, cfg):
    """Run mine() recording the levels enumerated, the candidates yielded
    and the subsets whose induced subgraph was built."""
    levels, yielded, built = [], set(), set()
    real_candidates = patmine.miner.candidate_subsets
    real_induced = patmine.miner.induced_subgraph

    def candidates(template, size):
        levels.append(size)
        for subset in real_candidates(template, size):
            yielded.add(subset)
            yield subset

    def induced(g, subset):
        built.add(tuple(subset))
        return real_induced(g, subset)

    monkeypatch.setattr(patmine.miner, "candidate_subsets", candidates)
    monkeypatch.setattr(patmine.miner, "induced_subgraph", induced)
    results = mine(dataset, cfg)
    monkeypatch.undo()
    return results, levels, yielded, built


class TestPruning:
    @pytest.mark.parametrize("max_size", [None, 4])
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("instance", range(len(PRUNING_INSTANCES)))
    def test_equals_unpruned_reference(self, instance, strategy, max_size):
        ds = PRUNING_INSTANCES[instance]
        cfg = MiningConfig(ds.n_pos_threshold, ds.n_neg_threshold,
                           max_pattern_size=max_size, strategy=strategy)
        got = [(r.subset, r.positive_covered, r.negative_covered)
               for r in mine(ds, cfg)]
        assert got == unpruned_mine(ds, cfg)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_skipped_subsets_are_positive_infrequent(self, monkeypatch, strategy):
        # A subset mine() never builds is pruned (or past the last level),
        # so positive-infrequent, or decided by an extension key, so
        # isomorphic to a subset built earlier at its level.
        skipped_total = Counter()
        for ds in PRUNING_INSTANCES:
            cfg = MiningConfig(ds.n_pos_threshold, ds.n_neg_threshold,
                               strategy=strategy)
            _, levels, yielded, built = recorded_mine(monkeypatch, ds, cfg)
            skipped = yielded - built
            for size in range(max(levels) + 1, ds.template.n + 1):
                skipped.update(candidate_subsets(ds.template, size))
            for subset in sorted(skipped):
                pattern = induced_subgraph(ds.template, subset)
                rep = coverage(pattern, ds, ExampleClass.POSITIVE)
                if rep.positive_covered < ds.n_pos_threshold:
                    skipped_total["infrequent"] += 1
                    continue
                assert any(
                    len(s) == len(subset) and s < subset
                    and bijection_isomorphic(induced_subgraph(ds.template, s), pattern)
                    for s in built
                ), subset
                skipped_total["isomorphic"] += 1
        assert skipped_total["infrequent"] > 0 and skipped_total["isomorphic"] > 0

    def test_stops_after_first_level_without_frequent_subset(self, monkeypatch):
        # A branching template of 'a' vertices; every positive is a 3-path,
        # so sizes 2 and 3 have frequent subsets and every size-4 one fails.
        template = build_graph(
            7, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (2, 6)], ["a"] * 7, True
        )
        path = build_graph(3, [(0, 1), (1, 2)], ["a"] * 3, True)
        ds = Dataset(
            template=template,
            examples=tuple(Example(i, ExampleClass.POSITIVE, path) for i in range(2)),
            n_pos_threshold=2,
            n_neg_threshold=0,
        )
        for strategy in Strategy:
            cfg = config(n_pos=2, strategy=strategy)
            results, levels, _, _ = recorded_mine(monkeypatch, ds, cfg)
            assert levels == [2, 3, 4]
            assert [r.subset for r in results] == [(0, 1), (0, 1, 2)]
            assert [r.subset for r in results] == [
                s for s, _, _ in unpruned_mine(ds, cfg)
            ]


def skipped_searches(monkeypatch, dataset, cfg):
    """Run mine() recording, per decomposed count, each (subset, example,
    known) triple for an example the count reads as a miss without a
    search: one set in the miss mask it was handed (known is True), or one
    it set in the mask it returned without searching it, which the
    edge-label test rejected."""
    skipped, searched = [], []
    real_count = patmine.miner.count_covered
    real_find = patmine.morphism.find_homomorphism

    def find(pattern, target, order=None):
        searched.append(target)
        return real_find(pattern, target, order)

    def recorded(pattern, ds, cls, stop_at, known, need=0):
        searched.clear()
        covered, misses = real_count(pattern, ds, cls, stop_at, known, need)
        skipped.extend(
            (pattern.orig_ids, ex, bool(known >> ex.graph_id & 1))
            for ex in ds.of_class(cls)
            if misses >> ex.graph_id & 1
            and not any(t is ex.graph for t in searched)
        )
        return covered, misses

    monkeypatch.setattr(patmine.miner, "count_covered", recorded)
    monkeypatch.setattr(patmine.morphism, "find_homomorphism", find)
    mine(dataset, cfg)
    monkeypatch.undo()
    return skipped


def search_counting_instance():
    base = gen_synthetic(SynthParams(30, (15, 25), 23, 9, 0.8, 0))
    return Dataset(template=base.template, examples=base.examples,
                   n_pos_threshold=2, n_neg_threshold=1)


class TestKnownMisses:
    @pytest.mark.parametrize("max_size", [None, 4])
    def test_skipped_examples_have_no_homomorphism(self, monkeypatch, max_size):
        totals = Counter()
        for ds in PRUNING_INSTANCES:
            assert ds.template.n <= BRUTE_FORCE_MAX_PATTERN
            cfg = MiningConfig(ds.n_pos_threshold, ds.n_neg_threshold,
                               max_pattern_size=max_size)
            for subset, ex, known in skipped_searches(monkeypatch, ds, cfg):
                pattern = induced_subgraph(ds.template, subset)
                assert brute_force_homomorphisms(pattern, ex.graph) == [], (
                    subset, ex.graph_id)
                totals[known] += 1
        assert totals[True] > 0 and totals[False] > 0

    def test_skipped_examples_read_false(self, monkeypatch, template, dataset):
        pattern = induced_subgraph(template, HEXCHORD_SUBSET)
        searched = coverage(pattern, dataset, ExampleClass.NEGATIVE)
        assert searched.per_example == ((1, False),)
        monkeypatch.setattr(patmine.morphism, "find_homomorphism", None)
        skipped = count_covered(pattern, dataset, ExampleClass.NEGATIVE, 1, 1 << 1)
        assert skipped == (searched.negative_covered, 1 << 1)

    def test_search_counts(self, monkeypatch):
        # Pinned figures. The decomposed coverage count (searches through
        # ``patmine.morphism``) moves when the miss skip widens or narrows
        # (609 searches without the edge-label test, 1,057 without it and
        # without known misses), and with the N+ give-up (167 searches
        # without it); the monolithic stream count depends on none of them.
        # Both move with the number of evaluated candidates, 54 here. The
        # blocking searches of ``miner._entry``, which imports
        # ``find_homomorphism`` by name, are counted apart: 11 under either
        # strategy, each into an isomorphic pattern. The class table holds
        # every pattern a level evaluated, so 9 rejected candidates
        # isomorphic to one rejected earlier at their level take its record
        # unevaluated, and 4 more extend a class the way an earlier
        # rejected candidate did (extension keys). Only 4 of the 9 equal
        # the pattern they copy: a table of accepted patterns beside a
        # memo of equal graphs evaluates the other 5 and one more
        # extension again, for 60 evaluations, 175 searches and 1,900
        # streams. Without extension keys the table decides those copies
        # itself, and the counts hold.
        ds = search_counting_instance()
        finds, blocking, streams = [], [], []
        real_find, real_block = patmine.morphism.find_homomorphism, patmine.miner.find_homomorphism
        real_iter = patmine.miner.iter_homomorphisms
        monkeypatch.setattr(
            patmine.morphism, "find_homomorphism",
            lambda p, t, order=None: finds.append(1) or real_find(p, t, order))
        monkeypatch.setattr(patmine.miner, "find_homomorphism",
                            lambda p, t: blocking.append(real_block(p, t)) or blocking[-1])
        monkeypatch.setattr(patmine.miner, "iter_homomorphisms",
                            lambda p, t: streams.append(1) or real_iter(p, t))
        dec = mine(ds, config(2, 1, max_pattern_size=5))
        assert (len(dec), len(finds), len(streams)) == (23, 159, 0)
        assert len(blocking) == 11 and None not in blocking
        blocking.clear()
        mono = mine(ds, config(2, 1, max_pattern_size=5,
                               strategy=Strategy.MONOLITHIC))
        assert [r.subset for r in mono] == [r.subset for r in dec]
        assert len(streams) == 1682 and len(blocking) == 11


class TestClassTable:
    """Each level's class table holds every pattern it evaluated, bucketed
    by degree profile and deck (see ``mine``)."""

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_no_level_evaluates_two_isomorphic_candidates(self, monkeypatch, strategy):
        # A candidate isomorphic to one evaluated earlier at its level,
        # accepted or rejected, takes that one's record unevaluated.
        evaluated = []
        real = patmine.miner.evaluate_strategy
        monkeypatch.setattr(patmine.miner, "evaluate_strategy",
                            lambda p, *rest: evaluated.append(p) or real(p, *rest))
        instances = [(search_counting_instance(), 5),
                     *((ds, None) for ds in PRUNING_INSTANCES)]
        pairs = 0
        for ds, max_size in instances:
            evaluated.clear()
            mine(ds, MiningConfig(ds.n_pos_threshold, ds.n_neg_threshold,
                                  max_pattern_size=max_size, strategy=strategy))
            for a, b in itertools.combinations(evaluated, 2):
                if a.n == b.n:
                    pairs += 1
                    # Isomorphic graphs share the reference signature.
                    assert (adjacency_signature(a) != adjacency_signature(b)
                            or not bijection_isomorphic(a, b)), (a.orig_ids, b.orig_ids)
        assert pairs > 800, pairs

    @pytest.mark.parametrize("undirected,loops", list(itertools.product((True, False), repeat=2)))
    def test_a_bucket_keeps_every_class_of_its_bucket_key(self, monkeypatch, undirected, loops):
        # A connected 7-vertex graph G, a degree-preserving edge swap G' of
        # it that is not isomorphic to G, and a copy of G' beside them: one
        # degree profile, two classes. Mined from size 7, with no level
        # below to extend or to make a deck of, the copy meets a bucket
        # holding G and G': the search into G misses and the one into G'
        # blocks it.
        rng = random.Random(89)
        while True:
            g = random_graph(rng, 7, undirected=undirected, loops=loops)
            if not is_connected(g):
                continue
            union = switched_union(g)
            if union is not None and not bijection_isomorphic(
                    g, induced_subgraph(union, range(7, 14))):
                break
        t = build_graph(21, [*union.edges, *((u + 7, v + 7) for u, v in union.edges if u >= 7)],
                        union.labels + union.labels[7:], undirected)
        first, second, copy = (tuple(range(a, a + 7)) for a in (0, 7, 14))
        assert occurrences(monkeypatch, t, 7, 7) == {first: [first], second: [second, copy]}

    @pytest.mark.parametrize("strategy,min_sizes", [
        pytest.param(Strategy.DECOMPOSED, (4, 6), id="decomposed"),
        pytest.param(Strategy.MONOLITHIC, (6,), id="monolithic"),
    ])
    def test_a_first_level_above_two_mines_the_same_patterns(self, strategy, min_sizes):
        # A run's first level has no level below, so its buckets key on the
        # degree profile alone; on canon-dense that level holds hundreds of
        # candidates. Mined from a larger min size, the canon-dense
        # instance emits what the run from size 2 emits at those sizes.
        params, n_pos, n_neg, max_size = WORKLOAD_INSTANCES["canon-dense"]
        base = gen_synthetic(params)
        ds = Dataset(base.template, base.examples, n_pos, n_neg)

        def mined(min_size):
            return [(r.subset, r.positive_covered, r.negative_covered)
                    for r in mine(ds, config(n_pos, n_neg, min_pattern_size=min_size,
                                             max_pattern_size=max_size, strategy=strategy))]

        full = mined(2)
        for min_size in min_sizes:
            expected = [r for r in full if len(r[0]) >= min_size]
            assert len(expected) > 100
            assert mined(min_size) == expected


def mined_and_searched(mp, instances, strategy, max_size):
    """(subset, pos, neg) lists mined from each instance, and the number of
    decomposed searches made, counted through ``mp``."""
    finds = []
    real = patmine.morphism.find_homomorphism
    mp.setattr(patmine.morphism, "find_homomorphism",
               lambda p, t, order=None: finds.append(1) or real(p, t, order))
    results = [
        [(r.subset, r.positive_covered, r.negative_covered)
         for r in mine(ds, MiningConfig(
             ds.n_pos_threshold, ds.n_neg_threshold,
             max_pattern_size=max_size, strategy=strategy))]
        for ds in instances
    ]
    return results, len(finds)


class TestEdgeLabelTest:
    @pytest.mark.parametrize("max_size", [None, 4])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_neutralised_gives_same_results(self, strategy, max_size):
        # With label_pairs empty for every graph the test never fires, which
        # is the scan without it; only the decomposed search count may move.
        with pytest.MonkeyPatch.context() as mp:
            filtered, filtered_finds = mined_and_searched(
                mp, PRUNING_INSTANCES, strategy, max_size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LabeledGraph, "label_pairs", property(lambda g: frozenset()))
            plain, plain_finds = mined_and_searched(
                mp, PRUNING_INSTANCES, strategy, max_size)
        assert filtered == plain
        if strategy is Strategy.DECOMPOSED:
            assert filtered_finds < plain_finds
        else:
            assert filtered_finds == plain_finds


def extension_instances():
    """Forty seeded instances with their min size (1-3): directed and
    undirected, self-loops in half, one or two labels, templates of 5-7
    vertices. Two in five have no examples and vacuous thresholds, so
    every subset is kept; the rest mine 2-4 examples against N+ 1-2 and
    N- 0-1, so records are also rejected and pruned."""
    rng = random.Random(131)
    out = []
    for i in range(40):
        kind = dict(undirected=i % 2 == 0, loops=i // 2 % 2 == 1,
                    labels=("a", "b")[: 1 + i // 4 % 2])
        template = random_graph(rng, rng.randrange(5, 8), edge_prob=0.5, **kind)
        graphs = [] if i % 5 < 2 else [
            random_graph(rng, rng.randrange(3, 7), edge_prob=0.6, **kind)
            for _ in range(rng.randrange(2, 5))
        ]
        n_pos = (len(graphs) + 1) // 2
        examples = tuple(
            Example(g, ExampleClass.POSITIVE if g < n_pos else ExampleClass.NEGATIVE, graph)
            for g, graph in enumerate(graphs)
        )
        thresholds = (min(n_pos, rng.randint(1, 2)), rng.randint(0, 1)) if graphs else (0, 0)
        out.append((Dataset(template, examples, *thresholds), 1 + i // 8 % 3))
    return out


class TestExtensionKeys:
    def test_decisions_and_maps_are_isomorphisms(self, monkeypatch):
        # Each subset an extension key decides is never built and is
        # isomorphic to the first subset with its key, whose record it
        # takes, that of a valid or of a rejected pattern; every record a
        # level keeps maps its subset onto its representative by a
        # bijection that keeps labels, edges and self-loops. The records
        # are read where the next level reads them, in the level below
        # that ``miner._extension`` receives, and every size below the
        # largest one emitted is read. An N+ failure records None, so it
        # has no map. Mined from size 1, the two cycles' second copy takes
        # the first's decision by its extension key.
        seen = Counter()
        cycles = (Dataset(two_cycles(), (), 0, 0), 1)
        for ds, min_size in [*extension_instances(), cycles]:
            t, levels, built = ds.template, [], set()
            real_extension, real_induced = patmine.miner._extension, induced_subgraph

            def extension(template, subset, below):
                if all(below is not x for x in levels):
                    levels.append(below)
                return real_extension(template, subset, below)

            monkeypatch.setattr(patmine.miner, "_extension", extension)
            monkeypatch.setattr(patmine.miner, "induced_subgraph",
                                lambda g, s: built.add(s) or real_induced(g, s))
            results, shared = decided_by(monkeypatch, ds, config(
                ds.n_pos_threshold, ds.n_neg_threshold, min_pattern_size=min_size))
            for subset, first, path, _ in shared:
                if path != "extension":
                    continue
                assert subset not in built and first in built
                g = induced_subgraph(t, subset)
                assert bijection_isomorphic(induced_subgraph(t, first), g), subset
                seen[is_valid_pattern(g, ds, config(ds.n_pos_threshold,
                                                    ds.n_neg_threshold))[0]] += 1
            records = [(s, r) for below in levels for s, r in below.items() if r is not None]
            top = max((len(r.subset) for r in results), default=min_size)
            assert {len(s) for s, _ in records} >= set(range(min_size, top))
            for subset, (_, rep, iso) in records:
                g, r = induced_subgraph(t, subset), induced_subgraph(t, rep)
                assert sorted(iso) == list(range(r.n)) and g.n == r.n
                assert [r.labels[iso[v]] for v in range(g.n)] == list(g.labels)
                assert {(iso[u], iso[v]) for u, v in g.edges} == r.edges
                seen["map"] += 1
                seen["self-loop"] += any(u == v for u, v in g.edges)
                seen["directed"] += not t.undirected_input and subset != rep
        assert min(seen.values()) > 10, seen

    @pytest.mark.parametrize("max_size", [None, 4])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_neutralised_gives_same_results(self, strategy, max_size):
        # With no parent found no key is made, which is the scan without
        # extension keys: the same output, from more candidates built.
        instances = PRUNING_INSTANCES + small_instances()

        def mined_and_built(mp):
            built = []
            real = patmine.miner.induced_subgraph
            mp.setattr(patmine.miner, "induced_subgraph",
                       lambda g, s: built.append(s) or real(g, s))
            results, _ = mined_and_searched(mp, instances, strategy, max_size)
            return results, len(built)

        with pytest.MonkeyPatch.context() as mp:
            keyed, keyed_builds = mined_and_built(mp)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(patmine.miner, "_extension", lambda *level: None)
            plain, plain_builds = mined_and_built(mp)
        assert keyed == plain
        assert keyed_builds < plain_builds


# The benchmark's three workloads as instances: the synthetic parameters,
# N+, N- and max size that perfbench/workloads.py gives each.
WORKLOAD_INSTANCES = {
    "yoshida-dec": (SynthParams(265, (15, 25), 23, 9, 1.0, 0), 14, 0, 6),
    "mixed-neg": (SynthParams(120, (15, 25), 23, 9, 0.75, 0), 9, 1, 4),
    "canon-dense": (SynthParams(4, (20, 25), 30, 2, 1.0, 0), 1, 0, 6),
}


def renumbered_template(dataset, rng):
    """``dataset`` with its template's vertex ids permuted by ``rng``."""
    t = dataset.template
    perm = list(range(t.n))
    rng.shuffle(perm)
    labels = [""] * t.n
    for v, p in enumerate(perm):
        labels[p] = t.labels[v]
    template = build_graph(t.n, [(perm[u], perm[v]) for u, v in t.edges], labels,
                           t.undirected_input)
    return replace(dataset, template=template)


class TestTemplateRenumbering:
    @pytest.mark.parametrize("workload,strategy", [
        *(pytest.param(w, Strategy.DECOMPOSED, id=w) for w in WORKLOAD_INSTANCES),
        pytest.param("canon-dense", Strategy.MONOLITHIC, id="canon-dense-monolithic"),
    ])
    def test_emits_the_same_classes(self, workload, strategy):
        # Metamorphic relation: permuting the template's vertex ids changes
        # the scan order, each extension key's parent and which copy of a
        # class is built first, so the isomorphisms the levels keep, but
        # not the set of emitted classes, each with its (pos, neg). Three
        # seeded permutations of each workload's instance, decomposed, and
        # of canon-dense under the monolithic strategy too, which shares
        # the levels' records; each renumbered run's classes are matched
        # one to one with those of the base run of its strategy by a
        # bijection check.
        params, n_pos, n_neg, max_size = WORKLOAD_INSTANCES[workload]
        base = gen_synthetic(params)
        ds = Dataset(base.template, base.examples, n_pos, n_neg)
        cfg = config(n_pos, n_neg, max_pattern_size=max_size, strategy=strategy)

        def classes(results):
            out: dict[tuple, list[LabeledGraph]] = {}
            for r in results:
                key = adjacency_signature(r.pattern), r.positive_covered, r.negative_covered
                out.setdefault(key, []).append(r.pattern)
            return out

        expected = classes(mine(ds, cfg))
        assert sum(map(len, expected.values())) > 5
        rng = random.Random(workload)
        for _ in range(3):
            got = classes(mine(renumbered_template(ds, rng), cfg))
            assert got.keys() == expected.keys()
            for key, patterns in got.items():
                left = list(expected[key])
                assert len(patterns) == len(left), key
                for g in patterns:
                    match = next(h for h in left if bijection_isomorphic(g, h))
                    left.remove(match)


def scan_rule(candidates, hit, need):
    """(count, stop) of a positive scan that searches ``candidates`` (graph
    ids, ascending) in order: it stops once the count reaches ``need``, or
    before the first candidate where the count plus the candidates left,
    that one included, is below ``need``. Every example below graph id
    ``stop`` is decided; None means all are."""
    if need <= 0:
        return 0, 0
    t = 0
    for d, g in enumerate(candidates):
        if t + len(candidates) - d < need:
            return t, g
        t += hit[g]
        if t >= need:
            return t, g + 1
    return t, None


class TestNPosGiveUp:
    """The decomposed positive count gives up once N+ is out of reach."""

    @pytest.mark.parametrize("max_size", [None, 4])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_neutralised_gives_same_results(self, strategy, max_size):
        # With need forced to 0 the give-up never fires, which is the scan
        # without it; only the decomposed search count may move.
        instances = PRUNING_INSTANCES + small_instances()
        with pytest.MonkeyPatch.context() as mp:
            bounded, bounded_finds = mined_and_searched(mp, instances, strategy, max_size)
        with pytest.MonkeyPatch.context() as mp:
            real_count = patmine.miner.count_covered
            mp.setattr(patmine.miner, "count_covered",
                       lambda p, ds, cls, stop_at, misses=0, need=0:
                       real_count(p, ds, cls, stop_at, misses))
            plain, plain_finds = mined_and_searched(mp, instances, strategy, max_size)
        assert bounded == plain
        if strategy is Strategy.DECOMPOSED:
            assert bounded_finds < plain_finds
        else:
            assert bounded_finds == plain_finds

    @pytest.mark.parametrize("seed", range(3))
    def test_count_and_mask_follow_the_rule(self, seed):
        # Every connected subset of up to 3 vertices against each class,
        # with a random subset of its true misses handed in and every need
        # from 0 to one past the class size: the count and the returned
        # mask are those of scan_rule over the candidates the scan
        # searches, and every bit of the mask is a brute-force miss.
        rng = random.Random(seed)
        seen = Counter()
        for ds in pair_index_instances(310 + seed):
            for size in range(1, min(3, ds.template.n) + 1):
                for subset in candidate_subsets(ds.template, size):
                    pattern = induced_subgraph(ds.template, subset)
                    pairs = edge_label_pairs(pattern)
                    hit = {ex.graph_id: bool(brute_force_homomorphisms(
                        pattern, ex.graph)) for ex in ds.examples}
                    for cls in ExampleClass:
                        examples = ds.of_class(cls)
                        known = sum(1 << ex.graph_id for ex in examples
                                    if not hit[ex.graph_id] and rng.random() < 0.3)
                        candidates = [
                            ex.graph_id for ex in examples
                            if not known >> ex.graph_id & 1
                            and pairs <= edge_label_pairs(ex.graph)
                        ]
                        for need in range(len(examples) + 2):
                            count, stop = scan_rule(candidates, hit, need)
                            want = known | sum(
                                1 << ex.graph_id for ex in examples
                                if not hit[ex.graph_id]
                                and (stop is None or ex.graph_id < stop)
                            )
                            got = count_covered(pattern, ds, cls, need, known, need)
                            assert got == (count, want), (subset, cls, need)
                            assert not any(
                                hit[g] for g in hit if got[1] >> g & 1)
                            gave_up = count < need and stop is not None
                            seen["gave up"] += gave_up
                            seen["gave up after a hit"] += gave_up and count > 0
                            seen["gave up, mask gained"] += (
                                gave_up and want & ~known != 0)
                            seen["reached"] += 0 < need <= count
                            seen["known"] += known != 0
        assert min(seen.values()) > 10, seen


class TestExampleTables:
    """An example graph is only ever a search target. The scan reads the
    dataset's pair index and the search the graph's target table, built
    once per graph, so mining and coverage build no adjacency table and no
    degrees for it."""

    OTHER_CACHES = {"sym_adj", "degrees"}

    def instances(self):
        return desk_scale_instances() + [demo_dataset()]

    @staticmethod
    def counting_tables(monkeypatch):
        """Target tables built, by the id of the graph built for."""
        built = Counter()
        prop = LabeledGraph.__dict__["target_table"]
        real = prop.func
        monkeypatch.setattr(prop, "func", lambda g: built.update([id(g)]) or real(g))
        return built

    def assert_one_table_each(self, datasets, built):
        searched = 0
        for ds in datasets:
            for ex in ds.examples:
                assert not self.OTHER_CACHES & ex.graph.__dict__.keys()
                has_table = "target_table" in ex.graph.__dict__
                assert built[id(ex.graph)] == has_table
                searched += has_table
        assert searched > 20

    def test_mine_builds_no_example_adjacency(self, monkeypatch):
        built = self.counting_tables(monkeypatch)
        for strategy in Strategy:
            datasets = self.instances()
            built.clear()
            for ds in datasets:
                mine(ds, config(ds.n_pos_threshold, ds.n_neg_threshold,
                                strategy=strategy))
            self.assert_one_table_each(datasets, built)

    def test_coverage_builds_no_example_adjacency(self, monkeypatch):
        built = self.counting_tables(monkeypatch)
        datasets = self.instances()
        for ds in datasets:
            for size in range(1, ds.template.n + 1):
                for subset in candidate_subsets(ds.template, size):
                    pattern = induced_subgraph(ds.template, subset)
                    for cls in ExampleClass:
                        coverage(pattern, ds, cls)
        self.assert_one_table_each(datasets, built)


def pair_index_instances(seed):
    """Seeded datasets, directed and undirected, with self-loops, empty
    examples and negatives: a random template and eight random examples
    over its three labels, the classes shuffled."""
    rng = random.Random(seed)
    for undirected in (True, False):
        for _ in range(12):
            kind = dict(labels=("a", "b", "c"), undirected=undirected, loops=True)
            template = random_graph(rng, rng.randrange(2, 6), **kind)
            graphs = [random_graph(rng, rng.randrange(0, 6), **kind) for _ in range(8)]
            classes = [ExampleClass.POSITIVE] * 5 + [ExampleClass.NEGATIVE] * 3
            rng.shuffle(classes)
            examples = tuple(
                Example(i, c, g) for i, (c, g) in enumerate(zip(classes, graphs))
            )
            yield Dataset(template, examples, rng.randrange(1, 4), rng.randrange(2))


class TestPairIndex:
    """The decomposed count reads one label-pair index per dataset, built
    on its first decomposed count and never by the monolithic one."""

    def test_index_is_the_union_of_example_label_pairs(self):
        seen = Counter()
        for ds in pair_index_instances(211):
            assert "pair_index" not in ds.__dict__
            cfg = config(ds.n_pos_threshold, ds.n_neg_threshold, min_pattern_size=1)
            mine(ds, replace(cfg, strategy=Strategy.MONOLITHIC))
            assert "pair_index" not in ds.__dict__
            mine(ds, cfg)
            assert not any("label_pairs" in ex.graph.__dict__ for ex in ds.examples)
            classes, pairs = ds.__dict__["pair_index"]
            want = {}
            for ex in ds.examples:
                for pair in ex.graph.label_pairs:
                    want[pair] = want.get(pair, 0) | 1 << ex.graph_id
            assert pairs == want
            assert classes == {
                c: sum(1 << ex.graph_id for ex in ds.of_class(c)) for c in ExampleClass
            }
            seen["directed"] += not ds.template.undirected_input
            seen["loops"] += any(
                u == v for ex in ds.examples for u, v in ex.graph.edges)
            seen["one-way"] += any(
                (v, u) not in ex.graph.edges for ex in ds.examples
                for u, v in ex.graph.edges)
            seen["empty"] += any(ex.graph.n == 0 for ex in ds.examples)
        assert min(seen.values()) > 5, seen


class TestMiningConfig:
    def test_rejects_bad_min_size(self):
        with pytest.raises(ValueError):
            MiningConfig(1, 0, min_pattern_size=0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            MiningConfig(-1, 0)

    def test_rejects_inverted_size_bounds(self):
        with pytest.raises(ValueError):
            MiningConfig(1, 0, min_pattern_size=4, max_pattern_size=2)
