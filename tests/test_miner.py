from __future__ import annotations

import itertools
import random
from collections import Counter

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
    is_isomorphic,
    is_valid_pattern,
    mine,
)
from patmine.dataio import SynthParams, gen_synthetic
from patmine.demo import HEXCHORD_SUBSET, TAILPATH_SUBSET, demo_dataset
from patmine.morphism import count_covered

from oracles import (
    BRUTE_FORCE_MAX_PATTERN,
    bijection_isomorphic,
    brute_force_homomorphisms,
    exhaustive_pattern_classes,
    random_graph,
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
        # Roots above n - k are not enumerated; they yield no k-subset.
        rng = random.Random(90 + trial)
        t = random_graph(
            rng, rng.randrange(4, 9), edge_prob=(0.3, 0.6)[trial % 2],
            undirected=trial % 2 == 0, loops=trial % 4 >= 2,
        )
        for k in range(1, t.n + 2):
            every_root = [
                s for root in range(t.n)
                for s in sorted(patmine.miner._connected_subsets_from(t, k, root))
            ]
            assert list(candidate_subsets(t, k)) == every_root


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


def occurrences(monkeypatch, template, min_size=1, max_size=None):
    """Mine ``template`` with vacuous thresholds, so every candidate is
    valid, and map each emitted subset to its occurrences in the template:
    itself, then the candidates blocked as isomorphic to it, in scan order."""
    ds = Dataset(template=template, examples=(), n_pos_threshold=0,
                 n_neg_threshold=0)
    blocked: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    real = patmine.miner.is_isomorphic

    def recorded(accepted, candidate):
        same = real(accepted, candidate)
        if same:
            blocked.setdefault(accepted.orig_ids, []).append(candidate.orig_ids)
        return same

    monkeypatch.setattr(patmine.miner, "is_isomorphic", recorded)
    results = mine(ds, config(n_pos=0, min_pattern_size=min_size,
                              max_pattern_size=max_size))
    monkeypatch.undo()
    return {r.subset: [r.subset, *blocked.get(r.subset, [])] for r in results}


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
        rng = random.Random(53)
        checked = 0
        for trial in range(24):
            t = random_graph(
                rng, rng.randrange(4, 8), edge_prob=0.5,
                undirected=trial % 2 == 0, loops=trial % 4 >= 2,
            )
            occ = occurrences(monkeypatch, t, 1, 4)
            for k in range(1, 5):
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


def signature_templates():
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


SIGNATURE_TEMPLATES = signature_templates()


class TestOccurrenceSignature:
    @pytest.mark.parametrize("trial", range(len(SIGNATURE_TEMPLATES)))
    def test_invariant_under_vertex_permutation(self, trial):
        t = SIGNATURE_TEMPLATES[trial]
        rng = random.Random(trial)
        for k in range(1, 6):
            for subset in patmine.miner._connected_ksubsets(t, k):
                sub = induced_subgraph(t, subset)
                perm = list(range(k))
                rng.shuffle(perm)
                labels = [""] * k
                for v in range(k):
                    labels[perm[v]] = sub.labels[v]
                shuffled = build_graph(
                    k, [(perm[u], perm[v]) for u, v in sub.edges], labels,
                    t.undirected_input,
                )
                sig = patmine.miner._signature
                assert sig(shuffled) == sig(sub)

    @pytest.mark.parametrize("trial", range(len(SIGNATURE_TEMPLATES)))
    def test_isomorphic_subsets_share_a_group(self, trial):
        t = SIGNATURE_TEMPLATES[trial]
        pairs = 0
        for k in range(1, 5):
            level = [
                induced_subgraph(t, s) for s in patmine.miner._connected_ksubsets(t, k)
            ]
            for a, b in itertools.combinations(level, 2):
                if bijection_isomorphic(a, b):
                    assert patmine.miner._signature(a) == patmine.miner._signature(b)
                    pairs += 1
        assert pairs > 0

    @pytest.mark.parametrize("trial", range(len(SIGNATURE_TEMPLATES)))
    def test_groups_partition_the_level(self, monkeypatch, trial):
        # An emitted subset and the candidates it blocks form one group;
        # with every candidate valid, a level's groups partition it.
        t = SIGNATURE_TEMPLATES[trial]
        occ = occurrences(monkeypatch, t)
        for k in range(1, t.n + 1):
            groups = [group for s, group in occ.items() if len(s) == k]
            members = [subset for group in groups for subset in group]
            assert sorted(members) == list(patmine.miner._connected_ksubsets(t, k))
            for group in groups:
                assert group == sorted(group)
                sigs = {patmine.miner._signature(induced_subgraph(t, s)) for s in group}
                assert len(sigs) == 1

    def test_blocking_lookup_tests_only_isomorphic_patterns(self, monkeypatch):
        # The canonicity-heavy benchmark instance: 2 labels, N+=1, max-size 6.
        # One is_isomorphic call per blocked candidate, none false.
        base = gen_synthetic(SynthParams(4, (20, 25), 30, 2, 1.0, 0))
        ds = Dataset(template=base.template, examples=base.examples,
                     n_pos_threshold=1, n_neg_threshold=0)
        verdicts = []
        real = patmine.miner.is_isomorphic

        def counted(g1, g2):
            verdicts.append(real(g1, g2))
            return verdicts[-1]

        monkeypatch.setattr(patmine.miner, "is_isomorphic", counted)
        results = mine(ds, config(max_pattern_size=6))
        assert len(results) == 222
        assert len(verdicts) == 1162
        assert all(verdicts)


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
        # coverage counts C+/C- and per-example hits.
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
                for n_pos in range(n_positives + 1):
                    for n_neg in range(3):
                        ok = cp >= n_pos and cn <= n_neg
                        dec = evaluate_strategy(pattern, ds, config(n_pos, n_neg))
                        assert dec == (ok, min(cp, n_pos),
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


def unpruned_mine(dataset, config):
    """Reference loop without superset pruning, the early stop, signature
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
        skipped_total = 0
        for ds in PRUNING_INSTANCES:
            cfg = MiningConfig(ds.n_pos_threshold, ds.n_neg_threshold,
                               strategy=strategy)
            _, levels, yielded, built = recorded_mine(monkeypatch, ds, cfg)
            skipped = yielded - built
            for size in range(max(levels) + 1, ds.template.n + 1):
                skipped.update(candidate_subsets(ds.template, size))
            for subset in skipped:
                pattern = induced_subgraph(ds.template, subset)
                rep = coverage(pattern, ds, ExampleClass.POSITIVE)
                assert rep.positive_covered < ds.n_pos_threshold, subset
            skipped_total += len(skipped)
        assert skipped_total > 0

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
    search: one in the miss set it was handed (known is True), or one it
    added to that set without searching it, which the edge-label test
    rejected."""
    skipped, searched = [], []
    real_count = patmine.miner.count_covered
    real_find = patmine.morphism.find_homomorphism

    def find(pattern, target):
        searched.append(target)
        return real_find(pattern, target)

    def recorded(pattern, ds, cls, stop_at, misses):
        searched.clear()
        known = set(misses)
        covered = real_count(pattern, ds, cls, stop_at, misses)
        skipped.extend(
            (pattern.orig_ids, ex, ex.graph_id in known)
            for ex in ds.of_class(cls)
            if ex.graph_id in misses and not any(t is ex.graph for t in searched)
        )
        return covered

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
        misses = {1}
        skipped = count_covered(pattern, dataset, ExampleClass.NEGATIVE, 1, misses)
        assert (skipped, misses) == (searched.negative_covered, {1})

    def test_search_counts(self, monkeypatch):
        # Pinned figures: a change that widens or narrows the skip moves
        # the decomposed count (796 searches without the edge-label test,
        # 1,282 without it and without known misses); the monolithic
        # stream count does not depend on either.
        ds = search_counting_instance()
        finds, streams = [], []
        real_find = patmine.morphism.find_homomorphism
        real_iter = patmine.miner.iter_homomorphisms
        monkeypatch.setattr(patmine.morphism, "find_homomorphism",
                            lambda p, t: finds.append(1) or real_find(p, t))
        monkeypatch.setattr(patmine.miner, "iter_homomorphisms",
                            lambda p, t: streams.append(1) or real_iter(p, t))
        dec = mine(ds, config(2, 1, max_pattern_size=5))
        assert (len(dec), len(finds), len(streams)) == (23, 217, 0)
        mono = mine(ds, config(2, 1, max_pattern_size=5,
                               strategy=Strategy.MONOLITHIC))
        assert [r.subset for r in mono] == [r.subset for r in dec]
        assert len(streams) == 2122


class TestEdgeLabelTest:
    @pytest.mark.parametrize("max_size", [None, 4])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_neutralised_gives_same_results(self, strategy, max_size):
        # With label_pairs empty for every graph the test never fires, which
        # is the scan without it; only the decomposed search count may move.
        def run(mp):
            finds = []
            real = patmine.morphism.find_homomorphism
            mp.setattr(patmine.morphism, "find_homomorphism",
                       lambda p, t: finds.append(1) or real(p, t))
            results = [
                [(r.subset, r.positive_covered, r.negative_covered)
                 for r in mine(ds, MiningConfig(
                     ds.n_pos_threshold, ds.n_neg_threshold,
                     max_pattern_size=max_size, strategy=strategy))]
                for ds in PRUNING_INSTANCES
            ]
            return results, len(finds)

        with pytest.MonkeyPatch.context() as mp:
            filtered, filtered_finds = run(mp)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LabeledGraph, "label_pairs", property(lambda g: frozenset()))
            plain, plain_finds = run(mp)
        assert filtered == plain
        if strategy is Strategy.DECOMPOSED:
            assert filtered_finds < plain_finds
        else:
            assert filtered_finds == plain_finds


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
