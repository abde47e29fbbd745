"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings as they complete.
"""

from __future__ import annotations

import random
import statistics
import time

from patmine import (
    Dataset,
    MiningConfig,
    Strategy,
    build_dataset,
    build_graph,
    emit_asp,
    emit_idp,
    find_homomorphism,
    induced_subgraph,
    is_isomorphic,
    is_valid_pattern,
    mine,
    parse_graphs,
    write_graphs,
)
from patmine.dataio import SynthParams, gen_synthetic
from patmine.demo import HEX_EDGES, demo_dataset

from oracles import (
    HEXCHORD_SUBSET,
    TAILPATH_SUBSET,
    bijection_isomorphic,
    brute_force_homomorphisms,
    exhaustive_pattern_classes,
    hexagon_with_chord,
    random_graph,
)


def report(name: str, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"{name}: {elapsed:.1f}s exceeded {budget_s}s budget"
    print(f"PASS {name} [{elapsed:.2f}s < {budget_s:.0f}s]")


def desk_scale_instances() -> list[Dataset]:
    """Ten seeded instances: template <= 8 vertices, <= 6 examples."""
    out = []
    for i in range(10):
        ds = gen_synthetic(
            SynthParams(
                n_graphs=4 + (i % 3),
                vertex_range=(4, 8),
                target_avg_edges=6 + (i % 3),
                n_labels=1 + (i % 3),
                positive_fraction=0.7,
                seed=500 + i,
            )
        )
        out.append(
            Dataset(
                template=ds.template,
                examples=ds.examples,
                n_pos_threshold=1 + (i % 2),
                n_neg_threshold=i % 2,
            )
        )
    return out


def iso_class_multiset(results) -> list[int]:
    """Group mined patterns into isomorphism classes; return sorted sizes."""
    classes: list[list] = []
    for res in results:
        for cls in classes:
            if cls[0].n == res.pattern.n and is_isomorphic(cls[0], res.pattern):
                cls.append(res.pattern)
                break
        else:
            classes.append([res.pattern])
    return sorted((c[0].n, len(c)) for c in classes)


def test_criterion_1_demo_instance_semantics(dataset, template):
    started = time.perf_counter()
    config = MiningConfig(1, 0)
    hexchord = induced_subgraph(template, HEXCHORD_SUBSET)
    tailpath = induced_subgraph(template, TAILPATH_SUBSET)

    valid, pos, neg = is_valid_pattern(hexchord, dataset, config)
    assert (valid, pos, neg) == (True, 1, 0)
    valid, pos, neg = is_valid_pattern(tailpath, dataset, config)
    assert valid is False
    assert neg == 1
    report("criterion-1 demo-instance semantics", started, 1.0)


def test_criterion_2_canonicity():
    started = time.perf_counter()
    first = hexagon_with_chord((1, 4))
    second = hexagon_with_chord((0, 3))
    assert is_isomorphic(first, second)

    # template containing both chord placements as separate components, so
    # both candidates are reachable as induced subgraphs
    edges = list(HEX_EDGES) + [(1, 4)]
    edges += [(u + 6, v + 6) for u, v in HEX_EDGES] + [(6, 9)]
    both = build_graph(12, edges, ["a"] * 12, undirected=True)
    ds = Dataset(template=both, examples=(), n_pos_threshold=0, n_neg_threshold=0)
    results = mine(ds, MiningConfig(0, 0, min_pattern_size=6, max_pattern_size=6))
    assert len(results) == 1
    assert is_isomorphic(results[0].pattern, first)
    report("criterion-2 canonicity (one representative per class)", started, 1.0)


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20240811)

    checked = 0
    for _ in range(200):
        pattern = random_graph(rng, rng.randrange(1, 7))
        target = random_graph(rng, rng.randrange(1, 9))
        homs = brute_force_homomorphisms(pattern, target)
        found = find_homomorphism(pattern, target)
        assert (found is None) == (len(homs) == 0)
        if found is not None:
            assert found in homs
        checked += 1
    assert checked == 200

    checked = 0
    for _ in range(200):
        n = rng.randrange(1, 8)
        g1 = random_graph(rng, n)
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            labels: list[str] = [""] * n
            for v in range(n):
                labels[perm[v]] = g1.labels[v]
            g2 = build_graph(
                n, [(perm[u], perm[v]) for u, v in g1.edges], labels, True
            )
        else:
            g2 = random_graph(rng, n)
        assert is_isomorphic(g1, g2) == bijection_isomorphic(g1, g2)
        checked += 1
    assert checked == 200
    report("criterion-3 oracle equivalence (200 + 200 pairs)", started, 60.0)


def test_criterion_4_mining_completeness_desk_scale():
    started = time.perf_counter()
    for ds in desk_scale_instances():
        results = mine(
            ds, MiningConfig(ds.n_pos_threshold, ds.n_neg_threshold)
        )
        oracle = exhaustive_pattern_classes(ds, 2, ds.template.n)
        mined: dict[int, list] = {}
        for res in results:
            mined.setdefault(res.pattern.n, []).append(res.pattern)
        for size, expected in oracle.items():
            got = mined.get(size, [])
            assert len(got) == len(expected), f"size {size}: {len(got)} != {len(expected)}"
            for g in got:
                assert any(bijection_isomorphic(g, e) for e in expected)
        for i, g1 in enumerate(results):
            for g2 in results[i + 1 :]:
                if g1.pattern.n == g2.pattern.n:
                    assert not is_isomorphic(g1.pattern, g2.pattern)
    report("criterion-4 mining completeness on 10 desk-scale instances", started, 120.0)


def test_criterion_5_strategy_equivalence():
    started = time.perf_counter()
    instances = desk_scale_instances() + [demo_dataset()]
    for ds in instances:
        dec = mine(ds, MiningConfig(ds.n_pos_threshold, ds.n_neg_threshold,
                                    strategy=Strategy.DECOMPOSED))
        mono = mine(ds, MiningConfig(ds.n_pos_threshold, ds.n_neg_threshold,
                                     strategy=Strategy.MONOLITHIC))
        assert iso_class_multiset(dec) == iso_class_multiset(mono)
        assert [r.subset for r in dec] == [r.subset for r in mono]
    report("criterion-5 strategy equivalence on 11 instances", started, 120.0)


def test_criterion_6_performance_trend():
    started = time.perf_counter()
    # Yoshida-like statistics scaled to 50 graphs; the positive threshold
    # follows the 5%-of-examples rule with the rounding convention used for
    # the original 265-graph runs (13 from 13.25), i.e. floor: 50 -> 2.
    ds = gen_synthetic(SynthParams(50, (15, 25), 23, 9, 1.0, 8))
    n_pos = int(0.05 * len(ds.positives()))
    cfg_dec = MiningConfig(n_pos, 0, max_patterns=5, strategy=Strategy.DECOMPOSED)
    cfg_mono = MiningConfig(n_pos, 0, max_patterns=5, strategy=Strategy.MONOLITHIC)

    mine(ds, cfg_dec)  # warmup: candidate caches and example indexes
    mine(ds, cfg_mono)

    dec_ms: list[float] = []
    mono_ms: list[float] = []
    for _ in range(3):
        dec = mine(ds, cfg_dec)
        mono = mine(ds, cfg_mono)
        assert [r.subset for r in dec] == [r.subset for r in mono]
        assert len(dec) == 5
        dec_ms += [r.elapsed_ms for r in dec]
        mono_ms += [r.elapsed_ms for r in mono]

    dec_median = statistics.median(dec_ms)
    mono_median = statistics.median(mono_ms)
    ratio = mono_median / dec_median
    print(
        f"  decomposed median {dec_median:.3f} ms, monolithic median "
        f"{mono_median:.3f} ms, ratio {ratio:.2f}x"
    )
    assert ratio >= 5.0, f"speedup {ratio:.2f}x below the 5x floor"
    report("criterion-6 performance trend (>=5x decomposed advantage)", started, 600.0)


def test_criterion_7_encoder_golden_files(golden_dir):
    started = time.perf_counter()
    ds = demo_dataset()
    asp = emit_asp(ds)
    idp = emit_idp(ds)
    assert asp == (golden_dir / "demo.lp").read_text(encoding="utf-8")
    assert idp == (golden_dir / "demo.idp").read_text(encoding="utf-8")

    # structural checks: saturation head width equals |V| per negative graph
    for ex in ds.negatives():
        heads = [
            line
            for line in asp.splitlines()
            if line.startswith(f"map(g{ex.graph_id},") and "|" in line
        ]
        assert len(heads) == 1
        assert heads[0].count(f"map(g{ex.graph_id},X,") == ex.graph.n
    assert f":- positive_count(N), N < {ds.n_pos_threshold}." in asp
    assert f":- negative_count(N), N > {ds.n_neg_threshold}." in asp
    assert f"threshold = {ds.n_pos_threshold}" in idp
    report("criterion-7 encoder golden files", started, 10.0)


def test_criterion_8_round_trip_and_determinism(fixtures_dir):
    started = time.perf_counter()
    text = (fixtures_dir / "demo.graphs").read_text(encoding="utf-8")
    ds = build_dataset(parse_graphs(text), 1, 0)
    serialized = write_graphs(ds)
    assert build_dataset(parse_graphs(serialized), 1, 0) == ds
    assert write_graphs(build_dataset(parse_graphs(serialized), 1, 0)) == serialized

    params = SynthParams(25, (5, 12), 10, 4, 0.8, 314159)
    assert write_graphs(gen_synthetic(params)) == write_graphs(gen_synthetic(params))
    report("criterion-8 round-trip and determinism", started, 30.0)
