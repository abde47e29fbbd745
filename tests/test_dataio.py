from __future__ import annotations

import math

import pytest

from patmine import (
    build_dataset,
    build_graph,
    gen_synthetic,
    is_connected,
    parse_graphs,
    parse_patterns,
    write_bench_csv,
    write_graphs,
    write_patterns,
)
from patmine._rng import SplitMix64
from patmine.dataio import (
    DatasetLoadError,
    DuplicateBlockId,
    GraphSyntaxError,
    InfeasibleEdgeTarget,
    NonDenseVertexIds,
    SynthParams,
    UnknownClassTag,
)
from patmine.demo import demo_dataset
from patmine.miner import MineResult, MiningConfig, mine


class TestParseGraphs:
    def test_demo_fixture(self, fixtures_dir):
        blocks = parse_graphs((fixtures_dir / "demo.graphs").read_text())
        assert len(blocks) == 3
        tags = [tag for _, tag, _ in blocks]
        assert tags == ["template", "pos", "neg"]
        template = blocks[0][2]
        assert template.n == 8 and len(template.edges) == 18

    def test_fixture_equals_builtin_instance(self, fixtures_dir):
        blocks = parse_graphs((fixtures_dir / "demo.graphs").read_text())
        ds = build_dataset(blocks, 1, 0)
        assert ds == demo_dataset()

    def test_header_only_file(self):
        assert parse_graphs("mode undirected\n") == []

    def test_missing_header(self):
        with pytest.raises(GraphSyntaxError) as err:
            parse_graphs("t # 0 template\n")
        assert err.value.line == 1

    def test_edge_out_of_range_reports_line(self):
        text = "mode undirected\nt # 0 template\nv 0 a\nv 1 a\nv 2 a\ne 0 5\n"
        with pytest.raises(GraphSyntaxError) as err:
            parse_graphs(text)
        assert err.value.line == 6

    @pytest.mark.parametrize("mode", ["directed", "undirected"])
    def test_repeated_out_of_range_edge_reports_its_first_line(self, mode):
        # The bad edge comes after valid ones (one repeated, one reversed)
        # and appears twice; the error names its first line.
        text = (f"mode {mode}\nt # 0 pos\nv 0 a\nt # 1 template\nv 0 a\n"
                "v 1 b\ne 0 1\ne 1 0\ne 0 1\ne 1 3\ne 1 1\ne 1 3\n")
        with pytest.raises(GraphSyntaxError) as err:
            parse_graphs(text)
        assert type(err.value) is GraphSyntaxError and err.value.line == 10
        assert str(err.value) == "line 10: edge (1, 3) outside vertex range 0..1"

    def test_non_dense_vertex_ids(self):
        text = "mode undirected\nt # 0 template\nv 0 a\nv 2 a\n"
        with pytest.raises(NonDenseVertexIds) as err:
            parse_graphs(text)
        assert err.value.line == 4

    def test_unknown_class_tag(self):
        with pytest.raises(UnknownClassTag):
            parse_graphs("mode undirected\nt # 0 banana\n")

    def test_duplicate_block_id(self):
        text = "mode undirected\nt # 0 pos\nv 0 a\nt # 0 neg\nv 0 a\n"
        with pytest.raises(DuplicateBlockId) as err:
            parse_graphs(text)
        assert err.value.line == 4

    def test_comments_and_blanks_ignored(self):
        text = "# hi\n\nmode directed\n# block\nt # 3 pos\nv 0 a\n\ne 0 0\n"
        blocks = parse_graphs(text)
        assert blocks[0][0] == 3
        assert blocks[0][2].edges == frozenset({(0, 0)})

    @pytest.mark.parametrize(
        ("body", "error", "line"),
        [
            ("t # 0 pos\nv 0 a\nv 2 a\nv 1 a\ne 0\n", NonDenseVertexIds, 4),
            ("t # 0 pos\nv 0 a\ne 0 5\nv 1\n", GraphSyntaxError, 5),
            ("t # 0 pos\nv 0 a\ne 0 5\nt # 0 neg\n", GraphSyntaxError, 4),
            ("v 0 a\nt # x pos\n", GraphSyntaxError, 2),
        ],
        ids=["dense-before-later-edge", "later-vertex-before-edge-range",
             "edge-range-before-next-header", "outside-block-before-header"],
    )
    def test_first_error_wins(self, body, error, line):
        """Lines are checked in file order, except that edge endpoints are
        range-checked when their block ends."""
        with pytest.raises(error) as err:
            parse_graphs("mode undirected\n" + body)
        assert type(err.value) is error and err.value.line == line

    def test_directed_mode_preserves_orientation(self):
        text = "mode directed\nt # 0 pos\nv 0 a\nv 1 a\ne 0 1\n"
        g = parse_graphs(text)[0][2]
        assert g.edges == frozenset({(0, 1)})
        assert not g.undirected_input


class TestReaderEdgeCases:
    """Each file holds one template block. Its graph must equal
    ``build_graph`` over the block's vertex and edge lines, and must survive
    ``write_graphs`` and a second parse."""

    CASES = {
        "indented-comments": (
            "  # spaces\nmode undirected\n\t# a tab\nt # 0 template\n"
            " \t # both\nv 0 a\nv 1 b\n\t\t#e 0 0\ne 0 1\n",
            ["a", "b"], [(0, 1)], True,
        ),
        "hash-in-label": (
            "mode directed\nt # 0 template\nv 0 a#b\nv 1 #c\ne 1 0\n",
            ["a#b", "#c"], [(1, 0)], False,
        ),
        "crlf": (
            "mode undirected\r\nt # 0 template\r\nv 0 a\r\nv 1 b\r\n"
            "\r\n# c\r\ne 1 0\r\n",
            ["a", "b"], [(1, 0)], True,
        ),
        "form-feed": (
            "mode directed\ft # 0 template\fv 0 a\f\fv 1 b\fe 0 1\f",
            ["a", "b"], [(0, 1)], False,
        ),
        "undirected-duplicate-and-antiparallel": (
            "mode undirected\nt # 0 template\nv 0 a\nv 1 a\nv 2 b\n"
            "e 0 1\ne 0 1\ne 1 0\ne 2 1\ne 1 2\n",
            ["a", "a", "b"], [(0, 1), (0, 1), (1, 0), (2, 1), (1, 2)], True,
        ),
        "directed-self-loops": (
            "mode directed\nt # 0 template\nv 0 a\nv 1 b\ne 0 0\ne 0 1\ne 1 1\n",
            ["a", "b"], [(0, 0), (0, 1), (1, 1)], False,
        ),
        "undirected-self-loops": (
            "mode undirected\nt # 0 template\nv 0 a\nv 1 b\ne 0 0\ne 1 0\ne 1 1\n",
            ["a", "b"], [(0, 0), (1, 0), (1, 1)], True,
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_equals_build_graph_and_round_trips(self, case):
        text, labels, edges, undirected = self.CASES[case]
        [(block_id, tag, graph)] = parse_graphs(text)
        assert (block_id, tag) == (0, "template")
        assert graph == build_graph(len(labels), edges, labels, undirected)
        dataset = build_dataset([(block_id, tag, graph)], 0, 0)
        assert build_dataset(parse_graphs(write_graphs(dataset)), 0, 0) == dataset


class TestBuildDataset:
    def test_requires_exactly_one_template(self):
        blocks = parse_graphs("mode undirected\nt # 0 pos\nv 0 a\n")
        with pytest.raises(DatasetLoadError):
            build_dataset(blocks, 0, 0)

    def test_examples_keep_order_with_fresh_ids(self, fixtures_dir):
        blocks = parse_graphs((fixtures_dir / "demo.graphs").read_text())
        ds = build_dataset(blocks, 1, 0)
        assert [ex.graph_id for ex in ds.examples] == [0, 1]

    def test_threshold_above_positive_count_rejected(self, fixtures_dir):
        blocks = parse_graphs((fixtures_dir / "demo.graphs").read_text())
        with pytest.raises(ValueError):
            build_dataset(blocks, 5, 0)

    @pytest.mark.parametrize(("template_mode", "example_mode"), [
        ("undirected", "directed"), ("directed", "undirected"),
    ])
    def test_example_in_another_mode_rejected(self, template_mode, example_mode):
        # Mining would read the example in its own mode, while the encoders
        # and write_graphs read every graph in the template's.
        body = "v 0 a\nv 1 b\ne 0 1\n"
        blocks = parse_graphs(f"mode {template_mode}\nt # 0 template\n{body}")
        blocks += parse_graphs(f"mode {example_mode}\nt # 1 pos\n{body}")
        with pytest.raises(ValueError) as info:
            build_dataset(blocks, 1, 0)
        assert str(info.value) == (
            f"example graph 0 is in mode {example_mode} but the template is in "
            f"mode {template_mode}"
        )


class TestRoundTrip:
    def test_fixture_round_trip(self, fixtures_dir):
        text = (fixtures_dir / "demo.graphs").read_text()
        ds = build_dataset(parse_graphs(text), 1, 0)
        again = build_dataset(parse_graphs(write_graphs(ds)), 1, 0)
        assert again == ds

    @pytest.mark.parametrize("seed", range(50))
    def test_synthetic_round_trip(self, seed):
        params = SynthParams(5, (3, 7), 5, 3, 0.6, seed)
        ds = gen_synthetic(params)
        again = build_dataset(
            parse_graphs(write_graphs(ds)), ds.n_pos_threshold, ds.n_neg_threshold
        )
        assert again == ds


class TestWritePatterns:
    def make_results(self, dataset):
        return mine(dataset, MiningConfig(1, 0, min_pattern_size=4,
                                          max_pattern_size=5))

    def test_round_trip_edges(self, dataset):
        results = self.make_results(dataset)
        blocks = parse_patterns(write_patterns(results))
        assert len(blocks) == len(results)
        for res, blk in zip(results, blocks):
            assert blk.subset == res.subset
            assert blk.size == res.pattern.n
            assert blk.pos == res.positive_covered
            assert blk.neg == res.negative_covered
            orig = res.pattern.orig_ids
            expected = {
                (min(orig[u], orig[v]), max(orig[u], orig[v]))
                for u, v in res.pattern.edges
            }
            assert set(blk.edges) == expected

    def test_empty_results(self):
        assert write_patterns([]) == ""

    @pytest.mark.parametrize(
        "line", ["v x a", "v 0", "v 0 a b", "e 0", "e 0 y", "e 0 1 2"]
    )
    def test_malformed_vertex_or_edge_line_reports_line(self, line):
        text = f"p # 1 size=2 pos=1 neg=0 time_ms=0.000\nv 0 a\n{line}\n"
        with pytest.raises(GraphSyntaxError) as err:
            parse_patterns(text)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        ("text", "line", "message"),
        [
            ("p # 1 size=6 pos=1 neg=0 time_ms=0.000\n", 1, "no vertex lines"),
            (
                "p # 1 size=1 pos=1 neg=0 time_ms=0.000\n"
                "p # 2 size=1 pos=1 neg=0 time_ms=0.000\nv 0 a\n",
                1,
                "no vertex lines",
            ),
            (
                "p # 1 size=2 pos=1 neg=0 time_ms=0.000\nv 0 a\nv 0 a\nv 1 a\n",
                3,
                "duplicate vertex id 0",
            ),
            (
                "p # 1 size=3 pos=1 neg=0 time_ms=0.000\nv 0 a\nv 1 a\ne 0 1\n",
                1,
                "size=3 but the block has 2 vertices",
            ),
        ],
        ids=["header-only", "empty-block-then-block", "duplicate-v", "size-mismatch"],
    )
    def test_inconsistent_block_reports_line(self, text, line, message):
        with pytest.raises(GraphSyntaxError) as err:
            parse_patterns(text)
        assert err.value.line == line
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "name", ["candidate_hexchord", "candidate_notinduced", "candidate_tailpath"]
    )
    def test_committed_pattern_fixtures_parse(self, fixtures_dir, name):
        (blk,) = parse_patterns((fixtures_dir / f"{name}.pattern").read_text())
        assert blk.size == len(blk.subset) == len(blk.labels)

    def test_header_fields(self, dataset, template):
        from patmine import induced_subgraph

        res = MineResult(
            index=1,
            subset=(0, 1, 2, 3, 4, 5),
            pattern=induced_subgraph(template, range(6)),
            positive_covered=1,
            negative_covered=0,
            elapsed_ms=12.5,
        )
        text = write_patterns([res])
        assert text.splitlines()[0] == "p # 1 size=6 pos=1 neg=0 time_ms=12.500"


class TestBenchCsv:
    def test_row_count(self):
        rows = [("decomposed", i, 1.0, "demo", 7) for i in range(1, 16)]
        text = write_bench_csv(rows)
        assert len(text.splitlines()) == 16
        assert text.splitlines()[0] == "strategy,index,elapsed_ms,dataset,seed"

    def test_empty_records(self):
        assert write_bench_csv([]) == "strategy,index,elapsed_ms,dataset,seed\n"

    def test_order_preserved_and_quoting(self):
        rows = [
            ("decomposed", 1, 0.5, "tag,with,commas", 1),
            ("monolithic", 1, 1.5, "plain", 1),
        ]
        lines = write_bench_csv(rows).splitlines()
        assert lines[1].startswith('decomposed,1,0.500,"tag,with,commas"')
        assert lines[2].startswith("monolithic,1,1.500,plain")


class TestSplitMix:
    def test_reference_vectors(self):
        r = SplitMix64(0)
        assert [r.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]
        r = SplitMix64(42)
        assert r.next_u64() == 0xBDD732262FEB6E95

    def test_below_is_bounded_and_deterministic(self):
        r1, r2 = SplitMix64(9), SplitMix64(9)
        seq1 = [r1.below(10) for _ in range(100)]
        seq2 = [r2.below(10) for _ in range(100)]
        assert seq1 == seq2
        assert all(0 <= x < 10 for x in seq1)


class TestGenSynthetic:
    def test_yoshida_preset_statistics(self):
        params = SynthParams(265, (15, 25), 23, 9, 1.0, 0)
        ds = gen_synthetic(params)
        assert len(ds.examples) == 265
        assert len(ds.positives()) == 265
        assert ds.n_pos_threshold == 14  # ceil(0.05 * 265)
        assert ds.n_neg_threshold == 0
        assert ds.template.n == 25

    def test_all_graphs_connected_and_sized(self):
        ds = gen_synthetic(SynthParams(100, (5, 9), 8, 3, 0.5, 3))
        n_edges = []
        for ex in ds.examples:
            assert is_connected(ex.graph)
            assert 5 <= ex.graph.n <= 9
            n_edges.append(len({(min(u, v), max(u, v)) for u, v in ex.graph.edges}))
        mean_edges = sum(n_edges) / len(n_edges)
        assert abs(mean_edges - 8) / 8 < 0.10

    def test_mean_vertices_near_target(self):
        ds = gen_synthetic(SynthParams(100, (15, 25), 23, 9, 1.0, 5))
        mean_n = sum(ex.graph.n for ex in ds.examples) / 100
        assert abs(mean_n - 20) / 20 < 0.10

    def test_zero_graphs_template_only(self):
        ds = gen_synthetic(SynthParams(0, (4, 6), 5, 2, 1.0, 1))
        assert ds.examples == ()
        assert ds.n_pos_threshold == 0
        assert ds.template.n == 6

    def test_seed_determinism_byte_identical(self):
        a = write_graphs(gen_synthetic(SynthParams(20, (5, 10), 9, 4, 0.8, 77)))
        b = write_graphs(gen_synthetic(SynthParams(20, (5, 10), 9, 4, 0.8, 77)))
        assert a == b

    def test_different_seeds_differ(self):
        a = write_graphs(gen_synthetic(SynthParams(20, (5, 10), 9, 4, 0.8, 1)))
        b = write_graphs(gen_synthetic(SynthParams(20, (5, 10), 9, 4, 0.8, 2)))
        assert a != b

    def test_positive_fraction_split(self):
        ds = gen_synthetic(SynthParams(40, (4, 6), 5, 2, 0.25, 9))
        assert len(ds.positives()) == 10
        assert len(ds.negatives()) == 30
        assert ds.n_pos_threshold == math.ceil(0.05 * 10)

    def test_infeasible_edge_target(self):
        with pytest.raises(InfeasibleEdgeTarget):
            gen_synthetic(SynthParams(3, (10, 12), 2, 2, 1.0, 0))

    def test_invalid_vertex_range(self):
        with pytest.raises(ValueError):
            SynthParams(3, (1, 1), 2, 2, 1.0, 0)
