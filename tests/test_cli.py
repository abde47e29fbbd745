from __future__ import annotations

import csv
import dataclasses
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import patmine
import patmine.cli
from patmine import Strategy
from patmine.cli import main
from patmine.dataio import build_dataset, parse_graphs, write_graphs

DEMO = "tests/fixtures/demo.graphs"
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=str(Path(patmine.__file__).parents[1]))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "patmine", *argv],
        capture_output=True, text=True, env=SUBPROCESS_ENV, timeout=60,
    )


NPOS_FRAC_COMMANDS = pytest.mark.parametrize("command", [
    ["mine"],
    ["check", "--pattern", "tests/fixtures/candidate_hexchord.pattern"],
    ["encode", "--target", "asp"],
], ids=["mine", "check", "encode"])


class TestNposFrac:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308", "-0.1"])
    @NPOS_FRAC_COMMANDS
    def test_out_of_range_exits_one_without_traceback(self, command, value):
        # -0.1 would round up to N+ = 0; 1e308 overflows once there are 2 positives.
        proc = run_process(*command, "--examples", DEMO, f"--npos-frac={value}")
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: --npos-frac must be between 0 and 1, got {float(value)}\n"
        )

    @NPOS_FRAC_COMMANDS
    def test_with_npos_exits_one_without_traceback(self, command):
        # The two set N+ two ways; neither may silently win.
        proc = run_process(*command, "--examples", DEMO, "--npos", "2", "--npos-frac", "1.0")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: --npos-frac must not be given with --npos, got --npos 2\n"


class TestMine:
    def test_demo_size_six(self, capsys, tmp_path):
        out_file = tmp_path / "patterns.txt"
        code, out, _ = run(
            capsys, "mine", "--examples", DEMO, "--npos", "1", "--nneg", "0",
            "--min-size", "6", "--max-size", "6", "--out", str(out_file),
        )
        assert code == 0
        # all five size-6 isomorphism classes are valid (certified by the
        # exhaustive oracle); the hexagon+chord subset is among them
        assert "total: 5 pattern(s)" in out
        assert "subset=[0, 1, 2, 3, 4, 5]" in out
        from patmine.dataio import parse_patterns

        blocks = parse_patterns(out_file.read_text())
        assert len(blocks) == 5
        assert all(b.size == 6 for b in blocks)

    @pytest.mark.parametrize("mode", ["directed", "undirected"])
    def test_summary_counts_the_edge_lines_written(self, capsys, tmp_path, mode):
        # An antiparallel pair is two edges only in a directed file.
        path = tmp_path / "pair.graphs"
        path.write_text(
            f"mode {mode}\nt # 0 template\nv 0 a\nv 1 a\ne 0 1\ne 1 0\ne 1 1\n"
            "t # 1 pos\nv 0 a\n"
        )
        code, out, _ = run(capsys, "mine", "--examples", str(path))
        written = write_graphs(build_dataset(parse_graphs(path.read_text()), 1, 0))
        edges = written.split("t # 1")[0].count("\ne ")
        assert (code, edges) == (0, 3 if mode == "directed" else 2)
        assert f"template 2 vertices / {edges} edges" in out.splitlines()[0]

    def test_max_patterns_zero(self, capsys):
        code, out, _ = run(
            capsys, "mine", "--examples", DEMO, "--npos", "1",
            "--max-patterns", "0",
        )
        assert code == 0
        assert "total: 0 pattern(s)" in out

    def test_missing_examples_flag(self, capsys):
        code, _, err = run(capsys, "mine", "--npos", "1")
        assert code == 1

    def test_parse_error_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.graphs"
        bad.write_text("mode undirected\nt # 0 banana\n")
        code, _, err = run(capsys, "mine", "--examples", str(bad))
        assert code == 1
        assert "error" in err

    def test_npos_frac(self, capsys):
        code, out, _ = run(
            capsys, "mine", "--examples", DEMO, "--npos-frac", "1.0",
            "--min-size", "4", "--max-size", "4",
        )
        assert code == 0
        assert "n_pos>=1" in out

    def test_mined_output_passes_check(self, capsys, tmp_path):
        out_file = tmp_path / "mined.txt"
        code, _, _ = run(
            capsys, "mine", "--examples", DEMO, "--npos", "1", "--nneg", "0",
            "--out", str(out_file),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "check", "--pattern", str(out_file), "--examples", DEMO,
            "--npos", "1", "--nneg", "0",
        )
        assert code == 0

    def test_out_into_missing_directory_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "mine", "--examples", DEMO, "--npos", "1",
            "--max-size", "3", "--out", str(tmp_path / "missing" / "p.txt"),
        )
        assert code == 2
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_out_onto_existing_directory_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "outdir"
        target.mkdir()
        code, _, err = run(
            capsys, "mine", "--examples", DEMO, "--npos", "1",
            "--max-size", "3", "--out", str(target),
        )
        assert code == 2
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir"]
        assert target.is_dir() and not any(target.iterdir())

    def test_out_replaces_existing_file_without_temp_files(self, capsys, tmp_path):
        out_file = tmp_path / "p.txt"
        out_file.write_text("stale\n")
        code, _, _ = run(
            capsys, "mine", "--examples", DEMO, "--npos", "1",
            "--max-size", "4", "--out", str(out_file),
        )
        assert code == 0
        assert out_file.read_text().startswith("p # 1 size=4 ")
        assert [p.name for p in tmp_path.iterdir()] == ["p.txt"]

    def test_out_through_symlink_to_device_writes_in_place(self, capsys, tmp_path):
        link = tmp_path / "sink"
        link.symlink_to(os.devnull)
        code, _, _ = run(
            capsys, "mine", "--examples", DEMO, "--npos", "1",
            "--max-size", "4", "--out", str(link),
        )
        assert code == 0
        assert link.is_symlink() and [p.name for p in tmp_path.iterdir()] == ["sink"]

    def test_csv_output(self, capsys, tmp_path):
        csv_file = tmp_path / "times.csv"
        code, _, _ = run(
            capsys, "mine", "--examples", DEMO, "--npos", "1",
            "--max-patterns", "2", "--csv", str(csv_file),
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(csv_file.read_text())))
        assert rows[0] == ["strategy", "index", "elapsed_ms", "dataset", "seed"]
        assert len(rows) == 3


class TestCheck:
    def test_valid_pattern_accepted(self, capsys):
        code, out, _ = run(
            capsys, "check", "--pattern", "tests/fixtures/candidate_hexchord.pattern",
            "--examples", DEMO, "--npos", "1", "--nneg", "0",
        )
        assert code == 0
        assert "example 0 (pos): homomorphism yes" in out
        assert "example 1 (neg): homomorphism no" in out
        assert "valid" in out

    @pytest.mark.parametrize("strategy", ["decomposed", "monolithic"])
    def test_readme_example_matches_golden(self, capsys, tmp_path, golden_dir, strategy):
        # README's mine and check commands on the demo; check prints each
        # example's verdict, read off the coverage miss mask. The pattern
        # file, without its times, pins the subsets and their counts, which
        # both strategies establish alike on the demo.
        patterns = tmp_path / "patterns.txt"
        code, _, _ = run(
            capsys, "mine", "--examples", DEMO, "--npos", "1", "--nneg", "0",
            "--min-size", "6", "--max-size", "6", "--strategy", strategy,
            "--out", str(patterns),
        )
        assert code == 0
        untimed = re.sub(r" time_ms=[0-9.]*", "", patterns.read_text(encoding="utf-8"))
        assert untimed == (golden_dir / "demo.patterns").read_text(encoding="utf-8")
        code, out, err = run(
            capsys, "check", "--pattern", str(patterns), "--examples", DEMO, "--npos", "1"
        )
        assert (code, err) == (0, "")
        assert out == (golden_dir / "demo.check").read_text(encoding="utf-8")

    def test_negative_coverage_rejected(self, capsys):
        code, out, _ = run(
            capsys, "check", "--pattern", "tests/fixtures/candidate_tailpath.pattern",
            "--examples", DEMO, "--npos", "1", "--nneg", "0",
        )
        assert code == 1
        assert "negative coverage 1 > 0" in out

    def test_non_induced_pattern_rejected(self, capsys):
        code, out, _ = run(
            capsys, "check", "--pattern", "tests/fixtures/candidate_notinduced.pattern",
            "--examples", DEMO, "--npos", "1", "--nneg", "0",
        )
        assert code == 1
        assert "not induced" in out

    # A directed template with an antiparallel pair 0 <-> 1, and one
    # positive example that holds the pair.
    DIRECTED = ("mode directed\nt # 0 template\nv 0 a\nv 1 a\nv 2 b\n"
                "e 0 1\ne 1 0\ne 1 2\nt # 1 pos\nv 0 a\nv 1 a\ne 0 1\ne 1 0\n")

    @pytest.mark.parametrize(("edges", "code", "last"), [
        ("e 0 1\ne 1 0\n", 0, "  valid: pos=1>=1 neg=0<=0"),
        ("e 0 1\ne 0 2\n", 1, "invalid: edge (0, 2) uses an undeclared vertex"),
        ("e 0 1\n", 1,
         "invalid: not induced (edge set differs from the induced subgraph)"),
    ], ids=["antiparallel-pair", "undeclared-vertex", "one-edge-of-pair"])
    def test_directed_pattern_edges(self, capsys, tmp_path, edges, code, last):
        graphs = tmp_path / "directed.graphs"
        graphs.write_text(self.DIRECTED)
        pattern = tmp_path / "pair.pattern"
        pattern.write_text("p # 1 size=2 pos=1 neg=0 time_ms=0.000\n"
                           "v 0 a\nv 1 a\n" + edges)
        got, out, _ = run(capsys, "check", "--pattern", str(pattern),
                          "--examples", str(graphs), "--npos", "1", "--nneg", "0")
        assert got == code
        assert out.splitlines()[-1] == last

    def test_missing_pattern_file_is_io_error(self, capsys):
        code, _, err = run(
            capsys, "check", "--pattern", "no/such/file.pattern",
            "--examples", DEMO,
        )
        assert code == 2

    def test_malformed_pattern_line_exits_one_without_traceback(self, tmp_path):
        bad = tmp_path / "bad.pattern"
        bad.write_text("p # 1 size=2 pos=1 neg=0 time_ms=0.000\nv x a\n")
        proc = subprocess.run(
            [sys.executable, "-m", "patmine.cli", "check", "--pattern", str(bad),
             "--examples", DEMO, "--npos", "1"],
            capture_output=True, text=True, env=SUBPROCESS_ENV, timeout=60,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: line 2: non-integer vertex id 'x'\n"

    @pytest.mark.parametrize(
        ("body", "message"),
        [
            ("", "error: line 1: pattern block has no vertex lines"),
            ("v 0 a\nv 0 a\nv 1 a\n", "error: line 3: duplicate vertex id 0"),
            ("v 0 a\n", "error: line 1: size=6 but the block has 1 vertices"),
        ],
        ids=["header-only", "duplicate-v", "size-mismatch"],
    )
    def test_inconsistent_pattern_block_exits_one(self, tmp_path, body, message):
        bad = tmp_path / "bad.pattern"
        bad.write_text("p # 1 size=6 pos=1 neg=0 time_ms=0.000\n" + body)
        proc = subprocess.run(
            [sys.executable, "-m", "patmine", "check", "--pattern", str(bad),
             "--examples", DEMO, "--npos", "1", "--nneg", "1"],
            capture_output=True, text=True, env=SUBPROCESS_ENV, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == message + "\n"
        assert "valid" not in proc.stdout


    @pytest.mark.parametrize(("name", "code", "expected"), [
        ("hexchord", 0, "pattern 1: subset=[0, 1, 2, 3, 4, 5]\n"
         "  example 0 (pos): homomorphism yes\n"
         "  example 1 (neg): homomorphism no\n"
         "  valid: pos=1>=1 neg=0<=0\n"),
        ("tailpath", 1, "pattern 1: subset=[3, 6, 7]\n"
         "  example 0 (pos): homomorphism yes\n"
         "  example 1 (neg): homomorphism yes\n"
         "invalid: negative coverage 1 > 0\n"),
        ("notinduced", 1, "pattern 1: subset=[0, 1, 2]\n"
         "invalid: not induced (edge set differs from the induced subgraph)\n"),
    ], ids=["hexchord", "tailpath", "notinduced"])
    def test_demo_output(self, capsys, name, code, expected):
        got = run(capsys, "check", "--pattern",
                  f"tests/fixtures/candidate_{name}.pattern",
                  "--examples", DEMO, "--npos", "1", "--nneg", "0")
        assert got == (code, expected, "")


class TestIOErrors:
    """Every unreadable input and unwritable output exits 2 with one
    ``error: cannot read|write <path>: ...`` line and leaves no file behind."""

    @staticmethod
    def bad_path(tmp_path, kind):
        if kind == "directory":
            (tmp_path / "dir").mkdir()
            return tmp_path / "dir"
        return tmp_path / "missing" / "file"

    @staticmethod
    def assert_io_error(proc, verb, path):
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: cannot {verb} {path}: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("argv", [
        ["mine", "--examples", "{bad}"],
        ["mine", "--examples", DEMO, "--template", "{bad}"],
        ["check", "--pattern", "{bad}", "--examples", DEMO],
        ["check", "--pattern", "tests/fixtures/candidate_hexchord.pattern",
         "--examples", "{bad}"],
        ["encode", "--target", "asp", "--examples", "{bad}"],
    ], ids=["mine-examples", "mine-template", "check-pattern", "check-examples",
            "encode-examples"])
    def test_unreadable_input(self, tmp_path, argv, kind):
        bad = self.bad_path(tmp_path, kind)
        before = sorted(tmp_path.rglob("*"))
        proc = run_process(*(a.format(bad=bad) for a in argv))
        self.assert_io_error(proc, "read", bad)
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("argv", [
        ["mine", "--examples", DEMO, "--max-size", "3", "--out", "{bad}"],
        ["mine", "--examples", DEMO, "--max-size", "3", "--csv", "{bad}"],
        ["encode", "--target", "asp", "--examples", DEMO, "--out", "{bad}"],
        ["gen", "--n-graphs", "3", "--vertex-range", "4", "6", "--avg-edges", "4",
         "--out", "{bad}"],
    ], ids=["mine-out", "mine-csv", "encode-out", "gen-out"])
    def test_unwritable_output(self, tmp_path, argv, kind):
        bad = self.bad_path(tmp_path, kind)
        before = sorted(tmp_path.rglob("*"))
        proc = run_process(*(a.format(bad=bad) for a in argv))
        self.assert_io_error(proc, "write", bad)
        assert sorted(tmp_path.rglob("*")) == before


class TestBench:
    def test_demo_repeats_one_row_accounting(self, capsys, tmp_path):
        csv_file = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys, "bench", "--synth", "demo", "--npos", "1",
            "--strategies", "both", "--repeats", "1", "--csv", str(csv_file),
            "--max-patterns", "10",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(csv_file.read_text())))[1:]
        by_strategy: dict[str, int] = {}
        for strategy, *_ in rows:
            by_strategy[strategy] = by_strategy.get(strategy, 0) + 1
        assert by_strategy["decomposed"] == by_strategy["monolithic"]
        assert len(rows) == 2 * by_strategy["decomposed"]
        assert "speedup" in out

    def test_single_strategy_omits_speedup(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--synth", "demo", "--npos", "1",
            "--strategies", "decomposed", "--repeats", "1",
        )
        assert code == 0
        assert "speedup" not in out
        assert "monolithic" not in out

    def test_synthetic_preset_strategy_equivalence(self, capsys, tmp_path):
        csv_file = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys, "bench", "--synth", "yoshida-small", "--seed", "7",
            "--strategies", "both", "--repeats", "1", "--max-patterns", "3",
            "--csv", str(csv_file),
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(csv_file.read_text())))[1:]
        dec = [r for r in rows if r[0] == "decomposed"]
        mono = [r for r in rows if r[0] == "monolithic"]
        assert len(dec) == len(mono) == 3
        assert all(r[4] == "7" for r in rows)

    def test_examples_file(self, capsys, tmp_path):
        csv_file = tmp_path / "bench.csv"
        code, out, err = run(
            capsys, "bench", "--examples", DEMO, "--npos", "1", "--repeats", "1",
            "--csv", str(csv_file),
        )
        assert (code, err) == (0, "")
        assert "n_pos>=1" in out and "speedup" in out
        rows = list(csv.reader(io.StringIO(csv_file.read_text())))[1:]
        assert {(r[0], r[3]) for r in rows} == {
            ("decomposed", "demo.graphs"), ("monolithic", "demo.graphs"),
        }
        code, _, err = run(capsys, "bench", "--examples", DEMO, "--npos", "999")
        message = "n_pos_threshold 999 exceeds the 1 positive example(s)"
        assert (code, err) == (1, f"error: {message}\n")

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "bench", "--synth", "nope")
        assert code == 1

    @pytest.mark.parametrize(("flags", "message"), [
        (["--npos", "999"], "n_pos_threshold 999 exceeds the 1 positive example(s)"),
        (["--nneg", "-1"], "thresholds must be non-negative"),
        (["--min-size", "0"], "min_pattern_size must be >= 1"),
        (["--max-patterns", "-1"], "max_patterns must be non-negative"),
        (["--repeats", "0"], "--repeats must be >= 1"),
        (["--synth", "nope"], "unknown preset 'nope'; choose from yoshida, "
                              "yoshida-50, yoshida-small or demo"),
    ], ids=["npos", "nneg", "min-size", "max-patterns", "repeats", "synth"])
    def test_invalid_value_exits_one_without_traceback(self, flags, message):
        proc = run_process("bench", "--synth", "demo", "--repeats", "1", *flags)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {message}\n"

    def test_strategies_emitting_different_patterns_exit_two(
        self, capsys, monkeypatch
    ):
        # Same pattern count, different subsets: a count comparison passes.
        real_mine = patmine.cli.mine

        def skewed(dataset, config):
            results = real_mine(dataset, config)
            if config.strategy is Strategy.MONOLITHIC:
                results[-1] = dataclasses.replace(results[-1], subset=results[0].subset)
            return results

        monkeypatch.setattr(patmine.cli, "mine", skewed)
        code, _, err = run(
            capsys, "bench", "--synth", "demo", "--npos", "1",
            "--strategies", "both", "--repeats", "2", "--max-patterns", "3",
        )
        assert code == 2
        assert err == "error: strategies disagree on the emitted patterns\n"


class TestEncode:
    def test_asp_matches_golden(self, capsys, tmp_path, golden_dir):
        out_file = tmp_path / "demo.lp"
        code, _, _ = run(
            capsys, "encode", "--target", "asp", "--examples", DEMO,
            "--npos", "1", "--nneg", "0", "--out", str(out_file),
        )
        assert code == 0
        assert out_file.read_text() == (golden_dir / "demo.lp").read_text()

    def test_idp_threshold_echo(self, capsys):
        code, out, _ = run(
            capsys, "encode", "--target", "idp", "--examples", DEMO, "--npos", "1",
        )
        assert code == 0
        assert "threshold = 1" in out

    def test_unknown_target(self, capsys):
        code, _, _ = run(
            capsys, "encode", "--target", "prolog", "--examples", DEMO,
        )
        assert code == 1

    def test_out_into_missing_directory_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "encode", "--target", "asp", "--examples", DEMO, "--npos", "1",
            "--out", str(tmp_path / "missing" / "demo.lp"),
        )
        assert code == 2
        assert err.startswith("error: cannot write") and err.count("\n") == 1


class TestGen:
    def test_yoshida_preset_count(self, capsys, tmp_path):
        out_file = tmp_path / "y.graphs"
        code, _, _ = run(
            capsys, "gen", "--preset", "yoshida", "--seed", "1",
            "--out", str(out_file),
        )
        assert code == 0
        from patmine.dataio import parse_graphs

        blocks = parse_graphs(out_file.read_text())
        assert len(blocks) == 266  # 265 examples + the template
        assert sum(1 for _, tag, _ in blocks if tag == "template") == 1

    def test_same_seed_identical_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.graphs", tmp_path / "b.graphs"
        for path in (a, b):
            code, _, _ = run(
                capsys, "gen", "--n-graphs", "10", "--vertex-range", "4", "8",
                "--avg-edges", "6", "--n-labels", "3", "--seed", "5",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_text() == b.read_text()

    def test_invalid_vertex_range(self, capsys):
        code, _, err = run(
            capsys, "gen", "--n-graphs", "3", "--vertex-range", "1", "1",
        )
        assert code == 1

    def test_env_seed_override(self, capsys, tmp_path, monkeypatch):
        a, b = tmp_path / "a.graphs", tmp_path / "b.graphs"
        run(capsys, "gen", "--n-graphs", "5", "--vertex-range", "4", "6",
            "--avg-edges", "5", "--seed", "1", "--out", str(a))
        monkeypatch.setenv("PATMINE_SEED", "1")
        run(capsys, "gen", "--n-graphs", "5", "--vertex-range", "4", "6",
            "--avg-edges", "5", "--seed", "999", "--out", str(b))
        assert a.read_text() == b.read_text()


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_no_command_exits_one(self, capsys):
        assert main([]) == 1

    def test_python_dash_m_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "patmine", "--version"],
            capture_output=True, text=True, env=SUBPROCESS_ENV, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == f"patmine {patmine.__version__}\n"

    @pytest.mark.parametrize("argv", [
        ["mine", "--examples", "{bad}"],
        ["check", "--pattern", "{bad}", "--examples", DEMO],
        ["encode", "--target", "asp", "--examples", "{bad}"],
    ], ids=["mine", "check", "encode"])
    def test_undecodable_input_exits_one(self, tmp_path, argv):
        bad = tmp_path / "bad.graphs"
        bad.write_bytes(b"\xff\xfemode directed\n")
        proc = run_process(*(a.format(bad=bad) for a in argv))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: cannot read {bad}: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(("argv", "message"), [
        (["encode", "--target", "asp", "--examples", "{dir}/novertex.graphs"],
         "template graph has no vertices"),
        (["mine", "--examples", "{dir}/notemplate.graphs"],
         "expected exactly one template block, found 0"),
        (["gen", "--vertex-range", "5", "6", "--avg-edges", "2"],
         "target_avg_edges 2 is below the spanning tree minimum 4 "
         "for every vertex count in range"),
        (["gen", "--vertex-range", "5", "6", "--n-labels", "0"],
         "n_labels must be >= 1"),
        (["gen", "--preset", "nope"],
         "unknown preset 'nope'; choose from yoshida, yoshida-50, yoshida-small"),
    ], ids=["encode-empty-template", "mine-no-template", "gen-avg-edges",
            "gen-n-labels", "gen-preset"])
    def test_library_rejection_exits_one(self, tmp_path, argv, message):
        (tmp_path / "novertex.graphs").write_text(
            "mode undirected\nt # 0 template\nt # 1 pos\nv 0 a\n"
        )
        (tmp_path / "notemplate.graphs").write_text("mode undirected\nt # 1 pos\nv 0 a\n")
        proc = run_process(*(a.format(dir=tmp_path) for a in argv))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("command", [["mine"], ["encode", "--target", "idp"]],
                             ids=["mine", "encode"])
    def test_examples_in_another_mode_than_the_template_exit_one(self, tmp_path, command):
        template, examples = tmp_path / "template.graphs", tmp_path / "examples.graphs"
        template.write_text("mode undirected\nt # 0 template\nv 0 a\nv 1 b\ne 0 1\n")
        examples.write_text("mode directed\nt # 1 pos\nv 0 a\nv 1 b\ne 0 1\n")
        proc = run_process(*command, "--template", str(template),
                           "--examples", str(examples), "--npos", "1")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ("error: example graph 0 is in mode directed but the "
                               "template is in mode undirected\n")
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", [
        ["mine"],
        ["check", "--pattern", "tests/fixtures/candidate_hexchord.pattern"],
        ["encode", "--target", "asp"],
    ], ids=["mine", "check", "encode"])
    def test_example_block_in_the_template_file_exits_one(self, capsys, tmp_path, command):
        # The template file's pos block would otherwise be mined as a
        # positive example beside the examples file's one negative.
        template, examples = tmp_path / "t.graphs", tmp_path / "e.graphs"
        template.write_text("mode undirected\nt # 0 template\nv 0 a\nv 1 b\ne 0 1\n"
                            "t # 1 pos\nv 0 a\nv 1 b\ne 0 1\n")
        examples.write_text("mode undirected\nt # 2 neg\nv 0 a\n")
        code, out, err = run(capsys, *command, "--template", str(template),
                             "--examples", str(examples), "--npos", "1")
        assert (code, out) == (1, "")
        assert err == (f"error: {template}: block 1 is tagged 'pos', but a "
                       "--template file holds only template blocks\n")

    @pytest.mark.parametrize("command", [
        ["mine"],
        ["check", "--pattern", "tests/fixtures/candidate_hexchord.pattern"],
        ["encode", "--target", "asp"],
    ], ids=["mine", "check", "encode"])
    @pytest.mark.parametrize(("examples_text", "message"), [
        # Block 0 would otherwise be read twice, once from each file.
        ("t # 1 pos\nv 0 a\nt # 0 neg\nv 0 b\n",
         "block id 0 is used in both {template} and {examples}"),
        # This used to name neither file: "expected exactly one template
        # block, found 2".
        ("t # 1 template\nv 0 a\nt # 2 pos\nv 0 a\n",
         "{examples}: block 1 is a template block, but the template is read "
         "from {template}"),
    ], ids=["shared-id", "second-template"])
    def test_block_ids_across_the_two_files(
        self, capsys, tmp_path, command, examples_text, message
    ):
        template, examples = tmp_path / "t.graphs", tmp_path / "e.graphs"
        template.write_text("mode undirected\nt # 0 template\nv 0 a\nv 1 b\ne 0 1\n")
        examples.write_text("mode undirected\n" + examples_text)
        code, out, err = run(capsys, *command, "--template", str(template),
                             "--examples", str(examples), "--npos", "1")
        assert (code, out) == (1, "")
        assert err == f"error: {message.format(template=template, examples=examples)}\n"

    def test_any_value_error_exits_one(self, capsys, monkeypatch):
        def reject(dataset, config):
            raise ValueError("boom")

        monkeypatch.setattr(patmine.cli, "mine", reject)
        code, _, err = run(capsys, "mine", "--examples", DEMO)
        assert (code, err) == (1, "error: boom\n")

    def test_closed_stdout_exits_two_with_one_line(self):
        # The read end is closed before the process starts, so its first
        # write to stdout fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "patmine", "mine", "--examples", DEMO],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=SUBPROCESS_ENV, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot write stdout: ")
        assert proc.stderr.count("\n") == 1
