from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCriterion6:
    @pytest.mark.parametrize("argv", [
        ["--runs", "0", "a"],
        ["--runs", "-1", "a", "b"],
        ["a", "b", "c"],
    ])
    def test_bad_arguments_exit_two_without_a_run(self, monkeypatch, capsys, argv):
        tool = load_tool("criterion6")

        def no_process(*args, **kwargs):
            raise AssertionError("a process was spawned")

        monkeypatch.setattr(tool.subprocess, "run", no_process)
        with pytest.raises(SystemExit) as exc:
            tool.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and ("--runs" in err or "checkouts" in err)


    def test_two_sides_of_one_checkout(self, monkeypatch, capsys):
        tool = load_tool("criterion6")
        ratios = iter([7.0, 7.5, 8.0, 8.5])
        monkeypatch.setattr(tool, "one_run", lambda checkout: next(ratios))
        root = TOOLS.parent
        assert tool.main(["--runs", "2", str(root), str(root)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.endswith("over 2 runs") for line in lines) == 2
        # Run 1 goes first then second, run 2 second then first.
        assert json.loads(lines[-1]) == [
            {"checkout": str(root), "ratios": [7.0, 8.5]},
            {"checkout": str(root), "ratios": [7.5, 8.0]},
        ]


class TestSetupCost:
    @pytest.mark.parametrize(("argv", "complaint"), [
        (["--runs", "0", "{graphs}", "a"], "--runs"),
        (["--runs", "-1", "{graphs}", "a", "b"], "--runs"),
        (["{graphs}", "a", "b", "c"], "checkouts"),
        (["{graphs}"], "checkouts"),
        (["{missing}", "a"], "is not a file"),
    ])
    def test_bad_arguments_exit_two_without_a_run(
        self, monkeypatch, capsys, tmp_path, argv, complaint
    ):
        graphs = tmp_path / "in.graphs"
        graphs.write_text("mode undirected\n")
        paths = {"graphs": graphs, "missing": tmp_path / "missing.graphs"}
        tool = load_tool("setup_cost")

        def no_process(*args, **kwargs):
            raise AssertionError("a process was spawned")

        monkeypatch.setattr(tool.subprocess, "run", no_process)
        with pytest.raises(SystemExit) as exc:
            tool.main([arg.format(**paths) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and complaint in err


    def test_two_sides_of_one_checkout(self, capsys):
        root = TOOLS.parent
        demo = root / "tests" / "fixtures" / "demo.graphs"
        tool = load_tool("setup_cost")
        assert tool.main(["--runs", "2", str(demo), str(root), str(root)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "load lower in" in lines[-2] and lines[-2].endswith("of 2 pairs")
        sides = json.loads(lines[-1])
        assert [side["checkout"] for side in sides] == [str(root)] * 2
        for side in sides:
            assert len(side["import_ms"]) == len(side["load_ms"]) == 2
            assert all(0 < a < b for a, b in zip(side["import_ms"], side["load_ms"]))


class TestLoc:
    # 8 lines, 3 of code: the import and the two lines of the assigned string.
    INIT = '''"""Package
docstring."""

# a comment
import os  # a trailing comment leaves the line code

X = """an assigned string:
not a docstring"""
'''
    # 14 lines, 5 of code: class, def, the later string, return, async def.
    MODULE = '''class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring.
        """
        # an indented comment
        "a string after the docstring is code"
        return 1


async def g():
    """Async function docstring."""
'''

    def test_counts_a_package_with_known_lines(self, tmp_path, capsys):
        (tmp_path / "sub").mkdir()
        (tmp_path / "__init__.py").write_text(self.INIT)
        (tmp_path / "sub" / "mod.py").write_text(self.MODULE)
        (tmp_path / "notes.txt").write_text("not python\n")
        tool = load_tool("loc")
        assert tool.count(tmp_path) == (22, 8)
        assert tool.main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == f"{tmp_path}: 22 lines, 8 code lines\n"

    def test_missing_directory_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            load_tool("loc").main([str(tmp_path / "missing")])
        assert exc.value.code == 2
        assert "is not a directory" in capsys.readouterr().err
