from __future__ import annotations

import importlib.util
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
