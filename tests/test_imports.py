"""Checks on what ``src/patmine`` imports and exports.

The package has no runtime dependencies (``dependencies = []`` in
pyproject.toml): every absolute import names a standard library module or
the package itself. No function calls itself by name, so no input can
exhaust the interpreter's recursion limit through direct recursion.

A mining run loads only what it uses: the encoder, the synthetic
generator's helpers, the CSV writer's modules and the CLI's bench, encode
and demo dependencies load on first use. Every public name still resolves
through the package."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import patmine

SOURCES = sorted(Path(patmine.__file__).parent.glob("*.py"))
DEMO = Path(__file__).parent / "fixtures" / "demo.graphs"


def absolute_imports(path: Path) -> list[str]:
    """Top-level module names of the absolute imports in ``path``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_patmine(path):
    outside = [
        name for name in absolute_imports(path)
        if name != "patmine" and name not in sys.stdlib_module_names
    ]
    assert outside == []


def self_calls(path: Path) -> list[str]:
    """Functions in ``path`` whose body calls them by their own name, as
    ``name(...)`` or, in a method, ``self.name(...)`` / ``cls.name(...)``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if (isinstance(func, ast.Name) and func.id == node.name) or (
                isinstance(func, ast.Attribute)
                and func.attr == node.name
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
            ):
                found.append(f"{node.name} (line {call.lineno})")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    assert self_calls(path) == []


def undocumented_dataclasses(path: Path) -> list[str]:
    """Classes in ``path`` decorated with ``dataclass`` that have no docstring."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef) and ast.get_docstring(node) is None:
            for deco in node.decorator_list:
                func = deco.func if isinstance(deco, ast.Call) else deco
                if isinstance(func, ast.Name) and func.id == "dataclass":
                    found.append(node.name)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_dataclasses_have_docstrings(path):
    """``dataclass`` gives a class without a docstring one made from
    ``inspect.signature``, which costs every import of the module that
    defines the class about half a millisecond per class."""
    assert undocumented_dataclasses(path) == []


def top_level_names(path: Path) -> set[str]:
    """Names that ``path`` defines at module level (not those it imports)."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", patmine.__all__)
def test_public_name_is_its_defining_modules_object(name):
    homes = [path.stem for path in SOURCES if name in top_level_names(path)]
    assert len(homes) == 1
    module = importlib.import_module(f"patmine.{homes[0]}")
    assert getattr(patmine, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace: dict[str, object] = {}
    exec("from patmine import *", namespace)
    assert set(patmine.__all__) <= namespace.keys()


def test_unknown_name_is_not_an_attribute():
    assert not hasattr(patmine, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        patmine.no_such_name


LIBRARY_RUN = """
from pathlib import Path
from patmine import dataio, miner
dataset = dataio.build_dataset(dataio.parse_graphs(Path(graphs).read_text()), 1, 0)
results = miner.mine(dataset, miner.MiningConfig(n_pos_threshold=1, n_neg_threshold=0))
assert results and dataio.write_patterns(results)
"""

CLI_RUN = """
from patmine import cli
assert cli.main(["mine", "--examples", graphs, "--npos", "1"]) == 0
"""


@pytest.mark.parametrize(("run", "unused"), [
    (LIBRARY_RUN, ["patmine.encoder", "patmine._rng", "csv", "heapq"]),
    (CLI_RUN, ["patmine.encoder", "statistics", "patmine.demo"]),
], ids=["library", "cli"])
def test_mining_run_loads_only_what_it_uses(run, unused):
    """A fresh process mines the demo file; none of ``unused`` may be loaded
    by it (a module the interpreter loaded before the run is not counted)."""
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"graphs = {str(DEMO)!r}\n"
        f"{run}\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(patmine.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    loaded = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
    assert "patmine.miner" in loaded
    assert [name for name in unused if name in loaded] == []
