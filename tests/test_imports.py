"""Static checks over ``src/patmine``.

The package has no runtime dependencies (``dependencies = []`` in
pyproject.toml): every absolute import names a standard library module or
the package itself. No function calls itself by name, so no input can
exhaust the interpreter's recursion limit through direct recursion."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import patmine

SOURCES = sorted(Path(patmine.__file__).parent.glob("*.py"))


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
