"""The package has no runtime dependencies (``dependencies = []`` in
pyproject.toml): every absolute import in ``src/patmine`` names a standard
library module or the package itself."""

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
