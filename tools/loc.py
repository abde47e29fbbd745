"""Line counts of a Python package: total lines and code lines.

    python3 tools/loc.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this repository's ``src/patmine``. Every ``*.py``
file under it is counted. Code lines are the lines that are not blank, not
a ``#`` comment line, and not part of a module, class or function
docstring.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "patmine"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(package: Path) -> tuple[int, int]:
    """(total lines, code lines) over the package's ``*.py`` files."""
    total = code = 0
    for path in sorted(package.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        docstrings: set[int] = set()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, SCOPES) and ast.get_docstring(node) is not None:
                doc = node.body[0]
                docstrings.update(range(doc.lineno, doc.end_lineno + 1))
        lines = text.splitlines()
        total += len(lines)
        code += sum(
            1 for i, line in enumerate(lines, 1)
            if line.strip() and not line.lstrip().startswith("#")
            and i not in docstrings
        )
    return total, code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    args = parser.parse_args(argv)
    if not args.package.is_dir():
        parser.error(f"{args.package} is not a directory")
    total, code = count(args.package)
    print(f"{args.package}: {total} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
