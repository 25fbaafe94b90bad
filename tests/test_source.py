"""Rules on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rotspec"


def test_no_assert_statements():
    # python -O strips assert statements, so no check in the package may
    # rest on one; checks raise instead
    found = [f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements under src/: {found}"
