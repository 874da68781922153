"""Invariant checks in the package must survive python -O."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "clawsplit").glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements vanish under -O: {found}"
