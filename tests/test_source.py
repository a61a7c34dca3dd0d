"""Checks on the package source itself."""

import ast
from pathlib import Path

import newton_segre

SOURCE = Path(newton_segre.__file__).resolve().parent


def test_no_assert_statements():
    """python -O strips assert, so no check in the package may be one."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
