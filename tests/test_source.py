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


# What reads a count as an int; ideals._integers is the package's one reader.
_INTEGER_READERS = {("operator", "index"), ("numbers", "Integral")}


def test_one_integer_reader():
    """No module but ideals imports operator.index or numbers.Integral, as
    `from operator import index` or as `operator.index`, so every count is
    read by ideals._integers."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = {(node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {(node.value.id, node.attr)}
            else:
                continue
            if names & _INTEGER_READERS and path.name != "ideals.py":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
