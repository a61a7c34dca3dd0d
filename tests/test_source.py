"""Checks on the package source itself."""

import ast
import importlib
from collections import deque
from pathlib import Path

import pytest

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


def _package_modules():
    """Every module of the package by its short name, imported."""
    return {path.stem: importlib.import_module(f"{newton_segre.__name__}.{path.stem}")
            for path in sorted(SOURCE.glob("*.py")) if path.stem != "__init__"}


def test_functools_caches_are_the_known_three():
    """Each cache decides what a repeated input costs, and the benchmark
    clears every one of them per job, so a new cache is a decision to make
    on purpose, not one to slip in."""
    found = {value.__name__ for module in _package_modules().values()
             for value in vars(module).values()
             if callable(getattr(value, "cache_info", None))}
    assert found == {"newton_polyhedron", "lct", "_horner_coefficients"}


@pytest.mark.parametrize("name", ["segre", "series", "decompose", "cones"])
def test_segre_path_holds_no_module_level_container(name):
    """The Segre path keeps its working state, such as the graded index, per
    call: a module-level list, dict or set would outlive the call and the
    cache clearing between jobs."""
    module = _package_modules()[name]
    found = [attr for attr, value in vars(module).items() if not attr.startswith("__")
             and isinstance(value, (list, dict, set, bytearray, deque))]
    assert found == []
