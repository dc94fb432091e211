"""The package imports nothing outside the standard library, and no RNG."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "pcgl").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_and_not_random(path):
    tops = {name.split(".")[0] for name in absolute_imports(path)}
    assert tops <= sys.stdlib_module_names, tops - sys.stdlib_module_names
    assert "random" not in tops


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cauchon.py", "qpoly.py"}
