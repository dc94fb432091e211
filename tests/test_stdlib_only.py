"""The package imports nothing outside the standard library, no RNG and no
`dataclasses`: its records are plain classes, so that importing it
generates no methods at run time."""

import ast
import os
import subprocess
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
    assert "dataclasses" not in tops


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cauchon.py", "qpoly.py"}


def test_cold_import_loads_no_dataclasses():
    # a fresh interpreter without `site`, so that only pcgl's own imports load
    src = Path(__file__).parent.parent / "src"
    code = "import sys, pcgl, pcgl.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "False\n"
