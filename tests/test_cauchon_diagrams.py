"""The enumeration's per-level counts on matrix towers against the Cauchon
diagrams of each row-major prefix shape, counted by the brute force of
`tests/cauchon_diagrams.py`, which shares no code with the package."""

import ast
import sys
from pathlib import Path

import pytest

from cauchon_diagrams import count_diagrams, level_counts, prefix_shape
from pcgl.cauchon import enumerate_hprimes
from test_matrices import matrix_presentation


def test_the_brute_force_imports_nothing_from_pcgl():
    path = Path(__file__).parent / "cauchon_diagrams.py"
    tops = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            tops |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import"
            tops.add(node.module.split(".")[0])
    assert tops <= sys.stdlib_module_names, tops - sys.stdlib_module_names


def test_the_brute_force_on_small_shapes():
    # a single row or column: every colouring, since no box has a box both
    # to its left and above it; a 2x2 square: all but the two colourings
    # with the last box black and its two neighbours white
    assert prefix_shape(3, 7) == (3, 3, 1)
    assert prefix_shape(3, 0) == ()
    assert count_diagrams(()) == 1
    assert count_diagrams((1,)) == 2
    assert count_diagrams((4,)) == 16
    assert count_diagrams((1, 1, 1)) == 8
    assert count_diagrams((2, 2)) == 14
    assert level_counts(3, 3) == [1, 2, 4, 8, 16, 28, 46, 92, 152, 230]


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (3, 3), (2, 4)])
def test_level_counts_equal_the_cauchon_diagrams(m, n):
    tree = enumerate_hprimes(matrix_presentation(m, n))
    assert not tree.inconclusive
    assert [len(level) for level in tree.levels] == level_counts(m, n)
