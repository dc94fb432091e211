"""Poisson affine spaces: an oracle whose answer is known in closed form.

The Poisson affine space of a skew integer form q has the brackets
{y_i, y_j} = q_ij y_i y_j.  Under the identity grading the torus (K*)^n
scales each variable on its own, so its H-primes are exactly the 2^n
ideals generated by sets of variables (Goodearl-Letzter 1998).  They are
ordered as the subsets of the n variables: n * 2^(n-1) covers and
3^n - 2^n nested pairs, and each variable of Q outside P is normal and
separates P < Q.  Every draw checks all four.
"""

import random

import pytest

from pcgl.cauchon import enumerate_hprimes, separating_normal
from pcgl.cli import load_presentation_data
from pcgl.ideals import inclusion_order, variable_support


def affine_space(n: int, seed: int):
    """The Poisson affine space of a seeded skew form with entries in -3..3,
    graded by the identity matrix."""
    rng = random.Random(seed)
    names = [f"y{i + 1}" for i in range(n)]
    brackets = {
        f"{i + 1},{j + 1}": f"{q}*{names[i]}*{names[j]}"
        for i in range(n)
        for j in range(i)
        if (q := rng.randint(-3, 3))
    }
    grading = [[int(i == r) for i in range(n)] for r in range(n)]
    return load_presentation_data({"vars": names, "brackets": brackets, "grading": grading})[0]


@pytest.mark.parametrize("seed", range(12))
def test_affine_space_hprimes(seed):
    n = 2 + seed % 4
    P = affine_space(n, seed)
    tree = enumerate_hprimes(P)
    assert not tree.inconclusive
    leaves = tree.leaves()
    supports = sorted(sorted(variable_support(leaf.ideal)) for leaf in leaves)
    every = sorted(sorted(i for i in range(n) if mask >> i & 1) for mask in range(2**n))
    assert supports == every
    above, covers = inclusion_order([leaf.ideal for leaf in leaves])
    assert sum(map(len, covers)) == n * 2 ** (n - 1)
    assert sum(map(len, above)) == 3**n - 2**n
    for i, up in enumerate(above):
        for j in up:
            assert separating_normal(P, leaves[i], leaves[j]) is not None
