"""The H-primes do not depend on the order of the generators.

The set of torus-stable Poisson primes is a property of the algebra, not
of the tower that presents it.  `reorder` writes the same algebra with its
generators in another order; where that order is again a tower (the
presentation loads and verifies), its H-primes, renamed by generator name
into the ring of the original order, are the original ones.  Each reduced
basis is computed again in that ring, because the grevlex order of the
reordered ring is not the original one.
"""

import itertools
import json
import random

import pytest

from pcgl.cauchon import enumerate_hprimes
from pcgl.cgl import verify_cgl
from pcgl.cli import fixture_path, load_presentation_data
from pcgl.errors import TriangularityError
from pcgl.ideals import Ideal
from pcgl.qpoly import parse
from test_matrices import towers


def reorder(data: dict, perm) -> dict:
    """Presentation file contents of the same algebra with generator
    perm[p] of `data` at position p.  A bracket whose pair comes out with
    the earlier generator first is swapped and written as -(text)."""
    old = towers.presentation_data(load_presentation_data(data)[0])
    where = {g: p for p, g in enumerate(perm)}
    brackets = {}
    for key, text in old["brackets"].items():
        i, j = (where[int(x) - 1] for x in key.split(","))
        if i > j:
            brackets[f"{i + 1},{j + 1}"] = text
        else:
            brackets[f"{j + 1},{i + 1}"] = f"-({text})"
    return {
        "field": "QQ",
        "vars": [old["vars"][g] for g in perm],
        "brackets": brackets,
        "grading": [[row[g] for g in perm] for row in old["grading"]],
    }


def hprimes(P, ctx):
    """The H-primes of P, each as its reduced basis in the ring `ctx` with
    the same generator names; asserts the enumeration is conclusive."""
    tree = enumerate_hprimes(P)
    assert not tree.inconclusive
    result = set()
    for leaf in tree.leaves():
        gens = [parse(str(g), ctx) for g in leaf.ideal.generators]
        result.add(tuple(str(g) for g in Ideal(ctx, gens).groebner()))
    return result


def load_orders(data, perms):
    """(accepted, refused): the orders of `perms` whose presentation loads
    and verifies, each with its presentation, and the number that
    triangularity refuses at load."""
    accepted, refused = [], 0
    for perm in perms:
        try:
            P = load_presentation_data(reorder(data, perm))[0]
        except TriangularityError:
            refused += 1
            continue
        assert verify_cgl(P).ok, perm
        accepted.append((perm, P))
    return accepted, refused


def matrix_tower_order(perm, m: int, n: int) -> bool:
    """Whether generator perm[p] at position p orders the m x n matrix
    algebra as a tower: for every diagonal pair x_ij, x_kl (i < k, j < l),
    whose bracket is a multiple of x_il x_kj, both x_il and x_kj come before
    the later of the two."""
    at = {divmod(g, n): p for p, g in enumerate(perm)}
    for (i, j), (k, l) in itertools.combinations(sorted(at), 2):
        if i < k and j < l:
            later = max(at[i, j], at[k, l])
            if at[i, l] > later or at[k, j] > later:
                return False
    return True


def test_reorder_by_the_identity_is_the_same_tower():
    data = towers.matrix_data(2, 3)
    P = load_presentation_data(data)[0]
    again = load_presentation_data(reorder(data, range(6)))[0]
    assert again.ctx == P.ctx and again.grading == P.grading
    assert again.table.pairs() == P.table.pairs()


def test_two_by_two_every_order():
    data = towers.matrix_data(2, 2)
    P = load_presentation_data(data)[0]
    want = hprimes(P, P.ctx)
    assert len(want) == 14
    perms = list(itertools.permutations(range(4)))
    accepted, refused = load_orders(data, perms)
    assert (len(accepted), refused) == (12, 12)
    assert [perm for perm, _ in accepted] == [p for p in perms if matrix_tower_order(p, 2, 2)]
    for perm, Q in accepted:
        assert hprimes(Q, P.ctx) == want, perm


def test_two_by_three_seeded_orders():
    data = towers.matrix_data(2, 3)
    P = load_presentation_data(data)[0]
    perms = list(itertools.permutations(range(6)))
    accepted, refused = load_orders(data, perms)
    assert (len(accepted), refused) == (120, 600)
    assert [perm for perm, _ in accepted] == [p for p in perms if matrix_tower_order(p, 2, 3)]
    want = hprimes(P, P.ctx)
    assert len(want) == 46
    for perm, Q in random.Random(18).sample(accepted, 5):
        assert hprimes(Q, P.ctx) == want, perm


@pytest.mark.parametrize("name,count", [("weyl", 2), ("pplane", 4), ("m2", 14)])
def test_fixture_reversed(name, count):
    with open(fixture_path(name)) as fh:
        data = json.load(fh)
    P = load_presentation_data(data)[0]
    Q = load_presentation_data(reorder(data, range(P.nvars - 1, -1, -1)))[0]
    assert verify_cgl(Q).ok
    want = hprimes(P, P.ctx)
    assert len(want) == count
    assert hprimes(Q, P.ctx) == want
