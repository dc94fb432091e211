"""A second CAS checks every H-prime that the enumeration emits.

For each leaf of `enumerate_hprimes`, an H-prime of the whole tower, sympy
recomputes from the leaf's generators:

- the reduced grevlex basis, which must equal ours, each element made
  monic on both sides;
- {g, x_i} for every basis element g and generator x_i, by the chain rule
  from the presentation's bracket table read into sympy, which must reduce
  to 0 on that basis: the ideal is Poisson;
- the torus weight of each term of a basis element, one per element: the
  basis is homogeneous, so the ideal is torus-stable.

Here on weyl, pplane, m2 and the 2x3 matrix tower; the 3x3 tower runs in
tests/oracles/second_cas.py.
"""

import pytest

from pcgl.cauchon import enumerate_hprimes
from test_kernel import sp, sympy_groebner, to_sympy  # noqa: F401 (sp is a fixture)
from test_matrices import matrix_presentation


def sympy_table(sp, P):
    """The bracket table as a skew matrix of sympy expressions:
    row i, column j holds {x_i, x_j}."""
    n = P.nvars
    rows = [[sp.Integer(0)] * n for _ in range(n)]
    for (i, j), p in P.table.pairs():
        rows[i][j] = to_sympy(sp, p)
        rows[j][i] = -rows[i][j]
    return rows


def monic(sp, expr, syms):
    return sp.Poly(expr, *syms, domain="QQ").monic()


def weight(P, exponents):
    """The torus weight of the monomial with these exponents."""
    weights = P.grading.weights
    return tuple(sum(e * w[r] for e, w in zip(exponents, weights)) for r in range(P.grading.rank))


def leaf_faults(sp, P):
    """The leaf H-primes of P, and (label, check) for each check that one
    of them fails."""
    syms = sp.symbols(P.ctx.names)
    table = sympy_table(sp, P)
    leaves = enumerate_hprimes(P).leaves()
    faults = []
    for node in leaves:
        label = node.label()
        ours = [monic(sp, to_sympy(sp, g), syms) for g in node.ideal.groebner()]
        gens = [to_sympy(sp, g) for g in node.ideal.generators]
        gb = sympy_groebner(sp, gens, syms, "grevlex") if gens else None
        theirs = [monic(sp, g, syms) for g in gb.exprs] if gens else []
        if {g.as_expr() for g in ours} != {g.as_expr() for g in theirs}:
            faults.append((label, "basis"))
        for g in ours:
            expr = g.as_expr()
            for i in range(P.nvars):
                br = sum(sp.diff(expr, syms[j]) * table[j][i] for j in range(P.nvars))
                if gb.reduce(sp.expand(br))[1] != 0:
                    faults.append((label, f"bracket with {syms[i]}"))
            if len({weight(P, monom) for monom in g.monoms()}) != 1:
                faults.append((label, "homogeneity"))
    return leaves, faults


@pytest.mark.parametrize("name", ["weyl", "pplane", "m2", "2x3"])
def test_sympy_confirms_every_leaf(request, sp, name):
    P = matrix_presentation(2, 3) if name == "2x3" else request.getfixturevalue(name)
    leaves, faults = leaf_faults(sp, P)
    assert leaves
    assert not faults, faults
