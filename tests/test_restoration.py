"""The H-primes of every level, rebuilt one level up by Cauchon's deleting
derivations run in reverse (Cauchon 2003; Goodearl-Launois 2011), against
the enumeration's.

Let R = R_k = A[x; sigma, delta] with x = x_k.  The H-primes of R are the
disjoint union, over the H-primes Q of A, of
- the theta-nodes theta(Q) R[x^-1] cap R: Q R when Q is delta-stable,
  otherwise the saturation at x of the x^s theta(q) over Q's reduced basis;
- the x-nodes Q R + (x), for the Q with delta(x_j) in Q for every j < k.
The rule starts from the zero ideal of the base field and feeds each level
its own previous one.  Its ideals are built by `Ideal(...)` and Buchberger,
never by a basis handed over, so that it shares no code with the
enumeration's lifts.
"""

import pytest

from pcgl.cauchon import _delta_iterates, _theta_series, enumerate_hprimes
from pcgl.cgl import level_data
from pcgl.ideals import Ideal, saturate
from pcgl.qpoly import re_context
from test_matrices import matrix_presentation


def restoration_levels(P):
    """The reduced bases of the H-primes of each level, by the rule above."""
    levels = [[()]]
    for k in range(1, P.nvars + 1):
        L = level_data(P, k)
        ctx_A, ctx_R = L.pres_A.ctx, L.pres_R.ctx
        level = []
        for basis in levels[-1]:
            Q = Ideal(ctx_A, basis)
            up = [re_context(q, ctx_R) for q in basis]
            if all(Q.member(L.delta(q))[0] for q in basis):
                theta_node = Ideal(ctx_R, up)
            else:
                thetas = [_theta_series(L, _delta_iterates(L, q)) for q in basis]
                theta_node = saturate(Ideal(ctx_R, thetas), L.x())
            level.append(theta_node.groebner())
            if all(Q.member(img)[0] for img in L.delta.images.values()):
                level.append(Ideal(ctx_R, [*up, L.x()]).groebner())
        levels.append(level)
    return levels


@pytest.mark.parametrize("name", ["weyl", "pplane", "m2", "2x3", "3x3"])
def test_restoration_gives_the_enumerated_levels(request, name):
    if name in ("2x3", "3x3"):
        P = matrix_presentation(int(name[0]), int(name[2]))
    else:
        P = request.getfixturevalue(name)
    tree = enumerate_hprimes(P)
    restored = restoration_levels(P)
    assert len(restored) == len(tree.levels)
    for k, (level, nodes) in enumerate(zip(restored, tree.levels)):
        bases = {frozenset(basis) for basis in level}
        assert len(bases) == len(level), f"level {k}: the rule gives an ideal twice"
        assert bases == {frozenset(node.ideal.groebner()) for node in nodes}, f"level {k}"
