"""Schubert-cell towers beyond type A, read from presentation files under
`tests/towers/`, each pinned by its bytes.

B2 (alpha_1 long, reduced word s1 s2 s1 s2 of the longest element, weights
in root coordinates) is the first: its delta is not monomial, as
{x3, x1} = -x2^2 shows.  Its torus-stable Poisson primes are counted by
the Bruhat interval [e, s1 s2 ... s_(i_k)] at each level, 8 = |W(B2)| at
the top, with the rank sizes of W(B2) as leaf dimensions and its 12
Bruhat covers.
"""

import hashlib
from pathlib import Path

from pcgl.cauchon import enumerate_hprimes
from pcgl.cgl import verify_cgl
from pcgl.cli import load_presentation
from pcgl.ideals import dimension, inclusion_order

TOWERS = Path(__file__).parent / "towers"
B2_SHA256 = "00b1932f2c2a2d781a65c7ab9d844a62e2a9df74296b9b0b916f5f8a9df9016b"


def b2():
    path = TOWERS / "b2.json"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == B2_SHA256
    return load_presentation(str(path))[0]


def test_b2_hprimes_are_the_weyl_group():
    P = b2()
    assert verify_cgl(P).ok
    tree = enumerate_hprimes(P)
    assert not tree.inconclusive
    assert [len(level) for level in tree.levels] == [1, 2, 4, 6, 8]
    ideals = [leaf.ideal for leaf in tree.leaves()]
    dims = [dimension(I) for I in ideals]
    assert sorted(dims) == [0, 1, 1, 2, 2, 3, 3, 4]
    _, covers = inclusion_order(ideals)
    drops = [dims[i] - dims[j] for i, up in enumerate(covers) for j in up]
    assert drops == [1] * 12
