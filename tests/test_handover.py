"""Differential test of every reduced basis an ideal operation hands over.

Contractions, saturations, intersections, torus cores, induced and second
lifts and quotient projections return ideals built by `Ideal._with_basis`,
which caches the given basis as the reduced grevlex basis without computing
it.
Here that constructor is wrapped so that every basis it receives is also
computed by `buchberger` from scratch and must equal it element for element,
order included; so must a carried basis for the elimination of the top
variable.  Each case also pins which handover sites it reaches.
"""

import random
import sys
from collections import Counter

import pytest

from pcgl.cauchon import enumerate_hprimes, separating_normal
from pcgl.cli import fixture_path, load_presentation
from pcgl.grading import GradingData
from pcgl.ideals import (
    Elim,
    Grevlex,
    Ideal,
    buchberger,
    contract_to_prefix,
    eliminate,
    h_core,
    intersect,
    saturate,
)
from pcgl.qpoly import VarTable
from random_poly import random_polynomial
from test_cli import README_COMMANDS, run
from test_matrices import matrix_presentation, nested_pairs

ENUMERATION_SITES = {
    "extend",
    "second_lift",
    "eliminate",
    "contract_to_prefix",
    "carried elim",
}
SEPARATION_SITES = {"eliminate", "contract_to_prefix", "extend", "in intersect"}


@pytest.fixture
def handovers(monkeypatch):
    """Check every handed-over basis against Buchberger's; count the
    handovers by calling function, as 'in f' for each pcgl function f further
    up the stack, and as 'carried elim' when they carry an elimination basis."""
    original = Ideal._with_basis.__func__
    sites = Counter()

    def checked(cls, ctx, basis, top_elim=None):
        ideal = original(cls, ctx, basis, top_elim)
        assert buchberger(ideal.generators, Grevlex(ctx)) == ideal.generators
        if top_elim is not None:
            order = Elim(ctx, {len(ctx) - 1})
            assert buchberger(ideal.generators, order) == tuple(top_elim)
            sites["carried elim"] += 1
        frame = sys._getframe(1)
        sites[frame.f_code.co_name] += 1
        frame = frame.f_back
        while frame is not None:
            if frame.f_globals["__name__"].startswith("pcgl."):
                sites["in " + frame.f_code.co_name] += 1
            frame = frame.f_back
        return ideal

    monkeypatch.setattr(Ideal, "_with_basis", classmethod(checked))
    return sites


@pytest.mark.parametrize("seed", range(12))
def test_eliminations_of_random_ideals(handovers, seed):
    # dense rational coefficients, where an unreduced or unsorted
    # elimination basis differs from the reduced one
    rng = random.Random(seed)
    ctx = VarTable(("x", "y", "z"))

    def ideal():
        return Ideal(ctx, [random_polynomial(rng, ctx, 2, 3) for _ in range(2)])

    I, J = ideal(), ideal()
    f = random_polynomial(rng, ctx, 2, 2)
    intersect(I, J)
    # nested and equal inputs: I's own basis is handed over, by `reduced`
    handed = handovers["reduced"]
    assert intersect(I, Ideal(ctx, I.generators + J.generators)).generators == I.groebner()
    assert intersect(I, I).generators == I.groebner()
    assert handovers["reduced"] == handed + 2
    if not f.is_constant():
        saturate(I, f)
    contract_to_prefix(I, 2)
    eliminate(J, {0, 1})
    h_core(GradingData(1, ((1,), (1,), (2,))), I)
    handed = sum(handovers.values())
    eliminate(J, {1, 2})  # x is not trailing: nothing is handed over
    assert sum(handovers.values()) == handed


@pytest.mark.parametrize("name", ["weyl", "pplane", "m2"])
def test_fixture_enumeration(request, handovers, name):
    enumerate_hprimes(request.getfixturevalue(name))
    assert ENUMERATION_SITES <= set(handovers)


def test_two_by_three_enumeration_and_separation(handovers):
    P = matrix_presentation(2, 3)
    leaves = enumerate_hprimes(P).leaves()
    assert ENUMERATION_SITES | {"in saturate"} <= set(handovers)
    handovers.clear()
    pairs = sorted(nested_pairs(leaves), key=lambda pair: (pair[0].label(), pair[1].label()))
    for a, b in pairs[:100]:
        assert separating_normal(P, a, b) is not None
    assert SEPARATION_SITES <= set(handovers)


def test_m2_separation(handovers):
    # a presentation of its own: the shared fixture's memo may already hold
    # the contractions, and then no handover would be seen
    m2 = load_presentation(fixture_path("m2"))[0]
    pairs = nested_pairs(enumerate_hprimes(m2).leaves())
    assert len(pairs) == 55
    handovers.clear()
    for a, b in pairs:
        assert separating_normal(m2, a, b) is not None
    # the quotient route projects both ideals, with their elimination bases
    assert SEPARATION_SITES | {"_project", "carried elim"} <= set(handovers)


@pytest.mark.parametrize(
    "name, sites",
    [
        ("hcore_weyl", {"contract_to_prefix", "eliminate", "in saturate", "in h_core"}),
        ("closure_bellsig", {"reduced", "in poisson_closure"}),
        ("chain_bellsig", set()),
    ],
)
def test_readme_commands(capsys, handovers, name, sites):
    code, _, _ = run(capsys, *README_COMMANDS[name])
    assert code == 0
    assert sites <= set(handovers)
    assert bool(handovers) == bool(sites)
