"""Differential test of every reduced basis an ideal operation hands over.

Eliminations, contractions, saturations, intersections, torus cores and
induced and second lifts return ideals built by `Ideal._with_basis`, which
caches the given basis as the reduced grevlex basis without computing it;
`adjoin_variable` also seeds an elimination basis into the ideal's cache.
Here that constructor is wrapped so that every basis it receives, and every
elimination basis a caller seeds into the cache of the ideal it returns, is
also computed by `buchberger` from scratch and must equal it element for
element, order included.  Each case also pins which handover sites it
reaches.
"""

import random
import sys
from collections import Counter
from itertools import combinations

import pytest

from pcgl import ideals
from pcgl.cauchon import enumerate_hprimes, separating_normal
from pcgl.cli import fixture_path, load_presentation
from pcgl.errors import PcglError
from pcgl.grading import GradingData
from pcgl.ideals import (
    Elim,
    Grevlex,
    Ideal,
    adjoin_variable,
    buchberger,
    contract_to_prefix,
    eliminate,
    h_core,
    intersect,
    saturate,
)
from pcgl.qpoly import Polynomial, VarTable, parse, re_context
from random_poly import random_polynomial
from test_cli import README_COMMANDS, run
from test_matrices import matrix_presentation, nested_pairs

ENUMERATION_SITES = {
    "extend",
    "adjoin_variable",
    "elim seeded in adjoin_variable",
    "in second_lift",
    "eliminate",
    "contract_to_prefix",
}
SEPARATION_SITES = {"eliminate", "contract_to_prefix", "in intersect"}


class SeededBases(dict):
    """The cache of bases of a handed-over ideal: an elimination basis that a
    caller seeds into it must equal Buchberger's; `groebner` stores the ones
    it computes itself unchecked."""

    def __init__(self, ideal, sites):
        super().__init__(ideal._gb)
        self.ideal = ideal
        self.sites = sites

    def __setitem__(self, tag, basis):
        caller = sys._getframe(1).f_code.co_name
        if caller != "groebner":
            kind, front = tag
            assert kind == "elim"
            order = Elim(front)
            assert buchberger(self.ideal.generators, order) == tuple(basis)
            self.sites["elim seeded in " + caller] += 1
        super().__setitem__(tag, basis)


@pytest.fixture
def handovers(monkeypatch):
    """Check every handed-over basis against Buchberger's, the seeded
    elimination bases too; count the handovers by calling function, and as
    'in f' for each pcgl function f further up the stack."""
    original = Ideal._with_basis.__func__
    sites = Counter()

    def checked(cls, ctx, basis):
        ideal = original(cls, ctx, basis)
        assert buchberger(ideal.generators, Grevlex()) == ideal.generators
        ideal._gb = SeededBases(ideal, sites)
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
    # every keep set hands over one basis, whether the eliminated variables
    # are trailing or not; with none eliminated it is J's own, by `reduced`
    for size in range(4):
        for keep in combinations(range(3), size):
            before = handovers.copy()
            K = eliminate(J, keep)
            site = {"eliminate": 1} if size < 3 else {"reduced": 1, "in eliminate": 1}
            assert handovers - before == Counter(site)
            assert all(g.support() <= set(keep) for g in K.generators)
    # the full contraction and a saturation at a constant hand over I's basis
    # over I's own table once, by `reduced` inside `eliminate`
    one = Polynomial.constant(ctx, 2)
    once = Counter({"reduced": 1, "in eliminate": 1, "in contract_to_prefix": 1})
    for call, outer in [
        (lambda: contract_to_prefix(I, 3), {}),
        (lambda: saturate(I, one), {"in saturate": 1}),
        (lambda: saturate(I, one, keep=3), {"in saturate": 1}),
    ]:
        before = handovers.copy()
        K = call()
        assert handovers - before == once + Counter(outer)
        assert K.ctx is ctx and K.generators == I.groebner()
    before = handovers.copy()
    saturate(I, one, keep=2)
    assert handovers - before == Counter(
        {"eliminate": 1, "contract_to_prefix": 1, "in contract_to_prefix": 1, "in saturate": 2}
    )


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
    # every contraction is taken modulo P0 in the ring below the top
    # variable: the sweep hands over contractions and intersections, and
    # extends no ideal
    assert SEPARATION_SITES <= set(handovers)
    direct = {site for site in handovers if not site.startswith("in ")}
    assert direct == {"eliminate", "contract_to_prefix", "reduced"}


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


@pytest.mark.parametrize("seed", range(8))
def test_adjoin_variable_to_random_ideals(handovers, seed):
    # the middle variable y, whose grevlex place among the basis elements
    # in x and z depends on their degrees
    rng = random.Random(seed)
    ctx = VarTable(("x", "y", "z"))
    sub = VarTable(("x", "z"))
    gens = [random_polynomial(rng, sub, 2, 3) for _ in range(2)]
    I = Ideal(ctx, [re_context(g, ctx) for g in gens])
    if not I.is_proper():
        with pytest.raises(PcglError):
            adjoin_variable(I, 1)
        return
    J = adjoin_variable(I, 1)
    assert handovers["adjoin_variable"] == handovers["elim seeded in adjoin_variable"] == 1
    assert set(J.groebner()) == {*I.groebner(), parse("y", ctx)}


def test_a_wrong_seeded_basis_is_caught(handovers):
    ctx = VarTable(("x", "y", "z"))
    J = adjoin_variable(Ideal(ctx, [parse("x^2 - z", ctx)]), 1)
    tag = Elim({1}).tag
    assert J._gb[tag] != J.groebner()  # the same elements in another order
    with pytest.raises(AssertionError):
        J._gb[tag] = J.groebner()


def test_reduced_keeps_every_cached_basis(monkeypatch):
    # the contraction reads the elimination basis cached before `reduced`
    ctx = VarTable(("x", "y", "z"))
    I = Ideal(ctx, [parse("x*y - z^2", ctx), parse("y^2 - x*z", ctx)])
    I.groebner()
    elim = I.groebner(Elim({2}))
    calls = Counter()
    original = ideals.buchberger

    def counted(generators, order):
        calls[order.tag] += 1
        return original(generators, order)

    monkeypatch.setattr(ideals, "buchberger", counted)
    J = I.reduced()
    assert J.groebner(Elim({2})) is elim
    contraction = contract_to_prefix(J, 2)
    assert [str(g) for g in contraction.generators] == ["x^3*y - y^4"]
    assert calls == Counter()
