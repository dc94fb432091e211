"""Oracles for the exact division kernel and the Groebner engine.

Property tests check what division and cofactor lifts promise, and that
every ring operation returns canonical polynomials.  The differential tests
compare Groebner bases, elimination, saturation, intersection and
membership with sympy's independent implementation on small random ideals.
"""

import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgl.cauchon import enumerate_hprimes
from pcgl.cli import fixture_path, load_presentation
from pcgl.errors import StepBudgetExceeded
from pcgl.ideals import (
    Elim,
    Grevlex,
    Ideal,
    _Budget,
    buchberger,
    eliminate,
    intersect,
    leading_monomial,
    lift_through_ideal,
    reduce_poly,
    saturate,
    step_limit,
)
from pcgl.pbracket import generator_brackets
from pcgl.qpoly import Monomial, Polynomial, VarTable
from reference import Lex, partial

CTX = VarTable(("x", "y", "z"))
LAURENT = VarTable(("x", "y", "z"), (False, True, False))
ORDERS = {"grevlex": Grevlex(), "lex": Lex(CTX), "elim": Elim({0})}

# canonical or not: plain ints and integral Fractions such as Fraction(4, 2) too
coefficients = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.integers(-4, 4),
    st.integers(-4, 4).map(lambda n: Fraction(2 * n, 2)),
).filter(bool)


def polynomials(ctx=CTX, max_exp=2, max_terms=4, min_exp=0):
    """Exponents in [min_exp, max_exp] on Laurent variables, [0, max_exp] elsewhere."""
    exps = st.tuples(
        *[st.integers(min_exp if ctx.laurent[i] else 0, max_exp) for i in range(len(ctx))]
    )
    terms = st.dictionaries(exps, coefficients, max_size=max_terms)
    return terms.map(
        lambda d: Polynomial(ctx, {Monomial.make(enumerate(e)): c for e, c in d.items()})
    )


nonzero = polynomials(max_terms=3).filter(bool)
laurent = polynomials(LAURENT, min_exp=-2)


def assert_canonical(f: Polynomial):
    for m, c in f.terms.items():
        # an int when integral, else a Fraction that is not; never zero
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert c != 0
        assert type(m) is Monomial and all(e != 0 for _, e in m.exps)
        assert list(m.exps) == sorted(m.exps) and len({i for i, _ in m.exps}) == len(m.exps)
    assert Polynomial(f.ctx, f.terms) == f


# ---------------------------------------------------------------------------
# Properties of the kernel
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(f=laurent, g=laurent, i=st.integers(0, 2), c=st.integers(-3, 3))
def test_ring_operations_are_canonical(f, g, i, c):
    for h in (f + g, f - g, f * g, -f, partial(f, i), f * c, f + c, f - f, f * g - g * f):
        assert_canonical(h)
    for part in f.split_by_degree_in(i).values():
        assert_canonical(part)


@settings(max_examples=100, deadline=None)
@given(f=laurent, i=st.integers(0, 2))
def test_split_by_degree_in_recombines(f, i):
    # the sum over e of parts[e] * x_i^e is f, Laurent exponents included
    total = Polynomial.zero(f.ctx)
    for e, part in f.split_by_degree_in(i).items():
        assert i not in part.support()
        total = total + part * Polynomial.monomial(f.ctx, Monomial.make({i: e}))
    assert total == f


@settings(max_examples=100, deadline=None)
@given(
    f=polynomials(max_exp=3, max_terms=6),
    basis=st.lists(nonzero, min_size=1, max_size=3),
    order=st.sampled_from(sorted(ORDERS)),
)
def test_reduce_poly_is_a_division(f, basis, order):
    order = ORDERS[order]
    quotients, r = reduce_poly(f, basis, order)
    assert len(quotients) == len(basis)
    total = r
    for q, g in zip(quotients, basis):
        total = total + q * g
    assert total == f
    lms = [leading_monomial(g, order) for g in basis]
    assert not any(lm.divides(m) for m in r.terms for lm in lms)
    for h in quotients + [r]:
        assert_canonical(h)


def naive_division(f, basis, order):
    """Quotients, remainder and step count of the textbook division, in
    polynomial arithmetic: each step cancels the leading term of the
    dividend by the first basis element whose leading monomial divides it,
    or moves that term to the remainder."""
    zero = Polynomial(f.ctx, {})
    lms = [max(g.terms, key=order.key) for g in basis]
    quotients, remainder, steps = [zero] * len(basis), zero, 0
    while not f.is_zero():
        steps += 1
        lm = max(f.terms, key=order.key)
        term = Polynomial(f.ctx, {lm: f.terms[lm]})
        for i, (g, g_lm) in enumerate(zip(basis, lms)):
            if g_lm.divides(lm):
                t = Polynomial(f.ctx, {lm.divide(g_lm): Fraction(f.terms[lm]) / g.terms[g_lm]})
                quotients[i] = quotients[i] + t
                f = f - t * g
                break
        else:
            remainder = remainder + term
            f = f - term
    return quotients, remainder, steps


DIVIDENDS = {
    "zero": st.just(Polynomial(CTX, {})),
    "one term": polynomials(max_exp=3, max_terms=1).filter(bool),
    "several terms": polynomials(max_exp=3, max_terms=6).filter(lambda f: len(f.terms) > 1),
}


@pytest.mark.parametrize("kind", sorted(DIVIDENDS))
@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    basis=st.lists(nonzero, max_size=4),
    order=st.sampled_from([Grevlex(), Elim({0}), Elim({0, 1})]),
)
def test_reduce_poly_matches_the_textbook_division(kind, data, basis, order):
    # most dividends are zero or have one term; every kind divides as the
    # textbook does, and the budget ticks once per step: the division
    # passes a limit of its step count and runs out under one step fewer
    f = data.draw(DIVIDENDS[kind])
    quotients, r, steps = naive_division(f, basis, order)
    assert reduce_poly(f, basis, order) == (quotients, r)
    with step_limit(steps):
        assert reduce_poly(f, basis, order, _Budget()) == (quotients, r)
    if steps:
        with step_limit(steps - 1), pytest.raises(StepBudgetExceeded):
            reduce_poly(f, basis, order, _Budget())


@settings(max_examples=60, deadline=None)
@given(
    gens=st.lists(polynomials(max_terms=3), min_size=1, max_size=3),
    cofs=st.lists(polynomials(max_exp=1, max_terms=2), min_size=3, max_size=3),
    extra=polynomials(max_terms=3),
)
def test_lift_cofactors_are_exact(gens, cofs, extra):
    # through c = the first generator, modulo the others: exact division by
    # c when there are none
    inside = Polynomial.zero(CTX)
    for a, g in zip(cofs, gens):
        inside = inside + a * g
    c = gens[0]
    M = Ideal(CTX, gens[1:]) if len(gens) > 1 else None
    lifts = lift_through_ideal(c, [inside, extra], modulo=M)
    I = Ideal(CTX, gens)
    for target, q in zip([inside, extra], lifts):
        assert lift_through_ideal(c, [target], modulo=M) == [q]
        if q is None:
            assert not I.member(target)[0]
        elif M is None:
            assert q * c == target
        else:
            assert M.member(target - q * c)[0]
    assert lifts[0] is not None


def check_lift_modulo(c, targets, Q):
    """The lift through c modulo Q answers as membership in the full ideal
    (c) + Q, each target alone as in the batch, and each cofactor leaves a
    rest inside Q."""
    lifts = lift_through_ideal(c, targets, modulo=Q)
    full = Ideal(Q.ctx, [c, *Q.generators])
    for target, q in zip(targets, lifts):
        assert (q is None) == (not full.member(target)[0])
        assert lift_through_ideal(c, [target], modulo=Q) == [q]
        if q is not None:
            assert Q.member(target - q * c)[0]
    return lifts


@settings(max_examples=60, deadline=None)
@given(
    gens=st.lists(polynomials(max_terms=3), min_size=1, max_size=2),
    mod_gens=st.lists(polynomials(max_terms=3), min_size=1, max_size=2),
    cofs=st.lists(polynomials(max_exp=1, max_terms=2), min_size=4, max_size=4),
    extra=polynomials(max_terms=3),
)
def test_lift_modulo_matches_the_full_lift(gens, mod_gens, cofs, extra):
    # through c = the first generator, modulo the others and mod_gens
    inside = Polynomial.zero(CTX)
    for a, g in zip(cofs, gens + mod_gens):
        inside = inside + a * g
    Q = Ideal(CTX, gens[1:] + mod_gens)
    lifts = check_lift_modulo(gens[0], [inside, extra, extra * mod_gens[0]], Q)
    assert lifts[0] is not None and lifts[2] is not None


def test_lift_modulo_on_the_nested_pairs_of_m2():
    # every element of the larger H-prime's basis outside the smaller one,
    # with its generator brackets as targets: the lifts of the normality
    # checks that the separating-element search makes
    P = load_presentation(fixture_path("m2"))[0]
    leaves = enumerate_hprimes(P).leaves()
    checks = lifted = 0
    for a in leaves:
        for b in leaves:
            if a is b or not all(b.ideal.member(g)[0] for g in a.ideal.generators):
                continue
            for c in b.ideal.groebner():
                if a.ideal.member(c)[0]:
                    continue
                lifts = check_lift_modulo(c, generator_brackets(P.table, c), a.ideal)
                checks += 1
                lifted += all(lift is not None for lift in lifts)
    assert (checks, lifted) == (101, 89)


# ---------------------------------------------------------------------------
# Differential tests against sympy
# ---------------------------------------------------------------------------

# Reduction-step limits of the pcgl side of each differential test, so that
# a blow-up fails with Hypothesis' falsifying example instead of running on
# under the default of 10**6: about ten times the largest count of one
# Groebner basis or lift measured in 1,000 to 2,900 draws of each test,
# 43,357 in a saturation and 18,710 in the others (a grevlex basis)
PCGL_STEPS = 200_000
SATURATE_STEPS = 500_000

ideals = st.lists(polynomials(max_terms=3), min_size=1, max_size=3).filter(
    lambda gens: any(gens)
)


@pytest.fixture(scope="module")
def sp():
    """sympy, which is needed only by these tests: they skip without it."""
    return pytest.importorskip("sympy")


def to_sympy(sp, f: Polynomial):
    """f as a sympy expression in symbols named as its variables."""
    syms = sp.symbols(f.ctx.names)
    expr = sp.Integer(0)
    for m, c in f.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for i, e in m.exps:
            term *= syms[i] ** e
        expr += term
    return expr


def normalized(polys):
    """Each polynomial as a dense term dict scaled by its coefficient on the
    largest exponent vector: equal up to scalars means equal here."""
    out = set()
    for terms in polys:
        top = terms[max(terms)]
        out.add(frozenset((e, Fraction(c) / top) for e, c in terms.items()))
    return out


def ours(gb):
    return normalized(
        {tuple(m.exponent(i) for i in range(3)): c for m, c in g.terms.items()} for g in gb
    )


def theirs(sp, exprs, order):
    """sympy's reduced basis of `exprs` in `order`, normalized like `ours`."""
    exprs = [e for e in exprs if e != 0]
    if not exprs:
        return set()
    return sympy_normalized(sp, sympy_groebner(sp, exprs, sp.symbols("x y z"), order).exprs)


def sympy_normalized(sp, exprs):
    """sympy polynomials in x, y, z, normalized like `ours`."""
    syms = sp.symbols("x y z")
    dense = []
    for g in exprs:
        poly = sp.Poly(g, *syms, domain="QQ")
        dense.append(
            {e: Fraction(int(c.p), int(c.q)) for e, c in zip(poly.monoms(), poly.coeffs())}
        )
    return normalized(dense)


def lex_free_of(sp, exprs, drop, rest):
    """The elements free of `drop` in the reduced lex basis of `exprs` that
    ranks `drop` first: the reduced lex basis of the ideal intersected with
    K[rest]."""
    gb = sympy_groebner(sp, exprs, (*drop, *rest), "lex")
    return [g for g in gb.exprs if not g.free_symbols & set(drop)]


class TooSlow(BaseException):
    """Raised by the interval timer of `sympy_groebner`; not an Exception,
    so that no handler inside sympy catches it."""


def sympy_groebner(sp, exprs, gens, order):
    """sympy's reduced Groebner basis of `exprs` over `gens` in `order`, by
    its Buchberger, or by its F5B when Buchberger takes over 2 s.  Every
    sympy basis of these tests comes from here.  Each method alone takes
    minutes on rare draws of the saturation system (34 s and 185 s were
    seen, in about 1,500 draws each); of 450 draws timed both ways, none
    was slow in both, and the faster one took at most 0.33 s."""

    def run(method):
        return sp.groebner(exprs, *gens, order=order, domain="QQ", method=method)

    if not hasattr(signal, "setitimer"):
        return run("buchberger")

    def give_up(signum, frame):
        raise TooSlow

    previous = signal.signal(signal.SIGALRM, give_up)
    try:
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            return run("buchberger")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TooSlow:
        return run("f5b")
    finally:
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=40, deadline=None)
@given(gens=ideals, order=st.sampled_from(["grevlex", "lex"]))
def test_groebner_matches_sympy(sp, gens, order):
    with step_limit(PCGL_STEPS):
        basis = Ideal(CTX, gens).groebner(ORDERS[order])
    expected = theirs(sp, [to_sympy(sp, g) for g in gens], order)
    assert ours(basis) == expected


@settings(max_examples=30, deadline=None)
@given(gens=ideals, front=st.sampled_from([(0,), (0, 1), (1,), (2,)]))
def test_eliminate_matches_sympy(sp, gens, front):
    syms = sp.symbols("x y z")
    keep = [i for i in range(3) if i not in front]
    with step_limit(PCGL_STEPS):
        J = eliminate(Ideal(CTX, gens), keep)
        basis = J.groebner()
    expected = lex_free_of(
        sp, [to_sympy(sp, g) for g in gens], [syms[i] for i in front], [syms[i] for i in keep]
    )
    assert ours(basis) == theirs(sp, expected, "grevlex")


@settings(max_examples=30, deadline=None)
@given(gens=ideals, f=nonzero)
def test_saturate_matches_sympy(sp, gens, f):
    t = sp.Symbol("t")
    exprs = [to_sympy(sp, g) for g in gens] + [1 - t * to_sympy(sp, f)]
    # the reduced lex basis of the saturation: no second sympy basis is needed
    expected = lex_free_of(sp, exprs, [t], sp.symbols("x y z"))
    with step_limit(SATURATE_STEPS):
        S = saturate(Ideal(CTX, gens), f)
        lex = S.groebner(Lex(CTX))
        # the grevlex basis that saturate hands over with the result
        recomputed = buchberger(S.generators, Grevlex())
    assert ours(lex) == sympy_normalized(sp, expected)
    assert S.groebner() == recomputed


small_ideals = st.lists(polynomials(max_terms=2), min_size=1, max_size=2).filter(
    lambda gens: any(gens)
)


@settings(max_examples=30, deadline=None)
@given(
    gens_i=small_ideals,
    gens_j=small_ideals,
    shape=st.sampled_from(["free", "nested", "equal"]),
)
def test_intersect_matches_sympy(sp, gens_i, gens_j, shape):
    # nested draws: J's generators are I's plus more, so I is inside J and
    # intersect returns I's own basis; equal draws intersect I with itself
    if shape == "nested":
        gens_j = gens_i + gens_j
    elif shape == "equal":
        gens_j = gens_i
    t = sp.Symbol("t")
    exprs = [t * to_sympy(sp, g) for g in gens_i] + [(1 - t) * to_sympy(sp, g) for g in gens_j]
    expected = lex_free_of(sp, exprs, [t], sp.symbols("x y z"))
    with step_limit(PCGL_STEPS):
        basis = intersect(Ideal(CTX, gens_i), Ideal(CTX, gens_j)).groebner()
    assert ours(basis) == theirs(sp, expected, "grevlex")


@settings(max_examples=40, deadline=None)
@given(
    gens=ideals,
    cofs=st.lists(polynomials(max_exp=1, max_terms=2), min_size=3, max_size=3),
    other=polynomials(max_terms=3),
)
def test_membership_matches_sympy(sp, gens, cofs, other):
    I = Ideal(CTX, gens)
    inside = Polynomial.zero(CTX)
    for a, g in zip(cofs, gens):
        inside = inside + a * g
    gb = sympy_groebner(sp, [to_sympy(sp, g) for g in gens if g], sp.symbols("x y z"), "grevlex")
    for h in (inside, other, other * gens[0]):
        with step_limit(PCGL_STEPS):
            answer = I.member(h)[0]
        assert answer == gb.contains(to_sympy(sp, h))
