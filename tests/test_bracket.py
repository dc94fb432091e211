import random

import pytest

from pcgl.cgl import PoissonPresentation, _delta_iterates, _level_record, verify_cgl
from pcgl.errors import NotWithinBound, PreconditionError
from pcgl.grading import GradingData
from pcgl.ideals import Ideal, lift_through_ideal
from pcgl.pbracket import (
    BracketTable,
    bracket,
    check_jacobi,
    is_poisson_normal,
)
from pcgl.qpoly import Derivation, Polynomial, VarTable, parse, re_context
from random_poly import random_polynomial

CTX = VarTable(("x", "y", "z", "w"))


def bell_table():
    return BracketTable(
        CTX, {(3, 0): parse("2*y*z", CTX), (3, 1): parse("x + y^2", CTX)}
    )


def v(name, ctx=CTX):
    return Polynomial.variable(ctx, ctx.index(name))


class TestBracket:
    def test_generator_pair(self):
        assert bracket(bell_table(), v("w"), v("x")) == parse("2*y*z", CTX)

    def test_antisymmetry_diagonal(self):
        rng = random.Random(3)
        B = bell_table()
        for _ in range(20):
            f = random_polynomial(rng, CTX)
            assert bracket(B, f, f) == 0

    def test_leibniz_in_second_slot(self):
        B = bell_table()
        # {w, x*y} = {w,x} y + x {w,y}
        lhs = bracket(B, v("w"), v("x") * v("y"))
        rhs = parse("2*y*z", CTX) * v("y") + v("x") * parse("x + y^2", CTX)
        assert lhs == rhs
        assert lhs == parse("2*y^2*z + x^2 + x*y^2", CTX)


class TestJacobi:
    def test_bellsig_passes(self):
        assert check_jacobi(bell_table()).ok

    def test_zero_table_passes(self):
        assert check_jacobi(BracketTable(CTX, {})).ok

    def test_perturbed_table_fails(self):
        ctx = VarTable(("x", "y", "z"))
        B = BracketTable(ctx, {(1, 0): parse("z", ctx), (2, 0): parse("x", ctx)})
        report = check_jacobi(B)
        assert not report.ok
        (i, j, k, residual) = report.failures[0]
        assert (i, j, k) == (2, 1, 0)
        assert residual == parse("-z", ctx)


class TestPoissonNormal:
    def test_central_variable(self):
        cert = is_poisson_normal(bell_table(), v("z"))
        assert cert.ok
        assert all(q.is_zero() for q in cert.quotients.values())

    def test_unit(self):
        assert is_poisson_normal(bell_table(), Polynomial.constant(CTX, 1)).ok

    def test_non_normal_variable(self):
        cert = is_poisson_normal(bell_table(), v("x"))
        assert not cert.ok
        # {w, x} = 2yz is not divisible by x
        assert 3 in cert.failures

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            is_poisson_normal(bell_table(), Polynomial.zero(CTX))

    def test_quotient_membership(self, pplane):
        ctx = pplane.ctx
        X = Polynomial.variable(ctx, 1)
        a = Polynomial.variable(ctx, 0)
        cert = is_poisson_normal(pplane.table, X, modulo=Ideal(ctx, [a]))
        assert cert.ok

    def test_element_inside_modulus_rejected(self, pplane):
        ctx = pplane.ctx
        a = Polynomial.variable(ctx, 0)
        with pytest.raises(PreconditionError):
            is_poisson_normal(pplane.table, a, modulo=Ideal(ctx, [a]))

    def test_quotient_certificates(self):
        # w is normal modulo <x, y>: {w, x} = 2yz and {w, y} = x + y^2 both
        # reduce to 0, so all quotients vanish mod the ideal
        P = Ideal(CTX, [v("x"), v("y")])
        cert = is_poisson_normal(bell_table(), v("w"), modulo=P)
        assert cert.ok


PLANE = VarTable(("a", "b"))


def poisson_plane():
    return BracketTable(PLANE, {(1, 0): parse("a*b", PLANE)})


def zero_twist(ctx):
    return Derivation(ctx, {i: Polynomial.zero(ctx) for i in range(len(ctx))})


def top_delta_flag(B_A, S, D):
    """`verify_cgl`'s delta flag on the top level of A[X; S, D]_p: the table
    of A with a generator X appended, {X, a} = S(a) X + D(a) on each
    generator a of A, and no grading (S is diagonal in every case here)."""
    n = len(B_A.ctx)
    ctx = B_A.ctx.extend(("X",))
    X = Polynomial.variable(ctx, n)
    entries = {key: re_context(p, ctx) for key, p in B_A.pairs()}
    for j in range(n):
        a = Polynomial.variable(B_A.ctx, j)
        entries[(n, j)] = re_context(S(a), ctx) * X + re_context(D(a), ctx)
    grading = GradingData(0, ((),) * (n + 1))
    P = PoissonPresentation(ctx=ctx, table=BracketTable(ctx, entries), grading=grading)
    return verify_cgl(P).levels[n].delta_condition_ok


class TestDerivationChecks:
    # each (S, D) as the top level of a tower: S is a Poisson derivation of
    # B exactly when (0, S) passes the delta condition,
    # S({a,b}) = {S(a),b} + {a,S(b)}
    def test_zero_is_poisson_derivation(self):
        S = zero_twist(CTX)
        assert top_delta_flag(bell_table(), zero_twist(CTX), S)

    def test_scaling_on_a_poisson_plane(self):
        # {b, a} = a*b: a scaling respects it, a -> -a, b -> a does not
        B = poisson_plane()
        a = v("a", PLANE)
        S = Derivation(PLANE, {0: -a, 1: Polynomial.zero(PLANE)})
        assert top_delta_flag(B, zero_twist(PLANE), S)
        assert not top_delta_flag(B, zero_twist(PLANE), Derivation(PLANE, {0: -a, 1: a}))

    def test_failing_derivation(self):
        S = Derivation(
            CTX,
            {0: v("x"), 1: Polynomial.zero(CTX), 2: Polynomial.zero(CTX), 3: Polynomial.zero(CTX)},
        )
        assert not top_delta_flag(bell_table(), zero_twist(CTX), S)

    def test_delta_condition_abelian(self):
        ctx = VarTable(("x", "y", "z"))
        B = BracketTable(ctx, {})
        S = Derivation(ctx, {i: Polynomial.zero(ctx) for i in range(3)})
        D = Derivation(
            ctx, {0: parse("2*y*z", ctx), 1: parse("x + y^2", ctx), 2: parse("0", ctx)}
        )
        assert top_delta_flag(B, S, D)

    def test_delta_condition_one_generator(self):
        # D is nonzero on one generator: D(a) = 1, D(b) = 0.  On {b, a} = a*b
        # the condition reads D(a)*b = {b, D(a)} + S(b)*D(a), so S(b) = b
        B = poisson_plane()
        a, b = v("a", PLANE), v("b", PLANE)
        D = Derivation(PLANE, {0: Polynomial.constant(PLANE, 1), 1: Polynomial.zero(PLANE)})
        assert top_delta_flag(B, Derivation(PLANE, {0: -a, 1: b}), D)
        assert not top_delta_flag(B, Derivation(PLANE, {0: -a, 1: Polynomial.zero(PLANE)}), D)

    def test_delta_condition_fails(self):
        ctx = VarTable(("a", "b"))
        B = BracketTable(ctx, {(1, 0): parse("a", ctx)})
        S = Derivation(ctx, {0: Polynomial.zero(ctx), 1: Polynomial.zero(ctx)})
        D = Derivation(ctx, {0: parse("b", ctx), 1: parse("0", ctx)})
        assert not top_delta_flag(B, S, D)


def brute_bracket(B, f, g):
    """Second, independent bracket route: expand both arguments term by
    term, apply the Leibniz rule factor by factor, and only ever evaluate
    the table on plain generator pairs."""
    from fractions import Fraction

    from pcgl.qpoly import Polynomial as P

    ctx = B.ctx
    total = P.zero(ctx)
    for mf, cf in f.terms.items():
        for mg, cg in g.terms.items():
            factors_f = [i for i, e in mf.exps for _ in range(e)]
            factors_g = [j for j, e in mg.exps for _ in range(e)]
            for pos_f, i in enumerate(factors_f):
                rest_f = factors_f[:pos_f] + factors_f[pos_f + 1 :]
                for pos_g, j in enumerate(factors_g):
                    rest_g = factors_g[:pos_g] + factors_g[pos_g + 1 :]
                    term = B.entry(i, j) * Fraction(cf * cg)
                    for k in rest_f + rest_g:
                        term = term * P.variable(ctx, k)
                    total = total + term
    return total


class TestInvariants:
    def test_against_independent_leibniz_expansion(self):
        rng = random.Random(61)
        B = bell_table()
        for _ in range(60):
            f = random_polynomial(rng, CTX, max_degree=3, max_terms=3)
            g = random_polynomial(rng, CTX, max_degree=3, max_terms=3)
            assert bracket(B, f, g) == brute_bracket(B, f, g)

    def test_bilinearity_and_leibniz(self):
        rng = random.Random(5)
        B = bell_table()
        for _ in range(200):
            f = random_polynomial(rng, CTX)
            g = random_polynomial(rng, CTX)
            h = random_polynomial(rng, CTX)
            assert bracket(B, f, g) == -bracket(B, g, f)
            assert bracket(B, f + g, h) == bracket(B, f, h) + bracket(B, g, h)
            assert bracket(B, f * g, h) == f * bracket(B, g, h) + bracket(B, f, h) * g

    def test_jacobi_on_random_polynomials(self):
        rng = random.Random(9)
        B = bell_table()
        assert check_jacobi(B).ok
        for _ in range(100):
            f = random_polynomial(rng, CTX, max_degree=2, max_terms=2)
            g = random_polynomial(rng, CTX, max_degree=2, max_terms=2)
            h = random_polynomial(rng, CTX, max_degree=2, max_terms=2)
            total = (
                bracket(B, f, bracket(B, g, h))
                + bracket(B, g, bracket(B, h, f))
                + bracket(B, h, bracket(B, f, g))
            )
            assert total == 0

    def test_normal_elements_multiply(self):
        B = bell_table()
        normals = [v("z"), v("z") * v("z"), Polynomial.constant(CTX, 3)]
        for c in normals:
            for cp in normals:
                assert is_poisson_normal(B, c).ok
                assert is_poisson_normal(B, cp).ok
                assert is_poisson_normal(B, c * cp).ok

    def test_nilpotent_product_rule(self):
        """If delta(e) = e*f with e, f both delta-nilpotent, then delta(e) = 0."""
        # delta is delta_5 of a tower on x1..x4, t whose only nonzero
        # brackets are {t, x_i} = delta(x_i), a random polynomial in x_j, j < i
        rng = random.Random(21)
        tower = VarTable(("x1", "x2", "x3", "x4", "t"))
        ctx = tower.restrict(4)
        qualifying = 0
        while qualifying < 50:
            row = {}
            for i in range(1, 4):
                if rng.random() < 0.8:
                    image = random_polynomial(
                        rng, VarTable(ctx.names[:i]), max_degree=2, max_terms=2
                    )
                    row[(4, i)] = re_context(image, tower)
            P = PoissonPresentation(tower, BracketTable(tower, row), GradingData(0, ((),) * 5))
            L = _level_record(P, 5)
            d = L.delta
            e = random_polynomial(rng, ctx, max_degree=2, max_terms=2)
            if e.is_zero():
                continue
            de = d(e)
            (cof,) = lift_through_ideal([e], [de])
            if cof is None:
                continue
            f = cof[0]
            try:
                _delta_iterates(L, e)
                _delta_iterates(L, f)
            except NotWithinBound:
                continue
            qualifying += 1
            assert d(e).is_zero()
