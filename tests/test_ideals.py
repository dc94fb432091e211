import itertools
import random

import pytest

from pcgl import linalg
from pcgl.errors import ContextMismatch, PcglError, StepBudgetExceeded, UnitIdeal
from pcgl.cauchon import enumerate_hprimes
from pcgl.grading import monomial_weight
from pcgl.pbracket import BracketTable
from pcgl.ideals import (
    Grevlex,
    Ideal,
    adjoin_variable,
    chain_report,
    contains,
    contract_to_prefix,
    dimension,
    eliminate,
    extend,
    h_core,
    ideal_equal,
    inclusion_order,
    intersect,
    is_h_stable,
    is_poisson_stable,
    lift_through_ideal,
    poisson_closure,
    primality,
    reduce_poly,
    saturate,
    step_limit,
)
from pcgl.qpoly import Monomial, Polynomial, VarTable, parse
from random_poly import random_polynomial
from reference import Lex, homogeneous_components, reference_poisson_stable, s_polynomial
from test_matrices import matrix_presentation

CTX3 = VarTable(("x", "y", "z"))
CTX4 = VarTable(("x", "y", "z", "w"))
WCTX = VarTable(("a", "X"))


def p3(text):
    return parse(text, CTX3)


def p4(text):
    return parse(text, CTX4)


class TestGroebner:
    def test_crossing_lines(self):
        I = Ideal(CTX3, [p3("x - y"), p3("x + y")])
        assert set(I.groebner()) == {p3("x"), p3("y")}

    def test_unit_ideal(self):
        I = Ideal(CTX3, [p3("1")])
        assert I.groebner() == (p3("1"),)
        assert not I.is_proper()

    def test_coprime_leading_terms_already_basis(self):
        I = Ideal(CTX3, [p3("x"), p3("y*z")])
        assert set(I.groebner()) == {p3("x"), p3("y*z")}

    def test_s_polynomials_reduce_to_zero(self):
        order = Grevlex()
        gens = [p3("x^2 - y"), p3("x*y - z"), p3("x*z - y^2")]
        gb = Ideal(CTX3, gens).groebner()
        for f, g in itertools.combinations(gb, 2):
            _, rem = reduce_poly(s_polynomial(f, g, order), list(gb), order)
            assert rem.is_zero()

    def test_normal_form_idempotent_and_members(self):
        I = Ideal(CTX3, [p3("x^2 - y"), p3("x*y - z")])
        rng = random.Random(41)
        for g in I.generators:
            assert I.member(g)[0]
        for _ in range(20):
            f = random_polynomial(rng, CTX3)
            nf = I.normal_form(f)
            assert I.normal_form(nf) == nf

    def test_lex_order_eliminates(self):
        # under lex with x greatest, the basis exposes the x-free relation
        I = Ideal(CTX3, [p3("x^2 - y"), p3("x^3 - z")])
        gb = I.groebner(Lex(CTX3))
        assert any(g.support() <= {1, 2} for g in gb)
        assert I.member(p3("y^3 - z^2"))[0]

    def test_step_budget(self):
        gens = [p3("x^2 - y"), p3("x*y - z"), p3("y^3 - x*z^2 + x")]
        with pytest.raises(StepBudgetExceeded):
            with step_limit(1):
                Ideal(CTX3, gens).groebner()

    def test_budget_overrun_carries_only_its_message(self):
        gens = [p3("x^2 - y"), p3("x*y - z"), p3("y^3 - x*z^2 + x")]
        with pytest.raises(StepBudgetExceeded) as err:
            with step_limit(1):
                Ideal(CTX3, gens).groebner()
        assert str(err.value) == "Groebner step budget of 1 exceeded"
        assert vars(err.value) == {}

    def test_orders_hold_no_variable_table(self):
        # one Grevlex serves every table; Elim needs only its front set
        from pcgl.ideals import Elim, Grevlex

        assert vars(Grevlex()) == {}
        assert sorted(vars(Elim({0}))) == ["front", "front_mask", "tag"]
        I = Ideal(CTX3, [p3("x^2 - y"), p3("x*y - z")])
        assert I.groebner(Grevlex()) == I.groebner()

    def test_step_limit_restored_after_exceeded(self):
        # the limit in force before the `with` comes back when its body raises
        gens = [p3("x^2 - y"), p3("x*y - z"), p3("y^3 - x*z^2 + x")]
        with pytest.raises(StepBudgetExceeded):
            with step_limit(1):
                Ideal(CTX3, gens).groebner()
        assert Ideal(CTX3, gens).groebner()


class TestMember:
    def test_difference_of_squares(self):
        assert Ideal(CTX3, [p3("x - y")]).member(p3("x^2 - y^2"))[0]

    def test_unit_not_in_maximal(self):
        ok, nf = Ideal(CTX3, [p3("x"), p3("y")]).member(p3("1"))
        assert not ok and nf == p3("1")

    def test_other_variable_table_refused(self):
        # b over (b, a) has the index of a in (a, b), and c over (a, b, c)
        # an index that (a, b) does not have; an equal table built anew is
        # the same table
        ab = VarTable(("a", "b"))
        I = Ideal(ab, [parse("a", ab)])
        b = parse("b", VarTable(("b", "a")))
        c = parse("c", VarTable(("a", "b", "c")))
        for f in (b, c):
            with pytest.raises(ContextMismatch):
                I.member(f)
            with pytest.raises(ContextMismatch):
                I.normal_form(f)
            with pytest.raises(ContextMismatch):
                contains(I, Ideal(f.ctx, [f]))
            for op in (ideal_equal, intersect):
                message = "^ideals over different variable tables$"
                with pytest.raises(ContextMismatch, match=message):
                    op(I, Ideal(f.ctx, [f]))
            message = "^saturation element over wrong variable table$"
            with pytest.raises(ContextMismatch, match=message):
                saturate(I, f)
        assert I.member(parse("a*b", VarTable(("a", "b"))))[0]

    def test_inclusion_order(self):
        # the chain (x) < (x, y) < (x, y, z), the side branch (x, z), and a
        # second object equal to (x, y): equal ideals are not strictly
        # inside each other, and both cover (x)
        gens = ["x", "x y", "x y z", "x z", "y x"]
        ideals = [Ideal(CTX3, [p3(t) for t in g.split()]) for g in gens]
        above, covers = inclusion_order(ideals)
        assert above == [[1, 2, 3, 4], [2], [], [2], [2]]
        assert covers == [[1, 3, 4], [2], [], [2], [2]]

    def test_lift_certificates(self):
        # through c = x - y, modulo (y^2 - z): x^2 - z = (x + y) c + (y^2 - z);
        # without the modulus, exact division by c
        c = p3("x - y")
        M = Ideal(CTX3, [p3("y^2 - z")])
        f = p3("x^2 - z")
        (q,) = lift_through_ideal(c, [f], modulo=M)
        assert q is not None
        assert M.member(f - q * c)[0]
        assert lift_through_ideal(c, [p3("x + 1")], modulo=M) == [None]
        (q,) = lift_through_ideal(c, [p3("x^2 - y^2")])
        assert q * c == p3("x^2 - y^2")
        assert lift_through_ideal(c, [f]) == [None]

    def test_lift_many_targets(self):
        # one shared basis: every cofactor is an exact certificate modulo
        # the rest of the generators, the targets outside the ideal give
        # None, and each entry matches a single-target lift
        rng = random.Random(11)
        gens = [p3("x*y - z"), p3("y^2 - x"), p3("0"), p3("x*z - y")]
        c, M = gens[0], Ideal(CTX3, gens[1:])
        I = Ideal(CTX3, gens)
        targets = [p3("0"), p3("1"), p3("x + 1"), p3("z^3 - y")]
        for _ in range(6):
            f = Polynomial.zero(CTX3)
            for g in gens:
                f = f + random_polynomial(rng, CTX3, max_degree=2, max_terms=3) * g
            targets.append(f)
        lifts = lift_through_ideal(c, targets, modulo=M)
        assert len(lifts) == len(targets)
        for f, q in zip(targets, lifts):
            assert (q is not None) == I.member(f)[0]
            assert lift_through_ideal(c, [f], modulo=M) == [q]
            if q is not None:
                assert M.member(f - q * c)[0]
        assert lifts[0] is not None and lifts[1] is None and lifts[2] is None

    def test_lift_step_budget(self):
        # lifts run in the budgeted Buchberger loop, under the limit in scope
        M = Ideal(CTX3, [p3("x*y - z")])
        M.groebner()
        with pytest.raises(StepBudgetExceeded):
            with step_limit(1):
                lift_through_ideal(p3("x^2 - y"), [p3("x*z - y^2")], modulo=M)

    def test_lift_without_generators(self):
        # through c = 0, only the targets in the modulus lift, with q = 0
        assert lift_through_ideal(p3("0"), [p3("0"), p3("x")]) == [p3("0"), None]
        M = Ideal(CTX3, [p3("x")])
        lifts = lift_through_ideal(p3("0"), [p3("0"), p3("x*y"), p3("y")], modulo=M)
        assert lifts == [p3("0"), p3("0"), None]


class TestSaturate:
    def test_irreducible_unchanged(self):
        I = Ideal(WCTX, [parse("a*X - 1", WCTX)])
        S = saturate(I, parse("a", WCTX))
        assert ideal_equal(S, I)

    def test_textbook(self):
        S = saturate(Ideal(CTX3, [p3("x*y")]), p3("x"))
        assert set(S.groebner()) == {p3("y")}

    def test_by_unit(self):
        I = Ideal(CTX3, [p3("x*y")])
        assert ideal_equal(saturate(I, p3("1")), I)

    def test_idempotent(self):
        I = Ideal(CTX3, [p3("x^2*y - x")])
        once = saturate(I, p3("x"))
        twice = saturate(once, p3("x"))
        assert ideal_equal(once, twice)


class TestEliminate:
    def test_weyl_contraction_is_zero(self):
        I = Ideal(WCTX, [parse("a*X - 1", WCTX)])
        J = eliminate(I, {0})
        assert J.is_zero()

    def test_variable_ideal(self):
        I = Ideal(WCTX, [parse("a", WCTX), parse("X", WCTX)])
        J = eliminate(I, {0})
        assert set(J.groebner()) == {parse("a", WCTX)}

    def test_block_order(self):
        I = Ideal(CTX3, [p3("x"), p3("y*z")])
        J = eliminate(I, {1, 2})
        assert set(J.groebner()) == {p3("y*z")}

    def test_contract_to_prefix(self):
        I = Ideal(CTX3, [p3("x"), p3("y*z")])
        J = contract_to_prefix(I, 2)
        assert J.ctx.names == ("x", "y")
        assert set(J.groebner()) == {parse("x", J.ctx)}

    def test_full_contraction_is_the_reduced_ideal(self):
        # k = n eliminates nothing: I's reduced basis, over I's own table
        ctx = VarTable(("x", "y"))
        I = Ideal(ctx, [parse("x^2 - y", ctx), parse("x*y - 1", ctx)])
        J = contract_to_prefix(I, 2)
        assert J.ctx is ctx
        assert [str(g) for g in J.generators] == ["y^2 - x", "x*y - 1", "x^2 - y"]
        assert J.member(parse("y^3 - 1", ctx))[0]

    def test_contraction_width_out_of_range_refused(self):
        I = Ideal(CTX3, [p3("x"), p3("y*z")])
        for k in (-1, 4):
            with pytest.raises(PcglError, match=r"k must lie in 0\.\.3"):
                contract_to_prefix(I, k)


class TestHandoverPremises:
    def test_extend_refuses_a_table_that_does_not_extend(self):
        # (y, x, z) would move x - y to -y + x, not monic in grevlex
        ctx = VarTable(("x", "y"))
        I = Ideal(ctx, [parse("x - y", ctx)])
        with pytest.raises(ContextMismatch):
            extend(I, VarTable(("y", "x", "z")))
        assert [str(g) for g in extend(I, CTX3).generators] == ["x - y"]

    def test_adjoin_variable_refuses_an_index_out_of_range(self):
        I = Ideal(CTX3, [p3("x^2 - z")])
        for i in (-1, 3):
            with pytest.raises(PcglError, match=r"0\.\.2, got"):
                adjoin_variable(I, i)


class TestDimension:
    def test_coordinate_subspace(self):
        assert dimension(Ideal(CTX4, [p4("x"), p4("y")])) == 2

    def test_zero_ideal(self):
        assert dimension(Ideal.zero(CTX4)) == 4

    def test_hypersurface(self):
        assert dimension(Ideal(WCTX, [parse("a*X - 1", WCTX)])) == 1

    def test_unit_ideal_rejected(self):
        with pytest.raises(UnitIdeal):
            dimension(Ideal(CTX4, [p4("2")]))

    def test_all_variable_subsets(self):
        for r in range(5):
            for subset in itertools.combinations(range(4), r):
                gens = [Polynomial.variable(CTX4, i) for i in subset]
                assert dimension(Ideal(CTX4, gens)) == 4 - r


class TestStabilityOverBase:
    def test_element_in_new_variable_checked_on_every_column(self, pplane):
        # (X - 1) contracts to 0, a Poisson ideal of K[a]; {X - 1, X} = 0 lies
        # in it but {X - 1, a} = a*X does not, and base= must still see that
        ctx = pplane.ctx
        I = Ideal(ctx, [parse("X - 1", ctx)])
        base = contract_to_prefix(I, 1)
        assert base.is_zero()
        assert not is_poisson_stable(pplane.table, I)
        assert not is_poisson_stable(pplane.table, I, base=base)

    def test_agrees_with_the_full_check(self, pplane):
        # (a) and (a, X) contract to (a); (a*X - 1) contracts to 0 and is
        # not Poisson, since {a*X - 1, X} = a*X^2
        ctx = pplane.ctx
        for gens, stable in ((["a"], True), (["a", "X"], True), (["a*X - 1"], False)):
            I = Ideal(ctx, [parse(g, ctx) for g in gens])
            base = contract_to_prefix(I, 1)
            assert is_poisson_stable(pplane.table, I) is stable
            assert is_poisson_stable(pplane.table, I, base=base) is stable


def assert_stability_agrees(B, I, base=None, lowers=()):
    """`is_poisson_stable`, plain, with `base` and with each of `lowers`,
    alone and with `base`, answers as the reference, which brackets every
    generator with every basis element; each premise is the caller's."""
    expected = reference_poisson_stable(B, I)
    assert is_poisson_stable(B, I) is expected
    for J in (None, *lowers):
        if J is not None:
            assert is_poisson_stable(B, I, lower=J) is expected
        if base is not None:
            assert is_poisson_stable(B, I, base=base, lower=J) is expected
    return expected


class TestStabilityReference:
    def test_two_by_three_tree(self):
        # every node is a Poisson H-prime of its level: the parent is the
        # contraction, and the nodes of the level inside a node are Poisson
        P = matrix_presentation(2, 3)
        for k, level in enumerate(enumerate_hprimes(P).levels):
            table_k = P.restrict(k).table
            for node in level:
                I = node.ideal
                parent = node.parent.ideal if node.parent is not None else None
                lowers = [J.ideal for J in level if contains(I, J.ideal)]
                assert assert_stability_agrees(table_k, I, parent, lowers)

    def test_not_poisson(self, pplane, bellsig):
        # (X - 1) and (a*X - 1) contract to 0 in K[a] and the trimmed
        # closure of (x) to (x) in K[x]: all three contractions are Poisson
        cases = [(pplane, Ideal(pplane.ctx, [parse(g, pplane.ctx)])) for g in ("X - 1", "a*X - 1")]
        _, adjoined = poisson_closure(bellsig.table, Ideal(CTX4, [p4("x")]), trace=True)
        cases.append((bellsig, Ideal(CTX4, [p4("x")] + adjoined[:-1])))
        for P, I in cases:
            base = contract_to_prefix(I, 1)
            assert reference_poisson_stable(P.restrict(1).table, base)
            assert not assert_stability_agrees(P.table, I, base, [Ideal.zero(I.ctx)])

    def test_only_a_variable_pair_leaves_the_ideal(self):
        # {x2, x1} = x3, which is central: of the brackets of I = (x1, x2),
        # only {x1, x2} = -x3 and {x2, x1} = x3 leave I, so one of the two
        # must be tested; (x1) is Poisson in K[x1]
        ctx = VarTable(("x1", "x2", "x3"))
        B = BracketTable(ctx, {(1, 0): parse("x3", ctx)})
        I = Ideal(ctx, [parse("x1", ctx), parse("x2", ctx)])
        base = Ideal(ctx.restrict(1), [parse("x1", ctx.restrict(1))])
        assert not assert_stability_agrees(B, I, base, [Ideal.zero(ctx)])


class TestPoissonClosure:
    def test_single_variable_adjoins_bracket(self, bellsig):
        I = Ideal(CTX4, [p4("x")])
        closed, adjoined = poisson_closure(bellsig.table, I, trace=True)
        assert set(closed.groebner()) == {p4("x"), p4("y*z")}
        assert adjoined
        # removing the last adjoined element breaks Poisson stability
        trimmed = Ideal(CTX4, [p4("x")] + adjoined[:-1])
        assert not is_poisson_stable(bellsig.table, trimmed)

    def test_fixpoints(self, bellsig):
        for gens in ([p4("x"), p4("y")], [p4("z")]):
            I = Ideal(CTX4, gens)
            closed = poisson_closure(bellsig.table, I)
            assert ideal_equal(closed, I)
            again = poisson_closure(bellsig.table, closed)
            assert ideal_equal(again, closed)

    def test_membership_in_closure(self, bellsig):
        closed = poisson_closure(bellsig.table, Ideal(CTX4, [p4("x")]))
        assert closed.member(p4("y*z"))[0]


class TestHCore:
    def test_graded_ideal_unchanged(self, weyl):
        I = Ideal(WCTX, [parse("a*X - 1", WCTX)])
        core = h_core(weyl.grading, I)
        assert ideal_equal(core, I)

    def test_rank_zero(self, bellsig):
        I = Ideal(CTX4, [p4("x + y^2")])
        assert ideal_equal(h_core(bellsig.grading, I), I)

    def test_rank_two_grading(self, pplane):
        I = Ideal(WCTX, [parse("a + X", WCTX)])
        core = h_core(pplane.grading, I)
        # a and X carry independent weights, so no nonzero homogeneous
        # element lies in <a + X>
        assert core.is_zero()
        J = Ideal(WCTX, [parse("a*X", WCTX), parse("a + X", WCTX)])
        core2 = h_core(pplane.grading, J)
        assert is_h_stable(pplane.grading, core2)
        assert core2.member(parse("a*X", WCTX))[0]

    def test_rank_four_grading(self, m2):
        ctx = m2.ctx
        det = parse("a*d - b*c", ctx)
        I = Ideal(ctx, [det, parse("a + b", ctx)])
        core = h_core(m2.grading, I)
        # a + b mixes two weights; only the homogeneous determinant part
        # survives into the largest graded subideal
        assert is_h_stable(m2.grading, core)
        assert core.member(det)[0]
        assert not core.member(parse("a + b", ctx))[0]
        assert ideal_equal(h_core(m2.grading, Ideal(ctx, [parse("a*d - b*c + a", ctx)])),
                           Ideal.zero(ctx))

    def test_inhomogeneous_principal(self, weyl):
        I = Ideal(WCTX, [parse("a + X^2", WCTX)])
        core = h_core(weyl.grading, I)
        # certified postconditions
        assert is_h_stable(weyl.grading, core)
        for g in core.groebner():
            assert I.member(g)[0]
        assert ideal_equal(h_core(weyl.grading, core), core)
        # independent brute-force oracle: the core must contain every
        # homogeneous element of I; compare the degree-truncated spaces
        assert self._graded_subspace_dim(weyl.grading, I, 6) == self._ideal_dim(
            core, 6
        )

    @staticmethod
    def _monomials(deg):
        out = []
        for dx in range(deg + 1):
            for dy in range(deg + 1 - dx):
                out.append(Monomial.make({0: dx, 1: dy}))
        return out

    def _ideal_dim(self, I, deg):
        monos = self._monomials(deg)
        rows = []
        for m in monos:
            nf = I.normal_form(Polynomial.monomial(WCTX, m))
            rows.append([nf.terms.get(mm, 0) for mm in monos])
        # dimension of the kernel of the normal-form map on the span
        return len(monos) - len(linalg.rref(list(zip(*rows)))[1])

    def _graded_subspace_dim(self, G, I, deg):
        monos = self._monomials(deg)
        # elements of I of degree <= deg, split by weight: the graded part
        dims = 0
        by_weight = {}
        for m in monos:
            by_weight.setdefault(monomial_weight(G, m), []).append(m)
        for w, ms in by_weight.items():
            rows = []
            for m in ms:
                nf = I.normal_form(Polynomial.monomial(WCTX, m))
                rows.append([nf.terms.get(mm, 0) for mm in monos])
            dims += len(ms) - len(linalg.rref(list(zip(*rows)))[1])
        return dims


def graded_by_components(G, I):
    """The definition of a graded ideal, as a reference: every homogeneous
    component of every basis element is a member."""
    return all(
        I.member(comp)[0]
        for g in I.groebner()
        for comp in homogeneous_components(G, g).values()
    )


def random_generator(rng, G, ctx):
    """A random polynomial, or most often one of its nonconstant homogeneous
    components."""
    f = random_polynomial(rng, ctx, 2, 3)
    comps = [c for c in homogeneous_components(G, f).values() if not c.is_constant()]
    if not comps or rng.random() < 0.3:
        return f
    return rng.choice(comps)


class TestGradedness:
    """`is_h_stable` reads only the weights of the reduced basis, and must
    agree with the definition on every ideal."""

    def verdict(self, monkeypatch, G, I):
        calls = []
        member = Ideal.member

        def counting(self, f):
            calls.append(f)
            return member(self, f)

        with monkeypatch.context() as mp:
            mp.setattr(Ideal, "member", counting)
            verdict = is_h_stable(G, I)
        assert calls == []
        assert verdict == graded_by_components(G, I)
        return verdict

    @pytest.mark.parametrize("name", ["weyl", "m2", "2x3"])
    def test_random_ideals(self, request, monkeypatch, name):
        if name == "2x3":
            P = matrix_presentation(2, 3)
        else:
            P = request.getfixturevalue(name)
        rng = random.Random(name)
        seen = set()
        for _ in range(60):
            gens = [random_generator(rng, P.grading, P.ctx) for _ in range(rng.randint(1, 3))]
            seen.add(self.verdict(monkeypatch, P.grading, Ideal(P.ctx, gens)))
        assert seen == {True, False}

    def test_two_by_three_tree(self, monkeypatch):
        P = matrix_presentation(2, 3)
        for k, level in enumerate(enumerate_hprimes(P).levels):
            for node in level:
                assert self.verdict(monkeypatch, P.grading.restrict(k), node.ideal)


class TestPrimality:
    def test_zero(self):
        assert primality(Ideal.zero(CTX3))["tag"] == "verified"

    def test_variable_generated(self):
        assert primality(Ideal(CTX3, [p3("x"), p3("y")]))["tag"] == "verified"

    def test_principal_irreducible(self):
        assert primality(Ideal(WCTX, [parse("a*X - 1", WCTX)]))["tag"] == "verified"
        ctx = VarTable(("a", "b", "c", "d"))
        det = parse("a*d - b*c", ctx)
        assert primality(Ideal(ctx, [det]))["tag"] == "verified"

    def test_asserted_fallback(self):
        I = Ideal(CTX3, [p3("x^2 + y^2 + z^2 + 1"), p3("x*y + z")])
        assert primality(I)["tag"] == "asserted"


class TestChainReport:
    def test_long_chain(self, bellsig):
        chain = [
            Ideal.zero(CTX4),
            Ideal(CTX4, [p4("z")]),
            Ideal(CTX4, [p4("x"), p4("z")]),
            Ideal(CTX4, [p4("x"), p4("y"), p4("z")]),
        ]
        rep = chain_report(bellsig, chain)
        assert [e.dimension for e in rep.entries] == [4, 3, 2, 1]
        assert rep.drops == [1, 1, 1]
        assert rep.length == 3
        assert rep.saturated_in_spec
        assert all(e.poisson for e in rep.entries)
        assert all(e.primality["tag"] == "verified" for e in rep.entries)

    def test_short_chain(self, bellsig):
        chain = [
            Ideal.zero(CTX4),
            Ideal(CTX4, [p4("x"), p4("y")]),
            Ideal(CTX4, [p4("x"), p4("y"), p4("z")]),
        ]
        rep = chain_report(bellsig, chain)
        assert [e.dimension for e in rep.entries] == [4, 2, 1]
        assert rep.drops == [2, 1]
        assert rep.length == 2
        assert not rep.saturated_in_spec

    def test_json_entries_are_shallow(self, bellsig):
        # each JSON entry holds the entry's own field objects, not copies
        rep = chain_report(bellsig, [Ideal.zero(CTX4), Ideal(CTX4, [p4("z")])])
        out = rep.to_json_dict()["ideals"]
        for e, d in zip(rep.entries, out):
            assert d == vars(e) and d is not vars(e)
            assert d["primality"] is e.primality
            assert d["generators"] is e.generators

    def test_single_ideal(self, bellsig):
        rep = chain_report(bellsig, [Ideal(CTX4, [p4("z")])])
        assert rep.length == 0
        assert rep.drops == []

    def test_non_chain_rejected(self, bellsig):
        with pytest.raises(PcglError, match="^empty chain$"):
            chain_report(bellsig, [])
        with pytest.raises(PcglError):
            chain_report(bellsig, [Ideal(CTX4, [p4("x")]), Ideal(CTX4, [p4("y")])])
        with pytest.raises(PcglError):
            chain_report(
                bellsig, [Ideal(CTX4, [p4("x")]), Ideal(CTX4, [p4("x")])]
            )
