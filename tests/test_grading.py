import random
from fractions import Fraction

from pcgl.grading import GradingData, graded_bracket_failures, pair, solve_h, weight_of
from pcgl.pbracket import BracketTable, bracket
from pcgl.qpoly import Polynomial, VarTable, parse
from random_poly import random_polynomial
from reference import homogeneous_components, lie_act

WEYL_CTX = VarTable(("a", "X"))
WEYL_G = GradingData(1, ((-1,), (1,)))


def wp(text):
    return parse(text, WEYL_CTX)


class TestComponents:
    def test_weight_zero_element(self):
        comps = homogeneous_components(WEYL_G, wp("a*X - 1"))
        assert list(comps) == [(0,)]
        assert comps[(0,)] == wp("a*X - 1")

    def test_rank_zero_is_single_component(self):
        G = GradingData(0, ((), ()))
        f = wp("a + X^2 + 1")
        assert len(homogeneous_components(G, f)) == 1

    def test_adhoc_grading(self):
        ctx = VarTable(("x", "y", "z", "w"))
        G = GradingData(1, ((2,), (1,), (1,), (0,)))
        f = parse("x + y*z", ctx)
        assert weight_of(G, f) == (2,)

    def test_components_sum_to_input(self):
        rng = random.Random(23)
        for _ in range(50):
            f = random_polynomial(rng, WEYL_CTX)
            comps = homogeneous_components(WEYL_G, f)
            total = Polynomial.zero(WEYL_CTX)
            for c in comps.values():
                total = total + c
            assert total == f


class TestLieAct:
    def test_eigenvalue_on_x(self):
        h = (Fraction(1),)
        assert lie_act(WEYL_G, h, wp("X")) == wp("X")

    def test_constants_die(self):
        assert lie_act(WEYL_G, (Fraction(3),), wp("7")) == 0

    def test_matches_sigma_on_a(self):
        assert lie_act(WEYL_G, (Fraction(1),), wp("a")) == wp("-a")

    def test_leibniz(self):
        rng = random.Random(29)
        h = (Fraction(2),)
        for _ in range(100):
            f = random_polynomial(rng, WEYL_CTX)
            g = random_polynomial(rng, WEYL_CTX)
            assert lie_act(WEYL_G, h, f * g) == lie_act(WEYL_G, h, f) * g + f * lie_act(
                WEYL_G, h, g
            )

    def test_commutes_with_components(self):
        rng = random.Random(31)
        h = (Fraction(1),)
        for _ in range(50):
            f = random_polynomial(rng, WEYL_CTX)
            acted = lie_act(WEYL_G, h, f)
            comps = homogeneous_components(WEYL_G, f)
            acted_comps = homogeneous_components(WEYL_G, acted)
            for w, c in comps.items():
                expect = lie_act(WEYL_G, h, c)
                assert acted_comps.get(w, Polynomial.zero(WEYL_CTX)) == expect


class TestGradedBracket:
    def weyl_table(self):
        return BracketTable(WEYL_CTX, {(1, 0): wp("-a*X + 1")})

    def test_weyl_is_graded(self):
        assert graded_bracket_failures(WEYL_G, self.weyl_table()) == []

    def test_rank_zero_always_graded(self):
        G = GradingData(0, ((), ()))
        assert graded_bracket_failures(G, self.weyl_table()) == []

    def test_corrupted_weight_fails(self):
        # with deg a = -2 the affine part of {X, a} = -aX + 1 sits at the
        # wrong weight, so the pair (X, a) is flagged
        bad = GradingData(1, ((-2,), (1,)))
        assert graded_bracket_failures(bad, self.weyl_table()) == [(1, 0)]

    def test_bracket_compatible_with_action(self):
        rng = random.Random(37)
        B = self.weyl_table()
        h = (Fraction(1),)
        assert graded_bracket_failures(WEYL_G, B) == []
        for _ in range(100):
            f = random_polynomial(rng, WEYL_CTX)
            g = random_polynomial(rng, WEYL_CTX)
            lhs = lie_act(WEYL_G, h, bracket(B, f, g))
            rhs = bracket(B, lie_act(WEYL_G, h, f), g) + bracket(
                B, f, lie_act(WEYL_G, h, g)
            )
            assert lhs == rhs


class TestSolveH:
    def test_weyl_level_two(self):
        h = solve_h(WEYL_G, 2, [Fraction(-1)])
        assert h == (Fraction(1),)
        assert pair(h, WEYL_G.weights[1]) == 1

    def test_level_one_unconstrained(self):
        h = solve_h(WEYL_G, 1, [])
        assert h is not None
        assert pair(h, WEYL_G.weights[0]) != 0
        # canonical output is a primitive integer vector
        assert all(x.denominator == 1 for x in h)

    def test_level_one_exact(self):
        # nothing constrains h_1, so the particular solution is 0 and the
        # correction takes the first unit vector e_i that pairs nonzero with
        # deg x_1: e_i for the first nonzero coordinate i of deg x_1
        cases = {
            (3,): (1,),
            (-2,): (1,),
            (0, 5): (0, 1),
            (0, -1): (0, 1),
            (2, 7): (1, 0),
            (0, 0, 4): (0, 0, 1),
            (0, 3, -1): (0, 1, 0),
        }
        rng = random.Random(31)
        while len(cases) < 40:
            w = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 3)))
            if any(w):
                first = next(i for i, x in enumerate(w) if x)
                cases[w] = tuple(int(i == first) for i in range(len(w)))
        for w, want in cases.items():
            G = GradingData(len(w), (w, w))
            assert solve_h(G, 1, []) == tuple(Fraction(x) for x in want), w
        for r in (1, 2, 3):
            assert solve_h(GradingData(r, ((0,) * r,)), 1, []) is None

    def test_rank_zero_infeasible(self):
        G = GradingData(0, ((), ()))
        assert solve_h(G, 1, []) is None
        assert solve_h(G, 2, [Fraction(0)]) is None

    def test_inconsistent_system(self):
        # two generators with equal weights but different required eigenvalues
        G = GradingData(1, ((1,), (1,), (1,)))
        assert solve_h(G, 3, [Fraction(1), Fraction(2)]) is None

    def test_solution_satisfies_constraints(self):
        G = GradingData(4, ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)))
        mus = [Fraction(0), Fraction(-1), Fraction(-1)]
        h = solve_h(G, 4, mus)
        assert h is not None
        for j, mu in enumerate(mus):
            assert pair(h, G.weights[j]) == mu
        assert pair(h, G.weights[3]) != 0
