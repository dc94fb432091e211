import random
from fractions import Fraction

import pytest

from pcgl import cauchon
from pcgl.cauchon import (
    DElement,
    check_theta,
    d_element_from_normal,
    d_element_search,
    delete_all,
    enumerate_hprimes,
    normal_element,
    second_lift,
    separating_normal,
    theta,
    validate_d_element,
)
from pcgl.cgl import LevelData, PoissonPresentation, _delta_iterates, level_data, verify_cgl
from pcgl.errors import PcglError, PreconditionError, SecondLiftError
from pcgl.grading import GradingData, weight_of
from pcgl.ideals import (
    Ideal,
    adjoin_variable,
    contract_to_prefix,
    ideal_equal,
    is_h_stable,
    is_poisson_stable,
    step_limit,
)
from pcgl.pbracket import BracketTable, bracket, is_poisson_normal
from pcgl.qpoly import (
    Derivation,
    Monomial,
    Polynomial,
    VarTable,
    parse,
    re_context,
)
from random_poly import random_polynomial
from records import fields, rebuild
from test_matrices import matrix_presentation


@pytest.fixture(scope="module")
def weyl2(weyl):
    return level_data(weyl, 2)


@pytest.fixture(scope="module")
def pplane2(pplane):
    return level_data(pplane, 2)


@pytest.fixture(scope="module")
def m24(m2):
    return level_data(m2, 4)


def tower(request, name):
    """A conftest presentation by name, or the 2x3 or 3x3 matrix tower."""
    if name in ("2x3", "3x3"):
        return matrix_presentation(int(name[0]), int(name[2]))
    return request.getfixturevalue(name)


def base(L, text):
    return parse(text, L.pres_A.ctx)


class TestTheta:
    def test_weyl(self, weyl2):
        result = theta(weyl2, base(weyl2, "a"))
        assert str(result) == "a - X^-1"

    def test_identity_when_delta_zero(self, pplane2):
        a = base(pplane2, "a")
        assert theta(pplane2, a) == re_context(a, pplane2.hat_ctx)

    def test_square_is_multiplicative(self, weyl2):
        a = base(weyl2, "a")
        assert theta(weyl2, a * a) == theta(weyl2, a) ** 2
        assert theta(weyl2, a * a) == parse("a^2 - 2*a*X^-1 + X^-2", weyl2.hat_ctx)

    @pytest.mark.parametrize(
        "fix,level",
        [
            (fix, level)
            for fix, nvars in [("weyl", 2), ("pplane", 2), ("m2", 4), ("2x3", 6), ("3x3", 9)]
            for level in range(1, nvars + 1)
        ],
    )
    def test_identities_per_fixture(self, request, monkeypatch, fix, level):
        L = level_data(tower(request, fix), level)
        report = check_theta(L)
        assert report.ok, report.failures
        n = level - 1
        assert report.images == {
            j: theta(L, Polynomial.variable(L.pres_A.ctx, j)) for j in range(n)
        }
        # theta + 1 breaks every identity, so the failures count those
        # checked: n(n+1)/2 products, n(n-1)/2 brackets and n twists
        monkeypatch.setattr(cauchon, "theta", lambda L, a: theta(L, a) + 1)
        kinds = [f["identity"] for f in check_theta(L).failures]
        assert kinds.count("multiplicative") == n * (n + 1) // 2
        assert kinds.count("poisson") == n * (n - 1) // 2
        assert kinds.count("sigma-twist") == n

    @pytest.mark.parametrize("fix", ["weyl", "pplane", "m2", "2x3"])
    def test_level_record_holds_no_laurent_table(self, request, fix):
        # check_theta builds the bracket table over hat_ctx itself
        assert "hat_table" not in fields(LevelData)
        P = tower(request, fix)
        for k in range(1, P.nvars + 1):
            L = level_data(P, k)
            assert check_theta(L).ok
            assert level_data(P, k) is L

    @pytest.mark.parametrize("fix, level, pairs", [("m2", 3, 1), ("m2", 4, 2), ("2x3", 6, None)])
    def test_doubled_base_table_breaks_only_the_brackets(self, request, fix, level, pairs):
        # theta({a, b}) brackets on pres_A's table and {theta(a), theta(b)}
        # on pres_R's, so doubling the first breaks the bracket identity of
        # each nonzero pair of generators and nothing else
        L = level_data(tower(request, fix), level)
        A = L.pres_A
        doubled = BracketTable(A.ctx, {k: 2 * p for k, p in A.table.pairs()})
        report = check_theta(rebuild(L, pres_A=rebuild(A, table=doubled)))
        names = A.ctx.names
        assert report.failures == [
            {"identity": "poisson", "a": names[i], "b": names[j]} for (i, j), _ in A.table.pairs()
        ]
        assert pairs is None or len(report.failures) == pairs
        assert report.failures and check_theta(L).ok

    def test_corrupted_lambda_fails(self, weyl2):
        broken = rebuild(weyl2, lambda_k=Fraction(2))
        report = check_theta(broken)
        assert not report.ok
        assert any(f["identity"] == "sigma-twist" for f in report.failures)


def series_without_factorials(L, iterates):
    """`_theta_series` with (-1/lambda)^l in place of (1/l!) (-1/lambda)^l."""
    ctx_R = L.pres_R.ctx
    s = len(iterates) - 1
    result = Polynomial.zero(ctx_R)
    for l, p in enumerate(iterates):
        xpow = Polynomial.monomial(ctx_R, Monomial.make({L.x_index: s - l}))
        result = result + re_context(p, ctx_R) * (Fraction(-1) / L.lambda_k) ** l * xpow
    return result


def doubled_sigma_image(L):
    """L with the first nonzero sigma image of a generator doubled."""
    images = dict(L.sigma.images)
    j = min(j for j, img in images.items() if not img.is_zero())
    images[j] = images[j] * 2
    return rebuild(L, sigma=Derivation(L.sigma.ctx, images))


@pytest.mark.parametrize("fix,level", [("weyl", 2), ("m2", 4), ("2x3", 5)])
@pytest.mark.parametrize("mutation", ["lambda doubled", "sigma image doubled", "no 1/l!"])
def test_exact_check_catches_mutations(request, monkeypatch, fix, level, mutation):
    # each mutation breaks theta, and the exact identities on generators
    # see it at every one of these levels
    L = level_data(tower(request, fix), level)
    assert check_theta(L).ok
    if mutation == "lambda doubled":
        L = rebuild(L, lambda_k=2 * L.lambda_k)
    elif mutation == "sigma image doubled":
        L = doubled_sigma_image(L)
    else:
        monkeypatch.setattr(cauchon, "_theta_series", series_without_factorials)
    assert not check_theta(L).ok


def reference_theta(L, a):
    """theta(a) summed term by term in the Laurent ring, each
    delta-iterate of a times x_k^(-l), and s, the index of the last nonzero
    iterate: a reference for the series that theta shares with
    normal_element."""
    iterates = _delta_iterates(L, a)
    result = Polynomial.zero(L.hat_ctx)
    coeff = Fraction(1)
    factorial = 1
    for l, p in enumerate(iterates):
        if l:
            factorial *= l
            coeff *= Fraction(-1) / L.lambda_k
        xpow = Polynomial.monomial(L.hat_ctx, Monomial.make({L.x_index: -l}))
        result = result + re_context(p, L.hat_ctx) * (coeff / factorial) * xpow
    return result, len(iterates) - 1


@pytest.mark.parametrize("name", ["weyl", "pplane", "m2", "2x3"])
def test_theta_matches_the_reference_series(request, name):
    # every level, every variable of its base ring and its square, and 20
    # seeded random elements of it
    P = matrix_presentation(2, 3) if name == "2x3" else request.getfixturevalue(name)
    rng = random.Random(20)
    for level in range(1, P.nvars + 1):
        L = level_data(P, level)
        ctx_A = L.pres_A.ctx
        elements = [Polynomial.variable(ctx_A, j) for j in range(len(ctx_A))]
        elements += [x * x for x in elements]
        elements += [random_polynomial(rng, ctx_A) for _ in range(20)]
        for a in elements:
            want, s = reference_theta(L, a)
            got = theta(L, a)
            assert got == want
            if not a.is_zero():
                # x_k^s, and no lower power, clears the x_k^-1 of theta(a)
                assert min(m.exponent(L.x_index) for m in got.terms) == -s


class TestNormalElement:
    def test_weyl(self, weyl2):
        res = normal_element(weyl2, base(weyl2, "a"))
        assert str(res.element) == "a*X - 1"
        assert res.eta == -1
        assert res.normality.ok

    def test_delta_zero(self, pplane2):
        res = normal_element(pplane2, base(pplane2, "a"))
        assert res.element == parse("a", pplane2.pres_R.ctx)
        assert res.s == 0

    def test_square(self, weyl2):
        res = normal_element(weyl2, base(weyl2, "a^2"))
        assert res.element == parse("a^2*X^2 - 2*a*X + 1", weyl2.pres_R.ctx)

    def test_bracket_identity(self, weyl2):
        res = normal_element(weyl2, base(weyl2, "a"))
        x = res.element
        X = weyl2.x()
        assert bracket(weyl2.pres_R.table, x, X) == x * X  # eta = -1

    def test_rejects_non_normal(self, m24):
        with pytest.raises(PreconditionError, match="^input is not homogeneous$"):
            normal_element(m24, base(m24, "a + b"))
        # homogeneous, but its brackets with x11 and x22 are no multiples of it
        L = level_data(matrix_presentation(2, 3), 6)
        cases = [
            ("x11*x22 + x12*x21", "^input is not Poisson-normal in the base ring$"),
            ("0", "^input must be nonzero$"),
        ]
        for text, message in cases:
            with pytest.raises(PreconditionError, match=message):
                normal_element(L, base(L, text))

    def test_to_base(self, weyl2):
        # an element of R free of x_k moves into A; one that involves x_k is refused
        a = parse("a^2 + 1", weyl2.pres_R.ctx)
        moved = cauchon._to_base(weyl2, a)
        assert moved.ctx == weyl2.pres_A.ctx and moved == base(weyl2, "a^2 + 1")
        message = "^element involves x_2, not in the base ring$"
        with pytest.raises(PreconditionError, match=message):
            cauchon._to_base(weyl2, parse("a*X", weyl2.pres_R.ctx))

    def test_m2_determinant(self, m24, m2):
        res = normal_element(m24, base(m24, "a"))
        assert res.element == parse("a*d - b*c", m2.ctx)

    def test_normality_certificates_all_generators(self, weyl2):
        for text in ("a", "a^2", "a^3"):
            res = normal_element(weyl2, base(weyl2, text))
            cert = is_poisson_normal(weyl2.pres_R.table, res.element)
            assert cert.ok
            assert set(cert.quotients) == {0, 1}


class TestDElement:
    def test_from_normal(self, weyl2):
        d = d_element_from_normal(weyl2, base(weyl2, "a"))
        assert str(d) == "1/a"

    def test_s_zero_rejected(self, pplane2):
        with pytest.raises(PreconditionError):
            d_element_from_normal(pplane2, base(pplane2, "a"))

    def test_square_gives_same_fraction(self, weyl2):
        d1 = d_element_from_normal(weyl2, base(weyl2, "a"))
        d2 = d_element_from_normal(weyl2, base(weyl2, "a^2"))
        assert d1.numerator * d2.denominator == d2.numerator * d1.denominator

    def test_search_weyl(self, weyl2):
        d = d_element_search(weyl2)
        assert d is not None
        assert str(d) == "1/a"
        assert validate_d_element(weyl2, d)

    def test_search_pplane_zero(self, pplane2):
        d = d_element_search(pplane2)
        assert d is not None and d.is_zero()

    def test_search_modulo_non_stable_ideal_inconclusive(self, weyl2):
        Q = Ideal(weyl2.pres_A.ctx, [base(weyl2, "a")])
        assert d_element_search(weyl2, modulo=Q) is None

    def test_search_m2(self, m24):
        d = d_element_search(m24)
        assert d is not None
        assert str(d) == "b*c/a"

    def test_invariants_cross_multiplied(self, m24):
        d = d_element_search(m24)
        b, c = d.numerator, d.denominator
        lam = m24.lambda_k
        assert m24.sigma(b) * c - b * m24.sigma(c) == lam * b * c
        assert m24.delta(b) * c - b * m24.delta(c) == -lam * b * b

    def test_uniqueness_across_routes(self, m24):
        d1 = d_element_search(m24)
        d2 = d_element_from_normal(m24, base(m24, "a"))
        assert d1.numerator * d2.denominator == d2.numerator * d1.denominator


class TestSecondLift:
    def test_weyl(self, weyl2):
        d = d_element_from_normal(weyl2, base(weyl2, "a"))
        lift = second_lift(weyl2, Ideal.zero(weyl2.pres_A.ctx), d)
        assert set(lift.groebner()) == {parse("a*X - 1", weyl2.pres_R.ctx)}

    def test_pplane_zero_d(self, pplane2):
        zero_d = DElement(
            Polynomial.zero(pplane2.pres_A.ctx),
            Polynomial.constant(pplane2.pres_A.ctx, 1),
        )
        lift = second_lift(pplane2, Ideal.zero(pplane2.pres_A.ctx), zero_d)
        assert set(lift.groebner()) == {parse("X", pplane2.pres_R.ctx)}

    def test_pplane_over_variable_ideal(self, pplane2):
        P0 = Ideal(pplane2.pres_A.ctx, [base(pplane2, "a")])
        zero_d = DElement(
            Polynomial.zero(pplane2.pres_A.ctx),
            Polynomial.constant(pplane2.pres_A.ctx, 1),
        )
        lift = second_lift(pplane2, P0, zero_d)
        assert set(lift.groebner()) == {
            parse("a", pplane2.pres_R.ctx),
            parse("X", pplane2.pres_R.ctx),
        }

    def test_invalid_d_rejected(self, weyl2):
        bogus = DElement(base(weyl2, "1"), base(weyl2, "1"))
        with pytest.raises(SecondLiftError):
            second_lift(weyl2, Ideal.zero(weyl2.pres_A.ctx), bogus)

    @pytest.mark.parametrize("level", ["weyl2", "m24"])
    def test_zero_d_x_node_that_is_not_poisson(self, request, monkeypatch, level):
        # (x_k) is graded and contracts to 0, but {a, X} = a*X - 1 on weyl
        # and {a, d} = 2*b*c on m2 lie outside it: only the Poisson check
        # refuses it
        L = request.getfixturevalue(level)
        adjoined = []

        def spy(I, i):
            adjoined.append(i)
            return adjoin_variable(I, i)

        monkeypatch.setattr(cauchon, "adjoin_variable", spy)
        zero_d = DElement(Polynomial.zero(L.pres_A.ctx), Polynomial.constant(L.pres_A.ctx, 1))
        with pytest.raises(SecondLiftError, match="not Poisson-stable"):
            second_lift(L, Ideal.zero(L.pres_A.ctx), zero_d)
        assert adjoined == [L.x_index]

    def test_fraction_failing_only_the_delta_identity(self, weyl2):
        # 2/a has the weight of X and passes the sigma identity; its delta
        # identity leaves delta(2) a - 2 delta(a) + lambda 2^2 = 2
        b, c = base(weyl2, "2"), base(weyl2, "a")
        G_A, lam = weyl2.pres_A.grading, weyl2.lambda_k
        w_b, w_c = weight_of(G_A, b), weight_of(G_A, c)
        assert tuple(p - q for p, q in zip(w_b, w_c)) == weyl2.pres_R.grading.weights[1]
        assert weyl2.sigma(b) * c - b * weyl2.sigma(c) - lam * b * c == 0
        assert weyl2.delta(b) * c - b * weyl2.delta(c) + lam * b * b == 2
        assert not validate_d_element(weyl2, DElement(b, c))

    def test_adjoin_variable_refusals(self, weyl2):
        ctx = weyl2.pres_R.ctx
        with pytest.raises(PcglError, match="unit ideal"):
            adjoin_variable(Ideal(ctx, [Polynomial.constant(ctx, 1)]), 1)
        with pytest.raises(PcglError, match="involves X"):
            adjoin_variable(Ideal(ctx, [parse("a*X - 1", ctx)]), 1)


class TestEnumeration:
    def test_weyl(self, weyl):
        tree = enumerate_hprimes(weyl)
        labels = {n.label() for n in tree.leaves()}
        assert labels == {"0", "<a*X - 1>"}
        assert not tree.inconclusive

    def test_pplane(self, pplane):
        tree = enumerate_hprimes(pplane)
        labels = {n.label() for n in tree.leaves()}
        assert labels == {"0", "<a>", "<X>", "<X, a>"}

    def test_trivial_tower(self):
        ctx = VarTable(())
        P = PoissonPresentation(
            ctx=ctx, table=BracketTable(ctx, {}), grading=GradingData(0, ())
        )
        tree = enumerate_hprimes(P)
        assert len(tree.leaves()) == 1
        assert tree.leaves()[0].ideal.is_zero()

    def test_m2_count(self, m2):
        tree = enumerate_hprimes(m2)
        assert len(tree.leaves()) == 14
        assert not tree.inconclusive

    def test_failing_presentation_rejected(self, bellsig):
        with pytest.raises(PreconditionError):
            enumerate_hprimes(bellsig)

    def test_rejection_carries_only_its_message(self, bellsig):
        for call in (enumerate_hprimes, delete_all):
            with pytest.raises(PreconditionError) as err:
                call(bellsig)
            assert str(err.value) == "presentation fails the tower axioms"
            assert vars(err.value) == {}

    def test_tree_consistency(self, m2):
        tree = enumerate_hprimes(m2)
        for k, level in enumerate(tree.levels):
            for node in level:
                if node.parent is not None:
                    assert ideal_equal(
                        contract_to_prefix(node.ideal, k - 1), node.parent.ideal
                    )
                G_k = m2.grading.restrict(k)
                table_k = m2.restrict(k).table
                assert is_h_stable(G_k, node.ideal)
                assert is_poisson_stable(table_k, node.ideal)

    def test_step_budget_flags_nodes(self, m2):
        # a budget that runs out flags the node being lifted; every child
        # that is emitted finished its checks, so each leaf is a leaf of
        # the full tree and the count can only fall
        full = [leaf.ideal for leaf in enumerate_hprimes(m2).leaves()]
        with step_limit(1):
            tree = enumerate_hprimes(m2)
        assert tree.inconclusive
        flags = [flag for level in tree.levels for node in level for flag in node.flags]
        assert any("step budget" in flag for flag in flags)
        leaves = tree.leaves()
        assert 0 < len(leaves) < len(full) == 14
        for leaf in leaves:
            assert sum(ideal_equal(leaf.ideal, J) for J in full) == 1

    def test_json_and_dot(self, pplane):
        tree = enumerate_hprimes(pplane)
        data = tree.to_json_dict()
        assert data["count"] == 4
        assert len(data["nodes"]) == 1 + 2 + 4
        dot = tree.to_dot()
        assert dot.startswith("digraph")
        # square poset: 4 covering edges
        assert dot.count("->") == 4


class TestDeleteAll:
    def test_weyl(self, weyl):
        deleted = delete_all(weyl)
        assert deleted.table.entry(1, 0) == parse("-a*X", weyl.ctx)
        assert verify_cgl(deleted).ok

    def test_pplane_unchanged(self, pplane):
        deleted = delete_all(pplane)
        assert deleted.table.entry(1, 0) == pplane.table.entry(1, 0)

    def test_m2_is_affine_space(self, m2):
        from pcgl.strata import extract_log_matrix

        deleted = delete_all(m2)
        assert verify_cgl(deleted).ok
        M = extract_log_matrix(deleted)
        assert M.entries[1][0] == -1  # {b, a} = -ab survives deletion

    def test_enumeration_after_deletion(self, m2):
        # full deletion produces 2^4 torus-stable primes, all variable ideals
        deleted = delete_all(m2)
        tree = enumerate_hprimes(deleted)
        assert len(tree.leaves()) == 16


class TestSeparatingNormal:
    def test_weyl(self, weyl):
        tree = enumerate_hprimes(weyl)
        zero = next(n for n in tree.leaves() if n.ideal.is_zero())
        big = next(n for n in tree.leaves() if not n.ideal.is_zero())
        res = separating_normal(weyl, zero, big)
        assert res is not None
        assert res.element == parse("a*X - 1", weyl.ctx)

    def test_pplane_zero_to_x(self, pplane):
        tree = enumerate_hprimes(pplane)
        by_label = {n.label(): n for n in tree.leaves()}
        res = separating_normal(pplane, by_label["0"], by_label["<X>"])
        assert res.element == parse("X", pplane.ctx)

    def test_pplane_variable_contraction_case(self, pplane):
        tree = enumerate_hprimes(pplane)
        by_label = {n.label(): n for n in tree.leaves()}
        res = separating_normal(pplane, by_label["<a>"], by_label["<X, a>"])
        assert res.element == parse("X", pplane.ctx)
        assert res.case == "x_N (delta = 0) (mod contraction)"

    def test_pplane_zero_to_a(self, pplane):
        tree = enumerate_hprimes(pplane)
        by_label = {n.label(): n for n in tree.leaves()}
        res = separating_normal(pplane, by_label["0"], by_label["<a>"])
        assert res.element == parse("a", pplane.ctx)

    def test_m2_zero_to_determinant(self, m2):
        tree = enumerate_hprimes(m2)
        det = next(
            n
            for n in tree.leaves()
            if n.branch == "d-branch" and n.parent.ideal.is_zero()
        )
        res = separating_normal(m2, Ideal.zero(m2.ctx), det)
        assert res.element == parse("a*d - b*c", m2.ctx)

    def test_m2_all_covering_pairs(self, m2):
        # every covering pair in the 14-element poset gets separated
        tree = enumerate_hprimes(m2)
        leaves = tree.leaves()
        for small in leaves:
            for big in leaves:
                if small is big:
                    continue
                gens_in = all(big.ideal.member(g)[0] for g in small.ideal.generators)
                proper = not all(
                    small.ideal.member(g)[0] for g in big.ideal.generators
                )
                if not (gens_in and proper):
                    continue
                res = separating_normal(m2, small, big)
                assert res is not None, (small.label(), big.label())

    def test_equal_ideals_rejected(self, weyl):
        z = Ideal.zero(weyl.ctx)
        with pytest.raises(PreconditionError, match="^ideals are equal$"):
            separating_normal(weyl, z, z)
        # two leaves of 2x3, neither inside the other, in either order
        P = matrix_presentation(2, 3)
        I = Ideal(P.ctx, [parse("x13*x22 - x12*x23", P.ctx)])
        J = Ideal(P.ctx, [parse("x12*x21 - x11*x22", P.ctx)])
        for pair in ((I, J), (J, I)):
            with pytest.raises(PreconditionError, match="^ideals are not nested$"):
                separating_normal(P, *pair)

    def test_contraction_not_delta_stable(self, weyl):
        # (a) is not Poisson: its contraction (a) has delta(a) = 1 outside
        # it, so the search declines instead of raising
        P_I = Ideal(weyl.ctx, [parse("a", weyl.ctx)])
        Q_I = Ideal(weyl.ctx, [parse("a", weyl.ctx), parse("X", weyl.ctx)])
        assert separating_normal(weyl, P_I, Q_I) is None
