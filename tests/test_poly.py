import ast
import inspect
import pickle
import random
from fractions import Fraction

import pytest

from pcgl.cgl import _delta_iterates, _level_record
from pcgl.errors import (
    ContextMismatch,
    MissingImage,
    NegativeExponent,
    NotWithinBound,
    ParseError,
    PcglError,
    UnknownVariable,
)
import pcgl.ideals
import pcgl.pbracket
import pcgl.qpoly
from pcgl.qpoly import (
    MONO_ONE,
    Derivation,
    Monomial,
    Polynomial,
    VarTable,
    _qdiv,
    parse,
    re_context,
)
from random_poly import random_polynomial
from records import rebuild
from reference import partial

CTX = VarTable(("x", "y", "z", "w"))
LCTX = VarTable(("a", "X"), (False, True))


def poly(text, ctx=CTX):
    return parse(text, ctx)


def brute_multiply(f, g):
    """Independent expand-and-collect oracle over raw dicts."""
    acc = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            d = dict(m1.exps)
            for i, e in m2.exps:
                d[i] = d.get(i, 0) + e
            key = Monomial.make(d)
            acc[key] = acc.get(key, Fraction(0)) + c1 * c2
    return Polynomial(f.ctx, acc)


class TestParse:
    def test_product_of_variables(self):
        assert poly("2*y*z") == 2 * Polynomial.variable(CTX, 1) * Polynomial.variable(CTX, 2)

    def test_zero_has_empty_term_map(self):
        assert poly("0").terms == {}

    def test_difference_of_squares(self):
        f = poly("(x+y)*(x-y)")
        oracle = brute_multiply(poly("x+y"), poly("x-y"))
        assert f == oracle
        assert f == poly("x^2 - y^2")

    def test_rational_literals(self):
        assert poly("2/4") == Polynomial.constant(CTX, Fraction(1, 2))
        assert poly("5/3*x") == Fraction(5, 3) * Polynomial.variable(CTX, 0)

    def test_unary_minus_and_powers(self):
        assert poly("-x^2") == -(poly("x") ** 2)
        assert poly("x^0") == 1

    def test_laurent_exponent(self):
        f = parse("X^-1", LCTX)
        assert f * parse("X", LCTX) == Polynomial.constant(LCTX, 1)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            poly("x + * y")
        assert err.value.position == 4

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            poly("x + q")

    def test_negative_exponent_rejected_on_polynomial_variable(self):
        with pytest.raises(NegativeExponent):
            poly("x^-1")
        with pytest.raises(NegativeExponent):
            parse("(a + 1)^-1", LCTX)

    def test_division_only_in_literals(self):
        with pytest.raises(ParseError):
            poly("x/3")


class TestArith:
    def test_laurent_inverse(self):
        assert parse("X^-1", LCTX) * parse("X", LCTX) == 1

    def test_additive_inverse(self):
        assert poly("x + y") + poly("-x - y") == 0

    def test_number_minus_polynomial(self):
        assert 3 - poly("x - 2*y") == poly("3 - x + 2*y")
        assert 3 - poly("3") == 0

    def test_term_by_term(self):
        f = parse("a*X - 1", LCTX) * parse("X", LCTX)
        assert f == parse("a*X^2 - X", LCTX)
        assert f == brute_multiply(parse("a*X - 1", LCTX), parse("X", LCTX))

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            poly("x") + parse("a", LCTX)

    def test_negative_power_rejected(self):
        with pytest.raises(PcglError):
            poly("x") ** -1

    @pytest.mark.parametrize("k,products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (8, 3)])
    def test_power_makes_only_the_binary_products(self, monkeypatch, k, products):
        # one squaring per bit below the top one and one product per further
        # set bit: no product by the constant 1, no square after the top bit
        P = poly("x + y + z + w + 1")
        calls = []
        mul = Polynomial.__mul__
        monkeypatch.setattr(Polynomial, "__mul__", lambda f, g: calls.append(g) or mul(f, g))
        power = P ** k
        monkeypatch.undo()
        assert len(calls) == products
        expect = Polynomial.constant(CTX, 1)
        for _ in range(k):
            expect = brute_multiply(expect, P)
        assert power == expect


class TestDerivation:
    def delta(self):
        return Derivation(
            CTX,
            {0: poly("2*y*z"), 1: poly("x + y^2"), 2: poly("0")},
        )

    def test_generator_image(self):
        assert self.delta()(poly("x")) == poly("2*y*z")

    def test_kills_constants(self):
        assert self.delta()(poly("5")) == 0

    def test_leibniz_on_square(self):
        d = self.delta()
        y = poly("y")
        assert d(y * y) == d(y) * y + y * d(y)
        assert d(y * y) == poly("2*x*y + 2*y^3")

    def test_missing_image(self):
        with pytest.raises(MissingImage):
            self.delta()(poly("w"))


class TestIterate:
    def test_simple_nilpotent(self, weyl):
        # delta_2(a) = 1 on the Weyl tower: the nonzero iterates a, 1
        L = _level_record(weyl, 2)
        iterates = _delta_iterates(L, parse("a", L.delta.ctx))
        assert [str(p) for p in iterates] == ["a", "1"]

    def test_not_within_bound_degrees_grow(self, bellsig):
        # delta_4 of bellsig: x -> 2yz, y -> x + y^2, z -> 0
        L = _level_record(rebuild(bellsig, nilpotency_bound=6), 4)
        ctx = L.delta.ctx
        with pytest.raises(NotWithinBound) as exc:
            _delta_iterates(L, poly("y", ctx))
        iterates = exc.value.iterates
        assert len(iterates) == 7
        degs = [p.total_degree() for p in iterates]
        # second iterate is 2yz + 2y(x + y^2) != 0 and degrees strictly grow
        assert iterates[2] == poly("2*y*z + 2*x*y + 2*y^3", ctx)
        assert all(a < b for a, b in zip(degs[1:], degs[2:]))


class TestMonomial:
    def test_value_semantics(self):
        exps = ((0, 3), (2, 1))
        m = Monomial.make({2: 1, 0: 3, 1: 0})
        assert m.exps == exps and m == Monomial(exps) and m != exps
        # the hash of the former frozen dataclass, so set orders stay as they were
        assert hash(m) == hash((exps,))
        assert repr(m) == "Monomial(exps=((0, 3), (2, 1)))"
        assert pickle.loads(pickle.dumps(m)) == m

    def test_immutable(self):
        m = Monomial(((0, 1),))
        with pytest.raises(AttributeError):
            m.exps = ()
        assert not hasattr(m, "__dict__")

    def test_arithmetic_with_laurent_exponents(self):
        a, b = Monomial(((0, 2), (1, -1))), Monomial(((1, 1), (3, 2)))
        assert a * b == Monomial(((0, 2), (3, 2)))
        assert a.divide(b) == Monomial(((0, 2), (1, -2), (3, -2)))
        assert (a * b).divide(b) == a and b * Monomial(()) is b
        assert a.lcm(b) == Monomial(((0, 2), (1, 1), (3, 2)))
        assert Monomial(((1, -1),)).divides(Monomial(((0, 1),)))


class TestCoefficients:
    """An int where a coefficient is integral, a Fraction elsewhere."""

    def test_integral_values_are_ints(self):
        x = Monomial(((0, 1),))
        f = Polynomial(CTX, {x: Fraction(4, 2), MONO_ONE: Fraction(1, 2)})
        assert type(f.terms[x]) is int and type(f.terms[MONO_ONE]) is Fraction
        assert f == poly("2*x + 1/2") and hash(f) == hash(poly("2*x + 1/2"))
        assert str(f) == "2*x + 1/2"
        results = (f * 2, f + f, f - poly("1/2"), f * Fraction(2, 3), partial(f, 0))
        for g in results + (Polynomial.constant(CTX, Fraction(3)), parse("6/3*x", CTX)):
            assert all(type(c) is int or c.denominator != 1 for c in g.terms.values())
        assert type((f * 2).terms.get(MONO_ONE, 0)) is int
        assert poly("x").terms.get(MONO_ONE, 0) == 0

    def test_exact_division(self):
        half = Fraction(1, 2)
        cases = [(4, 2, 2), (1, 2, half), (-3, -1, 3), (half, half, 1),
                 (3, Fraction(3, 2), 2), (Fraction(3, 2), 3, half)]
        for a, b, want in cases:
            q = _qdiv(a, b)
            assert q == want and type(q) is type(want)

    def test_kernel_modules_divide_only_through_qdiv(self):
        # `/` on two ints is a float; the polynomial kernels never use it
        for module in (pcgl.qpoly, pcgl.ideals, pcgl.pbracket):
            tree = ast.parse(inspect.getsource(module))
            helper = next(
                f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_qdiv"
            ) if module is pcgl.qpoly else None
            exempt = {id(n) for n in ast.walk(helper)} if helper else set()
            divisions = [
                n for n in ast.walk(tree)
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div) and id(n) not in exempt
            ]
            assert not divisions, module.__name__


class TestInvariants:
    def test_canonical_form_uniqueness(self):
        rng = random.Random(7)
        for _ in range(200):
            f = random_polynomial(rng, CTX)
            g = random_polynomial(rng, CTX)
            assert ((f - g).is_zero()) == (f.terms == g.terms)

    def test_ring_axioms(self):
        rng = random.Random(11)
        for _ in range(200):
            f = random_polynomial(rng, CTX)
            g = random_polynomial(rng, CTX)
            h = random_polynomial(rng, CTX)
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_derivation_leibniz(self):
        rng = random.Random(13)
        d = Derivation(
            CTX,
            {i: random_polynomial(rng, CTX, max_degree=2) for i in range(4)},
        )
        for _ in range(200):
            f = random_polynomial(rng, CTX)
            g = random_polynomial(rng, CTX)
            assert d(f * g) == d(f) * g + f * d(g)

    def test_parse_print_roundtrip(self):
        rng = random.Random(17)
        for _ in range(200):
            f = random_polynomial(rng, CTX)
            assert parse(str(f), CTX) == f

    def test_roundtrip_with_laurent(self):
        assert parse(str(parse("a - X^-1", LCTX)), LCTX) == parse("a - X^-1", LCTX)


def test_parser_fuzz_raises_only_parse_errors():
    rng = random.Random(51)
    alphabet = "xyzw123+-*^()/ ."
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        try:
            parse(text, CTX)
        except ParseError:
            pass


def test_re_context_by_name():
    small = VarTable(("y", "z"))
    f = parse("y*z + z^2", small)
    g = re_context(f, CTX)
    assert g == poly("y*z + z^2")
    assert re_context(g, small) == f


def test_printing_conventions():
    assert str(poly("0")) == "0"
    assert str(parse("-a*X + 1", LCTX)) == "-a*X + 1"
    assert str(parse("a - X^-1", LCTX)) == "a - X^-1"
    assert str(poly("5/3")) == "5/3"
    assert str(poly("x*y^2 - 2*z")) == "x*y^2 - 2*z"


def test_pickle_round_trip(m2):
    from pcgl.cauchon import enumerate_hprimes
    from pcgl.ideals import Ideal

    f = poly("x*y^2 - 2/3*z + 1")
    g = pickle.loads(pickle.dumps(f))
    assert g == f and hash(g) == hash(f)
    I = Ideal(CTX, [poly("x^2 - y"), poly("x*y - z")])
    basis = I.groebner()
    assert pickle.loads(pickle.dumps(I)).groebner() == basis
    tree = enumerate_hprimes(m2)
    assert pickle.loads(pickle.dumps(tree)).to_json_dict() == tree.to_json_dict()


def test_derived_tables_are_built_once():
    # one table per (table, argument), equal to a freshly built one
    ctx = VarTable(("x", "y", "z"), (False, True, False))
    assert ctx.restrict(2) is ctx.restrict(2)
    assert ctx.restrict(2) == VarTable(("x", "y"), (False, True))
    assert ctx.extend(("t",)) is ctx.extend(["t"])
    assert ctx.extend(("t",)) == VarTable(("x", "y", "z", "t"), (False, True, False, False))
    assert ctx.restrict(1) is not ctx.restrict(2)
    assert ctx.restrict(3) is ctx
    # the cache is not part of the value
    assert pickle.loads(pickle.dumps(ctx)) == ctx
    assert pickle.dumps(ctx) == pickle.dumps(VarTable(ctx.names, ctx.laurent))
