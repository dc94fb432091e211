"""Oracles for the one-pass chain-rule kernel and the lazy searches around it.

`generator_brackets` and `bracket` are compared with the partial-derivative
formula {f, g} = sum_{i>j} {x_i, x_j} (df/dx_i dg/dx_j - df/dx_j dg/dx_i),
and `apply_derivation` with D(f) = sum_i D(x_i) df/dx_i, both kept here as
independent references, on random polynomials over the shipped tables and
a Laurent table from the theta checks.  The candidate
generator of the d-element search is compared with an eager reference
list, and `Ideal.reduced` with a recomputed basis.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgl import ideals
from pcgl.cauchon import _denominator_candidates
from pcgl.cgl import level_data
from pcgl.cli import fixture_path, load_presentation
from pcgl.errors import ContextMismatch, MissingImage
from pcgl.ideals import Ideal
from pcgl.pbracket import bracket, generator_brackets
from pcgl.qpoly import Derivation, Monomial, Polynomial, VarTable, apply_derivation, parse

PRES = {name: load_presentation(fixture_path(name))[0] for name in ("m2", "weyl", "bellsig")}
TABLES = {name: P.table for name, P in PRES.items()}
TABLES["m2-hat"] = level_data(PRES["m2"], 4).hat_table
TABLES["weyl-hat"] = level_data(PRES["weyl"], 2).hat_table

# canonical or not: plain ints and integral Fractions such as Fraction(4, 2) too
coefficients = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.integers(-4, 4),
    st.integers(-4, 4).map(lambda n: Fraction(2 * n, 2)),
).filter(bool)


def reference_bracket(B, f, g):
    """The partial-derivative bracket, one generator pair at a time."""
    result = Polynomial.zero(B.ctx)
    for (i, j), p in B.pairs():
        result = result + p * (f.partial(i) * g.partial(j) - f.partial(j) * g.partial(i))
    return result


def polynomials(ctx, max_terms=4):
    """Exponents in [-2, 2] on Laurent variables and [0, 2] elsewhere."""
    exps = st.tuples(*[st.integers(-2 if ctx.is_laurent(i) else 0, 2) for i in range(len(ctx))])
    terms = st.dictionaries(exps, coefficients, max_size=max_terms)
    return terms.map(
        lambda d: Polynomial(ctx, {Monomial.make(enumerate(e)): c for e, c in d.items()})
    )


def assert_canonical(h: Polynomial, ctx: VarTable):
    assert h.ctx == ctx
    for m, c in h.terms.items():
        # an int when integral, else a Fraction that is not; never zero
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert c != 0
        assert all(e != 0 for _, e in m.exps)
        assert list(m.exps) == sorted(m.exps)


@st.composite
def table_and_operands(draw):
    name = draw(st.sampled_from(sorted(TABLES)))
    B = TABLES[name]
    return B, draw(polynomials(B.ctx)), draw(polynomials(B.ctx))


def test_hat_tables_are_laurent():
    for name in ("m2-hat", "weyl-hat"):
        assert any(TABLES[name].ctx.laurent)


@settings(max_examples=150, deadline=None)
@given(args=table_and_operands())
def test_kernel_matches_partial_derivative_bracket(args):
    B, f, g = args
    fg = bracket(B, f, g)
    assert fg == reference_bracket(B, f, g)
    assert_canonical(fg, B.ctx)
    assert bracket(B, g, f) == -fg
    brs = generator_brackets(B, f)
    assert len(brs) == len(B.ctx)
    for j, h in enumerate(brs):
        xj = Polynomial.variable(B.ctx, j)
        assert_canonical(h, B.ctx)
        assert h == bracket(B, f, xj) == reference_bracket(B, f, xj)


def test_kernel_on_a_laurent_monomial():
    # weyl hat table: {X, a} = -a*X + 1 with X Laurent; f = a*X^-2
    B = TABLES["weyl-hat"]
    f = parse("a*X^-2", B.ctx)
    to_a, to_X = generator_brackets(B, f)
    assert to_a == parse("2*a^2*X^-2 - 2*a*X^-3", B.ctx)
    assert to_X == parse("a*X^-1 - X^-2", B.ctx)


def test_context_mismatch():
    B = TABLES["bellsig"]
    other = TABLES["weyl"].ctx
    f = Polynomial.variable(other, 0)
    g = Polynomial.variable(B.ctx, 0)
    with pytest.raises(ContextMismatch):
        generator_brackets(B, f)
    with pytest.raises(ContextMismatch):
        bracket(B, f, g)
    with pytest.raises(ContextMismatch):
        bracket(B, g, f)


def reference_derivation(D, f):
    """D(f) one variable at a time, by partial derivatives."""
    result = Polynomial.zero(f.ctx)
    for i in sorted(f.support()):
        result = result + D.images[i] * f.partial(i)
    return result


@st.composite
def derivation_and_operand(draw):
    ctx = TABLES[draw(st.sampled_from(sorted(TABLES)))].ctx
    images = {i: draw(polynomials(ctx, max_terms=3)) for i in range(len(ctx))}
    return Derivation(ctx, images), draw(polynomials(ctx))


@settings(max_examples=150, deadline=None)
@given(args=derivation_and_operand())
def test_kernel_matches_partial_derivative_derivation(args):
    D, f = args
    Df = apply_derivation(D, f)
    assert Df == reference_derivation(D, f)
    assert_canonical(Df, D.ctx)
    assert D(f) == Df
    # an image is needed exactly for the variables of f
    for i in range(len(D.ctx)):
        rest = Derivation(D.ctx, {j: p for j, p in D.images.items() if j != i})
        if i in f.support():
            with pytest.raises(MissingImage):
                apply_derivation(rest, f)
        else:
            assert apply_derivation(rest, f) == Df
    other = VarTable(tuple(name + "_" for name in D.ctx.names), D.ctx.laurent)
    with pytest.raises(ContextMismatch):
        apply_derivation(D, Polynomial(other, f.terms))
    with pytest.raises(ContextMismatch):
        Derivation(other, D.images)


# ---------------------------------------------------------------------------
# Lazy denominator candidates
# ---------------------------------------------------------------------------


def eager_candidates(ctx, atoms, degree_bound):
    """The candidate list as it was built before the search became lazy."""
    out = [Polynomial.constant(ctx, 1)]
    seen = set(out)
    for count in range(1, degree_bound + 1):
        batch = []
        for combo in itertools.combinations_with_replacement(range(len(atoms)), count):
            c = Polynomial.constant(ctx, 1)
            for i in combo:
                c = c * atoms[i]
            if c.total_degree() > degree_bound or c in seen:
                continue
            seen.add(c)
            batch.append(c)
        batch.sort(key=lambda p: (p.total_degree(), str(p)))
        out.extend(batch)
    return out


CTX3 = VarTable(("x", "y", "z"))
ATOM_SETS = [
    [],
    ["x", "y", "z"],
    ["z", "x*y", "x", "x*y"],
    ["2*x", "x", "y - z", "1"],
    ["x^2", "y*z - x", "3"],
]


@pytest.mark.parametrize("atoms", ATOM_SETS)
@pytest.mark.parametrize("bound", [0, 1, 2, 4])
def test_candidates_match_eager_list(atoms, bound):
    atoms = [parse(a, CTX3) for a in atoms]
    assert list(_denominator_candidates(CTX3, [atoms], bound)) == eager_candidates(
        CTX3, atoms, bound
    )


def eager_two_group_candidates(ctx, first, second, degree_bound):
    """The two-phase order of the d-search before its candidates became one
    stream: the products of the first group, then every product over both
    groups not yielded before, each batch sorted."""
    out = eager_candidates(ctx, first, degree_bound)
    tried = set(out)
    return out + [
        c for c in eager_candidates(ctx, first + second, degree_bound) if c not in tried
    ]


@pytest.mark.parametrize("first, second", list(itertools.product(ATOM_SETS, repeat=2)))
@pytest.mark.parametrize("bound", range(5))
def test_two_groups_match_the_two_phase_order(first, second, bound):
    first = [parse(a, CTX3) for a in first]
    second = [parse(a, CTX3) for a in second]
    want = eager_two_group_candidates(CTX3, first, second, bound)
    asked = []

    def groups():
        yield first
        asked.append("second")
        yield second

    stream = _denominator_candidates(CTX3, groups(), bound)
    # the second group is read only once every product of the first is taken
    first_part = eager_candidates(CTX3, first, bound)
    got = [next(stream) for _ in first_part]
    assert got == first_part
    assert asked == []
    got += list(stream)
    assert asked == ["second"]
    assert got == want


def test_candidates_build_one_batch_at_a_time(monkeypatch):
    atoms = [parse(a, CTX3) for a in ("x", "y", "z")]
    products = []
    mul = Polynomial.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    gen = _denominator_candidates(CTX3, [atoms], 4)
    assert next(gen) == 1
    assert products == []
    singles = [next(gen) for _ in atoms]
    assert sorted(map(str, singles)) == ["x", "y", "z"]
    assert len(products) == len(atoms)


# ---------------------------------------------------------------------------
# Ideal.reduced
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "gens", [["x^2 - y", "x*y - z"], ["x*y", "y*z", "x*z"], ["x - 1", "x^2 - x"], []]
)
def test_reduced_reuses_the_basis(gens, monkeypatch):
    I = Ideal(CTX3, [parse(g, CTX3) for g in gens])
    R = I.reduced()
    fresh = Ideal(CTX3, I.groebner())
    expected = fresh.groebner()

    def no_buchberger(*args, **kwargs):
        raise AssertionError("reduced() recomputed its basis")

    monkeypatch.setattr(ideals, "buchberger", no_buchberger)
    assert R.generators == fresh.generators
    assert R.groebner() == expected
    for g in I.generators:
        assert R.member(g)[0]
