"""Oracles for the one-pass chain-rule kernel, the tower checks, the atom
walk of the d-search and `Ideal.reduced`.

`generator_brackets` and `bracket` are compared with the partial-derivative
formula {f, g} = sum_{i>j} {x_i, x_j} (df/dx_i dg/dx_j - df/dx_j dg/dx_i),
and `apply_derivation` with D(f) = sum_i D(x_i) df/dx_i, both independent
references of `tests/reference.py`, on random polynomials over the shipped
tables and a Laurent table from the theta checks.  `check_jacobi`, which
reads {x_j, x_k} off the table, is compared with the nested-bracket check
written out here, and `verify_cgl`'s delta flag of each tower level,
which it reads off the same Jacobiators, with the pairwise-bracket check
`reference.pairwise_delta_condition`.  The atom walk of the d-element
search is compared with an eager reference list, and `Ideal.reduced` with
a recomputed basis.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgl import cauchon, ideals
from pcgl.cauchon import (
    DElement,
    _closed_form_d,
    _delta_iterates,
    _normal_atoms,
    _try_denominator,
    d_element_search,
    enumerate_hprimes,
)
from pcgl.cgl import _level_record, level_data, verify_cgl
from pcgl.cli import fixture_path, load_presentation
from pcgl.errors import ContextMismatch, MissingImage, NotWithinBound
from pcgl.grading import weight_of
from pcgl.ideals import Ideal
from pcgl.pbracket import (
    BracketTable,
    bracket,
    check_jacobi,
    generator_brackets,
    is_poisson_normal,
)
from pcgl.qpoly import (
    Derivation,
    Monomial,
    Polynomial,
    VarTable,
    apply_derivation,
    parse,
    re_context,
)
from random_poly import random_polynomial
from records import rebuild
from reference import pairwise_delta_condition, reference_bracket, reference_derivation
from test_matrices import matrix_presentation

PRES = {name: load_presentation(fixture_path(name))[0] for name in ("m2", "weyl", "bellsig")}
TABLES = {name: P.table for name, P in PRES.items()}
for _name, _k in (("m2", 4), ("weyl", 2)):
    _L = level_data(PRES[_name], _k)
    TABLES[f"{_name}-hat"] = _L.pres_R.table.re_context(_L.hat_ctx)

# canonical or not: plain ints and integral Fractions such as Fraction(4, 2) too
coefficients = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.integers(-4, 4),
    st.integers(-4, 4).map(lambda n: Fraction(2 * n, 2)),
).filter(bool)


def polynomials(ctx, max_terms=4):
    """Exponents in [-2, 2] on Laurent variables and [0, 2] elsewhere."""
    exps = st.tuples(*[st.integers(-2 if ctx.laurent[i] else 0, 2) for i in range(len(ctx))])
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


@settings(max_examples=100, deadline=None)
@given(args=table_and_operands())
def test_column_sweep_matches_the_full_sweep(args):
    # a sweep over a tuple of columns gives the full sweep's brackets on
    # those columns, term dicts in the same order: on every tail s..n-1,
    # every subset of the columns, and the columns in reverse
    B, f, _ = args
    full = generator_brackets(B, f)
    n = len(B.ctx)
    tails = [tuple(range(s, n)) for s in range(n + 1)]
    subsets = [c for r in range(n + 1) for c in itertools.combinations(range(n), r)]
    for columns in tails + subsets + [tuple(reversed(range(n)))]:
        cut = generator_brackets(B, f, columns)
        assert cut == [full[j] for j in columns]
        assert [list(h.terms) for h in cut] == [list(full[j].terms) for j in columns]


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
# The tower checks
# ---------------------------------------------------------------------------


def nested_jacobi_failures(B):
    """`check_jacobi`'s failure list from the nested-bracket Jacobiator
    {x_i, {x_j, x_k}} + {x_j, {x_k, x_i}} + {x_k, {x_i, x_j}}, every
    bracket by the partial-derivative reference."""
    x = [Polynomial.variable(B.ctx, i) for i in range(len(B.ctx))]
    failures = []
    for i in range(len(x)):
        for j in range(i):
            for k in range(j):
                r = (
                    reference_bracket(B, x[i], reference_bracket(B, x[j], x[k]))
                    + reference_bracket(B, x[j], reference_bracket(B, x[k], x[i]))
                    + reference_bracket(B, x[k], reference_bracket(B, x[i], x[j]))
                )
                if not r.is_zero():
                    failures.append((i, j, k, r))
    return failures


def broken_tables():
    """Each table of at least three generators with one entry changed by a
    seeded random polynomial, three times over."""
    rng = random.Random("broken tables")
    for name, B in sorted(TABLES.items()):
        n = len(B.ctx)
        for t in range(3 if n >= 3 else 0):
            i = rng.randrange(1, n)
            j = rng.randrange(i)
            entries = dict(B.pairs())
            entries[(i, j)] = B.entry(i, j) + random_polynomial(rng, B.ctx, 2, 2)
            yield f"{name}-broken{t}", BracketTable(B.ctx, entries)


JACOBI_CASES = dict([*TABLES.items(), *broken_tables()])


@pytest.mark.parametrize("name", sorted(JACOBI_CASES))
def test_jacobi_matches_the_nested_brackets(name):
    B = JACOBI_CASES[name]
    report = check_jacobi(B)
    want = nested_jacobi_failures(B)
    assert report.failures == want
    assert report.ok == (not want)


def test_jacobi_cases_meet_both_verdicts():
    assert {check_jacobi(B).ok for B in JACOBI_CASES.values()} == {False, True}


def delta_cases():
    """(tower, level): every level of m2 and 2x3, then for each level k >= 3
    the tower with one entry {x_k, x_j} changed by a seeded random term:
    sigma_k(x_j) = mu_j x_j with mu_j shifted, or delta_k(x_j) plus a random
    polynomial in x_1..x_(k-1).  Sigma stays diagonal, so each level's
    record builds and `verify_cgl` sets its delta flag."""
    rng = random.Random("broken derivations")
    for name, P in (("m2", PRES["m2"]), ("2x3", matrix_presentation(2, 3))):
        for k in range(1, len(P.ctx) + 1):
            yield f"{name}-{k}", (P, k)
            if k < 3:
                continue
            i = k - 1
            for which in ("sigma", "delta"):
                j = rng.randrange(i)
                if which == "sigma":
                    change = Polynomial.variable(P.ctx, j) * Polynomial.variable(P.ctx, i)
                    change = change * rng.choice((-2, -1, 1, 2))
                else:
                    change = re_context(random_polynomial(rng, P.ctx.restrict(i), 2, 2), P.ctx)
                entries = dict(P.table.pairs())
                entries[(i, j)] = P.table.entry(i, j) + change
                broken = rebuild(P, table=BracketTable(P.ctx, entries))
                yield f"{name}-{k}-{which}", (broken, k)


DELTA_CASES = dict(delta_cases())


def delta_flag(P, k):
    return verify_cgl(P).levels[k - 1].delta_condition_ok


@pytest.mark.parametrize("name", sorted(DELTA_CASES))
def test_delta_condition_matches_the_pairwise_brackets(name):
    # verify_cgl reads the flag off the Jacobiators of the level
    P, k = DELTA_CASES[name]
    L = _level_record(P, k)
    assert delta_flag(P, k) == pairwise_delta_condition(L.pres_A.table, L.sigma, L.delta)


def test_delta_cases_meet_both_verdicts():
    verdicts = {delta_flag(*case) for case in DELTA_CASES.values()}
    assert verdicts == {False, True}


# ---------------------------------------------------------------------------
# The atom walk of the d-element search
# ---------------------------------------------------------------------------

# A = k[a, b, c] below the top variable of m2, where {b, a} = -ab, {c, a} = -ac
M2_LEVEL = level_data(PRES["m2"], 4)
CTX_A = M2_LEVEL.pres_A.ctx
ATOM_SETS = [
    [],
    ["a", "b", "c"],
    ["c", "a*b", "a", "a*b"],
    ["2*a", "a", "b - c", "1"],
    ["a^2", "b*c - a", "3", "0"],
]
# monomial ideals are Poisson here
MODULI = [[], ["a"], ["c"], ["b*c"], ["a^2", "b"]]


def eager_normal_atoms(L, Q, atoms):
    """The Poisson-normal homogeneous atoms of A/Q, in order, without repeats."""
    out = []
    for a in atoms:
        if a.is_zero() or a in out or Q.member(a)[0]:
            continue
        if weight_of(L.pres_A.grading, a) is None:
            continue
        modulo = None if Q.is_zero() else Q
        if is_poisson_normal(L.pres_A.table, a, modulo=modulo).ok:
            out.append(a)
    return out


@pytest.mark.parametrize("first, second", list(itertools.product(ATOM_SETS, repeat=2)))
@pytest.mark.parametrize("modulus", range(len(MODULI)))
def test_two_groups_match_the_two_phase_order(first, second, modulus):
    """`d_element_search` walks the variables, then the lineage's pool: the
    normal atoms of the first group come first, then those of the second
    not met before, and the second group is read only once the first is
    used up."""
    Q = Ideal(CTX_A, [parse(g, CTX_A) for g in MODULI[modulus]])
    first = [parse(a, CTX_A) for a in first]
    second = [parse(a, CTX_A) for a in second]
    first_part = eager_normal_atoms(M2_LEVEL, Q, first)
    want = eager_normal_atoms(M2_LEVEL, Q, first + second)
    assert want[: len(first_part)] == first_part
    asked = []

    def groups():
        yield first
        asked.append("second")
        yield second

    stream = _normal_atoms(M2_LEVEL, Q, itertools.chain.from_iterable(groups()))
    got = [next(stream) for _ in first_part]
    assert got == first_part
    assert asked == []
    got += list(stream)
    assert asked == ["second"]
    assert got == want


def certify_first_search(L, Q, extra_normals):
    """`d_element_search` with each atom certified before its
    delta-iterates: the zero guess, then the closed form of each
    Poisson-normal atom in order whose iterates modulo Q reach s >= 1."""
    ctx_A = L.pres_A.ctx
    d = _try_denominator(L, Q, DElement(Polynomial.zero(ctx_A), Polynomial.constant(ctx_A, 1)))
    if d is not None:
        return d
    atoms = [Polynomial.variable(ctx_A, j) for j in range(len(ctx_A))]
    atoms += [Q.normal_form(re_context(e, ctx_A)) for e in extra_normals]
    for a in eager_normal_atoms(L, Q, atoms):
        try:
            iterates = _delta_iterates(L, a, Q)
        except NotWithinBound:
            continue
        if len(iterates) > 1:
            d = _try_denominator(L, Q, _closed_form_d(L, iterates))
            if d is not None:
                return d
    return None


def d_search_cases(name):
    """(L, Q, extra normals): on m2, every modulus with every atom set;
    on 2x3, the search of every node of the tree, with its pool."""
    if name == "m2":
        for gens, atoms in itertools.product(MODULI, ATOM_SETS):
            Q = Ideal(CTX_A, [parse(g, CTX_A) for g in gens])
            yield M2_LEVEL, Q, [parse(a, CTX_A) for a in atoms]
        return
    P = matrix_presentation(2, 3)
    tree = enumerate_hprimes(P)
    for k in range(1, len(P.ctx) + 1):
        for node in tree.levels[k - 1]:
            yield level_data(P, k), node.ideal, node.normal_pool


@pytest.mark.parametrize("name", ["m2", "2x3"])
def test_d_search_matches_the_certify_first_order(name, monkeypatch):
    # the same d, and a certificate only for atoms that reach s >= 1; on
    # 2x3 the nodes that are not delta-stable give the searches with no d
    certified = []
    original = cauchon.is_poisson_normal

    def counting(B, c, modulo=None):
        certified.append(c)
        return original(B, c, modulo=modulo)

    monkeypatch.setattr(cauchon, "is_poisson_normal", counting)
    found = set()
    for L, Q, extra in d_search_cases(name):
        want = certify_first_search(L, Q, extra)
        certified.clear()
        assert d_element_search(L, modulo=Q, extra_normals=extra) == want
        assert all(len(_delta_iterates(L, a, Q)) > 1 for a in certified)
        found.add("none" if want is None else "zero" if want.is_zero() else "closed form")
    assert found == {"none", "zero", "closed form"}


# ---------------------------------------------------------------------------
# Ideal.reduced
# ---------------------------------------------------------------------------

CTX3 = VarTable(("x", "y", "z"))


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
