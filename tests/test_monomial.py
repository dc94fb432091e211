"""Oracles for the monomial layer under the division kernel.

The cached grevlex key of `Monomial.grevlex` needs no variable count; on
Laurent exponents it is compared with the dense key of grevlex on Z^n for
several n, the sparse block keys of `Elim` with the dense block keys, and
`str` with a printer that sorts terms by the dense key; the dense keys are
kept here as the reference.  The merge-based monomial operations are
compared with dict references, on Laurent exponents where they are defined
for them.  The shared-dict fast path of `re_context` must still refuse what
the general path refuses, and the general path, which maps each index by
name, must agree with parsing the printed polynomial in the target table.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgl.errors import PcglError
from pcgl.ideals import Elim, Grevlex
from pcgl.qpoly import Monomial, Polynomial, VarTable, parse, re_context

NVARS = 6


def monomials(min_exp=0, max_exp=3, nvars=NVARS):
    exps = st.lists(st.integers(min_exp, max_exp), min_size=nvars, max_size=nvars)
    return exps.map(lambda e: Monomial.make(enumerate(e)))


def sign(a, b):
    return (a > b) - (a < b)


def dense_grevlex_key(m, nvars):
    """Grevlex on the dense exponent vector of m in Z^nvars (larger key =
    larger): the degree, then the negated exponents from the last index down."""
    e = [0] * nvars
    for i, x in m.exps:
        e[i] = x
    e.reverse()
    return (sum(e), tuple([-x for x in e]))


def dense_elim_key(front, nvars, m):
    """The block key of `Elim` before it read the sparse pairs: grevlex on
    each block's dense exponent list, the front block first."""
    d = dict(m.exps)
    back = tuple(i for i in range(nvars) if i not in front)
    keys = []
    for block in (tuple(sorted(front)), back):
        e = [d.get(i, 0) for i in reversed(block)]
        keys.append((sum(e), tuple([-x for x in e])))
    return tuple(keys)


@settings(max_examples=300, deadline=None)
@given(a=monomials(-3, 3), b=monomials(-3, 3), extra=st.integers(0, 3))
def test_cached_key_orders_as_the_dense_key(a, b, extra):
    n = NVARS + extra
    assert sign(a.grevlex(), b.grevlex()) == sign(dense_grevlex_key(a, n), dense_grevlex_key(b, n))
    assert Grevlex.key(a) is a.grevlex()


@settings(max_examples=300, deadline=None)
@given(
    a=monomials(-3, 3),
    b=monomials(-3, 3),
    front=st.frozensets(st.integers(0, NVARS - 1), min_size=1, max_size=NVARS - 1),
)
def test_elim_key_orders_as_the_dense_block_key(a, b, front):
    order = Elim(front)
    assert sign(order.key(a), order.key(b)) == sign(
        dense_elim_key(front, NVARS, a), dense_elim_key(front, NVARS, b)
    )


@settings(max_examples=300, deadline=None)
@given(a=monomials(-2, 2), b=monomials(-2, 2))
def test_product_and_quotient_match_dicts_on_laurent_exponents(a, b):
    da, db = dict(a.exps), dict(b.exps)
    keys = set(da) | set(db)
    assert a * b == Monomial.make({i: da.get(i, 0) + db.get(i, 0) for i in keys})
    assert a.divide(b) == Monomial.make({i: da.get(i, 0) - db.get(i, 0) for i in keys})


@settings(max_examples=300, deadline=None)
@given(a=monomials(), b=monomials())
def test_merges_match_dicts(a, b):
    da, db = dict(a.exps), dict(b.exps)
    keys = set(da) | set(db)
    assert a.lcm(b) == Monomial.make({i: max(da.get(i, 0), db.get(i, 0)) for i in keys})
    assert a.gcd(b) == Monomial.make({i: min(da.get(i, 0), db.get(i, 0)) for i in keys})
    assert a.divides(b) == all(e <= db.get(i, 0) for i, e in da.items())
    assert a.is_coprime(b) == set(da).isdisjoint(db)
    assert a.mask() == sum(1 << i for i in da)
    # the mask test rejects only non-divisors
    if a.mask() & ~b.mask():
        assert not a.divides(b)


@settings(max_examples=100, deadline=None)
@given(a=monomials(-2, 2))
def test_hash_and_pickle_see_the_exponents_alone(a):
    assert hash(a) == hash((a.exps,))
    fresh = pickle.loads(pickle.dumps(a))
    assert fresh == a and hash(fresh) == hash(a)
    a.grevlex(), a.mask()  # fill both cached slots
    warm = pickle.loads(pickle.dumps(a))
    assert warm == a and hash(warm) == hash(a)
    assert warm.grevlex() == a.grevlex() and warm.mask() == a.mask()


LAURENT = VarTable(("a", "X", "y"), (False, True, False))
PLAIN = VarTable(("a", "X", "y"))


def test_re_context_shares_terms_across_prefix_and_extension():
    f = parse("a*X^2 - X", PLAIN)
    up = PLAIN.extend(("t",))
    down = PLAIN.restrict(2)
    for ctx in (up, down):
        g = re_context(f, ctx)
        assert g.ctx is ctx and g.terms is f.terms
        assert re_context(g, PLAIN) == f


def test_constructor_refuses_negative_exponent_on_polynomial_variable():
    x_inverse = {Monomial(((1, -1),)): 1}
    with pytest.raises(PcglError, match="negative exponent on non-Laurent variable 'X'"):
        Polynomial(PLAIN, x_inverse)
    with pytest.raises(PcglError, match="negative exponent on non-Laurent variable 'X'"):
        Polynomial.monomial(PLAIN, Monomial(((0, 1), (1, -1))))
    # on the Laurent variable it is X^-1
    assert Polynomial(LAURENT, x_inverse) == parse("X^-1", LAURENT)


def test_re_context_refuses_negative_exponent_on_polynomial_variable():
    # the public constructor refuses one before re_context sees it
    with pytest.raises(PcglError, match="negative exponent on non-Laurent variable 'X'"):
        re_context(Polynomial(PLAIN, {Monomial(((1, -1),)): 1}), PLAIN.extend(("t",)))
    # the same index and name, but X loses its Laurent flag
    f = parse("a*X^-1", LAURENT)
    with pytest.raises(PcglError, match="negative exponent on non-Laurent variable 'X'"):
        re_context(f, PLAIN)
    # a Laurent variable that keeps its flag keeps its negative exponent
    assert re_context(f, LAURENT.restrict(2)) == parse("a*X^-1", LAURENT.restrict(2))


def test_re_context_refuses_to_drop_a_variable_in_use():
    f = parse("a*y + X", PLAIN)
    with pytest.raises(PcglError, match="unknown variable 'y'"):
        re_context(f, PLAIN.restrict(2))
    # an unused variable may go
    assert re_context(parse("a + X", PLAIN), PLAIN.restrict(2)) == parse("a + X", PLAIN.restrict(2))



laurent_polynomials = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(-3, 3), st.integers(0, 3)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
    max_size=4,
).map(lambda d: Polynomial(LAURENT, {Monomial.make(enumerate(e)): c for e, c in d.items()}))


@settings(max_examples=200, deadline=None)
@given(f=laurent_polynomials, seed=st.integers(0, 2**16), extra=st.integers(0, 2))
def test_re_context_onto_a_permuted_table_matches_parsing(f, seed, extra):
    names = [*LAURENT.names, *(f"t{k}" for k in range(extra))]
    random.Random(seed).shuffle(names)
    flags = tuple(n in LAURENT.names and LAURENT.laurent[LAURENT.index(n)] for n in names)
    target = VarTable(tuple(names), flags)
    g = re_context(f, target)
    assert g == parse(str(f), target)
    assert re_context(g, LAURENT) == f


FLAGGED = VarTable(tuple(f"x{i}" for i in range(NVARS)), (True, False, True, True, False, True))

flagged_polynomials = st.dictionaries(
    st.tuples(*[st.integers(-3 if flag else 0, 3) for flag in FLAGGED.laurent]),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
    max_size=6,
).map(lambda d: Polynomial(FLAGGED, {Monomial.make(enumerate(e)): c for e, c in d.items()}))


def reference_str(f):
    """`str` of f by the dense key: terms largest first, each as
    [|c|*]x^e*... (a unit coefficient shown only on the constant), with the
    first sign shown only when negative."""
    out = ""
    n = len(f.ctx)
    for m, c in sorted(f.terms.items(), key=lambda t: dense_grevlex_key(t[0], n), reverse=True):
        factors = [f.ctx.names[i] + ("" if e == 1 else f"^{e}") for i, e in m.exps]
        out += (" - " if c < 0 else " + ") if out else ("-" if c < 0 else "")
        out += "*".join(factors if abs(c) == 1 and factors else [str(abs(c)), *factors])
    return out or "0"


@settings(max_examples=150, deadline=None)
@given(f=flagged_polynomials)
def test_str_sorts_terms_by_the_dense_key(f):
    assert str(f) == reference_str(f)
