"""Reference constructions that only the tests read, kept as oracles for
the package's own routes: the Lie action of a grading, the lexicographic
order, the S-polynomial of a Groebner pair, the partial derivative, the
bracket, derivation and delta condition built on it, the Krull
dimension by a subset search, and the closed-form d-element of one
Poisson-normal element.

- `lie_act` checks the sigma of each tower level and the grading of the
  bracket; `homogeneous_components` is its split by weight.
- `Lex` gives the kernel tests an order besides grevlex and elimination.
- `s_polynomial` checks that a basis is Groebner: every S-polynomial
  reduces to 0.
- `partial(f, i)` gives the partial-derivative bracket and derivation
  (`reference_bracket`, `reference_derivation`) that the chain-rule
  kernel is compared with, `pairwise_delta_condition`, the oracle of
  each tower level's delta-compatibility flag, and
  `reference_poisson_stable`, the oracle of `ideals.is_poisson_stable`.
- `subset_dimension` is the Krull dimension by a search over every set of
  variables, the oracle of `ideals.dimension`'s least transversal.
- `d_element_from_normal` is d = delta(a) / (lambda s a) from one
  Poisson-normal element a, which `d_element_search`'s results are
  compared with.
"""

import itertools

from pcgl.cauchon import DElement, _closed_form_d, _normal_input, _to_base, validate_d_element
from pcgl.cgl import LevelData, _delta_iterates
from pcgl.errors import PcglError, PreconditionError
from pcgl.grading import GradingData, LieVector, monomial_weight, pair
from pcgl.ideals import Grevlex, _times_term, leading_monomial
from pcgl.qpoly import Monomial, Polynomial, VarTable, _canon, _drop_one, _qdiv, _trusted


def homogeneous_components(G: GradingData, f: Polynomial) -> dict[tuple[int, ...], Polynomial]:
    """Split f by total weight; the components sum back to f."""
    buckets: dict[tuple[int, ...], dict] = {}
    for m, c in f.terms.items():
        buckets.setdefault(monomial_weight(G, m), {})[m] = c
    return {w: Polynomial(f.ctx, t) for w, t in sorted(buckets.items())}


def lie_act(G: GradingData, h: LieVector, f: Polynomial) -> Polynomial:
    """The diagonal derivation sending a weight-w element to <h,w> times it."""
    if len(h) != G.rank:
        raise PcglError("Lie vector length does not match grading rank")
    result = Polynomial.zero(f.ctx)
    for w, comp in homogeneous_components(G, f).items():
        scale = pair(h, w)
        if scale:
            result = result + comp * scale
    return result


class Lex:
    """Lexicographic order; earlier variables are greater."""

    def __init__(self, ctx: VarTable):
        self.nvars = len(ctx)
        self.tag = "lex"

    def key(self, m: Monomial):
        e = [0] * self.nvars
        for i, x in m.exps:
            e[i] = x
        return tuple(e)


def s_polynomial(f: Polynomial, g: Polynomial, order) -> Polynomial:
    lmf = leading_monomial(f, order)
    lmg = leading_monomial(g, order)
    l = lmf.lcm(lmg)
    return _times_term(f, l.divide(lmf), _qdiv(1, f.terms[lmf])) - _times_term(
        g, l.divide(lmg), _qdiv(1, g.terms[lmg])
    )


def partial(f: Polynomial, i: int) -> Polynomial:
    """Partial derivative; valid on Laurent exponents as well."""
    terms = {}
    for m, c in f.terms.items():
        for k, (j, e) in enumerate(m.exps):
            if j == i:
                c = c * e
                terms[_drop_one(m.exps, k)] = c if c.__class__ is int else _canon(c)
    return _trusted(f.ctx, terms)


def reference_bracket(B, f, g):
    """The partial-derivative bracket, one generator pair at a time."""
    result = Polynomial.zero(B.ctx)
    for (i, j), p in B.pairs():
        result = result + p * (partial(f, i) * partial(g, j) - partial(f, j) * partial(g, i))
    return result


def reference_poisson_stable(B, I) -> bool:
    """Whether {x_i, g} lies in I for every generator x_i and every element
    g of I's reduced basis, each bracket by partial derivatives: no pair is
    skipped."""
    for g in I.groebner():
        for i in range(len(I.ctx)):
            if not I.member(reference_bracket(B, Polynomial.variable(I.ctx, i), g))[0]:
                return False
    return True


def reference_derivation(D, f):
    """D(f) one variable at a time, by partial derivatives."""
    result = Polynomial.zero(f.ctx)
    for i in sorted(f.support()):
        result = result + D.images[i] * partial(f, i)
    return result


def pairwise_delta_condition(B_A, S, D):
    """The twisted Leibniz compatibility of (S, D) over the table B_A,
    D({a,b}) = {D(a),b} + {a,D(b)} + S(a)D(b) - D(a)S(b), on every generator
    pair, one bracket at a time, brackets and derivations by the
    partial-derivative references.  By Oh's criterion this is the delta
    half of the Poisson condition on A[x; S, D]_p."""
    x = [Polynomial.variable(B_A.ctx, i) for i in range(len(B_A.ctx))]
    for i, a in enumerate(x):
        for b in x[:i]:
            Da, Db = reference_derivation(D, a), reference_derivation(D, b)
            Sa, Sb = reference_derivation(S, a), reference_derivation(S, b)
            lhs = reference_derivation(D, reference_bracket(B_A, a, b))
            rhs = reference_bracket(B_A, Da, b) + reference_bracket(B_A, a, Db) + Sa * Db - Da * Sb
            if lhs != rhs:
                return False
    return True


def subset_dimension(I) -> int:
    """Krull dimension of R/I: the largest set of variables that holds the
    support of no leading monomial of the reduced grevlex basis, searched
    over all subsets from the largest size down."""
    n = len(I.ctx)
    supports = [set(leading_monomial(g, Grevlex()).support()) for g in I.groebner()]
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            if not any(sup <= set(subset) for sup in supports):
                return size
    raise PcglError("the unit ideal has no dimension")


def d_element_from_normal(L: LevelData, a: Polynomial) -> DElement:
    """d = delta(a) / (lambda s a) from a Poisson-normal homogeneous a with
    s = s_max(a) > 0, the largest l with delta^l(a) != 0."""
    a = _to_base(L, a)
    _normal_input(L, a)
    iterates = _delta_iterates(L, a)
    if len(iterates) == 1:
        raise PreconditionError("s_max(a) = 0: no d-element from this recipe")
    d = _closed_form_d(L, iterates)
    if not validate_d_element(L, d):
        raise PcglError("d-element invariants failed")
    return d
