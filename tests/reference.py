"""Reference constructions that only the tests read, kept as oracles for
the package's own routes: the Lie action of a grading, the lexicographic
order, the S-polynomial of a Groebner pair, the partial derivative and the
Krull dimension by a subset search.

- `lie_act` checks the sigma of each tower level and the grading of the
  bracket; `homogeneous_components` is its split by weight.
- `Lex` gives the kernel tests an order besides grevlex and elimination.
- `s_polynomial` checks that a basis is Groebner: every S-polynomial
  reduces to 0.
- `partial(f, i)` gives the partial-derivative bracket and derivation
  that the chain-rule kernel is compared with.
- `subset_dimension` is the Krull dimension by a search over every set of
  variables, the oracle of `ideals.dimension`'s least transversal.
"""

import itertools

from pcgl.errors import PcglError
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
