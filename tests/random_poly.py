"""Seeded random polynomials for the identity-check tests."""

import random
from fractions import Fraction

from pcgl.qpoly import Monomial, Polynomial, VarTable


def random_polynomial(
    rng: random.Random,
    ctx: VarTable,
    max_degree: int = 3,
    max_terms: int = 4,
    coeff_bound: int = 5,
) -> Polynomial:
    terms = {}
    n = len(ctx)
    for _ in range(rng.randint(1, max_terms)):
        exps = {}
        if n:
            remaining = rng.randint(0, max_degree)
            while remaining > 0:
                i = rng.randrange(n)
                e = rng.randint(1, remaining)
                exps[i] = exps.get(i, 0) + e
                remaining -= e
        num = rng.randint(-coeff_bound, coeff_bound)
        den = rng.randint(1, 3)
        if num == 0:
            num = 1
        m = Monomial.make(exps)
        terms[m] = terms.get(m, Fraction(0)) + Fraction(num, den)
    return Polynomial(ctx, terms)
