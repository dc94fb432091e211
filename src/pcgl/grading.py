"""Torus actions encoded as integer gradings.

The torus never appears as a group of points: a rational action of an
r-torus is the same data as a Z^r-grading, given here by one integer weight
column per generator.  Lie-algebra elements act diagonally on homogeneous
components through the pairing <h, weight>.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import PcglError
from .qpoly import Monomial, Polynomial, _Value

LieVector = tuple[Fraction, ...]


class GradingData(_Value):
    """Weight vectors deg(x_i) in Z^r, one per generator; immutable,
    compared and hashed by (rank, weights)."""

    def __init__(self, rank: int, weights: tuple[tuple[int, ...], ...]):
        weights = tuple(tuple(int(x) for x in w) for w in weights)
        for w in weights:
            if len(w) != rank:
                raise PcglError("weight vector length does not match grading rank")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "weights", weights)

    def restrict(self, k: int) -> "GradingData":
        return GradingData(self.rank, self.weights[:k])


def monomial_weight(G: GradingData, m: Monomial) -> tuple[int, ...]:
    w = [0] * G.rank
    for i, e in m.exps:
        wi = G.weights[i]
        for k in range(G.rank):
            w[k] += e * wi[k]
    return tuple(w)


def weight_of(G: GradingData, f: Polynomial) -> tuple[int, ...] | None:
    """The weight of a nonzero homogeneous polynomial, else None: the one
    weight of its monomials."""
    weights = {monomial_weight(G, m) for m in f.terms}
    if len(weights) != 1:
        return None
    return weights.pop()


def pair(h: LieVector, w) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(h, w)), Fraction(0))


def graded_bracket_failures(G: GradingData, B) -> list[tuple[int, int]]:
    """Pairs (i, j) whose bracket entry is not homogeneous of weight w_i + w_j."""
    failures = []
    for (i, j), p in B.pairs():
        target = tuple(a + b for a, b in zip(G.weights[i], G.weights[j]))
        for m in p.terms:
            if monomial_weight(G, m) != target:
                failures.append((i, j))
                break
    return failures


def solve_h(G: GradingData, level: int, sigma_eigenvalues) -> LieVector | None:
    """Find h in Q^r with <h, deg x_j> = mu_j for j < level and
    <h, deg x_level> != 0; None if the system is infeasible.

    The choice is deterministic: the reduced-row-echelon particular solution
    with free coordinates zero, corrected by the first canonical null-space
    vector when the eigenvalue on x_level would vanish.  Fully unconstrained
    homogeneous solutions are scaled to primitive integer vectors.
    """
    k = level
    if not 1 <= k <= len(G.weights):
        raise PcglError("level out of range")
    mus = [Fraction(m) for m in sigma_eigenvalues]
    if len(mus) != k - 1:
        raise PcglError("expected one sigma eigenvalue per earlier generator")
    if G.rank == 0:
        return None
    rows = [[Fraction(x) for x in G.weights[j]] for j in range(k - 1)]
    wk = G.weights[k - 1]
    if rows:
        solved = linalg.solve_affine(rows, mus)
        if solved is None:
            return None
        h, null = solved
    else:
        h = [Fraction(0)] * G.rank
        null = [[Fraction(int(i == j)) for j in range(G.rank)] for i in range(G.rank)]
    if pair(tuple(h), wk) == 0:
        for v in null:
            if pair(tuple(v), wk) != 0:
                h = [a + b for a, b in zip(h, v)]
                break
        else:
            return None
    if all(m == 0 for m in mus):
        h = [Fraction(x) for x in linalg.clear_denominators(h)]
        if pair(tuple(h), wk) == 0:
            raise PcglError("internal: scaling broke the eigenvalue constraint")
    return tuple(h)
