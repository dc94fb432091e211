"""Inputs of the benchmark: semiclassical matrix towers and their oracles.

The m x n matrix Poisson algebra is built here as a presentation file
(the JSON schema `pcgl` reads), with the same conventions as the matrix
tests of the repository: generators x_ij in row-major order; for a later
generator x_ij and an earlier x_kl, {x_ij, x_kl} = -x_ij x_kl when they
share a row or a column, -2 x_kj x_il when i > k and j > l, and 0
otherwise.  The torus (K*)^(m+n) scales rows and columns.  The files carry no `bounds` key, because
`bounds.groebner_steps` would change the process-global step budget.
"""

from __future__ import annotations

from math import factorial

# `pcgl hprimes` counts of the shipped fixtures.  The README prints m2 (14)
# and weyl (2); pplane (4) is the count of the acceptance suite; bellsig is
# not a Poisson-CGL tower, so `hprimes` refuses it with exit code 1.
FIXTURE_HPRIME_COUNTS = {"weyl": 2, "pplane": 4, "m2": 14, "bellsig": None}

def matrix_data(m: int, n: int) -> dict:
    """Presentation file contents of the semiclassical m x n matrix algebra."""
    names = [f"x{i + 1}{j + 1}" for i in range(m) for j in range(n)]
    brackets = {}
    for a in range(m * n):
        for b in range(a):
            i, j = divmod(a, n)
            k, l = divmod(b, n)
            if i == k or j == l:
                text = f"-1*{names[a]}*{names[b]}"
            elif j > l:
                text = f"-2*{names[k * n + j]}*{names[i * n + l]}"
            else:
                continue
            brackets[f"{a + 1},{b + 1}"] = text
    rows = [[1 if g // n == r else 0 for g in range(m * n)] for r in range(m)]
    cols = [[1 if g % n == c else 0 for g in range(m * n)] for c in range(n)]
    return {"field": "QQ", "vars": names, "brackets": brackets, "grading": rows + cols}


def presentation_data(P) -> dict:
    """Presentation file contents of a loaded presentation (no `h`, no bounds)."""
    return {
        "field": "QQ",
        "vars": list(P.ctx.names),
        "brackets": {f"{i + 1},{j + 1}": str(p) for (i, j), p in P.table.pairs()},
        "grading": [[w[r] for w in P.grading.weights] for r in range(P.grading.rank)],
    }


def _stirling2(n: int, k: int) -> int:
    if k == n:
        return 1
    if k <= 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def hprime_count(m: int, n: int) -> int:
    """Closed-form number of torus-stable Poisson primes of the m x n matrix
    algebra: the poly-Bernoulli number B_n^(-m) (Launois 2007)."""
    return sum(
        factorial(j) ** 2 * _stirling2(n + 1, j + 1) * _stirling2(m + 1, j + 1)
        for j in range(min(m, n) + 1)
    )
