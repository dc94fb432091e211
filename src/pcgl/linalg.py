"""Exact linear algebra over the rationals and the integers.

Small dense routines backing the grading solver and the torus-center
kernel computation.  Matrices are lists of lists.
"""

from __future__ import annotations

import math
from fractions import Fraction


def rref(matrix):
    """Reduced row echelon form over Fraction.  Returns (rows, pivot_cols)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve_affine(A, b):
    """(x, kernel) from one RREF of (A | b): an exact solution x of A x = b
    and a basis of the kernel of A; None if the system is inconsistent.  A
    has at least one row.

    Free variables are set to zero in x, which makes it deterministic.  On
    a consistent system the RREF restricted to A's columns is RREF(A), so
    the kernel basis is the RREF-canonical one: a vector per free column.
    """
    ncols = len(A[0])
    aug = [list(row) + [val] for row, val in zip(A, b)]
    rows, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    kernel = []
    for free in range(ncols):
        if free not in pivots:
            v = [Fraction(0)] * ncols
            v[free] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -rows[r][free]
            kernel.append(v)
    return x, kernel


def clear_denominators(vec):
    """Scale a rational vector to a primitive integer vector (first nonzero > 0)."""
    fracs = [Fraction(x) for x in vec]
    lcm = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * lcm) for f in fracs]
    g = math.gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return ints


def row_hnf(matrix):
    """Row Hermite normal form of an integer matrix, with transformation.

    Returns (H, U) with U unimodular and U * matrix = H; pivots positive,
    entries above each pivot reduced into [0, pivot).
    """
    A = [list(map(int, row)) for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if A[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        U[r], U[pivot] = U[pivot], U[r]
        # Euclidean elimination below the pivot
        while True:
            nonzero = [i for i in range(r + 1, m) if A[i][c] != 0]
            if not nonzero:
                break
            i_min = min([r] + nonzero, key=lambda i: abs(A[i][c]))
            if i_min != r:
                A[r], A[i_min] = A[i_min], A[r]
                U[r], U[i_min] = U[i_min], U[r]
            for i in nonzero:
                if i == r or A[i][c] == 0:
                    continue
                q = A[i][c] // A[r][c]
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                U[i] = [a - q * b for a, b in zip(U[i], U[r])]
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
            U[r] = [-x for x in U[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                U[i] = [a - q * b for a, b in zip(U[i], U[r])]
        r += 1
        if r == m:
            break
    return A, U


def integer_kernel(matrix):
    """Canonical basis of {x in Z^n : matrix @ x = 0} for a rational matrix.

    Rows are scaled to integers (kernel unchanged), the kernel lattice is
    extracted through a unimodular row reduction of the transpose, and the
    resulting basis is itself put in Hermite normal form for determinism.
    """
    if not matrix:
        return []
    n = len(matrix[0])
    int_rows = []
    for row in matrix:
        scaled = clear_denominators(row)
        if any(scaled):
            int_rows.append(scaled)
    if not int_rows:
        basis = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        return basis
    # transpose: kernel vectors x satisfy x . column_j = 0 for all j
    At = [[int_rows[i][j] for i in range(len(int_rows))] for j in range(n)]
    H, U = row_hnf(At)
    kernel = [U[i] for i in range(n) if all(x == 0 for x in H[i])]
    if not kernel:
        return []
    Hk, _ = row_hnf(kernel)
    return [row for row in Hk if any(row)]
