"""Poisson-torus centers of fully deleted towers.

After iterated deletion every bracket is quadratic, {x_i, x_j} =
lambda_ij x_i x_j, and the Poisson center of the associated Laurent
algebra is spanned by the monomials x^m with m in the integer kernel of
the log-bracket matrix.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import NotAPoissonAffineSpace, PcglError
from .ideals import Ideal, variable_support
from .qpoly import Monomial, Polynomial, VarTable


class LogBracketMatrix:
    """Skew matrix of the coefficients lambda_ij in {x_i, x_j} = lambda_ij x_i x_j;
    immutable, compared and hashed by (ctx, entries)."""

    def __init__(self, ctx: VarTable, entries: tuple[tuple[Fraction, ...], ...]):
        n = len(entries)
        rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise PcglError("log-bracket matrix must be square")
            if row[i] != 0:
                raise PcglError("log-bracket matrix must have zero diagonal")
            for j in range(n):
                if rows[i][j] != -rows[j][i]:
                    raise PcglError("log-bracket matrix must be skew-symmetric")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("LogBracketMatrix is immutable")

    def __eq__(self, other):
        if other.__class__ is not LogBracketMatrix:
            return NotImplemented
        return self.ctx == other.ctx and self.entries == other.entries

    def __hash__(self):
        return hash((self.ctx, self.entries))


def extract_log_matrix(P) -> LogBracketMatrix:
    """Read off lambda_ij from a presentation whose brackets are all quadratic."""
    n = P.nvars
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            p = P.table.entry(i, j)
            if p.is_zero():
                continue
            quad = Monomial.make({i: 1, j: 1})
            if len(p.terms) != 1 or quad not in p.terms:
                raise NotAPoissonAffineSpace(
                    f"bracket {{x_{i+1}, x_{j+1}}} = {p} is not a scalar multiple "
                    f"of x_{i+1}*x_{j+1}"
                )
            lam = p.terms[quad]
            rows[i][j] = lam
            rows[j][i] = -lam
    return LogBracketMatrix(P.ctx, tuple(tuple(r) for r in rows))


class CenterBasis:
    def __init__(self, ctx: VarTable, kernel: tuple[tuple[int, ...], ...]):
        self.ctx = ctx
        self.kernel = kernel

    @property
    def rank(self) -> int:
        return len(self.kernel)

    def monomial_strings(self) -> list[str]:
        out = []
        for vec in self.kernel:
            m = Monomial.make({i: e for i, e in enumerate(vec)})
            laurent = self.ctx
            for i, e in m.exps:
                if e < 0 and not laurent.is_laurent(i):
                    laurent = laurent.with_laurent(i)
            out.append(str(Polynomial.monomial(laurent, m)))
        return out

    def to_json_dict(self):
        return {
            "kernel_rank": self.rank,
            "kernel_basis": [list(v) for v in self.kernel],
            "center": "QQ" if self.rank == 0 else self.monomial_strings(),
        }


def poisson_center_torus(M: LogBracketMatrix) -> CenterBasis:
    """Basis of the Poisson center of the Laurent algebra on x_1..x_N.

    The center is spanned by the monomials x^m with M m = 0; the returned
    integer kernel basis is primitive and Hermite-normal-form canonical.
    The center is the base field exactly when the kernel is zero.
    """
    kernel = linalg.integer_kernel([list(row) for row in M.entries])
    return CenterBasis(M.ctx, tuple(tuple(v) for v in kernel))


class StratumReport:
    def __init__(
        self, node_generators: list[str], surviving: list[str], center: CenterBasis, dimension: int
    ):
        self.node_generators = node_generators
        self.surviving = surviving
        self.center = center
        self.dimension = dimension

    def to_json_dict(self):
        return {
            "node": self.node_generators,
            "surviving_vars": self.surviving,
            "stratum_dimension": self.dimension,
            "note": "stratum is homeomorphic to Spec of the Laurent center",
            **self.center.to_json_dict(),
        }


def stratum_summary(P, ideal: Ideal) -> StratumReport:
    """Center data of the stratum attached to one H-prime ideal.

    The presentation must be fully deleted (all brackets quadratic), so the
    ideal is generated by variables; the quotient is the smaller Poisson
    affine space on the surviving variables and its torus center is a
    Laurent polynomial ring whose rank is the stratum dimension.
    """
    gone = variable_support(ideal)
    if gone is None:
        raise PcglError("stratum node ideal is not variable-generated")
    surviving = [i for i in range(P.nvars) if i not in gone]
    big = extract_log_matrix(P)
    sub_ctx = VarTable(tuple(P.ctx.names[i] for i in surviving))
    sub = tuple(
        tuple(big.entries[i][j] for j in surviving) for i in surviving
    )
    M = LogBracketMatrix(sub_ctx, sub)
    center = poisson_center_torus(M)
    return StratumReport(
        node_generators=ideal.generator_strings(),
        surviving=[P.ctx.names[i] for i in surviving],
        center=center,
        dimension=center.rank,
    )
