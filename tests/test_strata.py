from fractions import Fraction
from math import gcd

import pytest

from pcgl.cauchon import delete_all, enumerate_hprimes
from pcgl.cgl import PoissonPresentation
from pcgl.errors import NotAPoissonAffineSpace, PcglError
from pcgl.grading import GradingData
from pcgl.pbracket import BracketTable, bracket
from pcgl.qpoly import Monomial, Polynomial, VarTable
from pcgl.strata import (
    LogBracketMatrix,
    extract_log_matrix,
    poisson_center_torus,
    stratum_summary,
)


def laurent_presentation(M: LogBracketMatrix):
    """Torus presentation with brackets lambda_ij x_i x_j on Laurent variables."""
    n = len(M.entries)
    ctx = VarTable(M.ctx.names, (True,) * n)
    entries = {}
    for i in range(n):
        for j in range(i):
            if M.entries[i][j]:
                entries[(i, j)] = Polynomial.monomial(
                    ctx, Monomial.make({i: 1, j: 1}), M.entries[i][j]
                )
    return ctx, BracketTable(ctx, entries)


class TestExtract:
    def test_pplane(self, pplane):
        M = extract_log_matrix(pplane)
        assert M.entries == ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))

    def test_abelian(self):
        ctx = VarTable(("x", "y"))
        P = PoissonPresentation(
            ctx=ctx, table=BracketTable(ctx, {}), grading=GradingData(0, ((), ()))
        )
        M = extract_log_matrix(P)
        assert all(x == 0 for row in M.entries for x in row)

    def test_weyl_rejected(self, weyl):
        with pytest.raises(NotAPoissonAffineSpace) as err:
            extract_log_matrix(weyl)
        assert "{x_2, x_1}" in str(err.value)

    def test_rejection_carries_only_its_message(self, weyl):
        with pytest.raises(NotAPoissonAffineSpace) as err:
            extract_log_matrix(weyl)
        assert vars(err.value) == {}

    def test_roundtrip(self, pplane):
        M = extract_log_matrix(pplane)
        ctx, table = laurent_presentation(M)
        P2 = PoissonPresentation(
            ctx=VarTable(M.ctx.names),
            table=table.re_context(VarTable(M.ctx.names)),
            grading=pplane.grading,
        )
        assert extract_log_matrix(P2).entries == M.entries


class TestCenter:
    def test_nonsingular_two_by_two(self):
        ctx = VarTable(("a", "X"))
        M = LogBracketMatrix(ctx, ((0, -1), (1, 0)))
        cb = poisson_center_torus(M)
        assert cb.rank == 0
        assert cb.to_json_dict()["center"] == "QQ"

    def test_abelian_full_kernel(self):
        ctx = VarTable(("x", "y", "z"))
        M = LogBracketMatrix(ctx, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
        cb = poisson_center_torus(M)
        assert cb.rank == 3

    def test_three_by_three(self):
        ctx = VarTable(("x1", "x2", "x3"))
        M = LogBracketMatrix(ctx, ((0, -1, 1), (1, 0, 0), (-1, 0, 0)))
        cb = poisson_center_torus(M)
        assert cb.kernel == ((0, 1, 1),)
        assert cb.monomial_strings() == ["x2*x3"]

    def test_center_monomials_commute(self, m2):
        deleted = delete_all(m2)
        M = extract_log_matrix(deleted)
        cb = poisson_center_torus(M)
        ctx, table = laurent_presentation(M)
        for vec in cb.kernel:
            mono = Polynomial.monomial(ctx, Monomial.make(dict(enumerate(vec))))
            for i in range(len(M.entries)):
                xi = Polynomial.variable(ctx, i)
                assert bracket(table, mono, xi).is_zero()

    def test_kernel_vectors_primitive(self, m2):
        deleted = delete_all(m2)
        cb = poisson_center_torus(extract_log_matrix(deleted))
        for vec in cb.kernel:
            g = 0
            for x in vec:
                g = gcd(g, x)
            assert g == 1

    def test_deterministic(self):
        ctx = VarTable(("x1", "x2", "x3"))
        M = LogBracketMatrix(ctx, ((0, -1, 1), (1, 0, 0), (-1, 0, 0)))
        assert poisson_center_torus(M).kernel == poisson_center_torus(M).kernel


class TestStratumSummary:
    def test_pplane_strata(self, pplane):
        tree = enumerate_hprimes(pplane)
        by_label = {n.label(): n for n in tree.leaves()}
        rep0 = stratum_summary(pplane, by_label["0"])
        assert rep0.dimension == 0 and rep0.surviving == ["a", "X"]
        rep_point = stratum_summary(pplane, by_label["<X, a>"])
        assert rep_point.dimension == 0 and rep_point.surviving == []
        rep_a = stratum_summary(pplane, by_label["<a>"])
        assert rep_a.dimension == 1 and rep_a.surviving == ["X"]
        rep_x = stratum_summary(pplane, by_label["<X>"])
        assert rep_x.dimension == 1 and rep_x.surviving == ["a"]

    def test_m2_deleted_strata(self, m2):
        deleted = delete_all(m2)
        tree = enumerate_hprimes(deleted)
        zero = next(n for n in tree.leaves() if n.ideal.is_zero())
        rep = stratum_summary(deleted, zero)
        # the deleted 2x2 matrix torus has a rank-2 center (two independent
        # commuting monomials)
        assert rep.dimension == 2

    def test_non_variable_node_rejected(self, m2):
        tree = enumerate_hprimes(m2)
        det = next(n for n in tree.leaves() if n.branch == "d-branch" and n.parent.ideal.is_zero())
        with pytest.raises(PcglError):
            stratum_summary(m2, det)

    def test_json(self, pplane):
        tree = enumerate_hprimes(pplane)
        zero = next(n for n in tree.leaves() if n.ideal.is_zero())
        d = stratum_summary(pplane, zero).to_json_dict()
        assert d["stratum_dimension"] == 0
        assert d["center"] == "QQ"
