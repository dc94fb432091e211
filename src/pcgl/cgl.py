"""Iterated Poisson-Ore tower presentations and their axioms.

A presentation lists generators x_1..x_N, a pairwise bracket table, a
torus grading and an optional Lie vector per level.  Triangularity
({x_k, x_j} lies in R_{k-1} + R_{k-1} x_k for j < k) is validated at
construction; the nilpotency, grading and realizability axioms are checked
by `verify_cgl` and reported rather than raised.

Each level's Ore data (sigma_k and delta_k read off row k of the table
in one walk, h_k, lambda_k, the restricted rings and theta's Laurent
variable table, but no bracket table over it) is derived once per
presentation object into one `LevelData` record, with the problems that
keep h_k from realizing sigma_k: `verify_cgl` reports them as notes and
`level_data` raises the first.  The restricted presentations are kept per
k, so level k's R_{k-1} is level k-1's R_k.  `require_cgl` keeps the
verdict of `verify_cgl`.  All of these are memos of the presentation
(`qpoly._memo`), as are those of the separation search.

`_delta_iterates` is the one place that applies delta_k repeatedly, up to
the presentation's nilpotency bound: `verify_cgl` reads nilpotency indices
from it, and the Cauchon map, normal elements and the d-search the iterates.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    NonDiagonalSigma,
    NotWithinBound,
    PcglError,
    PreconditionError,
    TriangularityError,
)
from .grading import (
    GradingData,
    LieVector,
    graded_bracket_failures,
    pair,
    solve_h,
)
from .ideals import Ideal
from .pbracket import BracketTable, check_jacobi
from .qpoly import Derivation, Monomial, Polynomial, VarTable, _memo, _Value, re_context

DEFAULT_NILPOTENCY_BOUND = 25


class PoissonPresentation(_Value):
    """Generators, bracket table, grading and optional per-level Lie vectors;
    immutable, compared and hashed by (ctx, table, grading, h,
    nilpotency_bound)."""

    def __init__(
        self,
        ctx: VarTable,
        table: BracketTable,
        grading: GradingData,
        h: tuple[LieVector, ...] | None = None,
        nilpotency_bound: int = DEFAULT_NILPOTENCY_BOUND,
    ):
        n = len(ctx)
        if table.ctx != ctx:
            raise PcglError("bracket table over wrong variable table")
        if len(grading.weights) != n:
            raise PcglError("grading column count does not match generator count")
        if nilpotency_bound < 1:
            raise PcglError("nilpotency bound must be >= 1")
        if h is not None:
            h = tuple(tuple(Fraction(x) for x in v) for v in h)
            if len(h) != n:
                raise PcglError("expected one Lie vector per generator")
            for v in h:
                if len(v) != grading.rank:
                    raise PcglError("Lie vector length does not match grading rank")
        for (i, j), p in table.pairs():
            if any(v > i for v in p.support()):
                raise TriangularityError(
                    f"bracket {{x_{i+1}, x_{j+1}}} involves a generator beyond x_{i+1}"
                )
            powers = {m.exponent(i) for m in p.terms}
            if not powers <= {0, 1}:
                shape = "degree >= 2 in" if max(powers) > 1 else "a negative power of"
                raise TriangularityError(f"bracket {{x_{i+1}, x_{j+1}}} has {shape} x_{i+1}")
        vars(self).update(
            ctx=ctx,
            table=table,
            grading=grading,
            h=h,
            nilpotency_bound=nilpotency_bound,
            # memos keyed by kind: each level's record (`LevelData`), the
            # verdict of `verify_cgl`, and every memo of the separation search
            _cache={},
            # the presentations derived by `restrict`, one per k
            _restricted={},
        )

    def _fields(self):
        return (self.ctx, self.table, self.grading, self.h, self.nilpotency_bound)

    @property
    def nvars(self) -> int:
        return len(self.ctx)

    def restrict(self, k: int) -> "PoissonPresentation":
        """The truncated presentation on x_1..x_k; the same object on every
        call, this presentation itself when k is N."""
        if not 0 <= k <= self.nvars:
            raise PcglError(f"level {k} out of range")
        if k == self.nvars:
            return self
        return _memo(
            self._restricted,
            k,
            lambda: PoissonPresentation(
                ctx=self.ctx.restrict(k),
                table=self.table.restrict(k),
                grading=self.grading.restrict(k),
                h=self.h[:k] if self.h is not None else None,
                nilpotency_bound=self.nilpotency_bound,
            ),
        )


def _level_maps(P: PoissonPresentation, k: int):
    """sigma_k and delta_k as derivations of A = R_{k-1}, and the eigenvalues
    mu_j, from one walk over row k (1-based) of the table: each {x_k, x_j}
    splits by its degree in x_k, 0 or 1 by triangularity, as
    sigma(x_j) x_k + delta(x_j), and mu_j is the coefficient of x_j in
    sigma(x_j).  Raises NonDiagonalSigma when sigma(x_j) has another term."""
    if not 1 <= k <= P.nvars:
        raise PcglError(f"level {k} out of range")
    i = k - 1
    sub = P.ctx.restrict(i)
    zero = Polynomial.zero(sub)
    sigma_images, delta_images, mus = {}, {}, []
    for j in range(i):
        parts = P.table.entry(i, j).split_by_degree_in(i)
        img = sigma_images[j] = re_context(parts.get(1, zero), sub)
        delta_images[j] = re_context(parts.get(0, zero), sub)
        mu = img.terms.get(Monomial(((j, 1),)), 0)
        if len(img.terms) != (mu != 0):
            raise NonDiagonalSigma(
                f"sigma(x_{j+1}) = {img} is not a scalar multiple of x_{j+1}"
            )
        mus.append(Fraction(mu))
    return Derivation(sub, sigma_images), Derivation(sub, delta_images), mus


def _lie_vector(P: PoissonPresentation, k: int, mus):
    """(h_k, lambda_k, problems): the supplied h_k, or the one `solve_h`
    finds, its eigenvalue on x_k, and the notes on why it fails to realize
    sigma_k (<h_k, deg x_j> = mu_j for j < k) with lambda_k != 0."""
    if P.h is None:
        h_k = solve_h(P.grading, k, mus)
        if h_k is None:
            return None, None, [f"no h_{k} with the required eigenvalues exists"]
        name = f"h_{k}"
    else:
        h_k, name = P.h[k - 1], f"supplied h_{k}"
    problems = []
    if any(pair(h_k, P.grading.weights[j]) != mus[j] for j in range(k - 1)):
        problems.append(f"{name} does not realize sigma_{k}")
    lam = pair(h_k, P.grading.weights[k - 1])
    if lam == 0:
        problems.append(f"{name} has zero eigenvalue on x_{k}")
    return h_k, lam, problems


class LevelData(_Value):
    """The Ore data of one tower level: R_k = A[x_k; sigma, delta]_p, the
    variable table of R_k with x_k Laurent (theta's target), and the
    problems that keep h_k from realizing sigma_k (empty on a good level).

    Shared by `verify_cgl` and every caller of `level_data` on the same
    presentation.  Immutable, compared and hashed by its nine fields, so a
    pickled copy equals its original."""

    def __init__(
        self,
        k: int,
        pres_R: PoissonPresentation,
        pres_A: PoissonPresentation,
        sigma: Derivation,
        delta: Derivation,
        h_k: LieVector | None,
        lambda_k: Fraction | None,
        hat_ctx: VarTable,
        problems: tuple[str, ...],
    ):
        vars(self).update(
            k=k,
            pres_R=pres_R,
            pres_A=pres_A,
            sigma=sigma,
            delta=delta,
            h_k=h_k,
            lambda_k=lambda_k,
            hat_ctx=hat_ctx,
            problems=problems,
        )

    @property
    def x_index(self) -> int:
        return self.k - 1

    def x(self) -> Polynomial:
        return Polynomial.variable(self.pres_R.ctx, self.x_index)


def _level_record(P: PoissonPresentation, k: int) -> LevelData:
    """The level-k record, built once per presentation object; a
    NonDiagonalSigma is raised, not stored, on every call."""
    return _memo(P._cache, ("level", k), _new_level_record, P, k)


def _new_level_record(P: PoissonPresentation, k: int) -> LevelData:
    sigma, delta, mus = _level_maps(P, k)
    h_k, lam, problems = _lie_vector(P, k, mus)
    pres_R = P.restrict(k)
    return LevelData(
        k=k,
        pres_R=pres_R,
        pres_A=P.restrict(k - 1),
        sigma=sigma,
        delta=delta,
        h_k=h_k,
        lambda_k=lam,
        hat_ctx=pres_R.ctx.with_laurent(k - 1),
        problems=tuple(problems),
    )


def level_data(P: PoissonPresentation, k: int) -> LevelData:
    """The level-k Ore data, solving for h_k when not supplied; raises the
    first problem of the level on every call."""
    L = _level_record(P, k)
    if L.problems:
        raise PcglError(L.problems[0])
    return L


def _delta_iterates(L: LevelData, a: Polynomial, modulo: Ideal | None = None):
    """[a, delta(a), ..., delta^s(a)] up to the last nonzero iterate, each
    reduced modulo the given ideal at every step; empty when a is zero
    there.  Raises NotWithinBound, with the iterates up to delta^bound(a),
    when they do not vanish within the nilpotency bound."""
    iterates = []
    p = a if modulo is None else modulo.normal_form(a)
    while not p.is_zero():
        if len(iterates) == L.pres_R.nilpotency_bound:
            raise NotWithinBound(
                f"delta_{L.k} iterates did not terminate within bound "
                f"{L.pres_R.nilpotency_bound}",
                [*iterates, p],
            )
        iterates.append(p)
        p = L.delta(p) if modulo is None else modulo.normal_form(L.delta(p))
    return iterates


class LevelReport:
    def __init__(
        self,
        level: int,
        sigma_diagonal_ok: bool = True,
        nilpotency: dict[int, int | None] | None = None,
        likely_not_nilpotent: list[int] | None = None,
        h: LieVector | None = None,
        lambda_k: Fraction | None = None,
        h_ok: bool = True,
        jacobi_ok: bool = True,
        graded_ok: bool = True,
        delta_condition_ok: bool = True,
        notes: list[str] | None = None,
    ):
        self.level = level
        self.sigma_diagonal_ok = sigma_diagonal_ok
        self.nilpotency = {} if nilpotency is None else nilpotency
        self.likely_not_nilpotent = [] if likely_not_nilpotent is None else likely_not_nilpotent
        self.h = h
        self.lambda_k = lambda_k
        self.h_ok = h_ok
        self.jacobi_ok = jacobi_ok
        self.graded_ok = graded_ok
        self.delta_condition_ok = delta_condition_ok
        self.notes = [] if notes is None else notes

    @property
    def nilpotency_ok(self) -> bool:
        # an index is None where the delta iterates outlast the bound
        return None not in self.nilpotency.values()

    @property
    def ok(self) -> bool:
        return (
            self.sigma_diagonal_ok
            and self.nilpotency_ok
            and self.h_ok
            and self.jacobi_ok
            and self.graded_ok
            and self.delta_condition_ok
        )

    def to_json_dict(self):
        return {
            "level": self.level,
            "ok": self.ok,
            "eigenvector": True,
            "sigma_diagonal": self.sigma_diagonal_ok,
            "delta_nilpotent": self.nilpotency_ok,
            "nilpotency_indices": {
                str(j + 1): idx for j, idx in sorted(self.nilpotency.items())
            },
            "likely_not_nilpotent": [j + 1 for j in self.likely_not_nilpotent],
            "h_exists": self.h_ok,
            "h": [str(x) for x in self.h] if self.h is not None else None,
            "lambda": str(self.lambda_k) if self.lambda_k is not None else None,
            "jacobi": self.jacobi_ok,
            "graded_bracket": self.graded_ok,
            "delta_condition": self.delta_condition_ok,
            "notes": self.notes,
        }


class CGLReport:
    def __init__(self, levels: list[LevelReport]):
        self.levels = levels

    @property
    def ok(self) -> bool:
        return all(l.ok for l in self.levels)

    def to_json_dict(self):
        return {"ok": self.ok, "levels": [l.to_json_dict() for l in self.levels]}


def _degree_growth(powers) -> bool:
    """Three consecutive strict total-degree increases across the iterates."""
    degs = [p.total_degree() for p in powers]
    run = 0
    for a, b in zip(degs, degs[1:]):
        run = run + 1 if b > a else 0
        if run >= 3:
            return True
    return False


def verify_cgl(P: PoissonPresentation) -> CGLReport:
    """Check the tower axioms level by level and report witnesses.

    Per level k: generators are homogeneous by encoding (reported); delta_k
    is locally nilpotent on each earlier generator within the presentation
    bound; some h_k realizes sigma_k with a nonzero eigenvalue on x_k.  The
    Jacobi identity and the graded-bracket condition are re-validated per
    level, on the triples and pairs whose top generator is x_k.

    The twisted Leibniz compatibility of (sigma_k, delta_k) on A = R_(k-1),
    half of Oh's criterion for A[x_k; sigma_k, delta_k]_p to be Poisson, is
    read off the same Jacobiators.  On a triple x_k > x_j > x_l the
    Jacobiator lies in A + A x_k, and its x_k-free part is exactly the
    defect of delta({a,b}) = {delta(a),b} + {a,delta(b)} + sigma(a)delta(b)
    - delta(a)sigma(b) on (a, b) = (x_j, x_l).  Like the nilpotency and h
    checks, the flag is set only where sigma_k is diagonal.
    """
    reports = []
    graded_bad = set(graded_bracket_failures(P.grading, P.table))
    jacobi = check_jacobi(P.table).failures
    jacobi_bad = {i for i, _, _, _ in jacobi}
    delta_bad = {i for i, _, _, r in jacobi if 0 in r.split_by_degree_in(i)}
    for k in range(1, P.nvars + 1):
        rep = LevelReport(level=k)
        reports.append(rep)
        i = k - 1
        rep.jacobi_ok = i not in jacobi_bad
        rep.graded_ok = not any(p[0] == i for p in graded_bad)
        try:
            L = _level_record(P, k)
        except NonDiagonalSigma as exc:
            rep.notes.append(str(exc))
            rep.sigma_diagonal_ok = False
            rep.h_ok = False  # no h_k realizes a non-diagonal sigma_k
            continue
        rep.h, rep.lambda_k = L.h_k, L.lambda_k
        for j in range(i):
            xj = Polynomial.variable(L.delta.ctx, j)
            try:
                rep.nilpotency[j] = len(_delta_iterates(L, xj))
            except NotWithinBound as exc:
                rep.nilpotency[j] = None
                if _degree_growth(exc.iterates):
                    rep.likely_not_nilpotent.append(j)
                    rep.notes.append(
                        f"delta_{k} iterates on x_{j+1} grow in degree; "
                        "likely not nilpotent"
                    )
        rep.h_ok = not L.problems
        rep.notes.extend(L.problems)
        rep.delta_condition_ok = i not in delta_bad
    return CGLReport(levels=reports)


def require_cgl(P: PoissonPresentation) -> None:
    """Raise PreconditionError unless P passes `verify_cgl`, which runs once
    per presentation object: its verdict is a memo of P, of kind "cgl"."""
    if not _memo(P._cache, ("cgl",), lambda: verify_cgl(P).ok):
        raise PreconditionError("presentation fails the tower axioms")
