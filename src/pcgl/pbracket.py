"""Poisson bracket engine.

A bracket table on generators extends uniquely to a biderivation on the
whole polynomial ring:

    {f, g} = sum_{i>j} {x_i, x_j} * (df/dx_i dg/dx_j - df/dx_j dg/dx_i)

Antisymmetry, bilinearity and the Leibniz rule in each slot are automatic;
the Jacobi identity is a property of the table and is checked separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .errors import ContextMismatch, PcglError, PreconditionError
from .qpoly import Derivation, Polynomial, VarTable, apply_derivation


class BracketTable:
    """Pairwise generator brackets {x_i, x_j} for i > j (0-based indices)."""

    def __init__(self, ctx: VarTable, entries: dict[tuple[int, int], Polynomial]):
        self.ctx = ctx
        self._entries = {}
        for (i, j), p in entries.items():
            if not i > j:
                raise PcglError(f"bracket table keys must have i > j, got ({i}, {j})")
            if p.ctx != ctx:
                raise ContextMismatch("bracket entry over wrong variable table")
            if not p.is_zero():
                self._entries[(i, j)] = p
        self._pairs = tuple(sorted(self._entries.items()))

    def entry(self, i: int, j: int) -> Polynomial:
        """{x_i, x_j} for any i, j, derived by antisymmetry where needed."""
        if i == j:
            return Polynomial.zero(self.ctx)
        if i > j:
            return self._entries.get((i, j), Polynomial.zero(self.ctx))
        return -self._entries.get((j, i), Polynomial.zero(self.ctx))

    def pairs(self):
        return self._pairs

    def re_context(self, ctx: VarTable) -> "BracketTable":
        from .qpoly import re_context

        return BracketTable(
            ctx, {k: re_context(p, ctx) for k, p in self._entries.items()}
        )

    def restrict(self, k: int) -> "BracketTable":
        from .qpoly import re_context

        sub = self.ctx.restrict(k)
        entries = {}
        for (i, j), p in self._entries.items():
            if i < k:
                entries[(i, j)] = re_context(p, sub)
        return BracketTable(sub, entries)


def bracket(B: BracketTable, f: Polynomial, g: Polynomial) -> Polynomial:
    """The biderivation extension of the generator table."""
    if f.ctx != B.ctx or g.ctx != B.ctx:
        raise ContextMismatch("bracket operands over wrong variable table")
    df: dict[int, Polynomial] = {}
    dg: dict[int, Polynomial] = {}

    def pf(i):
        if i not in df:
            df[i] = f.partial(i)
        return df[i]

    def pg(i):
        if i not in dg:
            dg[i] = g.partial(i)
        return dg[i]

    sf, sg = f.support(), g.support()
    result = Polynomial.zero(B.ctx)
    for (i, j), p in B.pairs():
        # the term vanishes unless one operand involves x_i and the other x_j
        if not (i in sf and j in sg or j in sf and i in sg):
            continue
        term = pf(i) * pg(j) - pf(j) * pg(i)
        if not term.is_zero():
            result = result + p * term
    return result


@dataclass
class JacobiReport:
    ok: bool
    failures: list[tuple[int, int, int, Polynomial]] = field(default_factory=list)

    def to_json_dict(self):
        return {
            "ok": self.ok,
            "failures": [
                {"triple": [i + 1, j + 1, k + 1], "residual": str(r)}
                for i, j, k, r in self.failures
            ],
        }


def jacobiator(B: BracketTable, i: int, j: int, k: int) -> Polynomial:
    xi = Polynomial.variable(B.ctx, i)
    xj = Polynomial.variable(B.ctx, j)
    xk = Polynomial.variable(B.ctx, k)
    return (
        bracket(B, xi, bracket(B, xj, xk))
        + bracket(B, xj, bracket(B, xk, xi))
        + bracket(B, xk, bracket(B, xi, xj))
    )


def check_jacobi(B: BracketTable, max_index: int | None = None) -> JacobiReport:
    """Evaluate the Jacobiator on all generator triples i > j > k.

    This suffices for the full Jacobi identity: the Jacobiator of a
    biderivation extension is itself a derivation in each argument, hence
    determined by its values on generator triples.  When ``max_index`` is
    given, only triples with largest index equal to it are checked.
    """
    n = len(B.ctx)
    failures = []
    tops = range(n) if max_index is None else [max_index]
    for i in tops:
        for j in range(i):
            for k in range(j):
                r = jacobiator(B, i, j, k)
                if not r.is_zero():
                    failures.append((i, j, k, r))
    return JacobiReport(ok=not failures, failures=failures)


@dataclass
class NormalityCertificate:
    ok: bool
    quotients: dict[int, Polynomial] = field(default_factory=dict)
    failures: dict[int, Polynomial] = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "ok": self.ok,
            "quotients": {str(i + 1): str(q) for i, q in sorted(self.quotients.items())},
            "failures": {str(i + 1): str(r) for i, r in sorted(self.failures.items())},
        }


def is_poisson_normal(B: BracketTable, c: Polynomial, modulo=None) -> NormalityCertificate:
    """Check {c, x_i} in (c) + modulo for every generator, with quotients.

    One cofactor-tracked Groebner basis of (c) + modulo serves every
    generator; without a modulus the lift is exact division by c.  Each
    success carries a quotient s_i with {c, x_i} = s_i * c modulo the
    ideal, checked in a quotient ring against the modulus's cached basis.
    """
    from .ideals import lift_through_ideal

    if c.ctx != B.ctx:
        raise ContextMismatch("element over wrong variable table")
    if c.is_zero():
        raise PreconditionError("Poisson-normality is only defined for nonzero elements")
    if modulo is not None:
        inside, _ = modulo.member(c)
        if inside:
            raise PreconditionError("element lies in the modulus ideal")
    mod_gens = list(modulo.generators) if modulo is not None else []
    brackets = [
        bracket(B, c, Polynomial.variable(B.ctx, i)) for i in range(len(B.ctx))
    ]
    lifts = lift_through_ideal([c] + mod_gens, brackets)
    quotients = {}
    failures = {}
    for i, (br, cofactors) in enumerate(zip(brackets, lifts)):
        if cofactors is None:
            failures[i] = br
            continue
        quotients[i] = cofactors[0]
        if mod_gens and not modulo.member(br - cofactors[0] * c)[0]:
            raise PcglError("certificate validation failed")
    return NormalityCertificate(ok=not failures, quotients=quotients, failures=failures)


def check_poisson_derivation(B: BracketTable, S: Derivation) -> bool:
    """True iff S({a,b}) = {S(a),b} + {a,S(b)} on all generator pairs."""
    n = len(B.ctx)
    for i in range(n):
        for j in range(i):
            xi = Polynomial.variable(B.ctx, i)
            xj = Polynomial.variable(B.ctx, j)
            lhs = apply_derivation(S, B.entry(i, j))
            rhs = bracket(B, S(xi), xj) + bracket(B, xi, S(xj))
            if lhs != rhs:
                return False
    return True


def check_delta_condition(B_A: BracketTable, S: Derivation, D: Derivation) -> bool:
    """Check the twisted Leibniz compatibility of (S, D) over A:

        D({a,b}) = {D(a),b} + {a,D(b)} + S(a)D(b) - D(a)S(b)

    on all generator pairs of A, which suffices since both sides are
    biderivations in (a, b).
    """
    n = len(B_A.ctx)
    for i in range(n):
        for j in range(i):
            a = Polynomial.variable(B_A.ctx, i)
            b = Polynomial.variable(B_A.ctx, j)
            lhs = apply_derivation(D, B_A.entry(i, j))
            rhs = (
                bracket(B_A, D(a), b)
                + bracket(B_A, a, D(b))
                + S(a) * D(b)
                - D(a) * S(b)
            )
            if lhs != rhs:
                return False
    return True
