"""Poisson bracket engine.

A bracket table on generators extends uniquely to a biderivation on the
whole polynomial ring.  On one term a*m of f and one generator x_j,

    {a*m, x_j} = a * sum_{i in m} e_i * (m / x_i) * {x_i, x_j},

where e_i is the exponent of x_i in m (negative on Laurent variables).
That is the chain rule of `qpoly._chain_rule`, the one kernel that also
applies every `Derivation`: `generator_brackets(B, f)` gives every
{f, x_0}, ..., {f, x_(n-1)} from a single sweep over the terms of f,
against the table rows that `BracketTable` builds once ({x_i, x_j} for
every j, with the mirrored sign).  `bracket(B, f, g)` hands those n
brackets to the same kernel as a one-row table and sweeps the terms of g:
{f, g} = sum_j {f, x_j} * dg/dx_j.  When f is a generator x_i (one term,
coefficient 1, exponent pairs ((i, 1),)), those n brackets are row i of
the table, read with no sweep.

Callers that need many brackets of one element use `generator_brackets`:
Poisson-normality of c and the d-element check ({b, x_j} and {c, x_j} of
a candidate b/c), and the Poisson-stability check of an ideal, which cuts
the table to the columns it tests.  Callers that need one particular
bracket use `bracket`: the Jacobi check (the outer bracket
{x_i, {x_j, x_k}}; the inner one is a table entry), whose Jacobiators
also give each tower level's delta check, the theta check, and the
Poisson closure of an ideal.

Antisymmetry, bilinearity and the Leibniz rule in each slot are automatic;
the Jacobi identity is a property of the table and is checked separately.
"""

from __future__ import annotations

from .errors import ContextMismatch, PcglError, PreconditionError
from .qpoly import Polynomial, VarTable, _chain_rule, _variable_index, re_context


class BracketTable:
    """Pairwise generator brackets {x_i, x_j} for i > j (0-based indices);
    compared and hashed by (ctx, the nonzero entries)."""

    def __init__(self, ctx: VarTable, entries: dict[tuple[int, int], Polynomial]):
        self.ctx = ctx
        self._entries = {}
        for (i, j), p in entries.items():
            if not i > j:
                raise PcglError(f"bracket table keys must have i > j, got ({i}, {j})")
            if p.ctx is not ctx and p.ctx != ctx:
                raise ContextMismatch("bracket entry over wrong variable table")
            if not p.is_zero():
                self._entries[(i, j)] = p
        self._pairs = tuple(sorted(self._entries.items()))
        # row i: (j, terms of {x_i, x_j}) for every nonzero entry, both signs
        rows = [[] for _ in range(len(ctx))]
        for (i, j), p in self._pairs:
            rows[i].append((j, tuple(p.terms.items())))
            rows[j].append((i, tuple((m, -c) for m, c in p.terms.items())))
        self._rows = tuple(tuple(r) for r in rows)
        # a tuple of columns -> the rows cut to them, renumbered in its order
        self._columns = {tuple(range(len(ctx))): self._rows}

    def entry(self, i: int, j: int) -> Polynomial:
        """{x_i, x_j} for any i, j, derived by antisymmetry where needed."""
        if i == j:
            return Polynomial.zero(self.ctx)
        if i > j:
            return self._entries.get((i, j), Polynomial.zero(self.ctx))
        return -self._entries.get((j, i), Polynomial.zero(self.ctx))

    def __eq__(self, other):
        if other.__class__ is not BracketTable:
            return NotImplemented
        return self.ctx == other.ctx and self._pairs == other._pairs

    def __hash__(self):
        return hash((self.ctx, self._pairs))

    def pairs(self):
        return self._pairs

    def __reduce__(self):
        # the rows and their column cuts are derived from the entries
        return (BracketTable, (self.ctx, self._entries))

    def re_context(self, ctx: VarTable) -> "BracketTable":
        return BracketTable(
            ctx, {k: re_context(p, ctx) for k, p in self._entries.items()}
        )

    def restrict(self, k: int) -> "BracketTable":
        sub = self.ctx.restrict(k)
        entries = {}
        for (i, j), p in self._entries.items():
            if i < k:
                entries[(i, j)] = re_context(p, sub)
        return BracketTable(sub, entries)


def generator_brackets(B: BracketTable, f: Polynomial, columns=None) -> list[Polynomial]:
    """[{f, x_j} for j in columns], every j by default, from one sweep over
    the terms of f against the table rows cut to those columns (per tuple)."""
    if f.ctx is not B.ctx and f.ctx != B.ctx:
        raise ContextMismatch("bracket operand over wrong variable table")
    if columns is None:
        return _chain_rule(B._rows, f, len(B._rows))
    rows = B._columns.get(columns)
    if rows is None:
        place = {j: p for p, j in enumerate(columns)}
        rows = B._columns[columns] = tuple(
            tuple((place[j], terms) for j, terms in row if j in place) for row in B._rows
        )
    return _chain_rule(rows, f, len(columns))


def bracket(B: BracketTable, f: Polynomial, g: Polynomial) -> Polynomial:
    """The biderivation extension of the generator table:
    {f, g} = sum_j {f, x_j} * dg/dx_j, over the terms of g.  For a
    generator f = x_i the brackets {x_i, x_j} are row i of the table."""
    if g.ctx is not B.ctx and g.ctx != B.ctx:
        raise ContextMismatch("bracket operands over wrong variable table")
    i = _variable_index(f)
    if i is not None and (f.ctx is B.ctx or f.ctx == B.ctx):
        rows = [()] * len(B._rows)
        for j, terms in B._rows[i]:
            rows[j] = ((0, terms),)
        return _chain_rule(rows, g, 1)[0]
    rows = [((0, tuple(h.terms.items())),) if h else () for h in generator_brackets(B, f)]
    return _chain_rule(rows, g, 1)[0]


class JacobiReport:
    def __init__(self, failures: list[tuple[int, int, int, Polynomial]] | None = None):
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures


def jacobiator(B: BracketTable, i: int, j: int, k: int) -> Polynomial:
    xi = Polynomial.variable(B.ctx, i)
    xj = Polynomial.variable(B.ctx, j)
    xk = Polynomial.variable(B.ctx, k)
    return (
        bracket(B, xi, B.entry(j, k))
        + bracket(B, xj, B.entry(k, i))
        + bracket(B, xk, B.entry(i, j))
    )


def check_jacobi(B: BracketTable) -> JacobiReport:
    """Evaluate the Jacobiator on all generator triples i > j > k.

    This suffices for the full Jacobi identity: the Jacobiator of a
    biderivation extension is itself a derivation in each argument, hence
    determined by its values on generator triples.  The failures are
    (i, j, k, Jacobiator), in increasing order of i, then j, then k.
    """
    failures = []
    for i in range(len(B.ctx)):
        for j in range(i):
            for k in range(j):
                r = jacobiator(B, i, j, k)
                if not r.is_zero():
                    failures.append((i, j, k, r))
    return JacobiReport(failures=failures)


class NormalityCertificate:
    """Compared by value, as the separation memos that hold certificates
    are compared."""

    def __init__(
        self,
        quotients: dict[int, Polynomial] | None = None,
        failures: dict[int, Polynomial] | None = None,
    ):
        self.quotients = {} if quotients is None else quotients
        self.failures = {} if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def __eq__(self, other):
        if other.__class__ is not NormalityCertificate:
            return NotImplemented
        return self.quotients == other.quotients and self.failures == other.failures


def is_poisson_normal(B: BracketTable, c: Polynomial, modulo=None) -> NormalityCertificate:
    """Check {c, x_i} in (c) + modulo for every generator, with quotients.

    One cofactor-tracked Groebner basis of (c) + modulo serves every
    generator: the lift starts from the modulus's cached reduced basis and
    tracks the cofactor of c alone; without a modulus it is exact division
    by c.  Each success carries a quotient s_i with {c, x_i} = s_i * c
    modulo the ideal, checked in a quotient ring against the modulus's
    cached basis.
    """
    from .ideals import lift_through_ideal

    if c.ctx is not B.ctx and c.ctx != B.ctx:
        raise ContextMismatch("element over wrong variable table")
    if c.is_zero():
        raise PreconditionError("Poisson-normality is only defined for nonzero elements")
    if modulo is not None:
        inside, _ = modulo.member(c)
        if inside:
            raise PreconditionError("element lies in the modulus ideal")
    brackets = generator_brackets(B, c)
    lifts = lift_through_ideal(c, brackets, modulo=modulo)
    quotients = {}
    failures = {}
    for i, (br, q) in enumerate(zip(brackets, lifts)):
        if q is None:
            failures[i] = br
            continue
        quotients[i] = q
        if modulo is not None and not modulo.member(br - q * c)[0]:
            raise PcglError("certificate validation failed")
    return NormalityCertificate(quotients=quotients, failures=failures)

