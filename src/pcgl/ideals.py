"""Groebner bases over the rationals and the ideal operations built on them.

Buchberger's algorithm with the sugar selection strategy; polynomials are
normalized to content-free integer coefficients internally for predictable
arithmetic.  A reduction-step budget guards against runaway computations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContextMismatch, PcglError, StepBudgetExceeded, UnitIdeal
from .qpoly import MONO_ONE, Monomial, Polynomial, VarTable, grevlex_key, re_context

DEFAULT_STEP_BUDGET = 10 ** 6


def set_default_step_budget(n: int):
    global DEFAULT_STEP_BUDGET
    DEFAULT_STEP_BUDGET = int(n)


# ---------------------------------------------------------------------------
# Monomial orders
# ---------------------------------------------------------------------------


class Grevlex:
    """Graded reverse lexicographic order on the declared variable order."""

    def __init__(self, ctx: VarTable):
        self.ctx = ctx
        self.nvars = len(ctx)
        self.tag = "grevlex"

    def key(self, m: Monomial):
        return grevlex_key(m, self.nvars)


class Lex:
    """Lexicographic order; earlier variables are greater."""

    def __init__(self, ctx: VarTable):
        self.ctx = ctx
        self.nvars = len(ctx)
        self.tag = "lex"

    def key(self, m: Monomial):
        e = [0] * self.nvars
        for i, x in m.exps:
            e[i] = x
        return tuple(e)


class Elim:
    """Block order eliminating a front set of variables (grevlex per block)."""

    def __init__(self, ctx: VarTable, front):
        self.ctx = ctx
        self.front = frozenset(front)
        self.back = tuple(i for i in range(len(ctx)) if i not in self.front)
        self.front_order = tuple(sorted(self.front))
        self.tag = ("elim", tuple(sorted(self.front)))

    def _block_key(self, m: Monomial, block: tuple[int, ...]):
        e = [m.exponent(i) for i in block]
        return (sum(e), tuple(-x for x in reversed(e)))

    def key(self, m: Monomial):
        return (self._block_key(m, self.front_order), self._block_key(m, self.back))


def leading_monomial(f: Polynomial, order) -> Monomial:
    return max(f.terms, key=order.key)


def leading_coefficient(f: Polynomial, order) -> Fraction:
    return f.terms[leading_monomial(f, order)]


def _times_term(f: Polynomial, m: Monomial, c: Fraction) -> Polynomial:
    return Polynomial(f.ctx, {mm * m: cc * c for mm, cc in f.terms.items()})


def make_primitive(f: Polynomial, order) -> Polynomial:
    """Scale to integer coefficients with content 1 and positive leading one."""
    if f.is_zero():
        return f
    denom_lcm = 1
    for c in f.terms.values():
        d = c.denominator
        g = _gcd(denom_lcm, d)
        denom_lcm = denom_lcm // g * d
    nums = [int(c * denom_lcm) for c in f.terms.values()]
    content = 0
    for x in nums:
        content = _gcd(content, abs(x))
    scale = Fraction(denom_lcm, content)
    if f.terms[leading_monomial(f, order)] < 0:
        scale = -scale
    return f * scale


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.steps = 0

    def tick(self, basis=()):
        self.steps += 1
        if self.steps > self.limit:
            raise StepBudgetExceeded(
                f"Groebner step budget of {self.limit} exceeded", basis
            )


def reduce_poly(f: Polynomial, basis, order, budget: _Budget | None = None):
    """Multivariate division: f = sum quotients[i]*basis[i] + remainder."""
    quotients = [Polynomial.zero(f.ctx) for _ in basis]
    remainder = Polynomial.zero(f.ctx)
    p = f
    lms = [leading_monomial(g, order) for g in basis]
    lcs = [g.terms[m] for g, m in zip(basis, lms)]
    while not p.is_zero():
        if budget is not None:
            budget.tick(basis)
        lm = leading_monomial(p, order)
        lc = p.terms[lm]
        for idx, g in enumerate(basis):
            if lms[idx].divides(lm):
                t_mono = lm.divide(lms[idx])
                t_coeff = lc / lcs[idx]
                quotients[idx] = quotients[idx] + Polynomial(
                    f.ctx, {t_mono: t_coeff}
                )
                p = p - _times_term(g, t_mono, t_coeff)
                break
        else:
            remainder = remainder + Polynomial(f.ctx, {lm: lc})
            p = p - Polynomial(f.ctx, {lm: lc})
    return quotients, remainder


def s_polynomial(f: Polynomial, g: Polynomial, order) -> Polynomial:
    lmf = leading_monomial(f, order)
    lmg = leading_monomial(g, order)
    l = lmf.lcm(lmg)
    return _times_term(f, l.divide(lmf), 1 / f.terms[lmf]) - _times_term(
        g, l.divide(lmg), 1 / g.terms[lmg]
    )


def buchberger(generators, order, step_budget=None):
    """Groebner basis by Buchberger's algorithm with the sugar strategy."""
    budget = _Budget(step_budget if step_budget is not None else DEFAULT_STEP_BUDGET)
    basis = []
    sugars = []
    for g in generators:
        if not g.is_zero():
            basis.append(make_primitive(g, order))
            sugars.append(g.total_degree())
    pairs = {}
    for i in range(len(basis)):
        for j in range(i):
            _add_pair(pairs, basis, sugars, i, j, order)
    while pairs:
        (i, j) = min(pairs, key=lambda ij: (pairs[ij][0], order.key(pairs[ij][1])))
        sugar, lcm_m = pairs.pop((i, j))
        lmi = leading_monomial(basis[i], order)
        lmj = leading_monomial(basis[j], order)
        if lmi.is_coprime(lmj):
            continue
        s = s_polynomial(basis[i], basis[j], order)
        _, rem = reduce_poly(s, basis, order, budget)
        if not rem.is_zero():
            basis.append(make_primitive(rem, order))
            sugars.append(sugar)
            new = len(basis) - 1
            for k in range(new):
                _add_pair(pairs, basis, sugars, new, k, order)
    return reduce_basis(basis, order)


def _add_pair(pairs, basis, sugars, i, j, order):
    lmi = leading_monomial(basis[i], order)
    lmj = leading_monomial(basis[j], order)
    l = lmi.lcm(lmj)
    sugar = max(
        sugars[i] + l.degree() - lmi.degree(), sugars[j] + l.degree() - lmj.degree()
    )
    pairs[(i, j)] = (sugar, l)


def reduce_basis(basis, order):
    """Minimal, tail-reduced, monic basis (the unique reduced GB)."""
    basis = sorted(
        (g for g in basis if not g.is_zero()),
        key=lambda g: order.key(leading_monomial(g, order)),
    )
    # minimalize: a leading monomial divisible by an earlier one is redundant
    kept = []
    kept_lms = []
    for g in basis:
        lm = leading_monomial(g, order)
        if not any(k.divides(lm) for k in kept_lms):
            kept.append(g)
            kept_lms.append(lm)
    # tail-reduce each element by the others and normalize to monic
    reduced = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        if others:
            _, g = reduce_poly(g, others, order)
        if not g.is_zero():
            reduced.append(g * (1 / leading_coefficient(g, order)))
    reduced.sort(key=lambda g: order.key(leading_monomial(g, order)))
    return tuple(reduced)


# ---------------------------------------------------------------------------
# Cofactor-tracked membership (for quotient certificates)
# ---------------------------------------------------------------------------


def lift_through_ideal(generators, targets):
    """For each target f, cofactors q with f = sum q[i]*generators[i], or
    None if f is outside the ideal.

    One representation-tracked Buchberger run on the generators serves all
    the targets; the cofactors are exact divisibility certificates.
    """
    gens = list(generators)
    items = []  # (poly, representation in terms of gens)
    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        rep = [Polynomial.zero(g.ctx) for _ in gens]
        rep[i] = Polynomial.constant(g.ctx, 1)
        items.append((g, rep))
    if not items:
        return [[f] * len(gens) if f.is_zero() else None for f in targets]
    ctx = items[0][0].ctx
    order = Grevlex(ctx)

    def tracked_reduce(p, rep):
        # maintains (p + remainder - sum rep[i]*gens[i]) constant
        rep = list(rep)
        remainder = Polynomial.zero(ctx)
        while not p.is_zero():
            lm = leading_monomial(p, order)
            lc = p.terms[lm]
            for g, grep in items:
                lmg = leading_monomial(g, order)
                if lmg.divides(lm):
                    t_m = lm.divide(lmg)
                    t_c = lc / g.terms[lmg]
                    p = p - _times_term(g, t_m, t_c)
                    rep = [
                        r - _times_term(gr, t_m, t_c) if not gr.is_zero() else r
                        for r, gr in zip(rep, grep)
                    ]
                    break
            else:
                head = Polynomial(ctx, {lm: lc})
                remainder = remainder + head
                p = p - head
        return remainder, rep

    pair_queue = [(i, j) for i in range(len(items)) for j in range(i)]
    while pair_queue:
        i, j = pair_queue.pop(0)
        gi, ri = items[i]
        gj, rj = items[j]
        lmi = leading_monomial(gi, order)
        lmj = leading_monomial(gj, order)
        if lmi.is_coprime(lmj):
            continue
        l = lmi.lcm(lmj)
        ti, ci = l.divide(lmi), 1 / gi.terms[lmi]
        tj, cj = l.divide(lmj), 1 / gj.terms[lmj]
        s = _times_term(gi, ti, ci) - _times_term(gj, tj, cj)
        srep = [
            _times_term(a, ti, ci) - _times_term(b, tj, cj) for a, b in zip(ri, rj)
        ]
        # started from rep0 = srep, the remainder's rep is the end value
        rem, rrep = tracked_reduce(s, srep)
        if not rem.is_zero():
            items.append((rem, rrep))
            new = len(items) - 1
            pair_queue.extend((new, k) for k in range(new))
    zero_rep = [Polynomial.zero(ctx) for _ in gens]
    lifts = []
    for f in targets:
        rem, rep = tracked_reduce(f, zero_rep)
        lifts.append([-r for r in rep] if rem.is_zero() else None)
    return lifts


# ---------------------------------------------------------------------------
# Ideal
# ---------------------------------------------------------------------------


class Ideal:
    """Finitely generated ideal with cached reduced Groebner bases."""

    def __init__(self, ctx: VarTable, generators):
        self.ctx = ctx
        gens = []
        for g in generators:
            if g.ctx != ctx:
                raise ContextMismatch("generator over wrong variable table")
            if g.has_negative_exponent():
                raise PcglError("ideal generators must be exponent-nonnegative")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._gb: dict = {}

    @classmethod
    def zero(cls, ctx: VarTable) -> "Ideal":
        return cls(ctx, [])

    def groebner(self, order=None, step_budget=None):
        if order is None:
            order = Grevlex(self.ctx)
        if order.tag not in self._gb:
            self._gb[order.tag] = buchberger(self.generators, order, step_budget)
        return self._gb[order.tag]

    def normal_form(self, f: Polynomial, order=None) -> Polynomial:
        if order is None:
            order = Grevlex(self.ctx)
        gb = self.groebner(order)
        if not gb:
            return f
        _, rem = reduce_poly(f, gb, order)
        return rem

    def member(self, f: Polynomial):
        nf = self.normal_form(f)
        return nf.is_zero(), nf

    def is_zero(self) -> bool:
        return not self.groebner()

    def is_proper(self) -> bool:
        gb = self.groebner()
        return not any(g.is_constant() and not g.is_zero() for g in gb)

    def generator_strings(self) -> list[str]:
        return [str(g) for g in self.groebner()]

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inner})"


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    if I.ctx != J.ctx:
        raise ContextMismatch("ideals over different variable tables")
    return set(I.groebner()) == set(J.groebner())


def contract_to_prefix(I: Ideal, k: int) -> Ideal:
    """I intersect K[x_1..x_k], returned over the prefix variable table."""
    keep = set(range(k))
    J = eliminate(I, keep)
    sub = I.ctx.restrict(k)
    return Ideal(sub, [re_context(g, sub) for g in J.generators])


def _fresh_names(ctx: VarTable, base_names):
    taken = set(ctx.names)
    result = []
    for base in base_names:
        name = base
        while name in taken:
            name = name + "_"
        taken.add(name)
        result.append(name)
    return tuple(result)


def saturate(I: Ideal, f: Polynomial, step_budget=None) -> Ideal:
    """(I : f^infinity) via the Rabinowitsch trick with one auxiliary variable."""
    if f.ctx != I.ctx:
        raise ContextMismatch("saturation element over wrong variable table")
    if f.is_zero():
        raise PcglError("cannot saturate at zero")
    if f.is_constant():
        return Ideal(I.ctx, I.generators)
    (tname,) = _fresh_names(I.ctx, ("t",))
    up = I.ctx.extend((tname,))
    n = len(I.ctx)
    gens = [re_context(g, up) for g in I.generators]
    t = Polynomial.variable(up, n)
    gens.append(Polynomial.constant(up, 1) - t * re_context(f, up))
    J = Ideal(up, gens)
    gb = J.groebner(Elim(up, {n}), step_budget)
    down = [re_context(g, I.ctx) for g in gb if n not in g.support()]
    return Ideal(I.ctx, down)


def eliminate(I: Ideal, keep, step_budget=None) -> Ideal:
    """I intersect K[keep], as an ideal over the same variable table."""
    keep = set(keep)
    front = {i for i in range(len(I.ctx)) if i not in keep}
    if not front:
        return Ideal(I.ctx, I.generators)
    gb = I.groebner(Elim(I.ctx, front), step_budget)
    return Ideal(I.ctx, [g for g in gb if g.support() <= keep])


def intersect(I: Ideal, J: Ideal, step_budget=None) -> Ideal:
    """I cap J, via elimination of one homogenizing parameter."""
    if I.ctx != J.ctx:
        raise ContextMismatch("ideals over different variable tables")
    if I.is_zero() or J.is_zero():
        return Ideal.zero(I.ctx)
    (tname,) = _fresh_names(I.ctx, ("t",))
    up = I.ctx.extend((tname,))
    n = len(I.ctx)
    t = Polynomial.variable(up, n)
    one_minus_t = Polynomial.constant(up, 1) - t
    gens = [t * re_context(g, up) for g in I.generators]
    gens += [one_minus_t * re_context(g, up) for g in J.generators]
    K = Ideal(up, gens)
    gb = K.groebner(Elim(up, {n}), step_budget)
    down = [re_context(g, I.ctx) for g in gb if n not in g.support()]
    return Ideal(I.ctx, down)


def dimension(I: Ideal) -> int:
    """Krull dimension of R/I, computed combinatorially from leading terms.

    The dimension is the largest size of a variable subset S such that no
    Groebner leading monomial is supported entirely inside S.
    """
    gb = I.groebner()
    if any(g.is_constant() and not g.is_zero() for g in gb):
        raise UnitIdeal("dimension of the unit ideal is undefined")
    n = len(I.ctx)
    order = Grevlex(I.ctx)
    supports = [set(leading_monomial(g, order).support()) for g in gb]
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            s = set(subset)
            if not any(sup <= s for sup in supports):
                return size
    raise PcglError("unreachable")


# ---------------------------------------------------------------------------
# Poisson / torus specific operations
# ---------------------------------------------------------------------------


def poisson_closure(B, I: Ideal, trace: bool = False):
    """Smallest Poisson ideal containing I.

    Iteratively adjoins generator brackets of basis elements with nonzero
    normal form until a fixpoint; terminates by noetherianity.  With
    ``trace`` the list of adjoined elements is returned as well.
    """
    from .pbracket import bracket

    ctx = I.ctx
    current = Ideal(ctx, I.generators)
    adjoined = []
    while True:
        gb = current.groebner()
        new = []
        for g in gb:
            for i in range(len(ctx)):
                xi = Polynomial.variable(ctx, i)
                r = current.normal_form(bracket(B, xi, g))
                if not r.is_zero():
                    new.append(r)
        if not new:
            break
        adjoined.extend(new)
        current = Ideal(ctx, list(gb) + new)
    result = Ideal(ctx, current.groebner())
    if trace:
        return result, adjoined
    return result


def is_poisson_stable(B, I: Ideal) -> bool:
    from .pbracket import bracket

    ctx = I.ctx
    for g in I.groebner():
        for i in range(len(ctx)):
            xi = Polynomial.variable(ctx, i)
            if not I.member(bracket(B, xi, g))[0]:
                return False
    return True


def is_h_stable(G, I: Ideal) -> bool:
    """True iff I is graded: homogeneous components of basis elements stay in I."""
    from .grading import homogeneous_components

    if G.rank == 0:
        return True
    for g in I.groebner():
        comps = homogeneous_components(G, g)
        if len(comps) > 1:
            for comp in comps.values():
                if not I.member(comp)[0]:
                    return False
    return True


def h_core(G, I: Ideal, step_budget=None) -> Ideal:
    """Largest graded (torus-stable) ideal contained in I.

    Adjoins one Laurent parameter per grading row, twists the generators by
    the torus action, saturates at the product of the parameters, and
    eliminates them again.
    """
    from .grading import monomial_weight

    r = G.rank
    if r == 0 or not I.generators:
        return Ideal(I.ctx, I.generators)
    n = len(I.ctx)
    tnames = _fresh_names(I.ctx, tuple(f"t{k+1}" for k in range(r)))
    up = I.ctx.extend(tnames)
    twisted = []
    for g in I.generators:
        shifts = []
        terms = []
        for m, c in g.terms.items():
            w = monomial_weight(G, m)
            terms.append((m, c, w))
            shifts.append(w)
        mins = [min(w[k] for w in shifts) for k in range(r)]
        new_terms = {}
        for m, c, w in terms:
            exps = {i: e for i, e in m.exps}
            for k in range(r):
                e = w[k] - mins[k]
                if e:
                    exps[n + k] = e
            new_terms[Monomial.make(exps)] = c
        twisted.append(Polynomial(up, new_terms))
    J = Ideal(up, twisted)
    tprod = Polynomial.constant(up, 1)
    for k in range(r):
        tprod = tprod * Polynomial.variable(up, n + k)
    J = saturate(J, tprod, step_budget)
    J = eliminate(J, set(range(n)), step_budget)
    core = Ideal(I.ctx, [re_context(g, I.ctx) for g in J.generators])
    for g in core.groebner():
        if not I.member(g)[0]:
            raise PcglError("h_core post-condition failed: result not inside ideal")
    if not is_h_stable(G, core):
        raise PcglError("h_core post-condition failed: result not graded")
    return core


# ---------------------------------------------------------------------------
# Primality tags and chain reports
# ---------------------------------------------------------------------------


def primality(I: Ideal) -> dict:
    """Classify primality: verified for the easy shapes, asserted otherwise."""
    gb = I.groebner()
    if not gb:
        return {"prime": True, "tag": "verified", "method": "zero ideal of a domain"}
    if not I.is_proper():
        return {"prime": False, "tag": "verified", "method": "unit ideal"}
    if all(len(g.terms) == 1 and next(iter(g.terms)).degree() == 1 for g in gb):
        return {"prime": True, "tag": "verified", "method": "variable-generated"}
    if len(gb) == 1 and _principal_irreducible(gb[0]):
        return {"prime": True, "tag": "verified", "method": "principal irreducible"}
    return {"prime": True, "tag": "asserted", "method": "not verified"}


def _principal_irreducible(g: Polynomial) -> bool:
    if g.total_degree() == 1:
        return True
    for v in sorted(g.support()):
        parts = g.split_by_degree_in(v)
        if set(parts) != {0, 1}:
            continue
        a, b = parts[1], parts[0]
        if _obviously_coprime(a, b):
            return True
    return False


def _obviously_coprime(a: Polynomial, b: Polynomial) -> bool:
    for p in (a, b):
        if p.is_constant() and not p.is_zero():
            return True
    if len(a.terms) == 1 and len(b.terms) == 1:
        ma = next(iter(a.terms))
        mb = next(iter(b.terms))
        return ma.gcd(mb) == MONO_ONE
    return False


@dataclass
class ChainEntry:
    generators: list[str]
    poisson: bool
    h_stable: bool
    dimension: int
    primality: dict

    def to_json_dict(self):
        return {
            "generators": self.generators,
            "poisson": self.poisson,
            "h_stable": self.h_stable,
            "dimension": self.dimension,
            "primality": self.primality,
        }


@dataclass
class ChainReport:
    entries: list[ChainEntry]
    drops: list[int]
    length: int
    saturated_in_spec: bool

    def to_json_dict(self):
        return {
            "ideals": [e.to_json_dict() for e in self.entries],
            "dimension_drops": self.drops,
            "length": self.length,
            "all_drops_one": self.saturated_in_spec,
        }


def chain_report(P, chain) -> ChainReport:
    """Analyze a strictly increasing chain of ideals of the presentation ring.

    Per ideal: Poisson stability, torus stability, quotient dimension and a
    primality tag; per link: the Krull dimension drop.  A chain whose drops
    are all 1 is saturated as a chain in Spec.
    """
    if len(chain) < 1:
        raise PcglError("empty chain")
    for a, b in zip(chain, chain[1:]):
        for g in a.generators:
            if not b.member(g)[0]:
                raise PcglError("chain is not increasing")
        if all(a.member(g)[0] for g in b.generators):
            raise PcglError("chain is not strictly increasing")
    entries = []
    dims = []
    for I in chain:
        dim = dimension(I)
        dims.append(dim)
        entries.append(
            ChainEntry(
                generators=I.generator_strings(),
                poisson=is_poisson_stable(P.table, I),
                h_stable=is_h_stable(P.grading, I),
                dimension=dim,
                primality=primality(I),
            )
        )
    drops = [dims[i] - dims[i + 1] for i in range(len(dims) - 1)]
    return ChainReport(
        entries=entries,
        drops=drops,
        length=len(chain) - 1,
        saturated_in_spec=bool(drops) and all(d == 1 for d in drops),
    )
