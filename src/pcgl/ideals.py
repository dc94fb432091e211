"""Groebner bases over the rationals and the ideal operations built on them.

One Groebner engine: a single Buchberger loop with the sugar selection
strategy and the coprime criterion serves both reduced bases
(`buchberger`) and cofactor-tracked lifts (`lift_through_ideal`), which
lift through one element c and track one cofactor, that of c, per basis
element.  Only the elements of bases that will be reduced are normalized
to content-free integer coefficients; tracked elements keep their scale,
so their cofactors need no rescaling.  Every division step asks
`Monomial.divides`, the one divisibility test, after a support-mask
check.  The division loop, `_divide`, takes three exact fast paths: a zero
dividend is returned as it is, order keys are computed only once the
dividend holds two terms, and a one-term divisor, such as a variable of a
torus-invariant prime, deletes the leading term with no product formed.
A reduction-step budget guards both kinds of call against
runaway computations: `step_limit` scopes it, each division step ticks
it, and an overrun raises `StepBudgetExceeded` with the limit in its
message and nothing else.

Every elimination returns its reduced basis: the elements of a reduced
elimination basis free of the eliminated variables, wherever those stand,
are the reduced grevlex basis of the elimination ideal, in grevlex order
(Elimination Theorem, Cox-Little-O'Shea §3.1), handed over by
`Ideal._with_basis`; eliminating nothing returns the ideal's own.
Contractions, saturations and torus cores all end in one, and so does an
intersection of two ideals neither of which contains the other; when one
does, `intersect` returns the smaller one with its own reduced basis.
`adjoin_variable` hands over both reduced bases of I + (x_i), in grevlex
and in the elimination order of x_i, from I's basis alone; `reduced()`
keeps every basis its ideal has cached.
"""

from __future__ import annotations

import contextlib
import contextvars
import math

from .errors import ContextMismatch, PcglError, StepBudgetExceeded, UnitIdeal
from .grading import monomial_weight, weight_of
from .pbracket import bracket, generator_brackets
from .qpoly import MONO_ONE, Monomial, Polynomial, VarTable, re_context
from .qpoly import _canon, _grevlex_key, _qdiv, _trusted, _variable_index

_STEP_LIMIT = contextvars.ContextVar("pcgl_step_limit", default=10 ** 6)


@contextlib.contextmanager
def step_limit(n: int):
    """Bound each Groebner basis or lift started inside the `with` body to n
    reduction steps; the enclosing limit (10**6 at the top) comes back when
    the body exits, by an exception too."""
    token = _STEP_LIMIT.set(int(n))
    try:
        yield
    finally:
        _STEP_LIMIT.reset(token)


# ---------------------------------------------------------------------------
# Monomial orders
# ---------------------------------------------------------------------------


class Grevlex:
    """Graded reverse lexicographic order on the declared variable order.
    Its key is the monomial's cached one, grevlex on Z^n for any n (see
    `qpoly`), so one order object serves every table."""

    tag = "grevlex"
    key = staticmethod(Monomial.grevlex)


_GREVLEX = Grevlex()


class Elim:
    """Block order eliminating a front set of variables (grevlex per block).
    Each block key is `_grevlex_key` of the pairs in that block, the front
    block first; a monomial free of the front variables has the empty
    block's key there and its own cached key as the back block's."""

    def __init__(self, front):
        self.front = frozenset(front)
        self.front_mask = sum(1 << i for i in self.front)
        self.tag = ("elim", tuple(sorted(self.front)))

    def key(self, m: Monomial):
        if not m.mask() & self.front_mask:
            return _EMPTY_BLOCK, m.grevlex()
        blocks = ([], [])  # front, back
        for pair in m.exps:
            blocks[pair[0] not in self.front].append(pair)
        return _grevlex_key(blocks[0]), _grevlex_key(blocks[1])


_EMPTY_BLOCK = _grevlex_key(())


def leading_monomial(f: Polynomial, order) -> Monomial:
    return max(f.terms, key=order.key)


def _times_term(f: Polynomial, m: Monomial, c) -> Polynomial:
    """f * c*m for a nonzero rational c in canonical form."""
    terms = {}
    for mm, cc in f.terms.items():
        cc = cc * c
        if cc.__class__ is not int:
            cc = _canon(cc)
        terms[mm * m] = cc
    return _trusted(f.ctx, terms)


def make_primitive(f: Polynomial, order) -> Polynomial:
    """Scale to integer coefficients with content 1 and positive leading one."""
    if f.is_zero():
        return f
    denom_lcm = math.lcm(*(c.denominator for c in f.terms.values()))
    content = math.gcd(*(int(c * denom_lcm) for c in f.terms.values()))
    scale = _qdiv(denom_lcm, content)
    if f.terms[leading_monomial(f, order)] < 0:
        scale = -scale
    return f if scale == 1 else f * scale


class _Budget:
    """The reduction steps of one computation, under the limit in scope at its start."""

    def __init__(self):
        self.limit = _STEP_LIMIT.get()
        self.steps = 0

    def tick(self):
        self.steps += 1
        if self.steps > self.limit:
            raise StepBudgetExceeded(f"Groebner step budget of {self.limit} exceeded")


def reduce_poly(f: Polynomial, basis, order, budget: _Budget | None = None, lms=None):
    """Multivariate division: f = sum quotients[i]*basis[i] + remainder.

    This is the one exact division kernel: Groebner bases, normal forms
    and the cofactor-tracked lifts of `lift_through_ideal` all divide in
    its loop, `_divide`.  Each step cancels the leading term of the
    dividend by the first basis element whose leading monomial divides it,
    or moves that term to the remainder, and ticks the budget once.  The
    dividend is a term dict updated in place; the order keys of its
    monomials are cached for the call only, from its first step with two
    terms.  `lms` are the basis's leading monomials, when the caller
    already has them.  Callers that keep their own divisor table
    (`Ideal.normal_form`, `reduce_basis`, the Buchberger loop) call
    `_divide` directly.
    """
    if lms is None:
        lms = [leading_monomial(g, order) for g in basis]
    quotients = {}
    rem = _divide(f, _divisor_table(basis, lms), order, budget, quotients)
    return _quotient_list(f.ctx, quotients, len(basis)), rem


def _quotient_list(ctx, quotients, n):
    """The n quotients of a `_divide` record, as polynomials, zero where absent."""
    zero = _trusted(ctx, {})
    return [_trusted(ctx, quotients[i]) if i in quotients else zero for i in range(n)]


def _divisor_table(basis, lms):
    """(support mask, leading monomial, leading coefficient, terms) per
    divisor.  `_divide` rejects most divisors by the mask before it asks
    `Monomial.divides`, and `dimension` reads the mask column alone."""
    return [(lm.mask(), lm, g.terms[lm], g.terms) for g, lm in zip(basis, lms)]


def _divide(f: Polynomial, divisors, order, budget=None, quotients=None):
    """The division loop of `reduce_poly` on a divisor table; returns the
    remainder.  The quotient terms are recorded, per divisor index, only
    into a `quotients` dict the caller passes.

    Three fast paths leave out only arithmetic that cannot change the
    answer.  A zero dividend is its own remainder.  The order keys of the
    dividend's monomials are computed only once it holds two terms, for a
    lone term is its own leading term.  A one-term divisor c*u cancels the
    leading term a*m outright: its multiple (a/c)*(m/u)*c*u is exactly
    a*m, so the term is deleted with no product formed, its quotient term
    still recorded.  Every step still ticks the budget once."""
    if not f.terms:
        return f
    remainder = {}
    p = dict(f.terms)
    order_key = order.key
    # filled on the first step with two terms, then kept for every new monomial
    keys = {}
    key_of = keys.__getitem__
    while p:
        if budget is not None:
            budget.tick()
        if len(p) == 1:
            lm = next(iter(p))
        else:
            if not keys:
                keys.update({m: order_key(m) for m in p})
            lm = max(p, key=key_of)
        lc = p[lm]
        # a divisor whose support is not inside lm's is rejected by its mask
        outside = ~lm.mask()
        for idx, (g_mask, g_lm, g_lc, g_terms) in enumerate(divisors):
            if not g_mask & outside and g_lm.divides(lm):
                if len(g_terms) == 1:
                    if quotients is not None:
                        quotients.setdefault(idx, {})[lm.divide(g_lm)] = _qdiv(lc, g_lc)
                    del p[lm]
                    break
                t_mono = lm.divide(g_lm)
                t_coeff = _qdiv(lc, g_lc)
                if quotients is not None:
                    quotients.setdefault(idx, {})[t_mono] = t_coeff
                for mm, cc in g_terms.items():
                    m = mm * t_mono
                    c = p.get(m)
                    if c is None:
                        c = -cc * t_coeff
                        if m not in keys:
                            keys[m] = order_key(m)
                    else:
                        c -= cc * t_coeff
                        if not c:
                            del p[m]
                            continue
                    if c.__class__ is not int:
                        c = _canon(c)
                    p[m] = c
                break
        else:
            remainder[lm] = lc
            del p[lm]
    return _trusted(f.ctx, remainder)


def _buchberger_loop(generators, order, budget: _Budget, track=False, start=()):
    """The one Buchberger loop: a Groebner basis of the generators, not
    reduced, with its leading monomials and, with `track`, each element's
    cofactor (else no cofactors).

    Pairs are selected by the sugar strategy and keyed by (sugar, order key
    of the lcm); pairs with coprime leading monomials are never formed
    (Buchberger's first criterion), and a pair of two one-term elements,
    whose S-polynomial is 0, is dropped where it is popped; every division
    step ticks the budget.
    S-polynomials are divided on a divisor table kept as the basis grows,
    with a quotient record only when tracked.  Untracked elements are made
    primitive; tracked ones stay unscaled, so their cofactors need no
    rescaling.

    `start` is a Groebner basis (in `order`) of an ideal the loop adds the
    generators to.  Its elements come first, and the pairs among them are
    never formed: their S-polynomials already have standard
    representations by `start` alone.  A tracked run has one generator c,
    and the cofactor of an element g is the polynomial q with g - q*c in
    the ideal of `start`: 0 on `start`'s elements and 1 on c.
    """
    basis = list(start)
    sugars = [g.total_degree() for g in basis]
    first = len(basis)
    for g in generators:
        if g.is_zero():
            continue
        sugars.append(g.total_degree())
        basis.append(g if track else make_primitive(g, order))
    reps = []
    if track:
        reps = [Polynomial.constant(g.ctx, int(k >= first)) for k, g in enumerate(basis)]
    lms = [leading_monomial(g, order) for g in basis]
    divisors = _divisor_table(basis, lms)
    pairs = {}
    for i in range(first, len(basis)):
        for j in range(i):
            _add_pair(pairs, lms, sugars, i, j, order)
    while pairs:
        i, j = min(pairs, key=pairs.__getitem__)
        sugar, _ = pairs.pop((i, j))
        if len(basis[i].terms) == 1 and len(basis[j].terms) == 1:
            continue
        lmi, lmj = lms[i], lms[j]
        l = lmi.lcm(lmj)
        ti, ci = l.divide(lmi), _qdiv(1, basis[i].terms[lmi])
        tj, cj = l.divide(lmj), _qdiv(1, basis[j].terms[lmj])
        s = _times_term(basis[i], ti, ci) - _times_term(basis[j], tj, cj)
        quotients = {} if track else None
        rem = _divide(s, divisors, order, budget, quotients)
        if rem.is_zero():
            continue
        if track:
            # rem = s - sum_k q_k*basis[k], and basis[k] - reps[k]*c is in the ideal of start
            srep = _times_term(reps[i], ti, ci) - _times_term(reps[j], tj, cj)
            qs = _quotient_list(s.ctx, quotients, len(basis))
            reps.append(_minus_combination(srep, qs, reps))
        else:
            rem = make_primitive(rem, order)
        basis.append(rem)
        lms.append(leading_monomial(rem, order))
        divisors += _divisor_table(basis[-1:], lms[-1:])
        sugars.append(sugar)
        new = len(basis) - 1
        for k in range(new):
            _add_pair(pairs, lms, sugars, new, k, order)
    return basis, lms, reps


def _minus_combination(rep, qs, reps):
    """rep - sum_k qs[k]*reps[k], skipping the zero products."""
    for q, r in zip(qs, reps):
        if q and r:
            rep = rep - q * r
    return rep


def buchberger(generators, order):
    """Reduced Groebner basis by Buchberger's algorithm with the sugar strategy."""
    basis, lms, _ = _buchberger_loop(generators, order, _Budget())
    return reduce_basis(basis, lms, order)


def _add_pair(pairs, lms, sugars, i, j, order):
    lmi, lmj = lms[i], lms[j]
    if lmi.is_coprime(lmj):
        return
    l = lmi.lcm(lmj)
    sugar = max(
        sugars[i] + l.degree() - lmi.degree(), sugars[j] + l.degree() - lmj.degree()
    )
    pairs[(i, j)] = (sugar, order.key(l))


def reduce_basis(basis, lms, order):
    """Minimal, tail-reduced, monic basis (the unique reduced GB) of a Groebner
    basis with leading monomials `lms`.  A one-term element has no tail to
    divide, and one with leading coefficient 1 is not rescaled."""
    keyed = sorted(((order.key(lm), lm, g) for g, lm in zip(basis, lms)), key=lambda t: t[0])
    # minimalize: a leading monomial divisible by an earlier one is redundant;
    # the masks reject most earlier ones before any exponent comparison
    kept = []
    for _, lm, g in keyed:
        outside = ~lm.mask()
        if not any(not other.mask() & outside and other.divides(lm) for other, _ in kept):
            kept.append((lm, g))
    # tail-reduce each element by the others and normalize to monic, on one
    # divisor table for all of them; the leading terms stay, and so does the order
    table = _divisor_table([g for _, g in kept], [lm for lm, _ in kept])
    reduced = []
    for i, (lm, g) in enumerate(kept):
        if len(g.terms) > 1 and len(kept) > 1:
            g = _divide(g, table[:i] + table[i + 1 :], order)
        lc = g.terms[lm]
        reduced.append(g if lc == 1 else g * _qdiv(1, lc))
    return tuple(reduced)


# ---------------------------------------------------------------------------
# Cofactor-tracked membership (for quotient certificates)
# ---------------------------------------------------------------------------


def lift_through_ideal(c: Polynomial, targets, modulo: Ideal | None = None):
    """For each target f, a cofactor q with f - q*c in `modulo` (f = q*c
    without one), or None if f is outside (c) + `modulo`.

    One cofactor-tracked run of the Buchberger loop (in grevlex, with the
    sugar strategy, not made primitive) serves all the targets; each target
    is then divided once by that basis, and the quotients q_k carry its
    cofactor: sum_k q_k * rep_k.  The loop starts from the cached reduced
    basis of `modulo`, whose elements carry the cofactor 0, and adds c to
    it.  The cofactors are exact divisibility certificates modulo
    `modulo`.  One step budget covers the whole lift, so a lift past the
    limit in scope raises StepBudgetExceeded.
    """
    start = modulo.groebner() if modulo is not None else ()
    budget = _Budget()
    basis, lms, reps = _buchberger_loop([c], _GREVLEX, budget, track=True, start=start)
    zero = Polynomial.zero(c.ctx)
    lifts = []
    for f in targets:
        qs, rem = reduce_poly(f, basis, _GREVLEX, budget, lms)
        lifts.append(None if rem else -_minus_combination(zero, qs, reps))
    return lifts


# ---------------------------------------------------------------------------
# Ideal
# ---------------------------------------------------------------------------


class Ideal:
    """Finitely generated ideal with cached reduced Groebner bases.

    The Groebner engine treats every variable as a polynomial one, where a
    unit such as a Laurent variable would generate a proper ideal, so a
    variable table with a Laurent flag is refused."""

    def __init__(self, ctx: VarTable, generators):
        if True in ctx.laurent:
            name = ctx.names[ctx.laurent.index(True)]
            raise PcglError(f"ideals over the Laurent variable {name} are not supported")
        self.ctx = ctx
        gens = []
        for g in generators:
            if g.ctx is not ctx and g.ctx != ctx:
                raise ContextMismatch("generator over wrong variable table")
            if g.has_negative_exponent():
                raise PcglError("ideal generators must be exponent-nonnegative")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._gb: dict = {}
        self._divisors = self._elements = None  # the grevlex basis's divisor table and set

    @classmethod
    def zero(cls, ctx: VarTable) -> "Ideal":
        return cls(ctx, [])

    @classmethod
    def _with_basis(cls, ctx: VarTable, basis) -> "Ideal":
        """The ideal generated by `basis`, which the caller knows to be its
        reduced grevlex basis, in order: the generators and the cached basis
        are the same tuple."""
        ideal = cls(ctx, basis)
        ideal._gb[Grevlex.tag] = ideal.generators
        return ideal

    def groebner(self, order=None):
        if order is None:
            order = _GREVLEX
        if order.tag not in self._gb:
            self._gb[order.tag] = buchberger(self.generators, order)
        return self._gb[order.tag]

    def reduced(self) -> "Ideal":
        """This ideal with its reduced grevlex basis as generators and that
        same basis already cached, since a reduced basis is its own; every
        other cached basis is kept too, for it is a basis of the same ideal."""
        ideal = Ideal._with_basis(self.ctx, self.groebner())
        ideal._gb.update(self._gb)
        return ideal

    def normal_form(self, f: Polynomial) -> Polynomial:
        """The remainder of f on the reduced grevlex basis; f over another
        variable table raises ContextMismatch."""
        if f.ctx is not self.ctx and f.ctx != self.ctx:
            raise ContextMismatch("element over wrong variable table")
        table = self._grevlex_table()
        return _divide(f, table, _GREVLEX) if table else f

    def _grevlex_table(self):
        """The divisor table of the reduced grevlex basis, built on first use."""
        if self._divisors is None:
            gb = self.groebner()
            self._divisors = _divisor_table(gb, [leading_monomial(g, _GREVLEX) for g in gb])
        return self._divisors

    def _basis_set(self) -> frozenset:
        """The reduced grevlex basis as a set, built on first use."""
        if self._elements is None:
            self._elements = frozenset(self.groebner())
        return self._elements

    def member(self, f: Polynomial):
        nf = self.normal_form(f)
        return nf.is_zero(), nf

    def is_zero(self) -> bool:
        return not self.groebner()

    def is_proper(self) -> bool:
        return not any(g.is_constant() for g in self.groebner())  # no basis element is 0

    def generator_strings(self) -> list[str]:
        return [str(g) for g in self.groebner()]

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inner})"


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    if I.ctx is not J.ctx and I.ctx != J.ctx:
        raise ContextMismatch("ideals over different variable tables")
    return set(I.groebner()) == set(J.groebner())


def contains(I: Ideal, J: Ideal) -> bool:
    """True iff J is inside I: every generator of J is an element of I's
    reduced basis (a set lookup, no division) or else a member of I."""
    basis = I._basis_set()
    return all(g in basis or I.member(g)[0] for g in J.generators)


def inclusion_order(ideals):
    """(above, covers) for a list of ideals: above[i] lists the j with
    ideals[i] strictly inside ideals[j], covers[i] those of them with no
    ideal of the list strictly between, both in increasing order.  Equal
    ideals held in different objects are not strictly inside each other.
    I inside J implies dim R/I >= dim R/J (-1 for the unit ideal), so only
    such pairs are tested."""
    idx = range(len(ideals))
    dim = [dimension(I) if I.is_proper() else -1 for I in ideals]
    ok = [[i != j and dim[i] >= dim[j] for j in idx] for i in idx]
    inside = [[ok[i][j] and contains(ideals[j], ideals[i]) for j in idx] for i in idx]
    strict = [[inside[i][j] and not inside[j][i] for j in idx] for i in idx]
    above = [[j for j in idx if strict[i][j]] for i in idx]
    covers = [[j for j in up if not any(strict[k][j] for k in up)] for up in above]
    return above, covers


def extend(I: Ideal, ctx: VarTable) -> Ideal:
    """The ideal that I generates in a ring whose variables extend I's by
    later ones, with I's reduced basis handed over: grevlex on the larger
    ring, restricted to the monomials of I's ring, is grevlex there.  A
    table whose first variables are not I's raises ContextMismatch."""
    if ctx.names[: len(I.ctx)] != I.ctx.names:
        raise ContextMismatch("the table does not extend the ideal's variables")
    return Ideal._with_basis(ctx, [re_context(g, ctx) for g in I.groebner()])


def adjoin_variable(I: Ideal, i: int) -> Ideal:
    """I + (x_i) for a proper I whose reduced basis does not involve x_i,
    with two reduced bases handed over: in grevlex, I's basis with x_i
    inserted at its place; in Elim({i}), I's basis, then x_i.  x_i's
    leading monomial is coprime to every other one (Buchberger's first
    criterion) and divides no term of them, so both are exact.  An i
    outside 0..n-1 raises PcglError."""
    if not 0 <= i < len(I.ctx):
        raise PcglError(f"variable index must lie in 0..{len(I.ctx) - 1}, got {i}")
    gb = I.groebner()
    if not I.is_proper():
        raise PcglError("cannot adjoin a variable to the unit ideal")
    if any(i in g.support() for g in gb):
        raise PcglError(f"the reduced basis involves {I.ctx.names[i]}")
    elim = (*gb, Polynomial.variable(I.ctx, i))
    grevlex = sorted(elim, key=lambda g: leading_monomial(g, _GREVLEX).grevlex())
    ideal = Ideal._with_basis(I.ctx, grevlex)
    ideal._gb[Elim({i}).tag] = elim
    return ideal


def variable_support(I: Ideal):
    """The set of variable indices that generate I when its reduced basis
    consists of variables alone (empty for the zero ideal), else None."""
    gb = I.groebner()
    gone = _basis_variables(gb)
    return gone if len(gone) == len(gb) else None


def _basis_variables(gb) -> set:
    """The variables among the elements of a reduced basis: every variable x_i
    of its ideal, for x_i leads a basis element whose reduced tail is in it, so 0."""
    return {i for g in gb if (i := _variable_index(g)) is not None}


def contract_to_prefix(I: Ideal, k: int) -> Ideal:
    """I intersect K[x_1..x_k] for k in 0..n (else PcglError), over the
    prefix variable table (I's own for k = n) with the reduced basis of
    `eliminate`: the eliminated variables are the trailing ones, so its
    elements keep their monomials on the prefix."""
    if not 0 <= k <= len(I.ctx):
        raise PcglError(f"k must lie in 0..{len(I.ctx)}, got {k}")
    J = eliminate(I, range(k))
    if k == len(I.ctx):
        return J
    sub = I.ctx.restrict(k)
    return Ideal._with_basis(sub, [re_context(g, sub) for g in J.generators])


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


def saturate(I: Ideal, f: Polynomial, keep: int | None = None) -> Ideal:
    """(I : f^infinity) contracted to K[x_1..x_keep] (all n variables by
    default; `keep` outside 0..n raises PcglError), with its reduced basis.
    The Rabinowitsch variable t is appended last, and one elimination of t
    and x_(keep+1).. gives (I + (1 - t*f)) cap K[x_1..x_keep], the
    contraction of the saturation (Cox-Little-O'Shea §3.1-3.2); at a
    constant f, the contraction of I."""
    n = len(I.ctx)
    if keep is None:
        keep = n
    elif not 0 <= keep <= n:
        raise PcglError(f"keep must lie in 0..{n}, got {keep}")
    if f.ctx is not I.ctx and f.ctx != I.ctx:
        raise ContextMismatch("saturation element over wrong variable table")
    if f.is_zero():
        raise PcglError("cannot saturate at zero")
    if f.is_constant():
        return contract_to_prefix(I, keep)
    (tname,) = _fresh_names(I.ctx, ("t",))
    up = I.ctx.extend((tname,))
    gens = [re_context(g, up) for g in I.generators]
    t = Polynomial.variable(up, n)
    gens.append(Polynomial.constant(up, 1) - t * re_context(f, up))
    return contract_to_prefix(Ideal(up, gens), keep)


def eliminate(I: Ideal, keep) -> Ideal:
    """I intersect K[keep], as an ideal over the same variable table, with
    its reduced basis: I's own when nothing is eliminated, else the kept
    part of the elimination basis, for the elimination order is grevlex on
    the monomials free of the eliminated variables, wherever they stand."""
    keep = set(keep)
    front = {i for i in range(len(I.ctx)) if i not in keep}
    if not front:
        return I.reduced()
    gb = I.groebner(Elim(front))
    return Ideal._with_basis(I.ctx, [g for g in gb if g.support() <= keep])


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J, with its reduced basis.

    When one input contains the other (`contains`), a zero one too, the
    result is the smaller one.  Otherwise the intersection comes from the
    elimination of one homogenizing parameter, appended last."""
    if I.ctx is not J.ctx and I.ctx != J.ctx:
        raise ContextMismatch("ideals over different variable tables")
    for big, small in ((I, J), (J, I)):
        if contains(big, small):
            return small.reduced()
    (tname,) = _fresh_names(I.ctx, ("t",))
    up = I.ctx.extend((tname,))
    n = len(I.ctx)
    t = Polynomial.variable(up, n)
    one_minus_t = Polynomial.constant(up, 1) - t
    gens = [t * re_context(g, up) for g in I.generators]
    gens += [one_minus_t * re_context(g, up) for g in J.generators]
    return contract_to_prefix(Ideal(up, gens), n)


def dimension(I: Ideal) -> int:
    """Krull dimension of R/I (Cox-Little-O'Shea ch. 9 §3): the largest size
    of a set of variables holding no leading-monomial support of the reduced
    grevlex basis, so n minus the least size of a set that meets them all."""
    masks = sorted((d[0] for d in I._grevlex_table()), key=int.bit_count)
    if masks and not masks[0]:
        raise UnitIdeal("dimension of the unit ideal is undefined")
    return len(I.ctx) - _transversal(masks)


def _transversal(masks) -> int:
    """The least number of variables that meet every nonzero mask of a list,
    by branching on the first one's (sorted by bit count, a variable first)."""
    if not masks:
        return 0
    least, bits = len(masks), masks[0]
    while bits:
        bit = bits & -bits
        bits ^= bit
        least = min(least, 1 + _transversal([m for m in masks if not m & bit]))
    return least


# ---------------------------------------------------------------------------
# Poisson / torus specific operations
# ---------------------------------------------------------------------------


def poisson_closure(B, I: Ideal, trace: bool = False):
    """Smallest Poisson ideal containing I.

    Adjoins the nonzero normal forms of the nonzero brackets {x_i, g} of
    basis elements g until a fixpoint; terminates by noetherianity.  Each
    round takes the reduced basis of the previous basis and the new
    elements, and brackets only the basis elements not checked before: the
    brackets of an element checked earlier already lie in the ideal.  With
    ``trace`` the list of adjoined elements is returned as well.
    """
    ctx = I.ctx
    gens = [Polynomial.variable(ctx, i) for i in range(len(ctx))]
    current = I.reduced()
    checked = set()
    adjoined = []
    while True:
        new = []
        for g in current.generators:
            if g in checked:
                continue
            for xi in gens:
                h = bracket(B, xi, g)
                if h.terms and not (r := current.normal_form(h)).is_zero():
                    new.append(r)
        if not new:
            break
        checked.update(current.generators)
        adjoined.extend(new)
        current = Ideal(ctx, [*current.generators, *new]).reduced()
    if trace:
        return current, adjoined
    return current


def is_poisson_stable(
    B, I: Ideal, *, base: Ideal | None = None, lower: Ideal | None = None
) -> bool:
    """True iff {x_i, g} lies in I for every generator x_i and basis element
    g, checked as {g, x_i} = -{x_i, g} from one bracket sweep per g.

    `base`, when given, must be the contraction of I to the prefix
    K[x_1..x_m] of the tower (m = the number of variables of `base`), and
    already known to be a Poisson ideal there, by an earlier exact check.
    A basis element g free of x_(m+1).. then lies in `base`, and its
    brackets with x_1..x_m lie in `base`, inside I; only its brackets with
    the new variables are computed and tested.  A g that involves a new
    variable is tested against every generator.  The premise is the
    caller's: the enumeration passes the parent ideal for an induced lift,
    whose basis is the parent's, and for a second lift once its
    contraction is checked.  A zero bracket is not tested.

    `lower`, when given, must be an ideal inside I already known to be
    Poisson (`chain_report` passes the previous entry of a chain).  An
    element of its reduced basis has its brackets in it, and is skipped
    with no division, and {g, x_i} = -{x_i, g} for a variable x_i in it
    is not computed: each sweep cuts the table to the columns it tests.
    """
    m = 0 if base is None else len(base.ctx)
    new = frozenset(range(m, len(I.ctx)))
    skip, known = (lower._basis_set(), _basis_variables(lower.groebner())) if lower else ((), ())
    every = tuple(i for i in range(len(I.ctx)) if i not in known)
    fresh = tuple(i for i in every if i >= m)
    for g in I.groebner():
        if g in skip:
            continue
        columns = fresh if m and new.isdisjoint(g.support()) else every
        for h in generator_brackets(B, g, columns):
            if h.terms and not I.member(h)[0]:
                return False
    return True


def is_h_stable(G, I: Ideal) -> bool:
    """True iff I is graded, that is, iff its reduced basis is homogeneous.

    A homogeneous generating set makes I graded.  Conversely, let I be
    graded and g an element of its reduced basis.  The component of g that
    holds lm(g) lies in I and has the same leading term; the rest of g lies
    in I too, and no term of it lies in the initial ideal, which holds the
    leading term of every nonzero element of I, so it is 0.
    """
    return G.rank == 0 or all(weight_of(G, g) is not None for g in I.groebner())


def h_core(G, I: Ideal) -> Ideal:
    """Largest graded (torus-stable) ideal contained in I.

    A graded I (any I under a rank-0 grading) is its own core: when I's
    reduced basis is homogeneous (`is_h_stable`), the result is I with that
    basis.  Otherwise adjoins one Laurent parameter per grading row, twists
    the generators by the torus action, and saturates at the product of
    the parameters, eliminating them in the same Groebner basis
    (`saturate` with keep=n).
    """
    if is_h_stable(G, I):
        return I.reduced()
    r, n = G.rank, len(I.ctx)
    up = I.ctx.extend(_fresh_names(I.ctx, tuple(f"t{k+1}" for k in range(r))))
    twisted = []
    for g in I.generators:
        terms = [(m, c, monomial_weight(G, m)) for m, c in g.terms.items()]
        mins = [min(w[k] for _, _, w in terms) for k in range(r)]
        new_terms = {}
        for m, c, w in terms:
            # t_k is x_(n+k), after every variable of m: the pairs stay sorted
            shift = tuple((n + k, e) for k in range(r) if (e := w[k] - mins[k]))
            new_terms[Monomial(m.exps + shift)] = c
        twisted.append(Polynomial(up, new_terms))
    tprod = Polynomial.monomial(up, Monomial(tuple((n + k, 1) for k in range(r))))
    core = saturate(Ideal(up, twisted), tprod, keep=n)
    if not contains(I, core):
        raise PcglError("h_core post-condition failed: result not inside ideal")
    if not is_h_stable(G, core):
        raise PcglError("h_core post-condition failed: result not graded")
    return core


# ---------------------------------------------------------------------------
# Primality tags and chain reports
# ---------------------------------------------------------------------------


def primality(I: Ideal) -> dict:
    """Classify primality: verified for the easy shapes, asserted otherwise."""
    gens = variable_support(I)
    if gens == set():
        return {"prime": True, "tag": "verified", "method": "zero ideal of a domain"}
    if gens:
        return {"prime": True, "tag": "verified", "method": "variable-generated"}
    if not I.is_proper():
        return {"prime": False, "tag": "verified", "method": "unit ideal"}
    gb = I.groebner()
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


class ChainEntry:
    def __init__(
        self, generators: list[str], poisson: bool, h_stable: bool, dimension: int, primality: dict
    ):
        self.generators = generators
        self.poisson = poisson
        self.h_stable = h_stable
        self.dimension = dimension
        self.primality = primality


class ChainReport:
    def __init__(
        self, entries: list[ChainEntry], drops: list[int], length: int, saturated_in_spec: bool
    ):
        self.entries = entries
        self.drops = drops
        self.length = length
        self.saturated_in_spec = saturated_in_spec

    def to_json_dict(self):
        return {
            "ideals": [dict(vars(e)) for e in self.entries],
            "dimension_drops": self.drops,
            "length": self.length,
            "all_drops_one": self.saturated_in_spec,
        }


def chain_report(P, chain) -> ChainReport:
    """Analyze a strictly increasing chain of ideals of the presentation ring.

    Per ideal: Poisson stability, torus stability, quotient dimension and a
    primality tag; per link: the Krull dimension drop.  A chain whose drops
    are all 1 is saturated as a chain in Spec.  A unit-ideal entry or a
    link that is not a strict inclusion is refused with its 1-based index.
    A link a inside b with dim R/a > dim R/b is strict, so only one of equal
    dimensions tests b inside a.  An entry verified Poisson lets the next
    skip its basis elements and variables (`is_poisson_stable`'s `lower`).
    """
    if len(chain) < 1:
        raise PcglError("empty chain")
    dims = []
    for k, I in enumerate(chain, 1):
        if not I.is_proper():
            raise UnitIdeal(f"chain entry {k} is the unit ideal")
        dims.append(dimension(I))
    for k, (a, b) in enumerate(zip(chain, chain[1:]), 1):
        if not contains(b, a):
            raise PcglError(f"chain is not increasing: entry {k} is not inside entry {k + 1}")
        if dims[k - 1] == dims[k] and contains(a, b):
            raise PcglError(f"chain is not strictly increasing: entries {k} and {k + 1} are equal")
    entries = []
    lower = None  # the previous entry, once it is verified Poisson
    for I, dim in zip(chain, dims):
        poisson = is_poisson_stable(P.table, I, lower=lower)
        lower = I if poisson else None
        entries.append(
            ChainEntry(
                generators=I.generator_strings(),
                poisson=poisson,
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
