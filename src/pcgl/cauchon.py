"""The Cauchon map, Poisson-normal elements and H-prime enumeration.

For one tower level R = A[X; sigma, delta]_p with locally nilpotent delta
and eigenvalue lambda of X, the Cauchon map

    theta(a) = sum_l (1/l!) (-1/lambda)^l delta^l(a) X^(-l)

is an injective Poisson algebra homomorphism into the Laurent extension.
It produces Poisson-normal elements theta(a) X^s from normal elements of A,
pins down the d-element of the generic fiber, and drives the level-by-level
enumeration of torus-stable Poisson prime ideals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .cgl import LevelData, PoissonPresentation, level_data, verify_cgl
from .errors import (
    ContextMismatch,
    NotWithinBound,
    PcglError,
    PreconditionError,
    SecondLiftError,
    StepBudgetExceeded,
)
from .grading import pair, weight_of
from .ideals import (
    Elim,
    Grevlex,
    Ideal,
    buchberger,
    contains,
    contract_to_prefix,
    extend,
    ideal_equal,
    intersect,
    is_h_stable,
    is_poisson_stable,
    leading_monomial,
    primality,
    saturate,
    variable_support,
)
from .pbracket import BracketTable, bracket, generator_brackets, is_poisson_normal
from .qpoly import (
    Monomial,
    Polynomial,
    VarTable,
    _qdiv,
    re_context,
)

# total-degree bound of the pairwise products among the separating element
# candidates (`_normal_candidates`)
SEPARATION_DEGREE_BOUND = 4


def _to_base(L: LevelData, a: Polynomial) -> Polynomial:
    """Coerce an element into the base ring A of the level."""
    if a.ctx == L.pres_A.ctx:
        return a
    if L.x_index in a.support():
        raise PreconditionError(f"element involves x_{L.k}, not in the base ring")
    return re_context(a, L.pres_A.ctx)


def _delta_iterates(L: LevelData, a: Polynomial, modulo: Ideal | None = None):
    """[a, delta(a), ..., delta^s(a)] up to the last nonzero iterate, each
    reduced modulo the given ideal at every step; empty when a is zero
    there.  Raises NotWithinBound when the iterates do not vanish within
    the nilpotency bound."""
    iterates = []
    p = a if modulo is None else modulo.normal_form(a)
    while not p.is_zero():
        if len(iterates) == L.pres_R.nilpotency_bound:
            raise NotWithinBound(
                f"delta_{L.k} iterates did not terminate within bound "
                f"{L.pres_R.nilpotency_bound}"
            )
        iterates.append(p)
        p = L.delta(p) if modulo is None else modulo.normal_form(L.delta(p))
    return iterates


def _theta_series(L: LevelData, iterates) -> Polynomial:
    """theta(a) x_k^s = sum_l (1/l!) (-1/lambda)^l delta^l(a) x_k^(s-l) in R,
    from the delta-iterates of a, with s the index of the last one."""
    ctx_R = L.pres_R.ctx
    s = len(iterates) - 1
    result = Polynomial.zero(ctx_R)
    coeff = Fraction(1)
    for l, p in enumerate(iterates):
        if l:
            coeff /= -l * L.lambda_k
        xpow = Polynomial.monomial(ctx_R, Monomial.make({L.x_index: s - l}))
        result = result + re_context(p, ctx_R) * coeff * xpow
    return result


def theta(L: LevelData, a: Polynomial) -> Polynomial:
    """The Cauchon map applied to a in A, as a Laurent polynomial in x_k."""
    iterates = _delta_iterates(L, _to_base(L, a))
    x_minus_s = Monomial.make({L.x_index: 1 - len(iterates)})
    return re_context(_theta_series(L, iterates), L.hat_ctx) * Polynomial.monomial(
        L.hat_ctx, x_minus_s
    )


def s_max(L: LevelData, a: Polynomial) -> int:
    """Largest l with delta^l(a) != 0; equivalently theta(a) x_k^s is the
    minimal polynomial clearing of theta(a)."""
    a = _to_base(L, a)
    if a.is_zero():
        raise PreconditionError("s_max is undefined for zero")
    return len(_delta_iterates(L, a)) - 1


@dataclass
class ThetaReport:
    images: dict[int, Polynomial]  # theta(x_j) for the generators x_j of A
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_theta(L: LevelData) -> ThetaReport:
    """Verify the identities of theta exactly on the generators x_1..x_n of A:
    n(n+1)/2 products theta(x_i x_j) = theta(x_i) theta(x_j) (i >= j),
    n(n-1)/2 brackets theta({x_i, x_j}) = {theta(x_i), theta(x_j)} (i > j)
    and n twists {x_k, theta(x_i)} = theta(sigma(x_i)) x_k.

    They then hold on all of A (Cauchon 2003; Goodearl-Launois 2011).
    theta = exp(-(1/lambda) x_k^-1 delta) with delta a derivation of A (the
    chain-rule kernel applies it), so theta is multiplicative by the Leibniz
    rule; the products guard the series itself, whose wrong coefficients
    show on a product of generators.  For a multiplicative theta the bracket
    defect theta({a,b}) - {theta(a), theta(b)} is a biderivation along
    theta, and the twist defect {x_k, theta(a)} - theta(sigma(a)) x_k a
    derivation along theta (sigma is a derivation of A).  Both vanish on A
    once they vanish on generators, and so on inverses of Laurent ones.
    """
    ctx_A = L.pres_A.ctx
    gens = [Polynomial.variable(ctx_A, j) for j in range(len(ctx_A))]
    images = {j: theta(L, g) for j, g in enumerate(gens)}
    X = Polynomial.variable(L.hat_ctx, L.x_index)
    report = ThetaReport(images=images)
    for i, a in enumerate(gens):
        for j, b in enumerate(gens[: i + 1]):
            ta, tb = images[i], images[j]
            if theta(L, a * b) != ta * tb:
                report.failures.append({"identity": "multiplicative", "a": str(a), "b": str(b)})
            if j < i and theta(L, bracket(L.pres_A.table, a, b)) != bracket(L.hat_table, ta, tb):
                report.failures.append({"identity": "poisson", "a": str(a), "b": str(b)})
        if bracket(L.hat_table, X, images[i]) != theta(L, L.sigma(a)) * X:
            report.failures.append({"identity": "sigma-twist", "a": str(a)})
    return report


@dataclass
class NormalElementResult:
    element: Polynomial
    s: int
    eta: Fraction
    normality: object

    def __str__(self):
        return str(self.element)


def _normal_input(L: LevelData, a: Polynomial):
    """The weight of a homogeneous Poisson-normal element a of A; a
    PreconditionError otherwise."""
    wa = weight_of(L.pres_A.grading, a)
    if wa is None:
        raise PreconditionError("input is not homogeneous")
    cert = is_poisson_normal(L.pres_A.table, a)
    if not cert.ok:
        raise PreconditionError("input is not Poisson-normal in the base ring", cert)
    return wa


def normal_element(L: LevelData, a: Polynomial) -> NormalElementResult:
    """Build the Poisson-normal eigenvector theta(a) x_k^s in R from a
    homogeneous Poisson-normal element a of A, and machine-verify both the
    normality of the result and the identity {x, x_k} = -eta x x_k."""
    a = _to_base(L, a)
    if a.is_zero():
        raise PreconditionError("input must be nonzero")
    eta = pair(L.h_k, _normal_input(L, a))
    iterates = _delta_iterates(L, a)
    x = _theta_series(L, iterates)
    out_cert = is_poisson_normal(L.pres_R.table, x)
    if not out_cert.ok:
        raise PcglError("constructed element failed the normality check")
    X = L.x()
    if bracket(L.pres_R.table, x, X) != -eta * x * X:
        raise PcglError("constructed element failed {x, x_k} = -eta x x_k")
    return NormalElementResult(element=x, s=len(iterates) - 1, eta=eta, normality=out_cert)


# ---------------------------------------------------------------------------
# d-elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DElement:
    """A fraction b/c over the base ring A with sigma(d) = lambda d and
    delta(d) = -lambda d^2 (held as cross-multiplied identities)."""

    numerator: Polynomial
    denominator: Polynomial

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def same_fraction(self, other: "DElement") -> bool:
        return (
            self.numerator * other.denominator == other.numerator * self.denominator
        )

    def __str__(self):
        if self.denominator == 1:
            return str(self.numerator)
        num = str(self.numerator)
        den = str(self.denominator)
        if len(self.numerator.terms) > 1:
            num = f"({num})"
        if len(self.denominator.terms) > 1 or not _is_monic_term(self.denominator):
            den = f"({den})"
        return f"{num}/{den}"


def _is_monic_term(p: Polynomial) -> bool:
    return len(p.terms) == 1 and next(iter(p.terms.values())) == 1


def _normalize_fraction(b: Polynomial, c: Polynomial) -> DElement:
    if b.is_zero():
        return DElement(Polynomial.zero(b.ctx), Polynomial.constant(b.ctx, 1))
    def content(p):
        mono = None
        for m in p.terms:
            mono = m if mono is None else mono.gcd(m)
        return mono
    g = content(b).gcd(content(c))
    if g.exps:
        b = Polynomial(b.ctx, {m.divide(g): x for m, x in b.terms.items()})
        c = Polynomial(c.ctx, {m.divide(g): x for m, x in c.terms.items()})
    order = Grevlex(c.ctx)
    inv = _qdiv(1, c.terms[leading_monomial(c, order)])
    return DElement(b * inv, c * inv)


def validate_d_element(L: LevelData, d: DElement, modulo: Ideal | None = None) -> bool:
    """Check the defining invariants of d as exact (cross-multiplied)
    polynomial identities, reduced modulo the given ideal."""
    ctx_A = L.pres_A.ctx
    Q = modulo if modulo is not None else Ideal.zero(ctx_A)
    b, c = d.numerator, d.denominator
    if c.is_zero() or Q.member(c)[0]:
        return False
    G_A = L.pres_A.grading
    if not d.is_zero():
        wb, wc = weight_of(G_A, b), weight_of(G_A, c)
        if wb is None or wc is None:
            return False
        w_x = L.pres_R.grading.weights[L.x_index]
        if tuple(p - q for p, q in zip(wb, wc)) != tuple(w_x):
            return False
    lam = L.lambda_k
    sigma, delta = L.sigma, L.delta
    if not Q.member(sigma(b) * c - b * sigma(c) - lam * b * c)[0]:
        return False
    if not Q.member(delta(b) * c - b * delta(c) + lam * b * b)[0]:
        return False
    return True


def _closed_form_d(L: LevelData, iterates) -> DElement:
    """d = delta(a) / (lambda s a), from the delta-iterates of a with s >= 1
    (Goodearl-Launois 2011)."""
    s = len(iterates) - 1
    return _normalize_fraction(iterates[1], (L.lambda_k * s) * iterates[0])


def d_element_from_normal(L: LevelData, a: Polynomial) -> DElement:
    """d = delta(a) / (lambda s a) from a Poisson-normal homogeneous a with
    s = s_max(a) > 0."""
    a = _to_base(L, a)
    _normal_input(L, a)
    iterates = _delta_iterates(L, a)
    if len(iterates) == 1:
        raise PreconditionError("s_max(a) = 0: no d-element from this recipe")
    d = _closed_form_d(L, iterates)
    if not validate_d_element(L, d):
        raise PcglError("d-element invariants failed")
    return d


def _weight_matched_monomials(weights, bound: int, target) -> list[Monomial]:
    """Monomials of degree <= bound in len(weights) variables whose weight
    is target: by ascending degree, then in the order of
    `itertools.combinations_with_replacement`, which fixes which solution
    the ansatz solve returns.  A branch is pruned once some coordinate of the
    missing weight is out of reach of the remaining degree and variables."""
    n = len(weights)
    lo = [tuple(map(min, zip(*weights[i:]))) for i in range(n)]
    hi = [tuple(map(max, zip(*weights[i:]))) for i in range(n)]

    def fill(i, r, rest):
        # exponents of the variables i.. of total degree r and weight rest
        if r == 0:
            if not any(rest):
                yield ()
            return
        if i == n or not all(r * a <= x <= r * b for a, x, b in zip(lo[i], rest, hi[i])):
            return
        for e in range(r, -1, -1):
            left = [x - e * w for x, w in zip(rest, weights[i])]
            for tail in fill(i + 1, r - e, left):
                yield ((i, e),) + tail if e else tail

    return [Monomial(exps) for deg in range(bound + 1) for exps in fill(0, deg, target)]


def _normal_atoms(L: LevelData, Q: Ideal, candidates, memo: dict | None = None):
    """Yield the candidates that are Poisson-normal homogeneous elements of
    A/Q, in their given order (d-search atoms, or normal candidates).
    Zero candidates, those in Q and repeats are skipped.  The check is
    lazy: a caller that stops at an accepted atom never examines the
    candidates after it, and `d_element_search` asks for its atoms only
    once its zero guess has failed.

    With a `memo` dict (the separation search passes L.pres_A._cache), each
    candidate's verdict is kept in it under the candidate and the reduced
    grevlex basis of Q, `_certificate`'s keying rule, so the pairs of a
    sweep that share a contraction check each candidate once.  The
    d-search passes none, so an enumeration stores no memo entry."""
    seen = set()
    for a in candidates:
        if a.is_zero() or a in seen:
            continue
        seen.add(a)
        if memo is None:
            ok = _is_atom(L, Q, a)
        else:
            ok = _memo(memo, ("atom", a, Q.groebner()), lambda: _is_atom(L, Q, a))
        if ok:
            yield a


def _is_atom(L: LevelData, Q: Ideal, a: Polynomial) -> bool:
    """Whether a is a Poisson-normal homogeneous element of A/Q outside Q."""
    if Q.member(a)[0] or weight_of(L.pres_A.grading, a) is None:
        return False
    try:
        return is_poisson_normal(L.pres_A.table, a, modulo=None if Q.is_zero() else Q).ok
    except PreconditionError:
        return False


def _try_denominator(L: LevelData, Q: Ideal, guess: DElement):
    """Solve the cross-multiplied defining property for b over the guess's
    denominator c, with b spanned by the weight-matched monomials of degree
    at most that of the guess's numerator; returns a validated DElement or
    None.  The zero guess has no ansatz monomial, so its solve is the exact
    test that delta(x_j) is in Q for every generator x_j of A."""
    c = guess.denominator
    ctx_A = L.pres_A.ctx
    G_A = L.pres_A.grading
    w_x = L.pres_R.grading.weights[L.x_index]
    w_c = weight_of(G_A, c)
    w_b = tuple(a + b for a, b in zip(w_x, w_c))
    n_A = len(ctx_A)
    key = (guess.numerator.total_degree(), w_b)
    if key not in L.ansatz_memo:
        L.ansatz_memo[key] = tuple(_weight_matched_monomials(G_A.weights, *key))
    ansatz = L.ansatz_memo[key]
    table_A = L.pres_A.table
    monos = [Polynomial.monomial(ctx_A, m) for m in ansatz]
    mono_cs = [p * c for p in monos]
    mono_brs = [generator_brackets(table_A, p) for p in monos]
    c_brs = generator_brackets(table_A, c)
    # linear system rows: coefficient of every monomial in the reduced
    # residual, one block per generator of A
    columns = []
    rhs_parts = []
    # on a generator x_j, sigma and delta are their stored images
    for j in range(n_A):
        cg = c_brs[j]
        sg = L.sigma.images[j]
        lhs = [
            Q.normal_form(brs[j] * c - p * cg - sg * pc)
            for p, pc, brs in zip(monos, mono_cs, mono_brs)
        ]
        columns.append(lhs)
        rhs_parts.append(Q.normal_form(L.delta.images[j] * c * c))
    row_monos = sorted(
        {m for block in columns for p in block for m in p.terms}
        | {m for p in rhs_parts for m in p.terms},
        key=lambda m: m.exps,
    )
    A_rows = []
    b_vec = []
    for block, rhs in zip(columns, rhs_parts):
        for m in row_monos:
            A_rows.append([p.coefficient(m) for p in block])
            b_vec.append(rhs.coefficient(m))
    if ansatz:
        sol = linalg.solve_affine(A_rows, b_vec, ncols=len(ansatz))
    else:
        sol = [] if all(x == 0 for x in b_vec) else None
    if sol is None:
        return None
    b = Polynomial.zero(ctx_A)
    for coeff, m in zip(sol, ansatz):
        if coeff:
            b = b + Polynomial.monomial(ctx_A, m, coeff)
    b = Q.normal_form(b)
    d = _normalize_fraction(b, c)
    if validate_d_element(L, d, Q):
        return d
    return None


def _candidates(L: LevelData, Q: Ideal, atoms):
    """The zero fraction 0/1, then the closed form d* = delta(a) / (lambda s
    a) (Goodearl-Launois 2011) of each Poisson-normal homogeneous atom a of
    A/Q whose delta-iterates modulo Q reach index s >= 1, in the atoms'
    order; each atom is examined only once every earlier guess has failed."""
    ctx_A = L.pres_A.ctx
    yield DElement(Polynomial.zero(ctx_A), Polynomial.constant(ctx_A, 1))
    for a in _normal_atoms(L, Q, atoms):
        try:
            iterates = _delta_iterates(L, a, Q)
        except NotWithinBound:
            continue
        if len(iterates) > 1:
            yield _closed_form_d(L, iterates)


def d_element_search(
    L: LevelData, modulo: Ideal | None = None, extra_normals=()
) -> DElement | None:
    """The d-element over A/modulo, by an exact solve per candidate d.

    The candidates are the zero fraction, then the closed form of each
    normal atom (`_candidates`): the variables, then the extra normals (the
    lineage's pool, which `enumerate_hprimes` passes).  For a candidate b'/c
    the defining property {b/c, g} = sigma(g) b/c + delta(g) becomes, after
    cross-multiplying, a linear system for the coefficients of b over the
    weight-matched monomials of degree at most deg b' (`_try_denominator`),
    so the candidate itself is in its ansatz.  The search stops at the first
    solve that succeeds.  A returned d always passes `validate_d_element`
    and is the unique d by the eigencondition; None means the atoms ran
    out, never that no d exists.
    """
    ctx_A = L.pres_A.ctx
    Q = modulo if modulo is not None else Ideal.zero(ctx_A)
    atoms = itertools.chain(
        (Polynomial.variable(ctx_A, j) for j in range(len(ctx_A))),
        (Q.normal_form(re_context(e, ctx_A)) for e in extra_normals),
    )
    for guess in _candidates(L, Q, atoms):
        d = _try_denominator(L, Q, guess)
        if d is not None:
            return d
    return None


def second_lift(L: LevelData, P0: Ideal, d: DElement) -> Ideal:
    """The second Poisson H-prime over P0: the contraction of (X - d),
    computed as the saturation ((c x_k - b) + P0 R : c^infinity).

    P0 is a Poisson ideal of A, by an earlier exact check.  The result
    contains P0 R by construction, and P0's reduced basis is a Groebner
    basis of P0 R for the order eliminating x_k (its elements are free of
    x_k).  So the result's elimination basis is computed from that start,
    adding the result's basis elements outside P0 R, and carried with the
    result; the contraction check reads it.  The contraction is checked
    before Poisson stability, which then tests only the brackets that the
    check of P0 in A does not already cover (`is_poisson_stable`, base=).
    """
    ctx_R = L.pres_R.ctx
    X = L.x()
    c_R = re_context(d.denominator, ctx_R)
    b_R = re_context(d.numerator, ctx_R)
    below = extend(P0, ctx_R)
    I = Ideal(ctx_R, [c_R * X - b_R, *below.generators])
    if not d.denominator.is_constant():
        I = saturate(I, c_R)
    if not I.is_proper():
        raise SecondLiftError("second lift is the unit ideal; invalid d")
    outside = [g for g in I.groebner() if not below.member(g)[0]]
    top_elim = buchberger(outside, Elim(ctx_R, {L.x_index}), start=below.generators)
    result = Ideal._with_basis(ctx_R, I.groebner(), top_elim)
    G_k = L.pres_R.grading
    if not is_h_stable(G_k, result):
        raise SecondLiftError("second lift is not torus-stable")
    if not ideal_equal(contract_to_prefix(result, L.k - 1), P0):
        raise SecondLiftError("second lift does not contract to the base ideal")
    if not is_poisson_stable(L.pres_R.table, result, base=P0):
        raise SecondLiftError("second lift is not Poisson-stable")
    return result


# ---------------------------------------------------------------------------
# H-prime enumeration
# ---------------------------------------------------------------------------


@dataclass
class HPrimeNode:
    level: int
    ideal: Ideal
    parent: "HPrimeNode | None" = None
    branch: str = "root"
    d: DElement | None = None
    flags: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    prime: dict = field(default_factory=dict)
    # normal elements discovered along this lineage, used as denominator
    # atoms for deeper d-searches
    normal_pool: tuple = ()

    def label(self) -> str:
        gens = self.ideal.generator_strings()
        return "<" + ", ".join(gens) + ">" if gens else "0"


@dataclass
class HPrimeTree:
    levels: list[list[HPrimeNode]]

    def leaves(self) -> list[HPrimeNode]:
        return self.levels[-1]

    @property
    def inconclusive(self) -> bool:
        return any(node.flags for level in self.levels for node in level)

    def to_json_dict(self):
        nodes = []
        index = {}
        for level in self.levels:
            for node in level:
                index[id(node)] = len(nodes)
                nodes.append(node)
        return {
            "count": len(self.leaves()),
            "inconclusive": self.inconclusive,
            "nodes": [
                {
                    "id": index[id(n)],
                    "level": n.level,
                    "parent": index[id(n.parent)] if n.parent is not None else None,
                    "branch": n.branch,
                    "generators": n.ideal.generator_strings(),
                    "d": str(n.d) if n.d is not None else None,
                    "flags": n.flags,
                    "notes": n.notes,
                    "prime": n.prime,
                }
                for n in nodes
            ],
        }

    def to_dot(self) -> str:
        """Hasse diagram of the top-level poset, ordered by inclusion."""
        leaves = self.leaves()
        names = [f"n{i}" for i in range(len(leaves))]
        below = [
            [i != j and contains(leaves[j].ideal, leaves[i].ideal) for j in range(len(leaves))]
            for i in range(len(leaves))
        ]
        lines = ["digraph hprimes {", "  rankdir=BT;"]
        for i, leaf in enumerate(leaves):
            lines.append(f'  {names[i]} [label="{leaf.label()}"];')
        for i in range(len(leaves)):
            for j in range(len(leaves)):
                if not below[i][j]:
                    continue
                if any(below[i][k] and below[k][j] for k in range(len(leaves))):
                    continue
                lines.append(f"  {names[i]} -> {names[j]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def enumerate_hprimes(P: PoissonPresentation) -> HPrimeTree:
    """Level-by-level enumeration of the torus-stable Poisson primes.

    Starting from the zero ideal of the base field, every delta-stable node
    always lifts to the induced ideal, and additionally to the second lift
    when the d-element search succeeds; nodes that are not delta-stable have
    no lifts.  Every emitted ideal is machine-checked to be torus-stable and
    Poisson-stable; primality is asserted from the theory and verified where
    cheap.  An inconclusive d-search, or a Groebner step budget that runs
    out while a node is lifted, annotates the node instead of halting; a
    child whose checks did not finish is not emitted, so the output can
    under- but never over-count.
    """
    report = verify_cgl(P)
    if not report.ok:
        raise PreconditionError("presentation fails the tower axioms", report)
    root = HPrimeNode(level=0, ideal=Ideal.zero(P.ctx.restrict(0)))
    root.prime = primality(root.ideal)
    levels = [[root]]
    for k in range(1, P.nvars + 1):
        L = level_data(P, k)
        next_level = []
        for node in levels[k - 1]:
            try:
                _lift(L, node, next_level)
            except StepBudgetExceeded:
                node.flags.append(f"step budget exhausted at level {k}; possibly missing branch")
        levels.append(next_level)
    return HPrimeTree(levels=levels)


def _lift(L: LevelData, node: HPrimeNode, out: list) -> None:
    """Append the lifts of one node to level L.k to `out`, each once its
    checks have finished."""
    k = L.k
    ctx_k = L.pres_R.ctx
    Q = node.ideal
    if not _delta_stable(Q, L.delta):
        node.notes.append(f"not delta-stable at level {k}; no lifts")
        return
    induced = extend(Q, ctx_k)
    # Q is the contraction of its induced lift, and Poisson in A
    if not is_h_stable(L.pres_R.grading, induced) or not is_poisson_stable(
        L.pres_R.table, induced, base=Q
    ):
        raise PcglError("induced lift failed stability checks")
    pool_up = tuple(re_context(p, ctx_k) for p in node.normal_pool)
    child = HPrimeNode(
        level=k, ideal=induced, parent=node, branch="induced", normal_pool=pool_up
    )
    child.prime = primality(induced)
    out.append(child)
    d = d_element_search(L, modulo=Q, extra_normals=node.normal_pool)
    if d is None:
        node.flags.append(f"d-search inconclusive at level {k}; possibly missing branch")
        return
    lifted = second_lift(L, Q, d)
    x_normal = re_context(d.denominator, ctx_k) * L.x() - re_context(d.numerator, ctx_k)
    child.normal_pool = pool_up = pool_up + (x_normal,)
    child2 = HPrimeNode(
        level=k, ideal=lifted, parent=node, branch="d-branch", d=d, normal_pool=pool_up
    )
    child2.prime = primality(lifted)
    out.append(child2)


# ---------------------------------------------------------------------------
# Deletion steps
# ---------------------------------------------------------------------------


@dataclass
class CauchonStep:
    """One deletion step: R_k = A[x_k; sigma, delta]_p rewritten as the
    twist-only extension A[y_k; sigma]_p, together with the embedding of A
    given by the Cauchon map."""

    level: int
    source: PoissonPresentation
    target: PoissonPresentation
    theta_images: dict[int, Polynomial]


def cauchon_step(P: PoissonPresentation, k: int) -> CauchonStep:
    """Delete delta at level k of the restricted tower R_k.

    The target bracket satisfies {y_k, a} = sigma(a) y_k by construction and
    is re-checked (Jacobi, graded); the recorded theta images are those
    of `check_theta`, whose exact identities on the generators of A
    certify theta on all of A.
    """
    L = level_data(P, k)
    source = L.pres_R
    entries = {key: p for key, p in source.table.pairs()}
    i = k - 1
    for j in range(i):
        img = L.sigma.images[j]
        new = re_context(img, source.ctx) * Polynomial.variable(source.ctx, i)
        if new.is_zero():
            entries.pop((i, j), None)
        else:
            entries[(i, j)] = new
    target = PoissonPresentation(
        ctx=source.ctx,
        table=BracketTable(source.ctx, entries),
        grading=source.grading,
        h=source.h,
        nilpotency_bound=source.nilpotency_bound,
    )
    from .pbracket import check_jacobi
    from .grading import check_graded_bracket

    if not check_jacobi(target.table).ok:
        raise PcglError("deletion target fails the Jacobi identity")
    if not check_graded_bracket(target.grading, target.table):
        raise PcglError("deletion target fails the graded-bracket check")
    report = check_theta(L)
    if not report.ok:
        raise PcglError("Cauchon map identities failed on the generators")
    return CauchonStep(level=k, source=source, target=target, theta_images=report.images)


def delete_all(P: PoissonPresentation) -> PoissonPresentation:
    """The fully deleted presentation: same generators, grading and Lie
    data, with every bracket reduced to its quadratic part
    {x_i, x_j} = <h_i, deg x_j> x_i x_j (all deltas vanish)."""
    report = verify_cgl(P)
    if not report.ok:
        raise PreconditionError("presentation fails the tower axioms", report)
    hs = tuple(level_data(P, k).h_k for k in range(1, P.nvars + 1))
    entries = {}
    for i in range(P.nvars):
        for j in range(i):
            lam = pair(hs[i], P.grading.weights[j])
            if lam:
                entries[(i, j)] = Polynomial.monomial(
                    P.ctx, Monomial.make({i: 1, j: 1}), lam
                )
    return PoissonPresentation(
        ctx=P.ctx,
        table=BracketTable(P.ctx, entries),
        grading=P.grading,
        h=hs,
        nilpotency_bound=P.nilpotency_bound,
    )


# ---------------------------------------------------------------------------
# Separating normal elements
# ---------------------------------------------------------------------------


@dataclass
class SeparationResult:
    element: Polynomial
    case: str
    normality: object

    def __str__(self):
        return str(self.element)


def _coefficient_ideal(T: Ideal, x_index: int, ctx_A: VarTable) -> Ideal:
    """J = {a in A : a x + e in T for some e in A}, from an elimination-order
    basis: degree <= 1 elements contribute their leading x-coefficients."""
    gb = T.groebner(Elim(T.ctx, {x_index}))
    gens = []
    for g in gb:
        dx = g.degree_in(x_index)
        if dx == 0:
            gens.append(re_context(g, ctx_A))
        elif dx == 1:
            gens.append(re_context(g.split_by_degree_in(x_index)[1], ctx_A))
    return Ideal(ctx_A, gens)


def _normal_candidates(L: LevelData, W: Ideal, modulo: Ideal):
    """Yield the homogeneous elements of the ideal W of A that are
    Poisson-normal modulo the ideal `modulo` of A (which may be 0);
    heuristic: basis elements and their bounded pairwise products, in a
    fixed order.  Normality is checked lazily, so the candidates after the
    first one a caller accepts are never examined."""
    G_A = L.pres_A.grading
    gb = [g for g in W.groebner() if not g.is_zero()]
    singles = [g for g in gb if weight_of(G_A, g) is not None]
    candidates = list(singles)
    for a, b in itertools.combinations_with_replacement(singles, 2):
        prod = a * b
        if prod.total_degree() <= SEPARATION_DEGREE_BOUND:
            candidates.append(prod)
    candidates.sort(key=lambda p: (p.total_degree(), str(p)))
    yield from _normal_atoms(L, modulo, candidates, memo=L.pres_A._cache)


def _delta_stable(P0: Ideal, delta) -> bool:
    return all(P0.member(delta(g))[0] for g in P0.groebner())


def separating_normal(P: PoissonPresentation, P_ideal, Q_ideal) -> SeparationResult | None:
    """A Poisson-normal eigenvector of R/P lying in Q/P, or None when the
    heuristic search is inconclusive (nonexistence is never claimed).

    Follows the top-level case analysis over A/P0, where A is the ring
    below the top variable x_N and P0 = P cap A is the contraction, which
    may be 0: the element is a normal element of the coefficient ideal of P
    when P is larger than P0 R, and otherwise theta(a) x_N^s for a normal
    element a of Q cap A or of the coefficient ideal of Q, or x_N itself in
    the delta = 0 case.  A contraction generated by variables is removed by
    passing to the quotient presentation first.

    A sweep over many pairs repeats most of the work of one pair, so each
    piece is computed once per presentation and kept in its cache, keyed by
    the reduced grevlex bases of the ideals involved: the certificate of an
    element in R modulo P (`_certificate`), each candidate's verdict in A
    (`_normal_atoms`), and each contraction (`_contraction`), in the
    quotient presentations too.  A search that raises, its step budget run
    out, stores nothing it has not finished.  Ideals or nodes over another
    variable table than P's raise ContextMismatch.
    """
    P_I = P_ideal.ideal if isinstance(P_ideal, HPrimeNode) else P_ideal
    Q_I = Q_ideal.ideal if isinstance(Q_ideal, HPrimeNode) else Q_ideal
    if P_I.ctx != P.ctx or Q_I.ctx != P.ctx:
        raise ContextMismatch("ideals over another variable table than the presentation")
    if not contains(Q_I, P_I):
        raise PreconditionError("ideals are not nested")
    if contains(P_I, Q_I):
        raise PreconditionError("ideals are equal")
    result = _separating_normal_inner(P, P_I, Q_I)
    if result is None:
        return None
    u, case, cert = result
    if cert is None:
        # certified in a quotient presentation, not yet in R
        cert = _certificate(P, u, P_I)
    if not cert.ok:
        raise PcglError("separating element failed the normality check")
    if not Q_I.member(u)[0] or P_I.member(u)[0]:
        raise PcglError("separating element is not in Q \\ P")
    return SeparationResult(element=u, case=case, normality=cert)


def _certificate(P: PoissonPresentation, u: Polynomial, modulus: Ideal):
    """is_poisson_normal(P.table, u, modulo=modulus), computed once per
    element and ideal: memoized in P._cache under u and the reduced grevlex
    basis of the modulus, which identifies the ideal, so that equal ideals
    held in different objects share one entry.  Every memo of the
    separation search is keyed this way."""
    key = ("normal", u, modulus.groebner())
    return _memo(P._cache, key, lambda: is_poisson_normal(P.table, u, modulo=modulus))


def _contraction(P: PoissonPresentation, I: Ideal, k: int) -> Ideal:
    """contract_to_prefix(I, k), computed once per ideal: memoized in
    P._cache under k and the reduced grevlex basis of I, so that every pair
    sharing the ideal gets the same object, with the bases and divisor
    table it has cached."""
    return _memo(P._cache, ("contract", k, I.groebner()), lambda: contract_to_prefix(I, k))


def _memo(cache: dict, key, compute):
    """cache[key], from compute() on the first call.  A computation that
    raises, such as one whose step budget runs out, stores nothing."""
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _separating_normal_inner(P, P_I, Q_I):
    """(element, case, certificate) or None.  The certificate is the
    normality check of the element in P, or None when the element was
    certified only in a quotient presentation."""
    N = P.nvars
    if N == 0:
        return None
    P0 = _contraction(P, P_I, N - 1)
    gone = variable_support(P0)
    if not gone:
        return _separating_normal_mod(P, P_I, Q_I, P0)
    quotient = P.drop_variables(gone)
    P_down = _project(P_I, gone, quotient.ctx)
    Q_down = _project(Q_I, gone, quotient.ctx)
    result = _separating_normal_inner(quotient, P_down, Q_down)
    if result is None:
        return None
    u_down, case, _ = result
    return re_context(u_down, P.ctx), case + " (in quotient)", None


def _project(I: Ideal, gone, ctx: VarTable) -> Ideal:
    """The image of I, which contains the variables `gone`, in the quotient
    presentation on the other variables.  A reduced basis of I holds each
    dropped x_g itself and its other elements are free of them, so those
    others are the reduced basis of the image, in grevlex and, when I has
    it cached, in the order eliminating the top variable."""

    def project(basis):
        return [re_context(g, ctx) for g in basis if gone.isdisjoint(g.support())]

    top_elim = I._gb.get(Elim(I.ctx, {len(I.ctx) - 1}).tag)
    return Ideal._with_basis(
        ctx, project(I.groebner()), None if top_elim is None else project(top_elim)
    )


def _separating_normal_mod(P, P_I, Q_I, P0):
    """The case analysis over A/P0 for a delta-stable, Poisson-stable
    contraction P0 = P cap A, which may be 0: computations in A with every
    reduction taken modulo P0 rather than a literal quotient presentation.

    When P is larger than P0 R, a normal element of J cap Q separates, with
    J the coefficient ideal of P.  Otherwise R/P is a tower over A/P0 and
    the element is theta(a) x_N^s, for a normal element a of Q cap A when
    that is larger than P0, else of the coefficient ideal of Q; when s = 0
    there, x_N itself separates if delta vanishes modulo P0.  Every
    theta(a) x_N^s returned is checked against {u, x_N} = -eta u x_N modulo
    P, with eta = <h_N, weight of a>.  Case labels carry " (mod
    contraction)" when P0 is not 0.

    A contraction generated by variables could come here too, with the same
    elements, but `_separating_normal_inner` passes it to the quotient
    presentation instead: that route serves 321 of the 508 nested pairs of
    weyl, pplane, m2 and the 2x3 tower.  Sending every contraction here
    gives the same elements under other case labels.  With each check and
    contraction computed once per presentation, the two routes take the
    same time on the benchmark's sweep over the 447 pairs of the 2x3 tower
    (separate-2x3): median 0.336 s here against 0.325 s by the quotient,
    faster in 6 of 10 alternating pairs, with a 4 % lower memory peak
    (Python 3.11 on a shared 2-core VM).  The quotient route stays because
    its case labels are pinned output.
    """
    N = P.nvars
    L = level_data(P, N)
    if not _delta_stable(P0, L.delta):
        return None
    suffix = "" if P0.is_zero() else " (mod contraction)"
    ctx_R = P.ctx
    if not ideal_equal(P_I, extend(P0, ctx_R)):
        J = _coefficient_ideal(P_I, N - 1, L.pres_A.ctx)
        W = intersect(J, _contraction(P, Q_I, N - 1))
        for cand in _normal_candidates(L, W, modulo=P0):
            u = re_context(cand, ctx_R)
            if Q_I.member(u)[0] and not P_I.member(u)[0]:
                cert = _certificate(P, u, P_I)
                if cert.ok:
                    return u, "normal element of J cap Q" + suffix, cert
        return None
    Q0 = _contraction(P, Q_I, N - 1)
    if ideal_equal(Q0, P0):
        source = _coefficient_ideal(Q_I, N - 1, L.pres_A.ctx)
        route = "theta(a) x^s from J"
    else:
        source, route = Q0, "theta(a) x^s from Q cap A"
    G_A = L.pres_A.grading
    X = L.x()
    for cand in _normal_candidates(L, source, modulo=P0):
        try:
            u = _theta_series(L, _delta_iterates(L, cand, P0))
        except NotWithinBound:
            continue
        if u.is_zero():
            continue
        case = route
        if source is not Q0 and u == re_context(P0.normal_form(cand), ctx_R):
            # s = 0 in the J-route: x_N itself separates when delta vanishes
            if not all(P0.member(img)[0] for img in L.delta.images.values()):
                continue
            u, case = X, "x_N (delta = 0)"
        if not Q_I.member(u)[0] or P_I.member(u)[0]:
            continue
        cert = _certificate(P, u, P_I)
        if not cert.ok:
            continue
        if case == route:
            eta = pair(L.h_k, weight_of(G_A, cand))
            if not P_I.member(bracket(P.table, u, X) + eta * u * X)[0]:
                raise PcglError("constructed element failed {x, x_k} = -eta x x_k")
        return u, case + suffix, cert
    return None
