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

import functools
import itertools
from fractions import Fraction

from .cgl import LevelData, PoissonPresentation, _delta_iterates, level_data, verify_cgl
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
    _GREVLEX,
    Elim,
    Ideal,
    adjoin_variable,
    contains,
    contract_to_prefix,
    extend,
    ideal_equal,
    inclusion_order,
    intersect,
    is_h_stable,
    is_poisson_stable,
    leading_monomial,
    primality,
    saturate,
)
from .pbracket import BracketTable, bracket, generator_brackets, is_poisson_normal
from .qpoly import (
    Monomial,
    Polynomial,
    _qdiv,
    _Value,
    re_context,
)


def _to_base(L: LevelData, a: Polynomial) -> Polynomial:
    """Coerce an element into the base ring A of the level."""
    if L.x_index in a.support():
        raise PreconditionError(f"element involves x_{L.k}, not in the base ring")
    return re_context(a, L.pres_A.ctx)


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


class ThetaReport:
    def __init__(self, images: dict[int, Polynomial], failures: list[dict] | None = None):
        self.images = images  # theta(x_j) for the generators x_j of A
        self.failures = [] if failures is None else failures

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
    hat_table = L.pres_R.table.re_context(L.hat_ctx)
    report = ThetaReport(images=images)
    for i, a in enumerate(gens):
        for j, b in enumerate(gens[: i + 1]):
            ta, tb = images[i], images[j]
            if theta(L, a * b) != ta * tb:
                report.failures.append({"identity": "multiplicative", "a": str(a), "b": str(b)})
            if j < i and theta(L, bracket(L.pres_A.table, a, b)) != bracket(hat_table, ta, tb):
                report.failures.append({"identity": "poisson", "a": str(a), "b": str(b)})
        if bracket(hat_table, X, images[i]) != theta(L, L.sigma(a)) * X:
            report.failures.append({"identity": "sigma-twist", "a": str(a)})
    return report


class NormalElementResult:
    def __init__(self, element: Polynomial, s: int, eta: Fraction, normality: object):
        self.element = element
        self.s = s
        self.eta = eta
        self.normality = normality

    def __str__(self):
        return str(self.element)


def _normal_input(L: LevelData, a: Polynomial):
    """The weight of a homogeneous Poisson-normal element a of A; a
    PreconditionError otherwise."""
    wa = weight_of(L.pres_A.grading, a)
    if wa is None:
        raise PreconditionError("input is not homogeneous")
    if not is_poisson_normal(L.pres_A.table, a).ok:
        raise PreconditionError("input is not Poisson-normal in the base ring")
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


class DElement(_Value):
    """A fraction b/c over the base ring A with sigma(d) = lambda d and
    delta(d) = -lambda d^2 (held as cross-multiplied identities); immutable,
    compared and hashed by (numerator, denominator), not as a fraction."""

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

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
    g = functools.reduce(Monomial.gcd, itertools.chain(b.terms, c.terms))
    if g.exps:
        b = Polynomial(b.ctx, {m.divide(g): x for m, x in b.terms.items()})
        c = Polynomial(c.ctx, {m.divide(g): x for m, x in c.terms.items()})
    inv = _qdiv(1, c.terms[leading_monomial(c, _GREVLEX)])
    return DElement(b * inv, c * inv)


def validate_d_element(L: LevelData, d: DElement, modulo: Ideal | None = None) -> bool:
    """Check the defining invariants of d as exact (cross-multiplied)
    polynomial identities, reduced modulo the given ideal."""
    ctx_A = L.pres_A.ctx
    Q = modulo if modulo is not None else Ideal.zero(ctx_A)
    b, c = d.numerator, d.denominator
    if c.is_zero() or Q.member(c)[0]:
        return False
    if d.is_zero():
        return True  # both identities below are identically 0 at b = 0
    G_A = L.pres_A.grading
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


def _normal_atoms(L: LevelData, Q: Ideal, candidates, memo: dict | None = None):
    """Yield the candidates that are Poisson-normal homogeneous elements of
    A/Q, in their given order (d-search atoms, or normal candidates).
    Zero candidates, those in Q and repeats are skipped.  The check is
    lazy: a caller that stops at an accepted atom never examines the
    candidates after it, and `d_element_search` asks for its atoms only
    once its zero guess has failed.

    With a `memo` dict (the separation search passes L.pres_R._cache), each
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
    """The guess b/c, b reduced modulo Q, as a validated DElement, or None.
    Its defining property {d, x_j} = sigma(x_j) d + delta(x_j), times c^2,
    is checked exactly on every generator x_j of A, with sigma and delta on
    x_j their stored images: {b, x_j} c - b {c, x_j} - sigma(x_j) b c -
    delta(x_j) c^2 in Q.  When b is 0 modulo Q that is -delta(x_j) c^2 in Q,
    tested with no bracket sweep; on the zero guess: delta(x_j) in Q for
    every x_j."""
    b, c = Q.normal_form(guess.numerator), guess.denominator
    n, cc = len(L.pres_A.ctx), c * c
    if b.is_zero():
        residuals = (-(L.delta.images[j] * cc) for j in range(n))
    else:
        b_brs = generator_brackets(L.pres_A.table, b)
        c_brs = generator_brackets(L.pres_A.table, c)
        bc = b * c
        residuals = (
            b_brs[j] * c - b * c_brs[j] - L.sigma.images[j] * bc - L.delta.images[j] * cc
            for j in range(n)
        )
    if not all(Q.member(r)[0] for r in residuals):
        return None
    d = _normalize_fraction(b, c)
    return d if validate_d_element(L, d, Q) else None


def d_element_search(
    L: LevelData, modulo: Ideal | None = None, extra_normals=()
) -> DElement | None:
    """The d-element over A/modulo, by an exact check per candidate d.

    The candidates are the zero fraction 0/1, then the closed form d* =
    delta(a) / (lambda s a) (Goodearl-Launois 2011) of each Poisson-normal
    homogeneous atom a of A/Q whose delta-iterates modulo Q reach index
    s >= 1.  The atoms are the variables, then the extra normals (the
    lineage's pool, which `enumerate_hprimes` passes), each moved into A
    on use.  The delta-iterates come first: an atom that stops at s = 0
    never has its normality certified.  Each candidate b/c is checked
    against the defining property {b/c, g} = sigma(g) b/c + delta(g),
    cross-multiplied, modulo the ideal (`_try_denominator`).  The search
    stops at the first candidate that passes, and examines an atom only
    once every earlier guess has failed.  A returned d always passes
    `validate_d_element` and is the unique d by the eigencondition; None
    means the atoms ran out, never that no d exists.
    """
    ctx_A = L.pres_A.ctx
    Q = modulo if modulo is not None else Ideal.zero(ctx_A)
    d = _try_denominator(L, Q, DElement(Polynomial.zero(ctx_A), Polynomial.constant(ctx_A, 1)))
    if d is not None:
        return d
    atoms = itertools.chain(
        (Polynomial.variable(ctx_A, j) for j in range(len(ctx_A))),
        (Q.normal_form(re_context(e, ctx_A)) for e in extra_normals),
    )
    iterates = {}

    def reaching_s1():
        # the candidates whose delta-iterates modulo Q reach s >= 1, lazily
        for a in atoms:
            try:
                iterates[a] = _delta_iterates(L, a, Q)
            except NotWithinBound:
                continue
            if len(iterates[a]) > 1:
                yield a

    for a in _normal_atoms(L, Q, reaching_s1()):
        d = _try_denominator(L, Q, _closed_form_d(L, iterates[a]))
        if d is not None:
            return d
    return None


def second_lift(L: LevelData, P0: Ideal, d: DElement) -> Ideal:
    """The second Poisson H-prime over P0: the contraction of (X - d),
    computed as the saturation ((c x_k - b) + P0 R : c^infinity).  For the
    zero fraction (b = 0, c a nonzero constant) that is the x-node
    P0 R + (x_k), built from P0's reduced basis with no Groebner run
    (`adjoin_variable`), under the same checks.

    P0 is a Poisson ideal of A, by an earlier exact check.  The contraction
    is checked before Poisson stability, which then tests only the brackets
    that the check of P0 in A does not already cover (`is_poisson_stable`,
    base=).
    """
    ctx_R = L.pres_R.ctx
    c = d.denominator
    below = extend(P0, ctx_R)
    if d.is_zero() and c.is_constant() and c:
        I = adjoin_variable(below, L.x_index)
    else:
        c_R = re_context(c, ctx_R)
        b_R = re_context(d.numerator, ctx_R)
        I = saturate(Ideal(ctx_R, [c_R * L.x() - b_R, *below.generators]), c_R)
    if not I.is_proper():
        raise SecondLiftError("second lift is the unit ideal; invalid d")
    result = I.reduced()
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


class HPrimeNode:
    def __init__(
        self,
        level: int,
        ideal: Ideal,
        parent: HPrimeNode | None = None,
        branch: str = "root",
        d: DElement | None = None,
        flags: list[str] | None = None,
        notes: list[str] | None = None,
        prime: dict | None = None,
        normal_pool: tuple = (),
    ):
        self.level = level
        self.ideal = ideal
        self.parent = parent
        self.branch = branch
        self.d = d
        self.flags = [] if flags is None else flags
        self.notes = [] if notes is None else notes
        self.prime = {} if prime is None else prime
        # normal elements discovered along this lineage, used as denominator
        # atoms for deeper d-searches; each stays in the ring where it was found
        self.normal_pool = normal_pool

    def label(self) -> str:
        gens = self.ideal.generator_strings()
        return "<" + ", ".join(gens) + ">" if gens else "0"


class HPrimeTree:
    def __init__(self, levels: list[list[HPrimeNode]]):
        self.levels = levels

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
        """Hasse diagram of the top-level poset: the covers of the inclusion
        order of its leaves (`inclusion_order`)."""
        leaves = self.leaves()
        _, covers = inclusion_order([leaf.ideal for leaf in leaves])
        nodes = [f'  n{i} [label="{leaf.label()}"];' for i, leaf in enumerate(leaves)]
        edges = [f"  n{i} -> n{j};" for i, up in enumerate(covers) for j in up]
        return "\n".join(["digraph hprimes {", "  rankdir=BT;", *nodes, *edges, "}"]) + "\n"


def enumerate_hprimes(P: PoissonPresentation) -> HPrimeTree:
    """Level-by-level enumeration of the torus-stable Poisson primes.

    Starting from the zero ideal of the base field, every delta-stable node
    always lifts to the induced ideal, and additionally to the second lift
    when the d-element search succeeds; nodes that are not delta-stable have
    no lifts.  A zero d gives the x-node P0 R + (x_k), built from P0's
    reduced basis under the same checks (`second_lift`).  Every emitted
    ideal is machine-checked to be torus-stable and Poisson-stable;
    primality is asserted from the theory and verified where cheap.  An
    inconclusive d-search, or a Groebner step budget that runs
    out while a node is lifted, annotates the node instead of halting; a
    child whose checks did not finish is not emitted, so the output can
    under- but never over-count.
    """
    if not verify_cgl(P).ok:
        raise PreconditionError("presentation fails the tower axioms")
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
    child = HPrimeNode(
        level=k, ideal=induced, parent=node, branch="induced", normal_pool=node.normal_pool
    )
    child.prime = primality(induced)
    out.append(child)
    d = d_element_search(L, modulo=Q, extra_normals=node.normal_pool)
    if d is None:
        node.flags.append(f"d-search inconclusive at level {k}; possibly missing branch")
        return
    lifted = second_lift(L, Q, d)
    x_normal = re_context(d.denominator, ctx_k) * L.x() - re_context(d.numerator, ctx_k)
    child.normal_pool = pool_up = node.normal_pool + (x_normal,)
    child2 = HPrimeNode(
        level=k, ideal=lifted, parent=node, branch="d-branch", d=d, normal_pool=pool_up
    )
    child2.prime = primality(lifted)
    out.append(child2)


# ---------------------------------------------------------------------------
# Full deletion
# ---------------------------------------------------------------------------


def delete_all(P: PoissonPresentation) -> PoissonPresentation:
    """The fully deleted presentation: same generators, grading and Lie
    data, with every bracket reduced to its quadratic part
    {x_i, x_j} = <h_i, deg x_j> x_i x_j (all deltas vanish)."""
    if not verify_cgl(P).ok:
        raise PreconditionError("presentation fails the tower axioms")
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


class SeparationResult:
    def __init__(self, element: Polynomial, case: str, normality: object):
        self.element = element
        self.case = case
        self.normality = normality

    def __str__(self):
        return str(self.element)


def _normal_candidates(L: LevelData, W: Ideal, modulo: Ideal):
    """Yield the homogeneous elements of W's reduced grevlex basis, W an
    ideal of A, that are Poisson-normal modulo the ideal `modulo` of A
    (which may be 0), by total degree, then text.  Normality is checked
    lazily, so the candidates after the first one a caller accepts are
    never examined.  The sorted candidate list is built once per ideal W:
    memoized in L.pres_R._cache, the presentation's own at the top level,
    under W's reduced grevlex basis."""

    def compute():
        homogeneous = [g for g in W.groebner() if weight_of(L.pres_A.grading, g) is not None]
        return tuple(sorted(homogeneous, key=lambda g: (g.total_degree(), str(g))))

    cache = L.pres_R._cache
    candidates = _memo(cache, ("candidates", W.groebner()), compute)
    yield from _normal_atoms(L, modulo, candidates, memo=cache)


def _delta_stable(P0: Ideal, delta) -> bool:
    return all(P0.member(delta(g))[0] for g in P0.groebner())


def _split(P: PoissonPresentation, I: Ideal):
    """(I0, J, I == I0 R, I0 delta_N-stable) for an ideal I of R, with
    I0 = I cap A its contraction and J = {a in A : a x_N + e in I for some
    e in A} its coefficient ideal, computed once per ideal: memoized in
    P._cache under I's reduced grevlex basis.  All four are read off I's
    basis in the order Elim({x_N}) (the Elimination Theorem, Cox-Little-
    O'Shea §3.1), which `contract_to_prefix` computes and caches on I: I0 is
    its part free of x_N; J is generated by its elements of x_N-degree 0
    and the x_N-coefficients of those of degree 1, in basis order; and
    I = I0 R exactly when no element involves x_N."""
    x = P.nvars - 1

    def compute():
        I0 = contract_to_prefix(I, x)
        basis = I.groebner(Elim({x}))
        gens = []
        for g in basis:
            e = g.degree_in(x)
            if e <= 1:
                gens.append(re_context(g.split_by_degree_in(x)[1] if e else g, I0.ctx))
        extended = all(x not in g.support() for g in basis)
        return I0, Ideal(I0.ctx, gens), extended, _delta_stable(I0, level_data(P, P.nvars).delta)

    return _memo(P._cache, ("split", I.groebner()), compute)


def separating_normal(P: PoissonPresentation, P_ideal, Q_ideal) -> SeparationResult | None:
    """A Poisson-normal eigenvector of R/P lying in Q/P, or None when no
    reduced-basis element tried is one (nonexistence is never claimed).

    Precondition: P0 = P cap A, the contraction to the ring A below the
    top variable x_N, is delta_N-stable.  Every torus-stable Poisson P
    meets it (sigma(a) x_N + delta(a) in P and sigma(a) in P0 give
    delta(a) in P0); on other inputs, which are not checked to be Poisson
    or torus-stable, the search returns None when it fails.

    The case analysis runs over A/P0, where P0 may be 0, and takes every
    reduction in A modulo P0 rather than in a literal quotient
    presentation.  When P is larger than P0 R, a normal element of J cap Q
    separates, with J the coefficient ideal of P.  Otherwise R/P is a
    tower over A/P0 and the element is theta(a) x_N^s, for a normal
    element a of Q cap A when that is larger than P0, else of the
    coefficient ideal of Q; when s = 0 there, x_N itself separates if
    delta vanishes modulo P0.  Every theta(a) x_N^s returned is checked
    against {u, x_N} = -eta u x_N modulo P, with eta = <h_N, weight of a>.
    Case labels carry " (mod contraction)" when P0 is not 0.

    A sweep over many pairs repeats most of the work of one pair, so each
    piece is computed once per presentation and kept in P._cache, keyed by
    the reduced grevlex bases of the ideals involved: each ideal's
    contraction, coefficient ideal, test I = I0 R and delta-stability of
    I0 (`_split`), the certificate of an element in R modulo P
    (`_certificate`), each sorted candidate list (`_normal_candidates`),
    each candidate's verdict in A (`_normal_atoms`), and each candidate's
    theta(a) x_N^s modulo P0.  A search that raises, its step budget run
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
    if P.nvars == 0:
        return None
    result = _separating_normal_mod(P, P_I, Q_I)
    if result is None:
        return None
    u, case, cert = result
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


def _memo(cache: dict, key, compute):
    """cache[key], from compute() on the first call.  A computation that
    raises, such as one whose step budget runs out, stores nothing."""
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _separating_normal_mod(P, P_I, Q_I):
    """The case analysis of `separating_normal`: (u, case, certificate), or
    None."""
    L = level_data(P, P.nvars)
    P0, J, extended, stable = _split(P, P_I)
    if not stable:
        return None
    Q0, J_Q, _, _ = _split(P, Q_I)
    suffix = "" if P0.is_zero() else " (mod contraction)"
    ctx_R = P.ctx
    if not extended:
        for cand in _normal_candidates(L, intersect(J, Q0), modulo=P0):
            u = re_context(cand, ctx_R)
            if Q_I.member(u)[0] and not P_I.member(u)[0]:
                cert = _certificate(P, u, P_I)
                if cert.ok:
                    return u, "normal element of J cap Q" + suffix, cert
        return None
    if ideal_equal(Q0, P0):
        source, route = J_Q, "theta(a) x^s from J"
    else:
        source, route = Q0, "theta(a) x^s from Q cap A"
    G_A = L.pres_A.grading
    X = L.x()
    for cand in _normal_candidates(L, source, modulo=P0):
        key = ("theta", cand, P0.groebner())
        try:
            u = _memo(P._cache, key, lambda: _theta_series(L, _delta_iterates(L, cand, P0)))
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
