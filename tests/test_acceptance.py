"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact; every equality below is on-the-nose (tolerance
zero).  Stated runtime limits are asserted with wall-clock timers.
"""

import itertools
import time
from pcgl.cauchon import (
    d_element_search,
    check_theta,
    enumerate_hprimes,
    normal_element,
    theta,
)
from pcgl.cgl import level_data, verify_cgl
from pcgl.ideals import (
    Grevlex,
    Ideal,
    chain_report,
    dimension,
    eliminate,
    ideal_equal,
    is_h_stable,
    is_poisson_stable,
    poisson_closure,
    reduce_poly,
    saturate,
)
from pcgl.pbracket import BracketTable, bracket, check_jacobi, is_poisson_normal
from pcgl.qpoly import Monomial, Polynomial, VarTable, parse
from pcgl.strata import LogBracketMatrix, poisson_center_torus
from reference import d_element_from_normal, s_polynomial


def report(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start


def test_criterion_1_jacobi(bellsig):
    with Timer() as t:
        good = check_jacobi(bellsig.table)
        ctx = VarTable(("x", "y", "z"))
        perturbed = BracketTable(
            ctx, {(1, 0): parse("z", ctx), (2, 0): parse("x", ctx)}
        )
        bad = check_jacobi(perturbed)
    ok = (
        good.ok
        and not bad.ok
        and any(not r.is_zero() for (_, _, _, r) in bad.failures)
        and t.elapsed < 1.0
    )
    report(1, "Jacobi verification (pass on the fixture, fail with residual on the perturbed table)", ok)


def test_criterion_2_cgl(weyl, pplane, bellsig):
    with Timer() as t:
        rw = verify_cgl(weyl)
        rp = verify_cgl(pplane)
        rb = verify_cgl(bellsig)
    l4 = rb.levels[3]
    ok = (
        rw.ok
        and rp.ok
        and not rb.ok
        and l4.nilpotency[0] is None
        and l4.nilpotency[1] is None
        and not l4.h_ok
        and t.elapsed < 5.0
    )
    report(2, "tower verification (weyl and pplane pass; bellsig fails nilpotency and h at level 4)", ok)


def test_criterion_3_theta(weyl, pplane, m2):
    with Timer() as t:
        L = level_data(weyl, 2)
        golden = str(theta(L, parse("a", L.pres_A.ctx))) == "a - X^-1"
        reports = [
            check_theta(level_data(weyl, 2)),
            check_theta(level_data(pplane, 2)),
            check_theta(level_data(m2, 4)),
        ]
    ok = golden and all(r.ok for r in reports) and t.elapsed < 10.0
    report(3, "Cauchon map (golden value on weyl; 3 identities exactly on generators per fixture)", ok)


def test_criterion_4_normal_element(weyl):
    L = level_data(weyl, 2)
    res = normal_element(L, parse("a", L.pres_A.ctx))
    x = res.element
    X = L.x()
    cert = is_poisson_normal(L.pres_R.table, x)
    identity = bracket(L.pres_R.table, x, X) == -res.eta * x * X
    ok = (
        x == parse("a*X - 1", weyl.ctx)
        and cert.ok
        and set(cert.quotients) == {0, 1}
        and res.eta == -1
        and identity
    )
    report(4, "normal element theta(a) X^s = aX - 1 with certificates and eta = -1", ok)


def test_criterion_5_d_element(weyl):
    L = level_data(weyl, 2)
    via_formula = d_element_from_normal(L, parse("a", L.pres_A.ctx))
    via_search = d_element_search(L)
    b, c = via_formula.numerator, via_formula.denominator
    lam = L.lambda_k
    sigma_identity = L.sigma(b) * c - b * L.sigma(c) == lam * b * c
    delta_identity = L.delta(b) * c - b * L.delta(c) == -lam * b * b
    ok = (
        str(via_formula) == "1/a"
        and via_search is not None
        and b * via_search.denominator == via_search.numerator * c
        and sigma_identity
        and delta_identity
    )
    report(5, "d-element 1/a via both routes, with exact eigen-identities and agreement", ok)


def _m2_hand_count():
    """Independent combinatorial oracle for the m2 enumeration.

    Levels 1-3 carry no delta, so every node doubles: level-3 nodes are the
    8 variable subsets S of {a, b, c}.  At level 4 delta sends a to -2bc and
    kills b and c, so S is delta-stable iff a in S implies b in S or c in S;
    stable nodes double, unstable ones die.
    """
    count = 0
    for S in itertools.chain.from_iterable(
        itertools.combinations("abc", r) for r in range(4)
    ):
        stable = ("a" not in S) or ("b" in S or "c" in S)
        if stable:
            count += 2
    return count


def test_criterion_6_hprime_counts(weyl, pplane, m2):
    with Timer() as t:
        tw = enumerate_hprimes(weyl)
        tp = enumerate_hprimes(pplane)
        tm = enumerate_hprimes(m2)
        stability = True
        for presentation, tree in ((weyl, tw), (pplane, tp), (m2, tm)):
            for k, level in enumerate(tree.levels):
                table_k = presentation.restrict(k).table
                grading_k = presentation.grading.restrict(k)
                for node in level:
                    stability = (
                        stability
                        and is_h_stable(grading_k, node.ideal)
                        and is_poisson_stable(table_k, node.ideal)
                    )
    ok = (
        len(tw.leaves()) == 2
        and len(tp.leaves()) == 4
        and len(tm.leaves()) == 14
        and _m2_hand_count() == 14
        and stability
        and t.elapsed < 60.0
    )
    report(6, "H-prime counts 2 / 4 / 14 (m2 reproduced by the combinatorial oracle), all ideals stable", ok)


def test_criterion_7_poisson_closure(bellsig):
    ctx = bellsig.ctx
    x, y, z = (Polynomial.variable(ctx, i) for i in range(3))
    closed = poisson_closure(bellsig.table, Ideal(ctx, [x]))
    target = Ideal(ctx, [x, y * z])
    fix_xy = poisson_closure(bellsig.table, Ideal(ctx, [x, y]))
    fix_z = poisson_closure(bellsig.table, Ideal(ctx, [z]))
    ok = (
        set(closed.groebner()) == set(target.groebner())
        and ideal_equal(fix_xy, Ideal(ctx, [x, y]))
        and ideal_equal(fix_z, Ideal(ctx, [z]))
    )
    report(7, "Poisson closure <x> -> <x, yz>; <x,y> and <z> are fixpoints", ok)


def test_criterion_8_non_catenarity_data(bellsig):
    ctx = bellsig.ctx
    x, y, z = (Polynomial.variable(ctx, i) for i in range(3))
    long_chain = [
        Ideal.zero(ctx),
        Ideal(ctx, [z]),
        Ideal(ctx, [x, z]),
        Ideal(ctx, [x, y, z]),
    ]
    short_chain = [Ideal.zero(ctx), Ideal(ctx, [x, y]), Ideal(ctx, [x, y, z])]
    long_rep = chain_report(bellsig, long_chain)
    short_rep = chain_report(bellsig, short_chain)
    ok = (
        long_rep.length == 3
        and short_rep.length == 2
        and all(e.poisson for e in long_rep.entries + short_rep.entries)
        and all(
            e.primality["tag"] == "verified"
            for e in long_rep.entries + short_rep.entries
        )
        and long_rep.drops == [1, 1, 1]
        and long_rep.saturated_in_spec
        and short_rep.drops == [2, 1]
        and not short_rep.saturated_in_spec
    )
    report(8, "non-catenarity data: chains of length 3 and 2 between 0 and <x,y,z>; short chain drops 2 in Spec", ok)


def test_criterion_9_torus_centers():
    ctx2 = VarTable(("a", "X"))
    M1 = LogBracketMatrix(ctx2, ((0, -1), (1, 0)))
    cb1 = poisson_center_torus(M1)
    ctx3 = VarTable(("x1", "x2", "x3"))
    M2_ = LogBracketMatrix(ctx3, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    cb2 = poisson_center_torus(M2_)
    M3 = LogBracketMatrix(ctx3, ((0, -1, 1), (1, 0, 0), (-1, 0, 0)))
    cb3 = poisson_center_torus(M3)
    commute = True
    for M, cb in ((M1, cb1), (M2_, cb2), (M3, cb3)):
        lctx = VarTable(M.ctx.names, (True,) * len(M.entries))
        entries = {}
        for i in range(len(M.entries)):
            for j in range(i):
                if M.entries[i][j]:
                    entries[(i, j)] = Polynomial.monomial(
                        lctx, Monomial.make({i: 1, j: 1}), M.entries[i][j]
                    )
        table = BracketTable(lctx, entries)
        for vec in cb.kernel:
            mono = Polynomial.monomial(lctx, Monomial.make(dict(enumerate(vec))))
            for i in range(len(M.entries)):
                xi = Polynomial.variable(lctx, i)
                commute = commute and bracket(table, mono, xi).is_zero()
    ok = (
        cb1.rank == 0
        and cb2.rank == 3
        and cb3.kernel == ((0, 1, 1),)
        and commute
    )
    report(9, "torus centers: kernel ranks 0 / 3 / 1 by hand linear algebra; center monomials commute", ok)


def test_criterion_10_groebner_suite(weyl, pplane, bellsig, m2):
    order_ok = True
    # S-polynomial reduction to zero on the bases arising from the fixtures
    fixture_ideals = []
    ctx4 = bellsig.ctx
    x, y, z = (Polynomial.variable(ctx4, i) for i in range(3))
    fixture_ideals.append(poisson_closure(bellsig.table, Ideal(ctx4, [x])))
    fixture_ideals.append(Ideal(weyl.ctx, [parse("a*X - 1", weyl.ctx)]))
    for node in enumerate_hprimes(m2).leaves():
        fixture_ideals.append(node.ideal)
    for I in fixture_ideals:
        order = Grevlex()
        gb = I.groebner()
        for f, g in itertools.combinations(gb, 2):
            _, rem = reduce_poly(s_polynomial(f, g, order), list(gb), order)
            order_ok = order_ok and rem.is_zero()
    # golden saturation / elimination cases
    ctx3 = VarTable(("x", "y", "z"))
    sat = saturate(Ideal(ctx3, [parse("x*y", ctx3)]), parse("x", ctx3))
    weyl_sat = saturate(
        Ideal(weyl.ctx, [parse("a*X - 1", weyl.ctx)]), parse("a", weyl.ctx)
    )
    elim1 = eliminate(Ideal(weyl.ctx, [parse("a*X - 1", weyl.ctx)]), {0})
    elim2 = eliminate(Ideal(ctx3, [parse("x", ctx3), parse("y*z", ctx3)]), {1, 2})
    golden_ok = (
        set(sat.groebner()) == {parse("y", ctx3)}
        and set(weyl_sat.groebner()) == {parse("a*X - 1", weyl.ctx)}
        and elim1.is_zero()
        and set(elim2.groebner()) == {parse("y*z", ctx3)}
    )
    # dimensions of all 16 variable-subset ideals of the 4-variable fixture
    dims_ok = True
    for r in range(5):
        for subset in itertools.combinations(range(4), r):
            gens = [Polynomial.variable(ctx4, i) for i in subset]
            dims_ok = dims_ok and dimension(Ideal(ctx4, gens)) == 4 - r
    ok = order_ok and golden_ok and dims_ok
    report(10, "Groebner engine: S-polynomials reduce to zero; saturation/elimination golden cases; 16 subset dimensions", ok)
