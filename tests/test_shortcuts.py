"""Each shortcut of the ideal commands against the long route it replaces.

- `saturate(I, f, keep=k)` eliminates the auxiliary variable and the
  variables after x_k at once; the long route saturates, then contracts.
- `h_core` saturates and contracts in one elimination; the long route,
  written out here from public functions, does it in two.
- `h_core` returns a graded ideal with its reduced basis, with no
  saturation; the long route twists and saturates every input.
- `bracket(B, x_i, g)` reads the brackets of a generator x_i from row i of
  the table; the long route sweeps x_i's one term for them.
- `poisson_closure` brackets only the basis elements it has not checked
  in an earlier round; the naive loop here brackets every element in every
  round.
- `chain_report` skips the basis elements of an entry that are basis
  elements of the previous entry once that entry is Poisson, and the
  brackets with its variables; each flag must equal the full check of the
  entry alone.  It tests strictness only on a link of equal dimensions,
  and `contains` counts a basis element as a member with no division; the
  long route divides for both inclusions of every link.
- `dimension` is n minus the least transversal of the leading-monomial
  supports; the long route searches every set of variables
  (`reference.subset_dimension`).
- The Buchberger loop never forms a pair with coprime leading monomials,
  and the cofactors of a lift stay as first recorded.
- The separation search reads an ideal's contraction, coefficient ideal,
  test I = I0 R and delta-stability off one elimination basis
  (`cauchon._split`); the long routes here contract, collect the
  coefficient ideal and extend each on a fresh copy of the ideal.
- The d-search tests a guess b/c whose b is 0 modulo Q with no bracket
  sweep, and `validate_d_element` skips the two identities of a zero d;
  the general cross-multiplied formula here brackets every b and c.
"""

import hashlib
import random
from collections import Counter

import pytest

from pcgl import ideals
from pcgl.cauchon import (
    DElement,
    _delta_stable,
    _normalize_fraction,
    _split,
    _try_denominator,
    enumerate_hprimes,
    validate_d_element,
)
from pcgl.cgl import level_data
from pcgl.errors import PcglError, UnitIdeal
from pcgl.grading import monomial_weight, weight_of
from pcgl.ideals import (
    ChainEntry,
    ChainReport,
    Elim,
    Grevlex,
    Ideal,
    buchberger,
    chain_report,
    contract_to_prefix,
    dimension,
    extend,
    h_core,
    ideal_equal,
    inclusion_order,
    is_h_stable,
    is_poisson_stable,
    lift_through_ideal,
    poisson_closure,
    primality,
    saturate,
)
from pcgl.pbracket import bracket, generator_brackets
from pcgl.qpoly import Monomial, Polynomial, parse, re_context
from random_poly import random_polynomial
from reference import partial, subset_dimension
from test_matrices import matrix_presentation, tower

TOWERS = ["m2", "weyl", "pplane", "2x3"]


def random_element(rng, ctx):
    """A random polynomial of degree at most 2 without a constant term,
    so that the ideals it generates are proper; never zero."""
    while True:
        f = random_polynomial(rng, ctx, 2, 2)
        f = f - Polynomial.constant(ctx, f.terms.get(Monomial.make({}), 0))
        if not f.is_zero():
            return f


def random_ideal(rng, ctx, count=2):
    return Ideal(ctx, [random_element(rng, ctx) for _ in range(count)])


@pytest.mark.parametrize("name", TOWERS)
def test_saturate_keep_is_saturate_then_contract(name):
    P = tower(name)
    rng = random.Random(name)
    n = len(P.ctx)
    for _ in range(3):
        I = random_ideal(rng, P.ctx)
        f = random_element(rng, P.ctx)
        full = saturate(I, f)
        for k in range(n + 1):
            assert saturate(I, f, keep=k).generators == contract_to_prefix(full, k).generators
    # a constant f saturates nothing, and still contracts
    one = Polynomial.constant(P.ctx, 3)
    assert saturate(I, one, keep=1).generators == contract_to_prefix(I, 1).generators


def test_saturate_refuses_keep_out_of_range(m2):
    n = len(m2.ctx)
    I = Ideal(m2.ctx, [parse("a*d - b*c", m2.ctx)])
    for keep in (-1, n + 1):
        with pytest.raises(PcglError, match=f"keep must lie in 0..{n}"):
            saturate(I, parse("a", m2.ctx), keep=keep)
    with pytest.raises(PcglError, match="^cannot saturate at zero$"):
        saturate(I, Polynomial.zero(m2.ctx))


def two_step_core(G, I):
    """h_core's torus core by the long route: twist the generators by one
    parameter per grading row, saturate at their product, then contract."""
    r, n = G.rank, len(I.ctx)
    if r == 0 or not I.generators:
        return I
    up = I.ctx.extend(tuple(f"t{k + 1}" for k in range(r)))
    twisted = []
    for g in I.generators:
        weights = {m: monomial_weight(G, m) for m in g.terms}
        low = [min(w[k] for w in weights.values()) for k in range(r)]
        terms = {}
        for m, c in g.terms.items():
            exps = dict(m.exps)
            exps.update({n + k: weights[m][k] - low[k] for k in range(r) if weights[m][k] > low[k]})
            terms[Monomial.make(exps)] = c
        twisted.append(Polynomial(up, terms))
    tprod = Polynomial.constant(up, 1)
    for k in range(r):
        tprod = tprod * Polynomial.variable(up, n + k)
    return contract_to_prefix(saturate(Ideal(up, twisted), tprod), n)


@pytest.mark.parametrize("name", TOWERS)
def test_h_core_is_the_two_step_core(name, monkeypatch):
    P = tower(name)
    G = P.grading
    rng = random.Random(name)
    names = P.ctx.names
    saturations = []
    real_saturate = ideals.saturate

    def counted(*args, **kwargs):
        saturations.append(args)
        return real_saturate(*args, **kwargs)

    monkeypatch.setattr(ideals, "saturate", counted)
    for _ in range(4):
        a, b = rng.sample(names, 2)
        gens = [random_element(rng, P.ctx), parse(f"{a} + {rng.randint(1, 3)}*{b}", P.ctx)]
        I = Ideal(P.ctx, gens)
        saturations.clear()
        assert h_core(G, I).generators == two_step_core(G, I).generators
        # a non-graded input is saturated, once
        assert len(saturations) == (0 if is_h_stable(G, I) else 1)
    assert not is_h_stable(G, I)
    # graded inputs whose generators are not all homogeneous: an H-prime Q
    # and a + c*b with a in Q and b of another weight outside it; h_core
    # returns I itself and saturates nothing
    graded = 0
    for node in enumerate_hprimes(P).leaves():
        Q = node.ideal
        inside = [v for v in names if Q.member(parse(v, P.ctx))[0]]
        if not inside or len(inside) == len(names):
            continue
        a = rng.choice(inside)
        others = [v for v in names if v not in inside and weight_of(G, parse(f"{a} + {v}", P.ctx)) is None]
        if not others:
            continue
        linear = parse(f"{a} + {rng.randint(1, 3)}*{rng.choice(others)}", P.ctx)
        I = Ideal(P.ctx, [*Q.generators, linear])
        assert is_h_stable(G, I) and weight_of(G, linear) is None
        saturations.clear()
        core = h_core(G, I)
        assert not saturations
        assert core.generators == two_step_core(G, I).generators == I.groebner()
        graded += 1
    # weyl's H-primes hold no variable
    assert graded == {"m2": 11, "weyl": 0, "pplane": 2, "2x3": 41}[name]


def naive_closure(B, I):
    """The Poisson closure with a fresh basis each round and every basis
    element bracketed with every generator in every round; returns the
    basis of each round, the last one the closure's, and the adjoined
    elements."""
    ctx = I.ctx
    current = Ideal(ctx, I.generators)
    bases = []
    adjoined = []
    while True:
        gb = current.groebner()
        bases.append(gb)
        new = []
        for g in gb:
            for h in generator_brackets(B, g):
                r = current.normal_form(-h)  # {x_i, g} = -{g, x_i}
                if not r.is_zero():
                    new.append(r)
        if not new:
            return bases, adjoined
        adjoined.extend(new)
        current = Ideal(ctx, list(gb) + new)


# the most rounds that adjoin something among the sampled closures; in the
# quantum plane pplane every principal closure is done after one
@pytest.mark.parametrize("name, rounds", [
    ("bellsig", 2), ("m2", 2), ("weyl", 2), ("pplane", 1), ("2x3", 2),
])
def test_poisson_closure_matches_the_naive_loop(name, rounds):
    P = tower(name)
    rng = random.Random(name)
    most = 0
    for _ in range(8):
        I = random_ideal(rng, P.ctx, 1)
        closed, adjoined = poisson_closure(P.table, I, trace=True)
        bases, naive = naive_closure(P.table, I)
        assert closed.generators == bases[-1]
        assert adjoined == naive
        most = max(most, len(bases) - 1)
    # from the second round on, the elements checked earlier are skipped
    assert most == rounds


def swept_bracket(B, f, g):
    """{f, g} = sum_j {f, x_j} * dg/dx_j, with every {f, x_j} from one
    sweep over the terms of f."""
    out = Polynomial.zero(g.ctx)
    for j, h in enumerate(generator_brackets(B, f)):
        out = out + h * partial(g, j)
    return out


def bracket_table(name):
    """The tower's bracket table; pplane's over theta's Laurent table of
    level 2, where X is Laurent."""
    P = tower(name)
    if name != "pplane":
        return P.table
    L = level_data(P, 2)
    return L.pres_R.table.re_context(L.hat_ctx)


def counted_sweeps(monkeypatch):
    """A list that grows by one on each `generator_brackets` call made
    inside `pbracket`."""
    from pcgl import pbracket

    calls = []
    real = pbracket.generator_brackets
    monkeypatch.setattr(pbracket, "generator_brackets", lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.mark.parametrize("name", ["weyl", "pplane", "m2", "2x3"])
def test_generator_bracket_is_the_table_row(name, monkeypatch):
    B = bracket_table(name)
    ctx = B.ctx
    rng = random.Random(name)
    sweeps = counted_sweeps(monkeypatch)
    for i in range(len(ctx)):
        x = Polynomial.variable(ctx, i)
        for _ in range(4):
            g = random_polynomial(rng, ctx)
            for k in range(len(ctx)):
                if ctx.laurent[k]:
                    g = g * Polynomial.monomial(ctx, Monomial.make({k: -rng.randint(0, 2)}))
            assert bracket(B, x, g) == swept_bracket(B, x, g)
    assert not sweeps


@pytest.mark.parametrize("text", ["a^2*X^-1", "2*a", "a^2", "X^-1", "a*X"])
def test_a_term_that_is_no_generator_is_swept(text, monkeypatch):
    # a^2*X^-1 has degree 1 and coefficient 1, yet is no generator
    B = bracket_table("pplane")
    ctx = B.ctx
    f, g = parse(text, ctx), parse("a^2*X - 3*a*X^-2 + X", ctx)
    sweeps = counted_sweeps(monkeypatch)
    assert bracket(B, f, g) == swept_bracket(B, f, g)
    assert len(sweeps) == 1


# closures in which a basis element checked in one round comes back with
# the same leading monomial and a new tail in the next: that element was
# never bracketed and must be
CHANGED_TAILS = [
    ("bellsig", ["x*z", "y*z - 3*w"]),
    ("m2", ["4*a^2 - 3*a", "4*a - c"]),
    ("pplane", ["a + 6*X", "a^2 - X"]),
    ("2x3", ["3*x12^2 - x21", "2*x12 - 5*x21"]),
]


@pytest.mark.parametrize("name, texts", CHANGED_TAILS)
def test_poisson_closure_brackets_a_changed_tail(name, texts):
    P = tower(name)
    I = Ideal(P.ctx, [parse(t, P.ctx) for t in texts])
    closed, adjoined = poisson_closure(P.table, I, trace=True)
    bases, naive = naive_closure(P.table, I)
    assert closed.generators == bases[-1]
    assert adjoined == naive
    order = Grevlex()
    lms = [{ideals.leading_monomial(g, order): g for g in gb} for gb in bases]
    assert any(
        lms[k].get(lm, g) != g for k in range(len(bases) - 1) for lm, g in lms[k + 1].items()
    )


def long_contains(I, J):
    """J inside I, every generator of J divided by I's basis."""
    return all(I.member(g)[0] for g in J.generators)


def long_chain_report(P, chain):
    """`chain_report`'s JSON by the long route: both inclusions of every
    link by division, each dimension by the subset search and each Poisson
    flag by the full check of the entry alone."""
    for a, b in zip(chain, chain[1:]):
        assert long_contains(b, a) and not long_contains(a, b)
    dims = [subset_dimension(I) for I in chain]
    drops = [d - e for d, e in zip(dims, dims[1:])]
    entries = [
        ChainEntry(I.generator_strings(), is_poisson_stable(P.table, I),
                   is_h_stable(P.grading, I), d, primality(I))
        for I, d in zip(chain, dims)
    ]
    report = ChainReport(entries, drops, len(chain) - 1, bool(drops) and set(drops) == {1})
    return report.to_json_dict()


def test_chain_flags_are_the_full_checks(bellsig):
    # (x) is not Poisson: its bracket with w is -2*y*z.  (x, z^2) is not
    # Poisson either, and its only failing basis element x lies in (x), so
    # a skip that also fired below a non-Poisson entry would call it Poisson.
    # (x, w) holds x and w but is not Poisson, and (x, w, y^2) fails only on
    # {w, x} = 2*y*z: a skip of the brackets with the variables of an entry
    # that is not Poisson would call it Poisson.  (x*y) inside (x) is strict,
    # though both have dimension 3
    ctx = bellsig.ctx

    def ideal(*texts):
        return Ideal(ctx, [parse(t, ctx) for t in texts])

    chains = [
        [ideal(), ideal("x"), ideal("x", "z^2")],
        [ideal(), ideal("x"), ideal("x", "y*z"), ideal("x", "y*z", "z^2")],
        [ideal("z"), ideal("z", "x"), ideal("z", "x", "y"), ideal("z", "x", "y", "w")],
        [ideal("y*z"), ideal("y", "z"), ideal("x", "y", "z")],
        [ideal(), ideal("x", "w"), ideal("x", "w", "y^2")],
        [ideal("x*y"), ideal("x")],
    ]
    seen = Counter()
    for chain in chains:
        report = chain_report(bellsig, chain)
        assert report.to_json_dict() == long_chain_report(bellsig, chain)
        flags = [e.poisson for e in report.entries]
        seen.update(zip(flags, flags[1:]))
        seen.update(f"drop {d}" for d in report.drops)
    assert seen[(False, False)] and seen[(True, True)] and seen[(False, True)]
    assert seen["drop 0"] and seen["drop 1"] and seen["drop 2"]


@pytest.mark.parametrize("name", TOWERS)
def test_chain_flags_on_random_chains(name):
    P = tower(name)
    rng = random.Random(name)
    for _ in range(3):
        gens = [Polynomial.variable(P.ctx, rng.randrange(len(P.ctx)))]
        chain = [Ideal(P.ctx, gens)]
        for _ in range(2):
            gens = gens + [random_element(rng, P.ctx)]
            I = Ideal(P.ctx, gens)
            if not I.is_proper() or ideals.contains(chain[-1], I):
                break
            chain.append(I)
        report = chain_report(P, chain)
        assert [e.poisson for e in report.entries] == [is_poisson_stable(P.table, I) for I in chain]


def test_dimension_is_the_subset_search():
    leaves = [leaf.ideal for P in (tower("2x3"), matrix_presentation(3, 3))
              for leaf in enumerate_hprimes(P).leaves()]
    assert len(leaves) == 46 + 230
    for I in leaves:
        assert dimension(I) == subset_dimension(I)
    rng = random.Random("dimension")
    proper = 0
    for name in TOWERS + ["bellsig"]:
        ctx = tower(name).ctx
        for _ in range(25):
            I = random_ideal(rng, ctx, rng.randint(1, 3))
            if I.is_proper():
                proper += 1
                assert dimension(I) == subset_dimension(I)
    assert proper > 100
    # squarefree monomial ideals: their leading monomials are their minimal
    # generators, so any antichain of supports on 8 variables can occur
    ctx = tower("2x3").ctx.extend(("u", "v"))
    dims = Counter()
    for _ in range(300):
        supports = [rng.sample(range(8), rng.randint(1, 3)) for _ in range(rng.randint(1, 10))]
        I = Ideal(ctx, [Polynomial.monomial(ctx, Monomial.make(dict.fromkeys(s, 1)))
                        for s in supports])
        dims[dimension(I)] += 1
        assert dimension(I) == subset_dimension(I)
    assert len(dims) >= 6
    unit = Ideal(ctx, [Polynomial.constant(ctx, 2)])
    with pytest.raises(UnitIdeal):
        dimension(unit)
    with pytest.raises(PcglError):
        subset_dimension(unit)


@pytest.mark.parametrize("name", ["m2", "2x3"])
def test_chain_report_is_the_long_route(name):
    P = tower(name)
    leaves = [leaf.ideal for leaf in enumerate_hprimes(P).leaves()]
    _, covers = inclusion_order(leaves)
    rng = random.Random(name)
    lengths = Counter()
    for _ in range(30):
        i = rng.randrange(len(leaves))
        path = [i]
        while covers[i] and rng.random() < 0.8:
            i = rng.choice(covers[i])
            path.append(i)
        # fresh entries compute their bases, as `pcgl chain` does
        chain = [Ideal(P.ctx, leaves[i].generators) for i in path]
        long = long_chain_report(P, [Ideal(P.ctx, leaves[i].generators) for i in path])
        assert chain_report(P, chain).to_json_dict() == long
        lengths[len(path) - 1] += 1
    assert len(lengths) >= 3


LIFT_DIGEST = "f2c6e51786ff8ff54fbaf8d92b315ed3a8d3fb266e6b56c23533ad7f1f24c8c4"


def test_no_coprime_pair_and_the_same_cofactors(monkeypatch):
    P = matrix_presentation(2, 3)
    ctx = P.ctx

    def p(text):
        return parse(text, ctx)

    formed = []
    original = ideals._add_pair

    def spy(pairs, lms, sugars, i, j, order):
        original(pairs, lms, sugars, i, j, order)
        if (i, j) in pairs:
            formed.append(lms[i].is_coprime(lms[j]))

    monkeypatch.setattr(ideals, "_add_pair", spy)
    gens = [p("x12*x21 - x11*x22"), p("x13*x22 - x12*x23 + x11")]
    modulo = Ideal(ctx, [p("x13*x21 - x11*x23"), p("x23^2")])
    targets = generator_brackets(P.table, gens[0]) + generator_brackets(P.table, gens[1])
    targets.append(p("x11*x23*x12 - x13*x21*x12"))
    # through c = gens[0], with gens[1] joined to the modulus
    c, M = gens[0], Ideal(ctx, [gens[1], *modulo.generators])
    lifts = lift_through_ideal(c, targets, modulo=M)
    buchberger(gens + list(modulo.generators), Grevlex())
    assert formed and not any(formed)
    full = Ideal(ctx, [c, *M.generators])
    for f, q in zip(targets, lifts):
        assert (q is None) == (not full.member(f)[0])
        assert lift_through_ideal(c, [f], modulo=M) == [q]
        if q is not None:
            assert M.member(f - q * c)[0]
    assert sum(q is not None for q in lifts) == 9
    text = repr([None if q is None else str(q) for q in lifts])
    assert hashlib.sha256(text.encode()).hexdigest() == LIFT_DIGEST


def test_a_pair_of_one_term_elements_takes_no_step(monkeypatch):
    # the S-polynomial of two one-term basis elements is 0, and `_divide`
    # returns a zero dividend with no step: the reduced basis, the lift's
    # cofactors and the step count are those of a loop that skips the pair
    ctx = matrix_presentation(2, 3).ctx

    def p(text):
        return parse(text, ctx)

    zero_dividend_steps, ticks = [], [0]
    divide, tick = ideals._divide, ideals._Budget.tick

    def spy_divide(f, *args):
        before = ticks[0]
        rem = divide(f, *args)
        if f.is_zero():
            zero_dividend_steps.append(ticks[0] - before)
        return rem

    def spy_tick(budget):
        ticks[0] += 1
        tick(budget)

    monkeypatch.setattr(ideals, "_divide", spy_divide)
    monkeypatch.setattr(ideals._Budget, "tick", spy_tick)
    gens = [p("x11*x22"), p("x11*x23"), p("x12*x22 - x13*x21"), p("x21^2*x13 - x11*x12")]
    assert [str(g) for g in buchberger(gens, Grevlex())] == [
        "x11*x23", "x11*x22", "x13*x21 - x12*x22", "x12*x21*x22 - x11*x12",
        "x11^2*x12", "x12^2*x22^2 - x11*x12*x13",
    ]
    assert ticks == [10]
    c = p("x12*x23 - x13*x22")
    M = Ideal(ctx, [p("x11*x22"), p("x13*x21"), p("x11*x23 - x12*x21")])
    targets = [p("x11*x13*x22"), p("x12*x21*x23"), p("x11*x12*x23 - x12^2*x21")]
    targets += [p(text) for text in ("x11*x12*x23 - x11*x13*x22", "x12*x21*x23 - x13*x21*x22")]
    lifts = lift_through_ideal(c, targets, modulo=M)
    assert [None if q is None else str(q) for q in lifts] == ["0", "x21", "0", "x11", "x21"]
    assert ticks == [25]
    assert zero_dividend_steps and not any(zero_dividend_steps)


def long_split(P, I):
    """`_split`'s four facts by the long routes, on a fresh copy of I: the
    contraction; the coefficient ideal from a basis computed anew, its
    elements of x_N-degree 0 in the order Elim({x_N}) and the
    x_N-coefficients of those of degree 1; I == I0 R by extending I0; and
    the delta-stability of I0."""
    N = len(P.ctx)
    x = N - 1
    I = Ideal(I.ctx, I.generators)
    I0 = contract_to_prefix(I, x)
    gens = []
    for g in buchberger(I.generators, Elim({x})):
        if g.degree_in(x) == 0:
            gens.append(re_context(g, I0.ctx))
        elif g.degree_in(x) == 1:
            gens.append(re_context(g.split_by_degree_in(x)[1], I0.ctx))
    J = Ideal(I0.ctx, gens)
    extended = ideal_equal(I, extend(I0, I.ctx))
    return I0, J, extended, _delta_stable(I0, level_data(P, N).delta)


def assert_split_is_the_long_route(P, I):
    I0, J, extended, stable = _split(P, I)
    want = long_split(P, I)
    assert I0.generators == want[0].generators
    assert J.groebner() == want[1].groebner()
    assert (extended, stable) == want[2:]
    return extended, stable


@pytest.mark.parametrize(
    "name, stable", [("m2", {False, True}), ("2x2", {False, True}), ("1x3", {True})]
)
def test_split_of_random_ideals(name, stable):
    # seeded random ideals in 4 and 3 variables; every other one is
    # generated below x_N, with a multiple of a generator that involves
    # x_N, so that both answers of I == I0 R are met.
    # delta_3 is 0 on the 1x3 tower, so there every contraction is stable
    if name == "m2":
        P = tower(name)
    else:
        P = matrix_presentation(*map(int, name.split("x")))
    ctx_A = P.ctx.restrict(len(P.ctx) - 1)
    rng = random.Random(name)
    flags = set()
    for k in range(12):
        if k % 2:
            gens = [re_context(random_element(rng, ctx_A), P.ctx) for _ in range(2)]
            gens.append(random_element(rng, P.ctx) * gens[0])
        else:
            gens = [random_element(rng, P.ctx) for _ in range(rng.randint(1, 3))]
        flags.add(assert_split_is_the_long_route(P, Ideal(P.ctx, gens)))
    assert {e for e, _ in flags} == {False, True}
    assert {s for _, s in flags} == stable


def test_split_of_the_two_by_three_leaves():
    # every leaf of 2x3; both answers of I == I0 R are met, and every
    # contraction of a torus-stable Poisson ideal is delta-stable
    P = matrix_presentation(2, 3)
    leaves = enumerate_hprimes(P).leaves()
    flags = {assert_split_is_the_long_route(P, leaf.ideal) for leaf in leaves}
    assert flags == {(False, True), (True, True)}


def cross_multiplied(L, Q, guess):
    """`_try_denominator` by the general formula: b reduced modulo Q,
    {b, x_j} c - b {c, x_j} - sigma(x_j) b c - delta(x_j) c^2 in Q for every
    generator x_j of A, each bracket taken on its own; then the normalized
    fraction b/c, its denominator outside Q, its weight that of x_k when b
    is not 0, and sigma(b) c - b sigma(c) - lambda b c and delta(b) c -
    b delta(c) + lambda b^2 in Q."""
    ctx_A = L.pres_A.ctx
    b, c = Q.normal_form(guess.numerator), guess.denominator
    for j in range(len(ctx_A)):
        x = Polynomial.variable(ctx_A, j)
        r = (
            bracket(L.pres_A.table, b, x) * c
            - b * bracket(L.pres_A.table, c, x)
            - L.sigma(x) * b * c
            - L.delta(x) * c * c
        )
        if not Q.member(r)[0]:
            return None
    d = _normalize_fraction(b, c)
    b, c, lam = d.numerator, d.denominator, L.lambda_k
    if c.is_zero() or Q.member(c)[0]:
        return None
    if not b.is_zero():
        wb, wc = weight_of(L.pres_A.grading, b), weight_of(L.pres_A.grading, c)
        w_x = L.pres_R.grading.weights[L.x_index]
        if wb is None or wc is None or tuple(p - q for p, q in zip(wb, wc)) != w_x:
            return None
    if not Q.member(L.sigma(b) * c - b * L.sigma(c) - lam * b * c)[0]:
        return None
    if not Q.member(L.delta(b) * c - b * L.delta(c) + lam * b * b)[0]:
        return None
    return d


def zero_numerator_cases(name, k):
    """Seeded ideals Q of A at level k, and guesses b/c with b 0 modulo Q:
    the zero guess, 0/c and g/c with g in Q, for c not constant both in Q
    and outside it.  Q is 0, random, or random plus the delta-images, so
    that the zero guess passes on some of them."""
    L = level_data(tower(name), k)
    ctx_A = L.pres_A.ctx
    rng = random.Random(f"{name}-{k}")
    deltas = [p for p in L.delta.images.values() if not p.is_zero()]
    one, zero = Polynomial.constant(ctx_A, 1), Polynomial.zero(ctx_A)
    with_deltas = Ideal(ctx_A, [*deltas, random_element(rng, ctx_A)])
    for Q in (Ideal.zero(ctx_A), random_ideal(rng, ctx_A, 1), with_deltas):
        outside = random_element(rng, ctx_A)
        guesses = [DElement(zero, one), DElement(zero, outside)]
        for g in Q.generators:
            guesses += [DElement(zero, g), DElement(g * outside, outside), DElement(g, g)]
        yield L, Q, guesses


@pytest.mark.parametrize("name, k, verdicts", [
    ("weyl", 2, {False, True}),
    ("m2", 3, {True}),
    ("m2", 4, {False, True}),
    ("2x3", 3, {True}),
    ("2x3", 5, {False, True}),
    ("2x3", 6, {False, True}),
])
def test_zero_numerator_verdicts(name, k, verdicts):
    # delta_k is 0 on the levels where every guess passes
    seen, zero_d_valid = set(), set()
    for L, Q, guesses in zero_numerator_cases(name, k):
        for guess in guesses:
            want = cross_multiplied(L, Q, guess)
            assert _try_denominator(L, Q, guess) == want
            seen.add(want is not None)
            # a zero d is valid exactly when its denominator is outside Q
            c = guess.denominator
            zero_d = DElement(Polynomial.zero(L.pres_A.ctx), c)
            valid = validate_d_element(L, zero_d, Q)
            assert valid == (not Q.member(c)[0])
            zero_d_valid.add(valid)
    assert seen == verdicts
    assert zero_d_valid == {False, True}
    assert (False in seen) == any(not p.is_zero() for p in L.delta.images.values())
