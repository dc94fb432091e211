"""Extended validation on semiclassical matrix algebras.

The m x n matrix Poisson algebra is an iterated tower in row-major order;
the number of torus-stable Poisson primes is known in closed form (a
poly-Bernoulli number), which gives an independent oracle for the whole
enumeration pipeline well beyond the shipped fixtures.
"""

import dataclasses
import hashlib
import json
import pickle
import random
import re
import traceback
from collections import Counter
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import pcgl.cauchon
from pcgl import cgl
from pcgl.cauchon import d_element_search, enumerate_hprimes, separating_normal
from pcgl.cgl import PoissonPresentation, level_data, verify_cgl
from pcgl.cli import fixture_path, load_presentation
from pcgl.errors import ContextMismatch, StepBudgetExceeded
from pcgl.grading import GradingData
from pcgl.ideals import (
    Ideal,
    contains,
    contract_to_prefix,
    dimension,
    ideal_equal,
    is_h_stable,
    is_poisson_stable,
    step_limit,
)
from pcgl.pbracket import BracketTable
from pcgl.qpoly import Derivation, Polynomial, VarTable, parse


def matrix_presentation(m: int, n: int) -> PoissonPresentation:
    """Semiclassical m x n matrix algebra: row brackets x_ij x_il (j < l),
    column brackets x_ij x_kj (i < k), diagonal pairs {x_ij, x_kl} =
    2 x_il x_kj (i < k, j < l), anti-diagonal pairs commute.  The torus is
    (K*)^(m+n) scaling rows and columns."""
    names = tuple(f"x{i + 1}{j + 1}" for i in range(m) for j in range(n))
    ctx = VarTable(names)

    def idx(i, j):
        return i * n + j

    entries = {}
    for a in range(m * n):
        for b in range(a):
            i, j = divmod(a, n)
            k, l = divmod(b, n)
            if i == k or j == l:
                entries[(a, b)] = parse(f"-1*{names[a]}*{names[b]}", ctx)
            elif j > l:
                entries[(a, b)] = parse(
                    f"-2*{names[idx(k, j)]}*{names[idx(i, l)]}", ctx
                )
    rows = []
    for r in range(m):
        rows.append([1 if divmod(g, n)[0] == r else 0 for g in range(m * n)])
    for c in range(n):
        rows.append([1 if divmod(g, n)[1] == c else 0 for g in range(m * n)])
    weights = tuple(tuple(row[g] for row in rows) for g in range(m * n))
    return PoissonPresentation(
        ctx=ctx, table=BracketTable(ctx, entries), grading=GradingData(m + n, weights)
    )


def stirling2(n: int, k: int) -> int:
    if k > n or k < 0:
        return 0
    if k in (0, n):
        return 1 if k == n or n == 0 else 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def poly_bernoulli_neg(n: int, k: int) -> int:
    """B_n^(-k): the closed-form count of the m x n branching diagrams."""
    return sum(
        factorial(j) ** 2 * stirling2(n + 1, j + 1) * stirling2(k + 1, j + 1)
        for j in range(min(n, k) + 1)
    )


def test_count_oracle_sanity():
    assert poly_bernoulli_neg(1, 1) == 2
    assert poly_bernoulli_neg(2, 2) == 14
    assert poly_bernoulli_neg(3, 2) == 46
    assert poly_bernoulli_neg(4, 1) == 16
    assert poly_bernoulli_neg(5, 1) == 32
    assert poly_bernoulli_neg(4, 2) == 146


@pytest.mark.parametrize(
    "m,n", [(1, 1), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]
)
def test_matrix_counts(m, n):
    P = matrix_presentation(m, n)
    assert verify_cgl(P).ok
    tree = enumerate_hprimes(P)
    assert len(tree.leaves()) == poly_bernoulli_neg(n, m)
    assert not tree.inconclusive


def test_two_by_three_golden():
    # the whole tree, byte for byte, as first recorded
    tree = enumerate_hprimes(matrix_presentation(2, 3))
    text = json.dumps(tree.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert text == (Path(__file__).parent / "golden" / "hprimes_2x3.json").read_text()


def dimension_profile(tree):
    """The number of H-primes J with dim R/J = 0, 1, ..., after checking
    that each dim R/J is the number of induced lifts in J's lineage: an
    induced lift adds one, a second lift none."""
    counts = Counter()
    for leaf in tree.leaves():
        induced = 0
        node = leaf
        while node.parent is not None:
            induced += node.branch == "induced"
            node = node.parent
        assert dimension(leaf.ideal) == induced, leaf.label()
        counts[induced] += 1
    return [counts[d] for d in range(max(counts) + 1)]


def test_two_by_three_minor_lifts():
    P = matrix_presentation(2, 3)
    tree = enumerate_hprimes(P)
    labels = {node.label() for node in tree.leaves()}
    assert "<x12*x21 - x11*x22>" in labels
    assert "<x13*x22 - x12*x23>" in labels
    assert dimension_profile(tree) == [1, 6, 12, 13, 9, 4, 1]


def test_two_by_three_hasse_diagram():
    # the 130 cover edges of the inclusion poset, each dropping dim R/J by
    # exactly one, as catenarity with a height formula predicts
    tree = enumerate_hprimes(matrix_presentation(2, 3))
    leaves, dot = tree.leaves(), tree.to_dot()
    edges = re.findall(r"^  n(\d+) -> n(\d+);$", dot, re.M)
    assert len(edges) == 130
    dims = [dimension(leaf.ideal) for leaf in leaves]
    assert all(dims[int(i)] - dims[int(j)] == 1 for i, j in edges)


def test_two_by_three_normality_checks(monkeypatch):
    # the d-search checks its atoms only once the zero guess has failed, and
    # stops at the first atom that gives a closed form whose solve succeeds
    calls = []
    original = pcgl.cauchon.is_poisson_normal

    def counting(B, c, modulo=None):
        calls.append(c)
        return original(B, c, modulo=modulo)

    monkeypatch.setattr(pcgl.cauchon, "is_poisson_normal", counting)
    enumerate_hprimes(matrix_presentation(2, 3))
    assert len(calls) == 9


def test_two_by_three_nodes_pass_the_full_checks():
    # the enumeration tests only the brackets a node's parent does not
    # already vouch for; every node passes the full checks at its level
    P = matrix_presentation(2, 3)
    tree = enumerate_hprimes(P)
    for k, level in enumerate(tree.levels):
        table_k, G_k = P.restrict(k).table, P.grading.restrict(k)
        for node in level:
            assert is_h_stable(G_k, node.ideal)
            assert is_poisson_stable(table_k, node.ideal)
            if node.parent is not None:
                parent = node.parent.ideal
                assert ideal_equal(contract_to_prefix(node.ideal, k - 1), parent)
                assert is_poisson_stable(table_k, node.ideal, base=parent)


def polynomials_in(obj, seen=None):
    """Every polynomial reachable from obj through containers and the
    attributes of pcgl objects (ideals with their cached bases, d-elements,
    tree nodes and their normal pools)."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Polynomial):
        yield obj
        return
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = obj
    elif type(obj).__module__.startswith("pcgl.") and hasattr(obj, "__dict__"):
        children = vars(obj).values()
    else:
        return
    for child in children:
        yield from polynomials_in(child, seen)


def test_two_by_three_coefficients_are_canonical():
    # an int where integral and a Fraction elsewhere, never a float, in
    # every polynomial of the tree, also after a pickle round trip
    tree = enumerate_hprimes(matrix_presentation(2, 3))
    for copy in (tree, pickle.loads(pickle.dumps(tree))):
        coefficients = [c for f in polynomials_in(copy) for c in f.terms.values()]
        assert len(coefficients) > 700
        assert all(type(c) in (int, Fraction) for c in coefficients)
        assert not any(type(c) is Fraction and c.denominator == 1 for c in coefficients)


SEPARATION_GOLDEN = Path(__file__).parent / "golden" / "separation.json"


def nested_pairs(leaves):
    """The nested pairs P < Q of the leaves, in the order of the leaves."""
    return [
        (a, b)
        for a in leaves
        for b in leaves
        if a is not b and contains(b.ideal, a.ideal) and not contains(a.ideal, b.ideal)
    ]


def separation_rows(P, pairs=None):
    """[P label, Q label, element, case] for every nested pair P < Q of the
    H-primes of the presentation, or for the given pairs, searched in their
    order and listed in label order; element and case are None where the
    search is inconclusive."""
    if pairs is None:
        pairs = nested_pairs(enumerate_hprimes(P).leaves())
    rows = []
    for a, b in pairs:
        res = separating_normal(P, a, b)
        if res is None:
            rows.append([a.label(), b.label(), None, None])
            continue
        assert b.ideal.member(res.element)[0]
        assert not a.ideal.member(res.element)[0]
        rows.append([a.label(), b.label(), str(res.element), res.case])
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def test_two_by_three_separation():
    # Poisson-normal separation across all 447 nested pairs of the
    # 46-element poset, including the pairs whose smaller member contracts
    # to a non-variable ideal (the 2x2 minor), which exercise the
    # quotient-tower route; every element and case as in the golden file
    rows = separation_rows(matrix_presentation(2, 3))
    assert len(rows) == 447
    assert all(element is not None for _, _, element, _ in rows)
    assert rows == json.loads(SEPARATION_GOLDEN.read_text())["2x3"]


@pytest.mark.parametrize("name", ["weyl", "pplane", "m2"])
def test_fixture_separation(name):
    # the same pin on every nested pair of the shipped fixtures
    P = load_presentation(fixture_path(name))[0]
    rows = separation_rows(P)
    assert all(element is not None for _, _, element, _ in rows)
    assert rows == json.loads(SEPARATION_GOLDEN.read_text())[name]


def counting_searches(mp):
    """Count the d-searches and the denominators solved for, in a Counter
    keyed by function name, while the monkeypatch context `mp` lasts."""
    calls = Counter()
    for name in ("d_element_search", "_try_denominator"):
        original = getattr(pcgl.cauchon, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        mp.setattr(pcgl.cauchon, name, counted)
    return calls


@pytest.fixture(scope="module")
def three_by_three():
    """The 3x3 tower and its tree, enumerated once for the module, with the
    number of d-searches and of denominators they solved for.

    The enumeration runs under a step limit of 50, the least under which
    no node is flagged (under 49 one second lift runs out, and the tree
    has 229 leaves)."""
    P = matrix_presentation(3, 3)
    with pytest.MonkeyPatch.context() as mp, step_limit(50):
        calls = counting_searches(mp)
        tree = enumerate_hprimes(P)
    return P, tree, calls


@pytest.fixture(scope="module")
def three_by_three_covers(three_by_three):
    """The 937 cover edges of the 3x3 Hasse diagram as (P, Q) pairs of leaf
    indices, P below Q, read once for the module from `to_dot`, which alone
    takes about a second."""
    _, tree, _ = three_by_three
    edges = re.findall(r"^  n(\d+) -> n(\d+);$", tree.to_dot(), re.M)
    return [(int(i), int(j)) for i, j in edges]


def test_three_by_three(three_by_three, three_by_three_covers):
    # the deep case: denominators of the d-elements are themselves 2x2
    # minors found earlier along the lineage
    P, tree, _ = three_by_three
    assert len(tree.leaves()) == poly_bernoulli_neg(3, 3) == 230
    assert not tree.inconclusive
    # the whole tree, as first recorded
    digest = hashlib.sha256(json.dumps(tree.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "f4e55d25fd3beddffbb15ad79becb88a34e59b615e063493ba7bd133db4d87ae"
    )
    deep = [
        node
        for node in tree.levels[9]
        if node.branch == "d-branch" and node.parent.ideal.is_zero()
    ]
    assert len(deep) == 1
    det_ideal = deep[0].ideal
    det = parse(
        "x11*x22*x33 - x11*x23*x32 - x12*x21*x33 + x12*x23*x31 "
        "+ x13*x21*x32 - x13*x22*x31",
        P.ctx,
    )
    assert det_ideal.member(det)[0]
    assert set(det_ideal.groebner()) == {det * -1} or set(det_ideal.groebner()) == {det}
    # contractions stay consistent down the lineage
    for node in tree.leaves():
        assert ideal_equal(contract_to_prefix(node.ideal, 8), node.parent.ideal)
    assert dimension_profile(tree) == [1, 9, 27, 46, 53, 45, 29, 14, 5, 1]
    # the 937 cover edges of the Hasse diagram, each dropping dim R/J by one
    assert len(three_by_three_covers) == 937
    dims = [dimension(leaf.ideal) for leaf in tree.leaves()]
    assert all(dims[i] - dims[j] == 1 for i, j in three_by_three_covers)


def test_three_by_three_cover_separation(three_by_three, three_by_three_covers):
    # every cover P < Q of the 3x3 H-primes is separated by a Poisson-normal
    # element of R/P lying in Q, certified in R; the elements and cases as
    # first recorded
    P, tree, _ = three_by_three
    leaves = tree.leaves()
    rows = []
    for i, j in three_by_three_covers:
        small, big = leaves[i], leaves[j]
        res = separating_normal(P, small, big)
        assert res is not None, (small.label(), big.label())
        rows.append([small.label(), big.label(), str(res.element), res.case])
    rows.sort()
    digest = hashlib.sha256(json.dumps(rows).encode())
    assert digest.hexdigest() == (
        "aface88cf8041c064ed5a71e6cb497aeff534aad63aee83707b3501662f06334"
    )


def test_pooled_minor_denominators_need_the_pool(three_by_three, monkeypatch):
    # the 4 level-9 d-elements with the pooled 2x2 minor as denominator:
    # over the variables alone only the zero guess 0/1 is solved for and the
    # search is inconclusive; with the parent's pool the minor's closed form
    # is the one other candidate solved for, and it gives the node's d
    P, tree, _ = three_by_three
    minor = "x12*x21 - x11*x22"
    nodes = [
        node
        for node in tree.levels[9]
        if node.branch == "d-branch" and str(node.d.denominator) == minor
    ]
    assert len(nodes) == 4
    L = level_data(P, 9)
    tried = []
    original = pcgl.cauchon._try_denominator

    def recording(L, Q, guess):
        tried.append(str(guess.denominator))
        return original(L, Q, guess)

    monkeypatch.setattr(pcgl.cauchon, "_try_denominator", recording)
    for node in nodes:
        Q = node.parent.ideal
        tried.clear()
        assert d_element_search(L, modulo=Q) is None
        assert tried == ["1"]
        tried.clear()
        d = d_element_search(L, modulo=Q, extra_normals=node.parent.normal_pool)
        assert d == node.d
        assert tried == ["1", minor]


def test_one_solve_per_closed_form(three_by_three, monkeypatch):
    # every search solves for the zero guess, and for one closed-form
    # candidate more exactly when its d has a non-constant denominator: no
    # search solves for a candidate that fails
    _, tree3, calls3 = three_by_three
    calls2 = counting_searches(monkeypatch)
    tree2 = enumerate_hprimes(matrix_presentation(2, 3))
    for tree, calls, want in ((tree2, calls2, (52, 59)), (tree3, calls3, (289, 349))):
        closed_forms = sum(
            node.branch == "d-branch" and not node.d.denominator.is_constant()
            for level in tree.levels
            for node in level
        )
        assert calls["_try_denominator"] == calls["d_element_search"] + closed_forms
        assert (calls["d_element_search"], calls["_try_denominator"]) == want


# ---------------------------------------------------------------------------
# Tower data computed once per presentation object
# ---------------------------------------------------------------------------


def plain(value):
    """A presentation, table or derivation as comparable plain data, field
    by field; polynomials as strings, tables by their pairs()."""
    if isinstance(value, BracketTable):
        return [(key, str(p)) for key, p in value.pairs()]
    if isinstance(value, Derivation):
        return {j: str(p) for j, p in value.images.items()}
    if dataclasses.is_dataclass(value):
        return {
            f.name: plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.compare
        }
    return value


def tower(name):
    if name == "2x3":
        return matrix_presentation(2, 3)
    return load_presentation(fixture_path(name))[0]


@pytest.mark.parametrize("name", ["weyl", "pplane", "m2", "2x3"])
def test_level_data_is_cached_per_presentation(name):
    P = tower(name)
    # warm the cache top down, so a level keyed wrongly would show
    cached = {k: level_data(P, k) for k in range(P.nvars, 0, -1)}
    for k, L in cached.items():
        assert level_data(P, k) is L
        fresh = dataclasses.replace(P)
        L_fresh = level_data(fresh, k)
        assert L_fresh is not L
        assert plain(L) == plain(L_fresh)
        assert plain(L)["pres_R"] == plain(P.restrict(k))


def test_variable_quotient_is_cached_per_presentation():
    P = matrix_presentation(2, 3)
    quotient = P.drop_variables({2, 5})
    assert P.drop_variables([5, 2]) is quotient
    assert plain(quotient) == plain(dataclasses.replace(P).drop_variables({2, 5}))
    # 2x3 modulo <x13, x23> is the 2x2 matrix algebra, with the weights of
    # the kept generators in the rank-5 grading
    square = matrix_presentation(2, 2)
    assert quotient.ctx == square.ctx
    assert plain(quotient.table) == plain(square.table)
    assert quotient.grading == GradingData(5, tuple(P.grading.weights[i] for i in (0, 1, 3, 4)))
    f = parse("x13*x22 - x12*x23 + x11*x22 - x12*x21", P.ctx)
    kept = frozenset((0, 1, 3, 4))
    assert cgl._keep_terms(kept, quotient.ctx, f) == parse("x11*x22 - x12*x21", quotient.ctx)
    # the quotient's own level data is cached on the quotient
    assert level_data(quotient, 4) is level_data(P.drop_variables({5, 2}), 4)


def test_warm_presentation_pickles():
    # after a full separation sweep every cache is warm; the presentation
    # still pickles, and the copy separates exactly as the original
    P = matrix_presentation(2, 3)
    assert len(separation_rows(P)) == 447
    copy = pickle.loads(pickle.dumps(P))
    pairs = nested_pairs(enumerate_hprimes(P).leaves())[:10]
    for a, b in pairs:
        want = separating_normal(P, a, b)
        got = separating_normal(copy, a, b)
        assert (str(got.element), got.case) == (str(want.element), want.case)


@pytest.mark.parametrize("label_P,route", [
    ("<x12*x21 - x11*x22>", " (mod contraction)"),
    ("<x13, x12, x11>", " (in quotient)"),
])
def test_separating_element_certified_once_in_R(monkeypatch, label_P, route):
    P = matrix_presentation(2, 3)
    leaves = enumerate_hprimes(P).leaves()
    small = next(node for node in leaves if node.label() == label_P)
    big = next(b for a, b in nested_pairs(leaves) if a is small)
    calls = []
    original = pcgl.cauchon.is_poisson_normal

    def counting(B, c, modulo=None):
        calls.append((B, c))
        return original(B, c, modulo=modulo)

    monkeypatch.setattr(pcgl.cauchon, "is_poisson_normal", counting)
    res = separating_normal(P, small, big)
    assert res.case.endswith(route)
    assert sum(1 for B, c in calls if B is P.table and c == res.element) == 1
    assert res.normality.ok


# the kinds of entry the separation search memoizes: R-side certificates,
# candidate verdicts in the ring below and contractions
MEMO_KINDS = {"normal", "atom", "contract"}


def separation_memo(P, path=()):
    """The separation memo of P, of the ring below each of its cached levels
    and of its cached variable quotients, keyed by the path of cache keys
    that leads to the entry."""
    memo = {}
    for key, value in P._cache.items():
        if key[0] in MEMO_KINDS:
            memo[path + (key,)] = value
        elif isinstance(value, PoissonPresentation):
            memo.update(separation_memo(value, path + (key,)))
        elif isinstance(value, cgl.LevelData):
            memo.update(separation_memo(value.pres_A, path + (key, "A")))
    return memo


def plain_memo(memo):
    """The memo with each ideal replaced by its reduced basis."""
    return {k: v.groebner() if isinstance(v, Ideal) else v for k, v in memo.items()}


@pytest.mark.parametrize("label_P", ["<x12*x21 - x11*x22>", "<x13, x12, x11>"])
def test_separation_certificates_are_memoized(monkeypatch, label_P):
    # a certificate, a candidate's verdict and a contraction are computed
    # once per element and ideal, equal ideals held in different objects
    # included: a repeated search checks no normality and contracts nothing.
    # The enumeration stores no entry
    P = matrix_presentation(2, 3)
    leaves = enumerate_hprimes(P).leaves()
    assert separation_memo(P) == {}
    small = next(node for node in leaves if node.label() == label_P)
    big = next(b for a, b in nested_pairs(leaves) if a is small)
    first = separating_normal(P, small, big)
    memo = separation_memo(P)
    assert {path[-1][0] for path in memo} >= {"normal", "atom", "contract"}
    calls = []
    for name in ("is_poisson_normal", "contract_to_prefix"):
        original = getattr(pcgl.cauchon, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(pcgl.cauchon, name, counting)
    again = separating_normal(P, small, big)
    copy = separating_normal(P, Ideal(P.ctx, small.ideal.generators), big)
    assert calls == []
    assert separation_memo(P) == memo
    for res in (again, copy):
        assert (res.element, res.case, res.normality) == (
            first.element,
            first.case,
            first.normality,
        )


def test_separation_is_independent_of_the_pair_order():
    # the memo built in one order serves the reverse order, and a cold memo
    # built in the reverse order gives the same rows
    P = matrix_presentation(2, 3)
    pairs = nested_pairs(enumerate_hprimes(P).leaves())
    random.Random(21).shuffle(pairs)
    golden = json.loads(SEPARATION_GOLDEN.read_text())["2x3"]
    assert separation_rows(P, pairs) == golden
    assert separation_rows(P, pairs[::-1]) == golden
    assert separation_rows(dataclasses.replace(P), pairs[::-1]) == golden


@pytest.mark.parametrize(
    "limit, caller, callee",
    [(4, "_normal_atoms", "_is_atom"), (5, "_certificate", "is_poisson_normal")],
)
def test_step_budget_in_a_sweep_leaves_no_memo_entry(limit, caller, callee):
    # the first 60 pairs in label order; under 4 steps the budget runs out
    # inside a memoized candidate's verdict, under 5 inside a memoized
    # R-side certificate.  The memo keeps nothing of the failed
    # computation: run again without the limit, the pair gets its golden
    # row, and after the rest of the sweep the memo equals that of an
    # unlimited sweep
    P = matrix_presentation(2, 3)
    pairs = sorted(
        nested_pairs(enumerate_hprimes(P).leaves()),
        key=lambda pair: (pair[0].label(), pair[1].label()),
    )[:60]
    golden = json.loads(SEPARATION_GOLDEN.read_text())["2x3"][:60]
    with step_limit(limit):
        for k, (a, b) in enumerate(pairs):
            try:
                separating_normal(P, a, b)
            except StepBudgetExceeded as exc:
                frames = [frame.name for frame in traceback.extract_tb(exc.__traceback__)]
                break
        else:
            pytest.fail("the step budget never ran out")
    assert "_memo" in frames
    inner = len(frames) - 1 - frames[::-1].index("_memo")
    assert frames[inner - 1] == caller and callee in frames[inner + 1 :]
    assert separation_rows(P, pairs[k:]) == golden[k:]
    fresh = dataclasses.replace(P)
    assert separation_rows(fresh, pairs) == golden
    assert plain_memo(separation_memo(P)) == plain_memo(separation_memo(fresh))


def test_separation_refuses_nodes_of_another_tower():
    # 3x2 has as many variables as 2x3 under other names, 2x2 fewer; run
    # through the search instead of refused up front, a few of these pairs
    # come back inconclusive and most fail deep inside it
    P = matrix_presentation(2, 3)
    ours = nested_pairs(enumerate_hprimes(P).leaves())[0]
    for m, n in [(3, 2), (2, 2)]:
        theirs = nested_pairs(enumerate_hprimes(matrix_presentation(m, n)).leaves())
        mixed = [(theirs[0][0], ours[1]), (ours[0], theirs[0][1])]
        for pair in theirs + mixed:
            with pytest.raises(ContextMismatch):
                separating_normal(P, *pair)
