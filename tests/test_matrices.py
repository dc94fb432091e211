"""Extended validation on semiclassical matrix algebras.

The m x n matrix Poisson algebra is an iterated tower in row-major order;
the number of torus-stable Poisson primes is known in closed form (a
poly-Bernoulli number), which gives an independent oracle for the whole
enumeration pipeline well beyond the shipped fixtures.
"""

import hashlib
import importlib.util
import json
import pickle
import random
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import pcgl.cauchon
from pcgl import cgl
from pcgl.cauchon import d_element_search, delete_all, enumerate_hprimes, separating_normal
from pcgl.cgl import PoissonPresentation, level_data, verify_cgl
from pcgl.cli import fixture_path, load_presentation, load_presentation_data
from pcgl.errors import ContextMismatch, PcglError, StepBudgetExceeded
from pcgl.grading import pair, weight_of
from pcgl.ideals import (
    Ideal,
    contract_to_prefix,
    dimension,
    ideal_equal,
    inclusion_order,
    is_h_stable,
    is_poisson_stable,
    step_limit,
)
from pcgl.pbracket import bracket
from pcgl.qpoly import Polynomial, parse
from records import plain, rebuild


def _load_towers():
    """perfbench/towers.py, loaded by file path: the one builder of the
    matrix towers and their closed-form count, shared with the benchmark.
    The perfbench directory is not put on sys.path, where its other modules
    would shadow names."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "towers.py"
    spec = importlib.util.spec_from_file_location("perfbench_towers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


towers = _load_towers()


def matrix_presentation(m: int, n: int) -> PoissonPresentation:
    """The semiclassical m x n matrix tower, read from its presentation file
    contents as the command line and the benchmark read it."""
    return load_presentation_data(towers.matrix_data(m, n))[0]


def test_count_oracle_sanity():
    assert towers.hprime_count(1, 1) == 2
    assert towers.hprime_count(2, 2) == 14
    assert towers.hprime_count(2, 3) == 46
    assert towers.hprime_count(1, 4) == 16
    assert towers.hprime_count(1, 5) == 32
    assert towers.hprime_count(2, 4) == 146


@pytest.mark.parametrize(
    "m,n", [(1, 1), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]
)
def test_matrix_counts(m, n):
    P = matrix_presentation(m, n)
    assert verify_cgl(P).ok
    tree = enumerate_hprimes(P)
    assert len(tree.leaves()) == towers.hprime_count(m, n)
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
    leaves = enumerate_hprimes(matrix_presentation(2, 3)).leaves()
    _, covers = inclusion_order([leaf.ideal for leaf in leaves])
    assert sum(map(len, covers)) == 130
    dims = [dimension(leaf.ideal) for leaf in leaves]
    assert all(dims[i] - dims[j] == 1 for i, up in enumerate(covers) for j in up)


def test_two_by_three_normality_checks(monkeypatch):
    # the d-search checks its atoms only once the zero guess has failed, and
    # stops at the first atom that gives a closed form whose solve succeeds;
    # an atom whose delta-iterates modulo Q stop at s = 0 gives no closed
    # form and is dropped before its certificate
    calls = []
    original = pcgl.cauchon.is_poisson_normal

    def counting(B, c, modulo=None):
        calls.append(c)
        return original(B, c, modulo=modulo)

    monkeypatch.setattr(pcgl.cauchon, "is_poisson_normal", counting)
    enumerate_hprimes(matrix_presentation(2, 3))
    assert len(calls) == 8


def test_each_level_is_derived_once(monkeypatch):
    # verify_cgl and every level_data call, in the enumeration, the full
    # deletion and a second verification, share one derivation per level
    calls = Counter()
    for name in ("_level_maps", "_lie_vector"):
        original = getattr(cgl, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cgl, name, counted)
    P = matrix_presentation(2, 3)
    enumerate_hprimes(P)
    delete_all(P)
    assert verify_cgl(P).ok
    assert calls == {"_level_maps": 6, "_lie_vector": 6}


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
    # every polynomial of the tree, also after a pickle round trip; the
    # walk reaches every node's reduced basis and d-element
    tree = enumerate_hprimes(matrix_presentation(2, 3))
    for copy in (tree, pickle.loads(pickle.dumps(tree))):
        polynomials = list(polynomials_in(copy))
        nodes = [node for level in copy.levels for node in level]
        required = [g for node in nodes for g in node.ideal.groebner()]
        required += [f for node in nodes if node.d for f in (node.d.numerator, node.d.denominator)]
        reached = {id(f) for f in polynomials}
        assert len(nodes) == 105 and [f for f in required if id(f) not in reached] == []
        coefficients = [c for f in polynomials for c in f.terms.values()]
        assert all(type(c) in (int, Fraction) for c in coefficients)
        assert not any(type(c) is Fraction and c.denominator == 1 for c in coefficients)


SEPARATION_GOLDEN = Path(__file__).parent / "golden" / "separation.json"


def nested_pairs(leaves):
    """The nested pairs P < Q of the leaves, in the order of the leaves."""
    above, _ = inclusion_order([leaf.ideal for leaf in leaves])
    return [(leaves[i], leaves[j]) for i, up in enumerate(above) for j in up]


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
    # 46-element poset, every contraction taken modulo P0 in the ring
    # below the top variable, whether generated by variables or not (the
    # 2x2 minor); every element and case as in the golden file
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
    """Count the d-searches, the denominators solved for and the normality
    certificates, in a Counter keyed by function name, while the
    monkeypatch context `mp` lasts."""
    calls = Counter()
    for name in ("d_element_search", "_try_denominator", "is_poisson_normal"):
        original = getattr(pcgl.cauchon, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        mp.setattr(pcgl.cauchon, name, counted)
    return calls


@pytest.fixture(scope="module")
def three_by_three():
    """The 3x3 tower and its tree, enumerated once for the module, with the
    number of d-searches, of denominators they solved for and of normality
    certificates.

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
    indices, P below Q, computed once for the module by `inclusion_order`,
    which alone takes about a second."""
    _, tree, _ = three_by_three
    _, covers = inclusion_order([leaf.ideal for leaf in tree.leaves()])
    return [(i, j) for i, up in enumerate(covers) for j in up]


def test_three_by_three(three_by_three, three_by_three_covers):
    # the deep case: denominators of the d-elements are themselves 2x2
    # minors found earlier along the lineage
    P, tree, _ = three_by_three
    assert len(tree.leaves()) == towers.hprime_count(3, 3) == 230
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
        "d297b42c9784297de290ad89f5a00866fb8d3a66d0fdcf5f8a6f673a0c21d160"
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


def test_three_by_three_normality_certificates(three_by_three):
    # the d-search certifies only the atoms whose delta-iterates modulo Q
    # reach s >= 1, the only ones that give a closed form
    _, _, calls = three_by_three
    assert calls["is_poisson_normal"] == 88


# ---------------------------------------------------------------------------
# Tower data computed once per presentation object
# ---------------------------------------------------------------------------


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
        fresh = rebuild(P)
        L_fresh = level_data(fresh, k)
        assert L_fresh is not L
        assert plain(L) == plain(L_fresh)
        assert plain(L)["pres_R"] == plain(P.restrict(k))


# sha256 of the sorted lines (element, modulus basis, quotients, failures)
# of the 122 normality certificates that the 2x3 separation sweep caches
CERTIFICATE_DIGEST = "0000b9d821ccbff21988dcdfc32d9881b95c740b25bb3447bb96c0839c88151a"


def certificate_digest(P):
    """The digest of every normality certificate cached on P, one line each."""
    lines = sorted(
        repr(
            (
                str(key[1]),
                [str(g) for g in key[2]],
                sorted((i, str(q)) for i, q in cert.quotients.items()),
                sorted((i, str(f)) for i, f in cert.failures.items()),
            )
        )
        for key, cert in P._cache.items()
        if key[0] == "normal"
    )
    assert len(lines) == 122
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_separation_sweep_builds_no_derived_presentation():
    # every contraction is taken modulo P0 in the ring below the top
    # variable, so a full sweep caches no other presentation on P.  Besides
    # the level records it stores only the memo kinds (MEMO_KINDS below),
    # every one of them and all in P's own cache, so the memo comparisons of
    # the tests below see each entry; the cached certificates, quotients
    # included, are pinned by their digest
    P = matrix_presentation(2, 3)
    assert len(separation_rows(P)) == 447
    assert not any(isinstance(value, PoissonPresentation) for value in P._cache.values())
    assert cache_kinds(P) == MEMO_KINDS | {"level"}
    for value in P._cache.values():
        if isinstance(value, cgl.LevelData):
            assert cache_kinds(value.pres_A) <= {"level"}
    assert certificate_digest(P) == CERTIFICATE_DIGEST


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


def test_presentation_pickles_its_value_alone():
    # neither the presentation's cache nor the bracket table's rows and
    # column cuts are pickled: after an enumeration fills the cache the
    # pickle is the fresh one, byte for byte, and its copy starts cold
    P = matrix_presentation(2, 3)
    fresh = pickle.dumps(P)
    tree = enumerate_hprimes(P)
    assert P._cache and pickle.dumps(P) == fresh
    copy = pickle.loads(fresh)
    assert not copy._cache
    assert enumerate_hprimes(copy).to_json_dict() == tree.to_json_dict()


@pytest.mark.parametrize("label_P,route", [
    ("<x12*x21 - x11*x22>", " (mod contraction)"),
    ("<x13, x12, x11>", " (mod contraction)"),
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


# the kinds of entry the separation search memoizes, all in the cache of
# the presentation: each ideal's split (contraction, coefficient ideal,
# whether it is P0 R, whether P0 is delta-stable), R-side certificates,
# theta(a) x^s of a candidate modulo P0, each candidate list, each
# candidate's verdict and the verdict of the twist identity {u, x_N} =
# -eta u x_N modulo P of each theta(a) x^s found
MEMO_KINDS = {"split", "normal", "theta", "candidates", "atom", "twist"}


def cache_kinds(P):
    """The kinds of key in the cache of P."""
    return {key[0] for key in P._cache}


def separation_memo(P):
    """The separation memo of P: its cache entries of the memo kinds."""
    return {key: value for key, value in P._cache.items() if key[0] in MEMO_KINDS}


def plain_memo(memo):
    """The memo with each ideal, also inside a tuple, replaced by its
    reduced basis."""

    def plain_value(v):
        if isinstance(v, Ideal):
            return v.groebner()
        if isinstance(v, tuple):
            return tuple(plain_value(x) for x in v)
        return v

    return {k: plain_value(v) for k, v in memo.items()}


# the memo kinds a single search from P stores: where x_N itself
# separates, no twist identity is checked
SEARCH_KINDS = {
    "<x12*x21 - x11*x22>": MEMO_KINDS,
    "<x13, x12, x11>": MEMO_KINDS - {"twist"},
}


@pytest.mark.parametrize("label_P", list(SEARCH_KINDS))
def test_separation_certificates_are_memoized(monkeypatch, label_P):
    # a certificate, a candidate's verdict, an ideal's split, theta(a) x^s
    # and its twist identity are computed once per element and ideal, equal
    # ideals held in different objects included: a repeated search checks
    # no normality, contracts nothing, extends nothing, takes no
    # delta-iterates, tests no delta-stability and takes no bracket or
    # eta.  The enumeration stores no entry
    P = matrix_presentation(2, 3)
    leaves = enumerate_hprimes(P).leaves()
    assert separation_memo(P) == {}
    small = next(node for node in leaves if node.label() == label_P)
    big = next(b for a, b in nested_pairs(leaves) if a is small)
    first = separating_normal(P, small, big)
    memo = separation_memo(P)
    assert {key[0] for key in memo} == SEARCH_KINDS[label_P]
    calls = []
    for name in (
        "is_poisson_normal",
        "contract_to_prefix",
        "extend",
        "_delta_iterates",
        "_delta_stable",
        "bracket",
        "pair",
    ):
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


def test_twist_memo_matches_a_fresh_check():
    # a full 2x3 sweep checks the twist identity of each theta(a) x^s once
    # per element, candidate and ideal; every stored verdict is True, as a
    # fresh membership test of {u, x_N} + eta u x_N in P finds
    P = matrix_presentation(2, 3)
    separation_rows(P)
    twists = {key: ok for key, ok in P._cache.items() if key[0] == "twist"}
    assert len(twists) == 52
    L = level_data(P, P.nvars)
    X = L.x()
    for (_, u, cand, basis), ok in twists.items():
        eta = pair(L.h_k, weight_of(L.pres_A.grading, cand))
        assert ok is True
        assert Ideal(P.ctx, basis).member(bracket(P.table, u, X) + eta * u * X)[0] is ok


def test_a_failed_twist_is_never_returned(monkeypatch):
    # with a wrong eta the twist identity fails; the False verdict is
    # memoized, and the first search and a repeated one both raise, so a
    # cached failure never becomes a returned separator
    P = matrix_presentation(2, 3)
    leaves = enumerate_hprimes(P).leaves()
    small = next(node for node in leaves if node.label() == "<x12*x21 - x11*x22>")
    big = next(b for a, b in nested_pairs(leaves) if a is small)
    original = pcgl.cauchon.pair
    monkeypatch.setattr(pcgl.cauchon, "pair", lambda h, w: original(h, w) + 1)
    for _ in range(2):
        with pytest.raises(PcglError, match="eta"):
            separating_normal(P, small, big)
    assert [ok for key, ok in P._cache.items() if key[0] == "twist"] == [False]


def test_a_sweep_tests_each_ideal_for_delta_stability_once(monkeypatch):
    # the delta-stability of a contraction is part of the ideal's split, so
    # a full 2x3 sweep tests it once per distinct ideal of its pairs, the
    # upper ones included
    P = matrix_presentation(2, 3)
    pairs = nested_pairs(enumerate_hprimes(P).leaves())
    calls = []
    original = pcgl.cauchon._delta_stable

    def counting(P0, delta):
        calls.append(P0)
        return original(P0, delta)

    monkeypatch.setattr(pcgl.cauchon, "_delta_stable", counting)
    assert separation_rows(P, pairs) == json.loads(SEPARATION_GOLDEN.read_text())["2x3"]
    ideals = {node.ideal.groebner() for pair in pairs for node in pair}
    assert len(calls) == len(ideals) == 46


def test_separation_is_independent_of_the_pair_order():
    # the memo built in one order serves the reverse order, and a cold memo
    # built in the reverse order gives the same rows
    P = matrix_presentation(2, 3)
    pairs = nested_pairs(enumerate_hprimes(P).leaves())
    random.Random(21).shuffle(pairs)
    golden = json.loads(SEPARATION_GOLDEN.read_text())["2x3"]
    assert separation_rows(P, pairs) == golden
    assert separation_rows(P, pairs[::-1]) == golden
    assert separation_rows(rebuild(P), pairs[::-1]) == golden


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
    fresh = rebuild(P)
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
