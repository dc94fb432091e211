import hashlib
import json
import random
from fractions import Fraction

import pytest

from pcgl.cgl import (
    PoissonPresentation,
    _delta_iterates,
    _level_maps,
    _level_record,
    level_data,
    verify_cgl,
)
from pcgl.cli import fixture_path, load_presentation, main
from pcgl.errors import NonDiagonalSigma, NotWithinBound, PcglError, TriangularityError
from pcgl.grading import GradingData, weight_of
from pcgl.pbracket import BracketTable, bracket
from pcgl.qpoly import Polynomial, VarTable, parse, re_context
from random_poly import random_polynomial
from records import rebuild
from reference import lie_act, pairwise_delta_condition
from test_matrices import matrix_presentation
from test_schubert_cells import b2


def level_maps(P, k):
    """The sigma and delta images and the eigenvalues of level k."""
    sigma, delta, mus = _level_maps(P, k)
    return sigma.images, delta.images, mus


def one_row(bracket_text):
    """A presentation on a, b, X whose one nonzero entry is {X, b}."""
    ctx = VarTable(("a", "b", "X"))
    return PoissonPresentation(
        ctx=ctx,
        table=BracketTable(ctx, {(2, 1): parse(bracket_text, ctx)}),
        grading=GradingData(0, ((), (), ())),
    )


class TestSplitBracket:
    def test_weyl(self, weyl):
        sigma, delta, mus = level_maps(weyl, 2)
        ctx_a = weyl.ctx.restrict(1)
        assert sigma[0] == parse("-a", ctx_a)
        assert delta[0] == parse("1", ctx_a)
        assert mus == [-1]

    def test_pplane(self, pplane):
        sigma, delta, mus = level_maps(pplane, 2)
        ctx_a = pplane.ctx.restrict(1)
        assert sigma[0] == parse("a", ctx_a)
        assert delta[0].is_zero()
        assert mus == [1]

    def test_bellsig_level_four(self, bellsig):
        sigma, delta, mus = level_maps(bellsig, 4)
        ctx_a = bellsig.ctx.restrict(3)
        assert sigma[0].is_zero()
        assert delta[0] == parse("2*y*z", ctx_a)
        assert sigma[1].is_zero()
        assert delta[1] == parse("x + y^2", ctx_a)
        assert mus[:2] == [0, 0]

    @pytest.mark.parametrize("text,sigma", [("2*b*X + a*X", "a + 2*b"), ("a*X", "a")])
    def test_non_diagonal_sigma_names_the_image(self, text, sigma):
        # sigma(x_2) = c*x_2 + x_1 and sigma(x_2) = x_1 are no multiple of x_2
        with pytest.raises(NonDiagonalSigma) as exc:
            _level_maps(one_row(text), 3)
        assert str(exc.value) == f"sigma(x_2) = {sigma} is not a scalar multiple of x_2"

    def test_zero_sigma_has_eigenvalue_zero(self):
        sigma, delta, mus = level_maps(one_row("b + a^2"), 3)
        assert sigma[0].is_zero() and sigma[1].is_zero()
        assert delta[1] == parse("b + a^2", VarTable(("a", "b")))
        assert mus == [0, 0] and all(type(mu) is Fraction for mu in mus)

    @pytest.mark.parametrize("k", [0, 3])
    def test_level_out_of_range(self, weyl, k):
        with pytest.raises(PcglError, match=f"^level {k} out of range$"):
            _level_maps(weyl, k)

    def test_triangularity_rejected_at_construction(self):
        ctx = VarTable(("a", "X"))
        with pytest.raises(TriangularityError):
            PoissonPresentation(
                ctx=ctx,
                table=BracketTable(ctx, {(1, 0): parse("X^2", ctx)}),
                grading=GradingData(0, ((), ())),
            )

    def test_negative_power_rejected_at_construction(self):
        # a Laurent top variable may not appear inverted in its own row
        ctx = VarTable(("a", "X"), (False, True))
        with pytest.raises(TriangularityError, match="negative power of x_2"):
            PoissonPresentation(
                ctx=ctx,
                table=BracketTable(ctx, {(1, 0): parse("X^-1*a", ctx)}),
                grading=GradingData(2, ((1, 0), (0, 1))),
            )

    def test_nilpotency_bound_below_one_rejected_at_construction(self, weyl):
        with pytest.raises(PcglError, match="nilpotency bound must be >= 1"):
            PoissonPresentation(
                ctx=weyl.ctx, table=weyl.table, grading=weyl.grading, nilpotency_bound=0
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("table", BracketTable(VarTable(("b", "Y")), {}),
             "bracket table over wrong variable table"),
            ("grading", GradingData(1, ((1,),)),
             "grading column count does not match generator count"),
        ],
        ids=["table", "grading"],
    )
    def test_mismatched_part_rejected_at_construction(self, weyl, field, value, message):
        with pytest.raises(PcglError, match=f"^{message}$"):
            rebuild(weyl, **{field: value})

    def test_negative_power_refused_by_check(self, tmp_path, capsys):
        path = tmp_path / "pres.json"
        path.write_text(json.dumps({
            "vars": ["a", "X"],
            "laurent": [False, True],
            "brackets": {"2,1": "X^-1*a"},
            "grading": [[1, 0], [0, 1]],
        }))
        assert main(["check", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "negative power of x_2" in err


class TestVerify:
    def test_weyl_passes(self, weyl):
        report = verify_cgl(weyl)
        assert report.ok
        assert report.levels[1].lambda_k == 1

    def test_pplane_passes(self, pplane):
        report = verify_cgl(pplane)
        assert report.ok
        assert report.levels[1].nilpotency == {0: 1}

    def test_bellsig_fails(self, bellsig):
        report = verify_cgl(bellsig)
        assert not report.ok
        l4 = report.levels[3]
        assert l4.nilpotency[0] is None and l4.nilpotency[1] is None
        assert not l4.h_ok
        assert 0 in l4.likely_not_nilpotent and 1 in l4.likely_not_nilpotent

    def test_bound_overrun_carries_the_iterates(self, bellsig):
        # the iterates x_1, ..., delta^bound(x_1) that the degree-growth
        # note of verify_cgl reads
        L = _level_record(bellsig, 4)
        with pytest.raises(NotWithinBound) as exc:
            _delta_iterates(L, Polynomial.variable(L.delta.ctx, 0))
        iterates = exc.value.iterates
        assert len(iterates) == bellsig.nilpotency_bound + 1
        assert iterates[0] == Polynomial.variable(L.delta.ctx, 0)
        assert not iterates[-1].is_zero()
        assert all(L.delta(p) == q for p, q in zip(iterates, iterates[1:]))

    def test_m2_passes(self, m2):
        report = verify_cgl(m2)
        assert report.ok
        assert report.levels[3].lambda_k == -2

    @pytest.mark.parametrize("entry, text", [((3, 1), "-2*b*d"), ((2, 0), "-2*a*c")])
    def test_a_jacobi_failure_is_reported_at_its_level(self, m2, entry, text):
        # either changed entry of m2, {d, b} or the level-3 entry {c, a},
        # breaks the Jacobi identity only on triples whose top generator
        # is d, so that level 4 alone reports it
        entries = dict(m2.table.pairs())
        entries[entry] = parse(text, m2.ctx)
        P = rebuild(m2, table=BracketTable(m2.ctx, entries))
        assert [level.jacobi_ok for level in verify_cgl(P).levels] == [True, True, True, False]

    def test_supplied_h_is_validated(self, weyl):
        good = PoissonPresentation(
            ctx=weyl.ctx,
            table=weyl.table,
            grading=weyl.grading,
            h=((Fraction(1),), (Fraction(1),)),
        )
        assert verify_cgl(good).ok
        bad = PoissonPresentation(
            ctx=weyl.ctx,
            table=weyl.table,
            grading=weyl.grading,
            h=((Fraction(1),), (Fraction(2),)),
        )
        report = verify_cgl(bad)
        assert not report.ok
        assert not report.levels[1].h_ok

    def test_report_serializes(self, weyl):
        d = verify_cgl(weyl).to_json_dict()
        assert d["ok"] is True
        assert d["levels"][1]["lambda"] == "1"


def delta_corpus():
    """(name, presentation): the four fixtures, 2x3 and B2 as given, then 30
    seeded perturbations of each tower of three or more generators.  Each
    changes one entry {x_k, x_j} of a row k >= 3 (1-based): its x_k-free
    part by a random polynomial in x_1..x_(k-1), or, where the entry has an
    x_k part, the eigenvalue mu_j of sigma_k rescaled.  Sigma stays
    diagonal, so every level record builds.  The perturbed towers get a
    nilpotency bound of 6, which keeps the delta iterates of a perturbed
    level small."""
    rng = random.Random("delta corpus")
    towers = {name: load_presentation(fixture_path(name))[0]
              for name in ("weyl", "pplane", "m2", "bellsig")}
    towers["2x3"] = matrix_presentation(2, 3)
    towers["b2"] = b2()
    for name, P in sorted(towers.items()):
        yield name, P
        for t in range(30 if P.nvars >= 3 else 0):
            i = rng.randrange(2, P.nvars)
            j = rng.randrange(i)
            entry = P.table.entry(i, j)
            sigma_part = entry.split_by_degree_in(i).get(1)
            if sigma_part is not None and rng.random() < 0.5:
                scale = rng.choice((-3, -1, 2))
                entry = entry + sigma_part * Polynomial.variable(P.ctx, i) * (scale - 1)
            else:
                entry = entry + re_context(random_polynomial(rng, P.ctx.restrict(i), 2, 2), P.ctx)
            entries = dict(P.table.pairs())
            entries[(i, j)] = entry
            table = BracketTable(P.ctx, entries)
            yield f"{name}-{t}", rebuild(P, table=table, nilpotency_bound=6)


def test_delta_flags_match_the_pairwise_reference():
    # every level's delta_condition against the pairwise reference on the
    # level's own (sigma, delta); the reports are pinned whole
    digest = hashlib.sha256()
    flags = []
    for name, P in delta_corpus():
        report = verify_cgl(P)
        for k in range(1, P.nvars + 1):
            L = _level_record(P, k)
            want = pairwise_delta_condition(L.pres_A.table, L.sigma, L.delta)
            assert report.levels[k - 1].delta_condition_ok == want, (name, k)
            flags.append(want)
        digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode() + b"\n")
    assert len(flags) == 562
    assert flags.count(False) == 140
    assert digest.hexdigest() == "7800dd7ad7a7bb1ab90c70da97e1caf254c1b1a8ffb936b33997470446fdc255"


class TestSharedDerivation:
    """`verify_cgl` and `level_data` read one record of each level: the
    report's notes are its problems, and `level_data` raises the first."""

    @pytest.mark.parametrize("name", ["weyl", "pplane", "m2", "bellsig", "2x3"])
    def test_one_record_per_level(self, request, name):
        # a fresh object, so that the cache holds only what these calls put
        # there: one record per level, the same one on every call
        if name == "2x3":
            P = matrix_presentation(2, 3)
        else:
            P = rebuild(request.getfixturevalue(name))
        records = {}
        for _ in range(2):
            report = verify_cgl(P)
            for k in range(1, P.nvars + 1):
                L = P._cache[("level", k)]
                assert L.k == k
                # bellsig has no h_k at any level; the other towers are good
                assert bool(L.problems) == (name == "bellsig")
                if L.problems:
                    with pytest.raises(PcglError) as exc:
                        level_data(P, k)
                    assert str(exc.value) == L.problems[0]
                else:
                    assert level_data(P, k) is L
                rep = report.levels[k - 1]
                assert (rep.h, rep.lambda_k) == (L.h_k, L.lambda_k)
                assert rep.notes[len(rep.likely_not_nilpotent):] == list(L.problems)
                assert rep.h_ok == (not L.problems)
            assert set(P._cache) == {("level", k) for k in range(1, P.nvars + 1)}
            assert all(P._cache[key] is L for key, L in records.items())
            records = dict(P._cache)

    @pytest.mark.parametrize("h2,lam,notes", [
        ("0", "0", ["supplied h_2 does not realize sigma_2",
                    "supplied h_2 has zero eigenvalue on x_2"]),
        ("2", "2", ["supplied h_2 does not realize sigma_2"]),
    ])
    def test_wrong_supplied_h(self, weyl, h2, lam, notes):
        P = PoissonPresentation(
            ctx=weyl.ctx,
            table=weyl.table,
            grading=weyl.grading,
            h=((Fraction(1),), (Fraction(h2),)),
        )
        level = verify_cgl(P).to_json_dict()["levels"][1]
        assert level["h_exists"] is False and level["ok"] is False
        assert level["h"] == [h2] and level["lambda"] == lam
        assert level["notes"] == notes
        assert P._cache[("level", 2)].problems == tuple(notes)
        for _ in range(2):
            with pytest.raises(PcglError) as exc:
                level_data(P, 2)
            assert str(exc.value) == notes[0]

    def test_non_diagonal_sigma_is_reported_on_every_call(self):
        # {X, a} = (a + 1) X: sigma(a) = a + 1 is not a multiple of a.  The
        # error is not cached, so each call derives the level anew and
        # reports it again
        ctx = VarTable(("a", "X"))
        P = PoissonPresentation(
            ctx=ctx,
            table=BracketTable(ctx, {(1, 0): parse("a*X + X", ctx)}),
            grading=GradingData(1, ((0,), (1,))),
        )
        for _ in range(2):
            level = verify_cgl(P).levels[1]
            assert not level.sigma_diagonal_ok and not level.h_ok
            assert level.notes == ["sigma(x_1) = a + 1 is not a scalar multiple of x_1"]
            with pytest.raises(PcglError, match="not a scalar multiple"):
                level_data(P, 2)
        assert ("level", 2) not in P._cache

    def test_each_report_is_a_fresh_object(self, weyl):
        # the level records are cached, the report handed out is not: a
        # caller that edits one report changes no later one
        P = PoissonPresentation(
            ctx=weyl.ctx,
            table=weyl.table,
            grading=weyl.grading,
            h=((Fraction(1),), (Fraction(2),)),
        )
        first = verify_cgl(P)
        first.levels[1].notes.append("edited")
        second = verify_cgl(P)
        assert second is not first
        assert second.levels[1].notes == ["supplied h_2 does not realize sigma_2"]


class TestRestrict:
    def test_full_restriction_is_identity(self, weyl):
        assert weyl.restrict(2) is weyl

    def test_zero_restriction(self, weyl):
        r0 = weyl.restrict(0)
        assert r0.nvars == 0
        assert verify_cgl(r0).ok

    def test_weyl_level_one(self, weyl):
        r1 = weyl.restrict(1)
        assert r1.ctx.names == ("a",)
        assert r1.grading.weights == ((-1,),)
        assert not r1.table.pairs()

    def test_prefix_consistency(self, m2):
        full = verify_cgl(m2)
        for k in range(1, 4):
            sub = verify_cgl(m2.restrict(k))
            for lev in range(1, k + 1):
                assert sub.levels[lev - 1].ok == full.levels[lev - 1].ok

    def test_out_of_range(self, weyl):
        with pytest.raises(PcglError):
            weyl.restrict(3)

    def test_one_restriction_per_level(self):
        # a tower builds N restricted presentations, not 2N - 1: level k's
        # R_(k-1) is level k-1's R_k, and each is kept outside the cache
        P = matrix_presentation(2, 3)
        assert all(P.restrict(k) is P.restrict(k) for k in range(P.nvars + 1))
        verify_cgl(P)
        levels = [_level_record(P, k) for k in range(1, P.nvars + 1)]
        assert all(L.pres_R is P.restrict(L.k) for L in levels)
        assert levels[0].pres_A is P.restrict(0)
        assert all(M.pres_A is L.pres_R for L, M in zip(levels, levels[1:]))
        assert set(P._cache) == {("level", k) for k in range(1, P.nvars + 1)}
        assert rebuild(P) == P and not rebuild(P)._restricted


class TestLevelInvariants:
    @pytest.mark.parametrize("fixture_name,levels", [("weyl", [2]), ("pplane", [2]), ("m2", [2, 3, 4])])
    def test_reconstruction(self, request, fixture_name, levels):
        P = request.getfixturevalue(fixture_name)
        for k in levels:
            L = level_data(P, k)
            xk = L.x()
            for j in range(k - 1):
                a_R = Polynomial.variable(L.pres_R.ctx, j)
                from pcgl.qpoly import re_context

                sig = re_context(L.sigma.images[j], L.pres_R.ctx)
                dl = re_context(L.delta.images[j], L.pres_R.ctx)
                assert bracket(L.pres_R.table, xk, a_R) == sig * xk + dl

    def test_lie_act_matches_sigma(self, m2):
        report = verify_cgl(m2)
        for k in range(2, 5):
            L = level_data(m2, k)
            G_A = m2.grading.restrict(k - 1)
            for j in range(k - 1):
                xj = Polynomial.variable(L.pres_A.ctx, j)
                assert lie_act(G_A, L.h_k, xj) == L.sigma(xj)
            assert report.levels[k - 1].lambda_k == L.lambda_k

    def test_delta_condition_every_level(self, m2):
        report = verify_cgl(m2)
        for k in range(2, 5):
            L = level_data(m2, k)
            assert report.levels[k - 1].delta_condition_ok
            assert pairwise_delta_condition(L.pres_A.table, L.sigma, L.delta)

    def test_delta_condition_on_random_pairs(self, m2):
        # the flag is read off generator triples, which suffices in
        # principle; spot-check the full identity on random polynomial
        # pairs as defense in depth
        report = verify_cgl(m2)
        rng = random.Random(53)
        for k in (3, 4):
            assert report.levels[k - 1].delta_condition_ok
            L = level_data(m2, k)
            table = L.pres_A.table
            S, D = L.sigma, L.delta
            for _ in range(50):
                a = random_polynomial(rng, L.pres_A.ctx, max_degree=2, max_terms=2)
                b = random_polynomial(rng, L.pres_A.ctx, max_degree=2, max_terms=2)
                lhs = D(bracket(table, a, b))
                rhs = (
                    bracket(table, D(a), b)
                    + bracket(table, a, D(b))
                    + S(a) * D(b)
                    - D(a) * S(b)
                )
                assert lhs == rhs

    def test_delta_shifts_weight(self, m2):
        # delta_k maps weight-w elements to weight w + deg x_k
        for k in range(2, 5):
            L = level_data(m2, k)
            G_A = m2.grading.restrict(k - 1)
            wk = m2.grading.weights[k - 1]
            for j in range(k - 1):
                xj = Polynomial.variable(L.pres_A.ctx, j)
                img = L.delta(xj)
                if img.is_zero():
                    continue
                wj = m2.grading.weights[j]
                assert weight_of(G_A, img) == tuple(p + q for p, q in zip(wj, wk))

    def test_sigma_delta_commutator(self, m2):
        # sigma delta - delta sigma = lambda delta on generators
        for k in range(2, 5):
            L = level_data(m2, k)
            for j in range(k - 1):
                xj = Polynomial.variable(L.pres_A.ctx, j)
                lhs = L.sigma(L.delta(xj)) - L.delta(L.sigma(xj))
                assert lhs == L.lambda_k * L.delta(xj)
