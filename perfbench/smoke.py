"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/smoke.py -q

The file name keeps it out of the repository's own test collection.  The
workloads run on the 2x2 tower with a few pairs and a few commands.  The
test asserts that every metric of BENCHMARK.json is reported, that each
traced function is called on the workload chosen to exercise it (a wrapper
that was never installed, for example behind a `from .x import f` binding,
reads zero), that the d-element search stays out of the timed phase of the
two workloads that should not run it, and that the wrappers are removed
again after a traced round.
"""

from __future__ import annotations

import sys

import pytest

import run

END_TO_END = [m["name"] for m in run.SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in run.SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in run.SPEC["workloads"]]

EXERCISED = {
    "enum-3x3": (
        "cauchon.d_element_search.calls", "cauchon._normal_atoms.calls",
        "cauchon._try_denominator.calls", "cauchon.second_lift.calls",
        "cauchon.enumerate_hprimes.total_share", "cauchon.validate_d_element.total_share",
        "linalg.solve_affine.calls", "linalg.solve_affine.cells", "grading.monomial_weight.calls",
        "pbracket.is_poisson_normal.calls", "pbracket.bracket.calls",
        "ideals.lift_through_ideal.calls", "ideals.buchberger.calls", "ideals.reduce_poly.calls",
        "ideals.Ideal.groebner.calls", "ideals.Ideal.member.calls", "ideals.saturate.total_share",
        "ideals.primality.total_share", "ideals.is_poisson_stable.total_share",
        "ideals.is_h_stable.total_share", "cgl.verify_cgl.total_share", "cgl.level_data.total_share",
        "qpoly.Polynomial.init.calls", "qpoly.Polynomial.mul.calls",
        "qpoly.Polynomial.add.calls", "qpoly.Monomial.make.calls",
    ),
    "separate-2x3": (
        "cauchon.separating_normal.calls", "pbracket.is_poisson_normal.calls",
        "pbracket.bracket.calls", "ideals.lift_through_ideal.calls", "ideals.buchberger.calls",
        "ideals.reduce_poly.calls", "ideals.Ideal.groebner.calls", "ideals.Ideal.member.calls",
    ),
    "cli-chains": (
        "cli.load_presentation.calls", "cli.stdout_bytes", "qpoly.parse.calls",
        "ideals.chain_report.total_share", "ideals.h_core.total_share", "ideals.poisson_closure.total_share",
        "ideals.saturate.total_share", "ideals.eliminate.total_share", "ideals.dimension.total_share",
        "ideals.is_poisson_stable.total_share", "strata.poisson_center_torus.total_share",
        "pbracket.bracket.calls", "ideals.buchberger.calls",
    ),
}

UNUSED = {
    "separate-2x3": ("cauchon.d_element_search.calls",),
    "cli-chains": ("cauchon.d_element_search.calls", "pbracket.is_poisson_normal.calls"),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run(name):
    result = run.measure(name, seed=3, smoke=True)
    assert result["correct"], result["failures"]
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["meta"]["samples"]["setups"] == max(run.SETUPS, run.SMOKE[name]().rounds)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run(name):
    result = run.measure_traced(name, 3, smoke=True)
    assert result["correct"], result["failures"]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(values) == PER_LAYER
    assert [k for k in EXERCISED[name] if not values[k] > 0] == []
    assert [k for k in UNUSED.get(name, ()) if values[k] != 0] == []


def test_wrappers_are_removed():
    rec = run.child("separate-2x3", True, "traced", 3, 0)
    assert rec["metrics"]["pbracket.is_poisson_normal.calls"] > 0
    pcgl = sys.modules["pcgl"]
    assert pcgl.cauchon.is_poisson_normal is pcgl.pbracket.is_poisson_normal
    assert pcgl.cauchon.is_poisson_normal.__module__ == "pcgl.pbracket"
    assert pcgl.qpoly.Polynomial.__init__.__module__ == "pcgl.qpoly"


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
