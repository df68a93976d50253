"""The self-check suites: report plumbing plus the one suite no acceptance
criterion runs.

Every other suite runs once, inside the acceptance tests; here only
orbit-integral executes end to end, so the module stays cheap to iterate on.
"""

import inspect
import json

import numpy as np
import pytest

from dunklkit import (ConfigError, TOLERANCES, MultiplicityVector, TransformPlan, bump,
                      run_all, run_suite, spherical_mean_spectral, suite_names)
from dunklkit.markov import KernelSemigroup, semigroup_from_json
from dunklkit.verify import _SUITES, CaseResult, SuiteReport, _battery_means, _endpoint_case


def test_suite_names_cover_tolerance_table():
    names = suite_names()
    assert len(names) == len(set(names))
    # every suite has at least one tolerance entry keyed by its name or a
    # namespaced sub-tolerance
    for name in names:
        assert any(key == name or key.startswith(name) for key in TOLERANCES), name
    assert all(v >= 0 for v in TOLERANCES.values())


def test_case_result_coerces_numpy_scalars():
    case = CaseResult("x", np.float64(1e-9), np.float64(1e-6))
    doc = case.to_dict()
    assert isinstance(doc["residual"], float)
    assert isinstance(doc["pass"], bool)
    json.dumps(doc)  # must be serializable as-is


def test_suite_report_aggregation():
    rep = SuiteReport("demo", [CaseResult("a", 1e-9, 1e-6),
                               CaseResult("b", 2e-6, 1e-6)], seconds=0.5)
    assert rep.cases == 2
    assert rep.max_residual == pytest.approx(2e-6)
    assert not rep.passed
    assert [c.name for c in rep.failures()] == ["b"]
    doc = rep.to_dict()
    assert doc["pass"] is False
    assert len(doc["failures"]) == 1
    json.dumps(doc)


def test_unknown_suite_and_bad_tolerance():
    with pytest.raises(ConfigError):
        run_suite("no-such-suite")
    # bounds come from TOLERANCES only: no entry point takes an override
    for fn in (run_suite, run_all, _endpoint_case, semigroup_from_json, KernelSemigroup,
               *_SUITES.values()):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__
    with pytest.raises(TypeError):
        run_suite("appendix", tol=1e-30)


@pytest.mark.parametrize("name", ["orbit-integral"])
def test_fast_suites_pass(name):
    # the other suites run once, in tests/test_acceptance.py
    rep = run_suite(name)
    assert rep.passed, rep.to_dict()
    assert rep.cases > 0
    assert rep.max_residual <= rep.tolerance


def test_endpoint_cases_read_their_bounds_from_the_table(monkeypatch):
    # the purely atomic case (x = 0) had a literal 1e-12 bound of its own
    monkeypatch.setitem(TOLERANCES, "support-endpoint-atomic", 0.25)
    monkeypatch.setitem(TOLERANCES, "support-endpoint", 3.0)
    assert _endpoint_case("atomic", 1.0, 0.0, 1.0).tolerance == 0.25
    assert _endpoint_case("spread", 1.0, 1.0, 0.3).tolerance == 3.0


def test_run_all_subset():
    reports = run_all(["appendix", "funk-hecke"])
    assert [r.suite for r in reports] == ["appendix", "funk-hecke"]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("k", [(1.0,), (1.0, 1.0), (2.0, 0.5), (1.0, 0.5, 0.3)])
def test_battery_means_match_the_spectral_mean_per_pair(k):
    # one weight row per pair, mirrored from the factored weights, against
    # the quadrant contraction of spherical_mean_spectral
    kv = MultiplicityVector(k=k)
    small = len(k) == 3
    plan = TransformPlan(kv, extent=4.0, n=12 if small else 32, freq_extent=16.0,
                         freq_n=[12, 10, 8] if small else [32, 24][:len(k)])
    bumps = [bump(np.full(len(k), 0.3), 0.9), bump(np.linspace(-0.5, 0.2, len(k)), 1.0)]
    pairs = [(np.linspace(0.4, -0.3, len(k)), 0.7), (np.zeros(len(k)), 0.5),
             (np.full(len(k), -0.2), 1.1)]
    means = _battery_means(plan, bumps, pairs)
    assert means.shape == (2, 3)
    for f, row in zip(bumps, means):
        fhat = plan.forward(plan.sample(f))
        for (x, t), got in zip(pairs, row):
            want = spherical_mean_spectral(kv, plan, fhat, x, t)
            assert abs(got - want.real) <= 1e-14 * abs(want)
