"""Acceptance gate: one test per release criterion.

Each test runs the relevant verification suite (plus dedicated checks
where a criterion asks for something the suite does not already cover),
appends a one-line verdict to the shared log printed at the end of the
pytest run, and fails if any case misses its tolerance or the criterion
overruns its time budget.
"""

import time

import numpy as np

import conftest
from dunklkit import MultiplicityVector
from dunklkit.markov import marginal_ks, simulate_paths
from dunklkit.verify import CaseResult, run_suite


def _record(num, label, results, seconds, limit=None):
    ok = all(r.passed for r in results)
    timing = f"{seconds:.1f}s"
    if limit is not None:
        timing += f" < {limit:.0f}s"
        if seconds >= limit:
            ok = False
    worst = max(r.residual for r in results)
    verdict = "PASS" if ok else "FAIL"
    line = (f"ACCEPTANCE {num:02d} {label}: {verdict} "
            f"({len(results)} cases, max residual {worst:.3g}, {timing})")
    bad = [r for r in results if not r.passed]
    if bad:
        shown = ", ".join(f"{r.name} ({r.residual:.3g} > {r.tolerance:.3g})"
                          for r in bad[:3])
        line += f"; failing: {shown}"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _suite_results(*names):
    out = []
    for name in names:
        out.extend(run_suite(name).results)
    return out


def test_criterion_01_rank_one_product_formula():
    t0 = time.perf_counter()
    results = _suite_results("product-formula")
    _record(1, "rank-one product formula", results,
            time.perf_counter() - t0, limit=10.0)


def test_criterion_02_radial_product_formula():
    t0 = time.perf_counter()
    results = _suite_results("radial-product-formula")
    _record(2, "radial product formula", results,
            time.perf_counter() - t0, limit=60.0)


def test_criterion_03_spherical_mean_positivity():
    t0 = time.perf_counter()
    results = _suite_results("positivity")
    _record(3, "spherical mean positivity", results,
            time.perf_counter() - t0, limit=120.0)


def test_criterion_04_spherical_mean_support():
    t0 = time.perf_counter()
    results = _suite_results("support")
    _record(4, "spherical mean support", results, time.perf_counter() - t0)


def test_criterion_05_bessel_kingman_laws():
    t0 = time.perf_counter()
    results = _suite_results("bessel-kingman")
    _record(5, "radial hypergroup laws", results, time.perf_counter() - t0)


def test_criterion_06_transform_suite():
    t0 = time.perf_counter()
    results = _suite_results("plancherel")
    _record(6, "transform inversion and Plancherel", results,
            time.perf_counter() - t0)


def test_criterion_07_heat_kernel():
    t0 = time.perf_counter()
    results = _suite_results("chapman-kolmogorov")
    _record(7, "heat kernel", results, time.perf_counter() - t0)


def test_criterion_08_series_machinery():
    t0 = time.perf_counter()
    results = _suite_results("funk-hecke", "addition-theorems")
    _record(8, "harmonic series machinery", results, time.perf_counter() - t0)


def test_criterion_09_darboux_order():
    t0 = time.perf_counter()
    results = _suite_results("darboux")
    _record(9, "Darboux equation order", results, time.perf_counter() - t0)


def test_criterion_10_markov_suite():
    t0 = time.perf_counter()
    results = _suite_results("markov")
    # the suite samples 2e4 paths per law; the release bar is 1e5
    t_grid = np.array([0.0, 0.5, 1.0])
    for k, kind in (((1.0,), "gaussian"), ((1.0, 0.5), "gaussian"),
                    ((1.0,), "cauchy")):
        kv = MultiplicityVector(k)
        ens = simulate_paths(kv, t_grid, 100_000, seed=90210, kind=kind)
        _, p = marginal_ks(kv, ens.radii(-1), kind, 1.0)
        results.append(CaseResult(f"1e5-path KS {kind} k={k}", 0.01 - p, 0.0))
    _record(10, "Markov semigroup and sampler", results,
            time.perf_counter() - t0, limit=300.0)


def test_criterion_11_multiplicity_one_closed_forms():
    t0 = time.perf_counter()
    results = _suite_results("appendix")
    _record(11, "multiplicity-one closed forms", results,
            time.perf_counter() - t0)
