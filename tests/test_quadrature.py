"""Quadrature rules: polynomial exactness of Gauss and panel rules, and the
cache of Gauss roots behind them."""

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from dunklkit.quadrature import (
    _gauss_roots,
    gauss_jacobi,
    gauss_legendre,
    log_panel_rule,
    panel_gauss_legendre,
)


def _poly_moment(m, a, b):
    return (b ** (m + 1) - a ** (m + 1)) / (m + 1)


def test_gauss_legendre_polynomial_exactness():
    rule = gauss_legendre(8, -1.5, 2.0)
    for m in range(16):  # degree 2n-1
        got = np.sum(rule.weights * rule.nodes**m)
        assert got == pytest.approx(_poly_moment(m, -1.5, 2.0), rel=1e-13, abs=1e-13)


def test_gauss_jacobi_matches_beta_integral():
    # int_0^1 x^(beta) (1-x)^(alpha) x^m dx = B(m + beta + 1, alpha + 1)
    from math import gamma
    alpha, beta = 0.7, -0.3
    rule = gauss_jacobi(12, alpha, beta, 0.0, 1.0)
    for m in range(6):
        got = np.sum(rule.weights * rule.nodes**m)
        want = gamma(m + beta + 1) * gamma(alpha + 1) / gamma(m + alpha + beta + 2)
        assert got == pytest.approx(want, rel=1e-12)


def test_panel_rule_covers_union_of_intervals():
    edges = np.array([0.0, 0.5, 2.0, 3.0])
    rule = panel_gauss_legendre(edges, 6)
    got = np.sum(rule.weights * np.exp(-rule.nodes))
    assert got == pytest.approx(1.0 - np.exp(-3.0), rel=1e-12)


def test_log_panel_rule_handles_wide_ranges():
    want = np.log(1e3 / 1e-6)
    coarse = log_panel_rule(1e-6, 1e3, nodes_per_decade=14)
    assert np.sum(coarse.weights / coarse.nodes) == pytest.approx(want, rel=1e-7)
    fine = log_panel_rule(1e-6, 1e3, nodes_per_decade=24)
    assert np.sum(fine.weights / fine.nodes) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# the cached Gauss roots


@pytest.mark.parametrize("family, n, alpha, beta", [
    ("legendre", 24, 0.0, 0.0), ("jacobi", 24, 0.0, 0.0), ("jacobi", 64, 0.0, 2.0),
    ("jacobi", 32, 0.5, 0.5), ("jacobi", 40, -0.5, 0.75), ("jacobi", 256, 0.0, 1.6),
])
def test_cached_roots_are_scipy_bit_for_bit(family, n, alpha, beta):
    want = roots_legendre(n) if family == "legendre" else roots_jacobi(n, alpha, beta)
    for _ in range(2):   # the miss and the hit
        got = _gauss_roots(family, n, alpha, beta)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_cached_roots_are_read_only():
    x, w = _gauss_roots("jacobi", 12, 0.3, 0.4)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # a rule built on top is the caller's own, writable copy
    rule = gauss_jacobi(12, 0.3, 0.4, 0.0, 1.0)
    rule.nodes[0] = rule.nodes[0]


def test_repeated_key_is_a_cache_hit():
    gauss_jacobi(20, 0.25, 1.5, 0.0, 2.0)
    before = _gauss_roots.cache_info()
    gauss_jacobi(20, 0.25, 1.5, -1.0, 3.0)
    gauss_legendre(20, 0.0, 1.0)
    gauss_legendre(20, 2.0, 5.0)
    after = _gauss_roots.cache_info()
    # Legendre(20) is a miss unless an earlier test built it
    assert (after.hits - before.hits, after.misses - before.misses) in {(2, 1), (3, 0)}
    assert after.maxsize is not None
