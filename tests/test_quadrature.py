"""Quadrature rules: polynomial exactness of Gauss and panel rules."""

import numpy as np
import pytest

from dunklkit.quadrature import (
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

