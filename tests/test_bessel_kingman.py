"""Radial hypergroup layer: product kernels, convolutions, stable laws.

The frozen constants come from closed forms evaluated with mpmath,
independently of the quadrature code under test: the Rayleigh profile
transforms to exp(-t xi^2), the heavy-tailed one to exp(-t |xi|), the
regularized incomplete beta gives the radial CDF of the latter, and the
1/2-stable law has Laplace transform exp(-t sqrt(u)).
"""

import numpy as np
import pytest

from dunklkit.bessel_kingman import (
    cauchy_density,
    cauchy_measure,
    cauchy_radial_cdf,
    convolve_measures,
    convolve_points,
    hankel_transform,
    rayleigh_density,
    rayleigh_measure,
    rayleigh_radial_cdf,
    stable_half_subordinator,
    subordinate,
)
from dunklkit.errors import ConfigError, PositivityError
from dunklkit.measures import RadialProfileMeasure, dirac


def test_index_guard():
    with pytest.raises(ConfigError):
        rayleigh_measure(-0.5, 1.0)
    with pytest.raises(ConfigError):
        convolve_points(-0.6, 1.0, 1.0)


def test_product_kernel_is_a_probability_density():
    lam, x, y = 1.5, 0.9, 1.7
    mu = convolve_points(lam, x, y)
    assert mu.mass() == pytest.approx(1.0, abs=1e-12)
    assert np.min(mu.node_masses) >= -1e-15
    lo, hi = mu.support_bounds()
    assert lo >= abs(x - y) - 1e-12
    assert hi <= x + y + 1e-12


def test_product_kernel_degenerate_point():
    # one factor at the origin collapses to a point mass at the other radius
    mu = convolve_points(1.0, 0.0, 1.3)
    assert mu.mass() == pytest.approx(1.0, abs=1e-12)
    lo, hi = mu.support_bounds()
    assert lo == pytest.approx(1.3, abs=1e-12)
    assert hi == pytest.approx(1.3, abs=1e-12)


def test_product_kernel_reproduces_character_product():
    # int j_lam(z r) d(delta_x * delta_y)(r) = j_lam(z x) j_lam(z y)
    from dunklkit.special import bessel_j
    lam = 1.0
    z = np.linspace(0.0, 5.0, 21)
    for x, y in [(0.5, 0.5), (1.0, 0.3), (2.0, 1.5)]:
        mu = convolve_points(lam, x, y)
        lhs = np.array([mu.integrate(lambda r, zz=zz: bessel_j(lam, zz * r))
                        for zz in z])
        rhs = bessel_j(lam, z * x) * bessel_j(lam, z * y)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_second_moment_is_additive():
    # hat''(0) adds under convolution, so m2(mu * nu) = m2(mu) + m2(nu)
    lam = 2.0
    mu = convolve_points(lam, 1.2, 0.7)
    m2 = mu.integrate(lambda r: r**2)
    assert m2 == pytest.approx(1.2**2 + 0.7**2, rel=1e-12)


def test_rayleigh_profile_and_transform():
    lam, t = 1.5, 0.4
    mu = rayleigh_measure(lam, t)
    assert mu.mass() == pytest.approx(1.0, abs=1e-12)
    xi = np.linspace(0.0, 6.0, 25)
    assert np.allclose(hankel_transform(lam, mu, xi), np.exp(-t * xi**2), atol=1e-12)
    # density/cdf consistency at a point, against the closed gamma form
    r = np.linspace(1e-3, 5.0, 4000)
    dens = rayleigh_density(lam, t, r)
    cdf = rayleigh_radial_cdf(lam, t, r)
    num = np.gradient(cdf, r)
    # endpoint stencils of np.gradient are first order; compare the interior
    assert np.allclose(num[1:-1], dens[1:-1], rtol=1e-3, atol=1e-8)


def test_rayleigh_convolution_semigroup():
    lam = 0.8
    mu = convolve_measures(lam, rayleigh_measure(lam, 0.3), rayleigh_measure(lam, 0.7))
    xi = np.linspace(0.0, 5.0, 30)
    assert np.allclose(hankel_transform(lam, mu, xi), np.exp(-1.0 * xi**2),
                       atol=1e-10)


def test_convolution_with_point_translates():
    lam = 1.5
    mu = convolve_measures(lam, dirac(0.0, lam=lam), rayleigh_measure(lam, 0.5))
    xi = np.linspace(0.0, 5.0, 20)
    assert np.allclose(hankel_transform(lam, mu, xi), np.exp(-0.5 * xi**2),
                       atol=1e-10)


def test_convolution_rejects_negative_measures():
    lam = 1.0
    bad = RadialProfileMeasure(grid=np.linspace(0, 1, 9),
                               density=np.full(9, -1.0))
    with pytest.raises(PositivityError):
        convolve_measures(lam, bad, rayleigh_measure(lam, 0.5))


def test_cauchy_profile_frozen_cdf_and_transform():
    lam, t = 1.5, 0.7
    assert cauchy_radial_cdf(lam, t, 1.3) == pytest.approx(0.282460015580741378,
                                                           rel=1e-13)
    mu = cauchy_measure(lam, t)
    assert mu.mass() == pytest.approx(1.0, abs=1e-8)
    xi = np.linspace(0.0, 6.0, 25)
    assert np.allclose(hankel_transform(lam, mu, xi), np.exp(-t * np.abs(xi)),
                       atol=5e-8)
    r = np.linspace(0.5, 3.0, 11)
    num = (cauchy_radial_cdf(lam, t, r + 5e-6) - cauchy_radial_cdf(lam, t, r - 5e-6)) / 1e-5
    assert np.allclose(num, cauchy_density(lam, t, r), rtol=1e-6)


def test_stable_half_subordinator_laplace_transform():
    for t in (0.25, 1.0, 3.0):
        rho = stable_half_subordinator(t)
        assert rho.mass() == pytest.approx(1.0, abs=1e-10)
        for u in (0.2, 1.0, 4.0):
            got = rho.integrate(lambda s: np.exp(-u * s))
            # absolute accuracy is capped by the truncated tail mass of 1e-9
            assert got == pytest.approx(np.exp(-t * np.sqrt(u)), abs=2e-9)
    # at 24 nodes per decade the panels are exact to rounding and the
    # only residual error is the truncated tail
    tight = stable_half_subordinator(1.0, tail_mass=1e-12, nodes_per_decade=24)
    got = tight.integrate(lambda s: np.exp(-s))
    assert got == pytest.approx(np.exp(-1.0), abs=2e-12)


def test_subordination_turns_heat_into_poisson():
    lam, t = 1.5, 0.8
    rho = stable_half_subordinator(t)
    # the heavy-tailed mixture needs the documented image bound to certify
    # truncation of far mixture times; transforms are then good at xi = 0
    # and xi >= r_min
    mixed = subordinate(lam, lambda s: rayleigh_measure(lam, s), rho,
                        image_bound=lambda s, r: np.exp(-s * r * r))
    xi = np.concatenate([[0.0], np.linspace(0.25, 6.0, 20)])
    assert np.allclose(hankel_transform(lam, mixed, xi), np.exp(-t * np.abs(xi)),
                       atol=1e-7)
