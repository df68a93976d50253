"""Planar h-harmonics: sphere quadrature, bases, reproducing kernels.

Sphere moments were frozen from a 40-digit mpmath evaluation of the
Dirichlet-type closed form 2^(gamma+1) B(i + k1 + 1/2, j + k2 + 1/2),
computed outside the package.
"""

import numpy as np
import pytest
from scipy.special import roots_jacobi

from dunklkit import (
    ConfigError,
    MultiplicityVector,
    SphereQuadrature,
    addition_theorem_residual,
    apply_laplacian,
    dunkl_kernel_unitary,
    eval_homogeneous,
    funk_hecke_pair,
    harmonic_basis,
    kernel_series,
    laplacian_coefficient,
    orbit_integral,
    plane_wave_residual,
    reproducing_kernel,
    sphere_moment,
)
from dunklkit.harmonics import _reproducing_kernel_gegenbauer

KV = MultiplicityVector(k=(1.0, 0.5))

# (k, i, j, moment)
FROZEN_MOMENTS = [
    ((1.0, 0.5), 0, 0, 3.77123616632825346),
    ((1.0, 0.5), 1, 0, 2.26274169979695208),
    ((1.0, 0.5), 2, 1, 0.359165349174119377),
    ((2.0, 1.0), 0, 3, 0.343611696486383635),
]


@pytest.mark.parametrize("k, i, j, expected", FROZEN_MOMENTS)
def test_sphere_moment_frozen_values(k, i, j, expected):
    kv = MultiplicityVector(k=k)
    assert sphere_moment(kv, i, j) == pytest.approx(expected, rel=1e-14)


def test_sphere_moment_zero_order_is_sphere_mass():
    for k in [(1.0, 0.5), (0.0, 0.0), (2.0, 1.0)]:
        kv = MultiplicityVector(k=k)
        assert sphere_moment(kv, 0, 0) == pytest.approx(kv.d_norm, rel=1e-14)


def test_planar_only_guard():
    with pytest.raises(ConfigError):
        sphere_moment(MultiplicityVector(k=(1.0,)), 0, 0)
    with pytest.raises(ConfigError):
        SphereQuadrature(MultiplicityVector(k=(1.0, 1.0, 1.0)))


# ---------------------------------------------------------------------------
# sphere quadrature


def test_quadrature_mass_and_exact_moments():
    rule = SphereQuadrature(KV, n=48)
    assert rule.mass == pytest.approx(KV.d_norm, rel=1e-13)
    for i, j in [(1, 0), (0, 2), (3, 2)]:
        got = rule.integrate(lambda p: p[:, 0] ** (2 * i) * p[:, 1] ** (2 * j))
        assert got == pytest.approx(sphere_moment(KV, i, j), rel=1e-12)
    # odd powers integrate to zero by symmetry
    assert rule.integrate(lambda p: p[:, 0] * p[:, 1] ** 2) == pytest.approx(0.0, abs=1e-14)


def test_quadrature_methods_cross_check():
    # the midpoint rule in theta is spectrally exact when every 2 k_i is an
    # even integer: an independent reference for the Gauss-Jacobi quadrants
    kv = MultiplicityVector(k=(1.0, 2.0))
    f = lambda p: np.cos(3.0 * p[:, 0]) * np.exp(0.5 * p[:, 1])
    m = 8 * 48
    theta = (np.arange(m) + 0.5) * (2.0 * np.pi / m)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    wk = (2.0 * pts[:, 0] ** 2) ** 1.0 * (2.0 * pts[:, 1] ** 2) ** 2.0
    midpoint = np.sum(wk * f(pts)) * (2.0 * np.pi / m)
    assert SphereQuadrature(kv, n=48).integrate(f) == pytest.approx(midpoint, rel=1e-12)


@pytest.mark.parametrize("k", [(1.0, 0.5), (0.0, 2.0), (0.3, 0.7)])
def test_jacobi_quadrature_is_bit_identical_to_the_explicit_build(k):
    # the quadrant rule shared with the radial spherical mean must reproduce
    # the explicit construction from scipy's roots to the last bit
    kv = MultiplicityVector(k=k)
    alpha, beta = k[1] - 0.5, k[0] - 0.5
    u, w = roots_jacobi(24, alpha, beta)
    u, w = 0.0 + 0.5 * (u + 1.0), w * 0.5 ** (alpha + beta + 1.0)
    c, s = np.sqrt(u), np.sqrt(1.0 - u)
    points = np.concatenate([np.stack([sc * c, ss * s], axis=-1)
                             for sc in (1.0, -1.0) for ss in (1.0, -1.0)])
    rule = SphereQuadrature(kv, n=24)
    np.testing.assert_array_equal(rule.points, points)
    np.testing.assert_array_equal(rule.weights, np.tile(2.0 ** (kv.gamma - 1.0) * w, 4))


def test_quadrature_average_of_constant():
    rule = SphereQuadrature(KV, n=16)
    assert rule.average(lambda p: np.ones(p.shape[0])) == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# harmonics


def test_laplacian_coefficient_hand_values():
    # even degree: a (a - 1 + 2k); odd: (a - 1)(a + 2k)
    assert laplacian_coefficient(0.5, 2) == pytest.approx(2.0 * 2.0)
    assert laplacian_coefficient(0.5, 3) == pytest.approx(2.0 * 4.0)
    assert laplacian_coefficient(1.0, 1) == pytest.approx(0.0)
    # x y is harmonic for every multiplicity
    out = apply_laplacian(KV, np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_degree_two_harmonic_by_hand():
    # (1 + 2 k2) x^2 - (1 + 2 k1) y^2 is killed by the Laplacian
    k1, k2 = KV.k
    coeffs = np.array([-(1.0 + 2.0 * k1), 0.0, (1.0 + 2.0 * k2)])
    np.testing.assert_allclose(apply_laplacian(KV, coeffs), 0.0, atol=1e-14)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_harmonic_basis_orthonormal_and_harmonic(n):
    basis = harmonic_basis(KV, n)
    assert len(basis) == (1 if n == 0 else 2)
    rule = SphereQuadrature(KV, n=64)
    for p, cp in enumerate(basis):
        if n >= 2:
            np.testing.assert_allclose(apply_laplacian(KV, cp), 0.0, atol=1e-10)
        for q, cq in enumerate(basis):
            inner = rule.average(
                lambda pts: eval_homogeneous(cp, pts) * eval_homogeneous(cq, pts))
            assert inner == pytest.approx(1.0 if p == q else 0.0, abs=1e-11)


def test_eval_homogeneous_matches_direct():
    coeffs = np.array([2.0, -1.0, 0.5])  # 2 y^2 - x y + 0.5 x^2
    pts = np.array([[1.0, 2.0], [-0.5, 0.3]])
    want = 2.0 * pts[:, 1] ** 2 - pts[:, 0] * pts[:, 1] + 0.5 * pts[:, 0] ** 2
    np.testing.assert_allclose(eval_homogeneous(coeffs, pts), want, rtol=1e-15)


# ---------------------------------------------------------------------------
# reproducing kernels and the kernel expansion


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_reproducing_kernel_two_routes(n):
    x = np.array([1.1, -0.4])
    y = np.array([0.3, 0.9])
    via_basis = reproducing_kernel(KV, n, x, y)
    via_geg = _reproducing_kernel_gegenbauer(KV, n, x, y)
    assert via_geg == pytest.approx(via_basis, abs=2e-10 * max(1.0, abs(via_basis)))


def test_reproducing_kernel_reproduces():
    # (1/d) int P_n(x, eta) Y(eta) w_k dsigma = Y(x) for degree-n harmonics
    rule = SphereQuadrature(KV, n=64)
    x = np.array([0.7, 0.6])
    for n in (1, 2, 4):
        for coeffs in harmonic_basis(KV, n):
            got = rule.average(
                lambda pts: reproducing_kernel(KV, n, x, pts) * eval_homogeneous(coeffs, pts))
            assert got == pytest.approx(eval_homogeneous(coeffs, x), abs=1e-10)


def test_kernel_series_converges_to_kernel():
    pts = [(np.array([0.7, -0.3]), np.array([1.2, 0.5])),
           (np.array([2.0, 0.0]), np.array([0.0, 1.5])),
           (np.array([-1.0, 1.0]), np.array([1.0, 1.0]))]
    for x, y in pts:
        series = kernel_series(KV, x, y, n_max=20)
        direct = complex(dunkl_kernel_unitary(KV, x, y))
        assert abs(series - direct) < 1e-8


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_funk_hecke_identity(n):
    rule = SphereQuadrature(KV, n=96)
    x = np.array([1.3, 0.8])
    for coeffs in harmonic_basis(KV, n):
        lhs, rhs = funk_hecke_pair(KV, coeffs, x, rule=rule)
        assert abs(lhs - rhs) < 1e-9


def test_funk_hecke_refuses_a_rule_of_another_multiplicity():
    # a k = (2, 1) rule integrated against the wrong weight: lhs 0.0550, not -0.0312
    coeffs = harmonic_basis(KV, 2)[0]
    x = np.array([0.9, 0.2])
    with pytest.raises(ConfigError, match="does not match the rule's"):
        funk_hecke_pair(KV, coeffs, x, rule=SphereQuadrature((2.0, 1.0), n=96))
    lhs, rhs = funk_hecke_pair(KV, coeffs, x, rule=SphereQuadrature(KV, n=96))
    assert abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# radializations


def test_orbit_integral_routes_agree_and_degenerate():
    from dunklkit.special import bessel_j
    x = np.array([0.8, 0.5])
    z = np.array([-0.4, 1.1])
    val = orbit_integral(KV, x, z, r=1.3)
    sym = orbit_integral(KV, z, x, r=1.3)
    assert val == pytest.approx(sym, abs=1e-8)
    # the direct sphere quadrature of the two kernels shares no code with it
    rule = SphereQuadrature(KV, n=96)
    vals = (dunkl_kernel_unitary(KV, x, 1.3 * rule.points)
            * np.conj(dunkl_kernel_unitary(KV, z, 1.3 * rule.points)))
    assert abs(rule.integrate_values(vals) / KV.d_norm - val) < 1e-12
    # x = 0 collapses to the plain radialization of the other argument
    at_zero = orbit_integral(KV, np.zeros(2), z, r=1.3)
    assert at_zero == pytest.approx(float(bessel_j(KV.lam, 1.3 * np.hypot(*z))),
                                    abs=1e-9)


# ---------------------------------------------------------------------------
# scalar expansion identities


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.5, 3.0])
def test_addition_theorem_residual_small(lam):
    c = np.linspace(-1.0, 1.0, 21)
    assert addition_theorem_residual(lam, 1.3, 2.1, c, n_max=40) < 1e-10


@pytest.mark.parametrize("lam", [0.5, 1.5])
def test_plane_wave_residual_small(lam):
    t = np.linspace(-1.0, 1.0, 21)
    assert plane_wave_residual(lam, 2.5, t, n_max=40) < 1e-10
