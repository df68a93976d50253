"""Rank-one kernels and their representing measures.

Kernel reference values were frozen from a 40-digit mpmath evaluation of
j_a(z) = Gamma(a+1) (2/z)^a J_a(z) continued to imaginary argument, i.e.
not through the package's own series/scipy dispatch.
"""

import numpy as np
import pytest

from dunklkit import (
    ConfigError,
    MultiplicityVector,
    as_weighted_atoms,
    bessel_j,
    intertwiner_atoms,
    kernel_real,
    kernel_unitary,
    signed_product_measure,
    spherical_mean,
    spherical_mean_measure,
)

# k, x, y, E_k(x, y)
REAL_KERNEL = [
    (1.3, 0.8, -1.1, 0.84955527799331602),
    (0.5, 2.0, 2.0, 21.0613871058407804),
    (2.5, 1.0, 0.5, 1.10564035669531327),
]

# k, x, y, E_k(ix, y)
UNITARY_KERNEL = [
    (0.6, 1.9, 2.3, -0.323651661897583041 - 0.130328742728712085j),
    (1.0, 0.5, 1.0, 0.958851077208406001 + 0.162537030636066569j),
]


@pytest.mark.parametrize("k, x, y, expected", REAL_KERNEL)
def test_kernel_real_frozen_values(k, x, y, expected):
    assert kernel_real(k, x, y) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("k, x, y, expected", UNITARY_KERNEL)
def test_kernel_unitary_frozen_values(k, x, y, expected):
    got = kernel_unitary(k, x, y)
    assert abs(got - expected) < 1e-14 * abs(expected)


def test_kernel_real_structure():
    xs = np.linspace(-3.0, 3.0, 13)
    for k in (0.0, 0.5, 1.7):
        assert kernel_real(k, xs, 0.0) == pytest.approx(np.ones_like(xs))
        np.testing.assert_allclose(kernel_real(k, xs, 1.3),
                                   kernel_real(k, 1.3, xs), rtol=1e-15)
    # k = 0 degenerates to the exponential
    np.testing.assert_allclose(kernel_real(0.0, xs, 0.7), np.exp(0.7 * xs),
                               rtol=1e-14)


def test_kernel_unitary_is_bounded_by_one():
    xs = np.linspace(-8.0, 8.0, 41)
    for k in (0.0, 0.25, 1.0, 3.5):
        vals = kernel_unitary(k, xs[:, None], xs[None, :])
        assert np.max(np.abs(vals)) <= 1.0 + 1e-11


def test_kernel_negative_multiplicity_rejected():
    with pytest.raises(ConfigError):
        kernel_real(-0.1, 1.0, 1.0)
    with pytest.raises(ConfigError):
        signed_product_measure(-1.0, 1.0, 1.0)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _intertwiner(k, x, n=64):
    """The rank-one intertwiner measure at x as (nodes, masses): the one-axis
    intertwiner_atoms (the ids below keep the name of the LineMeasure
    builder it replaced, intertwiner_measure)."""
    pts, masses = intertwiner_atoms(MultiplicityVector((k,)), [x], n)
    return pts[:, 0], masses


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("call", [
    lambda k: kernel_unitary(k, 1.0, 0.5),
    lambda k: kernel_real(k, 1.0, 0.5),
    lambda k: signed_product_measure(k, 0.7, 0.3),
    lambda k: spherical_mean_measure(k, 0.7, 0.3),
    lambda k: _intertwiner(k, 0.7),
], ids=["kernel_unitary", "kernel_real", "signed_product_measure",
        "spherical_mean_measure", "intertwiner_measure"])
def test_non_finite_multiplicity_is_a_config_error(call, bad):
    with pytest.raises(ConfigError, match="finite"):
        call(bad)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("call", [
    lambda p: signed_product_measure(1.0, p, 0.3),
    lambda p: signed_product_measure(1.0, 0.3, p),
    lambda p: spherical_mean_measure(1.0, p, 0.3),
    lambda p: spherical_mean_measure(1.0, 0.3, p),
    lambda p: _intertwiner(1.0, p),
], ids=["product-x", "product-y", "mean-x", "mean-t", "intertwiner-x"])
def test_non_finite_points_are_config_errors(call, bad):
    with pytest.raises(ConfigError, match="finite"):
        call(bad)


# ---------------------------------------------------------------------------
# product-formula measure


@pytest.mark.parametrize("k", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("x, y", [(1.0, 0.5), (-1.0, 2.0), (0.7, -0.7)])
def test_signed_product_measure_mass_and_support(k, x, y):
    mu = signed_product_measure(k, x, y)
    assert mu.mass() == pytest.approx(1.0, abs=1e-12)
    r = np.abs(mu.grid)
    lo, hi = abs(abs(x) - abs(y)), abs(x) + abs(y)
    assert r.min() >= lo - 1e-12
    assert r.max() <= hi + 1e-12


@pytest.mark.parametrize("k", [0.5, 1.0, 2.5])
def test_signed_product_measure_reproduces_kernel_products(k):
    rng = np.random.default_rng(7)
    zs = np.linspace(0.0, 5.0, 20)
    for _ in range(4):
        x, y = rng.uniform(-2.0, 2.0, size=2)
        mu = signed_product_measure(k, x, y)
        lhs = np.array([mu.integrate(lambda s, z=z: kernel_unitary(k, z, s))
                        for z in zs])
        rhs = kernel_unitary(k, zs, x) * kernel_unitary(k, zs, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_signed_product_measure_degenerate_cases():
    # zero multiplicity: classical translation, a point mass at x + y
    mu = signed_product_measure(0.0, 1.25, -0.5)
    assert mu.atoms == [(0.75, 1.0)]
    # translation by zero is the identity
    mu = signed_product_measure(1.5, 0.8, 0.0)
    assert mu.atoms == [(0.8, 1.0)]


@pytest.mark.parametrize("k, x, y", [
    (0.05078125, 1e-12, 0.0625), (0.05078125, 5.48e-13, 0.05),
    (0.05078125, 3.3e-11, 3.0), (0.05078125, 1e-9, 0.0625)])
def test_signed_product_measure_keeps_its_mass_near_the_collapse(k, x, y):
    # min(|x|, |y|) just above the collapse at 1e-11 max: weights from
    # z^2 + x^2 - y^2 missed the mass by up to 3.8e-6 (1 - 2.1e-10 at x = 1e-9)
    mu = signed_product_measure(k, x, y)
    assert abs(mu.mass() - 1.0) <= 1e-14
    s = 2.3
    want = kernel_unitary(k, x, s) * kernel_unitary(k, y, s)
    assert abs(mu.integrate(lambda z: kernel_unitary(k, z, s)) - want) <= 1e-12


def test_signed_product_measure_can_go_negative():
    # the measure is genuinely signed; same-sign arguments expose the
    # negative branch near the inner support radius
    mu = signed_product_measure(0.5, 1.0, 1.0)
    assert mu.node_masses.min() < -1e-4
    assert mu.total_variation() > 1.0 + 1e-2


# ---------------------------------------------------------------------------
# spherical means


def _assert_probability(mu, tol):
    """Mass 1 and no node or atom mass below -tol."""
    assert abs(mu.mass() - 1.0) <= tol
    assert min([mu.node_masses.min(initial=0.0), *(w for _, w in mu.atoms)]) >= -tol


@pytest.mark.parametrize("k", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("x, t", [(1.0, 0.5), (-0.7, 1.3), (2.0, 2.0)])
def test_spherical_mean_measure_is_probability(k, x, t):
    sig = spherical_mean_measure(k, x, t)
    _assert_probability(sig, 1e-10)
    r = np.abs(sig.grid)
    assert r.min() >= abs(abs(x) - t) - 1e-12
    assert r.max() <= abs(x) + t + 1e-12


@pytest.mark.parametrize("k, x, t", [
    (0.05078125, 1e-12, 0.0625), (0.05078125, 6.3e-13, 0.0625),
    (0.05078125, -5.479410368286025e-13, 0.05), (0.0625, 3.287646220971617e-11, 3.0)])
def test_spherical_mean_measure_keeps_its_mass_on_a_narrow_band(k, x, t):
    # |x| just above the collapse at 1e-11 t: the band +-[t - |x|, t + |x|] is a
    # few ulps wide, the outer nodes round onto its edge, where the density is
    # 0 (mass was 0.687, 0.373 at t = 3), and the split weights from
    # z^2 + x^2 - t^2 lost their sign there
    sig = spherical_mean_measure(k, x, t)
    _assert_probability(sig, 1e-12)
    pos, _ = as_weighted_atoms(sig)
    assert np.all(np.abs(pos) >= t - abs(x)) and np.all(np.abs(pos) <= t + abs(x))
    s = 2.3  # sigma_{x,t} averages E_k(i ., s) to E_k(ix, s) j_(k-1/2)(t s)
    want = kernel_unitary(k, x, s) * bessel_j(k - 0.5, t * s)
    assert abs(sig.integrate(lambda z: kernel_unitary(k, z, s)) - want) <= 1e-12


def test_spherical_mean_measure_averages_translations():
    # sigma_{x,t} = (mu_{x,t} + mu_{x,-t}) / 2, checked through a smooth f
    k, x, t = 1.5, 0.9, 1.4
    f = lambda s: np.cos(0.8 * s) * np.exp(-0.1 * s * s)
    plus = signed_product_measure(k, x, t).integrate(f)
    minus = signed_product_measure(k, x, -t).integrate(f)
    assert spherical_mean(k, f, x, t) == pytest.approx(0.5 * (plus + minus),
                                                       abs=1e-12)


def test_spherical_mean_degenerate_cases():
    assert spherical_mean_measure(1.0, 0.6, 0.0).atoms == [(0.6, 1.0)]
    assert spherical_mean_measure(0.0, 0.75, 0.25).atoms == [(0.5, 0.5), (1.0, 0.5)]
    assert spherical_mean_measure(2.0, 0.0, 0.4).atoms == [(-0.4, 0.5), (0.4, 0.5)]
    # constants are fixed points of the mean
    assert spherical_mean(1.0, lambda s: np.ones_like(s), 1.1, 0.7) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# intertwining operator


@pytest.mark.parametrize("k, x, n", [
    pytest.param(k, x, n, id=f"{k}-{x}" + ("" if n == 64 else f"-n{n}"))
    for n in (64, 256) for k, x in [(0.5, 1.0), (1.0, -1.3), (2.5, 0.4)]])
def test_intertwiner_measure_reproduces_kernel(k, x, n):
    # the rule is the symmetric angle rule tilted by (1 + u): refining it
    # must not lose digits (an asymmetric Gauss-Jacobi rule was 4e-12 off
    # at k = 1/2, n = 256)
    nodes, masses = _intertwiner(k, x, n)
    assert masses.sum() == pytest.approx(1.0, abs=1e-12) and masses.min() >= 0.0
    assert nodes.min() >= -abs(x) - 1e-12 and nodes.max() <= abs(x) + 1e-12
    for y in (-2.0, -0.5, 0.3, 1.7):
        got = masses @ np.exp(nodes * y)
        assert got == pytest.approx(kernel_real(k, x, y), rel=1e-12)


def test_intertwiner_measure_unitary_route():
    # the same measure gives the bounded kernel through e^{i s y}
    k, x = 1.5, 0.9
    nodes, masses = _intertwiner(k, x)
    for y in (0.5, 2.0, 4.0):
        got = masses @ np.exp(1j * nodes * y)
        assert abs(got - kernel_unitary(k, x, y)) < 1e-12


def test_intertwiner_identity_cases():
    # k = 0 and x = 0: the point mass at x
    for k, x in ((0.0, 1.7), (1.2, 0.0)):
        nodes, masses = _intertwiner(k, x)
        assert nodes.tolist() == [x] and masses.tolist() == [1.0]
