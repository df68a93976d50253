"""Radial hypergroup layer: product kernels, convolutions, stable laws.

The frozen constants come from closed forms evaluated with mpmath,
independently of the quadrature code under test: the Rayleigh profile
transforms to exp(-t xi^2), the heavy-tailed one to exp(-t |xi|), the
regularized incomplete beta gives the radial CDF of the latter, and the
1/2-stable law has Laplace transform exp(-t sqrt(u)).
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

from dunklkit import bessel_kingman, measures
from dunklkit.bessel_kingman import (
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
from dunklkit.errors import ConfigError, PositivityError, ResolutionError
from dunklkit.measures import RadialProfileMeasure, dirac, measure_to_json


def test_index_guard():
    with pytest.raises(ConfigError):
        rayleigh_measure(-0.5, 1.0)
    with pytest.raises(ConfigError):
        convolve_points(-0.6, 1.0, 1.0)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_index_is_a_config_error(bad):
    with pytest.raises(ConfigError, match="finite"):
        rayleigh_measure(bad, 1.0)
    with pytest.raises(ConfigError, match="finite"):
        convolve_points(bad, 0.7, 0.3)
    with pytest.raises(ConfigError, match="finite"):
        hankel_transform(bad, dirac(0.5), [1.0])


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_points_are_config_errors(bad):
    # the mass check compared against NaN and let a NaN measure through
    with pytest.raises(ConfigError, match="finite"):
        convolve_points(1.0, bad, 0.3)
    with pytest.raises(ConfigError, match="finite"):
        convolve_points(1.0, 0.3, bad)


@pytest.mark.parametrize("budget", [{"grid_n": 3}, {"grid_n": 1}, {"grid_n": 0},
                                    {"grid_n": -3}, {"atom_cap": 0}, {"atom_cap": -1},
                                    {"points_per_pair": 0}, {"points_per_pair": -2}])
def test_convolution_budgets_are_checked(budget):
    a, b = rayleigh_measure(1.0, 0.4, n=8), rayleigh_measure(1.0, 0.7, n=8)
    with pytest.raises(ConfigError, match="must be at least"):
        convolve_measures(1.0, a, b, **budget)


@pytest.mark.parametrize("atom_cap", [-5, "x"])
@pytest.mark.parametrize("identity_first", [False, True])
def test_atom_cap_is_checked_before_the_identity_shortcut(atom_cap, identity_first):
    # a point mass at 0 on either side returned the other input unchecked
    mu, point = rayleigh_measure(0.5, 0.3), dirac(0.0, lam=0.5)
    pair = (point, mu) if identity_first else (mu, point)
    with pytest.raises(ConfigError, match="atom_cap"):
        convolve_measures(0.5, *pair, atom_cap=atom_cap)


@pytest.mark.parametrize("call", [
    lambda v: convolve_measures(1.0, rayleigh_measure(1.0, 0.4, n=8),
                                rayleigh_measure(1.0, 0.7, n=8), points_per_pair=v),
    lambda v: convolve_measures(1.0, rayleigh_measure(1.0, 0.4, n=8),
                                rayleigh_measure(1.0, 0.7, n=8), grid_n=v + 2.0),
    lambda v: convolve_points(1.0, 0.7, 0.3, n=v),
    lambda v: rayleigh_measure(1.0, 0.5, n=v),
    lambda v: rayleigh_measure(1.0, 0.0, n=v),
], ids=["points_per_pair", "grid_n", "convolve_points", "rayleigh_measure", "rayleigh_measure-t0"])
@pytest.mark.parametrize("bad", [0, 2.5])
def test_fractional_and_zero_node_counts_are_config_errors(call, bad):
    # scipy raised a bare ValueError for the angle rules and the profiles'
    # Gauss rules, numpy a TypeError for grid_n = 4.5
    with pytest.raises(ConfigError, match="must be"):
        call(bad)


def test_smallest_convolution_budgets_run():
    a, b = rayleigh_measure(1.0, 0.4, n=8), rayleigh_measure(1.0, 0.7, n=8)
    out = convolve_measures(1.0, a, b, grid_n=4, atom_cap=1)
    assert out.grid.size == 4
    # the cubic deposit keeps the mass even when every point is clamped
    assert out.mass() == pytest.approx(a.mass() * b.mass(), abs=1e-12)


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


def test_a_measure_of_another_index_is_a_config_error():
    # the index sits both in the argument and in the measure; hankel_transform
    # read 0.8631 for exp(-0.3), and convolve_measures labelled a lam = 1/2
    # convolution lam = 2; a measure without an index is taken at lam
    a, b = rayleigh_measure(0.5, 0.3), rayleigh_measure(0.5, 0.4)
    with pytest.raises(ConfigError, match="does not match lam=2.0"):
        hankel_transform(2.0, a, [1.0])
    for pair in [(a, b), (a, dirac(0.0, lam=2.0)), (dirac(0.0, lam=2.0), b)]:
        with pytest.raises(ConfigError, match="does not match lam=2.0"):
            convolve_measures(2.0, *pair)
    np.testing.assert_allclose(hankel_transform(0.5 + 1e-13, a, [1.0]), np.exp(-0.3), atol=1e-10)
    assert hankel_transform(2.0, dirac(0.0), [1.0]) == 1.0


def test_convolution_rejects_an_empty_measure():
    empty = RadialProfileMeasure(grid=np.empty(0), density=np.empty(0), weights=np.empty(0),
                                 lam=1.0)
    for pair in [(empty, rayleigh_measure(1.0, 0.5)), (rayleigh_measure(1.0, 0.5), empty)]:
        with pytest.raises(ConfigError, match="empty"):
            convolve_measures(1.0, *pair)


def test_cauchy_profile_frozen_cdf_and_transform():
    lam, t = 1.5, 0.7
    assert cauchy_radial_cdf(lam, t, 1.3) == pytest.approx(0.282460015580741378,
                                                           rel=1e-13)
    mu = cauchy_measure(lam, t)
    assert mu.mass() == pytest.approx(1.0, abs=1e-8)
    xi = np.linspace(0.0, 6.0, 25)
    assert np.allclose(hankel_transform(lam, mu, xi), np.exp(-t * np.abs(xi)),
                       atol=5e-8)
    # the CDF's derivative is the closed-form Poisson profile
    # c t r^(2 lam + 1) / (t^2 + r^2)^(lam + 3/2), c = 2 Gamma(lam + 3/2) / (sqrt(pi) Gamma(lam + 1))
    r = np.linspace(0.5, 3.0, 11)
    num = (cauchy_radial_cdf(lam, t, r + 5e-6) - cauchy_radial_cdf(lam, t, r - 5e-6)) / 1e-5
    c = 2.0 * np.exp(gammaln(lam + 1.5) - gammaln(lam + 1.0)) / np.sqrt(np.pi)
    assert np.allclose(num, c * t * r ** (2.0 * lam + 1.0) / (t * t + r * r) ** (lam + 1.5),
                       rtol=1e-6)


def test_stable_half_subordinator_laplace_transform(monkeypatch):
    for t in (0.25, 1.0, 3.0):
        rho = stable_half_subordinator(t)
        assert rho.mass() == pytest.approx(1.0, abs=1e-10)
        for u in (0.2, 1.0, 4.0):
            got = rho.integrate(lambda s: np.exp(-u * s))
            # absolute accuracy is capped by the truncated tail mass of 1e-9
            assert got == pytest.approx(np.exp(-t * np.sqrt(u)), abs=2e-9)
    # at 24 nodes per decade the panels are exact to rounding and the
    # only residual error is the truncated tail (at 16 the error is 4.6e-10)
    monkeypatch.setattr(bessel_kingman, "_NODES_PER_DECADE", 24)
    tight = stable_half_subordinator(1.0, tail_mass=1e-12)
    got = tight.integrate(lambda s: np.exp(-s))
    assert got == pytest.approx(np.exp(-1.0), abs=2e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, 1.0, 2.0, float("nan"), "a"])
def test_subordinator_tail_mass_lies_in_the_unit_interval(bad):
    # 0 divided by zero; -1 and 2 put 79% and 99% of the law in the far atom
    with pytest.raises(ConfigError, match="tail_mass"):
        stable_half_subordinator(0.5, tail_mass=bad)


def test_subordination_turns_heat_into_poisson():
    lam, t = 1.5, 0.8
    rho = stable_half_subordinator(t)
    # far mixture times are dropped by their image bound exp(-s r^2), so
    # transforms are good at xi = 0 and xi >= r_min
    mixed = subordinate(lam, rho)
    xi = np.concatenate([[0.0], np.linspace(0.25, 6.0, 20)])
    assert np.allclose(hankel_transform(lam, mixed, xi), np.exp(-t * np.abs(xi)),
                       atol=1e-7)


def test_subordination_needs_positive_times_and_a_kept_time():
    with pytest.raises(ConfigError, match="s > 0"):
        subordinate(1.0, dirac(0.0))
    # one time whose image e^(-1e4 r^2) at r = 0.25 (e^-625) is below the
    # certified tolerance leaves nothing to grid
    with pytest.raises(ResolutionError, match="the mixture has nothing to grid"):
        subordinate(1.0, dirac(1e4))


# sha256 of measure_to_json(cauchy_measure(lam, t)), recorded from the tree
# that built one rayleigh_measure per mixture time and mixed their density
# callables: mixing the heat densities directly must not move a byte
CAUCHY_JSON_SHA256 = {
    (0.5, 0.3): "ce173414c08b3cca90ddaf0f12cb5d65db164e17c351b6e5264e078b3120a2fe",
    (1.0, 0.45): "c7b0ce4bddc4fb939a1d6efb0f309b0a81683cb824e10e91280b2cc0cc2f9636",
    (1.5, 0.6): "f793c9e54be4be7849c731b16df6a4aab182f17482438aabd8c54b360a5b1a68",
    (2.5, 0.8): "65951e07506d1210c7afc58ef5ce2112af3b0f8893a6b5b38d4291fc3423f087",
}


@pytest.mark.parametrize("lam, t", list(CAUCHY_JSON_SHA256), ids=str)
def test_cauchy_profile_json_is_pinned(lam, t):
    text = measure_to_json(cauchy_measure(lam, t))
    assert hashlib.sha256(text.encode()).hexdigest() == CAUCHY_JSON_SHA256[(lam, t)]


# ---------------------------------------------------------------------------
# the engine works in cache-sized row blocks; results must not depend on them


def _two_tail_profile():
    """Rayleigh(0.4) body (mass 0.98) with far atoms at 20 and 60 (0.01 each)."""
    body = rayleigh_measure(1.0, 0.4, n=32)
    return RadialProfileMeasure._from_node_masses(
        body.grid, body.density, 0.98 * body.node_masses,
        atoms=[(20.0, 0.01), (60.0, 0.01)], lam=1.0)


def test_far_atoms_stay_distinct():
    # each chunk's far points used to be lumped into one atom at the rounded
    # rms radius: both tails came back as a single atom at 48.0, and the
    # image missed the product of the input images by 7.2e-3 at r = 0.1
    sigma, tau = _two_tail_profile(), rayleigh_measure(1.0, 0.7, n=32)
    conv = convolve_measures(1.0, sigma, tau)
    (z1, m1), (z2, m2) = conv.atoms
    assert 20.0 < z1 < 20.5 and 60.0 < z2 < 60.2
    assert 0.009 < m1 <= 0.01 and m2 == pytest.approx(0.01, rel=1e-12)
    assert conv.mass() == pytest.approx(sigma.mass() * tau.mass(), abs=1e-12)
    r = np.array([0.1, 0.5, 1.0])
    want = hankel_transform(1.0, sigma, r) * hankel_transform(1.0, tau, r)
    assert np.max(np.abs(hankel_transform(1.0, conv, r) - want)) < 1e-4


def test_zero_mass_far_atom_leaves_no_atom():
    body = rayleigh_measure(1.0, 0.4, n=16)
    sigma = RadialProfileMeasure(grid=body.grid, density=body.density, weights=body.weights,
                                 atoms=[(30.0, 0.0)], lam=1.0)
    assert convolve_measures(1.0, sigma, rayleigh_measure(1.0, 0.7, n=16)).atoms == []


@pytest.fixture(scope="module")
def cauchy_rayleigh():
    return cauchy_measure(1.0, 0.5), rayleigh_measure(1.0, 0.5, n=32)


@pytest.mark.parametrize("block", [2**10, 2**22])
def test_convolution_does_not_depend_on_the_blocks(monkeypatch, cauchy_rayleigh, block):
    sigma, tau = cauchy_rayleigh
    ref = convolve_measures(1.0, sigma, tau)
    assert ref.atoms  # the Cauchy profile's bookkeeping atom lands beyond the grid
    monkeypatch.setattr(measures, "_BLOCK", block)
    out = convolve_measures(1.0, sigma, tau)
    scale = np.max(np.abs(ref.node_masses))
    assert np.max(np.abs(out.node_masses - ref.node_masses)) <= 1e-13 * scale
    assert out.atoms == ref.atoms


def test_convolution_memory_stays_in_blocks(cauchy_rayleigh):
    # a Cauchy x Rayleigh product has 1.4M pair nodes; built whole they
    # took 129 MB of temporaries
    sigma, tau = cauchy_rayleigh
    tracemalloc.start()
    try:
        convolve_measures(1.0, sigma, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


# ---------------------------------------------------------------------------
# per-pair node tiers: a pair of support width 2 min(|a|, |b|) takes n angle
# nodes by that width in grid cells, at most points_per_pair


@pytest.fixture(scope="module")
def hypergroup_cauchy():
    """The profiles of a perfbench `hypergroup` Cauchy op: Cauchy(1.5, 0.5) and
    Rayleigh(1.5, 0.6) on 32 nodes."""
    return cauchy_measure(1.5, 0.5), rayleigh_measure(1.5, 0.6, n=32)


def _recorded_pair_nodes(monkeypatch):
    """Patch _pair_nodes to record (rows, cols, n, nodes yielded) per call."""
    calls, original = [], bessel_kingman._pair_nodes

    def recorder(lam, ax, bx, n):
        calls.append([ax.size, bx.size, n, 0])
        for rows, z, w in original(lam, ax, bx, n):
            calls[-1][3] += z.size
            yield rows, z, w

    monkeypatch.setattr(bessel_kingman, "_pair_nodes", recorder)
    return calls


def _deposited_points(monkeypatch):
    """Patch _grid_measure to count the points its pieces deposit."""
    count, original = [0], bessel_kingman._grid_measure

    def counter(cls, lo, hi, grid_n, pieces, **kwargs):
        def counted():
            for positions, masses in pieces:
                count[0] += positions.size
                yield positions, masses
        return original(cls, lo, hi, grid_n, counted(), **kwargs)

    monkeypatch.setattr(bessel_kingman, "_grid_measure", counter)
    return count


def test_every_pair_lands_in_one_rectangle(monkeypatch, hypergroup_cauchy):
    sigma, tau = hypergroup_cauchy
    calls = _recorded_pair_nodes(monkeypatch)
    convolve_measures(1.5, sigma, tau)
    na, nb = measures.as_weighted_atoms(sigma)[0].size, tau.grid.size
    assert len(calls) > 1 and sum(rows * cols for rows, cols, _, _ in calls) == na * nb
    # unsorted radii with zeros and signs on both sides reach every second rectangle
    rng = np.random.default_rng(7)
    ax = rng.choice([-1.0, 1.0], 300) * rng.uniform(0.0, 2.0, 300) ** 3
    bx = np.concatenate([rng.uniform(0.0, 2.0, 200) ** 3, [0.0]])
    h, hits = 1e-3, np.zeros((ax.size, bx.size), dtype=int)
    for ia, ib, n in bessel_kingman._node_tiers(ax, bx, h, 32):
        hits[np.ix_(ia, ib)] += 1
        width = np.minimum.outer(np.abs(ax[ia]), np.abs(bx[ib]))
        assert n == 32 or width.max() < n * n * h / 8
        assert n == 2 or width.min() >= (n // 2) ** 2 * h / 8
    assert (hits == 1).all()


def test_tiered_convolution_keeps_the_mass(hypergroup_cauchy):
    sigma, tau = hypergroup_cauchy
    conv = convolve_measures(1.5, sigma, tau)
    assert conv.atoms  # the Cauchy profile's far atom stays in the far bookkeeping
    assert abs(conv.mass() - sigma.mass() * tau.mass()) <= 1e-14


def test_points_per_pair_caps_every_tier(monkeypatch):
    # default 256-node profiles start below one grid cell, so four tiers run
    sigma, tau = rayleigh_measure(1.0, 0.4), rayleigh_measure(1.0, 0.7)
    calls = _recorded_pair_nodes(monkeypatch)
    convolve_measures(1.0, sigma, tau, points_per_pair=12)
    assert {n for _, _, n, _ in calls} == {4, 8, 12}
    calls.clear()
    deposited = _deposited_points(monkeypatch)
    convolve_measures(1.0, sigma, tau, points_per_pair=2)
    assert [n for _, _, n, _ in calls] == [2]
    assert deposited[0] == sigma.grid.size * tau.grid.size * 2


def test_narrow_pairs_take_fewer_nodes(monkeypatch, hypergroup_cauchy):
    sigma, tau = hypergroup_cauchy
    calls = _recorded_pair_nodes(monkeypatch)
    conv = convolve_measures(1.5, sigma, tau)
    na, nb = measures.as_weighted_atoms(sigma)[0].size, tau.grid.size
    assert sum(nodes for _, _, _, nodes in calls) <= 0.75 * na * nb * 32
    r = np.array([0.0, 0.25, 1.0, 2.0, 3.0, 4.5, 6.0])
    want = np.exp(-0.5 * r - 0.6 * r * r)
    assert np.max(np.abs(hankel_transform(1.5, conv, r) - want)) <= 1e-9


# sha256 of measure_to_json(convolve_measures(lam, rayleigh_measure(lam, s, n=32),
# rayleigh_measure(lam, t, n=32))), recorded from the tree that gave every pair
# 32 angle nodes: these pairs all take the top tier, one rectangle, every bit kept
RAYLEIGH_CONVOLUTION_SHA256 = {
    (0.5, 0.3, 0.8): "ad6b4626b2c710812f3ddee3240fe696f06db3c683f8b44291d8da59a5c40079",
    (1.5, 0.3, 0.3): "a1afeaa52ebc6c4e4bd66b4690cc6e50de6895b69c0b6a5d884dc8780a813eef",
}


@pytest.mark.parametrize("lam, s, t", list(RAYLEIGH_CONVOLUTION_SHA256), ids=str)
def test_wide_pairs_keep_every_bit(lam, s, t):
    conv = convolve_measures(lam, rayleigh_measure(lam, s, n=32), rayleigh_measure(lam, t, n=32))
    text = measure_to_json(conv)
    assert hashlib.sha256(text.encode()).hexdigest() == RAYLEIGH_CONVOLUTION_SHA256[(lam, s, t)]
