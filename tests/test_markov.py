"""k-invariant kernels, semigroups, and the exact path sampler."""

import hashlib
import json

import numpy as np
import pytest

from dunklkit import (
    ConfigError,
    ConsistencyError,
    KernelSemigroup,
    KRadialMeasure,
    MarkovKernelHandle,
    MultiplicityVector,
    PathEnsemble,
    PositivityError,
    ResolutionError,
    convolve_k,
    kernel_unitary,
    marginal_ks,
    semigroup_from_json,
    simulate_paths,
    translate_measure,
)
from dunklkit.bessel_kingman import (cauchy_measure, hankel_transform, rayleigh_measure,
                                     stable_half_subordinator)
from dunklkit.transform import (_heat_quadrature, heat_kernel, heat_kernel_spectral,
                                radial_heat_profile)
from dunklkit.markov import (
    _heat_step,
    _resolve_threads,
    composed_kernel_hat,
    gaussian_kernel_hat,
    subordinated_density,
    subordinated_kernel_hat,
)
from dunklkit.measures import as_weighted_atoms, dirac

KV1 = MultiplicityVector(k=(1.0,))
KV2 = MultiplicityVector(k=(1.0, 0.5))


# ---------------------------------------------------------------------------
# k-radial measures


def test_kradial_constructors_and_hats():
    heat = KRadialMeasure.heat(KV2, 0.6)
    xi = np.array([[0.0, 0.0], [0.5, -0.3], [1.0, 2.0]])
    r2 = np.sum(xi * xi, axis=-1)
    np.testing.assert_allclose(heat.hat(xi), np.exp(-0.6 * r2), atol=1e-11)

    cauchy = KRadialMeasure.cauchy(KV1, 0.8)
    xi1 = np.array([[0.0], [0.7], [2.5]])
    np.testing.assert_allclose(cauchy.hat(xi1),
                               np.exp(-0.8 * np.abs(xi1[:, 0])), atol=5e-8)

    point = KRadialMeasure.point(KV2)
    np.testing.assert_allclose(point.hat(xi), 1.0, atol=1e-14)


def test_kradial_hat_is_rotation_invariant():
    mu = KRadialMeasure.heat(KV2, 0.4)
    r = 1.3
    angles = np.linspace(0.0, 2 * np.pi, 7)
    vals = mu.hat(np.stack([r * np.cos(angles), r * np.sin(angles)], axis=-1))
    assert np.ptp(vals) < 1e-12


def test_kradial_validation():
    with pytest.raises(ConfigError):
        KRadialMeasure(KV2, "not a profile")
    # profile index must match lam of the multiplicity
    with pytest.raises(ConfigError):
        KRadialMeasure(KV2, rayleigh_measure(0.25, 0.5))
    # mass must be 1
    half = rayleigh_measure(KV2.lam, 0.5)
    half = type(half)(grid=half.grid, density=0.5 * half.density,
                      weights=half.weights, lam=half.lam)
    with pytest.raises(PositivityError):
        KRadialMeasure(KV2, half)


# ---------------------------------------------------------------------------
# translation


def test_translate_at_origin_is_plain_integral():
    mu = KRadialMeasure.heat(KV2, 0.5)
    f0 = lambda r: np.exp(-np.asarray(r) ** 2)
    got = translate_measure(np.zeros(2), mu, f0=f0)
    want = mu.profile.integrate(f0)
    assert got == pytest.approx(want, rel=1e-10)


def test_translate_point_measure_evaluates_f():
    point = KRadialMeasure.point(KV2)
    x = np.array([0.8, -0.6])
    f0 = lambda r: np.cos(np.asarray(r))
    got = translate_measure(x, point, f0=f0)
    assert got == pytest.approx(float(np.cos(np.linalg.norm(x))), rel=1e-9)


def test_translate_at_origin_is_plain_integral_at_three_axes():
    # the radial mean is a point convolution at every N; N = 3 was refused
    kv = MultiplicityVector(k=(1.0, 0.5, 0.2))
    mu = KRadialMeasure.heat(kv, 0.5)
    f0 = lambda r: np.exp(-np.asarray(r) ** 2)
    got = translate_measure(np.zeros(3), mu, f0=f0)
    assert abs(got - mu.profile.integrate(f0)) <= 6e-17


def test_translate_point_measure_evaluates_f_at_three_axes():
    kv = MultiplicityVector(k=(1.0, 0.5, 0.2))
    x = np.array([0.8, -0.6, 0.3])
    got = translate_measure(x, KRadialMeasure.point(kv), f0=np.cos)
    assert abs(got - np.cos(np.linalg.norm(x))) <= 6e-17


def test_translate_requires_exactly_one_test_function():
    mu = KRadialMeasure.heat(KV2, 0.5)
    with pytest.raises(ConfigError):
        translate_measure(np.zeros(2), mu)
    with pytest.raises(ConfigError, match="exactly one of f, f0"):
        translate_measure(np.zeros(2), mu, f0=lambda r: r, f=lambda pts: pts[:, 0])
    # general callables are a rank-one feature
    with pytest.raises(ConfigError):
        translate_measure(np.zeros(2), mu, f=lambda pts: pts[:, 0])


def test_translate_constant_profile_keeps_mass_one():
    mu = KRadialMeasure.heat(KV2, 0.5)
    got = translate_measure(np.array([0.3, 0.1]), mu, f0=lambda r: 1.0)
    assert got == pytest.approx(1.0, abs=1e-10)


def test_rank_one_translation_is_k_invariant():
    # int E_k(-i xi, y) dP(x, .) = E_k(-i xi, x) mu^(xi), evaluated through
    # the explicit rank-one mean measures on the left
    k = 1.0
    mu = KRadialMeasure.heat(KV1, 0.4)
    sg_hat = lambda xi: np.exp(-0.4 * xi * xi)
    for x, xi in [(0.7, 0.9), (-1.1, 0.4), (0.5, 2.0)]:
        lhs = translate_measure(
            np.array([x]), mu,
            f=lambda pts: np.conj(kernel_unitary(k, xi, pts[..., 0])))
        rhs = np.conj(kernel_unitary(k, xi, x)) * sg_hat(xi)
        assert abs(lhs - rhs) < 1e-7


# ---------------------------------------------------------------------------
# kernel transforms by honest quadrature


def test_gaussian_kernel_hat_factorizes():
    # the quadrature route must reproduce E_k(-ix, xi) e^{-t |xi|^2}
    t = 0.5
    for kv, x, xi in [(KV1, np.array([0.8]), np.array([1.1])),
                      (KV2, np.array([0.6, -0.9]), np.array([0.4, 1.2]))]:
        got = gaussian_kernel_hat(kv, t, x, xi)
        from dunklkit import dunkl_kernel_unitary
        want = complex(np.conj(dunkl_kernel_unitary(kv, x, xi))
                       * np.exp(-t * float(np.sum(xi * xi))))
        assert abs(got - want) < 1e-8


def test_composed_kernel_hat_semigroup_law():
    s, t = 0.3, 0.45
    x = np.array([0.7])
    xi = np.array([0.9])
    two_step = composed_kernel_hat(KV1, s, t, x, xi)
    one_step = gaussian_kernel_hat(KV1, s + t, x, xi)
    assert abs(two_step - one_step) < 1e-8


def test_subordinated_kernel_hat_matches_cauchy_character():
    t = 0.8
    x = np.array([0.5])
    xi = np.array([1.2])
    got = subordinated_kernel_hat(KV1, t, x, xi)
    from dunklkit import dunkl_kernel_unitary
    want = complex(np.conj(dunkl_kernel_unitary(KV1, x, xi))
                   * np.exp(-t * float(np.sqrt(np.sum(xi * xi)))))
    assert abs(got - want) < 1e-6


K3 = MultiplicityVector(k=(3.0,))


@pytest.mark.parametrize("t", [1e-3, 1e-10])
def test_kernel_hats_resolve_short_times(t):
    # the 160-node axis rule on |x| + sqrt(160 t) read 2.349 - 0.168i at
    # t = 1e-10; the heat peaks at y = +-x now get a window of their own
    x, xi = np.array([0.5]), np.array([1.0])
    from dunklkit import dunkl_kernel_unitary
    want = complex(np.conj(dunkl_kernel_unitary(K3, x, xi))) * np.exp(-t)
    assert abs(gaussian_kernel_hat(K3, t, x, xi) - want) <= 1e-11
    # one inner window per outer node: a step of 1e-3 then one of t
    assert abs(composed_kernel_hat(K3, 1e-3, t, x, xi) - want * np.exp(-1e-3)) <= 1e-11


def test_composed_kernel_hat_semigroup_law_on_two_axes():
    # every outer node's inner window in one array pass, on both axes
    x, xi = np.array([0.8, -0.5]), np.array([0.4, 0.9])
    for s, t in ((0.25, 0.75), (1e-3, 1e-5)):
        assert abs(composed_kernel_hat(KV2, s, t, x, xi)
                   - gaussian_kernel_hat(KV2, s + t, x, xi)) <= 1e-12


def test_array_passes_match_the_loops_they_replaced():
    # composed_kernel_hat's inner windows for all outer nodes at once, against one
    # gaussian_kernel_hat per node; subordinated_kernel_hat's near and tail arrays
    # against one term per mixture time
    from dunklkit import dunkl_kernel_unitary
    x, xi = np.array([0.7]), np.array([0.9])
    rule, heat = _heat_quadrature(1.0, 0.3, 0.7)
    loop = sum(h * gaussian_kernel_hat(KV1, 0.45, [z], xi) for z, h in zip(rule.nodes, heat))
    assert abs(composed_kernel_hat(KV1, 0.3, 0.45, x, xi) - loop) <= 1e-14
    tail = complex(np.conj(dunkl_kernel_unitary(KV1, x, xi)))
    loop = sum(m * (gaussian_kernel_hat(KV1, s, x, xi) if s <= 50.0 else tail * np.exp(-s * 0.81))
               for s, m in zip(*as_weighted_atoms(stable_half_subordinator(0.8))))
    assert abs(subordinated_kernel_hat(KV1, 0.8, x, xi) - loop) <= 1e-14


def test_kernel_hats_refuse_what_they_cannot_resolve():
    # at t = 1e-30 the heat window sqrt(160 t) is about a hundred ulps of |x|; both read 0j once
    x, xi = np.array([0.5]), np.array([1.0])
    with pytest.raises(ResolutionError, match="mass"):
        gaussian_kernel_hat(K3, 1e-30, x, xi)
    with pytest.raises(ResolutionError, match="mass"):
        composed_kernel_hat(K3, 1e-30, 1e-30, x, xi)


def test_kernel_hat_validation():
    with pytest.raises(ConfigError):
        gaussian_kernel_hat(KV1, 0.0, np.array([0.5]), np.array([1.0]))
    with pytest.raises(ConfigError):
        composed_kernel_hat(KV1, 0.5, -0.1, np.array([0.5]), np.array([1.0]))


# ---------------------------------------------------------------------------
# convolution of k-radial measures


def test_convolve_k_heat_semigroup():
    a = KRadialMeasure.heat(KV2, 0.3)
    b = KRadialMeasure.heat(KV2, 0.7)
    c = convolve_k(a, b)
    xi = np.array([[0.4, -0.2], [1.0, 0.5], [0.0, 2.0]])
    r2 = np.sum(xi * xi, axis=-1)
    np.testing.assert_allclose(c.hat(xi), np.exp(-1.0 * r2), atol=1e-9)


def test_convolve_k_point_is_neutral():
    mu = KRadialMeasure.heat(KV1, 0.5)
    out = convolve_k(mu, KRadialMeasure.point(KV1))
    xi = np.array([[0.3], [0.9], [1.7]])
    np.testing.assert_allclose(out.hat(xi), mu.hat(xi), atol=1e-9)


def test_convolve_k_refuses_two_multiplicities():
    # each measure carries its k; (1, 0.5) and (0.5, 1) share lam, so the
    # profiles alone cannot tell them apart
    with pytest.raises(ConfigError, match="multiplicities"):
        convolve_k(KRadialMeasure.heat(KV2, 0.3), KRadialMeasure.heat((0.5, 1.0), 0.7))


@pytest.mark.parametrize("mu", ["x", None, rayleigh_measure(0.5, 0.3)],
                         ids=["string", "none", "radial profile"])
def test_kernel_handle_refuses_a_mu_that_is_not_k_radial(mu):
    # a string mu was accepted and failed only in apply() with AttributeError
    with pytest.raises(ConfigError, match="KRadialMeasure"):
        MarkovKernelHandle(mu)


# ---------------------------------------------------------------------------
# semigroups


def test_gaussian_semigroup_roundtrip():
    sg = semigroup_from_json(json.dumps({"type": "gaussian", "k": [1.0, 0.5]}))
    assert sg.kind == "gaussian"
    assert sg.closure_residual < 1e-7
    r = np.array([0.0, 0.5, 1.5])
    xi = np.stack([r, np.zeros_like(r)], axis=-1)
    np.testing.assert_allclose(sg.measure(0.7).hat(xi), np.exp(-0.7 * r * r), atol=1e-10)
    handle = sg.kernel(0.7)
    assert handle.kind == "gaussian"
    assert handle.time == 0.7
    # measure(0) is the point mass
    assert sg.measure(0.0).profile.atoms == [(0.0, 1.0)]


def test_semigroup_family_checks():
    kv = KV1
    lam = kv.lam
    # family(0) must be the unit point mass at 0
    bad_start = lambda t: rayleigh_measure(lam, max(t, 0.1))
    with pytest.raises(ConfigError):
        KernelSemigroup(kv, bad_start)
    # a family with broken time scaling violates the hypergroup law
    crooked = lambda t: rayleigh_measure(lam, t**2) if t > 0 else dirac(0.0, lam=lam)
    with pytest.raises(ConsistencyError):
        KernelSemigroup(kv, crooked)


def test_closure_check_builds_each_time_once():
    # the check used to build 12 profiles over all ordered pairs of (0.25, 0.5);
    # its residual must equal that ordered-pair maximum bit for bit
    calls = []
    base = lambda t: cauchy_measure(KV1.lam, t) if t > 0 else dirac(0.0, lam=KV1.lam)
    family = lambda t: calls.append(t) or base(t)
    sg = KernelSemigroup(KV1, family)
    assert sorted(calls) == [0.0, 0.25, 0.5, 0.75, 1.0]
    freqs = np.concatenate([[0.0], np.linspace(0.3, 6.0, 20)])
    hat = lambda t: hankel_transform(KV1.lam, base(t), freqs)
    want = max(float(np.max(np.abs(hat(s) * hat(t) - hat(s + t))))
               for s in (0.25, 0.5) for t in (0.25, 0.5))
    assert sg.closure_residual == want


def test_closure_check_refuses_nan(monkeypatch):
    # NaN > tol is false, and a running max drops a NaN that is not first:
    # the check used to build this semigroup, NaN only at s + t = 1
    nan_at_one = rayleigh_measure(KV1.lam, 1.0)
    family = lambda t: (nan_at_one if t == 1.0 else rayleigh_measure(KV1.lam, t) if t > 0
                        else dirac(0.0, lam=KV1.lam))
    monkeypatch.setattr("dunklkit.markov.hankel_transform", lambda lam, mu, r: (
        np.full(np.shape(r), np.nan) if mu is nan_at_one else hankel_transform(lam, mu, r)))
    with pytest.raises(ConsistencyError, match="nan"):
        KernelSemigroup(KV1, family)


def test_semigroup_json_validation():
    good = {"type": "gaussian", "k": [1.0]}
    semigroup_from_json(json.dumps(good))
    with pytest.raises(ConfigError):
        semigroup_from_json("{broken")
    with pytest.raises(ConfigError):
        semigroup_from_json(json.dumps({**good, "extra": 1}))
    with pytest.raises(ConfigError):
        semigroup_from_json(json.dumps({"type": "gaussian"}))
    with pytest.raises(ConfigError):
        semigroup_from_json(json.dumps({"type": "poisson", "k": [1.0]}))
    # the profiles' resolution is fixed: params is no semigroup key
    with pytest.raises(ConfigError, match=r"unknown semigroup keys: \['params'\]"):
        semigroup_from_json(json.dumps({"type": "gaussian", "k": [1.0],
                                        "params": {"bananas": 3}}))


@pytest.mark.parametrize("text", [
    '1', '["type", "k"]', '{"type": "gaussian", "k": [1.0], "params": ["n_profile"]}',
    '{"type": "gaussian", "k": [1.0], "params": {"n_profile": "a"}}',
    '{"type": "gaussian", "k": [1.0], "params": {"n_profile": 0}}',
    '{"type": "gaussian", "k": [1.0], "params": {"n_profile": 2.5}}',
    '{"type": "gaussian", "k": ["a"]}',
    '{"type": "cauchy", "k": [1.0], "params": {"freq_max": "a"}}',
    '{"type": "cauchy", "k": [1.0], "params": {"tail_tol": "x"}}',
    '{"type": "cauchy", "k": [1.0], "params": {"max_nodes": 2.5}}',
    '{"type": "cauchy", "k": [1.0], "params": {"r_min": -1}}',
    '{"type": "cauchy", "k": [1.0], "params": {"freq_max": NaN}}',
    '{"type": "subordinated", "k": [1.0]}',
    '{"type": ["gaussian"], "k": [1.0]}',
    '{"type": "gaussian", "k": [1.0], "seed": 7}',
], ids=["number", "list", "params-list", "n_profile-str", "n_profile-0", "n_profile-fraction",
        "k-str", "cauchy-freq_max-str", "cauchy-tail_tol-str", "cauchy-max_nodes-fraction",
        "cauchy-r_min-negative", "cauchy-freq_max-nan", "subordinated", "type-list", "seed"])
def test_semigroup_json_boundary_errors_are_typed(text):
    # each was a TypeError, ValueError or scipy's ValueError; max_nodes 2.5
    # was a ResolutionError, and r_min -1 built the whole Cauchy family
    # before its closure check failed with ConsistencyError.  The params
    # rows are now refused as an unknown key, and "subordinated", once the
    # Cauchy semigroup under a second name, as an unknown kind; a simulation
    # takes its seed per call, so "seed" is an unknown key too
    with pytest.raises(ConfigError):
        semigroup_from_json(text)


def test_semigroup_simulation_needs_seed():
    sg = semigroup_from_json(json.dumps({"type": "gaussian", "k": [1.0]}))
    with pytest.raises(ConfigError, match="seed must be an integer"):
        sg.simulate([0.0, 0.5, 1.0], 8, None)
    ens = sg.simulate([0.0, 0.5, 1.0], 8, 42)
    assert len(ens) == 8
    # custom families have no sampler
    sg2 = KernelSemigroup(KV1, lambda t: rayleigh_measure(KV1.lam, t)
                          if t > 0 else dirac(0.0, lam=KV1.lam))
    with pytest.raises(ConfigError):
        sg2.simulate([0.0, 1.0], 4, seed=1)


# ---------------------------------------------------------------------------
# the kernel handle, each method against a route it does not share


def test_kernel_handle_apply_obeys_the_semigroup_law():
    # delta_x *_k mu_0.4 against the time-0.3 heat profile is the time-0.7 profile at |x|
    handle = semigroup_from_json(json.dumps({"type": "gaussian", "k": [1.0, 0.5]})).kernel(0.4)
    f0 = lambda r: radial_heat_profile(KV2, 0.3, r)
    for x in ([0.0, 0.0], [0.9, -0.7], [-1.4, 0.3]):
        want = radial_heat_profile(KV2, 0.7, np.hypot(*x))
        assert handle.apply(np.array(x), f0=f0) == pytest.approx(want, rel=2e-14)


def test_kernel_handle_hat_matches_the_quadrature_transform():
    handle = semigroup_from_json(json.dumps({"type": "gaussian", "k": [1.0, 0.5]})).kernel(0.4)
    for x, xi in [([0.9, -0.7], [1.1, 0.4]), ([-0.3, 1.2], [-0.8, 1.5]), ([0.0, 0.0], [0.6, -0.2])]:
        x, xi = np.array(x), np.array(xi)
        assert abs(handle.hat(x, xi) - gaussian_kernel_hat(KV2, 0.4, x, xi)) <= 2e-14


def test_kernel_handle_cauchy_density_is_the_poisson_kernel():
    # k = 0: the classical Poisson kernel of the half-space over R^2
    handle = semigroup_from_json(json.dumps({"type": "cauchy", "k": [0.0, 0.0]})).kernel(0.7)
    for x, y in [([0.0, 0.0], [0.5, -0.3]), ([0.9, -0.7], [-0.2, 0.4]), ([1.5, 0.5], [1.5, 0.5])]:
        x, y = np.array(x), np.array(y)
        want = 0.7 / (2.0 * np.pi * (0.7**2 + np.sum((x - y) ** 2)) ** 1.5)
        assert handle.density(x, y) == pytest.approx(want, rel=1e-7)


# ---------------------------------------------------------------------------
# path simulation


def test_simulate_paths_validation():
    with pytest.raises(ConfigError):
        simulate_paths(KV1, [0.5, 1.0], 10, seed=1)  # must start at 0
    with pytest.raises(ConfigError):
        simulate_paths(KV1, [0.0, 1.0, 0.5], 10, seed=1)
    with pytest.raises(ConfigError):
        simulate_paths(KV1, [0.0], 10, seed=1)
    with pytest.raises(ConfigError):
        simulate_paths(KV1, [0.0, 1.0], 0, seed=1)
    with pytest.raises(ConfigError):
        simulate_paths(KV1, [0.0, 1.0], 10, seed=1, kind="levy-flight")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), "a"])
@pytest.mark.parametrize("call", [
    lambda t: simulate_paths(KV1, [0.0, 0.5, t], 10, seed=1),
    lambda t: simulate_paths(KV1, [0.0, t], 10, seed=1, kind="cauchy"),
    lambda t: rayleigh_measure(0.5, t),
    lambda t: cauchy_measure(0.5, t),
    lambda t: stable_half_subordinator(t),
    lambda t: heat_kernel(KV1, t, [0.3], [[0.5]]),
    lambda t: gaussian_kernel_hat(KV1, t, [0.3], [0.5]),
    lambda t: composed_kernel_hat(KV1, t, 0.4, [0.3], [0.5]),
    lambda t: composed_kernel_hat(KV1, 0.4, t, [0.3], [0.5]),
    lambda t: radial_heat_profile(KV1, t, 0.5),
    lambda t: heat_kernel_spectral(KV1, t, [0.3], [0.5]),
    lambda t: subordinated_density(KV1, t, [0.3], [0.5]),
], ids=["simulate_paths", "simulate_paths_cauchy", "rayleigh_measure", "cauchy_measure",
        "stable_half_subordinator", "heat_kernel", "gaussian_kernel_hat",
        "composed_kernel_hat_s", "composed_kernel_hat_t", "radial_heat_profile",
        "heat_kernel_spectral", "subordinated_density"])
def test_non_finite_times_are_config_errors(call, bad):
    # a string time was a bare TypeError in every row, numpy's ValueError in
    # simulate_paths' t_grid
    with pytest.raises(ConfigError):
        call(bad)


@pytest.mark.parametrize("t", [0.0, -0.5])
def test_radial_heat_profile_needs_positive_time(t):
    with pytest.raises(ConfigError):
        radial_heat_profile(KV1, t, 0.5)


def test_thread_count_is_capped_by_blocks_and_cpus(monkeypatch):
    # resolver only: no thread is started
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert _resolve_threads(10**6, 16) == 4
    assert _resolve_threads(10**6, 3) == 3
    assert _resolve_threads(2, 16) == 2
    assert _resolve_threads(0, 16) == 1
    assert _resolve_threads(None, 16) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _resolve_threads(None, 16) == 1


def test_simulate_paths_reproducible_and_thread_invariant():
    grid = [0.0, 0.25, 0.5, 1.0]
    a = simulate_paths(KV2, grid, 64, seed=2024, threads=1)
    b = simulate_paths(KV2, grid, 64, seed=2024, threads=4)
    assert np.array_equal(a.states, b.states)
    c = simulate_paths(KV2, grid, 64, seed=2025, threads=1)
    assert not np.array_equal(a.states, c.states)
    # block partition is part of the stream layout
    d = simulate_paths(KV2, grid, 64, seed=2024, threads=1, n_blocks=4)
    assert not np.array_equal(a.states, d.states)


@pytest.mark.parametrize("n_blocks", [0, -1])
def test_simulate_paths_rejects_nonpositive_block_count(n_blocks):
    # n_blocks = 0 used to return all-zero paths
    with pytest.raises(ConfigError, match="n_blocks must be at least 1"):
        simulate_paths(KV2, [0.0, 0.5], 8, seed=1, n_blocks=n_blocks)


_FINE_GRID = [0.0, 1 / 3, 2 / 3, 1.0, 1.0 + 1e-8, 1.0 + 2e-8, 1.0 + 2e-8 + 1e-10,
              1.0 + 2e-8 + 2e-10]


# sha256 of states.tobytes() at seed 2024, from the sampler that stepped each
# block on its own: the draws of a block, and so the paths, must not depend
# on how blocks are grouped into one array pass
@pytest.mark.parametrize("kind, k, n_paths, n_blocks, grid, digest", [
    ("gaussian", (1.0, 0.5), 64, 16, [0.0, 0.25, 0.5, 1.0],
     "9f0cd4260eb817df3bd19736e81a91407b1ec05dc4477cb95981fae0f18fd5f0"),
    ("cauchy", (1.0, 0.5), 64, 16, [0.0, 0.25, 0.5, 1.0],
     "f8e37edec8344a063ce9a6528754482be1ca6d326b9cd389b225b95dd7106da1"),
    ("gaussian", (0.0, 2.0), 50, 5, [0.0, 0.25, 0.5, 1.0],
     "0ef89bdcd615be9d1f012fba89518fb34a4b0ff6477e42676d380d0cfeec1179"),
    ("cauchy", (0.0, 2.0), 50, 5, [0.0, 0.25, 0.5, 1.0],
     "85f28e76c7c981130c5d2f7c1cb7aaa4e0c7acd9fd25796b284933a757dc5b8b"),
    ("gaussian", (0.3, 1.7), 37, 200, [0.0, 0.25, 0.5, 1.0],
     "62f43f8937eb4c0775b3eecf49ae8d9e2d8efdf3d1327da836daf98329b294d7"),
    ("cauchy", (0.3, 1.7), 37, 200, [0.0, 0.25, 0.5, 1.0],
     "4c7cd4364bf9b5c16725e2ac36696ddbf895211ee40c75c19bc3c96b6fa10877"),
    ("gaussian", (1.0, 0.5), 40, 16, _FINE_GRID,
     "2321418291ac7acd4475362b3ef66888f128adfea6c7a5adbbf296b73c60e88b"),
    ("cauchy", (1.0,), 40, 16, _FINE_GRID,
     "9a4de2fb632a3148c4fb5cb493181ada6befdb54ea8a247581bd2ae078706b12"),
], ids=["gauss-k1,0.5", "cauchy-k1,0.5", "gauss-k0,2-5blocks", "cauchy-k0,2-5blocks",
        "gauss-k0.3,1.7-200blocks", "cauchy-k0.3,1.7-200blocks", "gauss-fine", "cauchy-fine"])
def test_simulate_paths_states_are_pinned(monkeypatch, kind, k, n_paths, n_blocks, grid, digest):
    monkeypatch.setattr("os.cpu_count", lambda: 4)   # so that threads=2 runs two workers
    kv = MultiplicityVector(k)
    one = simulate_paths(kv, grid, n_paths, seed=2024, kind=kind, n_blocks=n_blocks, threads=1)
    two = simulate_paths(kv, grid, n_paths, seed=2024, kind=kind, n_blocks=n_blocks, threads=2)
    assert hashlib.sha256(one.states.tobytes()).hexdigest() == digest
    assert np.array_equal(one.states, two.states)
    monkeypatch.setattr("dunklkit.markov._BLOCK", 8)   # many short runs per worker
    runs = simulate_paths(kv, grid, n_paths, seed=2024, kind=kind, n_blocks=n_blocks, threads=1)
    assert np.array_equal(one.states, runs.states)


@pytest.mark.parametrize("kwargs", [
    {"seed": 1.5}, {"seed": "7"}, {"n_paths": 2.5}, {"n_blocks": 2.7}, {"n_paths": float("nan")},
    {"threads": "a"}, {"threads": 0}, {"threads": -3}, {"threads": 2.7}, {"threads": True},
    {"n_paths": True}, {"seed": True}, {"n_blocks": np.True_},
], ids=["seed-float", "seed-str", "n_paths-fraction", "n_blocks-fraction", "n_paths-nan",
        "threads-str", "threads-0", "threads-negative", "threads-fraction", "threads-bool",
        "n_paths-bool", "seed-bool", "n_blocks-numpy-bool"])
def test_simulate_paths_rejects_non_integer_counts_and_seeds(kwargs):
    # seed=1.5 was a bare TypeError; fractional counts were truncated;
    # threads="a" was a ValueError, threads 0, -3 and 2.7 ran as 1, 1 and 2
    # workers, and True ran as one path or seed 1
    args = {"seed": 1, "n_paths": 8, "n_blocks": 4, **kwargs}
    with pytest.raises(ConfigError):
        simulate_paths(KV2, [0.0, 0.5], args.pop("n_paths"), seed=args.pop("seed"), **args)


def test_simulate_paths_accepts_numpy_integer_seeds():
    a = simulate_paths(KV2, [0.0, 0.5], 8, seed=np.int64(2**62))
    b = simulate_paths(KV2, [0.0, 0.5], 8, seed=2**62)
    assert np.array_equal(a.states, b.states) and a.seed == 2**62


@pytest.mark.parametrize("kind", ["cauchy"])
@pytest.mark.parametrize("grid", [[0.0, 1e-300], [0.0, 1e200], [0.0, 1e-160, 1.0],
                                  [0.0, 1e150], [0.0, 1.0, 1.0 + 2e4]],
                         ids=["dt-squared-underflows", "dt-squared-overflows", "subnormal",
                              "dt-1e150", "second-dt-2e4"])
def test_cauchy_steps_need_a_normal_dt_squared(kind, grid):
    # 0.5 dt^2 used to underflow to 0 (NaN states) or overflow (inf states);
    # past dt = 1e4 the time change dt^2 / (2 z^2) could overflow ("overflow
    # encountered in multiply" under -W error at dt = 1e150, 100000 paths)
    with pytest.raises(ConfigError, match="normal float"):
        simulate_paths(KV1, grid, 10, seed=1, kind=kind)


def test_cauchy_steps_up_to_the_bound_stay_finite():
    ens = simulate_paths(KV2, [0.0, 1e4, 2e4], 20000, seed=1, kind="cauchy")
    assert np.all(np.isfinite(ens.states))


def test_gaussian_steps_take_tiny_dt():
    ens = simulate_paths(KV2, [0.0, 1e-300, 1.0], 10, seed=1)
    assert np.all(np.isfinite(ens.states))


def test_simulate_paths_shapes_and_start():
    ens = simulate_paths(KV2, [0.0, 0.3, 0.8], 32, seed=5)
    assert ens.states.shape == (32, 3, 2)
    assert np.all(ens.states[:, 0, :] == 0.0)
    assert ens.n_axes == 2
    sample = ens[3]
    assert sample.states.shape == (3, 2)
    np.testing.assert_array_equal(sample.times, ens.times)
    assert ens.radii().shape == (32,)


def test_gaussian_marginals_match_rayleigh_law():
    ens = simulate_paths(KV1, [0.0, 0.4, 1.0], 6000, seed=99)
    stat, p = marginal_ks(KV1, ens.radii(), "gaussian", 1.0)
    assert p >= 0.01
    # intermediate marginal too
    _, p_mid = marginal_ks(KV1, ens.radii(1), "gaussian", 0.4)
    assert p_mid >= 0.01


def test_cauchy_marginals_match_cauchy_law():
    ens = simulate_paths(KV1, [0.0, 0.6], 6000, seed=7, kind="cauchy")
    stat, p = marginal_ks(KV1, ens.radii(), "cauchy", 0.6)
    assert p >= 0.01


def test_marginal_ks_unknown_kind():
    with pytest.raises(ConfigError):
        marginal_ks(KV1, np.ones(10), "poisson", 1.0)


@pytest.mark.parametrize("radii, t", [
    ([0.5, float("nan"), 1.0], 1.0), ([0.5, float("inf")], 1.0), ([0.5, -0.1], 1.0),
    ([], 1.0), (np.ones((4, 2)), 1.0), (np.ones(10), float("nan")),
    (np.ones(10), float("inf")), (np.ones(10), -1.0), (np.ones(10), 0.0), (["a", 0.5], 1.0),
], ids=["nan-radius", "inf-radius", "negative-radius", "empty", "2d", "nan-t", "inf-t",
        "negative-t", "zero-t", "str-radius"])
@pytest.mark.parametrize("kind", ["gaussian", "cauchy"])
def test_marginal_ks_rejects_bad_radii_and_times(radii, t, kind):
    # these returned (nan, nan) or (1.0, 0.0), or raised a bare TypeError
    # (a string radius numpy's bare ValueError)
    with pytest.raises(ConfigError):
        marginal_ks(KV1, radii, kind, t)


def test_path_ensemble_csv_format(tmp_path):
    ens = simulate_paths(KV2, [0.0, 0.5], 3, seed=11)
    path = str(tmp_path / "paths.csv")
    ens.to_csv(path, header={"seed": 11})
    lines = open(path).read().splitlines()
    assert lines[0] == "# seed: 11"
    assert lines[1] == "path_id,time,x1,x2"
    assert len(lines) == 2 + 3 * 2
    first = lines[2].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0


def test_path_ensemble_csv_bytes_match_per_value_formatting(tmp_path):
    # every float as float repr writes it (shortest round-trip digits);
    # enough paths to span several write blocks, plus signed zeros and extremes
    rng = np.random.default_rng(7)
    states = rng.standard_normal((3000, 3, 2)) * np.exp(rng.uniform(-30, 30, (3000, 3, 2)))
    states[0, 0], states[1, 2], states[2999, 1] = (-0.0, 0.0), (1e-300, -1e300), (1e300, -0.0)
    ens = PathEnsemble(times=np.array([0.0, 0.1, 1.0 / 3.0]), states=states, seed=7)
    header = {"seed": 7, "k": [1.0, 0.5], "kind": "gaussian"}
    path = tmp_path / "paths.csv"
    ens.to_csv(str(path), header=header)
    want = [f"# {key}: {val}\n" for key, val in header.items()] + ["path_id,time,x1,x2\n"]
    for pid in range(states.shape[0]):
        for j, tj in enumerate(ens.times):
            coords = ",".join(repr(float(c)) for c in states[pid, j])
            want.append(f"{pid},{float(tj)!r},{coords}\n")
    assert path.read_bytes() == "".join(want).encode()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_path_ensemble_csv_refuses_non_finite_states(tmp_path, bad):
    # orjson writes these as null, which no CSV cell may carry
    states = np.zeros((4, 2, 2))
    states[3, 1, 0] = bad
    path = tmp_path / "paths.csv"
    with pytest.raises(ConfigError, match="NaN or infinite"):
        PathEnsemble(times=np.array([0.0, 1.0]), states=states, seed=0).to_csv(str(path))
    assert not path.exists()


@pytest.mark.parametrize("k", [1.0, 0.5])
@pytest.mark.parametrize("dt", [1e-4, 1e-8, 1e-10, 1e-12, 1e-14])
def test_heat_step_keeps_the_sign_over_short_times(k, dt):
    # from x = 1 the sign flips with probability (1 - R)/2 ~ k dt; the
    # Bessel ratio at u ~ 1/(2 dt) must stay finite for that to hold
    a = np.full(20_000, 1.0 / np.sqrt(2.0 * dt))
    rng = np.random.default_rng(5)
    b = _heat_step(k, a, rng.standard_normal(a.size), rng.standard_gamma(k, a.size),
                   rng.random(a.size))
    assert np.all(np.isfinite(b))
    assert np.mean(b > 0.0) >= 0.999
