"""k-invariant kernels, semigroups, and the exact path sampler."""

import json

import numpy as np
import pytest

from dunklkit import (
    ConfigError,
    ConsistencyError,
    KernelSemigroup,
    KRadialMeasure,
    MultiplicityVector,
    PositivityError,
    build_semigroup,
    convolve_k,
    kernel_unitary,
    marginal_ks,
    semigroup_from_json,
    simulate_paths,
    translate_measure,
)
from dunklkit.bessel_kingman import cauchy_measure, rayleigh_measure, stable_half_subordinator
from dunklkit.transform import heat_kernel, radial_heat_profile
from dunklkit.markov import (
    _resolve_threads,
    composed_kernel_hat,
    gaussian_kernel_hat,
    subordinated_kernel_hat,
)
from dunklkit.measures import dirac

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
    got = translate_measure(KV2, np.zeros(2), mu, f0=f0)
    want = mu.profile.integrate(f0)
    assert got == pytest.approx(want, rel=1e-10)


def test_translate_point_measure_evaluates_f():
    point = KRadialMeasure.point(KV2)
    x = np.array([0.8, -0.6])
    f0 = lambda r: np.cos(np.asarray(r))
    got = translate_measure(KV2, x, point, f0=f0)
    assert got == pytest.approx(float(np.cos(np.linalg.norm(x))), rel=1e-9)


def test_translate_requires_exactly_one_test_function():
    mu = KRadialMeasure.heat(KV2, 0.5)
    with pytest.raises(ConfigError):
        translate_measure(KV2, np.zeros(2), mu)
    with pytest.raises(ConfigError):
        translate_measure(KV2, np.zeros(2), mu, f0=lambda r: r,
                          mean_fn=lambda x, r: 1.0)
    # general callables are a rank-one feature
    with pytest.raises(ConfigError):
        translate_measure(KV2, np.zeros(2), mu, f=lambda pts: pts[:, 0])


def test_translate_mean_fn_route():
    mu = KRadialMeasure.heat(KV2, 0.5)
    got = translate_measure(KV2, np.array([0.3, 0.1]), mu,
                            mean_fn=lambda x, r: 1.0)
    assert got == pytest.approx(1.0, abs=1e-10)


def test_rank_one_translation_is_k_invariant():
    # int E_k(-i xi, y) dP(x, .) = E_k(-i xi, x) mu^(xi), evaluated through
    # the explicit rank-one mean measures on the left
    k = 1.0
    mu = KRadialMeasure.heat(KV1, 0.4)
    sg_hat = lambda xi: np.exp(-0.4 * xi * xi)
    for x, xi in [(0.7, 0.9), (-1.1, 0.4), (0.5, 2.0)]:
        lhs = translate_measure(
            KV1, np.array([x]), mu,
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
    c = convolve_k(KV2, a, b)
    xi = np.array([[0.4, -0.2], [1.0, 0.5], [0.0, 2.0]])
    r2 = np.sum(xi * xi, axis=-1)
    np.testing.assert_allclose(c.hat(xi), np.exp(-1.0 * r2), atol=1e-9)


def test_convolve_k_point_is_neutral():
    mu = KRadialMeasure.heat(KV1, 0.5)
    out = convolve_k(KV1, mu, KRadialMeasure.point(KV1))
    xi = np.array([[0.3], [0.9], [1.7]])
    np.testing.assert_allclose(out.hat(xi), mu.hat(xi), atol=1e-9)


# ---------------------------------------------------------------------------
# semigroups


def test_gaussian_semigroup_roundtrip():
    sg = semigroup_from_json(json.dumps({"type": "gaussian", "k": [1.0, 0.5]}))
    assert sg.kind == "gaussian"
    assert sg.closure_residual < 1e-7
    r = np.array([0.0, 0.5, 1.5])
    np.testing.assert_allclose(sg.radial_hat(0.7, r), np.exp(-0.7 * r * r),
                               atol=1e-10)
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
        build_semigroup(kv, crooked)


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
    with pytest.raises(ConfigError):
        semigroup_from_json(json.dumps({"type": "subordinated", "k": [1.0],
                                        "params": {"alpha": 0.7}}))
    with pytest.raises(ConfigError):
        semigroup_from_json(json.dumps({"type": "gaussian", "k": [1.0],
                                        "params": {"bananas": 3}}))


def test_subordinated_semigroup_is_cauchy():
    sg = semigroup_from_json(json.dumps(
        {"type": "subordinated", "k": [1.0], "params": {"alpha": 0.5}}))
    assert sg.kind == "subordinated"
    r = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(sg.radial_hat(0.6, r), np.exp(-0.6 * r), atol=1e-7)


def test_semigroup_simulation_needs_seed():
    sg = semigroup_from_json(json.dumps({"type": "gaussian", "k": [1.0]}))
    with pytest.raises(ConfigError):
        sg.simulate([0.0, 0.5, 1.0], 8)
    ens = sg.simulate([0.0, 0.5, 1.0], 8, seed=42)
    assert len(ens) == 8
    # custom families have no sampler
    sg2 = build_semigroup(KV1, lambda t: rayleigh_measure(KV1.lam, t)
                          if t > 0 else dirac(0.0, lam=KV1.lam))
    with pytest.raises(ConfigError):
        sg2.simulate([0.0, 1.0], 4, seed=1)


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
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
], ids=["simulate_paths", "simulate_paths_cauchy", "rayleigh_measure", "cauchy_measure",
        "stable_half_subordinator", "heat_kernel", "gaussian_kernel_hat",
        "composed_kernel_hat_s", "composed_kernel_hat_t", "radial_heat_profile"])
def test_non_finite_times_are_config_errors(call, bad):
    with pytest.raises(ConfigError):
        call(bad)


@pytest.mark.parametrize("t", [0.0, -0.5])
def test_radial_heat_profile_needs_positive_time(t):
    with pytest.raises(ConfigError):
        radial_heat_profile(KV1, t, 0.5)


def test_thread_count_is_capped_by_blocks_and_cpus(monkeypatch):
    # resolver only: no thread is started
    monkeypatch.delenv("DUNKL_KIT_THREADS", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert _resolve_threads(10**6, 16) == 4
    assert _resolve_threads(10**6, 3) == 3
    assert _resolve_threads(2, 16) == 2
    assert _resolve_threads(0, 16) == 1
    assert _resolve_threads(None, 16) == 1
    monkeypatch.setenv("DUNKL_KIT_THREADS", "1000000")
    assert _resolve_threads(None, 16) == 4
    assert _resolve_threads(1, 16) == 1  # the argument wins over the environment
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _resolve_threads(None, 16) == 1


@pytest.mark.parametrize("env", ["two", "2.5", "1e6"])
def test_non_integer_thread_setting_is_config_error(monkeypatch, env):
    monkeypatch.setenv("DUNKL_KIT_THREADS", env)
    with pytest.raises(ConfigError):
        _resolve_threads(None, 16)


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
