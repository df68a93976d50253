"""Weighted grids, the transform plan, heat kernels, spherical means.

The heat-kernel reference value was frozen from a 40-digit mpmath
evaluation of the scaled-Bessel closed form.
"""

import hashlib
import tracemalloc

import mpmath
import numpy as np
import pytest

from dunklkit import (
    ConfigError,
    QuadratureError,
    GridFunction,
    MultiplicityVector,
    NumericalError,
    ResolutionError,
    SphereQuadrature,
    TransformPlan,
    bump,
    chapman_kolmogorov_defect,
    darboux_residual,
    dunkl_kernel,
    dunkl_kernel_unitary,
    dunkl_transform_grid,
    heat_kernel,
    heat_kernel_spectral,
    intertwiner_atoms,
    radial_bump,
    radial_heat_profile,
    radial_translate,
    spherical_mean_radial,
    spherical_mean_spectral,
    spherical_mean_wave,
    translated_normalization_defect,
)
from dunklkit import measures
from dunklkit.bessel_kingman import _angle_rule
from dunklkit.markov import gaussian_kernel_hat
from dunklkit.quadrature import _tensor_grid
from dunklkit.rank_one import kernel_unitary, signed_product_measure, spherical_mean_measure
from dunklkit.special import bessel_j
from dunklkit.transform import _contract_axes, axis_rule
from scipy.special import gamma, roots_jacobi

KV2 = MultiplicityVector(k=(1.0, 0.5))


# ---------------------------------------------------------------------------
# grid functions and files


def test_grid_function_validation():
    with pytest.raises(ConfigError):
        GridFunction((np.array([0.0, 0.0, 1.0]),), np.zeros(3))
    with pytest.raises(ConfigError):
        GridFunction((np.array([0.0, 1.0]), np.array([0.0, 1.0])), np.zeros((2, 3)))
    gf = GridFunction((np.linspace(0, 1, 4), np.linspace(-1, 1, 3)),
                      np.arange(12.0).reshape(4, 3))
    assert gf.n_axes == 2
    assert gf.points().shape == (12, 2)


@pytest.mark.parametrize("complex_values", [False, True])
def test_grid_function_csv_roundtrip(tmp_path, complex_values):
    axes = (np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 4))
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(5, 4))
    if complex_values:
        vals = vals + 1j * rng.normal(size=(5, 4))
    gf = GridFunction(axes, vals)
    path = str(tmp_path / "grid.csv")
    gf.to_csv(path, header={"purpose": "test", "seed": 0})
    again = GridFunction.from_csv(path)
    np.testing.assert_allclose(again.values, gf.values, rtol=0, atol=0)
    for a, b in zip(again.axes, gf.axes):
        np.testing.assert_array_equal(a, b)
    # header lines are comments
    first = open(path).readline()
    assert first.startswith("# purpose: test")


def _finite_bits(rng, n: int) -> np.ndarray:
    """n finite doubles from random bit patterns, over the whole float range."""
    bits = rng.integers(0, 2**64, 2 * n, dtype=np.uint64).view(np.float64)
    return bits[np.isfinite(bits)][:n]


@pytest.mark.parametrize("complex_values", [False, True])
def test_grid_function_csv_parses_back_to_the_same_bits(tmp_path, complex_values):
    # random bit patterns, signed zeros and the [1e-5, 1e-4) decade, whose
    # notation orjson and float repr spell differently, on several write blocks
    rng = np.random.default_rng(17)
    axes = (np.unique(_finite_bits(rng, 150)), np.sort(rng.uniform(1e-5, 1e-4, 120)))
    shape = (axes[0].size, axes[1].size)
    vals = np.empty(shape, complex if complex_values else float)
    vals.real = _finite_bits(rng, vals.size).reshape(shape)
    vals.real.flat[:4] = (0.0, -0.0, 5e-324, -np.finfo(float).max)
    if complex_values:
        vals.imag = rng.uniform(-1e-4, 1e-4, shape)
        vals.imag.flat[:3] = (-0.0, 0.0, 1e300)
    gf = GridFunction(axes, vals)
    path = str(tmp_path / "grid.csv")
    gf.to_csv(path)
    again = GridFunction.from_csv(path)
    assert again.values.dtype == vals.dtype
    assert again.values.tobytes() == vals.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again.axes, axes))


@pytest.mark.parametrize("axes, values", [
    ((np.linspace(0.0, 1.0, 3),), np.array([1.0, np.nan, 2.0])),
    ((np.linspace(0.0, 1.0, 3),), np.array([1.0, -np.inf, 2.0])),
    ((np.linspace(0.0, 1.0, 3),), np.array([1.0, 2.0, complex(0.0, np.inf)])),
    ((np.linspace(0.0, 1.0, 3),), np.array([1.0, complex(np.nan, 0.0), 2.0])),
    ((np.array([0.0, 1.0, np.inf]),), np.ones(3)),
], ids=["nan", "minus-inf", "complex-inf-imag", "complex-nan-real", "inf-axis"])
def test_grid_function_csv_refuses_non_finite_entries(tmp_path, axes, values):
    # orjson writes these as null, which no CSV cell may carry
    path = tmp_path / "grid.csv"
    with pytest.raises(ConfigError, match="NaN or infinite"):
        GridFunction(axes, values).to_csv(str(path))
    assert not path.exists()


def test_grid_function_npz_roundtrip(tmp_path):
    axes = (np.linspace(-2.0, 2.0, 7),)
    gf = GridFunction(axes, np.exp(1j * axes[0]))
    path = str(tmp_path / "grid.npz")
    gf.to_npz(path, header={"note": "x"})
    again = GridFunction.from_npz(path)
    np.testing.assert_array_equal(again.values, gf.values)


def test_grid_function_csv_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,value\n1,2,3\n")
    with pytest.raises(ConfigError):
        GridFunction.from_csv(str(bad))
    holes = tmp_path / "holes.csv"
    holes.write_text("x1,x2,value\n0,0,1\n0,1,2\n1,0,3\n")
    with pytest.raises(ConfigError):
        GridFunction.from_csv(str(holes))
    # a non-numeric cell and a short row were bare ValueErrors
    for i, text in enumerate(["x1,value\nabc,2.0\n", "x1,x2,value\n0,0,1\n1.0\n"]):
        (tmp_path / f"cells{i}.csv").write_text(text)
        with pytest.raises(ConfigError):
            GridFunction.from_csv(str(tmp_path / f"cells{i}.csv"))


# ---------------------------------------------------------------------------
# weighted quadrature


def test_axis_rule_gaussian_moment():
    # int (2 x^2)^k e^{-x^2} dx = 2^k Gamma(k + 1/2)
    for k in (0.0, 0.5, 1.7):
        rule = axis_rule(k, 10.0, 80)
        got = float(np.sum(rule.weights * np.exp(-rule.nodes**2)))
        assert got == pytest.approx(2.0**k * gamma(k + 0.5), rel=1e-13)


@pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("n", [1, 7, 40, 160])
def test_axis_rule_is_bitwise_mirror_symmetric(k, n):
    # the weight (2 x^2)^k is even: the left panel is the right one mirrored
    rule = axis_rule(k, 3.7, n)
    assert rule.n == 2 * n
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])
    assert np.all(rule.nodes[n:] > 0.0)


@pytest.mark.parametrize("extent, n", [
    (4.0, 10.7), (4.0, 0), (4.0, -3), (4.0, float("nan")), (4.0, float("inf")), (4.0, "8"),
    (float("nan"), 8), (float("inf"), 8), (float("-inf"), 8), (0.0, 8), (-1.0, 8),
])
def test_axis_rule_rejects_bad_extent_and_count(extent, n):
    # 10.7 used to be truncated to 10; n = 0 and NaN extents raised bare
    # ValueErrors, and an infinite extent warned inside the Gauss build
    with pytest.raises(ConfigError):
        axis_rule(1.0, extent, n)


@pytest.mark.parametrize("call", [
    lambda: axis_rule(1.0, 1e200, 8),
    lambda: axis_rule(1.0, 1.1e103, 8),
    lambda: gaussian_kernel_hat(KV2, 0.5, [1e200, 0.2], [0.0, 0.0]),
    lambda: heat_kernel_spectral(KV2, 1e-300, [0.5, 0.1], [0.3, 0.2]),
    lambda: axis_rule(600.0, 1.0, 8),
    lambda: TransformPlan(MultiplicityVector((600.0,)), extent=4.0, n=8),
], ids=["axis_rule", "axis_rule-2^k", "gaussian_kernel_hat", "heat_kernel_spectral",
        "axis_rule-k600", "TransformPlan-k600"])
@pytest.mark.filterwarnings("error")
def test_gauss_jacobi_weight_overflow_is_a_quadrature_error(call):
    # half^(alpha + beta + 1) raised a bare OverflowError; at s = 1e-300 the
    # spectral extent sqrt(80 / s) is about 9e150.  At 1.1e103 the Gauss-Jacobi
    # weights fit the float range but axis_rule's factor 2^k took them to inf
    # with a bare RuntimeWarning.  At k = 600 scipy's roots_jacobi itself
    # overflowed, warned and returned NaN weights
    with pytest.raises(QuadratureError, match="overflow"):
        call()


# ---------------------------------------------------------------------------
# transform plan


def test_gaussian_is_self_dual():
    plan = TransformPlan(KV2, extent=12.0, n=72)
    g = lambda p: np.exp(-0.5 * np.sum(p * p, axis=-1))
    fhat = plan.forward(plan.sample(g))
    want = np.asarray(g(plan.freq_grid())).reshape(plan.freq_shape)
    assert np.max(np.abs(fhat - want)) < 1e-12
    assert np.max(np.abs(fhat.imag)) < 1e-13


def test_plan_roundtrip_and_plancherel():
    plan = TransformPlan(KV2, extent=12.0, n=64)
    fns = [
        lambda p: np.exp(-0.5 * np.sum(p * p, axis=-1)),
        lambda p: p[:, 0] ** 2 * np.exp(-0.6 * np.sum(p * p, axis=-1)),
        lambda p: np.exp(-np.sum(p * p, axis=-1)) * np.cos(p[:, 1]),
    ]
    for f in fns:
        assert plan.roundtrip_defect(f) < 1e-10
        assert plan.plancherel_defect(f) < 1e-10


def test_plan_norm_matches_exact_integral():
    # |e^{-|x|^2/2}|^2 against w_k integrates to prod 2^{k_i} Gamma(k_i + 1/2)
    plan = TransformPlan(KV2, extent=12.0, n=64)
    vals = plan.sample(lambda p: np.exp(-0.5 * np.sum(p * p, axis=-1)))
    want = np.prod([2.0**k * gamma(k + 0.5) for k in KV2.k])
    assert plan.norm_sq(vals) == pytest.approx(float(want), rel=1e-13)


def test_plan_boundary_decay():
    plan = TransformPlan(KV2, extent=12.0, n=48)
    vals = plan.sample(lambda p: np.exp(-0.5 * np.sum(p * p, axis=-1)))
    assert plan.boundary_decay(vals) < 1e-12
    ones = np.ones(plan.shape)
    assert plan.boundary_decay(ones) == pytest.approx(1.0)


@pytest.mark.parametrize("kwargs", [
    dict(freq_extent=np.ones((2, 2))), dict(n=[8, 8.5]), dict(freq_n=0),
    dict(extent=float("nan")), dict(freq_extent=float("inf")),
])
def test_plan_rejects_bad_geometry(kwargs):
    with pytest.raises(ConfigError):
        TransformPlan(KV2, **kwargs)


@pytest.mark.parametrize("name", ["n", "extent", "freq_n", "freq_extent"])
def test_plan_names_the_per_axis_shape(name):
    with pytest.raises(ConfigError, match=rf"{name} has shape \(3,\); expected a scalar or shape \(2,\)"):
        TransformPlan(KV2, **{name: [8, 8, 8]})


def test_plan_checks_value_shapes():
    plan = TransformPlan(KV2, extent=6.0, n=8, freq_n=6)
    assert plan.shape == (16, 16) and plan.freq_shape == (12, 12)
    for bad in (np.zeros((12, 12)), np.zeros(256), np.zeros((16, 16, 1))):
        with pytest.raises(ConfigError, match=r"forward values has shape .*; expected \(16, 16\)"):
            plan.forward(bad)
    for bad in (np.zeros((16, 16)), np.zeros(144)):
        with pytest.raises(ConfigError, match=r"inverse values has shape .*; expected \(12, 12\)"):
            plan.inverse(bad)
    assert plan.inverse(plan.forward(np.zeros((16, 16)))).shape == (16, 16)
    for bad in (lambda p: np.zeros(3), lambda p: 0.0):
        with pytest.raises(ConfigError, match=r"f returned shape .*\(256,\) or \(16, 16\)"):
            plan.sample(bad)
    assert plan.sample(lambda p: p[:, 0]).shape == (16, 16)


def _dense_transform(plan, values, inverse=False):
    """The reference route: full complex kernels on every node pair of each
    axis, (2 m_i) x (2 n_i), contracted by _contract_axes."""
    factors = []
    for k, rule, freq in zip(plan.kv.k, plan.rules, plan.freq_rules):
        kern = kernel_unitary(k, freq.nodes[:, None], rule.nodes[None, :])
        factors.append((kern.T, freq.weights) if inverse else (np.conj(kern), rule.weights))
    return _contract_axes(values, factors) / plan.kv.c_norm


_PARITY_PLANS = [
    ((1.0,), dict(extent=4.0, n=17, freq_extent=9.0, freq_n=23)),
    ((1.0,), dict(extent=4.0, n=176, freq_extent=110.0, freq_n=416)),
    ((0.0, 1.5), dict(extent=5.0, n=[12, 9], freq_n=[7, 14])),
    ((1.0, 0.5), dict(extent=4.0, n=24, freq_extent=30.0, freq_n=[30, 22])),
    ((0.5, 0.0, 2.0), dict(extent=3.0, n=[5, 6, 4], freq_extent=[4.0, 2.0, 6.0],
                           freq_n=[6, 3, 5])),
]


@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("k, geometry", _PARITY_PLANS,
                         ids=["1-axis", "1-axis-wide", "k0-n-lists", "k1-ne-k2", "3-axes"])
def test_parity_route_matches_the_dense_kernels(k, geometry, complex_values):
    plan = TransformPlan(k, **geometry)
    rng = np.random.default_rng(7)
    for route, shape, inverse in ((plan.forward, plan.shape, False),
                                  (plan.inverse, plan.freq_shape, True)):
        values = rng.standard_normal(shape)
        if complex_values:
            values = values + 1j * rng.standard_normal(shape)
        want = _dense_transform(plan, values, inverse)
        got = route(values)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# the perfbench `spectral` workload's plans (perfbench/workloads.py)
_SPECTRAL_PLANS = {
    "1-axis": ((1.0,), dict(extent=4.0, n=176, freq_extent=110.0, freq_n=416)),
    "2-axis": ((1.0, 1.0), dict(extent=4.0, n=120, freq_extent=70.0, freq_n=120)),
}

# sha256 (first 16 hex digits) of the forward and inverse output bytes, recorded
# from the axis-by-axis complex assembly that the quadrant assembly replaced; the
# quadrant assembly adds the parity blocks in the same pairs, so it keeps every
# bit, signed zeros too (the heat profile's transforms have an all-zero imaginary
# part)
_ROUTE_DIGESTS = {
    "spectral 1-axis bump": ("2ef0cd3cbbcd39d1", "494b836cc12ccce1"),
    "spectral 1-axis heat": ("5e2f98fcfcaa7701", "7e2e4f97205beb38"),
    "spectral 2-axis bump": ("efd1285e58dc81b1", "9be331bcc2e6b98d"),
    "spectral 2-axis heat": ("a1610dd0dedadc4b", "f36a7b39c806043a"),
    "1-axis real": ("ead89314381c07df", "a97c33cae960e29b"),
    "1-axis complex": ("d0deb55cc3e8a9fb", "281d14dd82e46ee4"),
    "1-axis-wide real": ("583fec2ee86428f3", "a2c131aa73dbcae0"),
    "1-axis-wide complex": ("82c66e9a2404cc8b", "919ff285e01595cc"),
    "k0-n-lists real": ("e37d3746c979ff00", "72a04f2499bc6b55"),
    "k0-n-lists complex": ("0616b87eb4d1dfa3", "3c409c0017f3b029"),
    "k1-ne-k2 real": ("ef6d2a3ac0efc0e7", "51250b202dd162be"),
    "k1-ne-k2 complex": ("f233dca0592b9396", "f6e45c8e58a3c184"),
    "3-axes real": ("59a60934f11dc248", "759c4b9355aaf002"),
    "3-axes complex": ("8988208a2ba9703b", "66990663e2e53c7a"),
}
# digests of the 2-axis spectral plan's first kernel stack and of one BLAS product
# with it, on the build the digests above were recorded on
_RECORDING_BUILD = ("b940e0eac75f2eb4", "22479084e3615773")


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


@pytest.fixture(scope="module")
def recording_build():
    """Skip where the kernel values or the BLAS products have other bits than
    on the recording build: the digests pin the assembly, not those."""
    k, geometry = _SPECTRAL_PLANS["2-axis"]
    stack = TransformPlan(k, **geometry)._forward[0]
    probe = stack[0] @ np.random.default_rng(7).standard_normal((120, 240))
    if (_digest(stack), _digest(probe)) != _RECORDING_BUILD:
        pytest.skip("kernel or BLAS bits differ from the build the digests were recorded on")


@pytest.mark.parametrize("profile", ["bump", "heat"])
@pytest.mark.parametrize("name", list(_SPECTRAL_PLANS))
def test_spectral_plans_keep_their_transform_bits(recording_build, name, profile):
    k, geometry = _SPECTRAL_PLANS[name]
    plan = TransformPlan(k, **geometry)
    if profile == "bump":
        f = bump(np.full(len(k), 0.2), 0.8, order=12)
    else:
        f = lambda p: radial_heat_profile(plan.kv, 0.08, np.sqrt(np.sum(p * p, axis=-1)))
    fhat = plan.forward(plan.sample(f))
    got = (_digest(fhat), _digest(plan.inverse(fhat)))
    assert got == _ROUTE_DIGESTS[f"spectral {name} {profile}"]


_PARITY_NAMES = ["1-axis", "1-axis-wide", "k0-n-lists", "k1-ne-k2", "3-axes"]


@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("name, k, geometry", [(name, *plan) for name, plan in
                                               zip(_PARITY_NAMES, _PARITY_PLANS)],
                         ids=_PARITY_NAMES)
def test_parity_route_keeps_its_bits(recording_build, name, k, geometry, complex_values):
    plan = TransformPlan(k, **geometry)
    rng = np.random.default_rng(7)
    got = []
    for route, shape in ((plan.forward, plan.shape), (plan.inverse, plan.freq_shape)):
        values = rng.standard_normal(shape)
        if complex_values:
            values = values + 1j * rng.standard_normal(shape)
        got.append(_digest(route(values)))
    assert tuple(got) == _ROUTE_DIGESTS[f"{name} {'complex' if complex_values else 'real'}"]


def test_forward_allocates_one_output_and_two_half_buffers():
    # one real forward on the 2-axis spectral plan: the 921,600-byte complex
    # output, one fold and one product buffer of half that, and ufunc buffers,
    # 2.22 times the output; the axis-by-axis complex assembly peaked at 3.43
    k, geometry = _SPECTRAL_PLANS["2-axis"]
    plan = TransformPlan(k, **geometry)
    values = plan.sample(bump(np.full(2, 0.2), 0.8, order=12))
    tracemalloc.start()
    try:
        out = plan.forward(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 921_600
    assert peak <= 2.44 * out.nbytes


def test_plan_builds_the_kernel_on_positive_node_pairs(monkeypatch):
    # m_i n_i kernel values per axis, a quarter of the (2 m_i)(2 n_i) node pairs
    import dunklkit.transform as transform

    sizes = []

    def counting(*args):
        out = kernel_unitary(*args)
        sizes.append(np.size(out))
        return out

    monkeypatch.setattr(transform, "kernel_unitary", counting)
    TransformPlan(KV2, extent=4.0, n=[24, 10], freq_extent=30.0, freq_n=[30, 22])
    assert sizes == [30 * 24, 22 * 10]


def test_plan_grid_is_built_once_and_read_only():
    plan = TransformPlan(KV2, extent=4.0, n=[6, 5])
    pts = plan.grid()
    assert pts is plan.grid()
    assert np.array_equal(pts, _tensor_grid([r.nodes for r in plan.rules]))
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0
    seen = []
    plan.sample(lambda p: seen.append(p) or np.zeros(len(p)))
    assert seen[0] is pts


def test_transform_grid_roundtrip_uniform():
    # trapezoid file path: accuracy limited by the uniform grid
    kv = MultiplicityVector(k=(1.0,))
    axes = (np.linspace(-8.0, 8.0, 161),)
    gf = GridFunction.sample(axes, lambda p: p[:, 0] ** 2 * np.exp(-p[:, 0] ** 2))
    fhat = dunkl_transform_grid(kv, gf)
    back = dunkl_transform_grid(kv, fhat, inverse=True)
    err = np.max(np.abs(back.values - gf.values))
    assert err < 1e-4
    assert fhat.n_axes == 1


# ---------------------------------------------------------------------------
# heat kernel


def test_heat_kernel_frozen_value():
    got = float(heat_kernel(MultiplicityVector(k=(1.0,)), 0.7,
                            np.array([0.9]), np.array([[-0.4]]))[0])
    assert got == pytest.approx(0.0787538602483272671, rel=1e-14)


def test_heat_kernel_requires_positive_time():
    with pytest.raises(ConfigError):
        heat_kernel(KV2, 0.0, np.zeros(2), np.zeros((1, 2)))


@pytest.mark.parametrize("s", [0.0, -1.0, float("nan"), float("inf")])
def test_heat_kernel_spectral_requires_positive_finite_time(s):
    with pytest.raises(ConfigError):
        heat_kernel_spectral(MultiplicityVector(k=(1.0,)), s, [0.5], [0.3])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("call", [
    lambda x, y: heat_kernel(MultiplicityVector(k=(1.0,)), 0.5, x, y),
    lambda x, y: heat_kernel_spectral(MultiplicityVector(k=(1.0,)), 0.5, x, y),
    lambda x, y: dunkl_kernel(MultiplicityVector(k=(1.0,)), x, y),
], ids=["heat_kernel", "heat_kernel_spectral", "dunkl_kernel"])
def test_non_finite_coordinates_are_config_errors(call, bad):
    with pytest.raises(ConfigError, match="non-finite"):
        call([bad], [0.3])
    with pytest.raises(ConfigError, match="non-finite"):
        call([0.3], [[0.2], [bad]])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("call", [
    lambda kv, p: intertwiner_atoms(kv, p),
    lambda kv, p: radial_translate(kv, np.cos, p, [0.3, 0.2]),
    lambda kv, p: radial_translate(kv, np.cos, [0.3, 0.2], p),
    lambda kv, p: spherical_mean_radial(kv, np.cos, p, 0.3),
], ids=["intertwiner_atoms", "translate-x", "translate-y", "mean-x"])
def test_non_finite_points_in_the_radial_layer_are_config_errors(call, bad):
    # each of these returned NaN before the boundary checks
    with pytest.raises(ConfigError, match="non-finite"):
        call(MultiplicityVector(k=(1.0, 0.5)), [bad, 0.1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("k", [(1.0,), (1.0, 0.5)])
def test_spherical_mean_radial_rejects_non_finite_radius(k, bad):
    kv = MultiplicityVector(k=k)
    x = np.full(len(k), 0.3)
    with pytest.raises(ConfigError, match="t must be finite"):
        spherical_mean_radial(kv, np.cos, x, bad)
    with pytest.raises(ConfigError, match="t must be finite"):
        spherical_mean_radial(kv, np.cos, x, np.array([0.2, bad]))


@pytest.mark.parametrize("t", ["a", [0.5, "b"]])
def test_spherical_mean_radial_rejects_non_numeric_radii(t):
    # numpy's bare "could not convert string to float" before
    with pytest.raises(ConfigError, match="t must be numbers"):
        spherical_mean_radial(MultiplicityVector(k=(1.0, 0.5)), np.cos, [0.3, 0.4], t)


# sha256 (first 16 hex digits) of spherical_mean_radial's output (type, dtype,
# shape and bytes) for the perfbench `means` profile f0(r) = j_lam(z r), one
# scalar t and one array of radii per `means` multiplicity class, recorded on
# the tree before the mean shed its fixed per-call cost; that change moved no bit
_MEAN_PIN_CLASSES = [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (1.0,), (0.5,)]
_MEAN_PINS = {
    "(1.0, 1.0) scalar t": "70f8ca60129db275",
    "(1.0, 1.0) radii": "1b6385b6a829f2b4",
    "(2.0, 0.5) scalar t": "caa2b5fc2bf27617",
    "(2.0, 0.5) radii": "031cbb4ef80fb780",
    "(0.5, 2.0) scalar t": "82e144f6c084f579",
    "(0.5, 2.0) radii": "ba06a7e545a1d178",
    "(1.0,) scalar t": "b22f6309d44b309d",
    "(1.0,) radii": "7a24025e875decab",
    "(0.5,) scalar t": "d43a0e8b9980d9fe",
    "(0.5,) radii": "6f3b7ff5a2f685d9",
}
# digest of the angle rules and of one einsum reduction the means use, on the
# build the pins were recorded on
_MEAN_PIN_BUILD = "c2c12bbb63db6662"


def _mean_pin_cases():
    rng = np.random.default_rng(2027)
    cases = {}
    for k in _MEAN_PIN_CLASSES:
        kv = MultiplicityVector(k)
        x = rng.uniform(-2.0, 2.0, len(k))
        z = rng.uniform(1.5, 2.5)
        f0 = lambda r, lam=kv.lam, z=z: bessel_j(lam, z * np.asarray(r))
        cases[f"{k} scalar t"] = (kv, f0, x, rng.uniform(0.5, 1.5))
        cases[f"{k} radii"] = (kv, f0, x, rng.uniform(0.0, 1.5, 7))
    return cases


def _pin_digest(out) -> str:
    a = np.asarray(out)
    head = f"{type(out).__name__}|{a.dtype.str}|{a.shape}|".encode()
    return hashlib.sha256(head + np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def _mean_build_digest() -> str:
    rules = [_angle_rule(MultiplicityVector(k).lam, 256) for k in _MEAN_PIN_CLASSES]
    vals = np.random.default_rng(3).standard_normal((7, 256))
    return _pin_digest(np.concatenate([np.concatenate(r) for r in rules]
                                      + [np.einsum("ik,k->i", vals, rules[0][1])]))


@pytest.mark.parametrize("name", list(_MEAN_PINS))
def test_spherical_mean_radial_outputs_are_pinned(name):
    if _mean_build_digest() != _MEAN_PIN_BUILD:
        pytest.skip("angle rules or einsum have other bits than on the recording build")
    assert _pin_digest(spherical_mean_radial(*_mean_pin_cases()[name])) == _MEAN_PINS[name]


def test_heat_kernel_matches_spectral_route():
    pairs = [((1.0,), np.array([0.9]), np.array([-0.4])),
             ((1.0, 0.5), np.array([0.8, 0.3]), np.array([-0.5, 1.1]))]
    for k, x, y in pairs:
        kv = MultiplicityVector(k=k)
        for s in (0.4, 1.0):
            closed = float(heat_kernel(kv, s, x, np.atleast_2d(y))[0])
            spectral = heat_kernel_spectral(kv, s, x, y)
            assert abs(spectral.imag) < 1e-12
            assert spectral.real == pytest.approx(closed, rel=1e-8)


def test_heat_kernel_extreme_arguments_stay_finite():
    # the scaled-Bessel route must not overflow at large |x| |y| / s
    kv = MultiplicityVector(k=(2.0,))
    val = heat_kernel(kv, 1e-3, np.array([30.0]), np.array([[30.0], [-30.0]]))
    assert np.all(np.isfinite(val))
    assert val[0] > 0


def test_heat_kernel_at_tiny_times_is_finite_or_a_numerical_error():
    # the prefactor (2s)^(-7/2) alone overflows at s = 1e-100, and was a bare
    # OverflowError; with e^(-625) from y the value is about 1e75
    kv = MultiplicityVector(k=(3.0,))
    got = float(heat_kernel(kv, 1e-100, [0.0], [5e-49]))
    s, y = mpmath.mpf(1e-100), mpmath.mpf(5e-49)
    # c_3 = int e^(-x^2/2) (2 x^2)^3 dx = 120 sqrt(2 pi)
    want = (2 * s) ** -3.5 * mpmath.exp(-y * y / (4 * s)) / (120 * mpmath.sqrt(2 * mpmath.pi))
    assert got == pytest.approx(float(want), rel=1e-12)
    with pytest.raises(NumericalError):
        heat_kernel(kv, 1e-100, [0.0], [0.0])


@pytest.mark.parametrize("s", [1e-8, 1e-10, 1e-12, 1e-14])
def test_heat_kernel_is_continuous_down_to_tiny_times(s):
    # Gamma_s(x, x) w(x) sqrt(4 pi s) -> 1 as s -> 0, at u = x^2 / (2 s) up to 5e13
    kv = MultiplicityVector(k=(1.0,))
    got = float(heat_kernel(kv, s, [1.0], [1.0])) * np.sqrt(4.0 * np.pi * s) * 2.0
    assert abs(got - 1.0) <= 1e-6


def test_heat_kernel_broadcasts_over_both_points():
    x = np.array([[0.9, -0.4], [0.2, 1.3], [-1.1, 0.0]])
    y = np.array([[0.5, 0.7], [-0.3, 0.1]])
    grid = heat_kernel(KV2, 0.6, x[:, None, :], y[None, :, :])
    assert grid.shape == (3, 2)
    for i in range(3):
        np.testing.assert_allclose(grid[i], heat_kernel(KV2, 0.6, x[i], y), rtol=1e-14)


def test_heat_normalization_and_chapman_kolmogorov():
    # E_k(0, .) = 1: the transform at xi = 0 is the kernel's mass
    assert abs(gaussian_kernel_hat(KV2, 0.8, np.array([0.7, -0.2]), np.zeros(2)) - 1.0) < 1e-8
    assert chapman_kolmogorov_defect(KV2, 0.3, 0.5, np.array([0.4, 0.1]),
                                     np.array([-0.6, 0.8])) < 1e-8


def test_radial_heat_profile_is_kernel_from_origin():
    kv = KV2
    y = np.array([[0.7, -1.1]])
    r = float(np.hypot(*y[0]))
    from_kernel = float(heat_kernel(kv, 0.6, np.zeros(2), y)[0])
    assert radial_heat_profile(kv, 0.6, r) == pytest.approx(from_kernel, rel=1e-13)


# ---------------------------------------------------------------------------
# translation


def test_radial_translate_reproduces_heat_kernel():
    t = 0.45
    x = np.array([0.8, -0.3])
    y = np.array([[0.2, 0.9], [-1.0, 0.4]])
    got = radial_translate(KV2, lambda r: radial_heat_profile(KV2, t, r), x, y)
    want = heat_kernel(KV2, t, x, y)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_radial_translate_classical_limit():
    kv = MultiplicityVector(k=(0.0, 0.0))
    f0 = lambda r: np.exp(-r)
    x = np.array([0.3, -0.8])
    y = np.array([[1.0, 0.5]])
    got = radial_translate(kv, f0, x, y)[0]
    assert got == pytest.approx(float(np.exp(-np.linalg.norm(x - y[0]))), rel=1e-14)


def test_chapman_kolmogorov_axis_sums_match_the_tensor_grid():
    # the per-axis product of 1-D sums against the (2n)^N tensor sum it replaced
    s1, s2, x, y = 0.3, 0.5, np.array([0.4, 0.1]), np.array([-0.6, 0.8])
    extent = 0.8 + np.sqrt(160.0 * s2)
    rules = [axis_rule(k, extent, 96) for k in KV2.k]
    pts, wts = _tensor_grid([r.nodes for r in rules], [r.weights for r in rules])
    lhs = np.sum(wts * heat_kernel(KV2, s1, x, pts) * heat_kernel(KV2, s2, y, pts))
    rhs = float(heat_kernel(KV2, s1 + s2, x, y))
    tensor = abs(lhs - rhs) / rhs
    assert abs(chapman_kolmogorov_defect(KV2, s1, s2, x, y) - tensor) <= 1e-13


def test_chapman_kolmogorov_resolves_short_times():
    # one axis_rule over max(|x|, |y|) + sqrt(160 s) read 0.163 at s = 1e-4 and
    # 1.0e-4 / 1.4e-3 for the mixed times; the product of the two kernels now
    # lies inside the heat window of the shorter time
    kv = MultiplicityVector((1.0,))
    assert chapman_kolmogorov_defect(kv, 1e-4, 1e-4, [5.0], [4.95]) < 1e-10
    assert chapman_kolmogorov_defect(kv, 0.5, 1e-3, [0.7], [-0.4]) < 1e-10
    assert chapman_kolmogorov_defect(kv, 1e-3, 0.5, [0.7], [-0.4]) < 1e-10
    with pytest.raises(ResolutionError, match="mass"):
        chapman_kolmogorov_defect(kv, 1e-30, 1e-30, [5.0], [4.95])
    # Gamma_(2e-4)(5, 4) underflows to 0: the relative defect was a ZeroDivisionError
    with pytest.raises(NumericalError, match="underflows"):
        chapman_kolmogorov_defect(kv, 1e-4, 1e-4, [5.0], [4.0])


@pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf")])
@pytest.mark.parametrize("call", [
    lambda t: translated_normalization_defect(KV2, t, [1.0, -1.0]),
    lambda t: chapman_kolmogorov_defect(KV2, t, 0.5, [0.4, 0.1], [-0.6, 0.8]),
    lambda t: chapman_kolmogorov_defect(KV2, 0.5, t, [0.4, 0.1], [-0.6, 0.8]),
    lambda t: chapman_kolmogorov_defect(KV2, t, t, [0.4, 0.1], [-0.6, 0.8]),
], ids=["translated_normalization", "chapman_kolmogorov-s1", "chapman_kolmogorov-s2",
        "chapman_kolmogorov-both"])
def test_heat_defects_check_their_times_first(call, bad):
    # a negative time warned in sqrt and then blamed a NaN axis extent
    with pytest.raises(ConfigError, match="time"):
        call(bad)


def test_translated_normalization():
    assert translated_normalization_defect(KV2, 0.5, np.array([0.9, 0.4])) < 1e-7


# ---------------------------------------------------------------------------
# spherical means


def test_spherical_mean_routes_agree():
    f0 = lambda r: np.exp(-0.5 * np.asarray(r) ** 2)
    x = np.array([0.7, -0.5])
    t = 0.9
    radial = spherical_mean_radial(KV2, f0, x, t)
    plan = TransformPlan(KV2, extent=12.0, n=72)
    fhat = plan.forward(plan.sample(lambda p: f0(np.sqrt(np.sum(p * p, axis=-1)))))
    spectral = spherical_mean_spectral(KV2, plan, fhat, x, t)
    assert abs(spectral.imag) < 1e-10
    assert spectral.real == pytest.approx(radial, abs=1e-9)


def _spectral_mean_full_tensor(kv, plan, fhat, x, t):
    """The spectral mean evaluated on the whole frequency tensor grid."""
    rules = plan.freq_rules
    pts, wts = _tensor_grid([r.nodes for r in rules], [r.weights for r in rules])
    rad = np.sqrt(np.sum(pts * pts, axis=-1))
    kern = dunkl_kernel_unitary(kv, x, pts)
    return np.sum(wts * fhat.ravel() * kern * bessel_j(kv.lam, t * rad)) / kv.c_norm


@pytest.mark.parametrize("k", [(1.0,), (1.0, 1.0), (2.0, 0.5), (0.0, 1.5), (1.0, 0.5, 0.3)])
def test_spherical_mean_spectral_matches_full_tensor_formula(k):
    kv = MultiplicityVector(k=k)
    small = len(k) == 3
    plan = TransformPlan(kv, extent=4.0, n=16 if small else 40, freq_extent=20.0,
                         freq_n=[14, 12, 10] if small else 40)
    f = bump(np.full(len(k), 0.2), 1.0)
    fhat = plan.forward(plan.sample(f))
    for x, t in ((np.linspace(0.3, -0.8, len(k)), 0.7), (np.zeros(len(k)), 0.4)):
        got = spherical_mean_spectral(kv, plan, fhat, x, t)
        want = _spectral_mean_full_tensor(kv, plan, fhat, x, t)
        assert abs(got - want) <= 1e-13 * abs(want)


def test_spherical_mean_spectral_accepts_raveled_transform():
    plan = TransformPlan(KV2, extent=4.0, n=24, freq_extent=12.0, freq_n=20)
    fhat = plan.forward(plan.sample(bump([0.1, -0.2], 0.9)))
    x = np.array([0.4, 0.3])
    assert spherical_mean_spectral(KV2, plan, fhat.ravel(), x, 0.6) == \
        spherical_mean_spectral(KV2, plan, fhat, x, 0.6)


@pytest.mark.parametrize("case", [
    "kv", "fhat-axis", "fhat-size", "t-nan", "t-inf", "t-minus-inf", "t-array",
    "x-2d", "x-length", "x-nan",
])
def test_spherical_mean_spectral_input_contract(case):
    plan = TransformPlan(KV2, extent=4.0, n=16, freq_extent=12.0, freq_n=12)
    fhat = plan.forward(plan.sample(bump([0.1, -0.2], 0.9)))
    args = dict(kv=KV2, fhat_values=fhat, x=np.array([0.4, 0.3]), t=0.6)
    args.update({
        # a different k on as many axes used to return a silently wrong mean
        "kv": dict(kv=MultiplicityVector(k=(2.0, 0.5))),
        "fhat-axis": dict(fhat_values=fhat[0]),  # used to raise a bare broadcast error
        "fhat-size": dict(fhat_values=fhat.ravel()[:-1]),
        "t-nan": dict(t=float("nan")),
        "t-inf": dict(t=float("inf")),
        "t-minus-inf": dict(t=float("-inf")),
        "t-array": dict(t=np.array([0.6, 0.7])),
        "x-2d": dict(x=np.array([[0.4, 0.3], [0.1, 0.2]])),
        "x-length": dict(x=np.array([0.4, 0.3, 0.2])),
        "x-nan": dict(x=np.array([0.4, float("nan")])),
    }[case])
    with pytest.raises(ConfigError):
        spherical_mean_spectral(args["kv"], plan, args["fhat_values"], args["x"], args["t"])


def test_spherical_mean_spectral_evaluates_per_axis(monkeypatch):
    # the kernel sees each axis's nodes once (two Bessel calls per node), and
    # j_lam runs once per distinct |xi|: equal axis rules share half the radii
    import dunklkit.rank_one as rank_one
    import dunklkit.transform as transform

    counts = {"kernel": 0, "kernel-bessel": 0, "radial": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name] += np.size(out)
            return out
        return wrapped

    monkeypatch.setattr(transform, "kernel_unitary", counting("kernel", transform.kernel_unitary))
    monkeypatch.setattr(rank_one, "bessel_j", counting("kernel-bessel", rank_one.bessel_j))
    monkeypatch.setattr(transform, "bessel_j", counting("radial", transform.bessel_j))
    for k, freq_n, n_nodes, distinct in (((1.0, 1.0), 30, 120, 30 * 31 // 2),
                                         ((1.0, 0.5), [30, 22], 104, 30 * 22)):
        kv = MultiplicityVector(k=k)
        plan = TransformPlan(kv, extent=4.0, n=24, freq_extent=30.0, freq_n=freq_n)
        fhat = plan.forward(plan.sample(bump([0.1, -0.2], 0.9)))
        counts.update({name: 0 for name in counts})
        spherical_mean_spectral(kv, plan, fhat, np.array([0.4, 0.3]), 0.6)
        m1, m2 = (r.nodes[r.n // 2:] for r in plan.freq_rules)
        assert sum(r.n for r in plan.freq_rules) == n_nodes
        assert np.unique(np.add.outer(m1 * m1, m2 * m2)).size == distinct
        assert 0 < counts["kernel"] <= n_nodes
        assert 0 < counts["kernel-bessel"] <= 2 * n_nodes
        assert 0 < counts["radial"] <= distinct


def test_plan_radii_are_built_once_and_read_only(monkeypatch):
    import dunklkit.transform as transform

    kv = MultiplicityVector(k=(1.0, 1.0))
    plan = TransformPlan(kv, extent=4.0, n=8, freq_extent=10.0, freq_n=6)
    radii, index = plan._radii, plan._radius_index
    n1, n2 = (r.nodes for r in plan.freq_rules)
    assert radii.size == 6 * 7 // 2 and index.shape == plan.freq_shape == (12, 12)
    assert np.all(np.diff(radii) > 0)
    assert np.array_equal(radii[index], np.sqrt(np.add.outer(n1 * n1, n2 * n2)))
    for cached in (radii, index):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached.flat[0] = 1
    args = []
    monkeypatch.setattr(transform, "bessel_j",
                        lambda lam, z: args.append(z) or np.ones(np.shape(z)))
    fhat = np.ones(plan.freq_shape, dtype=complex)
    for t in (0.6, 1.1):
        spherical_mean_spectral(kv, plan, fhat, np.array([0.4, 0.3]), t)
        assert np.array_equal(args[-1], t * radii)
    assert plan._radii is radii and plan._radius_index is index


def test_spherical_mean_radial_rank_one_honours_n():
    # two nodes: the symmetric Gauss rule of the angle law at lam = k - 1/2,
    # (1 - u^2)^(k - 1) du, and z^2 = |x|^2 + t^2 - 2 |x| t u
    k, x, t = 1.0, 0.7, 0.9
    u, w = roots_jacobi(2, k - 1.0, k - 1.0)
    want = float(np.sum(w / np.sum(w) * np.cos(np.sqrt(x * x + t * t - 2.0 * t * (x * u)))))
    got = spherical_mean_radial((k,), np.cos, x, t, n=2)
    assert got == pytest.approx(want, rel=1e-15, abs=0)
    assert got != spherical_mean_radial((k,), np.cos, x, t)


def _translation_mean(kv, f0, x, t, n_sphere, n_per_axis):
    """The mean by translating f once per sphere node and averaging: at one
    axis over the two signed points, at two over SphereQuadrature."""
    kv = MultiplicityVector(k=kv)
    r = np.atleast_1d(np.asarray(t, dtype=float))
    if kv.n_axes == 1:
        vals = radial_translate(kv, f0, x, np.concatenate([r, -r])[:, None],
                                n_per_axis=n_per_axis)
        return 0.5 * (vals[:r.size] + vals[r.size:])
    rule = SphereQuadrature(kv, n=n_sphere)
    pts = (r[:, None, None] * rule.points[None, :, :]).reshape(-1, 2)
    vals = radial_translate(kv, f0, x, pts, n_per_axis=n_per_axis)
    return rule.integrate_values(vals.reshape(r.size, -1).T) / kv.d_norm


_MEAN_CASES = [((1.0,), [0.7]), ((0.5,), [-1.3]), ((0.0,), [0.8]), ((1.0, 1.0), [0.7, -0.5]),
               ((2.0, 0.5), [1.1, 0.3]), ((0.0, 1.5), [-0.4, 0.9]), ((0.5, 0.0), [0.0, 1.2])]


@pytest.mark.parametrize("k, x", _MEAN_CASES, ids=[str(k) for k, _ in _MEAN_CASES])
def test_spherical_mean_radial_matches_the_translation_route(k, x):
    # smooth profiles: the point convolution of |x| and t at the default n
    # and translation plus sphere quadrature at (64, 48) agree to rounding
    lam = MultiplicityVector(k=k).lam
    t = np.array([0.15, 0.6, 1.1, 1.9])
    for f0 in (lambda r: bessel_j(lam, 2.3 * np.asarray(r)),
               lambda r: np.exp(-0.5 * np.asarray(r) ** 2)):
        got = spherical_mean_radial(k, f0, x, t)
        np.testing.assert_allclose(got, _translation_mean(k, f0, x, t, 64, 48), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_per_axis", [16, 48, 192, 256])
def test_translation_route_mean_holds_its_digits_as_the_rule_refines(n_per_axis):
    # the wave j_0(2.3 r) at k = 1/2 has the mean j_0(2.3 |x|) j_0(2.3 t); the
    # intertwiner rule of an asymmetric Gauss-Jacobi family lost digits as n
    # grew (1.8e-14 at 48, 8.3e-13 at 256)
    f0 = lambda r: bessel_j(0.0, 2.3 * np.asarray(r))
    t = np.array([0.3, 0.6, 1.1])
    got = _translation_mean((0.5,), f0, [-1.3], t, None, n_per_axis)
    want = bessel_j(0.0, 2.3 * 1.3) * bessel_j(0.0, 2.3 * t)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


_PRODUCT_LAW_CASES = [((0.5,), [-1.3]), ((2.0,), [0.7]), ((1.0, 0.5), [0.7, -0.5]),
                      ((0.3, 2.0), [1.1, 0.3]), ((0.0,), [0.8]), ((1.0, 0.5, 0.2), [0.7, -0.1, 0.4]),
                      ((0.0, 0.0, 0.0), [0.3, 0.5, -0.2]), ((2.0, 0.0, 1.5), [0.0, -0.9, 0.6])]


@pytest.mark.parametrize("k, x", _PRODUCT_LAW_CASES)
def test_spherical_mean_radial_is_the_product_law(k, x):
    # the radial product formula: the mean of y -> j_lam(z |y|) at (x, t) is
    # j_lam(z |x|) j_lam(z t), at N = 1, 2 and 3; lam = -1/2 at k = (0,).  The
    # bound is bessel_j's: at lam = 0 its integer-order series is off by up
    # to 2.2e-14 at z = 4.1, with any n
    lam = MultiplicityVector(k=k).lam
    t = np.array([0.15, 0.6, 1.1, 1.9])
    for z in (0.7, 2.3, 4.1):
        got = spherical_mean_radial(k, lambda r: bessel_j(lam, z * np.asarray(r)), x, t)
        want = bessel_j(lam, z * np.linalg.norm(x)) * bessel_j(lam, z * t)
        np.testing.assert_allclose(got, want, rtol=0, atol=5e-14)


@pytest.mark.parametrize("k, x", [((1.0,), [0.7]), ((1.0, 1.0), [0.7, -0.5])],
                         ids=["rank-one", "two-axes"])
def test_spherical_mean_radial_error_on_non_smooth_profiles(k, x):
    # kinks (r, |r - 1|) and the bump's C^9 edge converge slowly in both
    # routes.  The reference is the angle rule at n = 4096; the error at the
    # default n stays within 10x the translation route's at (64, 48).  At
    # two axes |r - 1| decides the default: 9.0e-6 at n = 192 and 4.6e-6 at
    # 256, against the translation route's 6.5e-6.
    t = np.linspace(0.15, 1.95, 6)
    for f0 in (lambda r: np.asarray(r), lambda r: np.abs(np.asarray(r) - 1.0), radial_bump(1.2)):
        ref = spherical_mean_radial(k, f0, x, t, n=4096)
        new = np.max(np.abs(spherical_mean_radial(k, f0, x, t) - ref))
        old = np.max(np.abs(_translation_mean(k, f0, x, t, 64, 48) - ref))
        assert new <= 10.0 * old + 1e-14


def _mean_law(kv, x, n):
    """The law nu_x of s = <xi, omega>, xi ~ mu_x (intertwiner atoms) and
    omega ~ w_k dsigma / d_k (the two signed points at one axis,
    SphereQuadrature at two), as nodes s and masses w."""
    pts, masses = intertwiner_atoms(kv, x, n_per_axis=n)
    if kv.n_axes == 1:
        return np.concatenate([pts[:, 0], -pts[:, 0]]), np.concatenate([masses, masses]) / 2.0
    rule = SphereQuadrature(kv, n=n)
    return (rule.points @ pts.T).ravel(), np.multiply.outer(rule.weights / kv.d_norm, masses).ravel()


@pytest.mark.parametrize("k, x", [((1.0,), [0.7]), ((0.0,), [-0.8]), ((0.3,), [0.0]),
                                  ((1.0, 0.5), [0.9, -0.7]), ((0.0, 1.5), [-0.4, 1.1]),
                                  ((2.0, 0.5), [0.0, 1.3]), ((0.0, 0.0), [0.6, 0.0]),
                                  ((0.3, 1.7), [0.9, -0.7])])
def test_mean_law_is_an_even_probability_measure_on_the_ball(k, x):
    # the paper's own route to nu_x has the moments of |x| u, u ~ the angle
    # law at lam: (1/2)_m / (lam + 1)_m |x|^(2m), whatever the direction of x.
    # n = 16 is exact at degree 12 in s; (0.3, 1.7) reads scipy's quadrant
    # roots (6.7e-14)
    kv = MultiplicityVector(k=k)
    s, w = _mean_law(kv, np.asarray(x), 16)
    rx = float(np.sqrt(np.sum(np.square(x))))
    assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-15
    assert np.all(np.abs(s) <= rx)
    u = s / rx if rx > 0.0 else s
    for m in range(1, 7):
        want = 1.0 if rx > 0.0 else 0.0
        want *= np.prod([(j + 0.5) / (kv.lam + 1.0 + j) for j in range(m)])
        assert abs(np.sum(w * u ** (2 * m)) - want) <= 2e-13 * want
        assert abs(np.sum(w * u ** (2 * m - 1))) <= 1e-15


@pytest.mark.parametrize("case", ["x-length", "x-2d", "x-overflow", "t-overflow",
                                  "f0-shape", "three-axes"])
def test_spherical_mean_radial_input_contract(case):
    # non-finite x and t have tests of their own; three axes are in range
    # (they were refused while the mean built a tensor law)
    args = dict(kv=KV2, f0=np.cos, x=[0.7, 0.1], t=0.8)
    args.update({
        "x-length": dict(x=[0.7, 0.1, 0.2]),
        "x-2d": dict(x=[[0.7, 0.1], [0.2, 0.3]]),
        # |x|^2 + t^2 used to stop with an overflow RuntimeWarning
        "x-overflow": dict(x=[1e200, 0.1]),
        "t-overflow": dict(t=1e200),
        "f0-shape": dict(f0=lambda r: np.zeros(3)),
        "three-axes": dict(kv=(1.0, 0.5, 0.2), x=[0.7, 0.1, 0.2]),
    }[case])
    call = lambda: spherical_mean_radial(args["kv"], args["f0"], args["x"], args["t"])
    if case == "three-axes":
        assert np.isfinite(call())
        return
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize("t", [[], np.empty((0, 3))])
@pytest.mark.parametrize("k", [(1.0,), (1.0, 0.5)])
def test_spherical_mean_radial_of_no_radii_is_empty(k, t):
    # [] used to fail with numpy's bare "cannot reshape array of size 0"
    got = spherical_mean_radial(k, np.cos, np.full(len(k), 0.4), t)
    assert isinstance(got, np.ndarray) and got.shape == np.shape(t)


def test_spherical_mean_radial_batches_radii():
    f0 = lambda r: np.exp(-0.5 * np.asarray(r) ** 2)
    x = np.array([0.7, -0.5])
    radii = np.array([0.3, 0.9, 1.4])
    batched = spherical_mean_radial(KV2, f0, x, radii, n=16)
    single = [spherical_mean_radial(KV2, f0, x, r, n=16) for r in radii]
    assert batched.shape == radii.shape
    np.testing.assert_allclose(batched, single, rtol=1e-14)


@pytest.mark.parametrize("k", [(1.0,), (1.0, 0.5)])
def test_mean_of_a_constant_profile_is_one(k):
    # a scalar f0 used to crash the atom contraction with numpy's matmul error
    x = np.linspace(0.7, -0.3, len(k))
    assert spherical_mean_radial(k, lambda r: 1.0, x, 0.8) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(spherical_mean_radial(k, lambda r: 1.0, x, [0.3, 1.2]),
                               1.0, rtol=0, atol=1e-14)


def test_radial_translate_names_the_profile_shape():
    with pytest.raises(ConfigError, match=r"f0 returned shape \(3,\) for radii of shape"):
        radial_translate(KV2, lambda r: np.zeros(3), [0.7, 0.1], [[0.3, 0.2], [0.1, 0.5]])


# the mean's ids keep the names of the node budgets n_sphere and n_per_axis
# it took before its one angle rule; each now checks n, the three-axis case
# (refused while the mean built a tensor law) under n_per_axis; the one-axis
# intertwiner_atoms keeps the id of the rank-one builder it replaced
@pytest.mark.parametrize("call", [
    lambda v: spherical_mean_radial(KV2, np.cos, [0.7, 0.1], 0.8, n=v),
    lambda v: spherical_mean_radial((1.0,), np.cos, [0.7], 0.8, n=v),
    lambda v: spherical_mean_radial((1.0, 0.5, 0.2), np.cos, [0.7, 0.1, 0.2], 0.8, n=v),
    lambda v: radial_translate(KV2, np.cos, [0.7, 0.1], [0.3, 0.2], n_per_axis=v),
    lambda v: intertwiner_atoms(KV2, [0.7, 0.1], n_per_axis=v),
    lambda v: SphereQuadrature(KV2, n=v),
    lambda v: signed_product_measure(1.0, 0.7, 0.3, n=v),
    lambda v: signed_product_measure(0.0, 0.7, 0.3, n=v),
    lambda v: spherical_mean_measure(1.0, 0.7, 0.3, n=v),
    lambda v: intertwiner_atoms((1.0,), [0.7], n_per_axis=v),
], ids=["mean-n_sphere", "mean-rank-one-n_sphere", "mean-n_per_axis", "translate",
        "intertwiner_atoms", "sphere", "signed_product_measure",
        "signed_product_measure-k0", "spherical_mean_measure",
        "intertwiner_measure"])
@pytest.mark.parametrize("bad", [0, 2.5, -1])
def test_radial_layer_node_budgets_are_config_errors(call, bad):
    # 0 and 2.5 reached scipy's bare "n must be a positive integer"; the
    # product measure at k = 0 never read n
    with pytest.raises(ConfigError, match="must be"):
        call(bad)


@pytest.mark.parametrize("block", [2**10, 2**22])
def test_radial_translate_does_not_depend_on_the_blocks(monkeypatch, block):
    f0 = lambda r: np.exp(-np.asarray(r) ** 2)
    y = np.random.default_rng(5).uniform(-2.0, 2.0, size=(700, 2))
    ref = radial_translate(KV2, f0, [0.7, -0.4], y)
    monkeypatch.setattr(measures, "_BLOCK", block)
    out = radial_translate(KV2, f0, [0.7, -0.4], y)
    np.testing.assert_allclose(out, ref, rtol=1e-15, atol=0)


def test_spherical_mean_radial_memory_stays_in_blocks():
    # a translate_measure-sized call, 4096 radii x 256 angle nodes: in blocks
    # the peak was 1.4 MB, built whole 43 MB
    kv = MultiplicityVector(k=(1.0, 1.0))
    f0 = lambda r: bessel_j(kv.lam, 2.0 * np.asarray(r))
    radii = np.linspace(0.01, 3.0, 4096)
    tracemalloc.start()
    try:
        spherical_mean_radial(kv, f0, [1.0, 0.5], radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_spherical_mean_wave_closed_form():
    # the kernel wave is an eigenfunction of the mean operator; the
    # measure-based route must land on E_k(ix, z) j_lam(t |z|)
    z = np.array([0.8, 1.1])
    x = np.array([0.4, -0.6])
    t = 0.7
    want = complex(spherical_mean_wave(KV2, z, x, t))
    got = _wave_mean_by_measures(KV2, z, x, t)
    assert abs(got - want) < 1e-9


def _wave_mean_by_measures(kv, z, x, t):
    """Mean of y -> E_k(iy, z) over the weighted sphere of radius t
    around x: translate the product wave axis by axis through signed
    product measures, then average over the sphere."""
    from dunklkit import SphereQuadrature, kernel_unitary, signed_product_measure

    rule = SphereQuadrature(kv, n=48)
    total = 0.0 + 0.0j
    for pt, wt in zip(rule.points, rule.weights):
        val = 1.0 + 0.0j
        for i, ki in enumerate(kv.k):
            mu = signed_product_measure(ki, float(x[i]), float(t * pt[i]))
            val *= mu.integrate(lambda s, i=i: kernel_unitary(ki, s, float(z[i])))
        total += wt * val
    return total / kv.d_norm


def test_bump_support():
    f0 = radial_bump(1.5)
    r = np.array([0.0, 1.0, 1.5, 2.0, 5.0])
    vals = f0(r)
    assert vals[0] == pytest.approx(1.0)
    assert np.all(vals[:2] > 0)
    assert vals[2] == 0.0 and np.all(vals[3:] == 0.0)
    with pytest.raises(ConfigError):
        radial_bump(0.0)
    g = bump(np.array([1.0, -1.0]), 0.5)
    pts = np.array([[1.0, -1.0], [1.4, -1.0], [2.0, 0.0]])
    gv = g(pts)
    assert gv[0] > 0 and gv[1] > 0 and gv[2] == 0.0


def _unmasked_radial_bump(radius, order):
    def f0(r):
        u = np.asarray(r, dtype=float) / radius
        return np.clip(1.0 - u * u, 0.0, None) ** order * np.exp(-(u * u))
    return f0


@pytest.mark.parametrize("radius, order", [(1.5, 10), (0.55, 13), (1.0, 1), (2.0 / 3.0, 8),
                                           (1e-3, 12), (0.7, 15)])
def test_bump_masks_its_support_bit_for_bit(radius, order):
    # every radius whose unmasked core is > 0 is still evaluated, with the
    # same bits; points within a few ulps of the sphere included
    ulps = radius * (1.0 + np.arange(-6, 7) * np.finfo(float).eps)
    r = np.concatenate([np.linspace(0.0, 2.0 * radius, 401), ulps, -ulps,
                        np.nextafter(radius, [0.0, np.inf]), [np.nan]])
    want = _unmasked_radial_bump(radius, order)(r)
    assert np.array_equal(radial_bump(radius, order)(r), want, equal_nan=True)
    assert np.any(want[401:414] > 0) and np.all(want[r >= radius] == 0.0)
    center = np.array([0.3, -0.2])
    pts = center + np.concatenate([r[:-1, None] * [0.6, 0.8], r[:-1, None] * [-1.0, 0.0]])
    pts = np.concatenate([pts, _tensor_grid([np.linspace(-2.0, 2.0, 41)] * 2)])
    dist = np.sqrt(np.sum((pts - center) ** 2, axis=-1))
    assert np.array_equal(bump(center, radius, order)(pts),
                          _unmasked_radial_bump(radius, order)(dist))
    assert isinstance(radial_bump(radius, order)(0.5 * radius), np.float64)


def test_bump_computes_nothing_outside_its_support():
    # the unmasked formula overflows in u * u far outside the ball
    with np.errstate(all="raise"):
        assert np.all(radial_bump(1.0)(np.array([1e200, -1e200, 3.0])) == 0.0)
        assert bump([0.0, 0.0], 0.5)(np.array([[1e160, 0.0]])) == 0.0


@pytest.mark.parametrize("call", [
    lambda: radial_bump(float("nan")), lambda: radial_bump(float("inf")),
    lambda: radial_bump("a"), lambda: radial_bump(-1.0), lambda: radial_bump(1.0, order=-1),
    lambda: radial_bump(1.0, order=0), lambda: radial_bump(1.0, order=2.5),
    lambda: radial_bump(1.0, order=True), lambda: bump([float("nan"), 0.0], 1.0),
    lambda: bump([0.0, float("-inf")], 1.0), lambda: bump("a", 1.0),
    lambda: bump([0.0, 0.0], float("nan")),
], ids=["radius-nan", "radius-inf", "radius-str", "radius-negative", "order-negative",
        "order-0", "order-fraction", "order-bool", "center-nan", "center-inf", "center-str",
        "bump-radius-nan"])
def test_bump_inputs_are_config_errors(call):
    # NaN gave NaN everywhere, inf the constant 1, order -1 a division by
    # zero and "a" a bare TypeError
    with pytest.raises(ConfigError):
        call()


def test_darboux_second_order_ratio():
    f0 = lambda r: np.exp(-0.4 * np.asarray(r) ** 2) * (1.0 + 0.1 * np.asarray(r) ** 2)
    mean_fn = lambda p, tt: spherical_mean_radial(KV2, f0, p, tt)
    x = np.array([0.9, -0.7])
    r1 = darboux_residual(KV2, mean_fn, x, 0.5, h=0.05)
    r2 = darboux_residual(KV2, mean_fn, x, 0.5, h=0.025)
    assert 3.5 <= r1 / r2 <= 4.5
