"""Multiplicity bookkeeping, Dunkl operators, and the N-axis kernels.

Operator checks lean on exact polynomial identities (the divided
differences in T_xi are exact on polynomials, only the derivative part is
finite-differenced).  Normalization constants were frozen from a 40-digit
mpmath evaluation of the defining Gamma products.
"""

import json

import numpy as np
import pytest

from dunklkit import (
    ConfigError,
    MultiplicityVector,
    alternating_sum_bessel,
    dunkl_kernel,
    dunkl_kernel_unitary,
    dunkl_laplacian,
    dunkl_operator,
    generalized_bessel_unitary,
    group_elements,
    intertwiner_atoms,
    kernel_real,
    kernel_unitary,
    heat_kernel,
    heat_kernel_spectral,
)
from dunklkit.harmonics import funk_hecke_pair
from dunklkit.markov import (KRadialMeasure, composed_kernel_hat, gaussian_kernel_hat,
                             subordinated_kernel_hat, translate_measure)
from dunklkit.cli import main
from dunklkit.special import bessel_j, bessel_j_imag


# ---------------------------------------------------------------------------
# multiplicity vector


def test_multiplicity_constants_frozen():
    kv = MultiplicityVector(k=(1.0, 0.5))
    assert kv.n_axes == 2
    assert kv.gamma == pytest.approx(1.5)
    assert kv.lam == pytest.approx(1.5)
    assert kv.c_norm == pytest.approx(14.1796308072441282, rel=1e-15)
    assert kv.d_norm == pytest.approx(3.77123616632825346, rel=1e-15)

    kv1 = MultiplicityVector(k=(2.5,))
    assert kv1.lam == pytest.approx(2.0)
    assert kv1.c_norm == pytest.approx(90.5096679918780831, rel=1e-15)
    assert kv1.d_norm == pytest.approx(11.3137084989847604, rel=1e-15)


def test_multiplicity_zero_recovers_lebesgue_constants():
    # k = 0: c_norm = (2 pi)^(N/2), d_norm = |S^(N-1)|
    kv = MultiplicityVector(k=(0.0, 0.0, 0.0))
    assert kv.c_norm == pytest.approx((2.0 * np.pi) ** 1.5, rel=1e-14)
    assert kv.d_norm == pytest.approx(4.0 * np.pi, rel=1e-14)


def test_multiplicity_validation():
    with pytest.raises(ConfigError):
        MultiplicityVector(k=(1.0, -0.2))
    with pytest.raises(ConfigError):
        MultiplicityVector(k=())
    # scalar coerces to one axis
    assert MultiplicityVector(k=1.5).k == (1.5,)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "a", None, [1.0]])
def test_multiplicity_rejects_non_finite(bad, tmp_path, capsys):
    # a string, null or list entry was float()'s ValueError or TypeError
    with pytest.raises(ConfigError):
        MultiplicityVector((bad, 1.0))
    with pytest.raises(ConfigError):
        MultiplicityVector.from_json(json.dumps({"N": 2, "k": [bad, 1.0]}))
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"target": "kernel", "k": [bad], "x": [1.0], "y": [0.5]}))
    assert main(["eval", "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"


def test_multiplicity_json_roundtrip():
    kv = MultiplicityVector(k=(0.5, 2.0))
    again = MultiplicityVector.from_json(kv.to_json())
    assert again == kv
    with pytest.raises(ConfigError):
        MultiplicityVector.from_json('{"N": 2, "k": [1.0]}')
    with pytest.raises(ConfigError):
        MultiplicityVector.from_json('{"k": [1.0]}')
    with pytest.raises(ConfigError):
        MultiplicityVector.from_json("not json")


@pytest.mark.parametrize("text", ['1', '["N", "k"]', 'null'])
def test_multiplicity_json_must_be_an_object(text):
    # each was a TypeError
    with pytest.raises(ConfigError):
        MultiplicityVector.from_json(text)


def test_group_elements():
    g = group_elements(2)
    assert g.shape == (4, 2)
    assert sorted(map(tuple, g)) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


# ---------------------------------------------------------------------------
# Dunkl operator and Laplacian on exact polynomial identities


def test_dunkl_operator_rank_one_polynomials():
    k = 0.75
    e1 = np.array([1.0])
    for x in (0.4, -1.3, 2.0):
        xv = np.array([x])
        # T x = 1 + 2k
        assert dunkl_operator(k, lambda p: p[0], xv, e1) == pytest.approx(
            1.0 + 2.0 * k, abs=1e-9)
        # T x^2 = 2x (even function: no reflection contribution)
        assert dunkl_operator(k, lambda p: p[0] ** 2, xv, e1) == pytest.approx(
            2.0 * x, abs=1e-9)
        # T x^3 = (3 + 2k) x^2
        assert dunkl_operator(k, lambda p: p[0] ** 3, xv, e1) == pytest.approx(
            (3.0 + 2.0 * k) * x * x, abs=1e-8)


def test_dunkl_operator_two_axes():
    kv = MultiplicityVector(k=(1.0, 0.5))
    f = lambda p: p[0] ** 2 * p[1]
    x = np.array([0.8, -0.6])
    # even in x1: T_1 f = 2 x1 x2
    got1 = dunkl_operator(kv, f, x, np.array([1.0, 0.0]))
    assert got1 == pytest.approx(2.0 * x[0] * x[1], abs=1e-9)
    # odd in x2: T_2 f = (1 + 2 k2) x1^2
    got2 = dunkl_operator(kv, f, x, np.array([0.0, 1.0]))
    assert got2 == pytest.approx((1.0 + 2.0 * 0.5) * x[0] ** 2, abs=1e-9)
    # directional linearity
    both = dunkl_operator(kv, f, x, np.array([1.0, 1.0]))
    assert both == pytest.approx(got1 + got2, abs=1e-9)


def test_dunkl_operator_on_wall():
    # the difference quotient limit 2 d_i f is picked up at x_i = 0
    k = 1.25
    got = dunkl_operator(k, lambda p: p[0] ** 3, np.array([0.0]), np.array([1.0]))
    assert got == pytest.approx(0.0, abs=1e-9)
    got = dunkl_operator(k, lambda p: np.sin(p[0]), np.array([0.0]), np.array([1.0]))
    assert got == pytest.approx(1.0 + 2.0 * k, abs=1e-9)


def test_dunkl_laplacian_on_squared_radius():
    # Delta_k |x|^2 = 2 N + 4 gamma everywhere, walls included
    f = lambda p: float(np.dot(p, p))
    for k, pts in [
        ((1.0, 0.5), [np.array([0.9, -0.4]), np.array([0.0, 0.7])]),
        ((2.5,), [np.array([1.1])]),
    ]:
        kv = MultiplicityVector(k=k)
        want = 2.0 * kv.n_axes + 4.0 * kv.gamma
        for x in pts:
            assert dunkl_laplacian(kv, f, x) == pytest.approx(want, rel=1e-7)


def test_dunkl_laplacian_radial_eigenfunction():
    # Delta_k applied to x -> J(ix, y) gives -|y|^2 J(ix, y)
    kv = MultiplicityVector(k=(1.0, 0.5))
    y = np.array([0.6, -1.1])
    f = lambda p: float(generalized_bessel_unitary(kv, p, y))
    x = np.array([0.8, 0.5])
    got = dunkl_laplacian(kv, f, x)
    assert got == pytest.approx(-float(np.dot(y, y)) * f(x), rel=1e-6)


def test_kernel_is_dunkl_operator_eigenfunction():
    # T_i E_k(., y)(x) = y_i E_k(x, y) for each axis
    kv = MultiplicityVector(k=(1.0, 0.5))
    y = np.array([0.9, -0.7])
    f = lambda p: float(dunkl_kernel(kv, p, y))
    x = np.array([0.6, 1.2])
    for i in range(2):
        xi = np.zeros(2)
        xi[i] = 1.0
        got = dunkl_operator(kv, f, x, xi)
        assert got == pytest.approx(y[i] * f(x), rel=1e-8)


# ---------------------------------------------------------------------------
# N-axis kernels


def test_dunkl_kernel_factorizes():
    kv = MultiplicityVector(k=(1.3, 0.5))
    x = np.array([0.8, 2.0])
    y = np.array([-1.1, 2.0])
    want = kernel_real(1.3, 0.8, -1.1) * kernel_real(0.5, 2.0, 2.0)
    assert dunkl_kernel(kv, x, y) == pytest.approx(want, rel=1e-14)
    got_u = dunkl_kernel_unitary(kv, x, y)
    want_u = kernel_unitary(1.3, 0.8, -1.1) * kernel_unitary(0.5, 2.0, 2.0)
    assert abs(got_u - want_u) < 1e-14 * abs(want_u)


def test_dunkl_kernel_broadcasting_and_normalization():
    kv = MultiplicityVector(k=(1.0, 0.5))
    x = np.random.default_rng(3).normal(size=(5, 2))
    zero = np.zeros((1, 2))
    np.testing.assert_allclose(dunkl_kernel(kv, x, zero), np.ones(5), rtol=1e-14)
    vals = dunkl_kernel_unitary(kv, x[:, None, :], x[None, :, :])
    assert vals.shape == (5, 5)
    assert np.max(np.abs(vals)) <= 1.0 + 1e-11
    # symmetry of the real kernel
    r = dunkl_kernel(kv, x[:, None, :], x[None, :, :])
    np.testing.assert_allclose(r, r.T, rtol=1e-13)


KV_COORDS = MultiplicityVector(k=(1.0, 0.5))
HEAT_COORDS = KRadialMeasure.heat(KV_COORDS, 0.5)


@pytest.mark.parametrize("fn", [
    dunkl_kernel,
    dunkl_kernel_unitary,
    generalized_bessel_unitary,
    lambda kv, x, y: heat_kernel(kv, 0.5, x, y),
    lambda kv, x, y: heat_kernel_spectral(kv, 0.5, x, y),
    lambda kv, x, y: gaussian_kernel_hat(kv, 0.5, x, y),
    lambda kv, x, y: composed_kernel_hat(kv, 0.3, 0.2, x, y),
    lambda kv, x, y: (HEAT_COORDS.hat(x), HEAT_COORDS.hat(y)),
    lambda kv, x, y: (translate_measure(x, HEAT_COORDS, f0=np.cos),
                      translate_measure(y, HEAT_COORDS, f0=np.cos)),
    lambda kv, x, y: subordinated_kernel_hat(kv, 0.5, x, y),
    lambda kv, x, y: (funk_hecke_pair(kv, np.array([1.0, 0.2]), x),
                      funk_hecke_pair(kv, np.array([1.0, 0.2]), y)),
], ids=["dunkl_kernel", "dunkl_kernel_unitary",
        "generalized_bessel_unitary", "heat_kernel", "heat_kernel_spectral",
        "gaussian_kernel_hat", "composed_kernel_hat", "kradial_hat",
        "translate_measure", "subordinated_kernel_hat", "funk_hecke_pair"])
@pytest.mark.parametrize("x, y", [
    ([1.0, 2.0, 3.0], [0.5, 0.1, 9.0]),
    ([1.0, 2.0, 3.0], [0.5, 0.1]),
    ([1.0, 2.0], [0.5, 0.1, 9.0]),
    ([1.0], [0.5, 0.1]),
    ([1.0, 2.0], [[0.5], [0.1]]),
    (["a", "b"], [0.5, 0.1]),
])
def test_kernels_check_coordinate_count(fn, x, y):
    # a third coordinate must not be dropped silently, and a string
    # coordinate was numpy's bare ValueError; KRadialMeasure.hat read only
    # |xi|, so one or three coordinates of a two-axis measure went through
    with pytest.raises(ConfigError):
        fn(KV_COORDS, x, y)
    fn(KV_COORDS, [1.0, 2.0], [0.5, 0.1])


def test_generalized_bessel_is_group_average():
    kv = MultiplicityVector(k=(1.0, 0.5))
    x = np.array([0.9, -0.4])
    y = np.array([1.3, 0.8])
    # on real arguments the average is prod_i j_{k_i - 1/2}(i x_i y_i)
    avg = np.mean([dunkl_kernel(kv, x, g * y) for g in group_elements(2)])
    want = bessel_j_imag(0.5, 0.9 * 1.3) * bessel_j_imag(0.0, -0.4 * 0.8)
    assert avg == pytest.approx(want, rel=1e-13)
    avg_u = np.mean([dunkl_kernel_unitary(kv, x, g * y) for g in group_elements(2)])
    got_u = generalized_bessel_unitary(kv, x, y)
    assert abs(got_u - avg_u) < 1e-13
    assert abs(np.imag(avg_u)) < 1e-15  # the average is real


def test_generalized_bessel_factorizes_to_bessel_j():
    kv = MultiplicityVector(k=(1.0, 0.5))
    x = np.array([0.9, -0.4])
    y = np.array([1.3, 0.8])
    want_u = bessel_j(0.5, 0.9 * 1.3) * bessel_j(0.0, -0.4 * 0.8)
    assert generalized_bessel_unitary(kv, x, y) == pytest.approx(want_u, rel=1e-14)


def test_intertwiner_atoms_reproduce_kernel():
    kv = MultiplicityVector(k=(1.0, 0.5))
    x = np.array([1.1, -0.8])
    pts, masses = intertwiner_atoms(kv, x)
    assert pts.shape[1] == 2
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(pts) <= np.abs(x)[None, :] + 1e-12)
    for y in (np.array([0.5, 1.5]), np.array([-2.0, 0.3])):
        got = float(np.dot(masses, np.exp(pts @ y)))
        assert got == pytest.approx(float(dunkl_kernel(kv, x, y)), rel=1e-12)


def test_intertwiner_atoms_identity_at_zero_multiplicity():
    kv = MultiplicityVector(k=(0.0, 0.0))
    x = np.array([0.4, -0.9])
    pts, masses = intertwiner_atoms(kv, x)
    assert pts.shape == (1, 2)
    np.testing.assert_allclose(pts[0], x)
    assert masses[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# alternating group sum at multiplicity one


def test_alternating_sum_bessel_matches_explicit_sum():
    rng = np.random.default_rng(11)
    for _ in range(6):
        x = rng.uniform(0.3, 2.0, size=2)
        y = rng.uniform(0.3, 2.0, size=2)
        total = 0.0
        for g in group_elements(2):
            total += float(np.prod(g)) * np.exp(float(np.dot(x, g * y)))
        explicit = total / (4.0 * np.prod(x) * np.prod(y))
        assert alternating_sum_bessel(x, y) == pytest.approx(explicit, rel=1e-12)


def test_alternating_sum_bessel_smooth_through_zero():
    # pi(x) pi(y) = 0 is removable; the value continues to prod sinh(u)/u
    x = np.array([0.0, 1.2])
    y = np.array([0.7, 0.5])
    want = 1.0 * np.sinh(0.6) / 0.6
    assert alternating_sum_bessel(x, y) == pytest.approx(want, rel=1e-12)
    # series branch near zero agrees with the direct quotient
    u = 2e-5
    got = alternating_sum_bessel(np.array([u]), np.array([1.0]))
    assert got == pytest.approx(np.sinh(u) / u, rel=1e-14)


def test_alternating_sum_bessel_is_multiplicity_one_bessel():
    # equals prod_i j_{1/2}(i x_i y_i), the real-argument group average at k = 1
    x = np.array([0.9, 1.7])
    y = np.array([-0.4, 0.8])
    assert alternating_sum_bessel(x, y) == pytest.approx(
        float(np.prod(bessel_j_imag(0.5, x * y))), rel=1e-13)
