"""Normalized Bessel functions and Gegenbauer polynomials.

Reference values were computed independently with mpmath at 40 digits:
j_alpha(z) = Gamma(alpha+1) (2/z)^alpha J_alpha(z) for real z,
j_alpha(iy) through I_alpha, and general complex arguments through the
confluent limit 0F1(alpha+1; -z^2/4).
"""

import hashlib

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, ive, j0, j1, jv

from dunklkit.errors import ConfigError, NumericalError
from dunklkit.rank_one import kernel_unitary
from dunklkit.special import (
    _IVE_MAX,
    _J01_MAX,
    _bessel_ratio,
    _prefactor,
    _scaled_bessel_imag,
    _series_0f1,
    bessel_j,
    bessel_j_envelope,
    bessel_j_imag,
    gegenbauer,
    gegenbauer_hypergeometric,
    radial_bessel_operator,
    riemann_liouville,
)

# (alpha, z) -> j_alpha(z), spanning the power series and the large-z path
_REAL_VALUES = [
    (0.5, 1.7, 0.583332241442628616),
    (1.0, 3.2, 0.16333953048781547),
    (2.5, 7.9, -0.0283989861674178997),
    (0.0, 12.5, 0.146884054700421102),
    (1.5, 0.3, 0.991028880406418802),
    (0.5, 25.0, -0.00529407000391092116),
]

# (alpha, y) -> j_alpha(i y), real and growing
_IMAG_VALUES = [
    (0.5, 2.1, 1.91516987721777823),
    (1.5, 9.0, 133.38410011255373),
    (3.0, 0.8, 1.04064572152724331),
]


@pytest.mark.parametrize("alpha,z,expected", _REAL_VALUES)
def test_bessel_j_frozen_real(alpha, z, expected):
    assert bessel_j(alpha, z) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("alpha,y,expected", _IMAG_VALUES)
def test_bessel_j_frozen_imaginary(alpha, y, expected):
    assert bessel_j_imag(alpha, y) == pytest.approx(expected, rel=1e-13)
    # the complex entry point must agree with the dedicated real-valued one
    via_complex = bessel_j(alpha, 1j * y)
    assert via_complex.imag == pytest.approx(0.0, abs=1e-13 * abs(expected))
    assert via_complex.real == pytest.approx(expected, rel=1e-12)


def test_bessel_j_general_complex():
    got = bessel_j(1.0, 10.0 + 10.0j)
    assert got == pytest.approx(-270.730770424241165 - 178.594587716570593j, rel=1e-12)
    got = bessel_j(0.5, 3.0 - 4.0j)
    assert got == pytest.approx(-3.86024155673030424 + 3.85861567702757251j, rel=1e-12)


def test_bessel_j_basic_shape_and_symmetry():
    z = np.linspace(-30.0, 30.0, 101)
    vals = bessel_j(1.2, z)
    assert vals.shape == z.shape
    assert np.allclose(vals, bessel_j(1.2, -z), rtol=0, atol=1e-15)
    assert bessel_j(1.2, 0.0) == 1.0
    with pytest.raises(ConfigError):
        bessel_j(-0.7, 1.0)


def test_bessel_j_half_is_sinc():
    z = np.linspace(0.1, 40.0, 57)
    assert np.allclose(bessel_j(0.5, z), np.sin(z) / z, rtol=0, atol=5e-13)


# Large-argument branch (|z| > 12) at half-integer orders: trig start plus
# upward recurrence.  Errors are measured against mpmath relative to the
# asymptotic envelope Gamma(a+1) (x/2)^(-a) sqrt(2/(pi x)), floored at the
# smallest normal double (below it j has no relative digits left to keep).
_HALF_INT_ORDERS = [n - 0.5 for n in range(13)]


def _envelope_error(alpha, x, got):
    with mpmath.workdps(40):
        xm = mpmath.mpf(float(x))
        scale = mpmath.gamma(alpha + 1) * (xm / 2) ** (-alpha)
        exact = scale * mpmath.besselj(alpha, xm)
        env = max(scale * mpmath.sqrt(2 / (mpmath.pi * xm)), np.finfo(float).tiny)
        return float(abs(mpmath.mpf(float(got)) - exact) / env)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", _HALF_INT_ORDERS)
def test_bessel_j_half_integer_large_argument(alpha):
    rng = np.random.default_rng(20261018)
    # the recurrence starts from t = tan(x/2); it is largest next to the
    # poles x = (2m+1) pi and must stay accurate on huge arguments.  The
    # last pole is the double nearest to one (|tan| = 2.1e18 there).
    poles = np.append((2.0 * np.array([4, 5, 31, 999, 12345, 99999, 100000]) + 1.0) * np.pi,
                      6381956970095103 * 2.0**798)
    x = np.concatenate([rng.uniform(12.0, 200.0, 24),
                        np.exp(rng.uniform(np.log(200.0), np.log(1e6), 24)),
                        [1e6, 1e150, 1e200],
                        poles, np.nextafter(poles, 0.0), np.nextafter(poles, np.inf),
                        np.exp(rng.uniform(np.log(1e12), np.log(1e300), 16)), [1e12, 1e300]])
    got = bessel_j(alpha, x)
    assert np.all(np.isfinite(got))
    assert max(_envelope_error(alpha, xx, g) for xx, g in zip(x, got)) <= 5e-15
    np.testing.assert_array_equal(bessel_j(alpha, -x), got)


@pytest.mark.parametrize("alpha", [0.5000000000000001, 0.49999999999999994])
def test_bessel_j_order_within_rounding_of_a_half_integer(alpha):
    # alpha + 0.5 rounds to 1, so the recurrence treats alpha as 1/2; it used
    # to step on the raw order: one step too many above 1/2 (z j read 0.0233
    # against sin z = -0.0047), none below (j_{-1/2}, z cos z)
    z = 128.81
    assert bessel_j(alpha, z) * z == pytest.approx(np.sin(z), abs=1e-15)


def test_unitary_kernel_bounded_at_order_within_rounding_of_one_half():
    # k = 1.0642e-16 gives the order k + 1/2 = 0.5000000000000001; the modulus read 1.00024
    assert abs(kernel_unitary(1.0642e-16, 7.525390625, 17.1171875)) <= 1.0 + 1e-15


@pytest.mark.parametrize("alpha", _HALF_INT_ORDERS)
def test_bessel_j_continuous_where_series_meets_recurrence(alpha):
    # half-integer orders switch to the recurrence at min(12, alpha + 1)
    e = min(12.0, alpha + 1.0)
    edge = np.array([e, np.nextafter(e, np.inf)])
    series_side, recurrence_side = bessel_j(alpha, edge)
    assert _envelope_error(alpha, e, recurrence_side) <= 5e-15
    env = _prefactor(alpha, np.array([e]))[0] * np.sqrt(2.0 / (np.pi * e))
    assert abs(series_side - recurrence_side) <= 1e-14 * env


@pytest.mark.parametrize("alpha", [a for a in _HALF_INT_ORDERS if a + 1.0 < 12.0])
def test_bessel_j_half_integer_between_edge_and_twelve(alpha):
    # (alpha + 1, 12] is on the recurrence, where the series would lose
    # about 1e-12 of the envelope to cancellation near 12
    rng = np.random.default_rng(20261019)
    x = np.concatenate([rng.uniform(alpha + 1.0, 12.0, 40), [np.nextafter(alpha + 1.0, np.inf), 12.0]])
    got = bessel_j(alpha, x)
    assert max(_envelope_error(alpha, xx, g) for xx, g in zip(x, got)) <= 5e-15


# Integer orders below 12 leave the series at 12 (not at alpha + 1) for the
# same recurrence, started from scipy's j0/j1, up to _J01_MAX; beyond it
# they keep jv (test_bessel_j_other_orders_keep_scipy_route).
_INT_ORDERS = [float(n) for n in range(12)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", _INT_ORDERS)
def test_bessel_j_integer_large_argument(alpha):
    rng = np.random.default_rng(20261021)
    x = np.concatenate([rng.uniform(12.0, 400.0, 40),
                        np.exp(rng.uniform(np.log(400.0), np.log(_J01_MAX), 20)),
                        [np.nextafter(12.0, np.inf), _J01_MAX]])
    got = bessel_j(alpha, x)
    assert np.all(np.isfinite(got))
    assert max(_envelope_error(alpha, xx, g) for xx, g in zip(x, got)) <= 5e-14
    np.testing.assert_array_equal(bessel_j(alpha, -x), got)


@pytest.mark.parametrize("alpha", _INT_ORDERS)
@pytest.mark.parametrize("edge", [12.0, _J01_MAX])
def test_bessel_j_integer_continuous_at_branch_edges(alpha, edge):
    # series | recurrence at 12, recurrence | jv at _J01_MAX.  Each side is
    # within its own bound of mpmath: 5e-14 of the envelope, and below 12
    # the series' 4 eps 0F1(alpha+1; x^2/4) (up to ~1e-11, it cancels
    # digits there).  The jump is at most their sum plus the change of j
    # over one ulp of x, about ulp * envelope.
    x = np.array([edge, np.nextafter(edge, np.inf)])
    below, above = bessel_j(alpha, x)
    env = _prefactor(alpha, x[:1])[0] * np.sqrt(2.0 / (np.pi * edge))
    assert _envelope_error(alpha, x[1], above) <= 5e-14
    if edge == 12.0:
        below_bound = 4 * np.finfo(float).eps * float(mpmath.hyp0f1(alpha + 1, 36))
    else:
        assert _envelope_error(alpha, edge, below) <= 5e-14
        below_bound = 5e-14 * env
    assert abs(below - above) <= below_bound + (5e-14 + 2 * np.spacing(edge)) * env


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 3.5, 11.5, 0.0, 1.0, 2.0, 11.0])
def test_bessel_j_complex_real_like_matches_real(alpha):
    x = np.concatenate([np.linspace(-80.0, -12.5, 70), np.linspace(12.5, 80.0, 70),
                        [_J01_MAX, 2e3, 1e200]])
    want = bessel_j(alpha, x)
    for z in (x + 0j, x + 1e-15j * np.abs(x)):
        got = bessel_j(alpha, z)
        np.testing.assert_array_equal(got.real, want)
        assert np.all(got.imag == 0.0)


# The |z| <= 12 branch: the power series in Horner form.  Its rounding error
# is bounded by a small multiple of eps times the sum of |terms|, which is
# 0F1(alpha+1; |z|^2/4).
_SERIES_ORDERS = [-0.5, 0.0, 0.5, 1.0, 1.25, 2.0, 2.5, 5.5, 11.5, 20.0]


def _series_points():
    return np.concatenate([np.random.default_rng(20261020).uniform(0.0, 12.0, 300), [12.0]])


@pytest.mark.parametrize("alpha", _SERIES_ORDERS)
def test_series_kernel_against_mpmath(alpha):
    x = _series_points()
    got = _series_0f1(alpha, -0.25 * x**2)
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for xx, g in zip(x, got):
            w = mpmath.mpf(float(xx)) ** 2 / 4
            exact = mpmath.hyp0f1(alpha + 1, -w)
            assert abs(g - exact) <= 4 * eps * mpmath.hyp0f1(alpha + 1, w)


@pytest.mark.parametrize("alpha", _SERIES_ORDERS)
def test_series_kernel_growing_direction(alpha):
    x = _series_points()
    got = bessel_j_imag(alpha, x)
    with mpmath.workdps(40):
        for xx, g in zip(x, got):
            exact = mpmath.hyp0f1(alpha + 1, mpmath.mpf(float(xx)) ** 2 / 4)
            assert abs(g - exact) <= 2e-15 * exact


@pytest.mark.parametrize("alpha", _SERIES_ORDERS)
def test_series_complex_real_like_matches_real(alpha):
    x = np.concatenate([-_series_points(), _series_points()])
    got = bessel_j(alpha, x + 0j)
    np.testing.assert_array_equal(got.real, bessel_j(alpha, x))
    assert np.all(got.imag == 0.0)


def test_series_kernel_edge_cases():
    assert _series_0f1(1.0, np.array([])).shape == (0,)
    for empty in (np.array([]), np.array([], dtype=complex)):
        assert bessel_j(1.0, empty).shape == (0,)
    assert bessel_j_imag(1.0, np.array([])).shape == (0,)
    with pytest.raises(NumericalError):
        _series_0f1(0.0, np.array([-1e6]))


# sha256 (first 16 hex digits) of bessel_j's output (type, dtype, shape and
# bytes) on seeded arguments, one row per branch, recorded on the tree before
# bessel_j read its finiteness, branch and series degree off one max|z|;
# that change moved no bit
def _bessel_pin_cases():
    rng = np.random.default_rng(2026)
    cases = {
        "series 2.0 x256": (2.0, rng.uniform(0.0, 8.75, 256)),
        "series 0.0 x40": (0.0, rng.uniform(-12.0, 12.0, 40)),
        "series 3.7 x400": (3.7, rng.uniform(-12.0, 12.0, 400).reshape(20, 20)),
        "series 0.5 x256": (0.5, rng.uniform(0.0, 1.5, 256)),
        "half 2.5 x256": (2.5, rng.uniform(0.0, 8.75, 256)),
        "half 0.5 x256": (0.5, rng.uniform(0.0, 8.75, 256)),
        "half 1.5 x256": (1.5, rng.uniform(-8.75, 8.75, 256)),
        "half 11.5 x300": (11.5, rng.uniform(0.0, 60.0, 300)),
        "int 1 past 12": (1.0, rng.uniform(0.0, 200.0, 300)),
        "int 3 past 12 only": (3.0, rng.uniform(12.5, 900.0, 100)),
        "int 2 past 1e3": (2.0, rng.uniform(0.0, 5e4, 100)),
        "int 0 past 1e3 only": (0.0, rng.uniform(1.5e3, 1e6, 50)),
        "jv 1.3": (1.3, rng.uniform(-40.0, 40.0, 100)),
        "jv 14 int": (14.0, rng.uniform(0.0, 40.0, 100)),
    }
    x = rng.uniform(-30.0, 30.0, 60)
    cases.update({
        "complex real-like": (1.5, x + 0j),
        "complex imag-like": (2.0, 1j * x),
        "complex general": (0.7, np.array([10 + 10j, 3 - 4j, -20 + 1j, 0.5 + 0.5j, 1j, 13.0 + 0.1j])),
        "complex small": (1.0, rng.uniform(-5, 5, 30) + 1j * rng.uniform(-5, 5, 30)),
        "0-d series": (2.0, 3.3),
        "0-d half": (0.5, 20.0),
        "0-d int": (2.0, 5),
        "0-d bool": (1.0, True),
        "0-d complex": (1.5, 2.0 + 1.0j),
        "int array": (1.0, np.arange(-20, 21)),
        "bool array": (0.0, np.array([True, False])),
        "empty float": (1.0, np.array([])),
        "empty complex": (1.0, np.array([], dtype=complex)),
    })
    return cases


_BESSEL_PINS = {
    "series 2.0 x256": "4d2c6675c4c6d012",
    "series 0.0 x40": "72b1ede83d00d657",
    "series 3.7 x400": "f1b8194b5259cdeb",
    "series 0.5 x256": "c220c2d74eed412b",
    "half 2.5 x256": "d2e193437f3eac4c",
    "half 0.5 x256": "376dc7594a66a6f4",
    "half 1.5 x256": "aa5bcbfe8d2bddf7",
    "half 11.5 x300": "f5de1244b8b050a1",
    "int 1 past 12": "05311b23c11e4844",
    "int 3 past 12 only": "960ba84041710c4d",
    "int 2 past 1e3": "006ed24a01cc846c",
    "int 0 past 1e3 only": "c242827cdbbb3905",
    "jv 1.3": "9f0af864f672e5d9",
    "jv 14 int": "7ff6bc3b8a6a78ab",
    "complex real-like": "66836097a144370f",
    "complex imag-like": "22a04d5b71a71ad8",
    "complex general": "2bfd621dde9d6f53",
    "complex small": "8e402c632d155aea",
    "0-d series": "0f0c75e86276d9af",
    "0-d half": "e5c2b43bfbe9424b",
    "0-d int": "b01ce509550e2aca",
    "0-d bool": "38373578503f4b86",
    "0-d complex": "e69008fa88a6795d",
    "int array": "248f5561615ad15f",
    "bool array": "80a4aa450072f51b",
    "empty float": "c5d8df924835578a",
    "empty complex": "de68c4540ddd5329",
}
# digest of the library routines under bessel_j on seeded points, on the
# build the pins were recorded on
_BESSEL_PIN_BUILD = "23a480bfbc767ad1"


def _pin_digest(out) -> str:
    a = np.asarray(out)
    head = f"{type(out).__name__}|{a.dtype.str}|{a.shape}|".encode()
    return hashlib.sha256(head + np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def _library_digest() -> str:
    x = np.random.default_rng(5).uniform(0.1, 2e3, 64)
    return _pin_digest(np.concatenate([
        np.tan(x), np.exp(-x), np.log(x), gammaln(x), jv(1.3, x), j0(x), j1(x), ive(2.5, x)]))


@pytest.mark.parametrize("name", list(_BESSEL_PINS))
def test_bessel_j_outputs_are_pinned(name):
    if _library_digest() != _BESSEL_PIN_BUILD:
        pytest.skip("numpy or scipy routines have other bits than on the recording build")
    alpha, z = _bessel_pin_cases()[name]
    assert _pin_digest(bessel_j(alpha, z)) == _BESSEL_PINS[name]


# the same digests of bessel_j_imag, recorded on the tree before it read its
# finiteness, branch and series degree off one max|y|; that change moved no bit
def _bessel_imag_pin_cases():
    rng = np.random.default_rng(2027)
    return {
        "series only": (1.5, rng.uniform(-12.0, 12.0, 256)),
        "mixed": (0.5, rng.uniform(-40.0, 40.0, 200)),
        "past 12": (2.0, rng.uniform(12.5, 300.0, 100)),
        "0-d": (1.0, 7.5),
        "0-d past 12": (0.0, -30.0),
        "empty": (1.0, np.array([])),
        "overflow at 800": (0.5, np.array([1.0, 13.0, 700.0, 800.0, -800.0])),
    }


_BESSEL_IMAG_PINS = {
    "series only": "6b29884f983b8c10",
    "mixed": "ad3b305e4829647d",
    "past 12": "a2c6ddbf76652358",
    "0-d": "9bca6ad3e4e7ec09",
    "0-d past 12": "28855d8e7e66d2b1",
    "empty": "c5d8df924835578a",
    "overflow at 800": "3eccaa15532fe12d",
}


@pytest.mark.parametrize("name", list(_bessel_imag_pin_cases()))
def test_bessel_j_imag_outputs_are_pinned(name):
    if _library_digest() != _BESSEL_PIN_BUILD:
        pytest.skip("numpy or scipy routines have other bits than on the recording build")
    alpha, y = _bessel_imag_pin_cases()[name]
    assert _pin_digest(bessel_j_imag(alpha, y)) == _BESSEL_IMAG_PINS[name]


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, "a", None])
@pytest.mark.parametrize("arg", [1.0, 20.0])
@pytest.mark.parametrize("func", [bessel_j, bessel_j_imag])
def test_bessel_rejects_non_finite_order(func, alpha, arg):
    # a string or None order used to raise a bare TypeError
    with pytest.raises(ConfigError, match="order"):
        func(alpha, arg)


@pytest.mark.parametrize("arg", [
    np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(0.0, np.nan),
    complex(np.inf, 0.0), np.array([0.5, 20.0, np.nan]),
    # bessel_j reads finiteness off one max|z|: NaN first, last, beside the
    # elements past the series radius, and a 0-d NaN; -inf inside an array
    np.array([np.nan, 0.5, 1.0]), np.array([0.5, 1.0, np.nan]),
    np.array([20.0, np.nan, 30.0]), np.array([0.5, -np.inf]), np.array(np.nan),
    # not numbers: a bare TypeError before
    "x", None,
])
def test_bessel_j_rejects_non_finite_argument(arg):
    # a NaN used to reach mpmath's 0F1 (which returns 1) or come back as nan
    with pytest.raises(ConfigError, match="argument"):
        bessel_j(0.5, arg)


@pytest.mark.parametrize("arg", [np.nan, np.inf, -np.inf, np.array([1.0, np.nan]), "x"])
def test_bessel_j_imag_rejects_non_finite_argument(arg):
    with pytest.raises(ConfigError, match="argument"):
        bessel_j_imag(0.5, arg)


@pytest.mark.parametrize("n,lam,t", [
    (2, "a", 0.5), (2.5, 1.0, 0.5), (2, np.nan, 0.5), (2, np.inf, 0.5), (-1, 1.0, 0.5),
    (2, -0.5, 0.5), (True, 1.0, 0.5), (2, 1.0, "x"),
])
def test_gegenbauer_rejects_bad_degree_index_and_argument(n, lam, t):
    # these raised a bare TypeError or ValueError, or (NaN index) returned nan
    with pytest.raises(ConfigError):
        gegenbauer(n, lam, t)


@pytest.mark.parametrize("call", [
    lambda: riemann_liouville(np.cos, -0.5, 1.0), lambda: riemann_liouville(np.cos, np.nan, 1.0),
    lambda: riemann_liouville(np.cos, 0.5, "x"), lambda: radial_bessel_operator(0.5, np.cos, 0.0),
    lambda: radial_bessel_operator(0.5, np.cos, np.nan),
], ids=["rl-negative-order", "rl-nan-order", "rl-string-t", "operator-t0", "operator-nan-t"])
def test_fractional_mean_and_radial_operator_reject_bad_input(call):
    # numpy's or a bare ValueError before, and a NaN t gave a silent nan
    with pytest.raises(ConfigError):
        call()


def test_bessel_j_imag_overflows_quietly_only_past_the_float_range():
    # j_(1/2)(i y) = sinh(y) / y is finite up to y ~ 716, inf beyond
    got = bessel_j_imag(0.5, np.array([700.0, 712.0, 800.0, 2000.0]))
    np.testing.assert_allclose(got[:2], np.exp([700.0 - np.log(1400.0), 712.0 - np.log(1424.0)]),
                               rtol=1e-12)
    assert np.all(np.isinf(got[2:]))


# ---------------------------------------------------------------------------
# scaled modified Bessel functions: series, scipy ive, Hankel expansion

_SCALED_ORDERS = [-0.5, 0.0, 0.5, 1.5, 2.25, 7.5]
_SCALED_POINTS = np.array([0.0, 1e-3, 0.5, 5.0, 12.0, 12.5, 30.0, 700.0, 1e4,
                           1e8, 1.5e8, 1e9, 1e10, 1e12])


@pytest.mark.parametrize("alpha", _SCALED_ORDERS)
def test_scaled_bessel_imag_against_mpmath(alpha):
    got = _scaled_bessel_imag(alpha, _SCALED_POINTS)
    assert got[0] == 1.0
    with mpmath.workdps(40):
        for u, g in zip(_SCALED_POINTS[1:], got[1:]):
            uu = mpmath.mpf(float(u))
            exact = mpmath.gamma(alpha + 1) * (uu / 2) ** (-alpha) \
                * mpmath.besseli(alpha, uu) * mpmath.exp(-uu)
            assert abs(g - exact) <= 1e-13 * exact


@pytest.mark.parametrize("nu", _SCALED_ORDERS)
def test_bessel_ratio_against_mpmath(nu):
    got = _bessel_ratio(nu, _SCALED_POINTS)
    assert got[0] == 0.0
    with mpmath.workdps(40):
        for u, g in zip(_SCALED_POINTS[1:], got[1:]):
            uu = mpmath.mpf(float(u))
            exact = mpmath.besseli(nu + 1, uu) / mpmath.besseli(nu, uu)
            assert abs(g - exact) <= 1e-14 * exact


# both sides of each branch edge of the closed forms: the continued fraction
# below u = 1 at nu = 1/2, and the Hankel sums beyond _IVE_MAX
_CLOSED_FORM_EDGES = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                      _IVE_MAX, np.nextafter(_IVE_MAX, np.inf)]


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5])
def test_bessel_ratio_closed_forms_against_mpmath(nu):
    u = np.concatenate([np.logspace(-12.0, 12.0, 481), _CLOSED_FORM_EDGES])
    got = _bessel_ratio(nu, u)
    with mpmath.workdps(40):
        for uu, g in zip(u, got):
            uu = mpmath.mpf(float(uu))
            exact = mpmath.besseli(nu + 1, uu) / mpmath.besseli(nu, uu)
            assert abs(g - exact) <= 1e-14 * exact, float(uu)


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.5])
def test_bessel_ratio_is_zero_at_the_origin_without_the_fraction(monkeypatch, nu):
    # every sampler path starts at 0; u = 0 used to take the 30-pass fraction
    import dunklkit.special as special

    seen = []
    fraction = special._ratio_fraction
    monkeypatch.setattr(special, "_ratio_fraction",
                        lambda n, u: seen.append(u.copy()) or fraction(n, u))
    got = _bessel_ratio(nu, np.array([0.0, 0.5, 0.0, 3.0]))
    assert got[0] == 0.0 and got[2] == 0.0
    assert np.all(got[[1, 3]] > 0.0)
    assert all(np.all(u > 0.0) for u in seen)


@given(nu=st.floats(0.0, 20.0), u=st.floats(0.0, 1e12))
@example(nu=-0.5, u=1e-6)
@example(nu=-0.5, u=3.0)
@example(nu=-0.5, u=18.0)
@example(nu=0.0, u=1e-300)
@example(nu=0.0, u=700.0)
@example(nu=0.0, u=1e12)
@example(nu=0.5, u=1.0)
@example(nu=0.5, u=float(np.nextafter(1.0, 2.0)))
@example(nu=0.5, u=1e12)
@settings(max_examples=300, deadline=None)
def test_bessel_ratio_bounds(nu, u):
    # Amos, Math. Comp. 28 (1974):
    # u / (nu + 1/2 + sqrt(u^2 + (nu + 3/2)^2)) <= R_nu(u) <= u / (nu + 1/2 + sqrt(u^2 + (nu + 1/2)^2))
    # At tiny u scipy's ive loses about |nu log(u/2)| ulps to its power-law
    # factor (up to ~700), hence the relative slack of 1e-12.
    r = float(_bessel_ratio(nu, np.array([u]))[0])
    assert 0.0 <= r < 1.0
    lo = u / (nu + 0.5 + np.sqrt(u * u + (nu + 1.5) ** 2))
    hi = u / (nu + 0.5 + np.sqrt(u * u + (nu + 0.5) ** 2))
    assert lo * (1.0 - 1e-12) <= r <= hi * (1.0 + 1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 1.25, 12.5])
def test_bessel_j_other_orders_keep_scipy_route(alpha):
    # integer orders below 12 take the j0/j1 recurrence up to _J01_MAX only
    near = [] if float(alpha).is_integer() else np.linspace(12.5, 300.0, 40)
    x = np.concatenate([near, [np.nextafter(_J01_MAX, np.inf), 1e4, 1e8]])
    want = _prefactor(alpha, x) * jv(alpha, x)
    np.testing.assert_array_equal(bessel_j(alpha, x), want)
    np.testing.assert_array_equal(bessel_j(alpha, -x), want)


def test_bessel_envelope_bounds_the_function():
    lam = 1.5
    u = np.linspace(0.0, 60.0, 301)
    assert np.all(np.abs(bessel_j(lam, u)) <= bessel_j_envelope(lam, u) * (1 + 1e-12))


def test_bessel_eigenfunction_of_radial_operator():
    # (d^2/dt^2 + (2 alpha + 1)/t d/dt) j_alpha(z t) = -z^2 j_alpha(z t)
    for alpha, z, t in [(0.5, 2.0, 0.8), (1.5, 3.0, 1.3), (2.0, 1.0, 2.5)]:
        got = radial_bessel_operator(alpha, lambda tt: bessel_j(alpha, z * tt), t)
        want = -z * z * bessel_j(alpha, z * t)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("n,lam,t,expected", [
    (4, 1.5, 0.3, -0.0112375),
    (7, 0.5, -0.6, -0.3225984),
])
def test_gegenbauer_frozen(n, lam, t, expected):
    assert gegenbauer(n, lam, t) == pytest.approx(expected, rel=1e-13)


def test_gegenbauer_two_routes_agree():
    t = np.linspace(-1.0, 1.0, 41)
    for n in range(9):
        for lam in (0.0, 0.5, 1.5, 3.0):
            a = gegenbauer(n, lam, t)
            b = gegenbauer_hypergeometric(n, lam, t)
            assert np.allclose(a, b, rtol=0, atol=2e-11)


def test_gegenbauer_chebyshev_limit():
    t = np.linspace(-1.0, 1.0, 21)
    for n in (1, 3, 6):
        assert np.allclose(gegenbauer(n, 0.0, t), np.cos(n * np.arccos(t)), atol=1e-12)


def test_riemann_liouville_exact_polynomial():
    # alpha = 1/2 makes the prefactor 1, so R(s -> s^2)(2) = 4/3 exactly
    got = riemann_liouville(lambda s: s**2, 0.5, 2.0)
    assert got == pytest.approx(4.0 / 3.0, rel=1e-13)


def test_riemann_liouville_sends_cosine_to_bessel():
    z = 2.3
    t = np.array([0.5, 1.0, 2.0])
    got = riemann_liouville(lambda s: np.cos(z * s), 1.5, t)
    assert np.allclose(got, bessel_j(1.5, z * t), rtol=0, atol=1e-12)
