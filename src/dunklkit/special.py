"""Normalized Bessel functions, Gegenbauer polynomials, and the
Riemann-Liouville fractional mean.

The normalized Bessel function used everywhere in this package is

    j_alpha(z) = Gamma(alpha+1) * sum_{n>=0} (-1)^n (z/2)^{2n} / (n! Gamma(n+alpha+1)),

i.e. the hypergeometric 0F1(; alpha+1; -z^2/4), normalized so that
j_alpha(0) = 1.  It is even and entire, and for half-integer orders it
collapses to trigonometric closed forms (j_{-1/2} = cos, j_{1/2} = sinc).

bessel_j dispatches on |z| and the order: the power series, summed in
Horner form with its degree fixed up front, for |z| <= 12; on the real axis
beyond, for alpha < 12, one upward recurrence (DLMF 10.6.1) started from the
trig closed forms at half-integer alpha (already beyond alpha + 1, DLMF
10.49) and from scipy's j0/j1 at integer alpha up to |z| = 1e3; otherwise
scipy's jv (real z), e^|z| times the scaled e^(-u) j_alpha(iu) (imaginary
z), and mpmath's 0F1 for general complex z.  The scaled value and the ratio
I_(nu+1)(u) / I_nu(u), which the heat kernel and the sampler use, come
from scipy's ive up to u = 1e8 and from the Hankel expansion beyond.
"""

from __future__ import annotations

import cmath

import numpy as np
from scipy.special import gammaln, ive, j0, j1, jv

from .errors import NumericalError
from .quadrature import gauss_jacobi

__all__ = [
    "bessel_j",
    "bessel_j_envelope",
    "gegenbauer",
    "gegenbauer_hypergeometric",
    "riemann_liouville",
    "radial_bessel_operator",
]

# Power series is used below this |z|; beyond it the series loses digits to
# cancellation and we switch to the half-integer recurrence or scipy's Bessel
# backends.  Half-integer orders below it take the recurrence, on the real
# axis already beyond alpha + 1.
_SERIES_RADIUS = 12.0
_SERIES_MAX_TERMS = 220
# scipy's ive is exact up to u ~ 1e9 and NaN from ~1e10 on; it never sees
# more than this, and the Hankel expansion takes over beyond.
_IVE_MAX = 1e8
# Integer orders take the j0/j1-started recurrence up to here only: Cephes
# j0/j1 lose phase as x grows (bessel_j Notes), jv does not.
_J01_MAX = 1e3


def _series_0f1(alpha: float, w: np.ndarray) -> np.ndarray:
    """sum_n w^n / (n! (alpha+1)_n), summed in Horner form.

    The degree is fixed before the array pass, on the element of largest |w|
    (every |term| is largest there): the terms are added up to the first
    one with |term| <= 1e-17 max(1, |partial sum|).  The array pass is then
    two in-place ufuncs per coefficient, out = out * w + c_m.
    """
    if w.size == 0:
        return np.ones_like(w)
    w_top = w.flat[np.argmax(np.abs(w))].item()
    coefs = [1.0]
    term = total = 1.0
    for n in range(1, _SERIES_MAX_TERMS + 1):
        coefs.append(coefs[-1] / (n * (n + alpha)))
        term *= w_top / (n * (n + alpha))
        total += term
        if abs(term) <= 1e-17 * max(1.0, abs(total)) and cmath.isfinite(total):
            break
    else:
        raise NumericalError("Bessel series did not converge; argument too large for series branch")
    out = np.full_like(w, coefs[-1])
    for c in reversed(coefs[:-1]):
        out *= w
        out += c
    return out


def _prefactor(alpha: float, x: np.ndarray) -> np.ndarray:
    """Gamma(alpha+1) (x/2)^(-alpha) computed in log space, x > 0."""
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(gammaln(alpha + 1.0) - alpha * np.log(0.5 * x))


def _bessel_large_real(alpha: float, x: np.ndarray) -> np.ndarray:
    """j_alpha(x) beyond the series radius: the upward recurrence (see
    bessel_j) where it is used, dividing by x twice so x^2 cannot overflow,
    and jv for every other element."""
    x = np.abs(x)
    half = float(alpha + 0.5).is_integer()
    steps = alpha < _SERIES_RADIUS and (half or float(alpha).is_integer())
    near = (x <= (np.inf if half else _J01_MAX)) & steps
    out = np.empty_like(x)
    if not near.all():
        far = ~near
        out[far] = _prefactor(alpha, x[far]) * jv(alpha, x[far])
        x = x[near]
    if x.size:
        prev = np.cos(x) if half else j0(x)
        cur = prev if alpha < 0.5 else np.sin(x) / x if half else 2.0 * j1(x) / x
        nu = 0.5 if half else 1.0
        while nu < alpha:
            prev, cur = cur, (4.0 * nu * (nu + 1.0) / x) / x * (cur - prev)
            nu += 1.0
        if near.all():
            return cur
        out[near] = cur
    return out


def _bessel_large_imag(alpha: float, y: np.ndarray) -> np.ndarray:
    # j_alpha(i y) = e^|y| (e^(-|y|) j_alpha(i |y|)), e^|y| in two halves so
    # that only a result beyond the float range overflows
    with np.errstate(over="ignore"):
        half = np.exp(0.5 * np.abs(y))
        return half * _scaled_bessel_imag(alpha, np.abs(y)) * half


def _bessel_large_generic(alpha: float, z: np.ndarray) -> np.ndarray:
    import mpmath

    flat = z.ravel()
    out = np.empty(flat.shape, dtype=complex)
    for i, zz in enumerate(flat):
        w = -(mpmath.mpc(zz) / 2) ** 2
        out[i] = complex(mpmath.hyp0f1(alpha + 1.0, w))
    return out.reshape(z.shape)


def _hankel_sum(nu: float, u: np.ndarray) -> np.ndarray:
    """sqrt(2 pi u) e^(-u) I_nu(u) for u > _IVE_MAX: the Hankel expansion
    sum_m (-1)^m a_m(nu) u^(-m) (DLMF 10.40.1) to terms below 1e-17, fine
    while nu^2 is small against u (orders up to about 10^3)."""
    mu = 4.0 * nu * nu
    term = total = np.ones_like(u)
    for m in range(1, 40):
        term = term * ((2.0 * m - 1.0) ** 2 - mu) / (8.0 * m * u)
        total = total + term
        if np.max(np.abs(term)) <= 1e-17:
            break
    return total


def _scaled_bessel_imag(alpha: float, u: np.ndarray) -> np.ndarray:
    """e^(-u) j_alpha(iu) for u >= 0, finite for every u: the positive-term
    series up to 12, Gamma(alpha+1) (u/2)^(-alpha) ive(alpha, u) up to
    _IVE_MAX, the Hankel expansion beyond."""
    out = np.empty(u.shape)
    small, far = u <= _SERIES_RADIUS, u > _IVE_MAX
    mid = ~(small | far)
    if small.any():
        out[small] = np.exp(-u[small]) * _series_0f1(alpha, 0.25 * u[small] ** 2)
    if mid.any():
        out[mid] = _prefactor(alpha, u[mid]) * ive(alpha, u[mid])
    if far.any():
        uf = u[far]
        out[far] = _prefactor(alpha, uf) / np.sqrt(2.0 * np.pi * uf) * _hankel_sum(alpha, uf)
    return out


def _bessel_ratio(nu: float, u: np.ndarray) -> np.ndarray:
    """R_nu(u) = I_(nu+1)(u) / I_nu(u) for u >= 0, in [0, 1) for nu > -1/2.

    ive(nu+1, u) / ive(nu, u) on u clamped at _IVE_MAX, the ratio of Hankel
    sums beyond; where ive(nu+1, u) underflows, the backward continued
    fraction R_(nu-1) = u / (2 nu + u R_nu) (DLMF 10.29.1) from R_(nu+30) = 0.
    """
    near = np.minimum(u, _IVE_MAX)
    num = ive(nu + 1.0, near)
    den = ive(nu, near)
    out = np.where(u > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    low = (num <= 1e-290) & (u > 0.0)
    if low.any():
        ul, r = u[low], 0.0
        for j in range(30, 0, -1):
            r = ul / (2.0 * (nu + j) + ul * r)
        out[low] = r
    far = u > _IVE_MAX
    if far.any():
        out[far] = _hankel_sum(nu + 1.0, u[far]) / _hankel_sum(nu, u[far])
    return out


def bessel_j(alpha: float, z):
    """Normalized Bessel function j_alpha(z), vectorized over z.

    Parameters
    ----------
    alpha : float
        Order, finite with alpha >= -1/2.
    z : scalar or array, real or complex
        Argument, finite (ValueError otherwise).  j_alpha is even in z.

    Returns
    -------
    Same shape as z; real for real input, complex for complex input.

    Notes
    -----
    |z| <= 12 uses the defining power series in Horner form.  Its degree
    is fixed before the array pass, on the largest |z|, by term-ratio
    stopping at 1e-17.  Horner's rounding error is bounded by a multiple of
    eps * 0F1(alpha+1; |z|^2/4), the sum of |terms| (Higham, Accuracy and
    Stability of Numerical Algorithms, 5.1); against mpmath it measured
    below 0.4 of that.  Beyond 12 the series loses too many digits to
    cancellation.
    On the real axis (real-like complex z too), orders alpha < 12 that are
    half-integers, at |z| > min(12, alpha + 1), or integers, at
    12 < |z| <= 1e3, step up with j_{nu+1} = 4 nu (nu+1) / z^2 (j_nu - j_{nu-1}),
    stable since |z| > alpha, from j_{-1/2} = cos z, j_{1/2} = sin z / z or
    from j_0 = J_0(z), j_1 = 2 J_1(z) / z (scipy j0/j1).  Against the decay
    envelope Gamma(alpha+1) (|z|/2)^(-alpha) sqrt(2/(pi |z|)) the error is a
    few 1e-16 at half-integers (about 2e-15 next to the edge) and at most
    3.1e-14 at integers: Cephes j0/j1 lose phase as |z| grows (7.6e-14 at
    2e3, 2.5e-13 at 1e4), so beyond 1e3 integer orders keep jv (below 1e-14).
    Other orders go through scipy's J/I Bessel routines (real and purely
    imaginary z) or an arbitrary-precision 0F1 fallback for general complex z.
    """
    if not -0.5 <= alpha < np.inf:
        raise ValueError(f"order must be finite with alpha >= -1/2, got {alpha}")
    z_arr = np.asarray(z)
    if not np.isfinite(z_arr).all():
        raise ValueError("argument must be finite")
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)

    # Half-integer orders leave the series for the recurrence once it is
    # stable, at |z| > alpha + 1, where the series still cancels digits.
    radius = _SERIES_RADIUS
    if float(alpha + 0.5).is_integer():
        radius = min(radius, alpha + 1.0)

    if np.iscomplexobj(z_arr):
        out = np.empty(z_arr.shape, dtype=complex)
        absz = np.abs(z_arr)
        real_like = np.abs(z_arr.imag) <= 1e-13 * absz
        imag_like = np.abs(z_arr.real) <= 1e-13 * absz
        small = absz <= np.where(real_like, radius, _SERIES_RADIUS)
        big = ~small
        if np.any(small):
            out[small] = _series_0f1(alpha, -0.25 * z_arr[small] ** 2)
        if np.any(big):
            zb = z_arr[big]
            real_like = real_like[big]
            imag_like = imag_like[big]
            res = np.empty(zb.shape, dtype=complex)
            if np.any(real_like):
                res[real_like] = _bessel_large_real(alpha, zb[real_like].real)
            if np.any(imag_like):
                res[imag_like] = _bessel_large_imag(alpha, zb[imag_like].imag)
            rest = ~(real_like | imag_like)
            if np.any(rest):
                res[rest] = _bessel_large_generic(alpha, zb[rest])
            out[big] = res
    else:
        z_arr = z_arr.astype(float, copy=False)
        out = np.empty(z_arr.shape, dtype=float)
        small = np.abs(z_arr) <= radius
        if np.any(small):
            out[small] = _series_0f1(alpha, -0.25 * z_arr[small] ** 2)
        if np.any(~small):
            out[~small] = _bessel_large_real(alpha, z_arr[~small])

    return out[0] if scalar else out


def bessel_j_imag(alpha: float, y):
    """j_alpha(i y) for real y, returned real: equals 0F1(; alpha+1; y^2/4).

    This is the growing direction (I-Bessel), where the series has
    positive terms and loses nothing to cancellation; large arguments go
    through the scaled modified Bessel backend.  Overflows to inf beyond
    y ~ 1400 like cosh does.
    """
    if not -0.5 <= alpha < np.inf:
        raise ValueError(f"order must be finite with alpha >= -1/2, got {alpha}")
    y_arr = np.asarray(y, dtype=float)
    if not np.isfinite(y_arr).all():
        raise ValueError("argument must be finite")
    scalar = y_arr.ndim == 0
    y_arr = np.atleast_1d(y_arr)
    out = np.empty(y_arr.shape, dtype=float)
    small = np.abs(y_arr) <= _SERIES_RADIUS
    if np.any(small):
        out[small] = _series_0f1(alpha, 0.25 * y_arr[small] ** 2)
    if np.any(~small):
        out[~small] = _bessel_large_imag(alpha, y_arr[~small])
    return out[0] if scalar else out


def bessel_j_envelope(lam: float, u) -> np.ndarray:
    """Conservative decay envelope for |j_lam| on the real axis.

    Returns min(1, C (u/2)^(-lam) u^(-1/2)) with a safety factor, valid as
    an upper bound once u is past the oscillatory onset.  Used only to
    pick truncation radii for heavy-tailed radial measures; never as a
    substitute for evaluating j itself.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        amp = 1.3 * np.sqrt(2.0 / np.pi) * np.exp(
            gammaln(lam + 1.0) - lam * np.log(np.maximum(u, 1e-300) / 2.0)
        ) * np.maximum(u, 1e-300) ** (-0.5)
    return np.minimum(1.0, np.where(u > max(8.0, 2.0 * lam * lam), amp, 1.0))


def gegenbauer(n: int, lam: float, t):
    """Gegenbauer polynomial renormalized to 1 at t = 1, degree n, index lam >= 0.

    Evaluated by the three-term recurrence

        p_m(t) = [2 (m + lam - 1) t p_{m-1}(t) - (m - 1) p_{m-2}(t)] / (m + 2 lam - 1),

    started from p_0 = 1, p_1 = t.  At lam = 0 this is exactly the
    Chebyshev recurrence, which realizes the standard renormalized limit.
    """
    if lam < 0:
        raise ValueError(f"index must satisfy lam >= 0, got {lam}")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    t = np.asarray(t, dtype=float)
    if n == 0:
        return np.ones_like(t)[()]
    prev = np.ones_like(t)
    cur = t.copy()
    for m in range(2, n + 1):
        prev, cur = cur, (2.0 * (m + lam - 1.0) * t * cur - (m - 1.0) * prev) / (m + 2.0 * lam - 1.0)
    return cur[()] if cur.ndim == 0 else cur


def gegenbauer_hypergeometric(n: int, lam: float, t):
    """Same polynomial via the terminating 2F1 sum; recurrence cross-check."""
    t = np.asarray(t, dtype=float)
    x = 0.5 * (1.0 - t)
    total = np.ones_like(x)
    term = np.ones_like(x)
    for j in range(n):
        term = term * ((j - n) * (j + n + 2.0 * lam)) / ((j + lam + 0.5) * (j + 1.0)) * x
        total = total + term
    return total[()] if total.ndim == 0 else total


def riemann_liouville(f, alpha: float, t, n: int = 200):
    """Riemann-Liouville type mean of order alpha >= 0,

        R_alpha f(t) = (2 Gamma(alpha+1) / (sqrt(pi) Gamma(alpha+1/2)))
                       * integral_0^1 f(s t) (1 - s^2)^(alpha - 1/2) ds.

    R_alpha intertwines the radial Bessel operator with d^2/dt^2 and sends
    cos(z .) to j_alpha(z .).  The endpoint singularity at s = 1 is handled
    by a Gauss-Jacobi rule, so f only ever sees smooth quadrature.

    t may be a scalar or a 1d array.
    """
    if alpha < 0:
        raise ValueError(f"order must satisfy alpha >= 0, got {alpha}")
    rule = gauss_jacobi(n, alpha - 0.5, 0.0, 0.0, 1.0)
    s = rule.nodes
    smooth = rule.weights * (1.0 + s) ** (alpha - 0.5)
    pref = 2.0 * np.exp(gammaln(alpha + 1.0) - gammaln(alpha + 0.5)) / np.sqrt(np.pi)
    t_arr = np.asarray(t, dtype=float)
    vals = f(np.multiply.outer(s, t_arr))
    out = pref * np.tensordot(smooth, vals, axes=([0], [0]))
    return out[()] if np.ndim(t) == 0 else out


def radial_bessel_operator(alpha: float, u, t: float, h: float = 1e-4) -> float:
    """Finite-difference Bessel operator u'' + (2 alpha + 1) u'/t at t > 0.

    Second-order central differences; used in eigenfunction and wave
    equation residual tests.
    """
    if t <= 0:
        raise ValueError("the radial operator needs t > 0")
    upp = (u(t + h) - 2.0 * u(t) + u(t - h)) / h**2
    up = (u(t + h) - u(t - h)) / (2.0 * h)
    return upp + (2.0 * alpha + 1.0) / t * up
