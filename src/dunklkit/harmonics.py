"""h-harmonics on the sphere S^(N-1) for the sign-change group Z_2^N.

A degree-n h-harmonic is a homogeneous polynomial killed by the Dunkl
Laplacian; its coefficients multiply the monomials of _exponents(N, n).
The Laplacian lowers each exponent a of a monomial by 2, axis by axis,
with one coefficient per axis,

    phi_k(a) = a (a - 1 + 2k)   (a even),
               (a - 1) (a + 2k) (a odd),

so harmonic spaces, Gram matrices (through exact sphere moments), and
reproducing kernels are all available without any quadrature error.
The sphere quadrature folds the weight's endpoint powers into one
Gauss-Jacobi rule per stick-breaking level of the law of y^2.

The module also carries the scalar expansion identities in the radial
index lam (Gegenbauer addition theorem, plane-wave expansion), which the
verification suite replays as convergence checks.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache

import numpy as np
from scipy.linalg import null_space
from scipy.special import betaln, gammaln

from .core import _as_kv, _coords, dunkl_kernel_unitary, group_elements, intertwiner_atoms
from .errors import ConfigError, ConsistencyError, _floats, _node_count
from .quadrature import _orthant_rule
from .special import bessel_j, gegenbauer
from .transform import radial_translate

__all__ = [
    "SphereQuadrature",
    "sphere_moment",
    "laplacian_coefficient",
    "apply_laplacian",
    "harmonic_basis",
    "eval_homogeneous",
    "reproducing_kernel",
    "kernel_series",
    "funk_hecke_pair",
    "orbit_integral",
    "addition_theorem_residual",
    "plane_wave_residual",
]

_MAX_ENTRIES = 2**23  # of a sphere rule's points, or of a degree's monomial pairs


class SphereQuadrature:
    """Quadrature for integral_{S^(N-1)} F(y) w_k(y) dsigma(y).

    In v = y^2 each of the 2^N sign orthants carries 2^(gamma-(N-1)) times
    the law prod_i v_i^(k_i-1/2) dv that quadrature._orthant_rule integrates;
    n nodes per level are exact for polynomials in y of degree up to 4n - 2,
    for every k >= 0.  At N = 2 that is one Gauss-Jacobi rule in
    u = cos^2(theta) per quadrant, at N = 1 the two signed points.
    """

    def __init__(self, kv, n: int = 64):
        self.kv = kv = _as_kv(kv)
        n, dim = _node_count(n, "n"), kv.n_axes
        if n ** (dim - 1) * 2**dim * dim > _MAX_ENTRIES:
            raise ConfigError(f"a sphere rule of {n} nodes per level at N = {dim} is too large")
        dirs, w = _orthant_rule(n, kv.k)
        self.points = (group_elements(dim)[:, None, :] * dirs).reshape(-1, dim)
        self.weights = np.tile(2.0 ** (kv.gamma - (dim - 1)) * w, 2**dim)

    @property
    def mass(self) -> float:
        """Total weight; equals the sphere mass d_norm of the multiplicity."""
        return float(np.sum(self.weights))

    def integrate(self, f):
        return np.tensordot(self.weights, np.asarray(f(self.points)), axes=([0], [0]))

    def integrate_values(self, values):
        return np.tensordot(self.weights, np.asarray(values), axes=([0], [0]))


def sphere_moment(kv, p) -> float:
    """Exact even moment integral_{S^(N-1)} prod_i y_i^(2 p_i) w_k dsigma:
    2^(gamma+1) prod_j B(a_j, sum_{i>j} a_i) with a_i = p_i + k_i + 1/2."""
    kv = _as_kv(kv)
    p = list(p) if np.iterable(p) else []
    if len(p) != kv.n_axes:
        raise ConfigError(f"sphere_moment needs {kv.n_axes} exponents, got {p!r}")
    a = [_node_count(pi, "moment exponent", least=0) + ki + 0.5 for pi, ki in zip(p, kv.k)]
    return float(2.0 ** (kv.gamma + 1.0)
                 * np.exp(sum(betaln(a[j], sum(a[j + 1:])) for j in range(len(a) - 1))))


@lru_cache(maxsize=None)
def _exponents(dim: int, n: int) -> np.ndarray:
    """Exponent rows of the degree-n monomials in dim variables, ascending (row a
    is x^a y^(n-a) at dim = 2); read-only, empty for n < 0."""
    if n >= 0 and math.comb(n + dim - 1, n) ** 2 * dim > _MAX_ENTRIES:
        raise ConfigError(f"degree {n} in {dim} variables has too many monomials")
    rows = [(n,)] if n >= 0 else []
    if dim > 1:
        rows = [(a, *rest) for a in range(n + 1) for rest in _exponents(dim - 1, n - a)]
    table = np.array(rows, dtype=int).reshape(-1, dim)
    table.flags.writeable = False
    return table


def _polynomial(kv, coeffs) -> tuple[np.ndarray, int]:
    """coeffs as a float vector, and the one degree with coeffs.size monomials;
    ConfigError where there is none (at N = 1 every degree has one monomial)."""
    coeffs = _floats(coeffs, "coeffs")
    rows = lambda n: math.comb(n + kv.n_axes - 1, n)
    n = bisect.bisect_left(range(coeffs.size + 1), coeffs.size, key=rows)
    if coeffs.ndim != 1 or rows(n) != coeffs.size or rows(n + 1) == coeffs.size:
        raise ConfigError(f"{coeffs.size} coefficients fix no degree in {kv.n_axes} variables")
    return coeffs, n


def laplacian_coefficient(k: float, a: int) -> float:
    """One-axis action: T^2 maps x^a to this multiple of x^(a-2)."""
    if a % 2 == 0:
        return a * (a - 1.0 + 2.0 * k)
    return (a - 1.0) * (a + 2.0 * k)


def apply_laplacian(kv, coeffs: np.ndarray) -> np.ndarray:
    """Dunkl Laplacian on a homogeneous polynomial of degree n, whose coeffs
    multiply the monomials of _exponents(N, n): the coefficient vector of the
    degree n-2 polynomial, each exponent e_i >= 2 lowered by 2 with
    laplacian_coefficient(k_i, e_i)."""
    kv = _as_kv(kv)
    coeffs, n = _polynomial(kv, coeffs)
    exps, powers = _exponents(kv.n_axes, n), max(n - 1, 1) ** np.arange(kv.n_axes)[::-1]
    keys = _exponents(kv.n_axes, n - 2) @ powers  # ascending, as the rows are
    out = np.zeros(keys.size)
    for r in np.flatnonzero(coeffs):
        for i in np.flatnonzero(exps[r] >= 2):
            out[np.searchsorted(keys, exps[r] @ powers - 2 * powers[i])] += (
                laplacian_coefficient(kv.k[i], exps[r, i]) * coeffs[r])
    return out


def _gram(kv, n: int, basis: np.ndarray) -> np.ndarray:
    """Gram matrix B^T M B / d_norm of degree-n coefficient vectors (the columns
    of B) in L^2(w_k dsigma / d_norm); M holds the sphere moments of the
    monomial pairs, 0 where an exponent sum is odd."""
    exps = _exponents(kv.n_axes, n)
    pair = exps[:, None, :] + exps[None, :, :]
    even = (pair % 2 == 0).all(axis=-1)
    halves, at = np.unique(pair[even] // 2, axis=0, return_inverse=True)
    m = np.zeros(even.shape)
    m[even] = np.array([sphere_moment(kv, p) for p in halves])[at.ravel()]
    return basis.T @ m @ basis / kv.d_norm


def harmonic_basis(kv, n: int) -> list[np.ndarray]:
    """Orthonormal basis of the degree-n h-harmonics, as coefficient vectors.

    Orthonormal in L^2(w_k dsigma / d_norm) on S^(N-1); its size is the number
    of degree-n monomials less that of degree n - 2.  Memoized per (k, n);
    callers must not mutate the returned vectors.
    """
    return _build_basis(_as_kv(kv), _node_count(n, "degree", least=0))


@lru_cache(maxsize=None)
def _build_basis(kv, n: int) -> list[np.ndarray]:
    size = len(_exponents(kv.n_axes, n))
    dim = size - len(_exponents(kv.n_axes, n - 2))
    if dim == 0:
        return []
    raw = np.eye(size)
    if n >= 2:
        raw = null_space(np.stack([apply_laplacian(kv, e) for e in raw], axis=-1))
    if raw.shape[1] != dim:
        raise ConsistencyError(
            f"harmonic space of degree {n} came out {raw.shape[1]}-dimensional, not {dim}")
    vals, vecs = np.linalg.eigh(_gram(kv, n, raw))
    if np.min(vals) <= 0:
        raise ConsistencyError("harmonic Gram matrix is not positive definite")
    ortho = raw @ vecs @ np.diag(vals**-0.5)
    return [ortho[:, j] for j in range(ortho.shape[1])]


def eval_homogeneous(kv, coeffs: np.ndarray, pts) -> np.ndarray:
    """Evaluate sum_r coeffs[r] prod_i x_i^e_ri at points (..., N), the rows
    e_r of _exponents(N, n), one monomial at a time."""
    kv = _as_kv(kv)
    coeffs, n = _polynomial(kv, coeffs)
    pts = _coords(kv, "pts", pts)
    out = np.zeros(pts.shape[:-1])
    for c, e in zip(coeffs, _exponents(kv.n_axes, n)):
        if c != 0.0:  # one power per axis: a scalar exponent takes numpy's fast paths
            term = c
            for i, ei in enumerate(e):
                term = term * pts[..., i] ** ei
            out = out + term
    return out


def _gegenbauer_constant(lam: float, n: int) -> float:
    """(n + lam) (2 lam)_n / (lam n!), with the lam -> 0 limit filled in."""
    if lam == 0.0:
        return 1.0 if n == 0 else 2.0
    return float((n + lam) / lam * np.exp(gammaln(2.0 * lam + n) - gammaln(2.0 * lam)
                                          - gammaln(n + 1.0)))


def _series_weight(lam: float, n: int) -> float:
    """b_n = Gamma(lam+1) / (2^n Gamma(n+lam+1)) = 1 / (2^n (lam+1)_n)."""
    return float(np.exp(gammaln(lam + 1.0) - n * np.log(2.0) - gammaln(n + lam + 1.0)))


def reproducing_kernel(kv, n: int, x, y):
    """Reproducing kernel P_n(x, y) of the degree-n harmonics: the sum of
    Y_j(x) Y_j(y) over the orthonormal basis (exact up to null-space
    rounding), from the monomials of x and y at once.  The addition-theorems
    suite checks it against the intertwined Gegenbauer form
    (_reproducing_kernel_gegenbauer).
    """
    kv = _as_kv(kv)
    basis, exps = harmonic_basis(kv, n), _exponents(kv.n_axes, n)
    coeffs = np.reshape(basis, (len(basis), len(exps)))
    values = lambda p: np.prod(p[..., None, :] ** exps, axis=-1) @ coeffs.T
    return np.sum(values(_coords(kv, "x", x)) * values(_coords(kv, "y", y)), axis=-1)


def _reproducing_kernel_gegenbauer(kv, n: int, x, y) -> float:
    """P_n(x, y) for one pair of points through the intertwiner:
    c_n (|x||y|)^n V_k[C~_n(<x/|x|, .>)](y/|y|) (Dunkl and Xu, Orthogonal
    Polynomials of Several Variables, 2001), sharing no code with the basis."""
    rx, ry = math.hypot(*x), math.hypot(*y)
    if n == 0:
        return 1.0
    if rx == 0.0 or ry == 0.0:
        return 0.0
    lam = kv.lam
    pts, masses = intertwiner_atoms(kv, y / ry)
    v_geg = float(np.sum(masses * gegenbauer(n, lam, pts @ (x / rx))))
    return _gegenbauer_constant(lam, n) * (rx * ry) ** n * v_geg


def kernel_series(kv, x, y, n_max: int = 20) -> complex:
    """Harmonic expansion of the unitary kernel:

        E_k(ix, y) = sum_n b_n i^n j_{n+lam}(|x||y|) P_n(x, y),

    truncated at n_max.  Converges super-exponentially once
    n > e |x||y| / 2.
    """
    kv = _as_kv(kv)
    x, y = _coords(kv, "x", x, point=True), _coords(kv, "y", y, point=True)
    rx, ry = math.hypot(*x), math.hypot(*y)
    lam = kv.lam
    total = 0.0 + 0.0j
    for n in range(_node_count(n_max, "n_max", least=0) + 1):
        total += (_series_weight(lam, n) * (1j**n)
                  * bessel_j(n + lam, rx * ry) * reproducing_kernel(kv, n, x, y))
    return total


def funk_hecke_pair(kv, coeffs: np.ndarray, x):
    """Both sides of the Funk-Hecke identity for a degree-n harmonic Y:

        (1/d) int E_k(ix, eta) Y(eta) w_k dsigma(eta)
            = b_n i^n j_{n+lam}(|x|) Y(x).

    Returns (lhs, rhs), the left side on the 96-node SphereQuadrature; their
    difference measures quadrature plus kernel evaluation error only, the
    identity itself is exact.
    """
    kv = _as_kv(kv)
    coeffs, n = _polynomial(kv, coeffs)
    x = _coords(kv, "x", x, point=True)
    rule = SphereQuadrature(kv, n=96)
    vals = dunkl_kernel_unitary(kv, x, rule.points) * eval_homogeneous(kv, coeffs, rule.points)
    lhs = rule.integrate_values(vals) / kv.d_norm
    rhs = (_series_weight(kv.lam, n) * (1j**n)
           * bessel_j(n + kv.lam, math.hypot(*x)) * eval_homogeneous(kv, coeffs, x))
    return complex(lhs), complex(rhs)


def orbit_integral(kv, x, z, r: float) -> float:
    """Two-kernel spherical average

        I(x, z, r) = (1/d) int_{S^(N-1)} E_k(ix, r eta) E_k(-iz, r eta) w_k dsigma(eta),

    evaluated through the intertwined radial form

        I(x, z, r) = int j_lam( r sqrt(|x|^2 + |z|^2 - 2 <x, eta>) ) dmu_z(eta),

    which is the generalized translation radial_translate of the profile
    s -> j_lam(r s) from z to x: one Bessel profile over the intertwining
    measure of z, 64 atoms per axis, instead of two oscillating kernels.
    The direct sphere quadrature of the first form shares no code with it
    and is computed by the verification suite's orbit-integral cases.  The
    value is real and symmetric in x <-> z; x = 0 or z = 0 degenerates to
    the plain radialization j_lam(r |z|) resp. j_lam(r |x|).
    """
    kv = _as_kv(kv)
    return float(radial_translate(kv, lambda s: bessel_j(kv.lam, r * s), z, x, n_per_axis=64))


def addition_theorem_residual(lam: float, s: float, t: float, costheta,
                              n_max: int = 40) -> float:
    """Truncation residual of the Gegenbauer addition theorem

        j_lam(sqrt(s^2 + t^2 - 2 s t c)) =
            sum_n c_n(lam) b_n^2 (s t)^n j_{n+lam}(s) j_{n+lam}(t) C~_n(c).
    """
    c = np.asarray(costheta, dtype=float)
    arg = np.sqrt(np.maximum(s * s + t * t - 2.0 * s * t * c, 0.0))
    lhs = bessel_j(lam, arg)
    rhs = np.zeros_like(c)
    for n in range(n_max + 1):
        rhs = rhs + (_gegenbauer_constant(lam, n) * _series_weight(lam, n) ** 2
                     * (s * t) ** n * bessel_j(n + lam, s) * bessel_j(n + lam, t)
                     * gegenbauer(n, lam, c))
    return float(np.max(np.abs(lhs - rhs)))


def plane_wave_residual(lam: float, r: float, tgrid, n_max: int = 40) -> float:
    """Truncation residual of the Gegenbauer plane-wave expansion

        e^(i r t) = sum_n (i r / 2)^n [(2 lam)_n / ((lam)_n n!)]
                    j_{n+lam}(r) C~_n(t),   t in [-1, 1].
    """
    t = np.asarray(tgrid, dtype=float)
    lhs = np.exp(1j * r * t)
    rhs = np.zeros_like(t, dtype=complex)
    for n in range(n_max + 1):
        if lam == 0.0:
            coef = 1.0 if n == 0 else 2.0 / float(np.exp(gammaln(n + 1.0)))
        else:
            coef = float(np.exp(gammaln(2.0 * lam + n) - gammaln(2.0 * lam)
                                - gammaln(lam + n) + gammaln(lam) - gammaln(n + 1.0)))
        rhs = rhs + (0.5j * r) ** n * coef * bessel_j(n + lam, r) * gegenbauer(n, lam, t)
    return float(np.max(np.abs(lhs - rhs)))
