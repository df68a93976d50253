"""h-harmonics on the circle for the group Z_2 x Z_2 (N = 2).

A degree-n h-harmonic is a homogeneous polynomial killed by the Dunkl
Laplacian; for the sign-change group the Laplacian acts on monomials
x^a y^b through one coefficient per axis,

    phi_k(a) = a (a - 1 + 2k)   (a even),
               (a - 1) (a + 2k) (a odd),

so harmonic spaces, Gram matrices (through exact sphere moments), and
reproducing kernels are all available without any quadrature error.
The sphere quadrature itself folds the weight's endpoint powers into a
per-quadrant Gauss-Jacobi rule and integrates trigonometric moments of
w_k exactly.

The module also carries the scalar expansion identities in the radial
index lam (Gegenbauer addition theorem, plane-wave expansion), which the
verification suite replays as convergence checks.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import null_space
from scipy.special import betaln, gammaln

from .core import MultiplicityVector, _as_kv, _coords, dunkl_kernel_unitary, intertwiner_atoms
from .errors import ConfigError, ConsistencyError, _node_count
from .quadrature import _quadrant_rule
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


def _require_planar(kv) -> MultiplicityVector:
    kv = _as_kv(kv)
    if kv.n_axes != 2:
        raise ConfigError("harmonic machinery is implemented for N = 2")
    return kv


class SphereQuadrature:
    """Quadrature for integral_{S^1} F(y) w_k(y) dsigma(y).

    Per quadrant, u = cos^2(theta) turns the integral into
    2^(gamma-1) int_0^1 F u^(k1-1/2) (1-u)^(k2-1/2) du, and a Gauss-Jacobi
    rule absorbs both endpoint powers; n nodes per quadrant integrate
    trigonometric polynomials of degree ~4n against w_k exactly, for every
    k >= 0.
    """

    def __init__(self, kv, n: int = 64):
        self.kv = _require_planar(kv)
        dirs, w = _quadrant_rule(_node_count(n, "n"), *self.kv.k)
        self.points = np.concatenate([dirs * sign for sign in
                                      ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))])
        self.weights = np.tile(2.0 ** (self.kv.gamma - 1.0) * w, 4)

    @property
    def mass(self) -> float:
        """Total weight; equals the sphere mass d_norm of the multiplicity."""
        return float(np.sum(self.weights))

    def integrate(self, f):
        return np.tensordot(self.weights, np.asarray(f(self.points)), axes=([0], [0]))

    def integrate_values(self, values):
        return np.tensordot(self.weights, np.asarray(values), axes=([0], [0]))


def sphere_moment(kv, i: int, j: int) -> float:
    """Exact even moment integral_{S^1} y1^(2i) y2^(2j) w_k dsigma."""
    kv = _require_planar(kv)
    k1, k2 = kv.k
    return float(2.0 ** (kv.gamma + 1.0)
                 * np.exp(betaln(i + k1 + 0.5, j + k2 + 0.5)))


def laplacian_coefficient(k: float, a: int) -> float:
    """One-axis action: T^2 maps x^a to this multiple of x^(a-2)."""
    if a % 2 == 0:
        return a * (a - 1.0 + 2.0 * k)
    return (a - 1.0) * (a + 2.0 * k)


def apply_laplacian(kv, coeffs: np.ndarray) -> np.ndarray:
    """Dunkl Laplacian on a homogeneous polynomial of degree n.

    coeffs[a] multiplies x^a y^(n-a); the result is the coefficient
    vector of a degree n-2 polynomial.
    """
    kv = _require_planar(kv)
    k1, k2 = kv.k
    n = coeffs.size - 1
    out = np.zeros(max(n - 1, 0))
    for a in range(n + 1):
        c = coeffs[a]
        if c == 0.0:
            continue
        if a >= 2:
            out[a - 2] += laplacian_coefficient(k1, a) * c
        if n - a >= 2:
            out[a] += laplacian_coefficient(k2, n - a) * c
    return out


def _gram(kv, n: int, basis: np.ndarray) -> np.ndarray:
    """Gram matrix of degree-n coefficient vectors in L^2(w_k dsigma / d_norm)."""
    d = kv.d_norm
    cols = basis.shape[1]
    g = np.zeros((cols, cols))
    for p in range(cols):
        for q in range(p, cols):
            total = 0.0
            for a in range(n + 1):
                for b in range(n + 1):
                    if (a + b) % 2 or basis[a, p] == 0.0 or basis[b, q] == 0.0:
                        continue
                    total += basis[a, p] * basis[b, q] * sphere_moment(kv, (a + b) // 2,
                                                                       (2 * n - a - b) // 2)
            g[p, q] = g[q, p] = total / d
    return g


_basis_cache: dict[tuple, list[np.ndarray]] = {}


def harmonic_basis(kv, n: int) -> list[np.ndarray]:
    """Orthonormal basis of the degree-n h-harmonics, as coefficient vectors.

    Orthonormal in L^2(w_k dsigma / d_norm) on the circle; dimension 1
    for n = 0 and 2 for n >= 1.  Memoized per (k, n); callers must not
    mutate the returned vectors.
    """
    kv = _require_planar(kv)
    key = (kv.k, n)
    if key in _basis_cache:
        return _basis_cache[key]
    _basis_cache[key] = _build_basis(kv, n)
    return _basis_cache[key]


def _build_basis(kv, n: int) -> list[np.ndarray]:
    if n == 0:
        return [np.array([1.0])]
    if n == 1:
        raw = np.eye(2)
    else:
        rows = []
        for a in range(n + 1):
            e = np.zeros(n + 1)
            e[a] = 1.0
            rows.append(apply_laplacian(kv, e))
        raw = null_space(np.stack(rows, axis=-1))
        if raw.shape[1] != 2:
            raise ConsistencyError(
                f"harmonic space of degree {n} came out {raw.shape[1]}-dimensional")
    g = _gram(kv, n, raw)
    vals, vecs = np.linalg.eigh(g)
    if np.min(vals) <= 0:
        raise ConsistencyError("harmonic Gram matrix is not positive definite")
    ortho = raw @ vecs @ np.diag(vals**-0.5)
    return [ortho[:, j] for j in range(ortho.shape[1])]


def eval_homogeneous(coeffs: np.ndarray, pts) -> np.ndarray:
    """Evaluate sum_a coeffs[a] x^a y^(n-a) at points (..., 2)."""
    pts = np.asarray(pts, dtype=float)
    n = coeffs.size - 1
    x, y = pts[..., 0], pts[..., 1]
    out = np.zeros(x.shape)
    for a in range(n + 1):
        if coeffs[a] != 0.0:
            out = out + coeffs[a] * x**a * y ** (n - a)
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
    rounding).  The addition-theorems suite checks it against the
    intertwined Gegenbauer form (_reproducing_kernel_gegenbauer).
    """
    kv = _require_planar(kv)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = 0.0
    for coeffs in harmonic_basis(kv, n):
        total = total + eval_homogeneous(coeffs, x) * eval_homogeneous(coeffs, y)
    return total


def _reproducing_kernel_gegenbauer(kv, n: int, x, y) -> float:
    """P_n(x, y) for one pair of planar points through the intertwiner:
    c_n (|x||y|)^n V_k[C~_n(<x/|x|, .>)](y/|y|) (Dunkl and Xu, Orthogonal
    Polynomials of Several Variables, 2001), sharing no code with the basis."""
    rx, ry = float(np.hypot(*x)), float(np.hypot(*y))
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
    kv = _require_planar(kv)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx, ry = float(np.hypot(*x)), float(np.hypot(*y))
    lam = kv.lam
    total = 0.0 + 0.0j
    for n in range(n_max + 1):
        pn = reproducing_kernel(kv, n, x, y)
        total += (_series_weight(lam, n) * (1j**n)
                  * bessel_j(n + lam, rx * ry) * pn)
    return total


def funk_hecke_pair(kv, coeffs: np.ndarray, x):
    """Both sides of the Funk-Hecke identity for a degree-n harmonic Y:

        (1/d) int E_k(ix, eta) Y(eta) w_k dsigma(eta)
            = b_n i^n j_{n+lam}(|x|) Y(x).

    Returns (lhs, rhs), the left side on the 96-node SphereQuadrature; their
    difference measures quadrature plus kernel evaluation error only, the
    identity itself is exact.
    """
    kv = _require_planar(kv)
    rule = SphereQuadrature(kv, n=96)
    x = _coords(kv, "x", x, point=True)
    n = coeffs.size - 1
    vals = dunkl_kernel_unitary(kv, x, rule.points) * eval_homogeneous(coeffs, rule.points)
    lhs = rule.integrate_values(vals) / kv.d_norm
    rhs = (_series_weight(kv.lam, n) * (1j**n)
           * bessel_j(n + kv.lam, float(np.hypot(*x))) * eval_homogeneous(coeffs, x))
    return complex(lhs), complex(rhs)


def orbit_integral(kv, x, z, r: float) -> float:
    """Two-kernel spherical average

        I(x, z, r) = (1/d) int_{S^1} E_k(ix, r eta) E_k(-iz, r eta) w_k dsigma(eta),

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
    kv = _require_planar(kv)
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
