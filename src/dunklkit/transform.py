"""Dunkl transform, heat kernels, translations, and spherical means.

Everything here works on tensor-product grids.  Per axis, the quadrature
absorbs the weight factor (2 x^2)^k into Gauss-Jacobi nodes split at the
origin, so integrals of Schwartz-class integrands against w_k dx are
spectrally accurate for every multiplicity k >= 0, including the
non-smooth |x|^(2k) cases where a uniform rule would stall.

The transform itself is separable: the kernel restricted to an axis pair
is a one-dimensional unitary kernel, so an N-dimensional transform is a
chain of small dense matrix contractions.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ive

from .core import (_as_kv, _axis_c_norm, _coords, dunkl_kernel_unitary, dunkl_laplacian,
                   intertwiner_atoms)
from .errors import ConfigError
from .quadrature import QuadratureRule, _tensor_grid, gauss_jacobi
from .rank_one import kernel_unitary
from .special import bessel_j, radial_bessel_operator

__all__ = [
    "GridFunction",
    "axis_rule",
    "weighted_grid",
    "TransformPlan",
    "dunkl_transform_grid",
    "heat_kernel",
    "heat_kernel_spectral",
    "radial_heat_profile",
    "heat_normalization_defect",
    "chapman_kolmogorov_defect",
    "radial_translate",
    "translated_normalization_defect",
    "spherical_mean_spectral",
    "spherical_mean_radial",
    "spherical_mean_wave",
    "radial_bump",
    "bump",
    "darboux_residual",
]


# ---------------------------------------------------------------------------
# grid functions and their file formats


@dataclass
class GridFunction:
    """Values sampled on a tensor-product grid.

    axes[i] is the strictly increasing coordinate array of axis i;
    values has shape tuple(len(a) for a in axes) and may be real or
    complex.
    """

    axes: tuple
    values: np.ndarray

    def __post_init__(self):
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = np.asarray(self.values)
        for a in self.axes:
            if a.ndim != 1 or a.size < 2 or np.any(np.diff(a) <= 0):
                raise ConfigError("grid axes must be strictly increasing 1-d arrays")
        shape = tuple(a.size for a in self.axes)
        if self.values.shape != shape:
            raise ConfigError(f"values shape {self.values.shape} does not match grid {shape}")

    @property
    def n_axes(self) -> int:
        return len(self.axes)

    def points(self) -> np.ndarray:
        """All grid points as an (M, N) array in C order."""
        return _tensor_grid(self.axes)

    @classmethod
    def sample(cls, axes, f) -> "GridFunction":
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        vals = np.asarray(f(_tensor_grid(axes))).reshape(tuple(a.size for a in axes))
        return cls(axes, vals)

    # -- CSV ---------------------------------------------------------------

    def to_csv(self, path: str, header: dict | None = None) -> None:
        """Write one row per grid point: x1,...,xN,value[,value_im]."""
        pts = self.points()
        vals = self.values.ravel()
        cplx = np.iscomplexobj(vals)
        with open(path, "w", newline="") as fh:
            for key, val in (header or {}).items():
                fh.write(f"# {key}: {val}\n")
            writer = csv.writer(fh)
            cols = [f"x{i+1}" for i in range(self.n_axes)]
            cols += ["value_re", "value_im"] if cplx else ["value"]
            writer.writerow(cols)
            for p, v in zip(pts, vals):
                row = [f"{c:.17g}" for c in p]
                if cplx:
                    row += [f"{v.real:.17g}", f"{v.imag:.17g}"]
                else:
                    row.append(f"{float(v.real):.17g}")
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path: str) -> "GridFunction":
        with open(path) as fh:
            lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
        reader = csv.reader(io.StringIO("".join(lines)))
        cols = next(reader)
        cplx = "value_im" in cols
        n = len(cols) - (2 if cplx else 1)
        if n < 1 or cols[:n] != [f"x{i+1}" for i in range(n)]:
            raise ConfigError(f"unrecognized grid csv columns: {cols}")
        data = np.array([[float(c) for c in row] for row in reader])
        if data.size == 0:
            raise ConfigError("grid csv has no data rows")
        axes = tuple(np.unique(data[:, i]) for i in range(n))
        shape = tuple(a.size for a in axes)
        if data.shape[0] != int(np.prod(shape)):
            raise ConfigError("grid csv rows do not fill a tensor-product grid")
        vals = data[:, n] + 1j * data[:, n + 1] if cplx else data[:, n]
        order = np.lexsort(tuple(data[:, i] for i in reversed(range(n))))
        return cls(axes, vals[order].reshape(shape))

    # -- binary ------------------------------------------------------------

    def to_npz(self, path: str, header: dict | None = None) -> None:
        arrays = {f"axis{i}": a for i, a in enumerate(self.axes)}
        arrays["values"] = self.values
        arrays["meta"] = np.array(json.dumps(header or {}))
        np.savez(path, **arrays)

    @classmethod
    def from_npz(cls, path: str) -> "GridFunction":
        with np.load(path, allow_pickle=False) as data:
            n = sum(1 for key in data.files if key.startswith("axis"))
            axes = tuple(data[f"axis{i}"] for i in range(n))
            return cls(axes, data["values"])


# ---------------------------------------------------------------------------
# weighted quadrature grids


def axis_rule(k: float, extent: float, n: int) -> QuadratureRule:
    """Rule for integral_{-L}^{L} g(x) (2 x^2)^k dx, singular factor absorbed.

    Two Gauss-Jacobi panels meeting at the origin; g is sampled only at
    interior nodes, so integrands defined by division with |x|^(2k) stay
    finite.
    """
    if extent <= 0:
        raise ConfigError("axis extent must be positive")
    left = gauss_jacobi(n, 2.0 * k, 0.0, -extent, 0.0)
    right = gauss_jacobi(n, 0.0, 2.0 * k, 0.0, extent)
    nodes = np.concatenate([left.nodes, right.nodes])
    weights = 2.0**k * np.concatenate([left.weights, right.weights])
    return QuadratureRule(nodes, weights)


def weighted_grid(kv, extents, n) -> tuple[np.ndarray, np.ndarray]:
    """Tensor grid (points (M, N), weights (M,)) for integrals against w_k dx."""
    kv = _as_kv(kv)
    extents = np.broadcast_to(np.asarray(extents, dtype=float), (kv.n_axes,))
    ns = np.broadcast_to(np.asarray(n, dtype=int), (kv.n_axes,))
    rules = [axis_rule(kv.k[i], extents[i], int(ns[i])) for i in range(kv.n_axes)]
    return _tensor_grid([r.nodes for r in rules], [r.weights for r in rules])


def _contract_axes(values, factors) -> np.ndarray:
    """Contract axis i of values with the i-th (matrix, weights) pair:
    out[.., a, ..] = sum_j matrix[a, j] weights[j] values[.., j, ..]."""
    out = np.asarray(values, dtype=complex)
    for i, (mat, wts) in enumerate(factors):
        out = np.moveaxis(out, i, 0)
        res = np.tensordot(mat, wts[:, None] * out.reshape(wts.size, -1), axes=([1], [0]))
        out = np.moveaxis(res.reshape((mat.shape[0],) + out.shape[1:]), 0, i)
    return out


# ---------------------------------------------------------------------------
# the transform


class TransformPlan:
    """Self-dual discretization of the Dunkl transform.

    The transform pair

        fhat(xi) = c_k^{-1} int f(x) E_k(-i xi, x) w_k(x) dx
        f(x)     = c_k^{-1} int fhat(xi) E_k(i x, xi) w_k(xi) dxi

    is evaluated on per-axis Gauss-Jacobi nodes.  By default one node
    set serves both sides (self-dual); freq_extent / freq_n give the
    frequency side its own geometry, which matters for functions of
    compact support whose transforms decay only algebraically.  extent
    should cover the essential support of f, freq_extent that of fhat;
    for Gaussian-type functions extent 12 with 96 nodes per axis reaches
    machine precision.
    """

    def __init__(self, kv, extent=12.0, n=96, freq_extent=None, freq_n=None):
        self.kv = _as_kv(kv)
        nax = self.kv.n_axes

        def per_axis(val, dtype):
            return np.broadcast_to(np.asarray(val, dtype=dtype), (nax,))

        extents = per_axis(extent, float)
        ns = per_axis(n, int)
        fextents = extents if freq_extent is None else per_axis(freq_extent, float)
        fns = ns if freq_n is None else per_axis(freq_n, int)
        self.rules = [axis_rule(self.kv.k[i], float(extents[i]), int(ns[i]))
                      for i in range(nax)]
        self.freq_rules = [axis_rule(self.kv.k[i], float(fextents[i]), int(fns[i]))
                           for i in range(nax)]
        # kernels[i][a, j] = one-axis unitary kernel E(i xi_a, x_j)
        self.kernels = [kernel_unitary(self.kv.k[i], fr.nodes[:, None], r.nodes[None, :])
                        for i, (r, fr) in enumerate(zip(self.rules, self.freq_rules))]

    @property
    def shape(self) -> tuple:
        return tuple(r.n for r in self.rules)

    @property
    def freq_shape(self) -> tuple:
        return tuple(r.n for r in self.freq_rules)

    def grid(self) -> np.ndarray:
        return _tensor_grid([r.nodes for r in self.rules])

    def freq_grid(self) -> np.ndarray:
        return _tensor_grid([r.nodes for r in self.freq_rules])

    def sample(self, f) -> np.ndarray:
        return np.asarray(f(self.grid())).reshape(self.shape)

    def forward(self, values: np.ndarray) -> np.ndarray:
        factors = ((np.conj(kern), rule.weights) for rule, kern in zip(self.rules, self.kernels))
        return _contract_axes(values, factors) / self.kv.c_norm

    def inverse(self, values: np.ndarray) -> np.ndarray:
        factors = ((kern.T, rule.weights) for rule, kern in zip(self.freq_rules, self.kernels))
        return _contract_axes(values, factors) / self.kv.c_norm

    def norm_sq(self, values: np.ndarray, freq: bool = False) -> float:
        """Squared L^2(w_k dx) norm of grid values on either side."""
        total = np.abs(np.asarray(values)) ** 2
        for rule in self.freq_rules if freq else self.rules:
            total = np.tensordot(rule.weights, total, axes=([0], [0]))
        return float(total)

    def roundtrip_defect(self, f) -> float:
        vals = self.sample(f)
        back = self.inverse(self.forward(vals))
        scale = float(np.max(np.abs(vals)))
        return float(np.max(np.abs(back - vals))) / max(scale, 1e-300)

    def plancherel_defect(self, f) -> float:
        vals = self.sample(f)
        a = self.norm_sq(vals)
        b = self.norm_sq(self.forward(vals), freq=True)
        return abs(a - b) / max(a, 1e-300)

    def boundary_decay(self, values: np.ndarray) -> float:
        """Largest |values| over the faces of the grid, for support checks."""
        vals = np.abs(np.asarray(values))
        worst = 0.0
        for i in range(vals.ndim):
            v = np.moveaxis(vals, i, 0)
            worst = max(worst, float(np.max(v[0])), float(np.max(v[-1])))
        return worst


def dunkl_transform_grid(kv, gf: GridFunction, inverse: bool = False) -> GridFunction:
    """Transform a sampled grid function with trapezoid weights.

    Convenience path for file-based workflows on uniform grids; accuracy
    is limited by the grid (use TransformPlan for quadrature-grade
    results).  Output lives on the same axes.
    """
    kv = _as_kv(kv)
    if gf.n_axes != kv.n_axes:
        raise ConfigError("grid dimension does not match multiplicity vector")

    def factor(k, ax):
        kern = kernel_unitary(k, ax[:, None], ax[None, :])
        return (kern if inverse else np.conj(kern)), np.gradient(ax) * (2.0 * ax**2) ** k

    out = _contract_axes(gf.values, (factor(k, ax) for k, ax in zip(kv.k, gf.axes)))
    return GridFunction(gf.axes, out / kv.c_norm)


# ---------------------------------------------------------------------------
# heat kernel


def _gauss_kernel_axis(k: float, a, b):
    """exp(-(a^2+b^2)/2) E_k(a, b) for one axis, overflow-free.

    Written through exponentially scaled Bessel functions: with u = a b,

        e^(-(a^2+b^2)/2) j_alpha(iu)
            = Gamma(alpha+1) (|u|/2)^(-alpha) ive(alpha, |u|) e^(-(|a|-|b|)^2/2),

    valid for all magnitudes of a and b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    u = a * b
    au = np.abs(u)
    damp = np.exp(-0.5 * (np.abs(a) - np.abs(b)) ** 2)
    safe = np.where(au > 0, au, 1.0)
    even = np.exp(gammaln(k + 0.5) + (0.5 - k) * np.log(safe / 2.0)) \
        * ive(k - 0.5, safe) * damp
    odd = np.exp(gammaln(k + 1.5) - (k + 0.5) * np.log(safe / 2.0)) \
        * ive(k + 0.5, safe) * damp
    out = even + (u / (2.0 * k + 1.0)) * odd
    # u = 0: the odd half vanishes and the even half is plain Gaussian decay
    return np.where(au > 0, out, np.exp(-0.5 * (a * a + b * b)))


def heat_kernel(kv, s: float, x, y):
    """Closed form of the heat kernel at time s, vectorized over y.

    Factorizes over axes; each factor is evaluated through scaled Bessel
    functions so large |x|, |y|, or small s do not overflow.
    """
    kv = _as_kv(kv)
    if not 0.0 < s < np.inf:
        raise ConfigError(f"heat kernel time must be finite and positive, got {s}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (kv.n_axes,):
        raise ConfigError("x must be a point of R^N")
    scale = 1.0 / np.sqrt(2.0 * s)
    a = x * scale
    b = _coords(kv, "y", np.atleast_1d(y)) * scale
    fac = (2.0 * s) ** (-(kv.gamma + 0.5 * kv.n_axes)) / kv.c_norm
    prod = fac * np.ones(b.shape[:-1] if b.ndim > 1 else ())
    for i in range(kv.n_axes):
        prod = prod * _gauss_kernel_axis(kv.k[i], a[i], b[..., i])
    return prod


def radial_heat_profile(kv, t: float, r):
    """Heat kernel seen from the origin: value at |y| = r."""
    kv = _as_kv(kv)
    if not 0.0 < t < np.inf:
        raise ConfigError(f"heat kernel time must be finite and positive, got {t}")
    r = np.asarray(r, dtype=float)
    return np.exp(-(r * r) / (4.0 * t)) / ((2.0 * t) ** (kv.lam + 1.0) * kv.c_norm)


def heat_kernel_spectral(kv, s: float, x, y, extent=None, n: int = 128):
    """Heat kernel through its frequency representation,

        (1/c_k^2) int e^(-s |xi|^2) E_k(-ix, xi) E_k(iy, xi) w_k(xi) dxi,

    evaluated axis by axis.  Independent of the closed form."""
    kv = _as_kv(kv)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if extent is None:
        extent = np.sqrt(80.0 / s)
    per_axis_c = [_axis_c_norm(k) for k in kv.k]
    total = 1.0 + 0.0j
    for i in range(kv.n_axes):
        rule = axis_rule(kv.k[i], float(extent), n)
        ker_x = kernel_unitary(kv.k[i], rule.nodes, x[i])
        ker_y = kernel_unitary(kv.k[i], rule.nodes, y[i])
        total *= np.sum(rule.weights * np.exp(-s * rule.nodes**2)
                        * np.conj(ker_x) * ker_y) / per_axis_c[i] ** 2
    return total


def heat_normalization_defect(kv, s: float, x, n: int = 96) -> float:
    """|integral Gamma_s(x, y) w_k(y) dy - 1| by weighted-grid quadrature."""
    kv = _as_kv(kv)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    extent = float(np.max(np.abs(x))) + np.sqrt(160.0 * s)
    pts, wts = weighted_grid(kv, extent, n)
    vals = heat_kernel(kv, s, x, pts)
    return abs(float(np.sum(wts * vals)) - 1.0)


def chapman_kolmogorov_defect(kv, s1: float, s2: float, x, y, n: int = 96) -> float:
    """Relative defect of int Gamma_s1(x, z) Gamma_s2(z, y) w(z) dz
    against Gamma_(s1+s2)(x, y)."""
    kv = _as_kv(kv)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    reach = float(max(np.max(np.abs(x)), np.max(np.abs(y))))
    extent = reach + np.sqrt(160.0 * max(s1, s2))
    pts, wts = weighted_grid(kv, extent, n)
    lhs = float(np.sum(wts * heat_kernel(kv, s1, x, pts) * heat_kernel(kv, s2, y, pts)))
    rhs = float(heat_kernel(kv, s1 + s2, x, np.atleast_2d(y))[0])
    return abs(lhs - rhs) / abs(rhs)


# ---------------------------------------------------------------------------
# translation of radial functions and spherical means


def radial_translate(kv, f0, x, y, n_per_axis: int = 48):
    """Generalized translation of a radial function f = f0(|.|),
    evaluated by the intertwiner representation

        (tau f)(x, y) = sum_j m_j f0( sqrt(|x|^2 + |y|^2 - 2 <p_j, y>) )

    over the intertwiner atoms (p_j, m_j) of x.  Vectorized over rows of
    y, symmetric in x <-> y, and normalized in the semigroup pairing:
    translating the radial heat profile gives the two-point heat kernel
    Gamma_t(x, y) exactly.  For k = 0 it degenerates to f0(|x - y|).
    """
    kv = _as_kv(kv)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    squeeze = y.ndim == 1
    ypts = np.atleast_2d(y)
    pts, masses = intertwiner_atoms(kv, x, n_per_axis=n_per_axis)
    rx2 = float(np.sum(x * x))
    ry2 = np.sum(ypts * ypts, axis=-1)
    out = np.zeros(ypts.shape[0])
    chunk = max(1, int(2**22 // max(pts.shape[0], 1)))
    for lo in range(0, ypts.shape[0], chunk):
        sl = slice(lo, min(lo + chunk, ypts.shape[0]))
        cross = ypts[sl] @ pts.T
        arg = np.sqrt(np.maximum(rx2 + ry2[sl, None] - 2.0 * cross, 0.0))
        out[sl] = np.asarray(f0(arg)) @ masses
    return out[0] if squeeze else out


def translated_normalization_defect(kv, t: float, x, n: int = 96,
                                    n_per_axis: int = 40) -> float:
    """Mass defect of the translated heat profile:

        | int tau_x F_t(y) w_k(y) dy  -  1 |

    with F_t the radial heat profile.  Exercises the translation and the
    weighted grid together; the closed-form heat kernel never enters.
    """
    kv = _as_kv(kv)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    extent = float(np.max(np.abs(x))) + np.sqrt(160.0 * t)
    pts, wts = weighted_grid(kv, extent, n)
    vals = radial_translate(kv, lambda r: radial_heat_profile(kv, t, r), x, pts,
                            n_per_axis=n_per_axis)
    return abs(float(np.sum(wts * vals)) - 1.0)


def spherical_mean_spectral(kv, plan: TransformPlan, fhat_values: np.ndarray,
                            x, t: float):
    """Spherical mean from transform data:

        M_f(x, t) = (1/c_k) int fhat(xi) E_k(ix, xi) j_lam(t |xi|) w_k(xi) dxi.

    fhat_values are the transform samples on the plan grid.  Exact for
    band-limited data up to quadrature error; works for any f whose
    transform decays inside the plan extent.
    """
    kv = _as_kv(kv)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rules = plan.freq_rules
    pts, wts = _tensor_grid([r.nodes for r in rules], [r.weights for r in rules])
    rad = np.sqrt(np.sum(pts * pts, axis=-1))
    kern = dunkl_kernel_unitary(kv, x, pts)
    vals = np.asarray(fhat_values).ravel()
    return np.sum(wts * vals * kern * bessel_j(kv.lam, t * rad)) / kv.c_norm


def spherical_mean_radial(kv, f0, x, t, n_sphere: int = 64,
                          n_per_axis: int = 48):
    """Spherical mean of a radial function f = f0(|.|) by averaging the
    translation over the weighted sphere.

    t is one radius (the mean comes back as a float) or an array of
    radii (one mean per radius, all from a single translation call).
    """
    from .harmonics import SphereQuadrature

    kv = _as_kv(kv)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    radii = np.asarray(t, dtype=float)
    r = radii.ravel()
    if kv.n_axes == 1:
        # the sphere is two signed points, each carrying half of d_norm
        vals = radial_translate(kv, f0, x, np.concatenate([r, -r])[:, None],
                                n_per_axis=n_per_axis)
        means = 0.5 * (vals[:r.size] + vals[r.size:])
    else:
        rule = SphereQuadrature(kv, n=n_sphere)
        pts = (r[:, None, None] * rule.points[None, :, :]).reshape(-1, kv.n_axes)
        vals = radial_translate(kv, f0, x, pts, n_per_axis=n_per_axis)
        means = rule.integrate_values(vals.reshape(r.size, -1).T) / kv.d_norm
    return float(means[0]) if radii.ndim == 0 else means.reshape(radii.shape)


def spherical_mean_wave(kv, z, x, t: float):
    """Closed form of the spherical mean of the kernel wave y -> E_k(iy, z):

        M(x, t) = E_k(ix, z) j_lam(t |z|).

    The wave is an eigenfunction of the mean operator; this is the
    reference value the quadrature routes are tested against.
    """
    kv = _as_kv(kv)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return dunkl_kernel_unitary(kv, np.atleast_1d(np.asarray(x, dtype=float)), z) \
        * bessel_j(kv.lam, t * float(np.sqrt(np.sum(z * z))))


# ---------------------------------------------------------------------------
# bump functions


def radial_bump(radius: float, order: int = 10):
    """Smooth nonnegative radial profile supported exactly in [0, radius]."""
    if radius <= 0:
        raise ConfigError("bump radius must be positive")

    def f0(r):
        u = np.asarray(r, dtype=float) / radius
        core = np.clip(1.0 - u * u, 0.0, None)
        return core**order * np.exp(-(u * u))

    return f0


def bump(center, radius: float, order: int = 10):
    """Smooth nonnegative bump supported exactly in the ball B(center, radius)."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    f0 = radial_bump(radius, order)

    def f(pts):
        pts = np.asarray(pts, dtype=float)
        d = np.sqrt(np.sum((pts - center) ** 2, axis=-1))
        return f0(d)

    return f


# ---------------------------------------------------------------------------
# wave-equation residual


def darboux_residual(kv, mean_fn, x, t: float, h: float) -> float:
    """Residual of the radial wave identity satisfied by spherical means,

        (d^2/dt^2 + (2 lam + 1)/t d/dt) M(x, t) = Delta_k M(x, t),

    with the t-side taken by second-order differences at step h and the
    x-side by the finite-difference Dunkl Laplacian.  mean_fn(x, t) must
    return the spherical mean; the residual decays like h^2 when the
    identity holds, which the verification suite checks through the
    h -> h/2 ratio.
    """
    kv = _as_kv(kv)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lhs = radial_bessel_operator(kv.lam, lambda tt: mean_fn(x, tt), t, h=h)
    rhs = dunkl_laplacian(kv, lambda p: mean_fn(p, t), x)
    return float(abs(lhs - rhs))
