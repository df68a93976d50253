"""Dunkl transform, heat kernels, translations, and spherical means.

Everything here works on tensor-product grids.  Per axis, the quadrature
absorbs the weight factor (2 x^2)^k into Gauss-Jacobi nodes split at the
origin, so integrals of Schwartz-class integrands against w_k dx are
spectrally accurate for every multiplicity k >= 0, including the
non-smooth |x|^(2k) cases where a uniform rule would stall.

The transform itself is separable: the kernel restricted to an axis pair
is a one-dimensional unitary kernel, so an N-dimensional transform is a
chain of small real contractions whose parity blocks go straight into the
sign quadrants of the one complex output.  Spherical means of radial
functions are Bessel-Kingman point convolutions of |x| and t: one positive
angle rule at the radial index, at every N.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, product

import numpy as np

from .bessel_kingman import _pair_nodes
from .core import (_as_kv, _axis_c_norm, _axis_product, _coords, dunkl_kernel_unitary,
                   dunkl_laplacian, intertwiner_atoms)
from .errors import (ConfigError, NumericalError, QuadratureError, ResolutionError, _finite,
                     _floats, _node_count, _positive_time)
from .measures import _csv_rows, _row_blocks, _write_csv
from .quadrature import QuadratureRule, _tensor_grid, gauss_jacobi, gauss_legendre
from .rank_one import kernel_unitary
from .special import _scaled_bessel_imag, bessel_j, radial_bessel_operator

__all__ = [
    "GridFunction",
    "TransformPlan",
    "dunkl_transform_grid",
    "heat_kernel",
    "heat_kernel_spectral",
    "radial_heat_profile",
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
        if self.values.dtype.kind not in "iufc":
            raise ConfigError(f"grid values must be numbers, got dtype {self.values.dtype}")
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
        """Write one row per grid point: x1,...,xN,value[,value_im].

        Every float is written with its shortest round-trip digits in
        float.__repr__ notation, so from_csv reads back the same bits; a
        NaN or infinite value is a ConfigError.
        """
        vals = self.values.ravel()
        cplx = np.iscomplexobj(vals)
        rows = _csv_rows(np.column_stack([self.points(), vals.real]
                                         + ([vals.imag] if cplx else [])))
        cols = [f"x{i+1}" for i in range(self.n_axes)]
        cols += ["value_re", "value_im"] if cplx else ["value"]
        with open(path, "w", newline="") as fh:
            _write_csv(fh, header or {}, cols, rows)

    @classmethod
    def from_csv(cls, path: str) -> "GridFunction":
        with open(path) as fh:
            lines = [ln.strip().split(",") for ln in fh if ln.strip() and not ln.startswith("#")]
        cols, *rows = lines or [[]]
        cplx = "value_im" in cols
        n = len(cols) - (2 if cplx else 1)
        if n < 1 or cols[:n] != [f"x{i+1}" for i in range(n)]:
            raise ConfigError(f"unrecognized grid csv columns: {cols}")
        if any(len(row) != len(cols) for row in rows):
            raise ConfigError(f"grid csv rows must have {len(cols)} cells, one per column")
        try:
            data = np.array([[float(c) for c in row] for row in rows])
        except ValueError as exc:
            raise ConfigError(f"grid csv holds a non-numeric cell: {exc}") from None
        if data.size == 0:
            raise ConfigError("grid csv has no data rows")
        axes = tuple(np.unique(data[:, i]) for i in range(n))
        shape = tuple(a.size for a in axes)
        if data.shape[0] != int(np.prod(shape)):
            raise ConfigError("grid csv rows do not fill a tensor-product grid")
        # the two columns as one complex each: re + 1j * im drops the sign of a zero
        vals = data[:, n:].copy().view(complex)[:, 0] if cplx else data[:, n]
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
            try:
                return cls(tuple(data[f"axis{i}"] for i in range(n)), data["values"])
            except (KeyError, ValueError) as exc:  # a missing array, or an object array
                raise ConfigError(f"grid npz needs numeric arrays values, axis0, axis1, ...: "
                                  f"{exc}") from None


# ---------------------------------------------------------------------------
# weighted quadrature grids


def _axis_rule(k: float, extent: float, n: int) -> QuadratureRule:
    """Rule for integral_{-L}^{L} g(x) (2 x^2)^k dx, singular factor absorbed.

    Two Gauss-Jacobi panels of n nodes meeting at the origin; the weight
    is even, so the left panel is the exact mirror of the right one.  g
    is sampled only at interior nodes, so integrands defined by division
    with |x|^(2k) stay finite.
    """
    extent = _finite(extent, "axis extent")
    if extent <= 0:
        raise ConfigError(f"axis extent must be positive, got {extent}")
    right = gauss_jacobi(_node_count(n), 0.0, 2.0 * k, 0.0, extent)
    if 2.0**k * float(right.weights.max()) == math.inf:  # gauss_jacobi's check misses 2^k
        raise QuadratureError(f"axis rule weights on [-{extent}, {extent}] overflow the float range")
    nodes = np.concatenate([-right.nodes[::-1], right.nodes])
    weights = 2.0**k * np.concatenate([right.weights[::-1], right.weights])
    return QuadratureRule(nodes, weights)


def _per_axis(kv, value, what: str) -> np.ndarray:
    """value broadcast to one entry per axis of kv."""
    try:
        return np.broadcast_to(np.asarray(value), (kv.n_axes,))
    except ValueError:
        raise ConfigError(f"{what} has shape {np.shape(value)}; expected a scalar "
                          f"or shape ({kv.n_axes},)") from None


def _check_shape(values, shape: tuple, what: str) -> np.ndarray:
    values = np.asarray(values)
    if values.shape != shape:
        raise ConfigError(f"{what} has shape {values.shape}; expected {shape}")
    return values


def _contract_axes(values, factors) -> np.ndarray:
    """Contract axis i of values with the i-th (matrix, weights) pair:
    out[.., a, ..] = sum_j matrix[a, j] weights[j] values[.., j, ..]."""
    out = np.asarray(values, dtype=complex)
    for i, (mat, wts) in enumerate(factors):
        out = np.moveaxis(out, i, 0)
        res = np.tensordot(mat, wts[:, None] * out.reshape(wts.size, -1), axes=([1], [0]))
        out = np.moveaxis(res.reshape((mat.shape[0],) + out.shape[1:]), 0, i)
    return out


def _parity_part(blocks, factors, c: int, out=None):
    """Part c (0 real, 1 imag) of sum_q prod_i (1j factors[i])^(q_i) blocks[q[::-1]] as
    (array, sign): the halves blocks[0] and blocks[1] are added as the axis-by-axis
    complex assembly adds them, the first into out, with the signs kept aside."""
    if len(factors) == 1:
        return blocks[c], factors[0] ** c
    a, sa = _parity_part(blocks[0], factors[:-1], c, out)
    b, sb = _parity_part(blocks[1], factors[:-1], 1 - c)
    sb *= (2 * c - 1) * factors[-1]  # part c of 1j x is -x.imag or x.real
    return (np.add if sa == sb else np.subtract)(a, b, out=out), sa


def _parity_contract(values, stacks, sign: float) -> np.ndarray:
    """Contract axis i of values (2 n_i mirror-symmetric nodes) with even +
    sign * 1j * odd, (even, odd) = stacks[i] a real (2, m_i, n_i) stack on the
    positive nodes; complex values are a real batch of two.  Each axis, last first,
    folds into right +- left and takes one batched matmul, into buffers all axes
    share.  Sign quadrant s of the one complex output gets sum_p prod_i (sign * 1j *
    s_i)^(p_i) B_p of the real parity blocks B_p (the batch a last p_i, factor 1j)."""
    cplx = np.iscomplexobj(values)
    out = np.asarray(values, dtype=complex if cplx else float)[..., None].view(float)
    out = out.transpose(-1, *range(out.ndim - 1))  # (real[, imag], ...)
    sizes = list(accumulate(reversed(stacks), lambda size, st: size // st.shape[2] * st.shape[1],
                            initial=out.size))  # floats going into each axis
    fold_buf, res_buf = np.empty(max(sizes[:-1])), np.empty(max(sizes[1:]))
    for stack, size in zip(reversed(stacks), sizes[1:]):
        n = stack.shape[2]
        fold = fold_buf[:out.size].reshape((2,) + out.shape[:-1] + (n,))
        np.add(out[..., n:], out[..., n - 1::-1], out=fold[0])
        np.subtract(out[..., n:], out[..., n - 1::-1], out=fold[1])
        # one (m, n) @ (n, rows) product per parity and batch entry
        res = res_buf[:size].reshape(2, len(out), stack.shape[1], -1)
        np.matmul(stack[:, None], fold.reshape(2, len(out), -1, n).transpose(0, 1, 3, 2), out=res)
        out = res.swapaxes(0, 1).reshape(res.shape[1::-1] + res.shape[2:3] + out.shape[1:-1])
    m, n_axes = out.shape[2::2], len(stacks)  # out is (batch, 2, m_0, ..., 2, m_(N-1))
    order = (0, *range(2 * n_axes - 1, 0, -2), *range(2, 2 * n_axes + 1, 2))
    blocks = out.transpose(order).reshape((2,) * (n_axes + cplx) + m)  # parities last axis first
    result = np.empty(tuple(2 * mi for mi in m), dtype=complex)
    for s in product((1.0, -1.0), repeat=n_axes):
        quad = result[tuple(slice(mi, None) if si > 0 else slice(mi - 1, None, -1)
                            for mi, si in zip(m, s))]
        factors = [sign * si for si in s] + [1.0] * cplx
        for c, part in enumerate((quad.real, quad.imag)):
            arr, arr_sign = _parity_part(blocks, factors, c, out=part)
            if arr_sign < 0 or arr is not part:  # 0 - x, not -x: a zero stays +0
                (np.add if arr_sign > 0 else np.subtract)(0.0, arr, out=part)
    return result


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

    Every node set is two Gauss-Jacobi panels mirrored at 0, and per axis the kernel
    E(i xi, x) = j_(k-1/2)(xi x) + i xi x / (2k+1) j_(k+1/2)(xi x) is even in
    its real part and odd in its imaginary part, so each axis stores just
    those two parts on the positive nodes, and forward and inverse run in
    real arithmetic on folded halves of the data; the one complex array a call
    makes is the one it returns.  The plan is read-only and may be shared: it also
    keeps the distinct |xi| of the frequency grid and each signed node's index.
    """

    def __init__(self, kv, extent=12.0, n=96, freq_extent=None, freq_n=None):
        self.kv = _as_kv(kv)
        extents = _per_axis(self.kv, extent, "extent")
        ns = _per_axis(self.kv, n, "n")
        fextents = extents if freq_extent is None else _per_axis(self.kv, freq_extent,
                                                                 "freq_extent")
        fns = ns if freq_n is None else _per_axis(self.kv, freq_n, "freq_n")
        self.rules = [_axis_rule(*args) for args in zip(self.kv.k, extents, ns)]
        self.freq_rules = [_axis_rule(*args) for args in zip(self.kv.k, fextents, fns)]
        # per axis, the parts of E(i xi_a, x_j) / c_k at positive xi_a, x_j, times
        # the weights of x_j (forward) or, transposed, those of xi_a (inverse)
        self._forward, self._inverse = [], []
        for k, r, fr in zip(self.kv.k, self.rules, self.freq_rules):
            kern = kernel_unitary(k, fr.nodes[fr.n // 2:, None], r.nodes[None, r.n // 2:])
            parts = np.stack([kern.real, kern.imag]) / _axis_c_norm(k)
            self._forward.append(parts * r.weights[r.n // 2:])
            self._inverse.append(parts.transpose(0, 2, 1) * fr.weights[fr.n // 2:])
        self._grid = _tensor_grid([r.nodes for r in self.rules])
        half = [r.nodes[r.n // 2:] for r in self.freq_rules]
        rad2 = reduce(np.add.outer, [m * m for m in half])  # on the positive quadrant
        radii2, index = np.unique(rad2, return_inverse=True)
        mirror = np.ix_(*[np.r_[m.size - 1:-1:-1, :m.size] for m in half])
        self._radii, self._radius_index = np.sqrt(radii2), index.reshape(rad2.shape)[mirror]
        for a in (self._grid, self._radii, self._radius_index):
            a.flags.writeable = False

    @property
    def shape(self) -> tuple:
        return tuple(r.n for r in self.rules)

    @property
    def freq_shape(self) -> tuple:
        return tuple(r.n for r in self.freq_rules)

    def grid(self) -> np.ndarray:
        """The space grid points, built once and read-only."""
        return self._grid

    def sample(self, f) -> np.ndarray:
        values = np.asarray(f(self.grid()))
        size = int(np.prod(self.shape))
        if values.size != size:
            raise ConfigError(f"f returned shape {values.shape}; expected one value per "
                              f"grid point, shape ({size},) or {self.shape}")
        return values.reshape(self.shape)

    def forward(self, values: np.ndarray) -> np.ndarray:
        values = _check_shape(values, self.shape, "forward values")
        return _parity_contract(values, self._forward, -1.0)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        values = _check_shape(values, self.freq_shape, "inverse values")
        return _parity_contract(values, self._inverse, 1.0)

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

    @staticmethod
    def boundary_decay(values: np.ndarray) -> float:
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


def _heat_axis(k: float, s: float, x, y):
    """Rank-one heat kernel Gamma_s(x, y) against (2 y^2)^k dy, overflow-free.

    With a, b = x, y over sqrt(2 s) and u = a b,

        Gamma_s = (2s)^(-(k+1/2)) / c_k e^(-(|a|-|b|)^2/2)
                  * e^(-|u|) [j_(k-1/2)(iu) + u / (2k+1) j_(k+1/2)(iu)],

    through the scaled Bessel values and with the prefactor inside the
    exponential, finite for all magnitudes of x, y, s where the value is.
    """
    scale = 1.0 / np.sqrt(2.0 * s)
    a = np.asarray(x, dtype=float) * scale
    b = np.asarray(y, dtype=float) * scale
    u = a * b
    au = np.abs(u)
    kern = _scaled_bessel_imag(k - 0.5, au) + u / (2.0 * k + 1.0) * _scaled_bessel_imag(k + 0.5, au)
    return np.exp(-(k + 0.5) * math.log(2.0 * s) - 0.5 * (np.abs(a) - np.abs(b)) ** 2) \
        / _axis_c_norm(k) * kern


_HEAT_NODES = 96  # Gauss nodes per half-axis panel of a heat window
_HEAT_MASS_TOL = 1e-9  # |mass - 1| of a usable heat window


def _heat_quadrature(k: float, t: float, x, y=None):
    """Rule (nodes z, weights) of x's heat window at time t and the weights
    times Gamma_t(x, z); broadcast over x, nodes on a new last axis.

    The window spans lo - w to hi + w, w = sqrt(160 t), lo and hi the smaller
    and larger of |x| and |y| (y defaults to x): _axis_rule's nodes on |z| <= hi + w
    while lo <= w, else Gauss-Legendre panels on +-[lo - w, hi + w] weighted by
    (2 z^2)^k, every node near the peaks however narrow.  Weights past the float
    range are a QuadratureError, a sum off the kernel's mass 1 by more than
    _HEAT_MASS_TOL a ResolutionError (over k in {0.5, 3}, |x| in {0, 0.5, 2, 100}
    and t in [1e-300, 0.1] a transform's error stayed below its mass's).
    """
    x = np.asarray(x, dtype=float)[..., None]
    ends = np.abs(x), np.abs(x if y is None else y)
    lo, hi, w = np.minimum(*ends), np.maximum(*ends), math.sqrt(160.0 * t)
    axis = gauss_jacobi(_HEAT_NODES, 0.0, 2.0 * k, 0.0, 1.0)
    panel = gauss_legendre(_HEAT_NODES, 0.0, 1.0)
    near, top, width = lo <= w, hi + w, hi - lo + 2.0 * w
    with np.errstate(over="ignore", invalid="ignore"):
        right = np.where(near, top * axis.nodes, (lo - w) + width * panel.nodes)
        weights = 2.0**k * np.where(near, top ** (2.0 * k + 1.0) * axis.weights,
                                    width * panel.weights * right ** (2.0 * k))
        if not np.isfinite(weights).all():
            raise QuadratureError(f"heat window weights at time {t:g} overflow the float range")
        rule = QuadratureRule(np.concatenate([-right[..., ::-1], right], axis=-1),
                              np.concatenate([weights[..., ::-1], weights], axis=-1))
        heat = rule.weights * _heat_axis(k, t, x, rule.nodes)
        miss = np.max(np.abs(np.sum(heat, axis=-1) - 1.0))
    if not miss <= _HEAT_MASS_TOL:  # a NaN fails too
        raise ResolutionError(f"the heat window at time {t:g} misses the kernel's mass by {miss}")
    return rule, heat


def heat_kernel(kv, s: float, x, y):
    """Closed form of the heat kernel at time s; x and y broadcast over
    leading axes (last axis = coordinates).

    Factorizes over axes through scaled Bessel functions, so large |x|, |y| or
    small s do not overflow; a value past the float range is a NumericalError.
    """
    s = _positive_time(s, "heat kernel time")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _axis_product(kv, lambda k, a, b: _heat_axis(k, s, a, b),
                            np.atleast_1d(x), np.atleast_1d(y))
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"heat kernel at time {s} overflows the float range")
    return out


def radial_heat_profile(kv, t: float, r):
    """Heat kernel seen from the origin: value at |y| = r."""
    kv = _as_kv(kv)
    t = _positive_time(t, "heat kernel time")
    r = np.asarray(r, dtype=float)
    return np.exp(-(r * r) / (4.0 * t)) / ((2.0 * t) ** (kv.lam + 1.0) * kv.c_norm)


def heat_kernel_spectral(kv, s: float, x, y):
    """Heat kernel through its frequency representation,

        (1/c_k^2) int e^(-s |xi|^2) E_k(-ix, xi) E_k(iy, xi) w_k(xi) dxi,

    evaluated axis by axis on _axis_rule(k_i, sqrt(80 / s), 128), where the
    Gaussian factor is e^(-80).  Independent of the closed form."""
    s = _positive_time(s, "heat kernel time")

    def axis(k, a, b):
        rule = _axis_rule(k, np.sqrt(80.0 / s), 128)
        ker_x, ker_y = (kernel_unitary(k, rule.nodes, p[..., None]) for p in (a, b))
        return np.sum(rule.weights * np.exp(-s * rule.nodes**2) * np.conj(ker_x) * ker_y,
                      axis=-1) / _axis_c_norm(k) ** 2

    return _axis_product(kv, axis, np.atleast_1d(x), np.atleast_1d(y))


def chapman_kolmogorov_defect(kv, s1: float, s2: float, x, y) -> float:
    """Relative defect of int Gamma_s1(x, z) Gamma_s2(z, y) w(z) dz against
    Gamma_(s1+s2)(x, y), a NumericalError where that underflows.  The integrand
    factorizes over the axes: a product of 1-D sums, each on the heat window of
    the shorter time over |x_i| to |y_i| (_heat_quadrature), where the product
    of the two kernels lives; a ResolutionError where it misses its mass."""
    s1, s2 = _positive_time(s1, "heat kernel time s1"), _positive_time(s2, "heat kernel time s2")
    kv = _as_kv(kv)
    x, y = _coords(kv, "x", x, point=True), _coords(kv, "y", y, point=True)
    if s2 < s1:  # the integrand is symmetric under (s1, x) <-> (s2, y)
        s1, s2, x, y = s2, s1, y, x

    def axis(k, a, b):
        rule, heat = _heat_quadrature(k, s1, a, b)
        return np.sum(heat * _heat_axis(k, s2, b, rule.nodes))

    lhs = float(_axis_product(kv, axis, x, y))
    rhs = float(heat_kernel(kv, s1 + s2, x, y))
    if rhs == 0.0:
        raise NumericalError(f"the heat kernel at time {s1 + s2:g} underflows at these points")
    return abs(lhs - rhs) / abs(rhs)


# ---------------------------------------------------------------------------
# translation of radial functions and spherical means


def _profile(f0, arg) -> np.ndarray:
    """f0 at the radii arg, broadcast to arg's shape (f0 may return a scalar)."""
    vals = np.asarray(f0(arg))
    if vals.shape == arg.shape:
        return vals
    try:
        return np.broadcast_to(vals, arg.shape)
    except ValueError:
        raise ConfigError(f"f0 returned shape {vals.shape} for radii of shape "
                          f"{arg.shape}; expected {arg.shape} or a scalar") from None


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
    y = _coords(kv, "y", y)
    squeeze = y.ndim == 1
    ypts = np.atleast_2d(y)
    pts, masses = intertwiner_atoms(kv, x, n_per_axis=n_per_axis)
    rx2 = float(np.sum(x * x))
    ry2 = np.sum(ypts * ypts, axis=-1)
    out = np.empty(ypts.shape[0])
    for rows in _row_blocks(ypts.shape[0], pts.shape[0]):
        cross = ypts[rows] @ pts.T
        arg = np.sqrt(np.maximum(rx2 + ry2[rows, None] - 2.0 * cross, 0.0))
        # einsum sums each row in one order whatever the block's row count
        # (BLAS gemv does not), so the result does not depend on the blocks
        out[rows] = np.einsum("ij,j->i", _profile(f0, arg), masses)
    return out[0] if squeeze else out


def translated_normalization_defect(kv, t: float, x) -> float:
    """Mass defect of the translated heat profile:

        | int tau_x F_t(y) w_k(y) dy  -  1 |

    with F_t the radial heat profile.  Exercises the translation and the
    weighted quadrature together; the closed-form heat kernel enters only the
    mass checks of the y-rules, whose tensor grid couples the heat windows of
    the x_i (_heat_quadrature) over 40^N intertwiner atoms.
    """
    t = _positive_time(t, "heat kernel time")
    kv = _as_kv(kv)
    x = _coords(kv, "x", x, point=True)
    rules = [_heat_quadrature(k, t, x_i)[0] for k, x_i in zip(kv.k, x)]
    pts, wts = _tensor_grid([r.nodes for r in rules], [r.weights for r in rules])
    vals = radial_translate(kv, lambda r: radial_heat_profile(kv, t, r), x, pts, n_per_axis=40)
    return abs(float(np.sum(wts * vals)) - 1.0)


def _spectral_mean_weights(plan: TransformPlan, x, t: float):
    """w(xi) E_k(ix, xi) j_lam(t |xi|) / c_k as (axes, radial): per axis, w E_k
    on all its nodes; j_lam(t |xi|) / c_k once per distinct |xi| of the plan,
    which radial[plan._radius_index] spreads onto plan.freq_shape.
    """
    kv = plan.kv
    axes = [rule.weights * kernel_unitary(k, x_i, rule.nodes)
            for k, x_i, rule in zip(kv.k, x, plan.freq_rules)]
    return axes, bessel_j(kv.lam, t * plan._radii) / kv.c_norm


def spherical_mean_spectral(kv, plan: TransformPlan, fhat_values: np.ndarray,
                            x, t: float):
    """Spherical mean from transform data:

        M_f(x, t) = (1/c_k) int fhat(xi) E_k(ix, xi) j_lam(t |xi|) w_k(xi) dxi.

    fhat_values are the transform samples on the plan's frequency grid
    (shape plan.freq_shape, or raveled); kv must be the plan's.  Exact for
    band-limited data up to quadrature error; works for any f whose
    transform decays inside the plan extent.

    Axes i >= 2 fold into magnitudes, a_i(+m) fhat(+m) + a_i(-m) fhat(-m), and
    axis 1's rows meet the radial factor on the folded grid in dot products: a
    few passes over fhat, one j_lam per distinct |xi|, no weights on the full grid.
    """
    kv = _as_kv(kv)
    if kv != plan.kv:
        raise ConfigError(f"multiplicity {kv.k} does not match the plan's {plan.kv.k}")
    fhat = np.asarray(fhat_values)
    size = int(np.prod(plan.freq_shape))
    if fhat.shape not in (plan.freq_shape, (size,)):
        raise ConfigError(f"fhat_values has shape {fhat.shape}; expected {plan.freq_shape} "
                          f"or ({size},)")
    x = _coords(kv, "x", x, point=True)
    if np.ndim(t) != 0:
        raise ConfigError(f"t must be a scalar radius, got shape {np.shape(t)}")
    t = _finite(t, "t")
    axes, radial = _spectral_mean_weights(plan, x, t)
    out = fhat.reshape(plan.freq_shape)
    for i in range(kv.n_axes - 1, 0, -1):
        m, a = axes[i].size // 2, axes[i].reshape((-1,) + (1,) * (kv.n_axes - 1 - i))
        left, right = np.split(out, 2, axis=i)
        out = right * a[m:]
        out += np.flip(left, i) * a[m - 1::-1]
    folded = (slice(None),) + tuple(slice(n // 2, None) for n in plan.freq_shape[1:])
    radial = np.take(radial, plan._radius_index[folded]).reshape(axes[0].size, -1)
    return axes[0] @ np.einsum("jq,jq->j", out.reshape(axes[0].size, -1), radial)


def spherical_mean_radial(kv, f0, x, t, n: int = 256):
    """Spherical mean of a radial function f = f0(|.|) at every N: by the radial
    product formula, |.| pushes the mean measure sigma_{x,t} onto the
    Bessel-Kingman point convolution of |x| and t at the radial index lam,

        M_f(x, t) = int f0(sqrt(|x|^2 + t^2 - 2 |x| t u)) dG_lam(u),

    G_lam the angle law of bessel_kingman, whatever the direction of x.  One
    n-node rule of G_lam, exact to degree 2n - 1 in u, serves every radius;
    kinks such as |r - 1| converge only algebraically, hence the large default.
    t is one radius (a float comes back) or an array of radii (one mean each).
    """
    kv = _as_kv(kv)
    n = _node_count(n, "n")
    x = _coords(kv, "x", x, point=True)
    radii = _floats(t, "t")
    r = radii.ravel()
    rx2 = reduce(lambda s, c: s + c * c, x.tolist(), 0.0)  # floats: an overflow is inf, unwarned
    top = float(np.abs(r).max(initial=0.0))  # NaN if some radius is
    if not math.isfinite(rx2 + top * top):
        raise ConfigError("t must be finite, with |x|^2 + t^2 inside the float range")
    means = np.empty(r.size)
    for rows, z, w in _pair_nodes(kv.lam, r, np.full(r.size, math.sqrt(rx2)), n):
        means[rows] = np.einsum("ik,k->i", _profile(f0, z).reshape(len(z), -1), w)
    return float(means[0]) if radii.ndim == 0 else means.reshape(radii.shape)


def spherical_mean_wave(kv, z, x, t: float):
    """Closed form of the spherical mean of the kernel wave y -> E_k(iy, z):

        M(x, t) = E_k(ix, z) j_lam(t |z|).

    The wave is an eigenfunction of the mean operator; the product-formula
    suite holds the rank-one mean measure to this value.
    """
    kv = _as_kv(kv)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return dunkl_kernel_unitary(kv, np.atleast_1d(np.asarray(x, dtype=float)), z) \
        * bessel_j(kv.lam, t * float(np.sqrt(np.sum(z * z))))


# ---------------------------------------------------------------------------
# bump functions


def radial_bump(radius: float, order: int = 10):
    """Smooth nonnegative radial profile supported exactly in [0, radius]."""
    radius = _finite(radius, "bump radius")
    if radius <= 0:
        raise ConfigError(f"bump radius must be positive, got {radius}")
    order = _node_count(order, "bump order")

    def f0(r):
        r = np.asarray(r, dtype=float)
        # |r| >= radius gives u^2 >= 1, so the core is 0 there; NaN stays in
        out, inside = np.zeros(r.shape), ~(np.abs(r) >= radius)
        u = r[inside] / radius
        out[inside] = np.clip(1.0 - u * u, 0.0, None) ** order * np.exp(-(u * u))
        return out[()]

    return f0


def bump(center, radius: float, order: int = 10):
    """Smooth nonnegative bump supported exactly in the ball B(center, radius)."""
    center = np.array([_finite(c, "bump center") for c in np.ravel(center)])
    f0, radius = radial_bump(radius, order), float(radius)

    def f(pts):
        pts = np.asarray(pts, dtype=float)
        # a point |p_i - c_i| >= radius away on some axis is outside the ball
        near = np.all([~(np.abs(p_i - c_i) >= radius)
                       for p_i, c_i in zip(np.moveaxis(pts, -1, 0), center)], axis=0)
        out = np.zeros(near.shape)
        out[near] = f0(np.sqrt(np.sum((pts[near] - center) ** 2, axis=-1)))
        return out[()]

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
