"""Dunkl analysis for the sign-change groups Z_2^N on R^N.

Conventions: the reflection group is generated by the coordinate sign
flips sigma_i, the root system is {+-sqrt(2) e_i} so each root has
squared length 2, and one multiplicity k_i >= 0 is attached per axis.
The weight is

    w_k(x) = prod_i |<x, sqrt(2) e_i>|^(2 k_i) = prod_i (2 x_i^2)^(k_i),

homogeneous of degree 2 gamma with gamma = sum k_i.  Everything in this
module factorizes over axes, which is what makes the N-dimensional
theory computable: kernels are products of rank-one kernels and the
intertwining measure is a product of one-dimensional ones.
"""

from __future__ import annotations

import itertools
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from . import rank_one
from .errors import ConfigError, _floats, _node_count
from .quadrature import _tensor_grid
from .special import bessel_j

__all__ = [
    "MultiplicityVector",
    "group_elements",
    "dunkl_operator",
    "dunkl_laplacian",
    "dunkl_kernel",
    "dunkl_kernel_unitary",
    "generalized_bessel_unitary",
    "intertwiner_atoms",
    "alternating_sum_bessel",
]

_AXIS_TOL = 1e-9  # coordinates this small are treated as exactly on the wall
_H_OPERATOR, _H_LAPLACIAN = 1e-5, 1e-4  # finite-difference steps of the two operators


@dataclass(frozen=True)
class MultiplicityVector:
    """Nonnegative multiplicity per coordinate axis: k is one real number
    (one axis) or a 1-D sequence or array of them; strings, bytes and bools
    are not numbers here."""

    k: tuple[float, ...]

    def __post_init__(self):
        k = self.k.tolist() if isinstance(self.k, np.ndarray) else self.k
        k = (k,) if _is_real(k) else k
        if not isinstance(k, Sequence) or isinstance(k, (str, bytes)) or not all(map(_is_real, k)):
            raise ConfigError(f"multiplicity must be a real number or a 1-D sequence of them, "
                              f"got {self.k!r}")
        if len(k) == 0:
            raise ConfigError("need at least one axis")
        object.__setattr__(self, "k", tuple(rank_one._check_k(v) for v in k))

    @property
    def n_axes(self) -> int:
        return len(self.k)

    @property
    def gamma(self) -> float:
        return float(sum(self.k))

    @property
    def lam(self) -> float:
        """Radial index gamma + N/2 - 1; j_lam governs radializations."""
        return self.gamma + 0.5 * self.n_axes - 1.0

    @cached_property
    def c_norm(self) -> float:
        """Gaussian normalization: integral of e^(-|x|^2/2) w_k over R^N."""
        return float(np.prod([_axis_c_norm(ki) for ki in self.k]))

    @cached_property
    def d_norm(self) -> float:
        """Sphere mass: integral of w_k over the unit sphere S^(N-1)."""
        lam = self.lam
        return self.c_norm / (2.0**lam * np.exp(gammaln(lam + 1.0)))


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


def _axis_c_norm(k: float) -> float:
    """One axis of c_norm: integral of e^(-x^2/2) (2 x^2)^k over R."""
    return 2.0 ** (2.0 * k + 0.5) * float(np.exp(gammaln(k + 0.5)))


def _as_kv(kv) -> MultiplicityVector:
    return kv if isinstance(kv, MultiplicityVector) else MultiplicityVector(kv)


def _coords(kv: MultiplicityVector, name: str, p, point: bool = False) -> np.ndarray:
    """p as a float array whose last axis holds the N finite coordinates;
    with point=True, one point of shape (N,) (a scalar serves for N = 1)."""
    p = np.atleast_1d(_floats(p, name)) if point else _floats(p, name)
    if p.shape[-1:] != (kv.n_axes,) or (point and p.ndim != 1):
        raise ConfigError(f"{name} has shape {p.shape}; " + (
            f"expected one point of shape ({kv.n_axes},)" if point else
            f"its last axis must hold the {kv.n_axes} coordinates"))
    if not np.isfinite(p).all():
        raise ConfigError(f"{name} has a non-finite coordinate")
    return p


def group_elements(N: int) -> np.ndarray:
    """All 2^N sign vectors, one row per group element."""
    if N > 20:
        raise ConfigError(f"2^{N} group elements is not a computation you want")
    return np.array(list(itertools.product((1.0, -1.0), repeat=N)))


# ---------------------------------------------------------------------------
# differential-difference operators (finite differences in the smooth part)


def _partial(f, x, i, h):
    e = np.zeros_like(x)
    e[i] = 1.0
    return (-f(x + 2*h*e) + 8.0*f(x + h*e) - 8.0*f(x - h*e) + f(x - 2*h*e)) / (12.0 * h)


def _partial2(f, x, i, h):
    e = np.zeros_like(x)
    e[i] = 1.0
    return (-f(x + 2*h*e) + 16.0*f(x + h*e) - 30.0*f(x)
            + 16.0*f(x - h*e) - f(x - 2*h*e)) / (12.0 * h * h)


def _reflected(x, i):
    y = np.array(x, dtype=float)
    y[i] = -y[i]
    return y


def dunkl_operator(kv, f, x, xi) -> float:
    """Dunkl operator T_xi f(x) for a scalar callable f on R^N:

        T_xi f = d_xi f + sum_i k_i xi_i (f(x) - f(sigma_i x)) / x_i.

    The derivative takes fourth-order central differences, step _H_OPERATOR;
    the difference part is exact, with the wall limit
    (f - f o sigma_i)/x_i -> 2 d_i f picked up automatically at x_i = 0.
    """
    kv = _as_kv(kv)
    x, xi = _coords(kv, "x", x, point=True), _coords(kv, "xi", xi, point=True)
    total = sum(xi[i] * _partial(f, x, i, _H_OPERATOR)
                for i in range(kv.n_axes) if xi[i] != 0.0)
    fx = f(x)
    for i, ki in enumerate(kv.k):
        if ki == 0.0 or xi[i] == 0.0:
            continue
        if abs(x[i]) > _AXIS_TOL:
            total += ki * xi[i] * (fx - f(_reflected(x, i))) / x[i]
        else:
            # odd-part derivative: (f(x + s e_i) - f(x - s e_i)) / s at s -> 0
            total += ki * xi[i] * (2.0 * _partial(f, x, i, _H_OPERATOR))
    return float(total)


def dunkl_laplacian(kv, f, x) -> float:
    """Dunkl Laplacian sum_i T_i^2 f(x), in its explicit one-reflection form:

        Delta_k f = Delta f + sum_i k_i [ 2 d_i f / x_i - (f - f o sigma_i) / x_i^2 ].

    Derivatives are fourth-order differences of step _H_LAPLACIAN.  On a
    wall x_i = 0 the bracket degenerates to 2 k_i d_i^2 f.  Points very
    close to (but not on) a wall suffer the cancellation inherent in the
    bracket; keep |x_i| either zero or above ~1e-4 for full accuracy.
    """
    kv = _as_kv(kv)
    x, h = _coords(kv, "x", x, point=True), _H_LAPLACIAN
    total = sum(_partial2(f, x, i, h) for i in range(kv.n_axes))
    fx = f(x)
    for i, ki in enumerate(kv.k):
        if ki == 0.0:
            continue
        if abs(x[i]) > _AXIS_TOL:
            total += ki * (2.0 * _partial(f, x, i, h) / x[i]
                           - (fx - f(_reflected(x, i))) / (x[i] * x[i]))
        else:
            total += 2.0 * ki * _partial2(f, x, i, h)
    return float(total)


# ---------------------------------------------------------------------------
# kernels


def _axis_product(kv, factor, x, y):
    """prod_i factor(k_i, x_i, y_i), axis 0 first; x, y broadcast over
    leading axes (last axis = coordinates)."""
    kv = _as_kv(kv)
    x = _coords(kv, "x", x)
    y = _coords(kv, "y", y)
    out = factor(kv.k[0], x[..., 0], y[..., 0])
    for i, ki in enumerate(kv.k[1:], start=1):
        out = out * factor(ki, x[..., i], y[..., i])
    return out


def dunkl_kernel(kv, x, y):
    """E_k(x, y) for real arguments; the product of rank-one kernels.

    x, y broadcast over leading axes (last axis = coordinates).
    E_k(x, 0) = 1, E_k is symmetric, and E_k(x, y) > 0 on real pairs.
    """
    return _axis_product(kv, rank_one.kernel_real, x, y)


def dunkl_kernel_unitary(kv, x, y):
    """E_k(i x, y) for real x, y: bounded by 1 in modulus."""
    return _axis_product(kv, rank_one.kernel_unitary, x, y)


def generalized_bessel_unitary(kv, x, y):
    """Group average of E_k(i x, y) = prod_i j_{k_i - 1/2}(x_i y_i); real output."""
    return _axis_product(kv, lambda k, a, b: bessel_j(k - 0.5, a * b), x, y)


def intertwiner_atoms(kv, x, n_per_axis: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Product intertwining measure at x as points and masses.

    Returns (points, masses) with points.shape = (M, N); the measure is a
    probability measure on the box [-|x_1|, |x_1|] x ... and

        V_k f(x) = sum_j masses_j f(points_j),
        int e^(<xi, y>) dmu_x(xi) = E_k(x, y).
    """
    kv = _as_kv(kv)
    x = _coords(kv, "x", x, point=True)
    n_per_axis = _node_count(n_per_axis, "n_per_axis")
    nodes, masses = zip(*(rank_one._intertwiner_nodes(ki, float(xi), n_per_axis)
                          for ki, xi in zip(kv.k, x)))
    return _tensor_grid(nodes, masses)


# ---------------------------------------------------------------------------
# multiplicity-one generalized Bessel via the alternating group sum


def _sinhc(u):
    """sinh(u)/u with the removable singularity filled by its series."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-4
    out = np.empty_like(u)
    us = u[small]
    out[small] = 1.0 + us * us / 6.0 * (1.0 + us * us / 20.0)
    ub = u[~small]
    out[~small] = np.sinh(ub) / ub
    return out[()] if out.ndim == 0 else out


def alternating_sum_bessel(x, y):
    """Generalized Bessel function at multiplicity one per axis, via the
    Weyl-type alternating sum

        J(x, y) = sum_g det(g) e^(<x, g y>) / (2^N pi(x) pi(y)),

    pi(v) = prod_i v_i.  For the sign-change groups the sum factorizes
    axis by axis into sinh(x_i y_i)/(x_i y_i), which is how zeros of pi
    are handled (each axis switches to its series near u_i = 0).  Equals
    prod_i j_{1/2}(i x_i y_i).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 0:
        x = x[None]
    if y.ndim == 0:
        y = y[None]
    return np.prod(_sinhc(np.atleast_1d(x * y)), axis=-1)
