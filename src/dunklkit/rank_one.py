"""Rank-one Dunkl analysis on the real line, multiplicity k >= 0.

The kernel E_k(z, w) depends on z, w only through u = z w:

    E_k = j_{k-1/2}(i u) + u / (2k+1) j_{k+1/2}(i u),

with E_0(z, w) = exp(zw).  The generalized translation of point masses is
a signed measure: the radial part is the Bessel-Kingman convolution at
index k - 1/2, whose node z has angle node u (z^2 = a^2 + b^2 - 2abu),
mirrored to +/-z with weights that are linear in u / z.  Averaging the
translation over t and -t yields the spherical mean measure, which is a
probability measure for every k >= 0.

The intertwiner measure at x is b_k (1 - u^2)^(k-1) (1 + u) du at xi = x u:
the Bessel-Kingman angle law at index k - 1/2 (bessel_kingman._angle_rule)
tilted by (1 + u), with b_k = Gamma(k + 1/2) / (sqrt(pi) Gamma(k)).  On the
n-node angle rule, with masses w (1 + u), it is exact for polynomials in u up
to degree 2n - 2; core.intertwiner_atoms takes these nodes on every axis.
"""

from __future__ import annotations

import numpy as np

from .bessel_kingman import _angle_rule, _point_nodes
from .errors import ConfigError, _finite, _node_count
from .measures import LineMeasure
from .special import bessel_j, bessel_j_imag

__all__ = [
    "kernel_real",
    "kernel_unitary",
    "signed_product_measure",
    "spherical_mean_measure",
    "spherical_mean",
]


def _check_k(k: float) -> float:
    k = _finite(k, "multiplicity")
    if k < 0:
        raise ConfigError(f"multiplicity must be nonnegative, got {k}")
    return k


def kernel_real(k: float, x, y):
    """E_k(x, y) for real x, y; real-valued, symmetric, E_k(x, 0) = 1."""
    k = _check_k(k)
    u = np.asarray(x, dtype=float) * np.asarray(y, dtype=float)
    return bessel_j_imag(k - 0.5, u) + u / (2.0 * k + 1.0) * bessel_j_imag(k + 0.5, u)


def kernel_unitary(k: float, x, y):
    """E_k(i x, y) for real x, y: the bounded character, |value| <= 1."""
    k = _check_k(k)
    u = np.asarray(x, dtype=float) * np.asarray(y, dtype=float)
    return bessel_j(k - 0.5, u) + 1j * u / (2.0 * k + 1.0) * bessel_j(k + 0.5, u)


def _mirrored_measure(k: float, a: float, b: float, split, n: int) -> LineMeasure:
    """Signed measure on +/-z built from the radial convolution of a, b > 0.

    split(z, u) returns the weights (w_plus, w_minus) that send the radial
    node z, of angle node u (z^2 = a^2 + b^2 - 2 a b u), to +z and -z.
    """
    z, masses, dens_radial, u = _point_nodes(k - 0.5, a, b, n)
    w_plus, w_minus = split(z, u)
    # node density of the signed measure = radial density times the split weight
    grid = np.concatenate([-z[::-1], z])
    node_dens = np.concatenate([(dens_radial * w_minus)[::-1], dens_radial * w_plus])
    node_mass = np.concatenate([(masses * w_minus)[::-1], masses * w_plus])
    # nodes rounded onto the edge of a band a few ulps wide have density 0: atoms keep their mass
    edge = (node_dens == 0.0) & (node_mass != 0.0)
    return LineMeasure._from_node_masses(grid, node_dens, node_mass, lam=k,
                                         atoms=list(zip(grid[edge], node_mass[edge])))


def signed_product_measure(k: float, x: float, y: float, n: int = 128) -> LineMeasure:
    """Product-formula measure mu_{x,y}: for every real or imaginary s,

        E_k(x, s) E_k(y, s) = int E_k(z, s) dmu_{x,y}(z).

    Signed in general, total mass 1, supported on +/-[||x|-|y||, |x|+|y|];
    k = 0 degenerates to the point mass at x+y.  Convention note: pairing
    a radial profile with mu_{x,-y} reproduces kernels of the heat type,
    Gamma_t(x, y) = int F_t(|z|) dmu_{x,-y}(z); the reflection is the
    usual character-convention twist between convolution and semigroup
    pairing.

    The radial node z of angle node u goes to +z and -z with weights
    (1 - s1 +/- s23) / 2, where s1 = sign(xy) u and
    s23 = (sign(x) (|x| - |y| u) + sign(y) (|y| - |x| u)) / z: the
    cosine-rule coefficients of the triangle (|x|, |y|, z) without the
    cancellation of z^2 + x^2 - y^2 when min(|x|, |y|) << max(|x|, |y|).
    """
    k, n = _check_k(k), _node_count(n, "n")
    x, y = _finite(x, "x"), _finite(y, "y")
    if k == 0.0:
        return LineMeasure(atoms=[(x + y, 1.0)], lam=k)
    hi = abs(x) + abs(y)
    # the convolution nodes live on a band of width 2 min(|x|,|y|); once
    # that is below float resolution of the band location the node set
    # collapses, and the measure is the point mass to the same accuracy
    if min(abs(x), abs(y)) <= 1e-11 * hi or hi < 1e-150:
        return LineMeasure(atoms=[(x + y, 1.0)], lam=k)
    a, b = abs(x), abs(y)

    def split(z, u):
        s1 = np.sign(x * y) * u
        s23 = (np.sign(x) * (a - b * u) + np.sign(y) * (b - a * u)) / z
        return 0.5 * (1.0 - s1 + s23), 0.5 * (1.0 - s1 - s23)

    return _mirrored_measure(k, a, b, split, n)


def spherical_mean_measure(k: float, x: float, t: float, n: int = 128) -> LineMeasure:
    """Probability measure sigma_{x,t} representing the spherical mean:

        M_f(x, t) = int f dsigma_{x,t} = (tau_x f(t) + tau_x f(-t)) / 2.

    Supported on +/-[||x|-t|, |x|+t]; weights (1 +/- sigma)/2 stay in
    [0, 1] on that set for every k >= 0 and every real x.
    """
    k, n = _check_k(k), _node_count(n, "n")
    x, t = _finite(x, "x"), abs(_finite(t, "t"))
    if t <= 1e-11 * abs(x):
        return LineMeasure(atoms=[(x, 1.0)], lam=k)
    if k == 0.0 or abs(x) + t < 1e-150:
        # classical mean: half mass at x - t and x + t
        return LineMeasure(atoms=[(x - t, 0.5), (x + t, 0.5)], lam=k)
    # same band-collapse threshold as the product measure
    if abs(x) <= 1e-11 * t:
        return LineMeasure(atoms=[(-t, 0.5), (t, 0.5)], lam=k)

    def split(z, u):
        # the product split averaged over y = +/-t: s1 and the y-term of s23 cancel
        sig = np.sign(x) * (abs(x) - t * u) / z
        return 0.5 * (1.0 + sig), 0.5 * (1.0 - sig)

    return _mirrored_measure(k, abs(x), t, split, n)


def spherical_mean(k: float, f, x: float, t: float):
    """Evaluate the spherical mean M_f(x, t) = int f dsigma_{x,t} on the 128-node measure."""
    return spherical_mean_measure(k, x, t, n=128).integrate(f)


def _intertwiner_nodes(k: float, x: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes x u and masses w (1 + u) of the intertwiner measure on
    the n-node angle rule (u, w) at index k - 1/2; the point mass at x when
    k = 0 or x = 0."""
    if k == 0.0 or x == 0.0:
        return np.array([x]), np.ones(1)
    u, w = _angle_rule(k - 0.5, n)
    nodes, masses = x * u, w * (1.0 + u)
    return (nodes, masses) if x > 0 else (nodes[::-1], masses[::-1])

