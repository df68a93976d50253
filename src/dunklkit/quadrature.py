"""Quadrature rules used throughout the package.

Everything here is a thin, explicit layer over Gauss rules from
scipy.special.  The convention is uniform: a rule is a pair of node and
weight arrays such that ``sum(w * f(x))`` approximates the target
integral, with any singular endpoint factors absorbed into the weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import QuadratureError

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "gauss_jacobi",
    "panel_gauss_legendre",
    "log_panel_rule",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for ``integral ~ sum(weights * f(nodes))``."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must have matching shapes")

    @property
    def n(self) -> int:
        return self.nodes.size

    def integrate(self, f) -> float | complex:
        return np.sum(self.weights * f(self.nodes))


@lru_cache(maxsize=128)
def _gauss_roots(family: str, n: int, alpha: float = 0.0, beta: float = 0.0):
    """The n-point Gauss rule on [-1, 1], "legendre" or "jacobi" for (1-x)^alpha (1+x)^beta;
    shared, hence read-only.  A hit returns the arrays scipy built on the miss.
    A rule scipy cannot build in floats (huge exponents) is a QuadratureError."""
    with np.errstate(all="ignore"):  # scipy's own overflow shows up as non-finite output
        x, w = roots_legendre(n) if family == "legendre" else roots_jacobi(n, alpha, beta)
    if not (np.isfinite(x).all() and np.isfinite(w).all()):
        raise QuadratureError(f"the {n}-point Gauss-{family} rule ({alpha}, {beta}) "
                              "overflows the float range")
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with n nodes on [a, b]."""
    x, w = _gauss_roots("legendre", n)
    half = 0.5 * (b - a)
    return QuadratureRule(a + half * (x + 1.0), half * w)


def gauss_jacobi(n: int, alpha: float, beta: float, a: float, b: float) -> QuadratureRule:
    """Gauss-Jacobi rule on [a, b] for the weight (b-x)^alpha (x-a)^beta.

    The endpoint factors are folded into the returned weights, so the
    caller integrates only the smooth remainder of the integrand:

        integral_a^b g(x) (b-x)^alpha (x-a)^beta dx ~ sum(w * g(nodes)).

    Requires alpha, beta > -1, and weights inside the float range.
    """
    if alpha <= -1.0 or beta <= -1.0:
        raise QuadratureError(f"Jacobi exponents must exceed -1, got ({alpha}, {beta})")
    x, w = _gauss_roots("jacobi", n, float(alpha), float(beta))
    half = 0.5 * (b - a)
    try:  # the affine map contributes half^(alpha+beta+1) from the weight factors
        scale = float(half) ** (alpha + beta + 1.0)
    except OverflowError:
        scale = np.inf
    if scale * float(w.max()) == np.inf:  # w > 0: the largest weight overflows first
        raise QuadratureError(f"Gauss-Jacobi weights on [{a}, {b}] overflow the float range")
    return QuadratureRule(a + half * (x + 1.0), w * scale)


def _orthant_rule(n: int, k) -> tuple[np.ndarray, np.ndarray]:
    """Directions sqrt(v), shape (n^(N-1), N), and weights for the integral over
    the simplex against prod_i v_i^(k_i - 1/2) dv, the Dirichlet(k_i + 1/2) law
    of v = y^2 on the sphere's positive orthant (Dunkl and Xu, 2001).  The
    stick fractions u_j = v_j / (v_j + ... + v_N) are independent: level j is the
    n-node rule for u^(k_j - 1/2) (1 - u)^(sum_{i>j} (k_i + 1/2) - 1), tensored."""
    v, w = np.ones((1, 1)), np.ones(1)
    for j in range(len(k) - 1):
        rule = gauss_jacobi(n, k[j + 1] - 0.5 + sum(ki + 0.5 for ki in k[j + 2:]),
                            k[j] - 0.5, 0.0, 1.0)
        split = v[:, -1:, None] * np.stack([rule.nodes, 1.0 - rule.nodes], axis=-1)
        v = np.concatenate([np.repeat(v[:, :-1], n, axis=0), split.reshape(-1, 2)], axis=1)
        w = np.multiply.outer(w, rule.weights).ravel()
    return np.sqrt(v), w


def panel_gauss_legendre(edges: np.ndarray, n_per_panel) -> QuadratureRule:
    """Composite Gauss-Legendre rule over the panels defined by ``edges``.

    ``n_per_panel`` is either an int or a sequence with one entry per panel.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise QuadratureError("panel edges must be strictly increasing")
    counts = np.broadcast_to(np.asarray(n_per_panel, dtype=int), (edges.size - 1,))
    rules = [gauss_legendre(int(n), a, b) for a, b, n in zip(edges[:-1], edges[1:], counts)]
    return QuadratureRule(np.concatenate([r.nodes for r in rules]),
                          np.concatenate([r.weights for r in rules]))


def log_panel_rule(a: float, b: float, nodes_per_decade: int = 16) -> QuadratureRule:
    """Composite Gauss rule on [a, b] with panels split per decade of x.

    Suited to integrands that are smooth on a log scale over many orders
    of magnitude (subordinator densities, heavy radial tails).
    """
    if not (0.0 < a < b):
        raise QuadratureError("log panels need 0 < a < b")
    n_dec = max(1, int(np.ceil(np.log10(b / a))))
    return panel_gauss_legendre(np.geomspace(a, b, n_dec + 1), nodes_per_decade)


def _tensor_grid(nodes, weights=None):
    """Tensor product of per-axis node arrays, in C order.

    Returns the (M, N) array of all points; given per-axis weights as
    well, returns (points, product weights of shape (M,)).
    """
    mesh = np.meshgrid(*nodes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    if weights is None:
        return points
    wmesh = np.meshgrid(*weights, indexing="ij")
    return points, np.prod(np.stack([w.ravel() for w in wmesh]), axis=0)
