"""Line and radial measures as density-on-nodes plus point atoms.

A measure is stored as nodes, a density with respect to dr at the nodes,
quadrature weights for the node set, and a list of explicit atoms.  The
single integration contract is

    integral f dmu  =  sum_i weights_i * density_i * f(nodes_i)
                       + sum_a mass_a * f(position_a).

Measures produced by the convolution machinery carry Gauss nodes, so the
contract is spectrally accurate for smooth f even when the density has
integrable endpoint singularities (the singular factors live inside the
weights).  Trapezoid weights are filled in for plain sampled grids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, PositivityError, _node_count

__all__ = [
    "LineMeasure",
    "RadialProfileMeasure",
    "dirac",
    "measure_to_json",
    "measure_from_json",
    "as_weighted_atoms",
    "deposit_on_grid",
]


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    if grid.size == 1:
        return np.zeros(1)
    w = np.empty_like(grid)
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    return w


@dataclass
class LineMeasure:
    """Density-plus-atoms measure on the line (weights may be signed).

    grid and density default to empty, so an atom-only measure needs
    just its atoms.
    """

    grid: np.ndarray = field(default_factory=lambda: np.empty(0))
    density: np.ndarray = field(default_factory=lambda: np.empty(0))
    weights: np.ndarray | None = None
    atoms: list[tuple[float, float]] = field(default_factory=list)
    lam: float | None = None
    # optional analytic density, used by mixture constructions; not serialized
    density_fn: Callable | None = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.density = np.asarray(self.density, dtype=float)
        if self.grid.shape != self.density.shape:
            raise ConfigError("grid and density must have the same shape")
        if self.grid.size > 1 and np.any(np.diff(self.grid) <= 0):
            raise ConfigError("grid must be strictly increasing")
        if self.weights is None:
            self.weights = _trapezoid_weights(self.grid) if self.grid.size else np.zeros(0)
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != self.grid.shape:
                raise ConfigError("weights must match the grid")
        self.atoms = [(float(r), float(w)) for r, w in self.atoms]

    @classmethod
    def _from_node_masses(cls, grid, density, masses, **kwargs):
        """Node measure with these masses: weights masses / density, 0 where density is 0."""
        nonzero = density != 0.0
        weights = np.where(nonzero, masses / np.where(nonzero, density, 1.0), 0.0)
        return cls(grid=grid, density=density, weights=weights, **kwargs)

    @property
    def node_masses(self) -> np.ndarray:
        return self.weights * self.density

    def mass(self) -> float:
        return float(np.sum(self.node_masses) + sum(w for _, w in self.atoms))

    def total_variation(self) -> float:
        return float(np.sum(np.abs(self.node_masses)) + sum(abs(w) for _, w in self.atoms))

    def integrate(self, f) -> float | complex:
        total = 0.0
        if self.grid.size:
            total = np.sum(self.node_masses * f(self.grid))
        for r, w in self.atoms:
            total = total + w * f(np.asarray(r))
        return total

    def integrate_values(self, node_values, atom_values=None):
        """Like integrate, but against precomputed values at nodes/atoms.

        node_values may have extra trailing axes (vectorized integrands);
        the contraction runs over the leading node axis.
        """
        total = 0.0
        if self.grid.size:
            total = total + np.tensordot(self.node_masses, np.asarray(node_values),
                                         axes=([0], [0]))
        if self.atoms:
            if atom_values is None:
                raise ConfigError("atom_values required when the measure has atoms")
            masses = np.array([w for _, w in self.atoms])
            total = total + np.tensordot(masses, np.asarray(atom_values), axes=([0], [0]))
        return total

    def support_bounds(self) -> tuple[float, float]:
        points = []
        if self.grid.size:
            points.extend([self.grid[0], self.grid[-1]])
        points.extend(r for r, _ in self.atoms)
        if not points:
            raise ConfigError("empty measure has no support")
        return min(points), max(points)

    def check_probability(self, tol: float = 1e-10) -> None:
        m = self.mass()
        if abs(m - 1.0) > tol:
            raise PositivityError(f"measure mass {m} differs from 1 beyond {tol}")
        neg = 0.0
        if self.grid.size:
            neg = min(0.0, float(np.min(self.node_masses)))
        for _, w in self.atoms:
            neg = min(neg, w)
        if neg < -tol:
            raise PositivityError(f"negative mass {neg} beyond tolerance {tol}")


class RadialProfileMeasure(LineMeasure):
    """Measure on [0, infinity); nodes and atoms must be nonnegative."""

    def __post_init__(self):
        super().__post_init__()
        if self.grid.size and self.grid[0] < 0:
            raise ConfigError("radial measure must live on [0, inf)")
        if any(r < 0 for r, _ in self.atoms):
            raise ConfigError("radial atoms must sit at r >= 0")


def dirac(position: float, cls=RadialProfileMeasure, lam: float | None = None):
    """Unit point mass."""
    return cls(atoms=[(position, 1.0)], lam=lam)


def measure_to_json(mu: LineMeasure, meta: dict | None = None) -> str:
    """json.dumps of the measure's fields (and meta), byte for byte; bitwise
    uniform weights, as a grid deposit gives, are formatted once."""
    bits = mu.weights.view(np.int64)
    if bits.ndim == 1 and bits.size and (bits == bits[0]).all():
        weights = "[" + ", ".join([json.dumps(mu.weights[0].item())] * bits.size) + "]"
    else:
        weights = json.dumps(mu.weights.tolist())
    payload = {
        "grid": mu.grid.tolist(),
        "density": mu.density.tolist(),
        "weights": None,
        "atoms": [[r, w] for r, w in mu.atoms],
        "lambda": mu.lam,
    }
    if meta:
        payload["meta"] = dict(meta)
    return "{" + ", ".join(f"{json.dumps(k)}: {weights if k == 'weights' else json.dumps(v)}"
                           for k, v in payload.items()) + "}"


def measure_from_json(text: str, cls=RadialProfileMeasure) -> LineMeasure:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"measure JSON is invalid: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"measure JSON must be an object, got {type(payload).__name__}")
    known = {"grid", "density", "weights", "atoms", "lambda", "meta"}
    extra = set(payload) - known
    if extra:
        raise ConfigError(f"unknown measure keys: {sorted(extra)}")
    for key in ("grid", "density"):
        if key not in payload:
            raise ConfigError(f"measure JSON misses '{key}'")
    lam = payload.get("lambda")
    if lam is not None and type(lam) not in (int, float):
        raise ConfigError(f"measure 'lambda' must be null or a number, got {lam!r}")
    try:
        arrays = {key: np.asarray(payload[key], dtype=float) for key in ("grid", "density", "weights")
                  if key != "weights" or payload.get(key) is not None}
        atoms = [(float(r), float(w)) for r, w in payload.get("atoms", [])]
        finite = np.isfinite(float(lam or 0.0)) and np.isfinite(atoms).all()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"measure JSON holds a non-numeric or malformed entry: {exc}") from exc
    if any(a.ndim != 1 for a in arrays.values()):
        raise ConfigError("measure 'grid', 'density' and 'weights' must be flat lists")
    if not (finite and all(np.isfinite(a).all() for a in arrays.values())):
        raise ConfigError("measure JSON holds a NaN or infinite number")
    return cls(**arrays, atoms=atoms, lam=lam)


def as_weighted_atoms(mu: LineMeasure, cap: int = 1024) -> tuple[np.ndarray, np.ndarray]:
    """Collapse a measure to weighted point masses.

    Gauss-type node sets are already optimal atom placements, so they are
    returned as-is whenever the count fits the cap.  Larger node sets are
    binned mass-preservingly (equal-count bins, atoms at mass centroids),
    positive and negative parts separately so signed measures stay honest.
    """
    pos = mu.grid
    mass = mu.node_masses if mu.grid.size else np.zeros(0)
    if mu.atoms:
        pos = np.concatenate([pos, [r for r, _ in mu.atoms]])
        mass = np.concatenate([mass, [w for _, w in mu.atoms]])
    if pos.size <= cap:
        return pos, mass
    order = np.argsort(pos)
    pos, mass = pos[order], mass[order]
    out_p, out_m = [], []
    for sign in (1.0, -1.0):
        sel = mass * sign > 0
        if not np.any(sel):
            continue
        p, m = pos[sel], mass[sel]
        n_bins = max(1, cap // (2 if np.any(mass < 0) and np.any(mass > 0) else 1))
        edges = np.linspace(0, p.size, min(n_bins, p.size) + 1).astype(int)
        for a, b in zip(edges[:-1], edges[1:]):
            if a == b:
                continue
            mm = m[a:b].sum()
            out_p.append(np.sum(p[a:b] * m[a:b]) / mm)
            out_m.append(mm)
    order = np.argsort(out_p)
    return np.asarray(out_p)[order], np.asarray(out_m)[order]


def deposit_on_grid(positions: np.ndarray, masses: np.ndarray,
                    grid: np.ndarray) -> np.ndarray:
    """Deposit point masses onto a uniform grid, returning node masses.

    Each point is spread over the four surrounding nodes with cubic
    Lagrange weights, which preserves total mass exactly and the first
    three moments to rounding.  The deposit error for a smooth test
    function then scales like h^4.
    """
    h = grid[1] - grid[0]
    out = np.zeros(grid.size)
    # index of the left neighbor, clamped so the 4-point stencil fits
    idx = np.clip(((positions - grid[0]) / h).astype(int), 1, grid.size - 3)
    s = (positions - grid[idx]) / h  # offset in units of h, may leave [0,1) at edges
    # weight * mass per stencil node, built in one buffer:
    # -s(s-1)(s-2)/6, (s+1)(s-1)(s-2)/2, -(s+1)s(s-2)/2, (s+1)s(s-1)/6,
    # the sign moved into the divisor (exact, so the bits do not change)
    sm1, sm2, sp1 = s - 1.0, s - 2.0, s + 1.0
    buf = np.empty_like(s)
    for off, a, b, c, d in ((-1, s, sm1, sm2, -6.0), (0, sp1, sm1, sm2, 2.0),
                            (1, sp1, s, sm2, -2.0), (2, sp1, s, sm1, 6.0)):
        np.multiply(a, b, out=buf)
        buf *= c
        buf /= d
        buf *= masses
        np.add.at(out, idx + off, buf)
    return out


_ATOM_CAP = 2048  # atoms per input a convolution keeps before binning its node set


def _atom_pairs(mu: LineMeasure, nu: LineMeasure, atom_cap: int = _ATOM_CAP):
    """Both inputs of a convolution as weighted atoms, at least one each."""
    atom_cap = _node_count(atom_cap, "atom_cap")
    ax, aw = as_weighted_atoms(mu, cap=atom_cap)
    bx, bw = as_weighted_atoms(nu, cap=atom_cap)
    if ax.size == 0 or bx.size == 0:
        raise ConfigError("cannot convolve an empty measure")
    return ax, aw, bx, bw


# Elements per float64 temporary (256 KiB) of the pair pipelines: radial
# translation and the convolution engine work through their (row, column)
# pairs in blocks of this size, so each step's arrays stay in cache.
_BLOCK = 2**15


def _row_blocks(n_rows: int, row_len: int):
    """Slices covering range(n_rows), each of at most _BLOCK // row_len rows
    and at least one row."""
    step = max(1, _BLOCK // row_len)
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def _grid_measure(cls, lo: float, hi: float, grid_n: int, pieces, **kwargs):
    """Deposit the (positions, masses) pieces on the uniform grid of grid_n
    nodes over [lo, hi]; the result has density node_mass / h and weights h."""
    grid = np.linspace(lo, hi, grid_n)
    node_mass = np.zeros(grid_n)
    for positions, masses in pieces:
        node_mass += deposit_on_grid(positions, masses, grid)
    h = grid[1] - grid[0]
    return cls(grid=grid, density=node_mass / h, weights=np.full(grid_n, h), **kwargs)
