"""Bessel-Kingman hypergroup on [0, infinity) at index lam > -1/2.

The convolution of two point masses x, y is the probability measure

    d nu_{x,y}(z) = m_lam(x, y, z) z^(2 lam + 1) dz

supported on [|x-y|, x+y], where m_lam is the classical Bessel product
kernel (Watson's formula).  The normalized Bessel functions j_lam are the
characters: hankel(nu_{x,y}) = j_lam(x r) j_lam(y r).

Numerically the point convolution is parameterized by the Gegenbauer
angle, z(u) = sqrt(x^2 + y^2 - 2 x y u), which turns the measure into the
fixed weight (1-u^2)^(lam-1/2) du on [-1, 1].  The n-point Gauss-Jacobi
rule of that weight serves every pair (x, y), carries mass exactly 1, and
is exact to degree 2n - 1 in u, spectrally accurate for integrands even in
z (the characters are).  A measure convolution deposits its nodes on an
output grid uniform in u = c asinh(z / c), whose cells widen with z, and
sizes n per pair: a pair whose support [|x-y|, x+y] spans a few of the
local cells gains nothing from more nodes than the cubic deposit's four
cell moments use.  The pairs stream through one pipeline: per row block,
one count per pair (_pair_counts), one _pair_nodes call per run of equal
counts, and deposit pieces of at least half a block.

The same angle rule, at lam = k - 1/2, is the rank-one intertwiner: the
measure of V_k at x is the law of x u with u weighted by (1 + u) against
it (rank_one._intertwiner_nodes, which core.intertwiner_atoms takes on every
axis); at the radial index, the point convolution of |x| and t is the radial
spherical mean (transform.spherical_mean_radial).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import betainc, erf, gammainc, gammainccinv, gammaln

from . import measures
from .errors import (ConfigError, NumericalError, PositivityError, ResolutionError, _finite,
                     _node_count, _positive_time)
from .measures import RadialProfileMeasure, _grid_measure, _row_blocks, as_weighted_atoms, dirac
from .quadrature import _gauss_roots, gauss_jacobi, log_panel_rule, panel_gauss_legendre
from .special import bessel_j, bessel_j_envelope

__all__ = [
    "product_kernel",
    "convolve_points",
    "convolve_measures",
    "hankel_transform",
    "rayleigh_measure",
    "rayleigh_density",
    "rayleigh_radial_cdf",
    "cauchy_measure",
    "cauchy_radial_cdf",
    "stable_half_subordinator",
    "subordinate",
]


def _check_index(lam: float) -> float:
    lam = _finite(lam, "hypergroup index")
    if lam <= -0.5:
        raise ConfigError(f"hypergroup index must exceed -1/2, got {lam}")
    return lam


def _match_index(lam: float, *measures: RadialProfileMeasure) -> None:
    """ConfigError if a measure carries an index other than lam (beyond 1e-12)."""
    for m in measures:
        if m.lam is not None and abs(m.lam - lam) > 1e-12:
            raise ConfigError(f"profile index {m.lam} does not match lam={lam}")


def _angular_norm(lam: float) -> float:
    # Gamma(lam+1) / (sqrt(pi) Gamma(lam+1/2)); normalizes (1-u^2)^(lam-1/2) du
    return float(np.exp(gammaln(lam + 1.0) - gammaln(lam + 0.5)) / math.sqrt(math.pi))


def product_kernel(lam: float, x: float, y: float, z) -> np.ndarray:
    """Density m_lam(x, y, z) of the point convolution w.r.t. z^(2lam+1) dz.

    Vanishes outside [|x-y|, x+y].  Requires x, y > 0.
    """
    lam = _check_index(lam)
    if x <= 0 or y <= 0:
        raise ConfigError("product kernel needs x, y > 0; use convolve_points for the atoms")
    z = np.asarray(z, dtype=float)
    lo, hi = abs(x - y), x + y
    inside = (z > lo) & (z < hi)
    out = np.zeros_like(z)
    zi = z[inside]
    c = 2.0 ** (1.0 - 2.0 * lam) * _angular_norm(lam)
    quad = (zi**2 - lo**2) * (hi**2 - zi**2)
    out[inside] = c * quad ** (lam - 0.5) / (x * y * zi) ** (2.0 * lam)
    return out[()] if out.ndim == 0 else out


@lru_cache(maxsize=128)
def _angle_rule(lam: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule of the angle law _angular_norm(lam) (1-u^2)^(lam-1/2) du
    on [-1, 1]: ascending nodes u, symmetric about 0, and masses w / sum(w), so
    the mass is 1 by construction.  Exact to degree 2n - 1.  At lam = -1/2, the
    weak limit: mass 1/2 at u = +-1.  Shared like _gauss_roots, hence read-only."""
    u, w = ((np.array([-1.0, 1.0]), np.ones(2)) if lam == -0.5
            else _gauss_roots("jacobi", n, lam - 0.5, lam - 0.5))
    w = w / np.sum(w)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _point_nodes(lam: float, x: float, y: float, n: int):
    """Point convolution of x, y > 0 on the n-node angle rule: _pair_nodes' z(u)
    reversed into ascending z, their masses, densities against dz and angle nodes u."""
    (_, z, w), = _pair_nodes(lam, np.array([x]), np.array([y]), n)
    z = z[0, ::-1].copy()  # contiguous, as numpy's power may round strided input otherwise
    return z, w[::-1], product_kernel(lam, x, y, z) * z ** (2.0 * lam + 1.0), \
        _angle_rule(lam, n)[0][::-1]


def convolve_points(lam: float, x: float, y: float, n: int = 128) -> RadialProfileMeasure:
    """Convolution of the point masses at x and y, as a node measure.

    The returned measure carries Gauss nodes in the Gegenbauer angle, so
    integrate() is spectrally accurate for smooth even integrands and the
    mass is exactly 1.  Atom degeneracies (x = 0 or y = 0) return the
    matching point mass.
    """
    lam = _check_index(lam)
    x, y = _finite(x, "x"), _finite(y, "y")
    n = _node_count(n, "n")
    if x < 0 or y < 0:
        raise ConfigError("points must be nonnegative radii")
    if x == 0.0 or y == 0.0:
        return dirac(x + y, lam=lam)
    z, masses, dens, _ = _point_nodes(lam, x, y, n)
    mu = RadialProfileMeasure._from_node_masses(z, dens, masses, lam=lam)
    if abs(mu.mass() - 1.0) > 1e-9:
        raise NumericalError(f"point convolution mass {mu.mass()} is off; node budget too small?")
    return mu


def _pair_nodes(lam: float, x, y, n: int):
    """Point convolutions of the pairs (|x_i|, |y_i|) of two arrays of one
    length, in row blocks of n nodes per pair.

    Yields (rows, z, w) per block: the block's slice of the pairs, their
    nodes z(u) of shape (len(x[rows]), n) and the n angle-rule masses.
    """
    u, w = _angle_rule(lam, n)
    for rows in _row_blocks(x.size, n):
        a, b = np.abs(x[rows, None]), np.abs(y[rows, None])
        z = 2.0 * a * b * u  # z^2 = a^2 + b^2 - 2abu, in place on the node array
        np.subtract(a * a + b * b, z, out=z)
        yield rows, np.sqrt(np.maximum(z, 0.0, out=z), out=z), w


def _pair_counts(ra, rb, cell_a, cell_b, top: int):
    """Angle-node count of every pair (ra[i], rb[j]), shape (len(ra), len(rb)).

    The pair's support [|a - b|, a + b] has width 2 min(a, b), and its local
    grid cell is h = max(cell_a[i], cell_b[j]), the cell of the band of
    max(a, b).  It takes the first count n of the ladder 2, 4, 8, 12, 16, ...
    below top with min(a, b) < n^2 h, or top.  (The threshold is the coarsest
    of n^2 h / 8, / 4, / 2, 1 and 2 n^2 h that keeps the bessel-kingman and
    markov suites within twice their residuals at n^2 h / 8; 2 n^2 h took the
    Cauchy closure past its 1e-8 tolerance.)
    """
    ladder = np.array([n for n in (2, *range(4, top, 4)) if n < top])
    width = np.minimum.outer(ra, rb) / np.maximum.outer(cell_a, cell_b)
    counts = np.append(ladder, top).astype(np.min_scalar_type(top))
    return counts[np.searchsorted(ladder * ladder, width, side="right")]


def _median_radius(x, w) -> float:
    """Mass-weighted median of |x| under the masses w."""
    r = np.abs(x)
    order = np.argsort(r)
    cum = np.cumsum(w[order])
    return float(r[order][min(np.searchsorted(cum, 0.5 * cum[-1]), r.size - 1)])


_ATOM_CAP = 2048  # atoms per input a convolution keeps before binning its node set


def convolve_measures(lam: float, sigma: RadialProfileMeasure, tau: RadialProfileMeasure,
                      grid_n: int = 6144, atom_cap: int = _ATOM_CAP,
                      points_per_pair: int = 32) -> RadialProfileMeasure:
    """Hypergroup convolution of two nonnegative radial measures.

    Both inputs are collapsed to weighted atoms (Gauss nodes pass through
    unchanged when they fit the cap), every atom pair is convolved with
    the angle rule, and the resulting point cloud is deposited with a
    cubic mass/moment-preserving kernel on a graded grid of grid_n nodes,
    uniform in u = c asinh(z / c): fine below z = c, where the mass sits,
    and geometric in the tail.  The scale c is the sum of the two inputs'
    mass-weighted median radii.  A pair's node count comes from its
    support width 2 min(|a|, |b|) against the local cell width h: the
    first n of 2, 4, 8, 12, 16, ... below points_per_pair with
    min(|a|, |b|) < n^2 h, and points_per_pair, which caps every count,
    above that.

    The grid ends just past the sum of the two contiguous supports (each
    input's grid, or its atoms when it has no grid).  A node beyond it
    comes from a pair with a far input atom, one beyond its measure's
    grid (the larger one when both are).  Such nodes stay explicit: one
    atom per far input atom, carrying their mass at their mass-weighted
    rms radius, so distinct tails stay distinct.
    """
    lam = _check_index(lam)
    _match_index(lam, sigma, tau)
    grid_n = _node_count(grid_n, "grid_n", least=4)
    atom_cap = _node_count(atom_cap, "atom_cap")
    points_per_pair = _node_count(points_per_pair, "points_per_pair")
    for m in (sigma, tau):
        if m.grid.size and np.min(m.node_masses) < -1e-12 * max(1.0, m.total_variation()):
            raise PositivityError("convolve_measures expects nonnegative measures")

    def _is_unit_point(m: RadialProfileMeasure) -> bool:
        return (not m.grid.size and len(m.atoms) == 1
                and m.atoms[0][0] == 0.0 and m.atoms[0][1] == 1.0)

    # the point mass at 0 is the hypergroup identity; keep it exact
    if _is_unit_point(tau):
        return sigma
    if _is_unit_point(sigma):
        return tau
    ax, aw = as_weighted_atoms(sigma, cap=atom_cap)
    bx, bw = as_weighted_atoms(tau, cap=atom_cap)
    if ax.size == 0 or bx.size == 0:
        raise ConfigError("cannot convolve an empty measure")

    core_a = sigma.grid[-1] if sigma.grid.size else np.max(ax)
    core_b = tau.grid[-1] if tau.grid.size else np.max(bx)
    z_max = 1.0001 * (core_a + core_b)
    if z_max == 0.0:  # both at 0 alone: one atom there, no grid
        return RadialProfileMeasure(atoms=[(0.0, float(np.sum(aw) * np.sum(bw)))], lam=lam)
    c = max(_median_radius(ax, aw) + _median_radius(bx, bw), z_max / grid_n)
    h_u = c * np.arcsinh(z_max / c) / (grid_n - 1)
    # band j of a radius r: 2^j <= max(r / c, 1) < 2^(j+1), where the grid
    # cell is at least 2^j h_u
    ra, rb = np.abs(ax), np.abs(bx)
    cell_a, cell_b = (np.ldexp(h_u, np.frexp(np.maximum(r / c, 1.0))[1] - 1) for r in (ra, rb))
    # far atoms of each input (0 for the others): a pair's key is the larger
    far_a = np.where(ax > core_a, ax, 0.0)
    far_b = np.where(bx > core_b, bx, 0.0)
    far_sums: dict[float, np.ndarray] = {}  # key -> [sum m, sum m z^2]

    def nodes():
        """(z, m) per _pair_nodes block of each run of equal node counts."""
        for rows in _row_blocks(ax.size, bx.size):
            counts = _pair_counts(ra[rows], rb, cell_a[rows], cell_b, points_per_pair).ravel()
            order = np.argsort(counts, kind="stable")
            counts = counts[order]
            cuts = np.r_[0, np.flatnonzero(counts[1:] != counts[:-1]) + 1, counts.size].tolist()
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                i, j = np.divmod(order[lo:hi], bx.size)
                i += rows.start
                run_m, run_key = aw[i] * bw[j], np.maximum(far_a[i], far_b[j])
                far_run = run_key.any()  # only a far atom's pairs reach beyond z_max
                for sub, z, w in _pair_nodes(lam, ra[i], rb[j], int(counts[lo])):
                    m = run_m[sub, None] * w
                    if not far_run or (ok := z <= z_max).all():
                        yield z.ravel(), m.ravel()
                        continue
                    yield z[ok], m[ok]
                    far = ~ok
                    zz, mm = z[far], m[far]
                    keys, inv = np.unique(np.broadcast_to(run_key[sub, None], z.shape)[far],
                                          return_inverse=True)
                    sums = np.stack([np.bincount(inv, mm), np.bincount(inv, mm * zz * zz)], axis=1)
                    for k, s in zip(keys.tolist(), sums):
                        far_sums[k] = far_sums.get(k, 0.0) + s

    def pieces():
        """The nodes in pieces of at least half a _BLOCK (the last may be
        short): larger runs pass as they are and shorter ones are joined, so
        the deposit's fixed cost is paid about once per block."""
        half, staged, size = measures._BLOCK // 2, [], 0
        for z, m in nodes():
            if z.size >= half:
                yield z, m
                continue
            staged.append((z, m))
            size += z.size
            if size >= half:
                yield tuple(map(np.concatenate, zip(*staged)))
                staged, size = [], 0
        if staged:
            yield tuple(map(np.concatenate, zip(*staged)))

    mu = _grid_measure(RadialProfileMeasure, c, z_max, grid_n, pieces(), lam=lam)
    mu.atoms = sorted((math.sqrt(s[1] / s[0]), float(s[0]))
                      for s in far_sums.values() if s[0] != 0.0)
    return mu


def hankel_transform(lam: float, mu: RadialProfileMeasure, r):
    """Hankel image of a measure: integral of j_lam(r z) d mu(z)."""
    lam = _check_index(lam)
    _match_index(lam, mu)
    pos, mass = as_weighted_atoms(mu)
    return np.tensordot(mass, bessel_j(lam, np.multiply.outer(pos, r)), axes=([0], [0]))


# ---------------------------------------------------------------------------
# canonical one-parameter families


def rayleigh_density(lam: float, t: float, r):
    r = np.asarray(r, dtype=float)
    norm = (2.0 * t) ** (lam + 1.0) * 2.0**lam * np.exp(gammaln(lam + 1.0))
    return r ** (2.0 * lam + 1.0) * np.exp(-r * r / (4.0 * t)) / norm


def rayleigh_radial_cdf(lam: float, t: float, r):
    return gammainc(lam + 1.0, np.asarray(r, dtype=float) ** 2 / (4.0 * t))


def rayleigh_measure(lam: float, t: float, n: int = 256) -> RadialProfileMeasure:
    """Radial heat profile at time t: density prop. to r^(2lam+1) exp(-r^2/4t).

    Hankel image exp(-t r^2); the hypergroup convolution semigroup.
    Nodes come from a Gauss rule with the r^(2lam+1) factor absorbed, so
    mass and smooth moments hold to rounding.  t = 0 gives the identity.
    """
    lam = _check_index(lam)
    n = _node_count(n, "n")
    t = _finite(t, "time")
    if t < 0.0:
        raise ConfigError(f"time must be finite and nonnegative, got {t}")
    if t == 0.0:
        return dirac(0.0, lam=lam)
    u_max = float(gammainccinv(lam + 1.0, 1e-14))
    r_max = 2.0 * np.sqrt(t * u_max)
    rule = gauss_jacobi(n, 0.0, 2.0 * lam + 1.0, 0.0, r_max)
    norm = (2.0 * t) ** (lam + 1.0) * 2.0**lam * np.exp(gammaln(lam + 1.0))
    masses = rule.weights * np.exp(-rule.nodes**2 / (4.0 * t)) / norm
    return RadialProfileMeasure._from_node_masses(
        rule.nodes, rayleigh_density(lam, t, rule.nodes), masses, lam=lam)


def cauchy_radial_cdf(lam: float, t: float, r):
    r = np.asarray(r, dtype=float)
    return betainc(lam + 1.0, 0.5, r * r / (r * r + t * t))


# The Cauchy profile's certificate: panels resolve frequencies up to _FREQ_MAX
# with at most _MAX_NODES nodes, and Hankel images are accurate within
# _TAIL_TOL at r = 0 and r >= _R_MIN
_FREQ_MAX, _R_MIN, _TAIL_TOL, _MAX_NODES = 8.0, 0.25, 5e-9, 200_000


def _oscillation_panels(z_cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Geometric panels on [0, z_cut] with node counts resolving _FREQ_MAX."""
    edges = [0.0]
    z = 1e-6
    while z < z_cut:
        z = min(z * 2.0, z_cut)
        edges.append(z)
    edges = np.asarray(edges)
    counts = np.maximum(24, (0.55 * _FREQ_MAX * np.diff(edges)).astype(int) + 12)
    if counts.sum() > _MAX_NODES:
        raise ResolutionError(
            f"resolving frequencies up to {_FREQ_MAX} over [0, {z_cut:.3g}] needs "
            f"{counts.sum()} nodes, beyond the cap of {_MAX_NODES}")
    return edges, counts


def cauchy_measure(lam: float, t: float) -> RadialProfileMeasure:
    """Radial Poisson profile at time t (Hankel image exp(-t r)).

    The closed-form density has a heavy z^(-2) tail that cannot be
    gridded, but the profile is the 1/2-stable time mixture of the heat
    profiles, so it is subordinate(lam, rho) for the 1/2-stable law rho at
    time t, whose tail mass beyond its last panel is min(1e-9, _TAIL_TOL / 10).
    The certificate is fixed: panels resolve frequencies up to _FREQ_MAX = 8
    with at most _MAX_NODES = 200,000 nodes, and the transform is accurate
    within _TAIL_TOL = 5e-9 at r = 0 and for r >= _R_MIN = 0.25.
    """
    lam = _check_index(lam)
    rho = stable_half_subordinator(_positive_time(t, "time"),
                                   tail_mass=min(1e-9, 0.1 * _TAIL_TOL))
    return subordinate(lam, rho)


_NODES_PER_DECADE = 16  # Gauss nodes per decade of the 1/2-stable law's log panels


def stable_half_subordinator(t: float, tail_mass: float = 1e-9) -> RadialProfileMeasure:
    """Law of the 1/2-stable subordinator at time t.

    Density t exp(-t^2/4s) / (2 sqrt(pi) s^(3/2)) on s > 0; Laplace
    transform exp(-t sqrt(u)).  Log-scale Gauss panels, _NODES_PER_DECADE
    nodes per decade, cover the bulk and the slowly decaying s^(-3/2) tail up
    to the requested residual mass, carried then by a single far atom (the
    CDF is erfc(t/2sqrt(s)), so the cut is exact).  tail_mass lies in (0, 1).
    """
    t = _positive_time(t, "time")
    if not 0.0 < _finite(tail_mass, "tail_mass") < 1.0:
        raise ConfigError(f"tail_mass must lie in (0, 1), got {tail_mass}")
    s_lo = t * t / 160.0
    s_hi = (t / (np.sqrt(np.pi) * tail_mass)) ** 2
    rule = log_panel_rule(s_lo, s_hi, _NODES_PER_DECADE)
    s = rule.nodes
    dens = t * np.exp(-t * t / (4.0 * s)) / (2.0 * np.sqrt(np.pi) * s**1.5)
    residual = float(erf(t / (2.0 * np.sqrt(s_hi))))  # mass beyond s_hi
    low_missed = 1.0 - residual - float(np.sum(rule.weights * dens))
    atoms = [(4.0 * s_hi, residual)]
    if abs(low_missed) > 1e-12:
        # whatever the panels missed numerically (should be ~0) is kept explicit
        atoms.append((s_lo, low_missed))
    return RadialProfileMeasure(grid=rule.nodes, density=dens, weights=rule.weights,
                                atoms=atoms)


def subordinate(lam: float, rho: RadialProfileMeasure) -> RadialProfileMeasure:
    """Heat profiles mixed over a law of times: integral rayleigh_measure(lam, s) d rho(s).

    The mixture times are rho's weighted atoms.  The heat profile at time s
    has Hankel image exp(-s r^2), so the times whose combined image at
    _R_MIN is below _TAIL_TOL / 2 are dropped; truncating whole mixture
    times (not the density in z) keeps that bound honest.  The kept
    closed-form densities are summed time by time on panels resolving
    frequencies up to _FREQ_MAX, up to the last node of the largest kept
    time's rayleigh_measure, and the exact mass remainder is parked in one
    far bookkeeping atom.  The transform is certified within _TAIL_TOL at
    r = 0 and r >= _R_MIN, the same certificate as cauchy_measure's.
    """
    lam = _check_index(lam)
    s_pos, s_mass = as_weighted_atoms(rho)
    if np.any(s_pos <= 0):
        raise ConfigError("subordination needs a measure on s > 0")
    order = np.argsort(s_pos)
    s_pos, s_mass = s_pos[order], s_mass[order]
    dropped_image = np.cumsum((np.abs(s_mass) * np.exp(-s_pos * _R_MIN * _R_MIN))[::-1])[::-1]
    keep = dropped_image > 0.5 * _TAIL_TOL
    if not np.any(keep):
        raise ResolutionError(
            f"every mixture time's Hankel image at r >= {_R_MIN} is below {0.5 * _TAIL_TOL:g}; "
            "the mixture has nothing to grid")
    s_pos, s_mass = s_pos[keep], s_mass[keep]

    z_cut = float(rayleigh_measure(lam, float(s_pos[-1])).grid[-1])
    edges, counts = _oscillation_panels(z_cut)
    rule = panel_gauss_legendre(edges, counts)
    dens = np.zeros(rule.nodes.shape)
    for w, s in zip(s_mass, s_pos):
        dens += w * rayleigh_density(lam, float(s), rule.nodes)
    lump = float(rho.mass()) - float(np.sum(rule.weights * dens))
    # the atom goes where its Hankel image at r >= _R_MIN stays below _TAIL_TOL / 2
    z_far = max(4.0 * z_cut, 1.0)
    while abs(lump) * bessel_j_envelope(lam, _R_MIN * z_far) > 0.5 * _TAIL_TOL and z_far < 1e300:
        z_far *= 4.0
    return RadialProfileMeasure(grid=rule.nodes, density=dens, weights=rule.weights,
                                atoms=[(z_far, lump)], lam=lam)
