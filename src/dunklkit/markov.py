"""k-invariant Markov kernels and path simulation for the sign-change groups.

A probability measure mu on R^N whose deweighted form w_k^{-1} dmu is
rotation invariant is determined by its radial profile, and the profile
map carries the generalized convolution over to the hypergroup
convolution at index lam = gamma + N/2 - 1.  A KRadialMeasure holds its
multiplicity next to that profile, so translation, convolution and the
kernel handle read k from the measure.  Kernels of the form
P(x, .) = delta_x *_k mu are exactly the k-invariant ones: their
transform factorizes as

    P(x, .)^(xi) = E_k(-ix, xi) * H_lam(profile)(|xi|).

The verification entry points in this module never evaluate that
factorization to test itself: transforms of transition kernels are
recomputed by direct quadrature of the transition densities, so the
factorization is an output, not an input.

The Dunkl-type Brownian motion is simulated exactly.  The one-axis heat
transition density in scaled coordinates, e^(-(a^2+b^2)/2) E_k(a,b) |b|^(2k),
splits into a noncentral chi-square radius (Z+|a|)^2 + 2 Gamma(k) and a
sign flip with odds given by a Bessel-function ratio, so the paths carry
no discretization error.  The k-Cauchy process rides the same stepper
through an exact 1/2-stable time change.  Paths come in blocks, each with
its own seeded generator; a worker draws for its whole run of blocks and
steps every path of the run in one array pass per step and axis.  The seed
and the worker count are arguments of each simulation, and nothing else
sets them.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import json

import numpy as np

from .bessel_kingman import (
    _match_index,
    cauchy_measure,
    cauchy_radial_cdf,
    convolve_measures,
    hankel_transform,
    rayleigh_measure,
    rayleigh_radial_cdf,
    stable_half_subordinator,
)
from .core import MultiplicityVector, _as_kv, _axis_product, _coords, dunkl_kernel_unitary
from .errors import (ConfigError, ConsistencyError, PositivityError, _floats, _node_count,
                     _positive_time)
from .measures import _BLOCK, RadialProfileMeasure, _csv_rows, _write_csv, as_weighted_atoms, dirac
from .rank_one import kernel_unitary, spherical_mean as _rank_one_mean
from .special import _bessel_ratio
from .transform import _heat_quadrature, heat_kernel, spherical_mean_radial

__all__ = [
    "KRadialMeasure",
    "MarkovKernelHandle",
    "KernelSemigroup",
    "PathSample",
    "PathEnsemble",
    "translate_measure",
    "convolve_k",
    "semigroup_from_json",
    "gaussian_kernel_hat",
    "composed_kernel_hat",
    "subordinated_kernel_hat",
    "subordinated_density",
    "simulate_paths",
    "marginal_ks",
]


# ---------------------------------------------------------------------------
# the measure class

_MASS_TOL = 1e-10  # |mass - 1| of a profile
_NEG_TOL = 1e-7    # negative node mass a deposited profile may carry (cubic stencil)


@dataclass
class KRadialMeasure:
    """Probability measure on R^N with rotation-invariant deweighted form.

    Stored through its radial profile (the pushforward under |.|), which
    must live at the hypergroup index lam of the multiplicity and carry
    total mass 1 within _MASS_TOL.  Node masses of gridded profiles may dip
    negative where the cubic deposit stencil's negative weights land (not
    from rounding); _NEG_TOL bounds that.
    """

    kv: MultiplicityVector
    profile: RadialProfileMeasure

    def __post_init__(self):
        self.kv = _as_kv(self.kv)
        if not isinstance(self.profile, RadialProfileMeasure):
            raise ConfigError("profile must be a RadialProfileMeasure")
        _match_index(self.kv.lam, self.profile)
        m = self.profile.mass()
        if abs(m - 1.0) > _MASS_TOL:
            raise PositivityError(f"profile mass {m} differs from 1 beyond {_MASS_TOL}")
        neg = 0.0
        if self.profile.grid.size:
            neg = min(0.0, float(np.min(self.profile.node_masses)))
        neg = min(neg, *(w for _, w in self.profile.atoms), 0.0)
        if neg < -_NEG_TOL:
            raise PositivityError(f"profile has negative mass {neg}")

    @classmethod
    def point(cls, kv) -> "KRadialMeasure":
        kv = _as_kv(kv)
        return cls(kv, dirac(0.0, lam=kv.lam))

    @classmethod
    def heat(cls, kv, t: float) -> "KRadialMeasure":
        kv = _as_kv(kv)
        return cls(kv, rayleigh_measure(kv.lam, t))

    @classmethod
    def cauchy(cls, kv, t: float) -> "KRadialMeasure":
        kv = _as_kv(kv)
        return cls(kv, cauchy_measure(kv.lam, t))

    def hat(self, xi):
        """Transform at the points xi (last axis = coords):

            mu^(xi) = H_lam(profile)(|xi|),

        real, rotation invariant, equal to 1 at xi = 0 for probabilities.
        """
        xi = _coords(self.kv, "xi", xi)
        return hankel_transform(self.kv.lam, self.profile, np.sqrt(np.sum(xi * xi, axis=-1)))


# ---------------------------------------------------------------------------
# translation of k-radial measures and the Markov kernels they generate

_TRANSLATE_ATOM_CAP = 4096  # profile atoms a translation keeps before binning


def translate_measure(x, mu: KRadialMeasure, f=None, f0=None):
    """Integral of f against the translated measure delta_x *_k mu,

        (delta_x *_k mu)(f) = int M_f(x, |y|) dmu(y),

    reduced to the radial profile: sum_j mass_j M_f(x, r_j).  The test
    function enters one of two ways: f0 is a radial profile (at every N,
    each mean the Bessel-Kingman point convolution of |x| and r_j), and f
    is a general callable on points (rank one only, through the explicit
    mean measures).  The multiplicity is mu's, so x holds its N coordinates.
    x = 0 returns the plain integral of f against mu; a point profile at 0
    returns f(x).
    """
    kv = mu.kv
    x = _coords(kv, "x", x, point=True)
    if (f is None) == (f0 is None):
        raise ConfigError("pass exactly one of f, f0")
    radii, masses = as_weighted_atoms(mu.profile, cap=_TRANSLATE_ATOM_CAP)
    if f0 is not None:
        vals = spherical_mean_radial(kv, f0, x, radii)
    else:
        if kv.n_axes != 1:
            raise ConfigError(
                "general test functions are supported in rank one only; "
                "pass f0 for radial functions")
        f1 = lambda z: f(np.asarray(z, dtype=float)[..., None])
        vals = np.asarray([_rank_one_mean(kv.k[0], f1, float(x[0]), float(r))
                           for r in radii])
    total = np.sum(masses * vals)
    return complex(total) if np.iscomplexobj(vals) else float(total)


@dataclass
class MarkovKernelHandle:
    """One k-invariant Markov kernel P(x, .) = delta_x *_k mu.

    apply() evaluates int f dP(x, .) through translate_measure; hat()
    returns the factorized transform E_k(-ix, xi) mu^(xi), which is the
    defining property of k-invariance (use gaussian_kernel_hat and
    friends for quadrature values that do not assume it).
    """

    mu: KRadialMeasure
    time: float | None = None
    kind: str = "custom"

    def __post_init__(self):
        if not isinstance(self.mu, KRadialMeasure):
            raise ConfigError(f"mu must be a KRadialMeasure, got {type(self.mu).__name__}")

    def apply(self, x, f=None, f0=None):
        return translate_measure(x, self.mu, f=f, f0=f0)

    def hat(self, x, xi):
        return np.conj(dunkl_kernel_unitary(self.mu.kv, np.atleast_1d(x), xi)) * self.mu.hat(xi)

    def density(self, x, y):
        """Transition density against w_k(y) dy at the kernel's positive
        time; closed heat form for the Gaussian kind, subordinated mixture
        for the Cauchy kind."""
        _, _, density = _process(self.kind)
        return density(self.mu.kv, self.time, x, y)


def convolve_k(mu: KRadialMeasure, nu: KRadialMeasure) -> KRadialMeasure:
    """Generalized convolution of two k-radial probabilities of one
    multiplicity, computed as the hypergroup convolution of their radial
    profiles.

    Commutative, probability-preserving, with the point mass at 0 as the
    neutral element; the transform is multiplicative on the result.
    """
    if mu.kv != nu.kv:
        raise ConfigError(f"multiplicities {mu.kv.k} and {nu.kv.k} differ")
    return KRadialMeasure(mu.kv, convolve_measures(mu.kv.lam, mu.profile, nu.profile))


# ---------------------------------------------------------------------------
# semigroups

# KernelSemigroup's closure check; the certified transform accuracy of the
# heavy-tailed Cauchy profiles is ~5e-9, well inside _CLOSURE_TOL
_CHECK_TIMES = (0.25, 0.5)
_CHECK_FREQS = np.concatenate([[0.0], np.linspace(0.3, 6.0, 20)])
_CLOSURE_TOL = 1e-7
_N_BLOCKS = 16  # seeded path blocks a simulation runs by default


def _closure_residual(lam: float, family) -> float:
    """max over s <= t in _CHECK_TIMES and r in _CHECK_FREQS of
    | H(sigma_s)(r) H(sigma_t)(r) - H(sigma_(s+t))(r) |, with the Hankel
    image of each distinct time's profile built once; NaN if any term is."""
    pairs = [(s, t) for i, s in enumerate(_CHECK_TIMES) for t in _CHECK_TIMES[i:]]
    times = {u for s, t in pairs for u in (s, t, s + t)}
    hat = {u: hankel_transform(lam, family(u), _CHECK_FREQS) for u in times}
    return float(np.max([np.abs(hat[s] * hat[t] - hat[s + t]) for s, t in pairs]))


class KernelSemigroup:
    """Family t -> k-invariant Markov kernel built from radial profiles.

    The constructor verifies that the t = 0 member is the point mass at 0
    and the hypergroup semigroup law of the profile family, in the
    transform domain, where the characters separate measures: on the time
    pairs of (0.25, 0.5) at the radial frequencies 0 and 20 points of
    [0.3, 6], within _CLOSURE_TOL.  Kernels then come out of
    kernel(t) = delta_x *_k mu_t.
    """

    def __init__(self, kv, family, kind: str = "custom"):
        self.kv = _as_kv(kv)
        self.family = family
        self.kind = kind
        zero = family(0.0)
        lo, hi = zero.support_bounds()
        if abs(zero.mass() - 1.0) > _MASS_TOL or max(abs(lo), abs(hi)) > 1e-12:
            raise ConfigError("family(0) must be the unit point mass at 0")
        self.closure_residual = _closure_residual(self.kv.lam, family)
        if not self.closure_residual <= _CLOSURE_TOL:  # NaN fails too
            raise ConsistencyError(
                f"profile family violates the semigroup law: residual "
                f"{self.closure_residual:.3e} exceeds {_CLOSURE_TOL}")

    def measure(self, t: float) -> KRadialMeasure:
        if t == 0.0:
            return KRadialMeasure.point(self.kv)
        return KRadialMeasure(self.kv, self.family(float(t)))

    def kernel(self, t: float) -> MarkovKernelHandle:
        return MarkovKernelHandle(self.measure(t), time=float(t), kind=self.kind)

    def simulate(self, t_grid, n_paths: int, seed: int) -> "PathEnsemble":
        """Exact paths of the semigroup's process (simulate_paths, default blocks and threads)."""
        return simulate_paths(self.kv, t_grid, n_paths, seed, kind=self.kind)


def _process(kind):
    """(radial profile, radial CDF, transition density) of one of the two
    processes: "gaussian", the Dunkl-type Brownian motion, or "cauchy", its
    1/2-stable subordinate.  A function rather than a table, so the module
    names are looked up at each call and a rebinding of them is seen."""
    if kind == "gaussian":
        return rayleigh_measure, rayleigh_radial_cdf, heat_kernel
    if kind == "cauchy":
        return cauchy_measure, cauchy_radial_cdf, subordinated_density
    raise ConfigError(f"unknown process kind {kind!r}; choose 'gaussian' or 'cauchy'")


def semigroup_from_json(text: str) -> KernelSemigroup:
    """Build a semigroup from its JSON spec:

        {"type": "gaussian" | "cauchy", "k": [...]}

    gaussian is the heat semigroup of rayleigh_measure profiles, cauchy its
    1/2-stable subordinate of cauchy_measure profiles; each has an exact
    sampler and transition densities.  The profiles' resolution is fixed,
    and a simulation takes its seed per call (KernelSemigroup.simulate).
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"semigroup JSON is invalid: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"semigroup JSON must be an object, got {type(payload).__name__}")
    extra = set(payload) - {"type", "k"}
    if extra:
        raise ConfigError(f"unknown semigroup keys: {sorted(extra)}")
    for key in ("type", "k"):
        if key not in payload:
            raise ConfigError(f"semigroup JSON misses '{key}'")
    kind = payload["type"]
    kv = _as_kv(payload["k"])
    profile, _, _ = _process(kind)
    family = lambda t: profile(kv.lam, t) if t > 0 else dirac(0.0, lam=kv.lam)
    return KernelSemigroup(kv, family, kind=kind)


# ---------------------------------------------------------------------------
# honest transforms of the transition kernels (quadrature, no factorization)


def gaussian_kernel_hat(kv, t: float, x, xi) -> complex:
    """Transform of the heat transition kernel,

        int E_k(-i xi, y) Gamma_k(t, x, y) w_k(y) dy,

    by direct per-axis quadrature on the heat window of x (_heat_quadrature, a
    ResolutionError where it misses the kernel's mass).  Nothing about k-invariance
    enters, so comparing against E_k(-ix, xi) e^(-t |xi|^2) is a real check.
    """
    t = _positive_time(t, "kernel time")

    def axis(k, x_i, xi_i):
        rule, heat = _heat_quadrature(k, t, x_i)
        return np.sum(heat * np.conj(kernel_unitary(k, xi_i, rule.nodes)))

    return complex(_axis_product(kv, axis, np.atleast_1d(x), np.atleast_1d(xi)))


def composed_kernel_hat(kv, s: float, t: float, x, xi) -> complex:
    """Transform of the two-step composition (P_s o P_t)(x, .),

        int int E_k(-i xi, y) Gamma_k(t, z, y) w_k(y) dy Gamma_k(s, x, z) w_k(z) dz,

    by nested per-axis quadrature: the inner integral is gaussian_kernel_hat's, on
    the heat windows of all nodes z at once.  The semigroup law makes this equal
    gaussian_kernel_hat(s + t) and that is how it is verified.  A ResolutionError as there.
    """
    s, t = _positive_time(s, "kernel time s"), _positive_time(t, "kernel time t")

    def axis(k, x_i, xi_i):
        outer, heat_s = _heat_quadrature(k, s, x_i)
        inner, heat_t = _heat_quadrature(k, t, outer.nodes)  # one window per outer node
        return np.sum(heat_s[:, None] * heat_t * np.conj(kernel_unitary(k, xi_i, inner.nodes)))

    return complex(_axis_product(kv, axis, np.atleast_1d(x), np.atleast_1d(xi)))


_S_QUAD = 50.0  # mixture times up to which subordinated_kernel_hat runs the quadrature


def subordinated_kernel_hat(kv, t: float, x, xi) -> complex:
    """Transform of the subordinated (k-Cauchy) transition kernel.

    The kernel is the 1/2-stable time mixture of heat kernels; mixture
    times s <= _S_QUAD go through the direct quadrature of
    gaussian_kernel_hat, and the far tail uses the dual reading of the
    heat kernel's spectral identity (a separately verified fact), where
    each slice contributes only e^(-s |xi|^2)-small terms.
    """
    kv = _as_kv(kv)
    x, xi = _coords(kv, "x", x, point=True), _coords(kv, "xi", xi, point=True)
    s_pos, s_mass = as_weighted_atoms(stable_half_subordinator(t))
    near = s_pos <= _S_QUAD
    total = sum(m * gaussian_kernel_hat(kv, float(s), x, xi)
                for s, m in zip(s_pos[near], s_mass[near]))
    tail = np.sum(s_mass[~near] * np.exp(-s_pos[~near] * float(np.sum(xi * xi))))
    return complex(total + np.conj(dunkl_kernel_unitary(kv, x, xi)) * tail)


def subordinated_density(kv, t: float, x, y):
    """Transition density of the k-Cauchy kernel against w_k(y) dy, as
    the 1/2-stable time mixture of closed-form heat kernels."""
    kv = _as_kv(kv)
    rho = stable_half_subordinator(_positive_time(t, "kernel time"))
    s_pos, s_mass = as_weighted_atoms(rho)
    return sum(m * heat_kernel(kv, float(s), x, y) for s, m in zip(s_pos, s_mass))


# ---------------------------------------------------------------------------
# exact path simulation


def _heat_step(k: float, a: np.ndarray, z: np.ndarray, g, v: np.ndarray) -> np.ndarray:
    """One rank-one heat transition in scaled coordinates.

    Given a = x / sqrt(2 dt), returns b = y / sqrt(2 dt) with density
    proportional to e^(-(a^2+b^2)/2) E_k(a, b) |b|^(2k): the radius square
    is noncentral chi-square with 2k+1 degrees of freedom, |b|^2 = (z + |a|)^2
    + 2 g (normal z, Gamma(k) g), and the sign agrees with a where the uniform
    v < (1 + I_(k+1/2)(u) / I_(k-1/2)(u)) / 2 at u = |a| |b| (a tanh for
    k = 0, recovering the classical Gaussian step).
    """
    r_sq = (z + np.abs(a)) ** 2
    if k > 0.0:
        r_sq = r_sq + 2.0 * g
    b = np.sqrt(r_sq)
    same = v < 0.5 * (1.0 + _bessel_ratio(k - 0.5, np.abs(a) * b))
    sign = np.where(same, 1.0, -1.0) * np.where(a < 0.0, -1.0, 1.0)
    return sign * b


@dataclass
class PathSample:
    """One sampled trajectory: times (T,), states (T, N)."""

    times: np.ndarray
    states: np.ndarray
    seed: int


@dataclass
class PathEnsemble:
    """All sampled trajectories of one run; indexable into PathSample."""

    times: np.ndarray
    states: np.ndarray  # (n_paths, T, N)
    seed: int
    kind: str = "gaussian"

    def __len__(self) -> int:
        return self.states.shape[0]

    def __getitem__(self, i: int) -> PathSample:
        return PathSample(self.times, self.states[i], self.seed)

    @property
    def n_axes(self) -> int:
        return self.states.shape[2]

    def radii(self, time_index: int = -1) -> np.ndarray:
        """Radial parts |X_t| of every path at one time-grid index."""
        return np.sqrt(np.sum(self.states[:, time_index, :] ** 2, axis=-1))

    def to_csv(self, path: str, header: dict | None = None) -> None:
        """Rows path_id,time,x1..xN; '#'-prefixed metadata lines on top.

        Every float is written with its shortest round-trip digits in
        float.__repr__ notation, so it parses back to the same bits; a NaN
        or infinite state is a ConfigError.
        """
        n_paths, n_times, n_axes = self.states.shape
        table = np.empty((n_paths, n_times, 1 + n_axes))
        table[:, :, 0] = self.times
        table[:, :, 1:] = self.states
        rows = _csv_rows(table.reshape(-1, 1 + n_axes), np.repeat(np.arange(n_paths), n_times))
        columns = ["path_id", "time"] + [f"x{i+1}" for i in range(n_axes)]
        with open(path, "w", newline="") as fh:
            _write_csv(fh, header or {}, columns, rows)


def _resolve_threads(threads: int | None, n_blocks: int) -> int:
    """Worker count: the request (1 if None) capped at the number of blocks
    and at os.cpu_count()."""
    return max(1, min(int(threads or 1), int(n_blocks), os.cpu_count() or 1))


def simulate_paths(kv, t_grid, n_paths: int, seed: int, kind: str = "gaussian",
                   n_blocks: int = _N_BLOCKS, threads: int | None = None) -> PathEnsemble:
    """Simulate the Dunkl-type Brownian motion (or its Cauchy subordinate)
    started at 0, with exact transitions observed on t_grid.

    Blocks are the unit of reproducibility: each of the n_blocks blocks of
    paths has its own counter-based generator keyed by (seed, block index),
    so the output is byte-for-byte reproducible for fixed (seed, t_grid,
    n_paths, kind, n_blocks) however many worker threads run.  A worker
    steps each contiguous run of blocks (about _BLOCK paths, more if blocks
    are larger) at once.  The Cauchy case runs the heat stepper at a 1/2-stable
    time s = dt^2 / (2 max(z^2, 1e-300)), z normal (exactly 0 once in 2^52), per step per
    path, shared across axes; to keep 2 s finite, dt > 1e4 (or dt^2 not normal) is a ConfigError.
    """
    kv = _as_kv(kv)
    times = _floats(t_grid, "t_grid times")
    if times.ndim != 1 or times.size < 2:
        raise ConfigError("t_grid must hold at least the start and one later time")
    if not np.all(np.isfinite(times)):
        raise ConfigError("t_grid times must be finite")
    if times[0] != 0.0:
        raise ConfigError("t_grid must start at 0")
    if np.any(np.diff(times) <= 0):
        raise ConfigError("t_grid must be strictly increasing")
    _process(kind)  # ConfigError for any other kind
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    n_paths = _node_count(n_paths, "n_paths")
    n_blocks = _node_count(n_blocks, "n_blocks")
    if threads is not None:
        threads = _node_count(threads, "threads")
    subord = kind == "cauchy"
    dts = np.diff(times)
    with np.errstate(over="ignore"):
        if subord and not np.all((dts * dts >= np.finfo(float).tiny) & (dts <= 1e4)):
            raise ConfigError("Cauchy steps need dt^2 to be a normal float and dt <= 1e4")
    states = np.zeros((n_paths, times.size, kv.n_axes))
    bounds = np.linspace(0, n_paths, min(n_blocks, n_paths) + 1).astype(int)
    rngs = [np.random.Generator(np.random.Philox(key=np.array([int(seed) % 2**64, b], np.uint64)))
            for b in range(len(bounds) - 1)]

    def run_blocks(b0: int, b1: int) -> None:
        blocks = list(zip(rngs[b0:b1], np.diff(bounds[b0:b1 + 1])))
        draw = lambda name, *args: np.concatenate([getattr(rng, name)(*args, size=m)
                                                   for rng, m in blocks])
        x = np.zeros((bounds[b1] - bounds[b0], kv.n_axes))
        for j, dt in enumerate(dts, start=1):
            if subord:
                z = draw("standard_normal")
                s = (0.5 * dt * dt) / np.maximum(z * z, 1e-300)
            else:
                s = np.full(len(x), dt)
            scale = np.sqrt(2.0 * s)
            for i, k in enumerate(kv.k):
                z = draw("standard_normal")
                g = draw("standard_gamma", k) if k > 0.0 else None
                x[:, i] = scale * _heat_step(k, x[:, i] / scale, z, g, draw("random"))
            states[bounds[b0]:bounds[b1], j] = x

    workers = _resolve_threads(threads, len(rngs))
    n_runs = max(workers, min(len(rngs), -(-n_paths // _BLOCK)))  # cache-sized temporaries
    runs = np.linspace(0, len(rngs), n_runs + 1).astype(int)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_blocks, runs[:-1], runs[1:]))
    else:
        list(map(run_blocks, runs[:-1], runs[1:]))
    return PathEnsemble(times=times, states=states, seed=int(seed), kind=kind)


def marginal_ks(kv, radii, kind: str, t: float) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic and p-value of sampled radii against
    the exact radial distribution of the marginal at time t."""
    from scipy.stats import kstest

    kv = _as_kv(kv)
    radii = _floats(radii, "radii")
    if radii.ndim != 1 or radii.size == 0 or not np.all(np.isfinite(radii) & (radii >= 0.0)):
        raise ConfigError("radii must be a non-empty 1-D array of finite values >= 0")
    t = _positive_time(t, "t")
    _, cdf, _ = _process(kind)
    res = kstest(radii, lambda r: cdf(kv.lam, t, r))
    return float(res.statistic), float(res.pvalue)
