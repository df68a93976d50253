"""k-invariant Markov kernels and path simulation for the sign-change groups.

A probability measure mu on R^N whose deweighted form w_k^{-1} dmu is
rotation invariant is determined by its radial profile, and the profile
map carries the generalized convolution over to the hypergroup
convolution at index lam = gamma + N/2 - 1.  Kernels of the form
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
through an exact 1/2-stable time change.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import json

import numpy as np
from scipy.special import ive

from .bessel_kingman import (
    cauchy_measure,
    cauchy_radial_cdf,
    convolve_measures,
    hankel_transform,
    rayleigh_measure,
    rayleigh_radial_cdf,
    stable_half_subordinator,
)
from .core import MultiplicityVector, _as_kv, _axis_c_norm, dunkl_kernel_unitary
from .errors import ConfigError, ConsistencyError, PositivityError
from .measures import RadialProfileMeasure, as_weighted_atoms, dirac
from .rank_one import kernel_unitary, spherical_mean as _rank_one_mean
from .transform import _gauss_kernel_axis, axis_rule, heat_kernel, spherical_mean_radial

__all__ = [
    "KRadialMeasure",
    "MarkovKernelHandle",
    "KernelSemigroup",
    "PathSample",
    "PathEnsemble",
    "radial_hat",
    "translate_measure",
    "convolve_k",
    "build_semigroup",
    "semigroup_from_json",
    "gaussian_kernel_hat",
    "composed_kernel_hat",
    "subordinated_kernel_hat",
    "subordinated_density",
    "simulate_paths",
    "marginal_ks",
]

_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# the measure class


@dataclass
class KRadialMeasure:
    """Probability measure on R^N with rotation-invariant deweighted form.

    Stored through its radial profile (the pushforward under |.|), which
    must live at the hypergroup index lam of the multiplicity and carry
    total mass 1 within mass_tol.  Node masses of gridded profiles may
    dip slightly negative through deposit rounding; neg_tol bounds that.
    """

    kv: MultiplicityVector
    profile: RadialProfileMeasure
    mass_tol: float = 1e-10
    neg_tol: float = 1e-7

    def __post_init__(self):
        self.kv = _as_kv(self.kv)
        if not isinstance(self.profile, RadialProfileMeasure):
            raise ConfigError("profile must be a RadialProfileMeasure")
        if self.profile.lam is not None and abs(self.profile.lam - self.kv.lam) > 1e-12:
            raise ConfigError(
                f"profile index {self.profile.lam} does not match lam={self.kv.lam}")
        m = self.profile.mass()
        if abs(m - 1.0) > self.mass_tol:
            raise PositivityError(f"profile mass {m} differs from 1 beyond {self.mass_tol}")
        neg = 0.0
        if self.profile.grid.size:
            neg = min(0.0, float(np.min(self.profile.node_masses)))
        neg = min(neg, *(w for _, w in self.profile.atoms), 0.0)
        if neg < -self.neg_tol:
            raise PositivityError(f"profile has negative mass {neg}")

    @classmethod
    def point(cls, kv) -> "KRadialMeasure":
        kv = _as_kv(kv)
        return cls(kv, dirac(0.0, lam=kv.lam))

    @classmethod
    def heat(cls, kv, t: float, n: int = 256) -> "KRadialMeasure":
        kv = _as_kv(kv)
        return cls(kv, rayleigh_measure(kv.lam, t, n=n))

    @classmethod
    def cauchy(cls, kv, t: float, **kwargs) -> "KRadialMeasure":
        kv = _as_kv(kv)
        return cls(kv, cauchy_measure(kv.lam, t, **kwargs))

    def hat(self, xi):
        """Transform of the measure; rotation invariant, so it only sees |xi|."""
        return radial_hat(self.kv, self, xi)


def radial_hat(kv, mu: KRadialMeasure, xi):
    """Transform of a k-radial measure at the points xi (last axis = coords):

        mu^(xi) = H_lam(profile)(|xi|),

    real, rotation invariant, equal to 1 at xi = 0 for probabilities.
    """
    kv = _as_kv(kv)
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0:
        raise ConfigError("xi must be a point of R^N")
    r = np.sqrt(np.sum(xi * xi, axis=-1))
    return hankel_transform(kv.lam, mu.profile, r)


# ---------------------------------------------------------------------------
# translation of k-radial measures and the Markov kernels they generate


def translate_measure(kv, x, mu: KRadialMeasure, f=None, f0=None, mean_fn=None,
                      n_sphere: int = 64, n_per_axis: int = 48, n_line: int = 128,
                      atom_cap: int = 4096):
    """Integral of f against the translated measure delta_x *_k mu,

        (delta_x *_k mu)(f) = int M_f(x, |y|) dmu(y),

    reduced to the radial profile: sum_j mass_j M_f(x, r_j).  The test
    function enters one of three ways: f0 is a radial profile (spherical
    means via translation and sphere averaging), f is a general callable
    on points (rank one only, through the explicit mean measures), and
    mean_fn(x, r) supplies precomputed spherical means directly.  x = 0
    returns the plain integral of f against mu; a point profile at 0
    returns f(x).
    """
    kv = _as_kv(kv)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (kv.n_axes,):
        raise ConfigError("x must be a point of R^N")
    if sum(arg is not None for arg in (f, f0, mean_fn)) != 1:
        raise ConfigError("pass exactly one of f, f0, mean_fn")
    radii, masses = as_weighted_atoms(mu.profile, cap=atom_cap)
    if f0 is not None:
        vals = spherical_mean_radial(kv, f0, x, radii, n_sphere=n_sphere,
                                     n_per_axis=n_per_axis)
    elif mean_fn is not None:
        vals = np.asarray([mean_fn(x, float(r)) for r in radii])
    else:
        if kv.n_axes != 1:
            raise ConfigError(
                "general test functions are supported in rank one only; "
                "pass f0 for radial functions or mean_fn for precomputed means")
        f1 = lambda z: f(np.asarray(z, dtype=float)[..., None])
        vals = np.asarray([_rank_one_mean(kv.k[0], f1, float(x[0]), float(r), n=n_line)
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

    kv: MultiplicityVector
    mu: KRadialMeasure
    time: float | None = None
    kind: str = "custom"

    def __post_init__(self):
        self.kv = _as_kv(self.kv)

    def apply(self, x, **kwargs):
        return translate_measure(self.kv, x, self.mu, **kwargs)

    def hat(self, x, xi):
        xi = np.asarray(xi, dtype=float)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.conj(dunkl_kernel_unitary(self.kv, x, xi)) * self.mu.hat(xi)

    def density(self, x, y):
        """Transition density against w_k(y) dy; closed heat form for the
        Gaussian kind, subordinated mixture for the Cauchy kind."""
        if self.time is None or self.time <= 0.0:
            raise ConfigError("density needs a positive kernel time")
        if self.kind == "gaussian":
            return heat_kernel(self.kv, self.time, x, y)
        if self.kind in ("cauchy", "subordinated"):
            return subordinated_density(self.kv, self.time, x, y)
        raise ConfigError(f"no density available for kernel kind '{self.kind}'")


def convolve_k(kv, mu: KRadialMeasure, nu: KRadialMeasure, **kwargs) -> KRadialMeasure:
    """Generalized convolution of two k-radial probabilities, computed as
    the hypergroup convolution of their radial profiles.

    Commutative, probability-preserving, with the point mass at 0 as the
    neutral element; the transform is multiplicative on the result.
    """
    kv = _as_kv(kv)
    out = convolve_measures(kv.lam, mu.profile, nu.profile, **kwargs)
    return KRadialMeasure(kv, out)


# ---------------------------------------------------------------------------
# semigroups


def _hankel_closure_residual(lam: float, family, s: float, t: float,
                             freqs: np.ndarray) -> float:
    """max_r | H(sigma_s)(r) H(sigma_t)(r) - H(sigma_(s+t))(r) |."""
    hs = hankel_transform(lam, family(s), freqs)
    ht = hankel_transform(lam, family(t), freqs)
    hst = hankel_transform(lam, family(s + t), freqs)
    return float(np.max(np.abs(hs * ht - hst)))


class KernelSemigroup:
    """Family t -> k-invariant Markov kernel built from radial profiles.

    The constructor verifies the hypergroup semigroup law of the profile
    family on sampled time pairs (in the transform domain, where the
    characters separate measures) and that the t = 0 member is the point
    mass at 0; kernels then come out of kernel(t) = delta_x *_k mu_t.
    """

    def __init__(self, kv, family, kind: str = "custom", seed: int | None = None,
                 check_times=(0.25, 0.5), check_freqs=None, tol: float = 1e-7):
        self.kv = _as_kv(kv)
        self.family = family
        self.kind = kind
        self.seed = seed
        zero = family(0.0)
        lo, hi = zero.support_bounds()
        if abs(zero.mass() - 1.0) > 1e-10 or max(abs(lo), abs(hi)) > 1e-12:
            raise ConfigError("family(0) must be the unit point mass at 0")
        if check_freqs is None:
            check_freqs = np.concatenate([[0.0], np.linspace(0.3, 6.0, 20)])
        self.closure_residual = 0.0
        for s in check_times:
            for t in check_times:
                res = _hankel_closure_residual(self.kv.lam, family, float(s), float(t),
                                               np.asarray(check_freqs, dtype=float))
                self.closure_residual = max(self.closure_residual, res)
        if self.closure_residual > tol:
            raise ConsistencyError(
                f"profile family violates the semigroup law: residual "
                f"{self.closure_residual:.3e} exceeds {tol}")

    def measure(self, t: float) -> KRadialMeasure:
        if t == 0.0:
            return KRadialMeasure.point(self.kv)
        return KRadialMeasure(self.kv, self.family(float(t)))

    def kernel(self, t: float) -> MarkovKernelHandle:
        return MarkovKernelHandle(self.kv, self.measure(t), time=float(t), kind=self.kind)

    __call__ = kernel

    def radial_hat(self, t: float, r):
        """Hankel image of the time-t profile at radial frequencies r."""
        r = np.asarray(r, dtype=float)
        return hankel_transform(self.kv.lam, self.family(float(t)), r) \
            if t > 0 else np.ones_like(r)

    def simulate(self, t_grid, n_paths: int, seed: int | None = None,
                 **kwargs) -> "PathEnsemble":
        if self.kind not in ("gaussian", "cauchy", "subordinated"):
            raise ConfigError(f"no exact sampler for kernel kind '{self.kind}'")
        if seed is None:
            seed = self.seed
        if seed is None:
            raise ConfigError("simulation needs a seed")
        return simulate_paths(self.kv, t_grid, n_paths, seed, kind=self.kind, **kwargs)


def build_semigroup(kv, family, **kwargs) -> KernelSemigroup:
    """Wrap a profile family t -> RadialProfileMeasure as a kernel semigroup.

    The family must satisfy the hypergroup law sigma_s o sigma_t =
    sigma_(s+t) (checked on sampled pairs in the transform domain) and
    start from the point mass at 0.
    """
    return KernelSemigroup(kv, family, **kwargs)


def _gaussian_family(kv, n: int = 256):
    lam = kv.lam

    def family(t: float) -> RadialProfileMeasure:
        return rayleigh_measure(lam, t, n=n) if t > 0 else dirac(0.0, lam=lam)

    return family


def _cauchy_family(kv, **params):
    lam = kv.lam

    def family(t: float) -> RadialProfileMeasure:
        return cauchy_measure(lam, t, **params) if t > 0 else dirac(0.0, lam=lam)

    return family


def semigroup_from_json(text: str, tol: float | None = None) -> KernelSemigroup:
    """Build a semigroup from its JSON spec:

        {"type": "gaussian" | "cauchy" | "subordinated",
         "k": [...], "params": {...}, "seed": ...}

    gaussian takes no params (profile resolution aside); cauchy accepts
    the cauchy_measure tuning knobs; subordinated requires
    params.alpha = 0.5, the one stable index with an exact sampler and
    densities, and is then the Cauchy semigroup.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"semigroup JSON is invalid: {exc}") from exc
    known = {"type", "k", "params", "seed"}
    extra = set(payload) - known
    if extra:
        raise ConfigError(f"unknown semigroup keys: {sorted(extra)}")
    for key in ("type", "k"):
        if key not in payload:
            raise ConfigError(f"semigroup JSON misses '{key}'")
    kind = payload["type"]
    kv = _as_kv(payload["k"])
    params = payload.get("params", {}) or {}
    seed = payload.get("seed")
    if kind == "gaussian":
        allowed = {"n_profile"}
        if set(params) - allowed:
            raise ConfigError(f"gaussian params allow only {sorted(allowed)}")
        family = _gaussian_family(kv, n=int(params.get("n_profile", 256)))
        default_tol = 1e-7
    elif kind in ("cauchy", "subordinated"):
        params = dict(params)
        if kind == "subordinated":
            alpha = params.pop("alpha", None)
            if alpha != 0.5:
                raise ConfigError("subordinated semigroups support alpha = 0.5 only")
        allowed = {"freq_max", "r_min", "tail_tol", "max_nodes"}
        if set(params) - allowed:
            raise ConfigError(f"{kind} params allow only alpha plus {sorted(allowed)}")
        family = _cauchy_family(kv, **params)
        # certified transform accuracy of the heavy-tailed profiles is ~5e-9
        default_tol = 1e-7
    else:
        raise ConfigError(f"unknown semigroup type '{kind}'")
    return KernelSemigroup(kv, family, kind=kind, seed=seed,
                           tol=default_tol if tol is None else float(tol))


# ---------------------------------------------------------------------------
# honest transforms of the transition kernels (quadrature, no factorization)


def _per_axis_heat_hat(k: float, t: float, x_scalar, xi_scalar, n: int) -> complex:
    """One axis of int E_k(-i xi, y) Gamma_k(t, x, y) w_k(y) dy by quadrature."""
    scale = 1.0 / np.sqrt(2.0 * t)
    extent = float(np.max(np.abs(x_scalar))) + np.sqrt(160.0 * t)
    rule = axis_rule(k, extent, n)
    g = _gauss_kernel_axis(k, np.asarray(x_scalar) * scale, rule.nodes * scale)
    e = np.conj(kernel_unitary(k, xi_scalar, rule.nodes))
    return (2.0 * t) ** (-(k + 0.5)) / _axis_c_norm(k) * np.sum(rule.weights * g * e)


def gaussian_kernel_hat(kv, t: float, x, xi, n: int = 160) -> complex:
    """Transform of the heat transition kernel,

        int E_k(-i xi, y) Gamma_k(t, x, y) w_k(y) dy,

    by direct per-axis quadrature.  Nothing about k-invariance enters,
    so comparing against E_k(-ix, xi) e^(-t |xi|^2) is a real check.
    """
    kv = _as_kv(kv)
    if not 0.0 < t < np.inf:
        raise ConfigError(f"kernel time must be finite and positive, got {t}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    total = 1.0 + 0.0j
    for i in range(kv.n_axes):
        total *= _per_axis_heat_hat(kv.k[i], t, x[i], xi[i], n)
    return complex(total)


def composed_kernel_hat(kv, s: float, t: float, x, xi, n: int = 160) -> complex:
    """Transform of the two-step composition (P_s o P_t)(x, .),

        int int E_k(-i xi, y) Gamma_k(t, z, y) w_k(y) dy Gamma_k(s, x, z) w_k(z) dz,

    by nested per-axis quadrature.  The semigroup law makes this equal
    gaussian_kernel_hat(s + t) and that is how it is verified.
    """
    kv = _as_kv(kv)
    if not (0.0 < s < np.inf and 0.0 < t < np.inf):
        raise ConfigError(f"kernel times must be finite and positive, got s={s}, t={t}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    total = 1.0 + 0.0j
    for i in range(kv.n_axes):
        k = kv.k[i]
        c_axis = _axis_c_norm(k)
        scale_s, scale_t = 1.0 / np.sqrt(2.0 * s), 1.0 / np.sqrt(2.0 * t)
        ext_z = abs(float(x[i])) + np.sqrt(160.0 * s)
        rule_z = axis_rule(k, ext_z, n)
        ext_y = ext_z + np.sqrt(160.0 * t)
        rule_y = axis_rule(k, ext_y, n)
        g_t = _gauss_kernel_axis(k, rule_z.nodes[:, None] * scale_t,
                                 rule_y.nodes[None, :] * scale_t)
        e = np.conj(kernel_unitary(k, xi[i], rule_y.nodes))
        inner = (2.0 * t) ** (-(k + 0.5)) / c_axis * (g_t @ (rule_y.weights * e))
        g_s = _gauss_kernel_axis(k, float(x[i]) * scale_s, rule_z.nodes * scale_s)
        total *= (2.0 * s) ** (-(k + 0.5)) / c_axis \
            * np.sum(rule_z.weights * g_s * inner)
    return complex(total)


def subordinated_kernel_hat(kv, t: float, x, xi, s_quad: float = 50.0,
                            n: int = 160) -> complex:
    """Transform of the subordinated (k-Cauchy) transition kernel.

    The kernel is the 1/2-stable time mixture of heat kernels; mixture
    times s <= s_quad go through the direct quadrature of
    gaussian_kernel_hat, and the far tail uses the dual reading of the
    heat kernel's spectral identity (a separately verified fact), where
    each slice contributes only e^(-s |xi|^2)-small terms.
    """
    kv = _as_kv(kv)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    rho = stable_half_subordinator(t)
    s_pos, s_mass = as_weighted_atoms(rho, cap=10**9)
    total = 0.0 + 0.0j
    xi_sq = float(np.sum(xi * xi))
    tail_kernel = None
    for s, m in zip(s_pos, s_mass):
        if s <= s_quad:
            total += m * gaussian_kernel_hat(kv, float(s), x, xi, n=n)
        else:
            if tail_kernel is None:
                tail_kernel = complex(np.conj(dunkl_kernel_unitary(kv, x, xi)))
            total += m * tail_kernel * np.exp(-s * xi_sq)
    return complex(total)


def subordinated_density(kv, t: float, x, y, cap: int = 2048):
    """Transition density of the k-Cauchy kernel against w_k(y) dy, as
    the 1/2-stable time mixture of closed-form heat kernels."""
    kv = _as_kv(kv)
    if t <= 0:
        raise ConfigError("kernel time must be positive")
    rho = stable_half_subordinator(t)
    s_pos, s_mass = as_weighted_atoms(rho, cap=cap)
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape[:-1] if y.ndim > 1 else ())
    for s, m in zip(s_pos, s_mass):
        out = out + m * heat_kernel(kv, float(s), x, y)
    return out


# ---------------------------------------------------------------------------
# exact path simulation


def _heat_step(rng, k: float, a: np.ndarray) -> np.ndarray:
    """One rank-one heat transition in scaled coordinates.

    Given a = x / sqrt(2 dt), returns b = y / sqrt(2 dt) with density
    proportional to e^(-(a^2+b^2)/2) E_k(a, b) |b|^(2k): the radius square
    is noncentral chi-square with 2k+1 degrees of freedom, |b|^2 =
    (Z + |a|)^2 + 2 Gamma(k), and the sign agrees with a with probability
    (1 + I_(k+1/2)(u) / I_(k-1/2)(u)) / 2 at u = |a| |b| (a tanh for
    k = 0, recovering the classical Gaussian step).
    """
    z = rng.standard_normal(a.shape)
    r_sq = (z + np.abs(a)) ** 2
    if k > 0.0:
        r_sq = r_sq + 2.0 * rng.standard_gamma(k, size=a.shape)
    b = np.sqrt(r_sq)
    u = np.abs(a) * b
    den = ive(k - 0.5, u)
    ratio = np.where(u > 0.0, ive(k + 0.5, u) / np.where(den > 0.0, den, 1.0), 0.0)
    same = rng.random(a.shape) < 0.5 * (1.0 + ratio)
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
        """Rows path_id,time,x1..xN; '#'-prefixed metadata lines on top."""
        with open(path, "w", newline="") as fh:
            for key, val in (header or {}).items():
                fh.write(f"# {key}: {val}\n")
            cols = ["path_id", "time"] + [f"x{i+1}" for i in range(self.n_axes)]
            fh.write(",".join(cols) + "\n")
            for pid in range(self.states.shape[0]):
                for j, tj in enumerate(self.times):
                    coords = ",".join(f"{c:.17g}" for c in self.states[pid, j])
                    fh.write(f"{pid},{tj:.17g},{coords}\n")


def _resolve_threads(threads: int | None, n_blocks: int) -> int:
    """Worker count: the request (argument, else DUNKL_KIT_THREADS, else 1)
    capped at the number of blocks and at os.cpu_count()."""
    if threads is None:
        env = os.environ.get("DUNKL_KIT_THREADS")
        try:
            threads = int(env) if env else 1
        except ValueError:
            raise ConfigError(f"DUNKL_KIT_THREADS must be an integer, got {env!r}") from None
    return max(1, min(int(threads), int(n_blocks), os.cpu_count() or 1))


def simulate_paths(kv, t_grid, n_paths: int, seed: int, kind: str = "gaussian",
                   n_blocks: int = 16, threads: int | None = None) -> PathEnsemble:
    """Simulate the Dunkl-type Brownian motion (or its Cauchy subordinate)
    started at 0, with exact transitions observed on t_grid.

    Paths are partitioned into n_blocks blocks, each driven by its own
    counter-based generator keyed by (seed, block index), so the output
    is byte-for-byte reproducible for fixed (seed, t_grid, n_paths,
    kind, n_blocks) no matter how many worker threads run the blocks.
    The Cauchy case draws one 1/2-stable time change per step per path
    (shared across coordinates) and reuses the heat stepper at the
    random time.
    """
    kv = _as_kv(kv)
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ConfigError("t_grid must hold at least the start and one later time")
    if not np.all(np.isfinite(times)):
        raise ConfigError("t_grid times must be finite")
    if times[0] != 0.0:
        raise ConfigError("t_grid must start at 0")
    if np.any(np.diff(times) <= 0):
        raise ConfigError("t_grid must be strictly increasing")
    if kind not in ("gaussian", "cauchy", "subordinated"):
        raise ConfigError(f"unknown process kind '{kind}'")
    n_paths = int(n_paths)
    if n_paths <= 0:
        raise ConfigError("n_paths must be positive")
    subord = kind in ("cauchy", "subordinated")
    n_axes = kv.n_axes
    dts = np.diff(times)
    states = np.zeros((n_paths, times.size, n_axes))
    bounds = np.linspace(0, n_paths, min(n_blocks, n_paths) + 1).astype(int)

    def run_block(b: int) -> None:
        lo, hi = bounds[b], bounds[b + 1]
        if lo == hi:
            return
        key = np.array([seed & _MASK64, b], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        x = np.zeros((hi - lo, n_axes))
        for j, dt in enumerate(dts, start=1):
            if subord:
                z = rng.standard_normal(hi - lo)
                s = (0.5 * dt * dt) / np.maximum(z * z, 1e-300)
            else:
                s = np.full(hi - lo, dt)
            scale = np.sqrt(2.0 * s)
            for i in range(n_axes):
                x[:, i] = scale * _heat_step(rng, kv.k[i], x[:, i] / scale)
            states[lo:hi, j] = x

    workers = _resolve_threads(threads, len(bounds) - 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_block, range(len(bounds) - 1)))
    else:
        for b in range(len(bounds) - 1):
            run_block(b)
    return PathEnsemble(times=times, states=states, seed=int(seed), kind=kind)


def marginal_ks(kv, radii, kind: str, t: float) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic and p-value of sampled radii against
    the exact radial distribution of the marginal at time t."""
    from scipy.stats import kstest

    kv = _as_kv(kv)
    if kind == "gaussian":
        cdf = lambda r: rayleigh_radial_cdf(kv.lam, t, r)
    elif kind in ("cauchy", "subordinated"):
        cdf = lambda r: cauchy_radial_cdf(kv.lam, t, r)
    else:
        raise ConfigError(f"no reference law for process kind '{kind}'")
    res = kstest(np.asarray(radii, dtype=float), cdf)
    return float(res.statistic), float(res.pvalue)
