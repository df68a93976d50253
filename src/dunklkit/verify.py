"""Named verification suites over the package's analytic identities.

Every suite pits at least two computational routes that share as little
code as possible against each other: quadrature against closed forms,
series against integral representations, samplers against exact laws.
Residuals are reported raw; the pass decision compares each case
against its entry in TOLERANCES, the one table every bound lives in.
Nothing overrides a bound: a PASS means the same thing on every run.

Suites are named by suite_names and run through run_suite / run_all;
reports serialize to plain dicts for the command-line front end.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .bessel_kingman import (
    cauchy_measure,
    convolve_measures,
    convolve_points,
    hankel_transform,
    rayleigh_measure,
)
from .core import (
    MultiplicityVector,
    alternating_sum_bessel,
    dunkl_kernel,
    dunkl_kernel_unitary,
    dunkl_operator,
    generalized_bessel_unitary,
    group_elements,
    intertwiner_atoms,
)
from .errors import ConfigError
from .harmonics import (SphereQuadrature, _reproducing_kernel_gegenbauer,
                        addition_theorem_residual, funk_hecke_pair, harmonic_basis,
                        kernel_series, orbit_integral, plane_wave_residual, reproducing_kernel)
from .markov import (KRadialMeasure, composed_kernel_hat, convolve_k, gaussian_kernel_hat,
                     marginal_ks, semigroup_from_json, simulate_paths, subordinated_kernel_hat)
from .measures import as_weighted_atoms
from .quadrature import _tensor_grid
from .special import bessel_j, bessel_j_imag
from .rank_one import kernel_unitary, signed_product_measure, spherical_mean, spherical_mean_measure
from .transform import (
    TransformPlan,
    _spectral_mean_weights,
    bump,
    chapman_kolmogorov_defect,
    darboux_residual,
    heat_kernel,
    heat_kernel_spectral,
    radial_bump,
    radial_heat_profile,
    spherical_mean_radial,
    spherical_mean_spectral,
    spherical_mean_wave,
    translated_normalization_defect,
)

__all__ = [
    "TOLERANCES",
    "CaseResult",
    "SuiteReport",
    "run_suite",
    "run_all",
    "suite_names",
]


# ---------------------------------------------------------------------------
# the tolerance table; every case's bound lives here and nowhere else.
# Entries bound an absolute error unless their comment gives another unit.

TOLERANCES: dict[str, float] = {
    "product-formula": 1e-6,
    "kernel-eigen": 1e-8,        # relative to E_k(x, y)
    "radial-product-formula": 1e-6,  # relative to the case's largest reference value
    "positivity": 1e-8,          # means may dip to -tol
    "support": 1e-8,
    "support-endpoint": 2.0,     # endpoint miss in local node spacings
    "support-endpoint-atomic": 1e-12,  # purely atomic measures: exact endpoints
    "plancherel-roundtrip": 1e-5,  # relative to max |f|
    "plancherel-ratio": 1e-4,      # relative: |norm^2 ratio - 1|
    "funk-hecke": 1e-7,
    "darboux": 0.5,              # |ratio of residuals at h and h/2 - 4|, no unit
    "chapman-kolmogorov": 1e-6,  # relative to the one-step density
    "heat-spectral": 1e-6,
    "heat-normalization": 1e-6,
    "translated-normalization": 1e-5,
    "addition-theorems": 1e-8,
    "kernel-series": 1e-8,
    "bessel-kingman-product": 1e-7,
    "bessel-kingman-closure": 1e-8,
    "markov-invariance": 1e-6,
    "markov-semigroup": 1e-5,
    "markov-morphism": 1e-7,
    "markov-continuity": 5e-3,
    "markov-ks": 0.0,            # 0.01 - KS p-value: passes when p >= 0.01
    "markov-reproducible": 0.0,  # 0/1 flag: 1 when the two CSVs' bytes differ
    "appendix": 1e-10,
    "orbit-integral": 1e-8,
}


@dataclass
class CaseResult:
    name: str
    residual: float
    tolerance: float

    def __post_init__(self):
        self.residual = float(self.residual)
        self.tolerance = float(self.tolerance)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_dict(self) -> dict:
        return {"case": self.name, "residual": self.residual,
                "tolerance": self.tolerance, "pass": self.passed}


@dataclass
class SuiteReport:
    suite: str
    results: list[CaseResult] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def cases(self) -> int:
        return len(self.results)

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.results), default=0.0)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def tolerance(self) -> float:
        return max((r.tolerance for r in self.results), default=0.0)

    def failures(self) -> list[CaseResult]:
        return [r for r in self.results if not r.passed]

    def to_dict(self) -> dict:
        out = {"suite": self.suite, "cases": self.cases,
               "max_residual": self.max_residual, "pass": self.passed,
               "tolerance": self.tolerance, "seconds": round(self.seconds, 3),
               "details": [r.to_dict() for r in self.results]}
        if not self.passed:
            out["failures"] = [r.to_dict() for r in self.failures()]
        return out


# ---------------------------------------------------------------------------
# product formulas


def _suite_product_formula() -> list[CaseResult]:
    """The kernel's defining identities.  Rank-one product formula against the
    signed point measure, E(ixz) E(iyz) = int E(i xi z) dmu_{x,y}(xi) for real
    frequencies z; the kernel wave y -> E(iy, z) as an eigenfunction of the
    mean, int E(i xi, z) dsigma_{x,t}(xi) = E(ix, z) j_lam(t |z|), whose odd
    part sees the orientation of sigma_{x,t}; and the eigen-equation of the
    Dunkl operators, T_xi E_k(., y)(x) = <xi, y> E_k(x, y) (Dunkl, Trans. AMS
    311, 1989), by finite differences against the product of rank-one kernels."""
    t = TOLERANCES["product-formula"]
    z = np.linspace(0.0, 5.0, 20)
    out = []
    for k in (0.5, 1.0, 2.5):
        for x in (-1.0, -0.5, 0.5, 1.0, 2.0):
            for y in (-1.0, -0.5, 0.5, 1.0, 2.0):
                mu = signed_product_measure(k, x, y, n=128)
                pos, mass = as_weighted_atoms(mu)
                rhs = mass @ kernel_unitary(k, pos[:, None], z[None, :])
                lhs = kernel_unitary(k, x, z) * kernel_unitary(k, y, z)
                res = float(np.max(np.abs(lhs - rhs)))
                out.append(CaseResult(f"k={k} x={x} y={y}", res, t))
    for k in (0.5, 1.0, 2.5):
        kv = MultiplicityVector((k,))
        worst = 0.0
        for x in (-1.3, 0.6, 1.7):
            for s in (0.4, 1.1):
                for z in (0.7, 2.3):
                    mean = spherical_mean(k, lambda p, z=z: kernel_unitary(k, p, z), x, s)
                    worst = max(worst, abs(mean - complex(spherical_mean_wave(kv, z, x, s))))
        out.append(CaseResult(f"kernel wave mean k={k}", worst, t))
    t_eig = TOLERANCES["kernel-eigen"]
    rng = np.random.default_rng(47)
    for k in ((1.0,), (1.0, 0.5), (2.0, 0.5)):
        kv = MultiplicityVector(k)
        worst = 0.0
        for _ in range(4):
            x, y = rng.uniform(-1.5, 1.5, size=(2, kv.n_axes))
            f = lambda p, y=y: float(dunkl_kernel(kv, p, y))
            for xi in np.eye(kv.n_axes):
                got = dunkl_operator(kv, f, x, xi)
                worst = max(worst, abs(got - (xi @ y) * f(x)) / f(x))
        out.append(CaseResult(f"eigen-equation k={k}", worst, t_eig))
    return out


def _angle_law_moment_error(kv, x, n: int) -> float:
    """Max error of the law of u = <xi, omega> / |x| (intertwiner atoms against
    SphereQuadrature, the two signed points at N = 1; n nodes, exact here from
    n = 7) against the angle law at lam: E u^(2m) = (1/2)_m / (lam + 1)_m
    (relative) and E u^(2m - 1) = 0, m <= 6."""
    pts, masses = intertwiner_atoms(kv, x, n_per_axis=n)
    rule = SphereQuadrature(kv, n=n)
    u = (rule.points @ pts.T).ravel() / np.sqrt(x @ x)
    w = np.multiply.outer(rule.weights / kv.d_norm, masses).ravel()
    moments = np.array([w @ u**j for j in range(1, 13)])
    m = np.arange(1, 7)
    want = np.cumprod((m - 0.5) / (kv.lam + m))
    return max(np.max(np.abs(moments[1::2] / want - 1.0)), np.max(np.abs(moments[::2])))


def _suite_radial_product_formula() -> list[CaseResult]:
    """Spherical means of radial characters follow the one-dimensional
    product law at the radial index: averaging y -> j_lam(z |y|) over the
    mean measure at (x, t) gives j_lam(z |x|) j_lam(z t).  The left side is
    the Bessel-Kingman point convolution of |x| and t, one angle rule at lam,
    and knows nothing about j_lam.  The spectral cases take the mean of
    e^(-|y|^2) from its transform on a default plan instead.  The moment cases
    take the paper's own route to the law of <xi, omega>, intertwiner atoms
    against the sphere, and check that it is the law of |x| u that the left
    side integrates."""
    t_ = TOLERANCES["radial-product-formula"]
    rng = np.random.default_rng(20260819)
    z = np.linspace(0.25, 5.0, 20)
    out = []
    for k in ((1.0,), (0.5,), (1.0, 1.0), (2.0, 0.5)):
        kv = MultiplicityVector(k)
        for case in range(10):
            x = rng.uniform(-2.0, 2.0, size=kv.n_axes)
            t = rng.uniform(0.1, 2.0)
            rx = float(np.sqrt(x @ x))
            lhs = np.array([spherical_mean_radial(
                kv, lambda r, zz=zz: bessel_j(kv.lam, zz * np.asarray(r)), x, t)
                for zz in z])
            rhs = bessel_j(kv.lam, z * rx) * bessel_j(kv.lam, z * t)
            scale = max(float(np.max(np.abs(rhs))), 1e-6)
            res = float(np.max(np.abs(lhs - rhs))) / scale
            out.append(CaseResult(f"k={k} case={case}", res, t_))
    rng = np.random.default_rng(53)
    gauss = lambda r: np.exp(-np.asarray(r) ** 2)
    for k in ((1.0,), (2.0, 0.5)):
        kv = MultiplicityVector(k)
        plan = TransformPlan(kv)
        fhat = plan.forward(plan.sample(lambda p: gauss(np.sqrt(np.sum(p * p, axis=-1)))))
        worst = scale = 0.0
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=kv.n_axes)
            t = rng.uniform(0.1, 2.0)
            radial = spherical_mean_radial(kv, gauss, x, t)
            worst = max(worst, abs(spherical_mean_spectral(kv, plan, fhat, x, t) - radial))
            scale = max(scale, abs(radial))
        out.append(CaseResult(f"k={k} spectral route", worst / max(scale, 1e-6), t_))
    for k, x, n in (((1.0,), [1.3], 16), ((0.5,), [-0.8], 16), ((1.0, 1.0), [0.9, -0.7], 16),
                    ((2.0, 0.5), [-0.4, 1.1], 16), ((0.3, 1.7), [0.9, -0.7], 16),
                    ((1.0, 0.5, 0.3), [0.9, -0.7, 0.4], 8)):
        res = _angle_law_moment_error(MultiplicityVector(k), np.array(x), n)
        out.append(CaseResult(f"k={k} moments", res, t_))
    return out


# ---------------------------------------------------------------------------
# bump batteries: positivity and support of the mean measures


def _battery_means(plan: TransformPlan, bumps, pairs) -> np.ndarray:
    """means[i, j] = M_{f_i}(x_j, t_j): one weight row per pair (axis vectors' outer product
    times the radial factor on the grid), so a bump costs a forward transform and dot products."""
    def row(x, t):
        axes, radial = _spectral_mean_weights(plan, x, t)
        return (reduce(np.multiply.outer, axes) * radial[plan._radius_index]).ravel()
    combo = np.array([row(x, t) for x, t in pairs])
    means = np.empty((len(bumps), len(pairs)))
    for i, f in enumerate(bumps):
        fhat = plan.forward(plan.sample(f)).ravel()
        means[i] = np.real(combo @ fhat)
    return means


# space rules must resolve the top frequency: n >= 0.36 * freq_extent * extent
_BATTERY_PLANS = {
    1: dict(extent=4.0, n=160, freq_extent=110.0, freq_n=416),
    2: dict(extent=4.0, n=110, freq_extent=70.0, freq_n=300),
}
_SUPPORT_PLAN = dict(extent=4.0, n=160, freq_extent=110.0, freq_n=416)


def _random_bumps(rng, n_axes: int, count: int, center_box: float,
                  radius_lo: float, radius_hi: float):
    bumps = []
    for _ in range(count):
        c = rng.uniform(-center_box, center_box, size=n_axes)
        r = rng.uniform(radius_lo, radius_hi)
        order = int(rng.integers(10, 14))
        bumps.append(bump(c, r, order=order))
    return bumps


def _smooth_nonneg(rng, n_axes: int, count: int):
    """Squared polynomial times Gaussian: nonnegative, infinitely smooth,
    rapidly decaying on both sides of the transform."""
    fns = []
    for _ in range(count):
        a = rng.uniform(0.3, 1.2)
        c = rng.uniform(-2.0, 2.0, size=n_axes)
        coeffs = rng.uniform(-1.0, 1.0, size=(n_axes, 3))

        def f(pts, a=a, c=c, coeffs=coeffs):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            q = np.ones(pts.shape[0])
            for i in range(pts.shape[1]):
                q = q * np.polyval(coeffs[i], pts[:, i])
            return q * q * np.exp(-a * np.sum((pts - c) ** 2, axis=-1))

        fns.append(f)
    return fns


def _suite_positivity() -> list[CaseResult]:
    """200 seeded nonnegative test functions per group, 150 smooth
    rapidly-decaying ones plus 50 compactly supported bumps; every
    spherical mean must stay above -tolerance.  The residual is the
    negated minimum, so a clean battery reports a negative residual."""
    t_ = TOLERANCES["positivity"]
    rng = np.random.default_rng(11)
    out = []
    for k in ((1.0,), (1.0, 1.0)):
        kv = MultiplicityVector(k)
        pairs = [(rng.uniform(-1.8, 1.8, size=kv.n_axes), rng.uniform(0.05, 2.0))
                 for _ in range(20)]
        smooth = _smooth_nonneg(rng, kv.n_axes, 150)
        means_s = _battery_means(TransformPlan(kv), smooth, pairs)
        radius_lo = 0.55 if kv.n_axes == 1 else 0.6
        compact = _random_bumps(rng, kv.n_axes, 50, 2.0, radius_lo, 1.0)
        plan = TransformPlan(kv, **_BATTERY_PLANS[kv.n_axes])
        means_c = _battery_means(plan, compact, pairs)
        out.append(CaseResult(f"k={k} smooth=150 pairs=20",
                              float(-np.min(means_s)), t_))
        out.append(CaseResult(f"k={k} compact=50 pairs=20",
                              float(-np.min(means_c)), t_))
    return out


def _support_batteries(rng, kv, x, t):
    """Bumps vanishing on the support of the mean measure at (x, t):
    outside every ball B(gx, t) over the group orbit, or inside the
    centered hole of radius ||x| - t|."""
    images = group_elements(kv.n_axes) * np.asarray(x, dtype=float)
    hole = abs(float(np.sqrt(x @ x)) - t)
    outside = []
    while len(outside) < 25:
        c = rng.uniform(-3.0, 3.0, size=kv.n_axes)
        r = rng.uniform(0.4, 0.8)
        if np.max(np.abs(c)) + r > 3.8:
            continue
        if np.min(np.sqrt(np.sum((images - c) ** 2, axis=-1))) > t + r + 0.05:
            outside.append(bump(c, r, order=int(rng.integers(12, 16))))
    inside = []
    while len(inside) < 25:
        r = rng.uniform(0.15, 0.6 * hole)
        c = rng.uniform(-hole, hole, size=kv.n_axes)
        if np.sqrt(c @ c) + r < hole - 0.03:
            inside.append(bump(c, r, order=int(rng.integers(12, 16))))
    return outside, inside


def _endpoint_case(name: str, k: float, x: float, t: float) -> CaseResult:
    """Support endpoints of the rank-one mean measure, in units of the
    local node spacing (atoms pin the endpoints exactly)."""
    mu = spherical_mean_measure(k, x, t, n=128)
    pos, mass = as_weighted_atoms(mu)
    pos = np.sort(np.unique(np.abs(pos[np.abs(mass) > 0])))
    lo_want, hi_want = abs(abs(x) - t), abs(x) + t
    if pos.size < 4:  # purely atomic: endpoints must be exact
        res = float(max(abs(pos[0] - lo_want), abs(pos[-1] - hi_want)))
        return CaseResult(name, res, TOLERANCES["support-endpoint-atomic"])
    spacing = float(max(pos[1] - pos[0], pos[-1] - pos[-2]))
    res = float(max(abs(pos[0] - lo_want), abs(pos[-1] - hi_want))) / spacing
    overshoot = float(max(lo_want - pos[0], pos[-1] - hi_want, 0.0)) / spacing
    return CaseResult(name, max(res, 2.0 * overshoot), TOLERANCES["support-endpoint"])


def _suite_support() -> list[CaseResult]:
    """Mean measures live on the annulus intersected with the orbit balls:
    bumps supported off that set integrate to numerical zero, and the
    rank-one node sets end where the annulus does."""
    t_ = TOLERANCES["support"]
    out = [
        _endpoint_case("endpoints k=1 x=1 t=0.3", 1.0, 1.0, 0.3),
        _endpoint_case("endpoints k=1 x=0 t=1", 1.0, 0.0, 1.0),
        _endpoint_case("endpoints k=0.5 x=1.5 t=0.7", 0.5, 1.5, 0.7),
        _endpoint_case("endpoints k=2.5 x=0.4 t=1.1", 2.5, 0.4, 1.1),
    ]
    rng = np.random.default_rng(17)
    kv = MultiplicityVector((1.0, 1.0))
    x = np.array([1.0, 0.0])
    t = 0.5
    plan = TransformPlan(kv, **_SUPPORT_PLAN)
    outside, inside = _support_batteries(rng, kv, x, t)
    means = _battery_means(plan, outside + inside, [(x, t)])
    out.append(CaseResult("outside-orbit bumps k=(1,1) x=(1,0) t=0.5",
                          float(np.max(np.abs(means[:25]))), t_))
    out.append(CaseResult("inner-hole bumps k=(1,1) x=(1,0) t=0.5",
                          float(np.max(np.abs(means[25:]))), t_))
    # rank-one battery through the explicit measures
    rng1 = np.random.default_rng(18)
    kv1 = MultiplicityVector((1.0,))
    worst = 0.0
    for _ in range(25):
        x1 = rng1.uniform(0.3, 2.0)
        t1 = rng1.uniform(0.1, 1.5)
        mu = spherical_mean_measure(1.0, x1, t1, n=128)
        pos, mass = as_weighted_atoms(mu)
        lo, hi = abs(x1 - t1), x1 + t1
        c = rng1.uniform(hi + 0.3, hi + 1.0) * rng1.choice([-1.0, 1.0])
        r = rng1.uniform(0.05, 0.25)
        f = radial_bump(r, order=8)
        worst = max(worst, float(abs(mass @ f(np.abs(pos - c)))))
        if lo > 0.2:
            f2 = radial_bump(0.8 * lo, order=8)
            worst = max(worst, float(abs(mass @ f2(np.abs(pos)))))
    out.append(CaseResult("rank-one off-support bumps", worst, t_))
    return out


# ---------------------------------------------------------------------------
# transform suite


def _schwartz_functions(rng, n_axes: int, count: int):
    fns = []
    for _ in range(count):
        a = rng.uniform(0.4, 1.5)
        b = rng.uniform(-1.0, 1.0, size=n_axes)
        coeffs = rng.uniform(-1.0, 1.0, size=(n_axes, 3))

        def f(pts, a=a, b=b, coeffs=coeffs):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            poly = np.ones(pts.shape[0])
            for i in range(pts.shape[1]):
                poly = poly * np.polyval(coeffs[i], pts[:, i])
            r2 = np.sum(pts * pts, axis=-1)
            return poly * np.exp(-a * r2) * np.exp(1j * (pts @ b))

        fns.append(f)
    return fns


def _suite_plancherel() -> list[CaseResult]:
    """Round-trip inversion and norm preservation of the transform on
    random Schwartz-class functions (polynomial times Gaussian times
    oscillation), one and two axes."""
    t_round = TOLERANCES["plancherel-roundtrip"]
    t_ratio = TOLERANCES["plancherel-ratio"]
    rng = np.random.default_rng(23)
    out = []
    for k in ((1.0,), (1.0, 0.5)):
        kv = MultiplicityVector(k)
        plan = TransformPlan(kv)
        for j, f in enumerate(_schwartz_functions(rng, kv.n_axes, 5)):
            out.append(CaseResult(f"roundtrip k={k} f{j}",
                                  plan.roundtrip_defect(f), t_round))
            out.append(CaseResult(f"plancherel k={k} f{j}",
                                  plan.plancherel_defect(f), t_ratio))
    return out


# ---------------------------------------------------------------------------
# sphere suites


def _suite_funk_hecke() -> list[CaseResult]:
    """Sphere integrals of kernel times harmonic against their closed
    forms, plus the degree-zero radialization of the kernel."""
    t_ = TOLERANCES["funk-hecke"]
    out = []
    planar = [np.array([0.9, 0.2]), np.array([-1.4, 2.1]), np.array([2.4, -1.8])]
    for k, xs, degrees, radii in (((1.0, 0.5), planar, 5, 20), ((2.0, 1.0), planar, 5, 20),
                                  ((1.0, 0.5, 0.3), [np.array([0.9, 0.2, -0.6])], 3, 5)):
        kv = MultiplicityVector(k)
        rule = SphereQuadrature(kv, n=96)
        for n in range(degrees):
            worst = 0.0
            for coeffs in harmonic_basis(kv, n):
                for x in xs:
                    lhs, rhs = funk_hecke_pair(kv, coeffs, x)
                    worst = max(worst, abs(lhs - rhs))
            out.append(CaseResult(f"pairing k={k} degree={n}", worst, t_))
        rng = np.random.default_rng(29)
        worst = 0.0
        for rx in np.linspace(0.1, 3.0, radii):  # directions from N - 1 angles
            phi = rng.uniform(0.0, 2.0 * np.pi, size=kv.n_axes - 1)
            z = rx * np.append(np.cos(phi), 1.0) * np.cumprod(np.append(1.0, np.sin(phi)))
            quad = rule.integrate_values(
                dunkl_kernel_unitary(kv, rule.points, z)) / kv.d_norm
            worst = max(worst, abs(quad - bessel_j(kv.lam, rx)))
        out.append(CaseResult(f"radialization k={k} {radii} radii", worst, t_))
    return out


def _suite_addition_theorems() -> list[CaseResult]:
    """Gegenbauer addition and plane-wave expansions at n_max = 40, and
    the harmonic series of the kernel at n_max = 20 against its direct
    evaluation."""
    t_add = TOLERANCES["addition-theorems"]
    t_ser = TOLERANCES["kernel-series"]
    out = []
    costheta = np.linspace(-1.0, 1.0, 41)
    for lam in (0.5, 1.5, 2.0):
        worst = max(addition_theorem_residual(lam, s, t, costheta, n_max=40)
                    for s in (0.5, 2.0, 5.0, 10.0) for t in (0.5, 2.0, 5.0, 10.0))
        out.append(CaseResult(f"addition lam={lam}", worst, t_add))
        worst = max(plane_wave_residual(lam, r, costheta, n_max=40)
                    for r in (0.5, 2.0, 5.0, 10.0))
        out.append(CaseResult(f"plane-wave lam={lam}", worst, t_add))
    for k, draws in (((1.0, 0.5), 12), ((2.0, 1.0), 12), ((1.0, 0.5, 0.3), 3)):
        kv = MultiplicityVector(k)
        rng = np.random.default_rng(31)
        worst = worst_geg = 0.0
        for _ in range(draws):
            x = rng.uniform(-1.0, 1.0, size=kv.n_axes)
            x *= rng.uniform(0.2, 2.0) / max(np.sqrt(x @ x), 1e-9)
            y = rng.uniform(-1.0, 1.0, size=kv.n_axes)
            y *= rng.uniform(0.2, 2.0) / max(np.sqrt(y @ y), 1e-9)
            direct = complex(dunkl_kernel_unitary(kv, x, y))
            series = kernel_series(kv, x, y, n_max=20)
            worst = max(worst, abs(direct - series))
            worst_geg = max(worst_geg, *(abs(reproducing_kernel(kv, n, x, y)
                                             - _reproducing_kernel_gegenbauer(kv, n, x, y))
                                         for n in range(5)))
        out.append(CaseResult(f"kernel series k={k}", worst, t_ser))
        out.append(CaseResult(f"reproducing kernel k={k} basis vs gegenbauer n=0..4",
                              worst_geg, t_ser))
    return out


def _suite_orbit() -> list[CaseResult]:
    """Two-kernel sphere averages: direct quadrature against the
    intertwined one-Bessel form, plus the degenerate closed forms."""
    t_ = TOLERANCES["orbit-integral"]
    out = []
    for k, draws in (((1.0, 0.5), 8), ((0.5, 2.0), 8), ((1.0, 0.5, 0.3), 4)):
        kv = MultiplicityVector(k)
        rng = np.random.default_rng(37)
        worst = 0.0
        rule = SphereQuadrature(kv, n=96)
        for _ in range(draws):
            x = rng.uniform(-1.5, 1.5, size=kv.n_axes)
            z = rng.uniform(-1.5, 1.5, size=kv.n_axes)
            r = rng.uniform(0.2, 3.0)
            radial = orbit_integral(kv, x, z, r)
            vals = (dunkl_kernel_unitary(kv, x, r * rule.points)
                    * np.conj(dunkl_kernel_unitary(kv, z, r * rule.points)))
            direct = complex(rule.integrate_values(vals)) / kv.d_norm
            worst = max(worst, abs(direct - radial))
        out.append(CaseResult(f"routes k={k}", worst, t_))
        x = rng.uniform(-1.5, 1.5, size=kv.n_axes)
        res = max(abs(orbit_integral(kv, np.zeros(kv.n_axes), x, 1.7)
                      - bessel_j(kv.lam, 1.7 * np.sqrt(x @ x))),
                  abs(orbit_integral(kv, x, np.zeros(kv.n_axes), 1.7)
                      - bessel_j(kv.lam, 1.7 * np.sqrt(x @ x))))
        out.append(CaseResult(f"degenerate k={k}", float(res), t_))
    return out


# ---------------------------------------------------------------------------
# wave equation


def _suite_darboux() -> list[CaseResult]:
    """Spherical means solve the radial wave identity; the finite
    difference residual must shrink at second order when the time step
    halves (ratio near 4)."""
    t_ = TOLERANCES["darboux"]
    out = []
    cases = [((1.0,), np.array([0.8]), 0.6),
             ((1.0, 0.5), np.array([0.9, -0.7]), 0.5)]
    for k, x, t in cases:
        kv = MultiplicityVector(k)
        f0 = lambda r: np.exp(-0.4 * np.asarray(r) ** 2) * (1.0 + 0.1 * np.asarray(r) ** 2)
        mean_fn = lambda p, tt: spherical_mean_radial(kv, f0, p, tt)
        r1 = darboux_residual(kv, mean_fn, x, t, h=0.05)
        r2 = darboux_residual(kv, mean_fn, x, t, h=0.025)
        ratio = r1 / r2
        out.append(CaseResult(f"order ratio k={k}", abs(ratio - 4.0), t_))
    return out


# ---------------------------------------------------------------------------
# heat kernel


def _suite_chapman_kolmogorov() -> list[CaseResult]:
    """Two-step heat compositions against the single step, mass
    normalization of plain and translated heat kernels, and the closed form
    against the kernel's frequency representation.  Composition and mass
    (gaussian_kernel_hat at xi = 0) on heat windows (96 + 96 nodes per axis)
    and the spectral route (128 + 128) go axis by axis, up to N = 3; the
    translated mass couples the axes on (192)^N points x 40^N atoms, so it
    stays at N <= 2."""
    t_ck = TOLERANCES["chapman-kolmogorov"]
    t_norm = TOLERANCES["heat-normalization"]
    t_trans = TOLERANCES["translated-normalization"]
    out = []
    cases = [((1.0,), np.array([0.7]), np.array([-0.4])),
             ((0.5,), np.array([1.2]), np.array([0.3])),
             ((1.0, 1.0), np.array([0.8, -0.5]), np.array([-0.2, 0.9])),
             ((2.0, 0.5), np.array([1.0, 0.4]), np.array([0.6, -0.8])),
             ((1.0, 0.5, 0.3), np.array([0.7, -0.4, 0.5]), np.array([-0.3, 0.6, 0.2]))]
    for k, x, y in cases:
        kv = MultiplicityVector(k)
        worst = max(chapman_kolmogorov_defect(kv, s1, s2, x, y)
                    for s1, s2 in ((0.25, 0.75), (0.5, 0.5)))
        out.append(CaseResult(f"composition k={k}", worst, t_ck))
        mass = gaussian_kernel_hat(kv, 0.5, x, np.zeros(kv.n_axes))
        out.append(CaseResult(f"normalization k={k}", abs(mass - 1.0), t_norm))
    for name, k, s, x in (("k=(1,) x=1 y=-1 s=0.5", (1.0,), 0.5, [1.0]),
                          ("k=(1,0.5) x=(1,-1) s=0.4", (1.0, 0.5), 0.4, [1.0, -1.0])):
        out.append(CaseResult(f"translated normalization {name}",
                              translated_normalization_defect(k, s, x), t_trans))
    for k, x, y in (((1.0,), [0.7], [-0.4]), ((1.0, 0.5), [0.8, -0.3], [0.2, 0.9])):
        kv = MultiplicityVector(k)
        worst = max(float(np.abs(heat_kernel(kv, s, x, y) - heat_kernel_spectral(kv, s, x, y)))
                    for s in (0.4, 1.0))
        out.append(CaseResult(f"spectral vs closed k={k}", worst, TOLERANCES["heat-spectral"]))
    return out


# ---------------------------------------------------------------------------
# radial hypergroup


def _suite_bessel_kingman() -> list[CaseResult]:
    """Point convolution against the character product formula, and
    closure of the canonical one-parameter families under convolution,
    read in the transform domain."""
    t_prod = TOLERANCES["bessel-kingman-product"]
    t_clos = TOLERANCES["bessel-kingman-closure"]
    out = []
    r = np.linspace(0.0, 5.0, 20)
    for lam in (0.5, 1.0, 2.5):
        worst = 0.0
        for x, y in ((0.5, 0.5), (1.0, 0.3), (2.0, 1.5), (0.2, 2.5)):
            mu = convolve_points(lam, x, y, n=128)
            got = hankel_transform(lam, mu, r)
            want = bessel_j(lam, x * r) * bessel_j(lam, y * r)
            worst = max(worst, float(np.max(np.abs(got - want))))
        out.append(CaseResult(f"product lam={lam}", worst, t_prod))
    freqs = np.linspace(0.0, 6.0, 25)
    for lam in (0.5, 1.5):
        worst = 0.0
        for s, t in ((0.25, 0.75), (0.5, 0.5), (0.2, 1.0)):
            conv = convolve_measures(lam, rayleigh_measure(lam, s),
                                     rayleigh_measure(lam, t))
            got = hankel_transform(lam, conv, freqs)
            worst = max(worst, float(np.max(np.abs(got - np.exp(-(s + t) * freqs**2)))))
        out.append(CaseResult(f"gaussian closure lam={lam}", worst, t_clos))
    worst = 0.0
    for s, t in ((0.25, 0.75), (0.5, 0.5)):
        conv = convolve_measures(1.5, cauchy_measure(1.5, s), cauchy_measure(1.5, t))
        got = hankel_transform(1.5, conv, freqs)
        worst = max(worst, float(np.max(np.abs(got - np.exp(-(s + t) * freqs)))))
    out.append(CaseResult("cauchy closure lam=1.5", worst, t_clos))
    return out


# ---------------------------------------------------------------------------
# Markov kernels


def _suite_markov() -> list[CaseResult]:
    """Transform factorization of the transition kernels by direct
    quadrature, the semigroup law for composed kernels and for the heat
    kernel delta_x *_k mu_t applied to a radial heat profile (P_t F_s =
    F_(t+s)), multiplicativity on radial profiles, weak continuity in time,
    marginal laws of the exact sampler, and bytewise reproducibility."""
    t_inv = TOLERANCES["markov-invariance"]
    t_sg = TOLERANCES["markov-semigroup"]
    t_mor = TOLERANCES["markov-morphism"]
    t_cont = TOLERANCES["markov-continuity"]
    t_ks = TOLERANCES["markov-ks"]
    t_rep = TOLERANCES["markov-reproducible"]
    out = []

    probes = {1: (np.array([1.0]), [np.array([0.5]), np.array([1.4]),
                                    np.array([-0.8])]),
              2: (np.array([0.8, -0.5]), [np.array([0.4, 0.9]),
                                          np.array([-1.1, 0.3])])}
    for k in ((1.0,), (1.0, 1.0), (2.0, 0.5)):
        kv = MultiplicityVector(k)
        x, xis = probes[kv.n_axes]
        worst = 0.0
        for t in (0.3, 1.0):
            mu = KRadialMeasure.heat(kv, t)
            for xi in xis:
                denom = float(mu.hat(xi))
                if abs(denom) <= 1e-3:
                    continue
                ratio = gaussian_kernel_hat(kv, t, x, xi) / denom
                want = complex(np.conj(dunkl_kernel_unitary(kv, x, xi)))
                worst = max(worst, abs(ratio - want))
        out.append(CaseResult(f"gaussian invariance k={k}", worst, t_inv))
    for k in ((1.0,), (1.0, 0.5)):
        kv = MultiplicityVector(k)
        x, xis = probes[kv.n_axes]
        worst = max(abs(composed_kernel_hat(kv, s, t, x, xis[0])
                        - gaussian_kernel_hat(kv, s + t, x, xis[0]))
                    for s, t in ((0.25, 0.75), (0.5, 0.5)))
        out.append(CaseResult(f"composition k={k}", worst, t_sg))
    for k, x in (((1.0,), [1.0]), ((1.0, 0.5), [0.8, -0.5]), ((2.0, 0.5, 0.3), [0.8, -0.5, 0.3])):
        sg = semigroup_from_json(json.dumps({"type": "gaussian", "k": k}))
        worst = max(abs(sg.kernel(t).apply(x, f0=lambda r: radial_heat_profile(sg.kv, s, r))
                        - radial_heat_profile(sg.kv, t + s, float(np.linalg.norm(x))))
                    for t, s in ((0.3, 0.5), (1.0, 0.25)))
        out.append(CaseResult(f"translated heat kernel k={k}", worst, t_sg))
    kv = MultiplicityVector((1.0,))
    x, xis = probes[1]
    worst = 0.0
    for t in (0.5, 1.0):
        for xi in xis:
            got = subordinated_kernel_hat(kv, t, x, xi)
            want = (complex(np.conj(dunkl_kernel_unitary(kv, x, xi)))
                    * np.exp(-t * float(np.sqrt(xi @ xi))))
            worst = max(worst, abs(got - want))
    out.append(CaseResult("cauchy invariance k=(1,)", worst, t_inv))

    kv = MultiplicityVector((1.0, 0.5))
    mu, nu = KRadialMeasure.heat(kv, 0.3), KRadialMeasure.cauchy(kv, 0.6)
    conv = convolve_k(mu, nu)
    xi = np.stack([np.linspace(0.0, 4.0, 15), np.linspace(0.0, 2.0, 15)], axis=-1)
    res = float(np.max(np.abs(conv.hat(xi) - mu.hat(xi) * nu.hat(xi))))
    out.append(CaseResult("profile morphism k=(1,0.5)", res, t_mor))

    freqs = np.stack([np.linspace(0.0, 4.0, 20), np.zeros(20)], axis=-1)
    h = KRadialMeasure.heat(kv, 0.25).hat(freqs)
    h_eps = KRadialMeasure.heat(kv, 0.251).hat(freqs)
    out.append(CaseResult("weak continuity k=(1,0.5)",
                          float(np.max(np.abs(h_eps - h))), t_cont))

    t_grid = np.array([0.0, 0.5, 1.0])
    for k, kind in (((1.0,), "gaussian"), ((1.0, 0.5), "gaussian"),
                    ((1.0,), "cauchy")):
        kv = MultiplicityVector(k)
        ens = simulate_paths(kv, t_grid, 20000, seed=2026, kind=kind)
        _, p = marginal_ks(kv, ens.radii(-1), kind, 1.0)
        out.append(CaseResult(f"marginal KS {kind} k={k}", 0.01 - p, t_ks))

    ens_a = simulate_paths(MultiplicityVector((1.0,)), t_grid, 500, seed=5,
                           kind="gaussian", threads=1)
    ens_b = simulate_paths(MultiplicityVector((1.0,)), t_grid, 500, seed=5,
                           kind="gaussian", threads=4)
    blobs = []
    for ens in (ens_a, ens_b):
        fd, path = tempfile.mkstemp(suffix=".csv")
        os.close(fd)
        ens.to_csv(path, header={"seed": 5})
        with open(path, "rb") as fh:
            blobs.append(fh.read())
        os.unlink(path)
    out.append(CaseResult("bytewise reproducibility",
                          0.0 if blobs[0] == blobs[1] else 1.0, t_rep))
    return out


# ---------------------------------------------------------------------------
# degenerate closed forms


def _suite_appendix() -> list[CaseResult]:
    """Multiplicity-one closed forms: the alternating exponential sum,
    the group-averaged kernel, and the half-integer Bessel function all
    coincide."""
    t_ = TOLERANCES["appendix"]
    out = []
    grid = np.linspace(-3.0, 3.0, 20)
    xl = _tensor_grid([grid, grid])
    X, L = xl[:, 0], xl[:, 1]
    alt = alternating_sum_bessel(X[:, None], L[:, None])
    closed = bessel_j_imag(0.5, X * L)
    out.append(CaseResult("alternating sum vs j_(1/2), 20x20",
                          float(np.max(np.abs(alt - closed))), t_))
    kv = MultiplicityVector((1.0,))
    avg = np.array([complex(generalized_bessel_unitary(kv, np.array([x]),
                                                       np.array([l])))
                    for x, l in zip(X[::37], L[::37])])
    closed_u = bessel_j(0.5, X[::37] * L[::37])
    out.append(CaseResult("group average vs j_(1/2)",
                          float(np.max(np.abs(avg - closed_u))), t_))
    kv2 = MultiplicityVector((1.0, 1.0))
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, size=2)
        y = rng.uniform(-2.0, 2.0, size=2)
        got = complex(generalized_bessel_unitary(kv2, x, y))
        want = complex(np.prod(bessel_j(0.5, x * y)))
        worst = max(worst, abs(got - want))
    out.append(CaseResult("two-axis factorization", worst, t_))
    return out


# ---------------------------------------------------------------------------
# registry and entry points

_SUITES = {
    "product-formula": _suite_product_formula,
    "radial-product-formula": _suite_radial_product_formula,
    "positivity": _suite_positivity,
    "support": _suite_support,
    "plancherel": _suite_plancherel,
    "funk-hecke": _suite_funk_hecke,
    "darboux": _suite_darboux,
    "chapman-kolmogorov": _suite_chapman_kolmogorov,
    "addition-theorems": _suite_addition_theorems,
    "bessel-kingman": _suite_bessel_kingman,
    "markov": _suite_markov,
    "orbit-integral": _suite_orbit,
    "appendix": _suite_appendix,
}


def suite_names() -> list[str]:
    return list(_SUITES)


def run_suite(name: str) -> SuiteReport:
    if name not in _SUITES:
        raise ConfigError(f"unknown suite '{name}'; available: {', '.join(_SUITES)}")
    start = time.perf_counter()
    results = _SUITES[name]()
    return SuiteReport(name, results, time.perf_counter() - start)


def run_all(names=None) -> list[SuiteReport]:
    """Run the named suites (default: all) in order.  Every name is checked
    before the first suite runs, so an unknown one costs no suite time."""
    names = names or suite_names()
    unknown = sorted(set(names) - set(_SUITES))
    if unknown:
        raise ConfigError(f"unknown suites {unknown}; available: {', '.join(_SUITES)}")
    return [run_suite(n) for n in names]
