"""Per-call cost of the two calls a perfbench `means` op makes, and of
kernel_unitary on a small frequency axis.

Prints one JSON record for the dunklkit found first on sys.path: the
microseconds per call, as the median and the best of LOOPS timed loops of
CALLS calls, of
- spherical_mean_radial at one (x, t) with the `means` profile
  f0(r) = j_lam(z r), one plan per `means` multiplicity class
  (perfbench/workloads.py);
- bessel_j on 256 seeded points in [0, 8.75] (the `means` argument range)
  at orders 0, 1/2, 2 and 5/2;
- kernel_unitary(1, 0.4, xi) on 240 frequencies xi spread over [-70, 70],
  the size of the 2-axis `spectral` plan's frequency axis.
Compare two checkouts by running this file with each one's src/ on
PYTHONPATH, BLAS on one thread as in perfbench:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/radial_mean.py --label change
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

import dunklkit as dk
from dunklkit.rank_one import kernel_unitary

MEAN_CLASSES = ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (1.0,), (0.5,))
X_NORM, T, Z = 1.5, 1.0, 2.0  # mid-range values of the `means` draws
BESSEL_ORDERS, BESSEL_SIZE, BESSEL_TOP = (0.0, 0.5, 2.0, 2.5), 256, 8.75
CALLS, LOOPS = 200, 25  # calls per timed loop, timed loops per plan


def mean_call(k):
    kv = dk.MultiplicityVector(k)
    x = X_NORM * (np.array([0.6, 0.8]) if kv.n_axes == 2 else np.ones(1))
    lam = kv.lam
    return lambda: dk.spherical_mean_radial(kv, lambda r: dk.bessel_j(lam, Z * np.asarray(r)), x, T)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the measured checkout")
    args = parser.parse_args()
    z = np.random.default_rng(1).uniform(0.0, BESSEL_TOP, BESSEL_SIZE)
    xi = np.linspace(-70.0, 70.0, 240)
    calls = {f"mean k={list(k)}": (mean_call(k), {}) for k in MEAN_CLASSES}
    for alpha in BESSEL_ORDERS:
        calls[f"bessel_j alpha={alpha}"] = (lambda a=alpha: dk.bessel_j(a, z), {"elements": z.size})
    calls["kernel_unitary k=1 x=0.4"] = (lambda: kernel_unitary(1.0, 0.4, xi),
                                         {"elements": xi.size})
    for call, _ in calls.values():
        call()  # warm-up: caches and first-call allocations
    # the plans take turns, loop by loop, so a slow phase of a shared host
    # reaches every plan alike instead of the few that happen to run in it
    per_call = {name: [] for name in calls}
    for _ in range(LOOPS):
        for name, (call, _) in calls.items():
            start = time.perf_counter()
            for _ in range(CALLS):
                call()
            per_call[name].append(1e6 * (time.perf_counter() - start) / CALLS)
    plans = {name: {"median_us": round(float(np.median(per_call[name])), 2),
                    "best_us": round(min(per_call[name]), 2), **facts}
             for name, (_, facts) in calls.items()}
    print(json.dumps({"label": args.label, "plans": plans}))


if __name__ == "__main__":
    main()
