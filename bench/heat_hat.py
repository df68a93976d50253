"""Per-call cost of the heat-kernel transforms the markov suite checks.

Prints one JSON record for the dunklkit found first on sys.path: the median
microseconds per call, over CALLS timed calls after one warm-up call, of
gaussian_kernel_hat at t = 1 and composed_kernel_hat at (s, t) = (0.25, 0.75),
each at N = 1 (k = (1,), x = 1, xi = 0.5) and N = 2 (k = (1, 0.5),
x = (0.8, -0.5), xi = (0.4, 0.9)), the points and times of the markov
suite's composition cases (verify._suite_markov).  Compare two checkouts by
running this file with each one's src/ on PYTHONPATH, BLAS on one thread as
in perfbench:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/heat_hat.py --label change
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

import dunklkit as dk
from dunklkit.markov import composed_kernel_hat, gaussian_kernel_hat

CASES = {1: ((1.0,), [1.0], [0.5]), 2: ((1.0, 0.5), [0.8, -0.5], [0.4, 0.9])}
S, T = 0.25, 0.75
CALLS = 10  # timed calls per plan


def median_us(call) -> float:
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e6 * float(np.median(times))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the measured checkout")
    args = parser.parse_args()
    calls = {}
    for n_axes, (k, x, xi) in CASES.items():
        kv, x, xi = dk.MultiplicityVector(k), np.array(x), np.array(xi)
        calls[f"gaussian_kernel_hat N={n_axes}"] = lambda kv=kv, x=x, xi=xi: \
            gaussian_kernel_hat(kv, S + T, x, xi)
        calls[f"composed_kernel_hat N={n_axes}"] = lambda kv=kv, x=x, xi=xi: \
            composed_kernel_hat(kv, S, T, x, xi)
    plans = {}
    for name, call in calls.items():
        call()  # warm-up: Gauss rule caches and first-call allocations
        plans[name] = {"median_us": round(median_us(call), 1)}
    print(json.dumps({"label": args.label, "plans": plans}))


if __name__ == "__main__":
    main()
