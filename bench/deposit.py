"""Per-call cost of convolve_measures and its grid deposit on the perfbench
`hypergroup` Cauchy op.

Prints one JSON record for the dunklkit found first on sys.path: the median
microseconds per convolve_measures call on Cauchy(lam = 1.5, s = 0.5) with
Rayleigh(t = 0.6, 32 nodes), the profiles a `hypergroup` Cauchy op
(perfbench/workloads.py) convolves, and the median nanoseconds per point of
that call's grid deposit alone (measures._grid_measure fed the call's
recorded pair-node pieces, refilled before each timed call since the
deposit maps them in place).  Compare two checkouts by running this file with
each one's src/ on PYTHONPATH, BLAS on one thread as in perfbench:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/deposit.py --label change
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

import dunklkit as dk
from dunklkit import bessel_kingman, measures

LAM, S, T, RAYLEIGH_NODES = 1.5, 0.5, 0.6, 32
CALLS = 20  # timed calls of the convolution and of the deposit


def recorded_deposit(sigma, tau):
    """The _grid_measure arguments of one convolution, its pieces as a list,
    recorded before the deposit maps their positions in place."""
    seen = {}
    original = bessel_kingman._grid_measure

    def recorder(*args, **kwargs):
        *head, pieces = args
        pieces = list(pieces)
        seen["args"] = (*head, [(p.copy(), m) for p, m in pieces])
        return original(*head, pieces, **kwargs)

    bessel_kingman._grid_measure = recorder
    try:
        dk.convolve_measures(LAM, sigma, tau)
    finally:
        bessel_kingman._grid_measure = original
    return seen["args"]


def median_us(call, setup=lambda: None) -> float:
    times = []
    for _ in range(CALLS):
        setup()
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e6 * float(np.median(times))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the measured checkout")
    args = parser.parse_args()
    sigma = dk.cauchy_measure(LAM, S)
    tau = dk.rayleigh_measure(LAM, T, n=RAYLEIGH_NODES)
    deposit = recorded_deposit(sigma, tau)  # also the warm-up call
    points = sum(p.size for p, _ in deposit[4])
    call_us = median_us(lambda: dk.convolve_measures(LAM, sigma, tau))
    *head, pieces = deposit
    work = [(p.copy(), m) for p, m in pieces]  # refilled before each timed deposit

    def refill():
        for (w, _), (p, _) in zip(work, pieces):
            w[...] = p

    deposit_us = median_us(lambda: measures._grid_measure(*head, work), refill)
    record = {"label": args.label, "plans": {"cauchy-rayleigh": {
        "median_us": round(call_us, 1), "points": points,
        "deposit_median_us": round(deposit_us, 1),
        "deposit_ns_per_point": round(1e3 * deposit_us / points, 2)}}}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
