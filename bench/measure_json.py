"""Per-call cost of measure_to_json on the perfbench `hypergroup` outputs.

Prints one JSON record for the dunklkit found first on sys.path: for the
Rayleigh * Rayleigh and Cauchy * Rayleigh convolutions a `hypergroup` op
writes (perfbench/workloads.py; lam = 1.5, s = 0.5, t = 0.6, 32 Rayleigh
nodes), the median microseconds per measure_to_json call, the bytes written
and the text's sha256, so two checkouts can be checked for the same bytes.
Compare two checkouts by running this file with each one's src/ on
PYTHONPATH, in fresh processes, BLAS on one thread as in perfbench:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/measure_json.py --label change
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

import numpy as np

import dunklkit as dk

LAM, S, T, RAYLEIGH_NODES = 1.5, 0.5, 0.6, 32
CALLS = 20  # timed measure_to_json calls per convolution


def convolutions() -> dict:
    tau = dk.rayleigh_measure(LAM, T, n=RAYLEIGH_NODES)
    return {"rayleigh-rayleigh": dk.convolve_measures(
                LAM, dk.rayleigh_measure(LAM, S, n=RAYLEIGH_NODES), tau),
            "cauchy-rayleigh": dk.convolve_measures(LAM, dk.cauchy_measure(LAM, S), tau)}


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
    plans = {}
    for name, mu in convolutions().items():
        text = dk.measure_to_json(mu)  # also the warm-up call
        plans[name] = {"median_us": round(median_us(lambda: dk.measure_to_json(mu)), 1),
                       "bytes": len(text),
                       "sha256": hashlib.sha256(text.encode()).hexdigest()}
    print(json.dumps({"label": args.label, "plans": plans}))


if __name__ == "__main__":
    main()
