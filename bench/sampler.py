"""Per-call cost of simulate_paths and marginal_ks on the perfbench `paths` ensembles.

Prints one JSON record for the dunklkit found first on sys.path: for the
two-axis ensembles of the `paths` workload (k = (1, 0.5), 1,500 paths, the
8 times of its coarse grid, perfbench/workloads.py), one per process kind,
the median microseconds per simulate_paths call (one thread) and per
marginal_ks call on the radii at the last time, with the sha256 of the
states and the (statistic, p-value) bits, so two checkouts can be checked
for the same numbers.  Compare two checkouts by running this file with
each one's src/ on PYTHONPATH, in fresh processes, BLAS on one thread as
in perfbench:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/sampler.py --label change
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

import numpy as np

import dunklkit as dk

TIMES = np.linspace(0.0, 1.0, 8)
K, N_PATHS, SEED = (1.0, 0.5), 1500, 2026
CALLS = 40  # timed calls per plan


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
    kv = dk.MultiplicityVector(K)
    plans = {}
    for kind in ("gaussian", "cauchy"):
        simulate = lambda: dk.simulate_paths(kv, TIMES, N_PATHS, SEED, kind=kind, threads=1)
        ens = simulate()  # also the warm-up call
        radii = ens.radii(-1)
        ks = lambda: dk.marginal_ks(kv, radii, kind, float(TIMES[-1]))
        plans[f"{kind}-simulate"] = {"median_us": round(median_us(simulate), 1),
                                     "sha256": hashlib.sha256(ens.states.tobytes()).hexdigest()}
        plans[f"{kind}-ks"] = {"median_us": round(median_us(ks), 1),
                               "sha256": hashlib.sha256(np.array(ks()).tobytes()).hexdigest()}
    print(json.dumps({"label": args.label, "plans": plans}))


if __name__ == "__main__":
    main()
