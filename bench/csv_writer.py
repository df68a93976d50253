"""Per-call cost of PathEnsemble.to_csv on the perfbench `paths` ensembles.

Prints one JSON record for the dunklkit found first on sys.path: for a
seeded two-axis ensemble (k = (1, 0.5), 1,500 paths) and a one-axis one
(k = (1,), 800 paths), each on the 8 times of the `paths` workload's coarse
grid (perfbench/workloads.py), the median microseconds per to_csv call to
os.devnull, the bytes of the CSV and the sha256 of the table parsed back
to floats, so two checkouts can be checked for the same numbers even where
their text differs.  Compare two checkouts by running this file with each
one's src/ on PYTHONPATH, in fresh processes, BLAS on one thread as in
perfbench:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/csv_writer.py --label change
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import tempfile
import time

import numpy as np

import dunklkit as dk

TIMES = np.linspace(0.0, 1.0, 8)
ENSEMBLES = {"gaussian-1500x8x2": ((1.0, 0.5), 1500, 2026), "gaussian-800x8x1": ((1.0,), 800, 7)}
CALLS = 30  # timed to_csv calls per ensemble


def parsed_table(ens) -> tuple[int, np.ndarray]:
    """Bytes of ens.to_csv and its rows parsed back to floats."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "paths.csv")
        ens.to_csv(path, header={"seed": ens.seed})
        with open(path) as fh:
            lines = [ln for ln in fh if not ln.startswith("#")][1:]
        return os.path.getsize(path), np.array([[float(c) for c in ln.split(",")] for ln in lines])


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
    for name, (k, n_paths, seed) in ENSEMBLES.items():
        ens = dk.simulate_paths(dk.MultiplicityVector(k), TIMES, n_paths, seed, threads=1)
        size, table = parsed_table(ens)  # also the warm-up call
        plans[name] = {"median_us": round(median_us(lambda: ens.to_csv(os.devnull)), 1),
                       "bytes": size, "rows": table.shape[0],
                       "sha256": hashlib.sha256(table.tobytes()).hexdigest()}
    print(json.dumps({"label": args.label, "plans": plans}))


if __name__ == "__main__":
    main()
