"""Per-call cost of TransformPlan.forward on the perfbench `spectral` plans.

Prints one JSON record for the dunklkit found first on sys.path: the median
microseconds per forward call on the 1-axis and 2-axis plans of the `spectral`
workload (perfbench/workloads.py), on real and complex input, in two states:
warm (calls back to back) and churned (each call right after the allocator
has handed out and taken back a few 3.5 MB arrays, as it has after the
reference kernel perfbench runs before every op).  Compare two checkouts by
running this file with each one's src/ on PYTHONPATH, BLAS on one thread as
in perfbench:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/transform_forward.py --label change
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

import dunklkit as dk

PLANS = {
    "1-axis": dict(kv=(1.0,), extent=4.0, n=176, freq_extent=110.0, freq_n=416),
    "2-axis": dict(kv=(1.0, 1.0), extent=4.0, n=120, freq_extent=70.0, freq_n=120),
}
CALLS = 200  # timed calls per plan, input and state
_BIG = np.linspace(0.0, 12.0, 440_000)  # 3.5 MB, the size of perfbench's reference array


def churn() -> None:
    """The reference kernel's large-array passes: 3.5 MB arrays made and freed."""
    w = -0.25 * _BIG * _BIG
    term, total = np.ones_like(w), np.ones_like(w)
    for n in range(3):
        term = term * (w / ((n + 1.0) * (n + 1.5)))
        total = total + term


def median_us(plan, values, churned: bool) -> float:
    times = []
    for _ in range(CALLS):
        if churned:
            churn()
        start = time.perf_counter()
        plan.forward(values)
        times.append(time.perf_counter() - start)
    return round(1e6 * float(np.median(times)), 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the measured checkout")
    args = parser.parse_args()
    record = {"label": args.label, "plans": {}}
    for name, geometry in PLANS.items():
        geometry = dict(geometry)
        kv = geometry.pop("kv")
        plan = dk.TransformPlan(kv, **geometry)
        real = plan.sample(dk.bump(np.full(len(kv), 0.2), 0.8, order=12))
        imag = plan.sample(dk.bump(np.full(len(kv), -0.3), 1.2))
        inputs = {"real": real, "complex": real + 1j * imag}
        for values in inputs.values():  # warm-up
            plan.forward(values)
        record["plans"][name] = {
            f"{kind} {state}": median_us(plan, values, state == "churned")
            for kind, values in inputs.items() for state in ("warm", "churned")}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
