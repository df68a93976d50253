"""Per-call cost of spherical_mean_spectral on the perfbench `spectral` plans.

Prints one JSON record for the dunklkit found first on sys.path: the median
microseconds per call and the bessel_j elements per call, on the 1-axis
and 2-axis plans of the `spectral` workload (perfbench/workloads.py), each
over the same seeded (x, t) draws and one fixed bump transform.  Compare
two checkouts by running this file with each one's src/ on PYTHONPATH:

    PYTHONPATH=src python3 bench/spectral_mean.py --label change
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

import dunklkit as dk
from dunklkit import rank_one, transform

PLANS = {
    "1-axis": dict(kv=(1.0,), extent=4.0, n=176, freq_extent=110.0, freq_n=416),
    "2-axis": dict(kv=(1.0, 1.0), extent=4.0, n=120, freq_extent=70.0, freq_n=120),
}
CALLS = 400  # timed calls per plan


def count_bessel_elements():
    """Wrap the bessel_j bindings the spectral mean reaches; returns the counter."""
    seen = {"elems": 0}
    for module in (transform, rank_one):
        original = module.bessel_j

        def counted(alpha, z, original=original):
            seen["elems"] += int(np.size(z))
            return original(alpha, z)

        module.bessel_j = counted
    return seen


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the measured checkout")
    args = parser.parse_args()
    record = {"label": args.label, "plans": {}}
    for name, geometry in PLANS.items():
        geometry = dict(geometry)
        kv = geometry.pop("kv")
        plan = dk.TransformPlan(kv, **geometry)
        fhat = plan.forward(plan.sample(dk.bump(np.full(len(kv), 0.2), 0.8, order=12)))
        rng = np.random.default_rng(1)
        draws = [(rng.uniform(-1.8, 1.8, size=len(kv)), rng.uniform(0.05, 2.0))
                 for _ in range(CALLS)]
        for x, t in draws[:20]:  # warm-up
            dk.spherical_mean_spectral(kv, plan, fhat, x, t)
        times = []
        for x, t in draws:
            start = time.perf_counter()
            dk.spherical_mean_spectral(kv, plan, fhat, x, t)
            times.append(time.perf_counter() - start)
        seen = count_bessel_elements()
        dk.spherical_mean_spectral(kv, plan, fhat, *draws[0])
        transform.bessel_j = rank_one.bessel_j = dk.bessel_j
        record["plans"][name] = {"median_us": round(1e6 * float(np.median(times)), 1),
                                 "bessel_j_elems_per_call": seen["elems"]}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
