"""Micro-measurements behind the profile facts in perfbench/README.md:
bessel_j nanoseconds per element by order and argument range.

    python3 perfbench/profile_facts.py

Each figure is the median of 7 calls on 100,000 uniform arguments.
"""

from __future__ import annotations

import time

from run import load_dunklkit  # pins the BLAS threads before numpy loads

import numpy as np  # noqa: E402


def ns_per_elem(fn, z, reps: int = 7) -> float:
    fn(z)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(z)
        times.append(time.perf_counter() - t0)
    return 1e9 * float(np.median(times)) / z.size


def main() -> None:
    dk = load_dunklkit()
    rng = np.random.default_rng(0)
    ranges = {"[0, 12]": (0.0, 12.0), "(12, 200]": (12.0, 200.0)}
    print(f"{'order':>6s}  " + "  ".join(f"{r:>12s}" for r in ranges) + "   (ns per element)")
    for alpha in (0.5, 1.5, 2.0, 2.5):
        row = []
        for lo, hi in ranges.values():
            z = rng.uniform(lo, hi, 100_000)
            z = z[z > lo] if lo > 0 else z
            row.append(ns_per_elem(lambda v: dk.bessel_j(alpha, v), z))
        print(f"{alpha:6.1f}  " + "  ".join(f"{v:12.0f}" for v in row))


if __name__ == "__main__":
    main()
