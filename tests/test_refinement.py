"""Refinement ladders: a larger node count must not make a result worse.

Each row is a public function with a node-count parameter, one fixed case
with a closed-form reference, a ladder of counts up to past the default,
and a floor: the error at each rung is at most the previous rung's, or
below the floor (the reference's own accuracy, or a few ulps of the scale).
"""

import inspect

import numpy as np
import pytest

from dunklkit.bessel_kingman import (cauchy_measure, convolve_measures, hankel_transform,
                                     rayleigh_measure)

FREQS = np.linspace(0.0, 6.0, 25)  # the bessel-kingman suite's closure frequencies
GRID_N = inspect.signature(convolve_measures).parameters["grid_n"].default


# (id, lam, sigma, tau, closed-form image, floor); the Cauchy profile is
# certified to 5e-9 and reads 2.99e-10 here at every grid from 2048 cells up
ROWS = [
    ("rayleigh-rayleigh-lam0.5", 0.5, lambda: rayleigh_measure(0.5, 0.5, n=32),
     lambda: rayleigh_measure(0.5, 0.6, n=32), np.exp(-1.1 * FREQS**2), 3e-14),
    ("rayleigh-rayleigh-lam1.5", 1.5, lambda: rayleigh_measure(1.5, 0.5, n=32),
     lambda: rayleigh_measure(1.5, 0.6, n=32), np.exp(-1.1 * FREQS**2), 3e-14),
    ("cauchy-rayleigh-lam1.5", 1.5, lambda: cauchy_measure(1.5, 0.5),
     lambda: rayleigh_measure(1.5, 0.6, n=32), np.exp(-0.5 * FREQS - 0.6 * FREQS**2), 3e-10),
]


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_convolution_grid_ladder(row):
    _, lam, sigma, tau, want, floor = row
    sigma, tau = sigma(), tau()
    ladder = sorted({1024, 2048, 4096, 8192, GRID_N})
    errors = [np.max(np.abs(hankel_transform(lam, convolve_measures(lam, sigma, tau, grid_n=n),
                                             FREQS) - want)) for n in ladder]
    for n, prev, err in zip(ladder[1:], errors, errors[1:]):
        assert err <= max(prev, floor), (n, errors)
