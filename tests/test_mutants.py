"""One-line semantic mutants that a `dunklkit check` case must catch.

Each row monkeypatches one object, runs only the suite that owns the case
meant to catch it, and expects every case whose name starts with the row's
prefix to fail; the unmutated tree passes those cases (acceptance tests).
"""

import numpy as np
import pytest

from dunklkit import measures, rank_one, transform, verify


def _swap_mean_split(monkeypatch):
    # spherical_mean_measure's two split weights swapped: the mean measure of -x
    mirrored = rank_one._mirrored_measure

    def patched(k, a, b, split, n):
        if split.__qualname__.startswith("spherical_mean_measure."):
            return mirrored(k, a, b, lambda z, u: split(z, u)[::-1], n)
        return mirrored(k, a, b, split, n)

    monkeypatch.setattr(rank_one, "_mirrored_measure", patched)


def _negate_kernel_odd_part(monkeypatch):
    # E_k(x, -y): the even part of the real kernel kept, its odd part negated
    kernel_real = rank_one.kernel_real
    monkeypatch.setattr(rank_one, "kernel_real",
                        lambda k, x, y: kernel_real(k, x, -np.asarray(y, dtype=float)))


def _gegenbauer_degree_off_by_one(monkeypatch):
    route = verify._reproducing_kernel_gegenbauer
    monkeypatch.setattr(verify, "_reproducing_kernel_gegenbauer",
                        lambda kv, n, x, y: route(kv, n + 1, x, y))


def _swap_deposit_stencil_rows(monkeypatch):
    # the cubic deposit's weights for stencil nodes idx and idx + 1 swapped
    monkeypatch.setattr(measures, "_CUBIC", measures._CUBIC[[0, 2, 1, 3]])


def _negate_heat_odd_part(monkeypatch):
    # Gamma_s(x, -y): the rank-one heat kernel's odd part negated, in the closed
    # form and in every heat window (_heat_quadrature reads _heat_axis)
    heat_axis = transform._heat_axis
    monkeypatch.setattr(transform, "_heat_axis",
                        lambda k, s, x, y: heat_axis(k, s, x, -np.asarray(y, dtype=float)))


MUTANTS = {
    "mean-split-swapped": (_swap_mean_split, "product-formula", "kernel wave mean"),
    "kernel-odd-negated": (_negate_kernel_odd_part, "product-formula", "eigen-equation"),
    "gegenbauer-degree": (_gegenbauer_degree_off_by_one, "addition-theorems",
                          "reproducing kernel"),
    "deposit-stencil-swapped": (_swap_deposit_stencil_rows, "bessel-kingman",
                                "gaussian closure"),
    "heat-odd-negated": (_negate_heat_odd_part, "chapman-kolmogorov", "composition"),
    "heat-odd-negated-markov": (_negate_heat_odd_part, "markov", "gaussian invariance"),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_fails_its_case(monkeypatch, name):
    mutate, suite, prefix = MUTANTS[name]
    mutate(monkeypatch)
    cases = [r for r in verify.run_suite(suite).results if r.name.startswith(prefix)]
    assert cases and not any(r.passed for r in cases), [(r.name, r.residual) for r in cases]
