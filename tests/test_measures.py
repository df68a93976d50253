"""Line measures: construction, integration, serialization, deposits."""

import json

import numpy as np
import pytest

from dunklkit.errors import ConfigError, PositivityError
from dunklkit.measures import (
    LineMeasure,
    RadialProfileMeasure,
    _grid_measure,
    as_weighted_atoms,
    deposit_on_grid,
    dirac,
    measure_from_json,
    measure_to_json,
)
from dunklkit.quadrature import gauss_legendre


def _gaussian_profile(n=200):
    grid = np.linspace(0.0, 8.0, n)
    dens = np.exp(-grid**2)
    return RadialProfileMeasure(grid=grid, density=dens)


def test_trapezoid_default_weights_integrate():
    mu = _gaussian_profile(4001)
    # int_0^inf e^(-r^2) dr = sqrt(pi)/2
    assert mu.mass() == pytest.approx(np.sqrt(np.pi) / 2.0, rel=1e-8)


def test_integrate_handles_atoms_and_nodes():
    mu = LineMeasure(grid=np.array([0.0, 1.0, 2.0]), density=np.array([0.0, 1.0, 0.0]),
                     atoms=[(3.0, 0.25)])
    got = mu.integrate(lambda r: r**2)
    # trapezoid on [0,2] of the hat density plus the atom
    nodes = np.sum(mu.node_masses * mu.grid**2)
    assert got == pytest.approx(nodes + 0.25 * 9.0)

    vec = mu.integrate_values(np.stack([mu.grid, mu.grid**2], axis=-1),
                              atom_values=np.array([[3.0, 9.0]]))
    assert vec.shape == (2,)
    assert vec[1] == pytest.approx(got)


def test_integrate_values_requires_atom_values():
    mu = dirac(1.0)
    with pytest.raises(ConfigError):
        mu.integrate_values(np.zeros(0))


def test_validation_errors():
    with pytest.raises(ConfigError):
        LineMeasure(grid=np.array([0.0, 1.0]), density=np.zeros(3))
    with pytest.raises(ConfigError):
        LineMeasure(grid=np.array([1.0, 0.5]), density=np.zeros(2))
    with pytest.raises(ConfigError):
        RadialProfileMeasure(grid=np.array([-1.0, 0.5]), density=np.zeros(2))
    with pytest.raises(ConfigError):
        dirac(-0.5)  # radial atoms live on r >= 0
    mu = LineMeasure(grid=np.linspace(0, 1, 5), density=np.full(5, 0.7))
    with pytest.raises(PositivityError):
        mu.check_probability()


def test_dirac_and_support():
    mu = dirac(2.5, lam=1.0)
    assert mu.mass() == 1.0
    assert mu.support_bounds() == (2.5, 2.5)
    assert mu.lam == 1.0
    empty = RadialProfileMeasure(grid=np.zeros(0), density=np.zeros(0),
                                 weights=np.zeros(0))
    with pytest.raises(ConfigError):
        empty.support_bounds()


def test_json_roundtrip_preserves_everything():
    mu = LineMeasure(grid=np.linspace(0, 3, 7), density=np.linspace(1, 0, 7),
                     atoms=[(4.0, 0.125)], lam=1.5)
    text = measure_to_json(mu, meta={"version": "x"})
    back = measure_from_json(text)
    assert np.array_equal(back.grid, mu.grid)
    assert np.array_equal(back.density, mu.density)
    assert np.array_equal(back.weights, mu.weights)
    assert back.atoms == mu.atoms
    assert back.lam == 1.5


def test_json_rejects_unknown_keys_and_garbage():
    with pytest.raises(ConfigError):
        measure_from_json('{"grid": [0, 1], "density": [1, 1], "bogus": 3}')
    with pytest.raises(ConfigError):
        measure_from_json("not json at all")
    with pytest.raises(ConfigError):
        measure_from_json('{"grid": [0, 1]}')


@pytest.mark.parametrize("text", [
    "3", "null", "[]",
    '{"grid": [], "density": [], "atoms": [[1]]}',
    '{"grid": [], "density": [], "atoms": [[1, "a"]]}',
    '{"grid": "ab", "density": [1, 2]}',
    '{"grid": 1.5, "density": 2}',
    '{"grid": [[0, 1]], "density": [[1, 1]]}',
    '{"grid": [0, NaN], "density": [1, 1]}',
    '{"grid": [0, 1], "density": [1, Infinity]}',
    '{"grid": [0, 1], "density": [1, 1], "weights": [0.5, -Infinity]}',
    '{"grid": [], "density": [], "atoms": [[NaN, 1]]}',
    '{"grid": [], "density": [], "lambda": "a"}',
    '{"grid": [], "density": [], "lambda": NaN}',
    '{"grid": [], "density": [], "lambda": -Infinity}',
    '{"grid": [], "density": [], "lambda": true}',
])
def test_json_rejects_malformed_and_non_finite_entries(text):
    with pytest.raises(ConfigError):
        measure_from_json(text)


def _json_cases():
    rng = np.random.default_rng(11)
    pieces = [(rng.uniform(0.5, 4.5, 500), rng.uniform(0.0, 1.0, 500))]
    rule = gauss_legendre(24, 0.0, 3.0)
    return {
        "grid deposit": _grid_measure(RadialProfileMeasure, 0.0, 5.0, 513, pieces, lam=1.0),
        "gauss nodes": RadialProfileMeasure(grid=rule.nodes, density=np.exp(-rule.nodes),
                                            weights=rule.weights, atoms=[(4.0, 0.25)]),
        "signed zero weights": LineMeasure(grid=np.arange(4.0), density=np.ones(4),
                                           weights=np.array([0.0, -0.0, 0.0, 0.0])),
        "one node": LineMeasure(grid=[2.0], density=[3.0], lam=0.5),
        "empty": LineMeasure(),
        "atoms only": dirac(1.5, lam=2.0),
    }


@pytest.mark.parametrize("case", list(_json_cases()))
@pytest.mark.parametrize("meta", [None, {"version": "x", "n": [1, 2.5]}])
def test_json_writer_matches_json_dumps(case, meta):
    # bitwise uniform weights are formatted once; the text must not change
    mu = _json_cases()[case]
    payload = {"grid": mu.grid.tolist(), "density": mu.density.tolist(),
               "weights": mu.weights.tolist(), "atoms": [[r, w] for r, w in mu.atoms],
               "lambda": mu.lam}
    if meta:
        payload["meta"] = meta
    assert measure_to_json(mu, meta) == json.dumps(payload)


def test_as_weighted_atoms_preserves_mass_and_moments():
    mu = _gaussian_profile(300)
    pos, w = as_weighted_atoms(mu, cap=1024)
    assert w.sum() == pytest.approx(mu.mass(), rel=1e-12)
    assert np.sum(w * pos**2) == pytest.approx(mu.integrate(lambda r: r**2), rel=1e-10)


def test_as_weighted_atoms_respects_cap():
    mu = _gaussian_profile(5000)
    pos, w = as_weighted_atoms(mu, cap=128)
    assert pos.size <= 128
    assert w.sum() == pytest.approx(mu.mass(), rel=1e-12)
    # the compression keeps mass exact; moments only to binning accuracy
    assert np.sum(w * pos**2) == pytest.approx(mu.integrate(lambda r: r**2), rel=5e-3)


def test_deposit_preserves_mass_and_first_moments():
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 10.0, 257)
    pos = rng.uniform(1.0, 9.0, size=300)
    masses = rng.uniform(0.1, 1.0, size=300)
    out = deposit_on_grid(pos, masses, grid)
    assert out.sum() == pytest.approx(masses.sum(), rel=1e-13)
    for m in (1, 2, 3):
        assert np.sum(out * grid**m) == pytest.approx(np.sum(masses * pos**m),
                                                      rel=1e-12)


def test_deposit_weights_match_the_cubic_formula_bitwise():
    # the in-place stencil weights equal the plain formula bit for bit,
    # also for points clamped at the grid edges (s outside [0, 1))
    rng = np.random.default_rng(12)
    grid = np.linspace(0.0, 10.0, 129)
    pos = np.concatenate([rng.uniform(-0.5, 10.5, 2000), [0.0, 0.01, 9.99, 10.0]])
    masses = rng.uniform(-1.0, 1.0, pos.size)
    h = grid[1] - grid[0]
    idx = np.clip(((pos - grid[0]) / h).astype(int), 1, grid.size - 3)
    s = (pos - grid[idx]) / h
    assert s.min() < 0.0 and s.max() > 1.0
    want = np.zeros(grid.size)
    for off, w in ((-1, -s * (s - 1.0) * (s - 2.0) / 6.0),
                   (0, (s + 1.0) * (s - 1.0) * (s - 2.0) / 2.0),
                   (1, -(s + 1.0) * s * (s - 2.0) / 2.0),
                   (2, (s + 1.0) * s * (s - 1.0) / 6.0)):
        np.add.at(want, idx + off, masses * w)
    np.testing.assert_array_equal(deposit_on_grid(pos, masses, grid), want)


def test_node_measure_weights_vanish_with_the_density():
    mu = LineMeasure._from_node_masses(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 4.0]),
                                       np.array([1.0, 1.0, 2.0]))
    np.testing.assert_array_equal(mu.weights, [0.0, 0.5, 0.5])
    np.testing.assert_array_equal(mu.node_masses, [0.0, 1.0, 2.0])
