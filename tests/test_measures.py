"""Line measures: construction, integration, serialization, deposits."""

import io
import json
from fractions import Fraction

import numpy as np
import pytest

from dunklkit.errors import ConfigError
from dunklkit.measures import (
    LineMeasure,
    RadialProfileMeasure,
    _grid_measure,
    _csv_rows,
    _write_csv,
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


def test_weighted_atoms_view_is_nodes_then_atoms_unbinned():
    mu = LineMeasure(grid=np.array([0.0, 1.0, 2.0]), density=np.array([0.0, 1.0, 0.0]),
                     atoms=[(3.0, 0.25), (-1.0, 0.5)])
    pos, mass = as_weighted_atoms(mu)
    assert pos.tolist() == [0.0, 1.0, 2.0, 3.0, -1.0]
    assert mass.tolist() == mu.node_masses.tolist() + [0.25, 0.5]
    # without a cap nothing is binned, however many nodes there are
    big = _gaussian_profile(5000)
    pos, mass = as_weighted_atoms(big)
    assert np.array_equal(pos, big.grid) and np.array_equal(mass, big.node_masses)
    assert as_weighted_atoms(big, cap=128)[0].size <= 128
    empty = LineMeasure()
    assert [a.size for a in as_weighted_atoms(empty)] == [0, 0]
    assert empty.integrate(np.cos) == 0.0


def test_validation_errors():
    with pytest.raises(ConfigError):
        LineMeasure(grid=np.array([0.0, 1.0]), density=np.zeros(3))
    with pytest.raises(ConfigError):
        LineMeasure(grid=np.array([1.0, 0.5]), density=np.zeros(2))
    with pytest.raises(ConfigError):
        RadialProfileMeasure(grid=np.array([-1.0, 0.5]), density=np.zeros(2))
    with pytest.raises(ConfigError):
        dirac(-0.5)  # radial atoms live on r >= 0


@pytest.mark.parametrize("grid, density", [
    (np.zeros((2, 2)), np.ones((2, 2))),
    ([[0.0, 1.0]], [[1.0, 1.0]]),
    (2.0, 3.0),
], ids=["2-D", "nested lists", "0-D"])
def test_grid_and_density_must_be_flat(grid, density):
    # a 2-D grid used to be accepted and written as nested lists, which
    # measure_from_json then refused
    with pytest.raises(ConfigError, match="1-D"):
        LineMeasure(grid=grid, density=density)


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
    '{"grid": ["0", "1.5"], "density": [1, 2]}',
    '{"grid": [0, 1.5], "density": ["1", "2"]}',
    '{"grid": [0, 1], "density": [1, 1], "weights": ["0.5", 0.5]}',
    '{"grid": [], "density": [], "atoms": [["3", "0.5"]]}',
    '{"grid": [0, 1], "density": [1, true]}',
    '{"grid": [], "density": [], "atoms": [[3, true]]}',
    '{"grid": [0, null], "density": [1, 1]}',
])
def test_json_rejects_malformed_and_non_finite_entries(text):
    with pytest.raises(ConfigError):
        measure_from_json(text)


def _edge_floats(rng) -> np.ndarray:
    """Finite doubles on every notation boundary of float repr and orjson:
    seeded random bit patterns of both signs, every decade edge 10^e and
    its neighbours one ulp away, the [1e-5, 1e-4) decade, +-0.0, the
    smallest subnormal and the largest double."""
    bits = rng.integers(0, 2**64, 30_000, dtype=np.uint64).view(np.float64)
    decades = 10.0 ** np.arange(-323, 309).astype(float)
    edges = np.concatenate([decades, np.nextafter(decades, 0.0), np.nextafter(decades, np.inf)])
    band = np.concatenate([rng.uniform(1e-5, 1e-4, 5_000),
                           rng.integers(1, 10**5, 5_000) * 1e-9])  # short digits too
    ends = np.array([0.0, -0.0, 5e-324, np.finfo(float).max])
    values = np.concatenate([bits[np.isfinite(bits)], edges, -edges, band, -band, ends, -ends])
    return values[rng.permutation(values.size)]


def test_json_reader_gives_json_loads_bits():
    # measure_from_json parses with orjson; on every notation boundary it must
    # read the bits json.loads reads
    values = _edge_floats(np.random.default_rng(13))
    text = json.dumps({"grid": list(range(values.size)), "density": values.tolist(),
                       "atoms": [[abs(v), v] for v in values[:2000].tolist()]})
    mu, payload = measure_from_json(text), json.loads(text)
    assert mu.density.tobytes() == np.array(payload["density"]).tobytes()
    assert np.array(mu.atoms).tobytes() == np.array(payload["atoms"]).tobytes()


def _json_cases():
    rng = np.random.default_rng(11)
    edges = _edge_floats(rng)
    grid = np.unique(edges)
    pieces = [(rng.uniform(0.5, 4.5, 500), rng.uniform(0.0, 1.0, 500))]
    rule = gauss_legendre(24, 0.0, 3.0)
    return {
        "grid deposit": _grid_measure(RadialProfileMeasure, 2.0, 5.0, 513, pieces, lam=1.0),
        "gauss nodes": RadialProfileMeasure(grid=rule.nodes, density=np.exp(-rule.nodes),
                                            weights=rule.weights, atoms=[(4.0, 0.25)]),
        "signed zero weights": LineMeasure(grid=np.arange(4.0), density=np.ones(4),
                                           weights=np.array([0.0, -0.0, 0.0, 0.0])),
        "one node": LineMeasure(grid=[2.0], density=[3.0], lam=0.5),
        "strided views": LineMeasure(grid=np.arange(20.0)[::2], density=edges[:20:2]),
        "empty": LineMeasure(),
        "atoms only": dirac(1.5, lam=2.0),
        # density and weights (more than half of the values each) cover every value
        "float edges": LineMeasure(grid=grid, density=edges[:grid.size],
                                   weights=edges[::-1][:grid.size],
                                   atoms=list(zip(edges[:32], edges[32:64])), lam=edges[64]),
    }


@pytest.mark.parametrize("case", list(_json_cases()))
@pytest.mark.parametrize("meta", [None, {"version": "x", "n": [1, 2.5]}])
def test_json_writer_matches_json_dumps(case, meta):
    # the float arrays go through orjson, with the entries it writes in
    # another notation replaced by float repr; the text must not change
    mu = _json_cases()[case]
    payload = {"grid": mu.grid.tolist(), "density": mu.density.tolist(),
               "weights": mu.weights.tolist(), "atoms": [[r, w] for r, w in mu.atoms],
               "lambda": mu.lam}
    if meta:
        payload["meta"] = meta
    # compared entry by entry: a mismatch then names its index, where a diff
    # of the two megabyte strings takes minutes
    assert measure_to_json(mu, meta).split(", ") == json.dumps(payload).split(", ")


@pytest.mark.parametrize("field, value", [
    ("density", np.array([1.0, np.nan])), ("grid", np.array([0.0, np.inf])),
    ("weights", np.array([0.5, -np.inf])), ("atoms", [(1.0, np.nan)]), ("lam", np.inf),
], ids=["density-nan", "grid-inf", "weights-minus-inf", "atoms-nan", "lam-inf"])
def test_json_writer_rejects_non_finite_entries(field, value):
    # a NaN density used to be written as NaN, which measure_from_json refuses
    mu = LineMeasure(grid=[0.0, 1.0], density=[1.0, 1.0])
    setattr(mu, field, value)
    with pytest.raises(ConfigError, match="NaN or infinite"):
        measure_to_json(mu)


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


def test_deposit_matches_the_cubic_formula_in_exact_arithmetic():
    # the moment-form deposit against the per-point cubic weights summed in
    # rationals, also for points clamped at the grid edges (s outside [0, 1));
    # each node's rounding stays within 2 eps sum |m| max(1, |s|)^3 of its points
    rng = np.random.default_rng(12)
    grid = np.linspace(0.0, 10.0, 129)
    pos = np.concatenate([rng.uniform(-0.5, 10.5, 2000), [0.0, 0.01, 9.99, 10.0]])
    masses = rng.uniform(-1.0, 1.0, pos.size)
    h = grid[1] - grid[0]
    idx = np.clip(((pos - grid[0]) / h).astype(int), 1, grid.size - 3)
    s = (pos - grid[idx]) / h
    assert s.min() < 0.0 and s.max() > 1.0
    want = [Fraction(0)] * grid.size
    for i, f, m in zip(idx.tolist(), map(Fraction, s.tolist()), map(Fraction, masses.tolist())):
        for off, w in ((-1, -f * (f - 1) * (f - 2) / 6), (0, (f + 1) * (f - 1) * (f - 2) / 2),
                       (1, -(f + 1) * f * (f - 2) / 2), (2, (f + 1) * f * (f - 1) / 6)):
            want[i + off] += m * w
    scale = np.zeros(grid.size)
    np.add.at(scale, idx[:, None] + np.arange(-1, 3),
              (np.abs(masses) * np.maximum(1.0, np.abs(s)) ** 3)[:, None])
    got = deposit_on_grid(pos, masses, grid)
    err = np.array([abs(Fraction(g) - w) for g, w in zip(got.tolist(), want)], dtype=float)
    assert np.all(err <= 2.0 * np.finfo(float).eps * scale)


def test_grid_measure_is_the_sum_of_its_piece_deposits():
    # the stencil is applied once to the summed cell moments of all pieces,
    # deposited in asinh(z / c) on the uniform grid of that coordinate
    rng = np.random.default_rng(13)
    pieces = [(rng.uniform(-0.2, 5.2, n), rng.uniform(0.0, 1.0, n)) for n in (1, 300, 4000, 7)]
    c = 1.5
    v_pieces = [(np.arcsinh(p / c), m) for p, m in pieces]
    mu = _grid_measure(RadialProfileMeasure, c, 5.0, 257, pieces, lam=1.0)
    v_grid = np.linspace(0.0, np.arcsinh(5.0 / c), 257)
    want = sum(deposit_on_grid(v, m, v_grid) for v, m in v_pieces)
    assert np.max(np.abs(mu.node_masses - want)) <= 1e-15 * np.max(np.abs(want))
    np.testing.assert_allclose(mu.grid, c * np.sinh(v_grid), rtol=1e-15)


def test_node_measure_weights_vanish_with_the_density():
    mu = LineMeasure._from_node_masses(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 4.0]),
                                       np.array([1.0, 1.0, 2.0]))
    np.testing.assert_array_equal(mu.weights, [0.0, 0.5, 0.5])
    np.testing.assert_array_equal(mu.node_masses, [0.0, 1.0, 2.0])


@pytest.mark.parametrize("stream", ["text-over-bytes", "text-only"])
def test_csv_writer_keeps_text_order_and_header_encoding(tmp_path, stream):
    # the header goes through the text layer (a non-ASCII value in the
    # stream's encoding), the row blocks as bytes after it, and text written
    # before or after stays in place; a stream with no binary buffer takes
    # the same rows as text
    rng = np.random.default_rng(5)
    table, ids = rng.standard_normal((20_000, 3)), np.arange(20_000)  # several row blocks
    header, columns = {"note": "λ = ½ · Ω", "seed": 5}, ["id", "a", "b", "c"]
    path = tmp_path / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_csv(fh, header, columns, _csv_rows(table, ids))
    raw = io.BytesIO()
    fh = (io.TextIOWrapper(raw, encoding="utf-8", newline="") if stream == "text-over-bytes"
          else io.StringIO(newline=""))
    fh.write("before\n")
    _write_csv(fh, header, columns, _csv_rows(table, ids))
    fh.write("after\n")
    fh.flush()
    text = raw.getvalue() if stream == "text-over-bytes" else fh.getvalue().encode()
    assert text == b"before\n" + path.read_bytes() + b"after\n"
    assert path.read_bytes().startswith("# note: λ = ½ · Ω\n".encode())


@pytest.mark.parametrize("text", [
    '{"grid": [0, 1], "density": [1, true]}', '{"grid": [0, 1], "density": [false, 1]}',
    '{"grid": [0, 1], "density": [1, 1], "weights": [1, true]}',
])
def test_json_bools_among_numbers_are_refused_from_str_and_bytes(text):
    # numpy reads [1, true] as numbers: the element scan must run on text that
    # may hold a bool, and on bytes
    for raw in (text, text.encode()):
        with pytest.raises(ConfigError):
            measure_from_json(raw)


def test_json_reader_takes_bytes_and_letters_in_meta():
    text = '{"grid": [0, 1.5], "density": [1, 2], "meta": {"note": "true, false, null"}}'
    for raw in (text, text.encode()):
        mu = measure_from_json(raw)
        assert mu.grid.tolist() == [0.0, 1.5] and mu.density.tolist() == [1.0, 2.0]
