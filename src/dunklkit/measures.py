"""Line and radial measures as density-on-nodes plus point atoms.

A measure is stored as nodes, a density with respect to dr at the nodes,
quadrature weights for the node set, and a list of explicit atoms.  Its
one (positions, masses) view is as_weighted_atoms(mu): the nodes with
masses weights_i * density_i, then the atoms.  The single integration
contract is

    integral f dmu  =  sum_j masses_j * f(positions_j)

over that view; LineMeasure.integrate and the Hankel transform take it.

Every float array the package writes as text goes through _float_tokens:
orjson's Ryu encoder gives the same shortest round-trip digits as float
repr, and the few magnitudes it writes in another notation are fixed in its
bytes, so each token is float repr's and parses back to the same bits.
measure_to_json writes the text json.dumps would write, byte for byte (the
reader is orjson.loads), and every CSV table goes through _csv_rows.

The closed-form families carry Gauss nodes, so the contract is spectrally
accurate for smooth f even when the density has integrable endpoint
singularities (the singular factors live inside the weights).  Trapezoid
weights are filled in for plain sampled grids.  A convolution's points go
onto a graded grid, uniform in u = c asinh(z / c): fine below z = c, where
the mass sits, and geometric in the tail.  The deposit works in u, as
per-cell sums M_j = sum m s^j (j = 0..3) times one fixed 4x4 matrix: mass
exact, moments 1-3 in u to rounding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import orjson

from .errors import ConfigError

__all__ = [
    "LineMeasure",
    "RadialProfileMeasure",
    "dirac",
    "measure_to_json",
    "measure_from_json",
    "as_weighted_atoms",
    "deposit_on_grid",
]


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    if grid.size == 1:
        return np.zeros(1)
    w = np.empty_like(grid)
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    return w


@dataclass
class LineMeasure:
    """Density-plus-atoms measure on the line (weights may be signed).

    grid and density default to empty, so an atom-only measure needs
    just its atoms.
    """

    grid: np.ndarray = field(default_factory=lambda: np.empty(0))
    density: np.ndarray = field(default_factory=lambda: np.empty(0))
    weights: np.ndarray | None = None
    atoms: list[tuple[float, float]] = field(default_factory=list)
    lam: float | None = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.density = np.asarray(self.density, dtype=float)
        if self.grid.ndim != 1 or self.density.ndim != 1:
            raise ConfigError("grid and density must be 1-D arrays")
        if self.grid.shape != self.density.shape:
            raise ConfigError("grid and density must have the same shape")
        if self.grid.size > 1 and not np.all(np.diff(self.grid) > 0):
            raise ConfigError("grid must be strictly increasing")
        if self.weights is None:
            self.weights = _trapezoid_weights(self.grid) if self.grid.size else np.zeros(0)
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != self.grid.shape:
                raise ConfigError("weights must match the grid")
        self.atoms = [(float(r), float(w)) for r, w in self.atoms]

    @classmethod
    def _from_node_masses(cls, grid, density, masses, **kwargs):
        """Node measure with these masses: weights masses / density, 0 where density is 0."""
        nonzero = density != 0.0
        weights = np.where(nonzero, masses / np.where(nonzero, density, 1.0), 0.0)
        return cls(grid=grid, density=density, weights=weights, **kwargs)

    @property
    def node_masses(self) -> np.ndarray:
        return self.weights * self.density

    def mass(self) -> float:
        return float(np.sum(self.node_masses) + sum(w for _, w in self.atoms))

    def total_variation(self) -> float:
        return float(np.sum(np.abs(self.node_masses)) + sum(abs(w) for _, w in self.atoms))

    def integrate(self, f) -> float | complex:
        """integral f dmu over the weighted-atoms view (module docstring)."""
        pos, mass = as_weighted_atoms(self)
        return np.sum(mass * f(pos))

    def support_bounds(self) -> tuple[float, float]:
        points = []
        if self.grid.size:
            points.extend([self.grid[0], self.grid[-1]])
        points.extend(r for r, _ in self.atoms)
        if not points:
            raise ConfigError("empty measure has no support")
        return min(points), max(points)


class RadialProfileMeasure(LineMeasure):
    """Measure on [0, infinity); nodes and atoms must be nonnegative."""

    def __post_init__(self):
        super().__post_init__()
        if self.grid.size and self.grid[0] < 0:
            raise ConfigError("radial measure must live on [0, inf)")
        if any(r < 0 for r, _ in self.atoms):
            raise ConfigError("radial atoms must sit at r >= 0")


def dirac(position: float, lam: float | None = None) -> RadialProfileMeasure:
    """Unit point mass."""
    return RadialProfileMeasure(atoms=[(position, 1.0)], lam=lam)


# what an edit of _float_tokens puts in, by code: a tiny token's leading
# digit with its point (0-9) or without (10-19), a "+", a pad "0", an "e-05"
_PUTS = np.array([b"%d." % d for d in range(10)] + [b"%d" % d for d in range(10)]
                 + [b"+", b"0", b"e-05"], dtype=object)


def _float_tokens(a: np.ndarray) -> bytes:
    """orjson's text "[a,b,...]" of a finite 1-D float (or integer) array, each
    token made float.__repr__'s in the bytes: a "+" into exponents from e16 up,
    a 0 into e-5..e-9, and [1e-5, 1e-4) from 0.0000dR to d.Re-05 (or de-05)."""
    a = np.ascontiguousarray(a)
    raw = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)
    # the value test is exact: shortest digits round back to their double, so
    # they stay on its side of the doubles nearest 1e-5 and 1e-4
    mag = np.abs(a)
    tiny = np.flatnonzero((mag >= 1e-5) & (mag < 1e-4))
    if b"e" not in raw and not tiny.size:
        return raw
    text = np.frombuffer(raw, np.uint8)
    e = np.flatnonzero(text == ord("e"))
    plus = e[text[e + 1] != ord("-")] + 1
    pad = e[(text[e + 1] == ord("-")) & ((text[e + 3] < ord("0")) | (text[e + 3] > ord("9")))] + 2
    # token i lies between bound[i] and bound[i + 1]: the "[", the commas, the "]"
    bound = np.r_[0, np.flatnonzero(text == ord(",")), text.size - 1] if tiny.size else tiny
    lead, ends = bound[tiny] + 1 + np.signbit(a[tiny]), bound[tiny + 1]  # lead at "0.0000"
    digit = text[lead + 6] - ord("0") + 10 * (ends - lead == 7)
    # one slice-and-join over the edits, sorted as position * 32 + _PUTS code;
    # a tiny token's edit at its lead replaces the 7 bytes "0.0000d"
    key = np.concatenate([plus * 32 + 20, pad * 32 + 21, lead * 32 + digit, ends * 32 + 22])
    key.sort()
    at, code = key >> 5, key & 31
    parts = [None] * (2 * at.size + 1)
    parts[::2] = [raw[i:j] for i, j in zip([0, *(at + 7 * (code < 20)).tolist()],
                                           [*at.tolist(), len(raw)])]
    parts[1::2] = _PUTS[code].tolist()
    return b"".join(parts)


def _float_array_json(a: np.ndarray) -> str:
    """json.dumps(a.tolist()) of a finite 1-D float array, byte for byte."""
    return _float_tokens(a).replace(b",", b", ").decode()


def _csv_block(table: np.ndarray, ids: np.ndarray | None) -> bytes:
    """CSV rows of one finite 2-D float block, led by the ids when given."""
    # [a,b,c,d] -> a,b\nc,d\n: every n_cols-th comma ends a row
    out = np.frombuffer(bytearray(_float_tokens(table.ravel())), np.uint8)[1:]
    out[-1] = ord("\n")
    ends = np.flatnonzero(out == ord(","))[table.shape[1] - 1::table.shape[1]]
    out[ends] = ord("\n")
    if ids is None:
        return out.tobytes()
    # "[i,j,k]" -> "i,j,k,": one "id," spliced in front of each row
    cells = np.frombuffer(bytearray(_float_tokens(ids)), np.uint8)[1:]
    cells[-1] = ord(",")
    widths = np.diff(np.flatnonzero(cells == ord(",")), prepend=-1)
    return np.insert(out, np.repeat(np.concatenate([[0], ends + 1]), widths), cells).tobytes()


def _csv_rows(table, ids=None):
    """The CSV rows of a finite 2-D float table, optionally led by an integer
    column (ids, one per row): bytes per block of _row_blocks rows, every
    float in float.__repr__ notation (shortest round-trip digits).  A NaN or
    infinite entry is a ConfigError, raised here, before any row is made:
    orjson would write it as null.
    """
    table = np.asarray(table, dtype=float)
    if not np.isfinite(table).all():
        raise ConfigError("table holds a NaN or infinite number; CSV rows cannot carry it")
    return (_csv_block(table[rows], None if ids is None else ids[rows])
            for rows in _row_blocks(*table.shape))


def _write_csv(fh, header: dict, columns: list[str], rows) -> None:
    """Write '# key: value' lines, the column names and the _csv_rows blocks
    to the text file fh.

    The header goes through fh, in its encoding; the blocks are ASCII, so
    they go as they are to fh's binary buffer, after a flush that keeps all
    text written before them in front.  A text-only stream (no buffer, such
    as io.StringIO) takes them decoded.
    """
    fh.write("".join(f"# {key}: {val}\n" for key, val in header.items()))
    fh.write(",".join(columns) + "\n")
    raw = getattr(fh, "buffer", None)
    if raw is None:
        fh.writelines(block.decode() for block in rows)
        return
    fh.flush()
    for block in rows:
        raw.write(block)


def measure_to_json(mu: LineMeasure, meta: dict | None = None) -> str:
    """json.dumps of the measure's fields (and meta), byte for byte.

    grid, density and weights go through _float_array_json (the tokens of
    _float_tokens, ", "-separated); atoms, lambda and meta through
    json.dumps.  A NaN or infinite number is a ConfigError, since
    measure_from_json would refuse the text.
    """
    arrays = {key: getattr(mu, key) for key in ("grid", "density", "weights")}
    atoms = [[r, w] for r, w in mu.atoms]
    if not (all(np.isfinite(a).all() for a in arrays.values())
            and np.isfinite(atoms).all() and np.isfinite(float(mu.lam or 0.0))):
        raise ConfigError("measure holds a NaN or infinite number; JSON cannot carry it")
    fields = {key: _float_array_json(a) for key, a in arrays.items()}
    fields["atoms"] = json.dumps(atoms)
    fields["lambda"] = json.dumps(mu.lam)
    if meta:
        fields["meta"] = json.dumps(dict(meta))
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items()) + "}"


def _numbers(values, scan: bool) -> np.ndarray:
    """values as a 1-D float array; TypeError unless each is a JSON number (int
    or float, not bool).  numpy types strings 'U', nested lists 2-D and a null
    'O', but a bool among numbers as a number: with scan, and for 'O', the
    type of every element is checked."""
    a = np.asarray(values)
    if a.dtype.kind == "O" or (scan and a.dtype.kind in "fiu"):
        if not {*map(type, values)} <= {int, float}:
            raise TypeError("a string, bool, null or list stands where a number belongs")
        a = np.asarray(values, dtype=float)
    if a.ndim != 1 or a.dtype.kind not in "fiu":
        raise TypeError("a string, bool or list stands where a number belongs")
    return a.astype(float, copy=False)


def measure_from_json(text: str) -> RadialProfileMeasure:
    try:
        payload = orjson.loads(text)  # NaN, Infinity and 1e400 are parse errors here
    except json.JSONDecodeError as exc:  # orjson.JSONDecodeError subclasses it
        raise ConfigError(f"measure JSON is invalid: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"measure JSON must be an object, got {type(payload).__name__}")
    known = {"grid", "density", "weights", "atoms", "lambda", "meta"}
    extra = set(payload) - known
    if extra:
        raise ConfigError(f"unknown measure keys: {sorted(extra)}")
    for key in ("grid", "density"):
        if key not in payload:
            raise ConfigError(f"measure JSON misses '{key}'")
    lam = payload.get("lambda")
    if lam is not None and type(lam) not in (int, float):
        raise ConfigError(f"measure 'lambda' must be null or a number, got {lam!r}")
    # number text has no "u" (of true) and no "f" (of false): one memchr each
    scan = not isinstance(text, str) or "u" in text or "f" in text
    try:
        arrays = {key: _numbers(payload[key], scan) for key in ("grid", "density", "weights")
                  if key != "weights" or payload.get(key) is not None}
        _numbers([*chain(*payload.get("atoms", []))], True)
        atoms = [(float(r), float(w)) for r, w in payload.get("atoms", [])]
        finite = np.isfinite(float(lam or 0.0)) and np.isfinite(atoms).all()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"measure JSON holds a non-numeric or malformed entry: {exc}") from exc
    if not (finite and all(np.isfinite(a).all() for a in arrays.values())):
        raise ConfigError("measure JSON holds a NaN or infinite number")
    return RadialProfileMeasure(**arrays, atoms=atoms, lam=lam)


def as_weighted_atoms(mu: LineMeasure, cap: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The measure as weighted point masses: its nodes with their masses,
    then its atoms.  Without a cap this is the measure's one unbinned view.

    With a cap, a larger set is binned mass-preservingly (equal-count bins,
    atoms at mass centroids), positive and negative parts separately so
    signed measures stay honest; Gauss-type node sets that fit the cap are
    already optimal atom placements and pass through as they are.
    """
    pos, mass = mu.grid, mu.node_masses
    if mu.atoms:
        pos = np.concatenate([pos, [r for r, _ in mu.atoms]])
        mass = np.concatenate([mass, [w for _, w in mu.atoms]])
    if cap is None or pos.size <= cap:
        return pos, mass
    order = np.argsort(pos)
    pos, mass = pos[order], mass[order]
    out_p, out_m = [], []
    for sign in (1.0, -1.0):
        sel = mass * sign > 0
        if not np.any(sel):
            continue
        p, m = pos[sel], mass[sel]
        n_bins = max(1, cap // (2 if np.any(mass < 0) and np.any(mass > 0) else 1))
        edges = np.linspace(0, p.size, min(n_bins, p.size) + 1).astype(int)
        for a, b in zip(edges[:-1], edges[1:]):
            if a == b:
                continue
            mm = m[a:b].sum()
            out_p.append(np.sum(p[a:b] * m[a:b]) / mm)
            out_m.append(mm)
    order = np.argsort(out_p)
    return np.asarray(out_p)[order], np.asarray(out_m)[order]


# row o: cubic Lagrange weight of stencil node idx + o - 1, coefficients of 1, s, s^2, s^3
_CUBIC = np.array([[0.0, -1 / 3, 1 / 2, -1 / 6], [1.0, -1 / 2, -1.0, 1 / 2],
                   [0.0, 1.0, 1 / 2, -1 / 2], [0.0, -1 / 6, 0.0, 1 / 6]])


def _add_moments(moments: np.ndarray, positions, masses, grid: np.ndarray) -> None:
    """Add the points' cell moments M_j = sum m s^j into moments[j], j = 0..3."""
    h = grid[1] - grid[0]
    # index of the left neighbor, clamped so the 4-point stencil fits
    idx = np.clip(((positions - grid[0]) / h).astype(int), 1, grid.size - 3)
    s = (positions - grid[idx]) / h  # offset in units of h, may leave [0,1) at edges
    for j in range(4):
        np.add.at(moments[j], idx, masses)
        masses = masses * s if j < 3 else None


def _node_masses(moments: np.ndarray) -> np.ndarray:
    """Node masses of the cubic deposit with these (4, grid_n) cell moments."""
    # row o, column c: the share of cell c - 2 for its node c + o - 3
    w = _CUBIC @ np.pad(moments, ((0, 0), (2, 1)))
    return w[0, 3:] + w[1, 2:-1] + w[2, 1:-2] + w[3, :-3]


def deposit_on_grid(positions: np.ndarray, masses: np.ndarray,
                    grid: np.ndarray) -> np.ndarray:
    """Deposit point masses onto a uniform grid, returning node masses.

    Each point goes to the four surrounding nodes with cubic Lagrange
    weights, cubics in its offset s from its cell: the cell sums
    M_j = sum m s^j (j = 0..3) times the fixed 4x4 matrix _CUBIC.  Total
    mass stays exact and moments 1-3 hold to rounding; the deposit error
    for a smooth test function scales like h^4.
    """
    moments = np.zeros((4, grid.size))
    _add_moments(moments, positions, masses, grid)
    return _node_masses(moments)


# Elements per float64 temporary (256 KiB) of the pair pipelines: radial
# translation and the convolution engine work through their (row, column)
# pairs in blocks of this size, so each step's arrays stay in cache.
_BLOCK = 2**15


def _row_blocks(n_rows: int, row_len: int):
    """Slices covering range(n_rows), each of at most _BLOCK // row_len rows
    and at least one row."""
    step = max(1, _BLOCK // row_len)
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def _grid_measure(cls, c: float, z_max: float, grid_n: int, pieces, **kwargs):
    """Deposit the (positions, masses) pieces on grid_n nodes over [0, z_max]
    uniform in u = c asinh(z / c), fine for z below c and geometric beyond.

    Each piece's positions are mapped in place to v = u / c = asinh(z / c)
    and deposited on the uniform v-grid of cell h_v; the nodes are
    z_i = c sinh(v_i), the weights dz/dv h_v = c h_v cosh(v_i) and the
    density node_mass / weight, so the mass stays exact.
    """
    v = np.linspace(0.0, np.arcsinh(z_max / c), grid_n)
    moments = np.zeros((4, grid_n))
    for positions, masses in pieces:
        positions /= c
        np.arcsinh(positions, out=positions)
        _add_moments(moments, positions, masses, v)
    weights = c * (v[1] - v[0]) * np.cosh(v)
    return cls(grid=c * np.sinh(v), density=_node_masses(moments) / weights,
               weights=weights, **kwargs)
