"""Span tracing of dunklkit's public names, installed from outside the package.

Every public function the benchmark breaks down is wrapped, and the wrapper
replaces each binding of that function object in every loaded ``dunklkit``
module: ``from .special import bessel_j`` copies the name into each
importing module, so patching only the defining module would miss most
calls.  The scipy ``roots_*`` and ``ive`` names bound in dunklkit modules
are wrapped the same way.  Methods are wrapped on their class.

A span records (name, start, end, parent span, op id).  Spans stay in
memory and are written once, when the run ends.  Counters (elements,
points, bytes, ...) are taken at the same boundaries.  Counting work runs
outside the timed span and is charged to the tracer itself, so

    op wall = sum of layer self times + tracer bookkeeping + benchmark's own time

holds exactly for every op.
"""

from __future__ import annotations

import importlib
import inspect
import io
import json
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


def _size(a) -> int:
    return int(np.size(a))


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# ---------------------------------------------------------------------------
# counters per span name: (tracer, original fn, args, kwargs, result) -> {counter: amount}


def _count_bessel_j(tr, fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    z = np.asarray(a["z"])
    alpha = float(a["alpha"])
    n = _size(z)
    halfint = float(alpha + 0.5).is_integer()
    return {"elems": n, "elems_le12": int(np.count_nonzero(np.abs(z) <= 12.0)),
            "elems_halfint": n if halfint else 0}


def _count_roots(kind):
    def count(tr, fn, args, kwargs, out):
        key = (kind,) + tuple(float(v) for v in args[:3])
        tr.distinct_rules[tr.op_id >= 0].add(key)
        return {"builds": 1}
    return count


def _count_atoms(tr, fn, args, kwargs, out):
    tr.last_atoms = int(out[0].shape[0])
    return {"atoms": tr.last_atoms}


def _count_translate(tr, fn, args, kwargs, out):
    # pairs = translated points x atoms of the one intertwiner_atoms call inside
    a = _bound(fn, args, kwargs)
    rows = int(np.atleast_2d(np.asarray(a["y"])).shape[0])
    return {"pairs": rows * tr.last_atoms}


def _count_kernel_unitary(tr, fn, args, kwargs, out):
    return {"elems": _size(out)}


def _count_forward(tr, fn, args, kwargs, out):
    plan = args[0]
    shape = list(plan.shape)
    flops = 0
    # axis i contracts a complex (m_i x n_i) kernel against n_i x (other axes)
    for i, (m, n) in enumerate(zip(plan.freq_shape, plan.shape)):
        rest = int(np.prod(shape)) // n
        flops += 8 * m * n * rest
        shape[i] = m
    return {"flops": flops}


def _count_mean_spectral(tr, fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    return {"points": int(np.prod(a["plan"].freq_shape))}


def _count_convolve(tr, fn, args, kwargs, out):
    from dunklkit.measures import as_weighted_atoms

    a = _bound(fn, args, kwargs)
    na = as_weighted_atoms(a["sigma"], cap=a["atom_cap"])[0].size
    nb = as_weighted_atoms(a["tau"], cap=a["atom_cap"])[0].size
    far = float(sum(w for _, w in out.atoms)) if out is not a["sigma"] and out is not a["tau"] else 0.0
    return {"pair_nodes": na * nb * int(a["points_per_pair"]), "far_mass": far}


def _count_deposit(tr, fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    pos, grid = np.asarray(a["positions"]), np.asarray(a["grid"])
    h = grid[1] - grid[0]
    left = ((pos - grid[0]) / h).astype(int)
    clamped = np.count_nonzero((left < 1) | (left > grid.size - 3))
    return {"points": _size(pos), "clamped": int(clamped)}


def _count_hankel(tr, fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    mu = a["mu"]
    return {"elems": (mu.grid.size + len(mu.atoms)) * _size(a["r"])}


def _count_json_out(tr, fn, args, kwargs, out):
    return {"bytes": len(out)}


def _count_json_in(tr, fn, args, kwargs, out):
    return {"bytes": len(_bound(fn, args, kwargs)["text"])}


def _count_simulate(tr, fn, args, kwargs, out):
    return {"steps": int(out.states.shape[0]) * (int(out.times.size) - 1)}


def _count_ive(tr, fn, args, kwargs, out):
    return {"elems": _size(out), "nonfinite": int(np.count_nonzero(~np.isfinite(out)))}


def _count_to_csv(tr, fn, args, kwargs, out):
    ens = args[0]
    return {"rows": int(ens.states.shape[0]) * int(ens.times.size), "bytes": tr.csv_bytes_taken()}


# span name -> (module that defines it, attribute path, counter)
FUNCTIONS = {
    "special.bessel_j": ("special", "bessel_j", _count_bessel_j),
    "core.intertwiner_atoms": ("core", "intertwiner_atoms", _count_atoms),
    "transform.radial_translate": ("transform", "radial_translate", _count_translate),
    "transform.spherical_mean_radial": ("transform", "spherical_mean_radial", None),
    "rank_one.kernel_unitary": ("rank_one", "kernel_unitary", _count_kernel_unitary),
    "transform.spherical_mean_spectral": ("transform", "spherical_mean_spectral",
                                          _count_mean_spectral),
    "bessel_kingman.convolve_measures": ("bessel_kingman", "convolve_measures", _count_convolve),
    "measures.deposit_on_grid": ("measures", "deposit_on_grid", _count_deposit),
    "bessel_kingman.hankel_transform": ("bessel_kingman", "hankel_transform", _count_hankel),
    "bessel_kingman.cauchy_measure": ("bessel_kingman", "cauchy_measure", None),
    "bessel_kingman.rayleigh_measure": ("bessel_kingman", "rayleigh_measure", None),
    "bessel_kingman.subordinate": ("bessel_kingman", "subordinate", None),
    "measures.json": [("measures", "measure_to_json", _count_json_out),
                      ("measures", "measure_from_json", _count_json_in)],
    "markov.simulate_paths": ("markov", "simulate_paths", _count_simulate),
    "markov.marginal_ks": ("markov", "marginal_ks", None),
}

# span name -> (class's module, class, method, counter)
METHODS = {
    "harmonics.SphereQuadrature": ("harmonics", "SphereQuadrature", "__init__", None),
    "transform.TransformPlan": ("transform", "TransformPlan", "__init__", None),
    "transform.TransformPlan.sample": ("transform", "TransformPlan", "sample", None),
    "transform.TransformPlan.forward": ("transform", "TransformPlan", "forward", _count_forward),
    "markov.PathEnsemble.to_csv": ("markov", "PathEnsemble", "to_csv", _count_to_csv),
}

# span name -> (scipy.special attribute, counter); every dunklkit binding is wrapped
SCIPY = {
    "quadrature.gauss_rule": [("roots_jacobi", _count_roots("jacobi")),
                              ("roots_legendre", _count_roots("legendre"))],
    "markov.ive": [("ive", _count_ive)],
}


class _CountingRaw(io.RawIOBase):
    """Unbuffered binary sink that counts the bytes passing to the file.

    Sits under the usual buffered text layers, so it sees one write per
    flushed buffer, not one per row, and adds almost nothing to the span."""

    def __init__(self, path, tracer):
        super().__init__()
        self._fh = open(path, "wb", buffering=0)
        self._tracer = tracer

    def writable(self):
        return True

    def write(self, b):
        n = self._fh.write(b)
        self._tracer.csv_bytes += n
        return n

    def close(self):
        self._fh.close()
        super().close()


class Tracer:
    """Wraps the traced names while installed; records spans only while active."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans = []            # (name, start, end, parent index, op id)
        self.full = []             # wrapper interval incl. bookkeeping, per span
        self.counters = defaultdict(float)   # (op id, name, counter) -> amount
        self.distinct_rules = defaultdict(set)   # in an op? -> {(kind, n, a, b)}
        self.csv_bytes = 0
        self.last_atoms = 0
        self._stack = []
        self._restore = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import scipy.special

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "dunklkit" or n.startswith("dunklkit.")) and m is not None]
        targets = []   # (original object, span name, counter)
        for name, entries in FUNCTIONS.items():
            for mod, attr, counter in entries if isinstance(entries, list) else [entries]:
                fn = getattr(importlib.import_module(f"dunklkit.{mod}"), attr)
                targets.append((fn, name, counter))
        for name, entries in SCIPY.items():
            for attr, counter in entries:
                targets.append((getattr(scipy.special, attr), name, counter))
        for fn, name, counter in targets:
            wrapped = self._wrap(fn, name, counter)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._restore.append((m, attr, val))
                        setattr(m, attr, wrapped)
        for name, (mod, cls_name, meth, counter) in METHODS.items():
            cls = getattr(importlib.import_module(f"dunklkit.{mod}"), cls_name)
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, name, counter))
        # count CSV bytes even when the op writes to os.devnull
        markov = importlib.import_module("dunklkit.markov")
        tracer = self

        def counting_open(path, mode="r", newline=None, **kwargs):
            if not tracer.active or mode != "w" or kwargs:
                return open(path, mode, newline=newline, **kwargs)
            raw = _CountingRaw(path, tracer)
            return io.TextIOWrapper(io.BufferedWriter(raw), newline=newline)

        self._restore.append((markov, "open", None))
        markov.open = counting_open

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            if val is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, val)
        self._restore.clear()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, name, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t_in = _clock()
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer.full.append(None)
            tracer._stack.append(idx)
            start = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = _clock()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op_id)
                tracer.full[idx] = (t_in, end)
            if counter is not None:
                for key, amount in counter(tracer, fn, args, kwargs, out).items():
                    tracer.counters[(tracer.op_id, name, key)] += amount
            tracer.counters[(tracer.op_id, name, "calls")] += 1
            tracer.full[idx] = (t_in, _clock())
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def csv_bytes_taken(self) -> int:
        n, self.csv_bytes = self.csv_bytes, 0
        return n

    # -- reduction -----------------------------------------------------------

    def self_times(self):
        """Per span: (name, op id, self s, bookkeeping s, wrapper interval s, parent index)."""
        child_full = defaultdict(float)
        for (name, start, end, parent, op), (t_in, t_out) in zip(self.spans, self.full):
            if parent >= 0:
                child_full[parent] += t_out - t_in
        out = []
        for i, ((name, start, end, parent, op), (t_in, t_out)) in enumerate(
                zip(self.spans, self.full)):
            out.append((name, op, (end - start) - child_full[i],
                        (t_out - t_in) - (end - start), t_out - t_in, parent))
        return out

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for (name, start, end, parent, op) in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
