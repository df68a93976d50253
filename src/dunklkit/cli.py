"""Command line front end: batch evaluation, checking, and simulation.

Every run is driven by one effective configuration, the JSON config
file (if any) merged with command line flags, flags winning.  A sha256
prefix of that configuration is stamped into every output file next to
the tool version and the seed, so any table can be traced back to the
parameters that produced it.  Outputs carry no timestamps: one
configuration, one byte stream.  CSV tables write every float with its
shortest round-trip digits in float repr notation, so each value parses
back to the same bits; a NaN or infinite entry is a ConfigError, never a
cell.

Exit codes:
    0   success
    1   a verification suite reported a failing case
    2   configuration error (bad JSON, unknown keys or flags, unknown suite)
    3   numerical guard tripped (sampler range, boundary decay,
        semigroup closure)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import _as_kv, dunkl_kernel_unitary, generalized_bessel_unitary
from .errors import ConfigError, NumericalError, _finite
from .markov import (_CLOSURE_TOL, _N_BLOCKS, _resolve_threads, marginal_ks, semigroup_from_json,
                     simulate_paths)
from .measures import _csv_rows, _write_csv, measure_from_json, measure_to_json
from .special import bessel_j
from .transform import GridFunction, TransformPlan, dunkl_transform_grid, heat_kernel
from .verify import run_all
from .bessel_kingman import convolve_measures

_EVAL_TARGETS = ("kernel", "generalized-bessel", "bessel", "heat")
_KS_THRESHOLD = 0.01

# keys each subcommand accepts in its config, beyond the shared seed
_COMMAND_KEYS = {
    "eval": {"target", "k", "x", "y", "alpha", "s"},
    "check": {"suites"},
    "simulate": {"kind", "k", "t_grid", "n_paths", "n_blocks", "threads", "ks_times"},
    "transform": {"k", "input", "inverse", "boundary_tol"},
    "convolve": {"inputs", "lambda", "k", "grid_n", "atom_cap"},
    "semigroup": {"type", "k"},
}
_SHARED_KEYS = {"seed"}


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Effective, validated parameters of one CLI invocation."""

    command: str
    options: dict
    out: str | None
    fmt: str
    config_hash: str

    @property
    def seed(self):
        return self.options.get("seed")


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _positive_float(options: dict, key: str) -> float:
    val = options[key]
    try:
        val = float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"'{key}' must be a number, got {val!r}") from None
    if not val > 0.0:
        raise ConfigError(f"'{key}' must be positive, got {val}")
    options[key] = val
    return val


def build_config(command: str, args: argparse.Namespace) -> RunConfig:
    """Merge the config file with flags and validate the result."""
    options = _load_config_file(args.config) if args.config else {}
    if args.seed is not None:
        options["seed"] = args.seed
    if command == "eval" and getattr(args, "target", None):
        options["target"] = args.target
    if command == "check" and getattr(args, "suites", None):
        options["suites"] = list(args.suites)

    allowed = _COMMAND_KEYS[command] | _SHARED_KEYS
    unknown = sorted(set(options) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown {command} config keys {unknown}; allowed: {sorted(allowed)}")
    seed = options.get("seed")
    if "seed" in options and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ConfigError(f"'seed' must be an integer, got {seed!r}")
    if "boundary_tol" in options:
        _positive_float(options, "boundary_tol")

    canonical = json.dumps({"command": command, "options": options},
                           sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    fmt = args.fmt or ("csv" if command in ("eval", "transform") else "json")
    return RunConfig(command=command, options=options, out=args.out,
                     fmt=fmt, config_hash=digest)


def _require(options: dict, key: str, command: str):
    if key not in options:
        raise ConfigError(f"{command} needs '{key}' (config file or flag)")
    return options[key]


# ---------------------------------------------------------------------------
# output plumbing


@contextmanager
def _sink(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _meta(cfg: RunConfig, **extra) -> dict:
    meta = {"version": __version__, "config": cfg.config_hash, "seed": cfg.seed}
    meta.update(extra)
    return meta


def _file_header(cfg: RunConfig, **extra) -> dict:
    """Meta dict for '#'-style file headers, with None spelled out."""
    return {k: ("none" if v is None else v)
            for k, v in _meta(cfg, **extra).items()}


def _emit_json(cfg: RunConfig, payload: dict, path: str | None = "out",
               **extra_meta) -> None:
    doc = {"meta": _meta(cfg, **extra_meta)}
    doc.update(payload)
    with _sink(cfg.out if path == "out" else path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_table(cfg: RunConfig, columns: list[str], rows: list[list[float]],
                 **extra_meta) -> None:
    if cfg.fmt == "json":
        _emit_json(cfg, {"columns": columns, "rows": rows}, **extra_meta)
        return
    blocks = _csv_rows(np.reshape(np.asarray(rows, dtype=float), (len(rows), len(columns))))
    with _sink(cfg.out) as fh:
        _write_csv(fh, _file_header(cfg, **extra_meta), columns, blocks)


# ---------------------------------------------------------------------------
# argument grids


def _points(value, n_axes: int, key: str) -> np.ndarray:
    """Normalize a config entry to an (m, n_axes) array of points.

    Accepts a scalar, a flat list (grid of scalars when n_axes = 1, one
    point otherwise), a list of points, or {"start", "stop", "num"} for
    a uniform one-dimensional grid.
    """
    if isinstance(value, dict):
        extra = set(value) - {"start", "stop", "num"}
        if extra:
            raise ConfigError(f"'{key}' grid spec has unknown keys {sorted(extra)}")
        if n_axes != 1:
            raise ConfigError(f"'{key}': grid specs need explicit points beyond one axis")
        try:
            arr = np.linspace(float(value["start"]), float(value["stop"]),
                              int(value["num"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"'{key}' grid spec is incomplete: {exc}") from exc
        return arr[:, None]
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{key}' is not numeric: {exc}") from exc
    if arr.ndim == 0:
        arr = arr[None]
    if arr.ndim == 1:
        if n_axes == 1:
            return arr[:, None]
        if arr.size == n_axes:
            return arr[None, :]
        raise ConfigError(f"'{key}' points must have {n_axes} coordinates")
    if arr.ndim == 2 and arr.shape[1] == n_axes:
        return arr
    raise ConfigError(f"'{key}' must be points in R^{n_axes}")


def _coordinate_columns(n_axes: int) -> list[str]:
    if n_axes == 1:
        return ["x", "y"]
    return [f"x{i+1}" for i in range(n_axes)] + [f"y{i+1}" for i in range(n_axes)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(cfg: RunConfig) -> int:
    o = cfg.options
    target = str(_require(o, "target", "eval")).replace("_", "-")
    if target not in _EVAL_TARGETS:
        raise ConfigError(f"unknown eval target '{target}'; choose from {_EVAL_TARGETS}")

    if target == "bessel":
        alpha = float(_require(o, "alpha", "eval bessel"))
        xs = _points(_require(o, "x", "eval bessel"), 1, "x")[:, 0]
        vals = bessel_j(alpha, xs)
        rows = [[x, v] for x, v in zip(xs, np.atleast_1d(vals))]
        _write_table(cfg, ["x", "value"], rows, target=target, alpha=alpha)
        return 0

    kv = _as_kv(_require(o, "k", f"eval {target}"))
    xpts = _points(_require(o, "x", f"eval {target}"), kv.n_axes, "x")
    ypts = _points(_require(o, "y", f"eval {target}"), kv.n_axes, "y")
    coords = _coordinate_columns(kv.n_axes)
    k_label = json.dumps(list(kv.k))

    xg, yg, meta = xpts[:, None, :], ypts[None, :, :], {}
    if target == "kernel":
        vals = np.asarray(dunkl_kernel_unitary(kv, xg, yg), dtype=complex)
        vals, cols = np.stack([vals.real, vals.imag], axis=-1), ["re", "im"]
    elif target == "generalized-bessel":
        vals, cols = generalized_bessel_unitary(kv, xg, yg), ["value"]
    else:  # heat
        s = _positive_float(o, "s") if "s" in o else _require(o, "s", "eval heat")
        vals, cols, meta = heat_kernel(kv, s, xg, yg), ["value"], {"s": s}
    vals = vals.reshape(xpts.shape[0], ypts.shape[0], len(cols))
    rows = [list(xpts[i]) + list(ypts[j]) + list(vals[i, j])
            for i in range(xpts.shape[0]) for j in range(ypts.shape[0])]
    _write_table(cfg, coords + cols, rows, target=target, k=k_label, **meta)
    return 0


def cmd_check(cfg: RunConfig) -> int:
    if cfg.fmt != "json":
        raise ConfigError("check reports are JSON; drop --format csv")
    names = cfg.options.get("suites")
    if isinstance(names, str):
        names = [names]
    if names is not None:
        if not names or not all(isinstance(n, str) for n in names):
            raise ConfigError("'suites' must be a non-empty list of suite names")
    reports = run_all(names)
    all_pass = all(r.passed for r in reports)
    for r in reports:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{r.suite}: {verdict} cases={r.cases} "
              f"max_residual={r.max_residual:.3e} ({r.seconds:.1f}s)",
              file=sys.stderr)
    _emit_json(cfg, {"suites": [r.to_dict() for r in reports], "pass": all_pass})
    return 0 if all_pass else 1


def cmd_simulate(cfg: RunConfig) -> int:
    o = cfg.options
    if cfg.out is None:
        raise ConfigError("simulate needs --out PATH for the path table")
    kv = _as_kv(_require(o, "k", "simulate"))
    kind = o.get("kind", "gaussian")
    t_grid = _require(o, "t_grid", "simulate")
    n_paths = _require(o, "n_paths", "simulate")
    if "seed" not in o:
        raise ConfigError("simulate needs a seed (config file or --seed)")
    n_blocks = o.get("n_blocks", _N_BLOCKS)
    threads = o.get("threads")

    ens = simulate_paths(kv, t_grid, n_paths, o["seed"], kind=kind,
                         n_blocks=n_blocks, threads=threads)
    t_grid = ens.times
    if not np.isfinite(ens.states).all():
        raise NumericalError("sampler produced non-finite states")

    ks_times = o.get("ks_times", [float(t_grid[-1])])
    if not isinstance(ks_times, list):
        raise ConfigError(f"'ks_times' must be a list of times, got {ks_times!r}")
    ks_rows = []
    for t in ks_times:
        t = _finite(t, "ks time")
        i = int(np.argmin(np.abs(t_grid - t)))  # the nearest grid time, if it is close
        if not np.isclose(t_grid[i], t):
            raise ConfigError(f"ks time {t} is not a point of t_grid")
        stat, pval = marginal_ks(kv, ens.radii(i), kind, float(t_grid[i]))
        ks_rows.append({
            "time": float(t_grid[i]),
            "statistic": float(stat),
            "p_value": float(pval),
            "law": "rayleigh" if kind == "gaussian" else "cauchy",
            "pass": bool(pval >= _KS_THRESHOLD),
        })

    header = _file_header(cfg, kind=kind, k=json.dumps(list(kv.k)))
    ens.to_csv(cfg.out, header=header)
    summary = {
        "kind": kind,
        "k": list(kv.k),
        "lambda": kv.lam,
        "n_paths": int(n_paths),
        "t_grid": [float(t) for t in t_grid],
        "n_blocks": int(min(n_blocks, n_paths)),
        "threads": _resolve_threads(threads, min(n_blocks, n_paths)),
        "paths": cfg.out,
        "p_threshold": _KS_THRESHOLD,
        "ks": ks_rows,
    }
    _emit_json(cfg, summary, path=None, kind=kind)
    return 0


def cmd_transform(cfg: RunConfig) -> int:
    o = cfg.options
    if cfg.out is None:
        raise ConfigError("transform needs --out PATH for the result grid")
    kv = _as_kv(_require(o, "k", "transform"))
    src = str(_require(o, "input", "transform"))
    gf = GridFunction.from_npz(src) if src.endswith(".npz") else GridFunction.from_csv(src)
    inverse = o.get("inverse", False)
    if not isinstance(inverse, bool):
        raise ConfigError(f"'inverse' must be true or false, got {inverse!r}")
    boundary_tol = o.get("boundary_tol", 1e-12)

    edge = TransformPlan.boundary_decay(gf.values)
    if edge > boundary_tol:
        raise NumericalError(
            f"grid function does not decay at the boundary: max |f| on the "
            f"faces is {edge:.3e} > {boundary_tol:.3e}")

    res = dunkl_transform_grid(kv, gf, inverse=inverse)
    meta = _file_header(cfg, k=json.dumps(list(kv.k)), inverse=inverse, input=src)
    if cfg.out.endswith(".npz"):
        res.to_npz(cfg.out, header=meta)
    elif cfg.fmt == "json":
        payload = {
            "axes": [a.tolist() for a in res.axes],
            "re": np.real(res.values).tolist(),
            "im": np.imag(res.values).tolist(),
        }
        _emit_json(cfg, payload, k=json.dumps(list(kv.k)), inverse=inverse, input=src)
    else:
        res.to_csv(cfg.out, header=meta)
    return 0


def cmd_convolve(cfg: RunConfig) -> int:
    o = cfg.options
    if cfg.fmt != "json":
        raise ConfigError("convolve writes a measure JSON; drop --format csv")
    inputs = _require(o, "inputs", "convolve")
    if not isinstance(inputs, list) or len(inputs) != 2:
        raise ConfigError("'inputs' must list exactly two measure JSON files")
    measures = []
    for path in inputs:
        try:
            with open(path) as fh:
                measures.append(measure_from_json(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read measure file: {exc}") from exc

    lams = [o.get("lambda")]
    if "k" in o:
        lams.append(_as_kv(o["k"]).lam)
    lams += [m.lam for m in measures]
    lams = [float(v) for v in lams if v is not None]
    if not lams:
        raise ConfigError("no index: give 'lambda' or 'k', or use measures that carry one")
    if max(lams) - min(lams) > 1e-12:
        raise ConfigError(f"conflicting indices {sorted(set(lams))}")
    lam = lams[0]

    kwargs = {key: o[key] for key in ("grid_n", "atom_cap") if key in o}
    result = convolve_measures(lam, measures[0], measures[1], **kwargs)
    text = measure_to_json(result, meta=_meta(cfg, **{"lambda": lam}))
    with _sink(cfg.out) as fh:
        fh.write(text + "\n")
    return 0


def cmd_semigroup(cfg: RunConfig) -> int:
    o = cfg.options
    if cfg.fmt != "json":
        raise ConfigError("semigroup reports are JSON; drop --format csv")
    spec = {"type": _require(o, "type", "semigroup"), "k": _require(o, "k", "semigroup")}
    sg = semigroup_from_json(json.dumps(spec))
    report = {
        "type": sg.kind,
        "k": list(sg.kv.k),
        "lambda": sg.kv.lam,
        "closure_residual": float(sg.closure_residual),
        "closure_tol": _CLOSURE_TOL,
        "pass": True,
    }
    _emit_json(cfg, report)
    return 0


_HANDLERS = {
    "eval": cmd_eval,
    "check": cmd_check,
    "simulate": cmd_simulate,
    "transform": cmd_transform,
    "convolve": cmd_convolve,
    "semigroup": cmd_semigroup,
}


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """An unknown flag or a malformed value is a configuration error like
    any other (JSON on stderr, exit 2); --help and --version still exit."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dunklkit",
        description="Batch evaluation, verification, and simulation for "
                    "Dunkl analysis on the sign-change groups.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH",
                        help="JSON file with the run parameters")
        sp.add_argument("--out", metavar="PATH",
                        help="output file (default: stdout where supported)")
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        help="output format")
        sp.add_argument("--seed", type=int, help="seed override")
        return sp

    pe = add("eval", "tabulate kernels, Bessel functions, heat densities")
    pe.add_argument("target", nargs="?",
                    help=f"one of {', '.join(_EVAL_TARGETS)}")
    pc = add("check", "run verification suites and report residuals")
    pc.add_argument("suites", nargs="*",
                    help="suite names (default: all)")
    add("simulate", "sample paths of the radial processes")
    add("transform", "forward or inverse transform of a sampled grid function")
    add("convolve", "hypergroup convolution of two radial measures")
    add("semigroup", "build a transition family and report its closure check")
    return parser


def _print_error(kind: str, exc: Exception) -> None:
    json.dump({"error": {"kind": kind, "message": str(exc)}}, sys.stderr)
    sys.stderr.write("\n")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = build_config(args.command, args)
        return _HANDLERS[cfg.command](cfg)
    except ConfigError as exc:
        _print_error("config", exc)
        return 2
    except NumericalError as exc:
        _print_error("numerical", exc)
        return 3
    except OSError as exc:
        _print_error("config", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
