"""dunklkit benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload means --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run times ops for ``--seconds`` seconds
(and for at least 100 ops, so p90 has ten samples beyond it) and reports
the end-to-end metrics.  With ``--trace 1`` it runs a fixed list of ops
twice, untraced and traced, and reports the per-layer metrics.  Every
metric is printed by name with its unit; the last stdout line is the JSON
result.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools before numpy loads: the runs are single-threaded by
# design, and an unpinned pool on a 2-core box adds ~10% and its own noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "DUNKL_KIT_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HOLDOUT_SEED = 90017     # kept out of tuning; later claims must also hold on it
MIN_OPS = 100
MAX_SECONDS = 150.0
SETUP_PROBES = 3
# Reported times are calibrated to the machine's current speed: each is
# scaled by REF_NOMINAL_S / (time of the reference kernel measured around
# it).  On a shared host the same op swings up to 1.6x in wall time between
# phases that last seconds to minutes, while op / reference varies 3-4x less.
REF_NOMINAL_S = 0.020    # the reference kernel on the baseline box at full speed
CALIBRATION_WINDOW = 5   # reference samples on each side of an op
_REF_SMALL = np.linspace(0.0, 50.0, 8000)
_REF_BIG = np.linspace(0.0, 8.0, 440000)
_clock = time.perf_counter

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "pass_frac": "1",
    "peak_rss_mb": "MB",
}


def _layer_metrics() -> dict[str, str]:
    """Per-layer metric name -> unit, in report order."""
    spec = [
        ("special.bessel_j", ["calls", "elems", "elems_le12", "elems_halfint", "self_s",
                              "ns_per_elem", "self_share"]),
        ("quadrature.gauss_rule", ["builds", "distinct", "setup_builds", "self_s", "self_share"]),
        ("core.intertwiner_atoms", ["calls", "atoms", "self_s", "self_share"]),
        ("transform.radial_translate", ["calls", "pairs", "self_s", "ns_per_pair", "self_share"]),
        ("transform.spherical_mean_radial", ["self_s", "self_share"]),
        ("harmonics.SphereQuadrature", ["builds", "self_s", "self_share"]),
        ("rank_one.kernel_unitary", ["calls", "elems", "self_s", "self_share"]),
        ("transform.TransformPlan", ["setup_builds", "setup_self_s"]),
        ("transform.TransformPlan.sample", ["self_s", "self_share"]),
        ("transform.TransformPlan.forward", ["calls", "flops", "self_s", "self_share"]),
        ("transform.spherical_mean_spectral", ["calls", "points", "self_s", "self_share"]),
        ("bessel_kingman.convolve_measures", ["calls", "pair_nodes", "far_mass", "self_s",
                                              "self_share"]),
        ("measures.deposit_on_grid", ["calls", "points", "clamped", "self_s", "ns_per_point",
                                      "self_share"]),
        ("bessel_kingman.hankel_transform", ["calls", "elems", "self_s", "self_share"]),
        ("bessel_kingman.cauchy_measure", ["calls", "self_s", "self_share"]),
        ("bessel_kingman.subordinate", ["self_s", "self_share"]),
        ("bessel_kingman.rayleigh_measure", ["calls", "self_s", "self_share"]),
        ("measures.json", ["bytes", "self_s", "self_share"]),
        ("markov.simulate_paths", ["calls", "steps", "self_s", "ns_per_step", "self_share"]),
        ("markov.ive", ["elems", "nonfinite", "self_s", "self_share"]),
        ("markov.marginal_ks", ["self_s", "self_share"]),
        ("markov.PathEnsemble.to_csv", ["rows", "bytes", "self_s", "self_share"]),
        ("markov.fine_step", ["sign_flip_frac"]),
        ("op", ["wall_s"]),
        ("bench", ["self_s", "self_share"]),
        ("trace", ["self_s", "overhead_frac", "hash_match"]),
    ]
    units = {"self_s": "s/op", "self_share": "1", "distinct": "count", "setup_builds": "count",
             "setup_self_s": "s", "ns_per_elem": "ns", "ns_per_pair": "ns",
             "ns_per_point": "ns", "ns_per_step": "ns", "flops": "flop/op", "bytes": "B/op",
             "far_mass": "1", "sign_flip_frac": "1", "wall_s": "s/op", "overhead_frac": "1",
             "hash_match": "1"}
    out = {}
    for layer, quantities in spec:
        for q in quantities:
            out[f"{layer}.{q}"] = units.get(q, "1/op")   # counts per traced op
    return out


PER_LAYER = _layer_metrics()


# ---------------------------------------------------------------------------
# set-up


def load_dunklkit():
    """Import dunklkit from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "dunklkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no dunklkit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import dunklkit

    if Path(dunklkit.__file__).resolve().parent != (src / "dunklkit").resolve():
        raise SystemExit(f"error: imported dunklkit from {dunklkit.__file__}, not {src}")
    return dunklkit


def set_up(name: str, seed: int):
    """Everything before the first timed op: import, inputs, plans, warm-ups."""
    dk = load_dunklkit()
    wl = workloads.WORKLOADS[name](dk, seed)
    wl.warm_up()
    return wl


def reference_time() -> float:
    """Wall time of a fixed kernel shaped like the workloads' work: a
    power-series pass over 440,000 floats (streaming through memory like
    bessel_j's series branch and the grid deposit), then small numpy passes,
    a scipy Bessel call and float formatting (like the transform, sampler
    and CSV work).  It shares no code with dunklkit, so a change to the
    package never moves it."""
    from scipy.special import jv

    t0 = _clock()
    w = -0.25 * _REF_BIG * _REF_BIG
    term, total = np.ones_like(w), np.ones_like(w)
    for n in range(3):
        term = term * (w / ((n + 1.0) * (n + 1.5)))
        total = total + term
    a = _REF_SMALL
    for _ in range(8):
        a = np.sqrt(a * a + 1.0) - 0.5
    jv(1.5, _REF_SMALL[:2000])
    ",".join(f"{v:.17g}" for v in _REF_SMALL[:1500])
    return _clock() - t0


def _speed_factor(refs) -> float:
    return REF_NOMINAL_S / float(np.median(refs))


def probe_setup(wl) -> float:
    """Calibrated wall time of a fresh process that sets up the same
    workload and seed and exits, process start included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
           "--seed", str(wl.seed), "--setup-probe"]
    before = [reference_time() for _ in range(3)]
    t0 = _clock()
    subprocess.run(cmd, check=True, timeout=170, stdout=subprocess.DEVNULL, cwd=ROOT)
    wall = _clock() - t0
    after = [reference_time() for _ in range(3)]
    return wall * _speed_factor(before + after)


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "threads": {v: os.environ[v] for v in THREAD_VARS},
            "holdout_seed": HOLDOUT_SEED}


# ---------------------------------------------------------------------------
# the op loop


def _digest(h, value) -> None:
    if isinstance(value, (tuple, list)):
        for v in value:
            _digest(h, v)
    elif isinstance(value, str):
        h.update(value.encode())
    else:
        h.update(np.ascontiguousarray(np.asarray(value)).tobytes())


def run_op(wl, i: int, h=None, tr=None) -> tuple[float, bool]:
    """Time op i and check it.  Exceptions, non-finite residuals and check
    misses are failures; none of them stop the run.  A given tracer records
    the op's calls, never the check's."""
    spec = wl.spec(i)
    if tr is not None:
        tr.op_id, tr.active = i, True
    t0 = _clock()
    try:
        out = wl.run(spec)
    except Exception:
        latency = _clock() - t0
        print(f"op {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return latency, False
    finally:
        if tr is not None:
            tr.active = False
    latency = _clock() - t0
    if h is not None:
        _digest(h, out)
    try:
        residual, tol = wl.check(spec, out)
    except Exception:
        print(f"op {i} check raised:\n{traceback.format_exc()}", file=sys.stderr)
        return latency, False
    ok = bool(np.isfinite(residual) and residual <= tol)
    if not ok:
        print(f"op {i} failed its check: residual {residual:.3e} > {tol:.1e}", file=sys.stderr)
    return latency, ok


def timed_run(wl, seconds: float, n_ops: int | None) -> dict:
    """Ops back to back, each preceded by the reference kernel; each
    latency is calibrated by the median reference time around it."""
    lat, refs, failed = [], [], 0
    start = _clock()
    i = 0
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        else:
            elapsed = _clock() - start
            if (elapsed >= seconds and i >= MIN_OPS) or elapsed >= MAX_SECONDS:
                break
        refs.append(reference_time())
        latency, ok = run_op(wl, i)
        lat.append(latency)
        failed += not ok
        i += 1
    w = CALIBRATION_WINDOW
    lat = np.asarray([t * _speed_factor(refs[max(0, j - w):j + w + 1])
                      for j, t in enumerate(lat)])
    metrics = {
        "ops_per_s": lat.size / float(lat.sum()),
        "op_p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "op_p90_ms": 1e3 * float(np.percentile(lat, 90)),
        "pass_frac": (lat.size - failed) / lat.size,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"attempted": int(lat.size), "failed": int(failed), "metrics": metrics}


def traced_run(name: str, seed: int, n_ops: int, spans_path: Path) -> dict:
    dk = load_dunklkit()
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.active = True
        wl = workloads.WORKLOADS[name](dk, seed)
        wl.warm_up()
        tr.active = False
        # each op runs untraced and traced back to back, in alternating
        # order, so drift over the run cancels out of the overhead
        hashes = {False: hashlib.sha256(), True: hashlib.sha256()}
        lat = {False: [], True: []}
        failed = 0
        for i in range(n_ops):
            for active in ((False, True) if i % 2 == 0 else (True, False)):
                latency, ok = run_op(wl, i, hashes[active], tr if active else None)
                lat[active].append(latency)
                failed += not ok
    finally:
        tr.uninstall()
    hash_a, hash_b = hashes[False].hexdigest(), hashes[True].hexdigest()
    lat_a, lat_b = np.asarray(lat[False]), np.asarray(lat[True])
    metrics = layer_metrics(tr, wl, lat_b, lat_a, hash_a == hash_b)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tr.write(str(spans_path), {"workload": name, "seed": seed, "ops": n_ops,
                               "env": environment()})
    return {"attempted": 2 * n_ops, "failed": int(failed), "hash_match": hash_a == hash_b,
            "metrics": metrics}


def layer_metrics(tr, wl, lat, lat_untraced, hash_match: bool) -> dict:
    n = lat.size
    wall = float(lat.sum())
    total = defaultdict(float)      # (name, quantity) summed over the traced ops
    setup = defaultdict(float)      # the same over set-up (op id -1)
    for (op, name, key), amount in tr.counters.items():
        (total if op >= 0 else setup)[(name, key)] += amount
    bookkeeping = top_level = 0.0
    for name, op, self_s, keep, full, parent in tr.self_times():
        if op < 0:
            setup[(name, "self_s")] += self_s
            continue
        total[(name, "self_s")] += self_s
        bookkeeping += keep
        if parent < 0:
            top_level += full

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for metric in PER_LAYER:
        layer, q = metric.rsplit(".", 1)
        if q == "self_share":
            v = ratio(total[(layer, "self_s")], wall)
        elif q.startswith("ns_per_"):
            count = {"elem": "elems", "pair": "pairs", "point": "points", "step": "steps"}
            v = 1e9 * ratio(total[(layer, "self_s")], total[(layer, count[q[7:]])])
        elif q == "setup_builds":
            v = setup[(layer, "builds" if layer == "quadrature.gauss_rule" else "calls")]
        elif q == "setup_self_s":
            v = setup[(layer, "self_s")]
        elif q == "distinct":
            v = len(tr.distinct_rules[True])
        elif q == "far_mass":
            v = ratio(total[(layer, q)], total[(layer, "calls")])
        elif q == "builds" and layer != "quadrature.gauss_rule":
            v = total[(layer, "calls")] / n
        else:
            v = total[(layer, q)] / n
        out[metric] = v
    out["markov.fine_step.sign_flip_frac"] = ratio(wl.diag.get("fine_step_sign_flips", 0.0),
                                                   wl.diag.get("fine_step_coords", 0.0))
    out["op.wall_s"] = wall / n
    out["bench.self_s"] = (wall - top_level) / n
    out["bench.self_share"] = ratio(wall - top_level, wall)
    out["trace.self_s"] = bookkeeping / n
    out["trace.overhead_frac"] = wall / float(lat_untraced.sum()) - 1.0
    out["trace.hash_match"] = 1.0 if hash_match else 0.0
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many ops (smoke tests); overrides --seconds "
                         "and the traced run's op count")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        set_up(args.workload, args.seed)
        os._exit(0)   # skip interpreter teardown: the probe times set-up only

    load_dunklkit()   # fail before printing anything when the sources are missing
    print("env " + json.dumps(environment()))
    if args.trace:
        n_ops = args.ops or workloads.WORKLOADS[args.workload].trace_ops
        spans = ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        res = traced_run(args.workload, args.seed, n_ops, spans)
        units = PER_LAYER
        correct = res["failed"] == 0 and res.pop("hash_match")
    else:
        wl = set_up(args.workload, args.seed)
        setup_times = [probe_setup(wl) for _ in range(SETUP_PROBES)]
        res = timed_run(wl, args.seconds, args.ops)
        res["metrics"]["setup_s"] = statistics.median(setup_times)
        units = END_TO_END
        correct = res["failed"] == 0
        if wl.diag:
            print("diagnostics " + json.dumps(wl.diag))

    for name, unit in units.items():
        print(f"{name:48s} {res['metrics'][name]:.6g} {unit}")
    result = {"correct": bool(correct), "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {name: {"value": float(res["metrics"][name]), "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
