"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

They run every workload for a few ops in both modes (about a minute in
total), check the reported metric names against BENCHMARK.json, and check
that the correctness gate counts perturbed results and raising ops as
failures without stopping the run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--ops", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == "1":
        assert result["metrics"]["trace.hash_match"]["value"] == 1.0
        assert result["metrics"]["bench.self_s"]["value"] >= 0.0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_catalogue_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def _perturbed(wl, spec, out):
    """A result that is wrong by far more than the workload's tolerance."""
    if wl.name == "means":
        return out + 1e-3
    if wl.name == "spectral":
        return out - 1e-3
    if wl.name == "hypergroup":
        image, text = out
        return image + 1e-6, text
    states, p_value = out
    states = states.copy()
    states[0, -1, 0] = np.nan
    return states, p_value


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_gate_counts_perturbed_result(name):
    wl = workloads.WORKLOADS[name](run.load_dunklkit(), 3)
    # op 1 is a cheap one in every schedule; for spectral it is a heat profile,
    # whose check compares values rather than signs
    spec = wl.spec(1)
    out = wl.run(spec)
    residual, tol = wl.check(spec, out)
    assert residual <= tol
    residual, tol = wl.check(spec, _perturbed(wl, spec, out))
    assert not (np.isfinite(residual) and residual <= tol)


def test_loop_counts_failures_without_stopping():
    class Flaky(workloads.Means):
        def run(self, spec):
            if spec["i"] == 1:
                raise FloatingPointError("deliberate")
            return super().run(spec) * (1.5 if spec["i"] == 2 else 1.0)

        def spec(self, i):
            return dict(super().spec(i), i=i)

    wl = Flaky(run.load_dunklkit(), 3)
    wl.schedule = ((1.0,),)      # rank one: ~1 ms per op
    res = run.timed_run(wl, seconds=0.0, n_ops=5)
    assert res["attempted"] == 5 and res["failed"] == 2
    assert res["metrics"]["pass_frac"] == pytest.approx(0.6)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _bench("--workload", "means", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
