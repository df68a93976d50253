"""Command line surface: exit codes, file formats, reproducibility.

Most cases call main() in-process.  The packaging tests run fresh
interpreters: one through ``python -m dunklkit.cli``, one through the
launcher an installer would generate from the ``[project.scripts]``
entry in pyproject.toml.  The launcher is built from that declaration,
so no installed distribution or ``dunklkit`` executable is needed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest depends on tomli there
    import tomli as tomllib

import dunklkit
from dunklkit import GridFunction, MultiplicityVector, __version__
from dunklkit.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv_table(path):
    """Parse a CSV written by the CLI: ('# key: value' meta, header, rows)."""
    meta, rows = {}, []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition(": ")
                meta[key] = val
            elif header is None:
                header = line
            else:
                rows.append(line.split(","))
    return meta, header, rows


# ---------------------------------------------------------------------------
# eval


def test_eval_kernel_csv_contract(tmp_path, capsys):
    cfg = write_config(tmp_path, "eval.json", {
        "target": "kernel", "k": [1.0],
        "x": [0.0, 1.0], "y": [0.5, 2.0],
    })
    out = str(tmp_path / "kernel.csv")
    code, _, _ = run_cli(capsys, "eval", "--config", cfg, "--out", out)
    assert code == 0
    meta, header, rows = read_csv_table(out)
    assert header == "x,y,re,im"
    assert meta["version"] == __version__
    assert "config" in meta and len(meta["config"]) == 12
    assert "timestamp" not in meta and "date" not in meta
    # x = 0 rows: kernel is identically 1
    zero_rows = [r for r in rows if float(r[0]) == 0.0]
    assert len(zero_rows) == 2
    for r in zero_rows:
        assert float(r[2]) == 1.0 and float(r[3]) == 0.0


def test_eval_heat_origin_value(tmp_path, capsys):
    kv = MultiplicityVector(k=(1.0, 0.5))
    cfg = write_config(tmp_path, "heat.json", {
        "target": "heat", "k": [1.0, 0.5], "s": 0.5,
        "x": [[0.0, 0.0]], "y": [[0.0, 0.0]],
    })
    out = str(tmp_path / "heat.csv")
    code, _, _ = run_cli(capsys, "eval", "--config", cfg, "--out", out)
    assert code == 0
    _, header, rows = read_csv_table(out)
    assert header == "x1,x2,y1,y2,value"
    want = (2.0 * 0.5) ** (-(kv.gamma + 1.0)) / kv.c_norm
    assert float(rows[0][4]) == pytest.approx(want, rel=1e-14)


def test_eval_heat_past_the_float_range_is_a_numerical_error(tmp_path, capsys):
    # (2s)^(-7/2) at s = 1e-100 was a bare OverflowError, exit 1
    cfg = write_config(tmp_path, "heat.json", {
        "target": "heat", "k": [3.0], "s": 1e-100, "x": [0.0], "y": [0.0]})
    out = tmp_path / "heat.csv"
    code, _, err = run_cli(capsys, "eval", "--config", cfg, "--out", str(out))
    assert code == 3
    assert "overflows" in json.loads(err)["error"]["message"]
    assert not out.exists()


def test_eval_bessel_json_to_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, "b.json", {
        "target": "bessel", "alpha": 0.5,
        "x": {"start": 0.0, "stop": 2.0, "num": 5},
    })
    code, out, _ = run_cli(capsys, "eval", "--config", cfg, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["x", "value"]
    assert len(doc["rows"]) == 5
    assert doc["rows"][0][1] == pytest.approx(1.0)
    assert doc["meta"]["version"] == __version__


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eval_csv_refuses_non_finite_values(tmp_path, capsys, monkeypatch, bad):
    # orjson writes these as null, which no CSV cell may carry
    monkeypatch.setattr("dunklkit.cli.bessel_j", lambda alpha, x: np.where(x > 1.0, bad, 1.0))
    cfg = write_config(tmp_path, "b.json", {"target": "bessel", "alpha": 0.5, "x": [0.5, 2.0]})
    out = tmp_path / "b.csv"
    code, _, err = run_cli(capsys, "eval", "--config", cfg, "--out", str(out))
    assert code == 2
    assert "NaN or infinite" in json.loads(err)["error"]["message"]
    assert not out.exists()


def test_eval_unknown_target_and_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"target": "zeta", "k": [1.0]})
    code, _, err = run_cli(capsys, "eval", "--config", cfg)
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "config"
    cfg2 = write_config(tmp_path, "bad2.json", {
        "target": "kernel", "k": [1.0], "x": [1.0], "y": [1.0], "npoints": 7})
    code2, _, err2 = run_cli(capsys, "eval", "--config", cfg2)
    assert code2 == 2
    assert "npoints" in json.loads(err2)["error"]["message"]


def test_config_validation_rules(tmp_path, capsys):
    base = {"target": "kernel", "k": [1.0], "x": [1.0], "y": [1.0]}
    # tol is no config key: every bound comes from the tolerance table
    cfg = write_config(tmp_path, "t.json", {**base, "tol": 0.0})
    assert run_cli(capsys, "eval", "--config", cfg)[0] == 2
    # seed must be an integer
    cfg = write_config(tmp_path, "s.json", {**base, "seed": 1.5})
    assert run_cli(capsys, "eval", "--config", cfg)[0] == 2
    # config file must hold a JSON object
    bad = tmp_path / "arr.json"
    bad.write_text("[1, 2]")
    assert run_cli(capsys, "eval", "--config", str(bad))[0] == 2
    # unreadable path
    assert run_cli(capsys, "eval", "--config", str(tmp_path / "nope.json"))[0] == 2


# ---------------------------------------------------------------------------
# check


def test_check_passing_suites(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code, _, err = run_cli(capsys, "check", "appendix", "funk-hecke", "--out", out)
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["pass"] is True
    suites = {s["suite"]: s for s in doc["suites"]}
    assert set(suites) == {"appendix", "funk-hecke"}
    for s in suites.values():
        assert s["pass"] is True and s["cases"] > 0
        assert s["max_residual"] <= s["tolerance"]
    assert "PASS" in err


def test_check_failure_serializes_cases(capsys, monkeypatch):
    monkeypatch.setitem(dunklkit.verify.TOLERANCES, "appendix", 1e-30)
    code, out, err = run_cli(capsys, "check", "appendix")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    failing = doc["suites"][0]["failures"]
    assert failing and {"case", "residual", "tolerance", "pass"} <= set(failing[0])
    assert "FAIL" in err


_MINIMAL_CONFIGS = {
    "eval": {"target": "kernel", "k": [1.0], "x": [1.0], "y": [1.0]},
    "check": {"suites": ["appendix"]},
    "simulate": {"k": [1.0], "t_grid": [0.0, 1.0], "n_paths": 8, "seed": 1},
    "transform": {"k": [1.0], "input": "grid.csv"},
    "convolve": {"inputs": ["a.json", "b.json"], "lambda": 0.5},
    "semigroup": {"type": "gaussian", "k": [1.0]},
}


def test_tolerance_override_is_refused(tmp_path, capsys):
    # a tol key or flag used to replace every bound of a check (and was
    # hashed into, then ignored by, the other subcommands)
    for command, payload in _MINIMAL_CONFIGS.items():
        cfg = write_config(tmp_path, f"{command}.json", {**payload, "tol": 1e-6})
        code, _, err = run_cli(capsys, command, "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2, command
        assert "'tol'" in json.loads(err)["error"]["message"], command
    # an unknown flag is a configuration error like the key, not argparse's usage exit
    for argv in (["check", "appendix", "--tol", "1e-30"], ["semigroup", "--tol", "1e-3"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "config"
        assert "--tol" in error["message"], argv


def test_check_unknown_suite_is_config_error(capsys):
    code, _, err = run_cli(capsys, "check", "no-such-suite")
    assert code == 2
    assert "no-such-suite" in json.loads(err)["error"]["message"]


def test_check_rejects_csv(capsys):
    code, _, _ = run_cli(capsys, "check", "appendix", "--format", "csv")
    assert code == 2


# ---------------------------------------------------------------------------
# simulate


def simulate_once(tmp_path, capsys, name, seed=2026, extra=None):
    cfg = {"kind": "gaussian", "k": [1.0], "t_grid": [0.0, 0.5, 1.0],
           "n_paths": 400, **(extra or {})}
    cfg_path = write_config(tmp_path, f"{name}.json", cfg)
    out = str(tmp_path / f"{name}.csv")
    code, stdout, _ = run_cli(capsys, "simulate", "--config", cfg_path,
                              "--out", out, "--seed", str(seed))
    return code, stdout, out


def test_simulate_outputs_and_reproducibility(tmp_path, capsys):
    code1, stdout1, csv1 = simulate_once(tmp_path, capsys, "a")
    assert code1 == 0
    summary = json.loads(stdout1)
    assert summary["meta"]["seed"] == 2026
    assert summary["n_paths"] == 400
    ks = summary["ks"]
    assert len(ks) == 1 and ks[0]["law"] == "rayleigh"
    assert ks[0]["p_value"] >= 0.01
    # identical seed, separate run: byte-identical paths file
    code2, _, csv2 = simulate_once(tmp_path, capsys, "b")
    assert code2 == 0
    assert open(csv1, "rb").read() == open(csv2, "rb").read()
    # different seed: different bytes
    code3, _, csv3 = simulate_once(tmp_path, capsys, "c", seed=1)
    assert code3 == 0
    assert open(csv1, "rb").read() != open(csv3, "rb").read()
    meta, header, rows = read_csv_table(csv1)
    assert header == "path_id,time,x1"
    assert meta["seed"] == "2026"
    assert len(rows) == 400 * 3


def test_simulate_thread_count_does_not_change_bytes(tmp_path, capsys, monkeypatch):
    # four CPUs, so the threads key starts a pool of three on any machine
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    code1, out1, csv1 = simulate_once(tmp_path, capsys, "threads3", extra={"threads": 3})
    code2, out2, csv2 = simulate_once(tmp_path, capsys, "threads1", extra={"threads": 1})
    assert code1 == code2 == 0
    assert [json.loads(out)["threads"] for out in (out1, out2)] == [3, 1]
    # the key enters the config hash in the '#' lines; the table is the same
    tables = [[row for row in open(p, "rb") if not row.startswith(b"#")] for p in (csv1, csv2)]
    assert tables[0] == tables[1]


def test_simulate_summary_reports_capped_threads(tmp_path, capsys, monkeypatch):
    # one CPU: the resolved count is 1, so no worker pool is started
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    code, stdout, _ = simulate_once(tmp_path, capsys, "cap", extra={"threads": 10**6})
    assert code == 0
    assert json.loads(stdout)["threads"] == 1


def test_simulate_rejects_cauchy_steps_beyond_the_supported_range(tmp_path, capsys):
    # exited 0: past dt = 1e4 the Cauchy time change can overflow to inf states
    code, _, out = simulate_once(tmp_path, capsys, "huge_step",
                                 extra={"kind": "cauchy", "t_grid": [0.0, 1e150]})
    assert code == 2
    assert not os.path.exists(out)


def test_simulate_requires_out_and_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", {
        "kind": "gaussian", "k": [1.0], "t_grid": [0.0, 1.0], "n_paths": 10})
    code, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--seed", "4")
    assert code == 2  # no --out
    out = str(tmp_path / "p.csv")
    code2, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", out)
    assert code2 == 2  # no seed
    code3, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", out,
                          "--seed", "4")
    assert code3 == 0


@pytest.mark.parametrize("n_blocks", [0, -1])
def test_simulate_rejects_nonpositive_block_count(tmp_path, capsys, n_blocks):
    code, _, out = simulate_once(tmp_path, capsys, "blocks", extra={"n_blocks": n_blocks})
    assert code == 2
    assert not os.path.exists(out)


def test_simulate_ks_times_must_be_on_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", {
        "kind": "gaussian", "k": [1.0], "t_grid": [0.0, 1.0], "n_paths": 10,
        "ks_times": [0.7]})
    code, _, _ = run_cli(capsys, "simulate", "--config", cfg,
                         "--out", str(tmp_path / "p.csv"), "--seed", "4")
    assert code == 2


@pytest.mark.parametrize("t_grid, t", [([0.0, 1e-9, 2e-9], 2e-9),
                                       ([0.0, 1.0, 1.000000001], 1.000000001)])
def test_simulate_ks_time_takes_the_nearest_grid_point(tmp_path, capsys, t_grid, t):
    # np.isclose's 1e-8 atol matches several points of these grids; the
    # first match used to win, so the first grid exited 2 (KS at t = 0)
    # and the second tested the radii at t = 1
    cfg = write_config(tmp_path, "sim.json", {
        "kind": "gaussian", "k": [1.0], "t_grid": t_grid, "n_paths": 50, "ks_times": [t]})
    code, stdout, _ = run_cli(capsys, "simulate", "--config", cfg,
                              "--out", str(tmp_path / "p.csv"), "--seed", "4")
    assert code == 0
    assert [row["time"] for row in json.loads(stdout)["ks"]] == [t]


def test_simulate_cauchy_ks(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", {
        "kind": "cauchy", "k": [0.5], "t_grid": [0.0, 0.6], "n_paths": 2000})
    code, stdout, _ = run_cli(capsys, "simulate", "--config", cfg,
                              "--out", str(tmp_path / "p.csv"), "--seed", "11")
    assert code == 0
    ks = json.loads(stdout)["ks"]
    assert ks[0]["law"] == "cauchy"
    assert ks[0]["p_value"] >= 0.01


# ---------------------------------------------------------------------------
# transform


def make_grid_csv(tmp_path, name="f.csv", extent=12.0, n=241):
    axes = (np.linspace(-extent, extent, n),)
    gf = GridFunction.sample(axes, lambda p: np.exp(-p[:, 0] ** 2))
    path = str(tmp_path / name)
    gf.to_csv(path)
    return path


def test_transform_roundtrip_through_files(tmp_path, capsys):
    src = make_grid_csv(tmp_path)
    fwd_cfg = write_config(tmp_path, "fwd.json", {"k": [1.0], "input": src})
    fwd_out = str(tmp_path / "fhat.csv")
    code, _, _ = run_cli(capsys, "transform", "--config", fwd_cfg, "--out", fwd_out)
    assert code == 0
    meta, header, _ = read_csv_table(fwd_out)
    assert header == "x1,value_re,value_im"
    assert meta["version"] == __version__
    inv_cfg = write_config(tmp_path, "inv.json", {
        "k": [1.0], "input": fwd_out, "inverse": True})
    inv_out = str(tmp_path / "back.csv")
    assert run_cli(capsys, "transform", "--config", inv_cfg, "--out", inv_out)[0] == 0
    back = GridFunction.from_csv(inv_out)
    orig = GridFunction.from_csv(src)
    assert np.max(np.abs(back.values.real - orig.values)) < 1e-5


def test_transform_refuses_a_non_numeric_cell(tmp_path, capsys):
    # float("abc") was a bare ValueError, exit 1
    src = tmp_path / "f.csv"
    src.write_text("x1,value\n0.0,1.0\nabc,2.0\n")
    cfg = write_config(tmp_path, "t.json", {"k": [1.0], "input": str(src)})
    code, _, err = run_cli(capsys, "transform", "--config", cfg, "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert "non-numeric" in json.loads(err)["error"]["message"]


def test_transform_csv_has_one_line_ending(tmp_path, capsys):
    # the '#' header lines ended in \n and the rows in the csv module's \r\n
    src = make_grid_csv(tmp_path, n=41, extent=6.0)
    cfg = write_config(tmp_path, "t.json", {"k": [1.0], "input": src, "inverse": False})
    out = tmp_path / "fhat.csv"
    assert run_cli(capsys, "transform", "--config", cfg, "--out", str(out))[0] == 0
    data = out.read_bytes()
    assert b"\r" not in data and b"# inverse: False\n" in data
    assert data.count(b"\n") == 41 + 1 + sum(line.startswith(b"#") for line in data.splitlines())
    assert b"\r" not in Path(src).read_bytes()


def test_transform_boundary_guard(tmp_path, capsys):
    # a function that does not decay at the grid edge is a numerical error
    axes = (np.linspace(-2.0, 2.0, 41),)
    gf = GridFunction.sample(axes, lambda p: np.exp(-p[:, 0] ** 2))
    src = str(tmp_path / "wide.csv")
    gf.to_csv(src)
    cfg = write_config(tmp_path, "t.json", {"k": [1.0], "input": src})
    code, _, err = run_cli(capsys, "transform", "--config", cfg,
                           "--out", str(tmp_path / "o.csv"))
    assert code == 3
    assert json.loads(err)["error"]["kind"] == "numerical"


def test_transform_requires_out(tmp_path, capsys):
    cfg = write_config(tmp_path, "t.json", {
        "k": [1.0], "input": make_grid_csv(tmp_path)})
    assert run_cli(capsys, "transform", "--config", cfg)[0] == 2


# ---------------------------------------------------------------------------
# convolve


def heat_measure_json(tmp_path, name, t):
    from dunklkit import KRadialMeasure, measure_to_json

    mu = KRadialMeasure.heat(MultiplicityVector(k=(1.0,)), t)
    path = tmp_path / name
    path.write_text(measure_to_json(mu.profile))
    return str(path)


def test_convolve_heat_measures(tmp_path, capsys):
    a = heat_measure_json(tmp_path, "a.json", 0.3)
    b = heat_measure_json(tmp_path, "b.json", 0.7)
    cfg = write_config(tmp_path, "c.json", {"inputs": [a, b]})
    out = str(tmp_path / "conv.json")
    code, _, _ = run_cli(capsys, "convolve", "--config", cfg, "--out", out)
    assert code == 0
    from dunklkit import measure_from_json
    from dunklkit.bessel_kingman import hankel_transform

    doc = open(out).read()
    prof = measure_from_json(doc)
    assert prof.lam == pytest.approx(0.5)  # k = (1,) means lam = 1/2
    r = np.array([0.4, 1.0, 2.0])
    np.testing.assert_allclose(hankel_transform(prof.lam, prof, r),
                               np.exp(-1.0 * r * r), atol=1e-9)
    assert json.loads(doc)["meta"]["version"] == __version__


@pytest.mark.parametrize("budget", [{"grid_n": 3}, {"grid_n": 1}, {"grid_n": 0},
                                    {"grid_n": -3}, {"atom_cap": 0}, {"atom_cap": -1}])
def test_convolve_budgets_are_config_errors(tmp_path, capsys, budget):
    # grid_n below the cubic stencil's 4 nodes crashed with exit 1; atom_cap
    # below 1 exited 0 with each input collapsed to one atom
    a = heat_measure_json(tmp_path, "a.json", 0.3)
    b = heat_measure_json(tmp_path, "b.json", 0.7)
    cfg = write_config(tmp_path, "c.json", {"inputs": [a, b], **budget})
    out = tmp_path / "conv.json"
    code, _, err = run_cli(capsys, "convolve", "--config", cfg, "--out", str(out))
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("atom_cap", [-5, "x"])
def test_convolve_checks_atom_cap_with_a_point_mass_input(tmp_path, capsys, atom_cap):
    # the point mass at 0 is the identity: the other input came back with exit 0
    from dunklkit import dirac, measure_to_json

    a = heat_measure_json(tmp_path, "a.json", 0.3)
    b = tmp_path / "b.json"
    b.write_text(measure_to_json(dirac(0.0, lam=0.5)))
    cfg = write_config(tmp_path, "c.json", {"inputs": [a, str(b)], "atom_cap": atom_cap})
    out = tmp_path / "conv.json"
    code, _, err = run_cli(capsys, "convolve", "--config", cfg, "--out", str(out))
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "config"
    assert not out.exists()


def test_convolve_needs_exactly_two_inputs(tmp_path, capsys):
    a = heat_measure_json(tmp_path, "a.json", 0.3)
    cfg = write_config(tmp_path, "c.json", {"inputs": [a]})
    assert run_cli(capsys, "convolve", "--config", cfg)[0] == 2


@pytest.mark.parametrize("command, payload", [
    ("simulate", {"kind": "gaussian", "k": [1.0], "t_grid": [0.0, 1.0], "n_paths": 10,
                  "seed": 1, "ks_times": "x"}),
    ("simulate", {"kind": "gaussian", "k": [1.0], "t_grid": [0.0, 1.0], "n_paths": 10,
                  "seed": 1, "ks_times": ["x"]}),
    ("simulate", {"kind": "gaussian", "k": [1.0], "t_grid": [0.0, 1.0], "n_paths": 10,
                  "seed": 1, "threads": 0}),
    ("semigroup", {"type": "gaussian", "k": [1.0], "params": {"n_profile": "a"}}),
    ("semigroup", {"type": "gaussian", "k": [1.0], "params": {"n_profile": 0}}),
    ("transform", {"k": [1.0], "inverse": "false"}),
    ("transform", {"k": [1.0], "inverse": 1}),
    ("semigroup", {"type": "cauchy", "k": [1.0], "params": {"freq_max": "a"}}),
    ("semigroup", {"type": "cauchy", "k": [1.0], "params": {"tail_tol": "x"}}),
    ("semigroup", {"type": "cauchy", "k": [1.0], "params": {"max_nodes": 2.5}}),
    ("semigroup", {"type": "cauchy", "k": [1.0], "params": {"r_min": -1}}),
    ("semigroup", {"type": "subordinated", "k": [1.0]}),
    ("simulate", {"kind": "subordinated", "k": [1.0], "t_grid": [0.0, 1.0], "n_paths": 10,
                  "seed": 1}),
    ("simulate", {"kind": "gaussian", "k": [1.0], "t_grid": [0.0, "a"], "n_paths": 10,
                  "seed": 1}),
], ids=["simulate-ks_times-str", "simulate-ks_times-entry", "simulate-threads-0",
        "semigroup-n_profile-str", "semigroup-n_profile-0", "transform-inverse-str",
        "transform-inverse-int", "semigroup-freq_max-str", "semigroup-tail_tol-str",
        "semigroup-max_nodes-fraction", "semigroup-r_min-negative", "semigroup-subordinated",
        "simulate-subordinated", "simulate-t_grid-str"])
def test_malformed_values_are_config_errors(tmp_path, capsys, command, payload):
    # the strings and n_profile 0 escaped as ValueError or TypeError (exit
    # code 1, a failed suite's code, and a traceback); threads 0 ran as one
    # worker, and "false" and 1 ran the inverse transform; the Cauchy
    # max_nodes 2.5 and r_min -1 ended in ResolutionError and ConsistencyError.
    # The semigroup's params key is gone, so its rows are now an unknown key;
    # "subordinated", once a second name of the Cauchy kind, is no kind
    if command == "transform":
        payload = {**payload, "input": make_grid_csv(tmp_path)}
    cfg = write_config(tmp_path, "bad.json", payload)
    code, _, err = run_cli(capsys, command, "--config", cfg, "--out", str(tmp_path / "o"))
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "config"


# ---------------------------------------------------------------------------
# semigroup


def test_semigroup_report(tmp_path, capsys):
    cfg = write_config(tmp_path, "sg.json", {"type": "gaussian", "k": [1.0, 0.5]})
    code, out, _ = run_cli(capsys, "semigroup", "--config", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["type"] == "gaussian"
    assert doc["closure_residual"] < doc["closure_tol"]


def test_semigroup_bad_type(tmp_path, capsys):
    cfg = write_config(tmp_path, "sg.json", {"type": "poisson", "k": [1.0]})
    assert run_cli(capsys, "semigroup", "--config", cfg)[0] == 2


def test_semigroup_params_are_an_unknown_key(tmp_path, capsys):
    # the profiles' resolution is fixed: a semigroup config takes type and k
    cfg = write_config(tmp_path, "sg.json", {"type": "cauchy", "k": [1.0], "params": {}})
    code, _, err = run_cli(capsys, "semigroup", "--config", cfg)
    assert code == 2
    assert "unknown semigroup config keys ['params']" in json.loads(err)["error"]["message"]


# ---------------------------------------------------------------------------
# packaging entry point


def run_entry_point(route, *args):
    """Run the CLI in a fresh interpreter that imports the tree under test.

    route "script" runs the body an installer writes into the launcher for
    the ``dunklkit`` entry of ``[project.scripts]`` in pyproject.toml;
    route "module" runs ``python -m dunklkit.cli``.  PYTHONPATH starts with
    the directory holding the imported package, so a stale installed copy
    cannot answer for it.
    """
    if route == "module":
        command = [sys.executable, "-m", "dunklkit.cli"]
    else:
        scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
        assert "dunklkit" in scripts, f"pyproject.toml declares no dunklkit script: {scripts}"
        module, _, attr = scripts["dunklkit"].partition(":")
        assert module and attr, f"script entry is not 'module:attr': {scripts['dunklkit']!r}"
        body = (f"import sys; from {module} import {attr}; "
                f"sys.argv[0] = 'dunklkit'; sys.exit({attr}())")
        command = [sys.executable, "-c", body]
    env = dict(os.environ)
    src = str(Path(dunklkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([*command, *args], capture_output=True, env=env)


def test_console_script_version():
    res = run_entry_point("script", "--version")
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout.decode() == f"dunklkit {__version__}\n"


def test_module_invocation_matches_console_script(tmp_path):
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"target": "kernel", "k": [0.5],
                               "x": [1.0], "y": [1.0]}))
    for args, want_code in [((), 2),  # argparse demands a command
                            (("--version",), 0),
                            (("eval", "--config", str(cfg)), 0)]:
        by_module = run_entry_point("module", *args)
        by_script = run_entry_point("script", *args)
        assert by_module.returncode == by_script.returncode == want_code, args
        assert by_module.stdout == by_script.stdout, args
        assert by_module.stdout or want_code, args  # compared bytes are not empty
