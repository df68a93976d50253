"""The per-call scripts under bench/ still run against the package: each one
imports, runs main() on a few calls and prints one JSON record."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.stem)
def test_bench_script_prints_one_record(path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "CALLS", 3)
    monkeypatch.setattr(sys, "argv", [path.name, "--label", "smoke"])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["label"] == "smoke"
    assert record["plans"]
