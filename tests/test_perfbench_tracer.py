"""The benchmark's tracer wraps package names from outside the package, so a
rename or a dropped parameter breaks traced runs without failing any package
test.  Tier-1 does not collect perfbench/tests; this test loads
perfbench/tracer.py (it never installs it) and checks that every name it
wraps still resolves and every parameter its counters bind by name is still
in the signature."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# (module, function) -> parameters a tracer counter reads by name, or the
# benchmark passes by keyword
BOUND = {
    ("special", "bessel_j"): {"alpha", "z"},
    ("transform", "radial_translate"): {"y"},
    ("transform", "spherical_mean_spectral"): {"plan"},
    ("bessel_kingman", "convolve_measures"): {"sigma", "tau", "atom_cap", "points_per_pair"},
    ("measures", "deposit_on_grid"): {"positions", "grid"},
    ("bessel_kingman", "hankel_transform"): {"mu", "r"},
    ("measures", "measure_from_json"): {"text"},
    ("markov", "simulate_paths"): {"threads"},
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _functions(tracer):
    for entries in tracer.FUNCTIONS.values():
        for mod, attr, _ in entries if isinstance(entries, list) else [entries]:
            yield mod, attr


def test_every_traced_name_resolves(tracer):
    missing = [f"{mod}.{attr}" for mod, attr in _functions(tracer)
               if not callable(getattr(importlib.import_module(f"dunklkit.{mod}"), attr, None))]
    missing += [f"{mod}.{cls}.{meth}" for mod, cls, meth, _ in tracer.METHODS.values()
                if meth not in vars(getattr(importlib.import_module(f"dunklkit.{mod}"), cls, object))]
    assert missing == []


def test_parameters_the_tracer_binds_by_name_are_in_the_signatures(tracer):
    assert set(BOUND) <= set(_functions(tracer))
    lost = sorted(f"{mod}.{fn}({name})" for (mod, fn), names in BOUND.items()
                  for name in names - set(inspect.signature(
                      getattr(importlib.import_module(f"dunklkit.{mod}"), fn)).parameters))
    assert lost == []
