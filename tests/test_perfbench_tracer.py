"""The benchmark's tracer wraps package names from outside the package, so a
rename or a dropped parameter breaks traced runs without failing any package
test.  Tier-1 does not collect perfbench/tests; this test loads
perfbench/tracer.py (it never installs it) and checks that every name it
wraps still resolves and every parameter its counters bind by name is still
in the signature.  It also binds every dk.<name>(...) call of the benchmark's
scripts against today's signature, so a dropped or reordered parameter that
the benchmark passes fails here."""

import ast
import importlib
import importlib.util
import inspect
import sys
import types
from pathlib import Path

import pytest

import dunklkit

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


def unbound_calls(source: str, namespace) -> list[str]:
    """name (line) for every dk.name(...) or self.dk.name(...) call in source
    that does not bind to the signature of namespace.name by its positional
    count and keyword names; calls that unpack * or ** are not checked."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        if getattr(owner, "id", getattr(owner, "attr", None)) != "dk" or (
                any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        try:
            inspect.signature(getattr(namespace, node.func.attr)).bind(
                *node.args, **{k.arg: None for k in node.keywords})
        except (AttributeError, TypeError):
            out.append(f"{node.func.attr} (line {node.lineno})")
    return out


@pytest.mark.parametrize("script", sorted(TRACER.parent.glob("*.py")), ids=lambda p: p.name)
def test_benchmark_calls_bind_to_todays_signatures(script):
    assert unbound_calls(script.read_text(), dunklkit) == []


def test_call_binder_flags_what_no_longer_binds():
    namespace = types.SimpleNamespace(f=lambda a, b, c=1: None)
    source = ("dk.f(1, 2)\nself.dk.f(1, 2, 3, 4)\ndk.f(1, b=2, d=3)\ndk.g()\n"
              "other.f()\ndk.f(*xs)\nself.dk.f(1, c=2)\n")
    assert unbound_calls(source, namespace) == [
        "f (line 2)", "f (line 3)", "g (line 4)", "f (line 7)"]
