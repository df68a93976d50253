"""Every exported name resolves, so deletions cannot leave stale exports, and
no public signature hides its parameters behind *args or **kwargs."""

import importlib
import inspect
import pkgutil

import pytest

import dunklkit

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(dunklkit.__path__))


def test_package_exports_resolve_without_duplicates():
    assert len(dunklkit.__all__) == len(set(dunklkit.__all__))
    missing = [name for name in dunklkit.__all__ if not hasattr(dunklkit, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"dunklkit.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def _public_callables():
    """(name, callable) for every exported function and every public method
    or classmethod that a package class defines, through its bases."""
    for name in dunklkit.__all__:
        obj = getattr(dunklkit, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for cls in obj.__mro__:
                if not cls.__module__.startswith("dunklkit"):
                    continue
                for attr, val in vars(cls).items():
                    fn = val.__func__ if isinstance(val, (classmethod, staticmethod)) else val
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield f"{name}.{attr}", fn


def test_public_api_takes_no_star_arguments():
    # every settable value is named in a signature, so a sweep of the API
    # can list them from the signatures alone
    star = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    offenders = sorted({name for name, fn in _public_callables()
                        if any(p.kind in star for p in inspect.signature(fn).parameters.values())})
    assert offenders == []


def _signatures():
    """(name, signature) of every public callable and class constructor."""
    for name, fn in _public_callables():
        yield name, inspect.signature(fn)
    for name in dunklkit.__all__:
        obj = getattr(dunklkit, name)
        if inspect.isclass(obj) and not issubclass(obj, BaseException):
            yield name, inspect.signature(obj)


def test_no_public_callable_takes_kv_beside_a_measure():
    # a KRadialMeasure carries its multiplicity: a kv next to it is a second
    # source, and a mismatched one gave a silently wrong number
    offenders = sorted(name for name, sig in _signatures() if "kv" in sig.parameters and any(
        p.annotation in (dunklkit.KRadialMeasure, "KRadialMeasure")
        for p in sig.parameters.values()))
    assert offenders == []
