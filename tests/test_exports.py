"""Every exported name resolves, so deletions cannot leave stale exports."""

import importlib
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
