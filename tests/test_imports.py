"""No module-level import goes unused.

A standard-library stand-in for a linter's unused-import rule: every
module of the package and of the test suite is parsed with ``ast``, and
each name bound by a module-level ``import`` must be read somewhere in
that module or listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "dunklkit").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _module_imports(tree: ast.Module):
    """(bound name, line) for every import at module level, also inside a
    module-level if/try block."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return sorted(f"{name} (line {line})" for name, line in _module_imports(tree)
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_checker_flags_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nimport sys as system\nfrom json import dumps, loads\n"
                   "__all__ = ['loads']\nprint(system.argv)\n")
    assert unused_imports(src) == ["dumps (line 3)", "os (line 1)"]


# ---------------------------------------------------------------------------
# scipy's Bessel routines have one owner, special.py, and its Gauss roots
# one owner, quadrature.py

BESSEL_ROUTINES = {"iv", "ive", "jv", "kv", "kve"}
GAUSS_ROUTINES = {"roots_jacobi", "roots_legendre"}
PACKAGE = sorted((ROOT / "src" / "dunklkit").glob("*.py"))


def scipy_imports(path: Path, routines: set[str] = BESSEL_ROUTINES) -> list[str]:
    """The given scipy routines a module imports or reaches as an attribute,
    anywhere in the module (function-level imports included)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, scipy_names = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            scipy_names |= {a.asname or "scipy" for a in node.names
                            if a.name.split(".")[0] == "scipy"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            scipy_names |= {a.asname or a.name for a in node.names}
            found += [f"{a.name} (line {node.lineno})" for a in node.names
                      if a.name in routines]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in routines:
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in scipy_names:
                found.append(f"{node.attr} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "special.py"],
                         ids=lambda p: p.name)
def test_bessel_routines_only_in_special(path):
    assert scipy_imports(path) == []


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "quadrature.py"],
                         ids=lambda p: p.name)
def test_gauss_roots_only_in_quadrature(path):
    # every rule goes through the cached quadrature._gauss_roots
    assert scipy_imports(path, GAUSS_ROUTINES) == []


def test_bessel_checker_flags_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import scipy.special as sp\nfrom scipy.special import gammaln, ive\n"
                   "def f(u, self):\n    from scipy.special import jv\n"
                   "    return sp.kve(0, u) + self.kv.k\n")
    assert scipy_imports(src) == ["ive (line 2)", "jv (line 4)", "kve (line 5)"]
    assert scipy_imports(src, GAUSS_ROUTINES) == []
    src.write_text("import scipy\nfrom scipy.special import roots_jacobi\n"
                   "x = scipy.special.roots_legendre(4)\n")
    assert scipy_imports(src, GAUSS_ROUTINES) == ["roots_jacobi (line 2)",
                                                  "roots_legendre (line 3)"]


@pytest.mark.parametrize("module, name", [
    ("transform", "heat_kernel"), ("transform", "heat_kernel_spectral"),
    ("markov", "gaussian_kernel_hat"), ("markov", "composed_kernel_hat"),
])
def test_heat_functions_leave_the_axis_loop_to_the_core(module, name):
    # the per-axis product is core._axis_product's job
    tree = ast.parse((ROOT / "src" / "dunklkit" / f"{module}.py").read_text())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == name)
    assert not any(isinstance(node, ast.For) for node in ast.walk(fn))
    assert "_axis_product" in {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
