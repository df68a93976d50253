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

BESSEL_ROUTINES = {"iv", "ive", "j0", "j1", "jv", "kv", "kve"}
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


# ---------------------------------------------------------------------------
# bessel_j's large-argument branch steps integer and half-integer orders up
# with one recurrence loop, and scipy's jv is called at one site

LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def recurrence_breaches(path: Path) -> list[str]:
    """Loops in _bessel_large_real other than exactly one, and jv call
    sites in the module other than exactly one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    fn = next((node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_bessel_large_real"), None)
    if fn is None:
        return ["_bessel_large_real is missing"]
    found = []
    loops = [node.lineno for node in ast.walk(fn) if isinstance(node, LOOPS)]
    if len(loops) != 1:
        found.append(f"_bessel_large_real has {len(loops)} loops (lines {loops})")
    sites = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "jv" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    if len(sites) != 1:
        found.append(f"jv is called at {len(sites)} sites (lines {sites})")
    return found


def test_large_argument_branch_has_one_recurrence():
    assert recurrence_breaches(ROOT / "src" / "dunklkit" / "special.py") == []


def test_recurrence_checker_flags_a_second_loop(tmp_path):
    src = tmp_path / "special.py"
    one = ("from scipy.special import jv\n"
           "def _bessel_large_real(alpha, x):\n"
           "    nu = 0.5\n    while nu < alpha:\n        nu += 1.0\n"
           "    return jv(alpha, x)\n")
    src.write_text(one)
    assert recurrence_breaches(src) == []
    src.write_text(one.replace("    return", "    for n in range(3):\n        nu += n\n    return"))
    assert recurrence_breaches(src) == ["_bessel_large_real has 2 loops (lines [4, 6])"]
    src.write_text(one + "def other(x):\n    return sum(jv(n, x) for n in range(3))\n")
    assert recurrence_breaches(src) == ["jv is called at 2 sites (lines [6, 8])"]
    src.write_text("def _bessel_large_real(alpha, x):\n    return x\n")
    assert recurrence_breaches(src) == ["_bessel_large_real has 0 loops (lines [])",
                                        "jv is called at 0 sites (lines [])"]


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


# ---------------------------------------------------------------------------
# the convolution engine exists once: measures._grid_measure is the one
# deposit step, LineMeasure._from_node_masses the one masses/density division,
# and bessel_kingman._point_nodes / _pair_nodes the node builders

NODE_MEASURE = "LineMeasure._from_node_masses"


def _scoped_nodes(tree: ast.Module):
    """(dotted name of the enclosing def/class or '', node) for every node."""
    stack = [("", tree)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def _is_divide_errstate(item: ast.withitem) -> bool:
    call = item.context_expr
    return (isinstance(call, ast.Call)
            and getattr(call.func, "attr", getattr(call.func, "id", None)) == "errstate"
            and any(kw.arg == "divide" for kw in call.keywords))


def _divides_into_weights(body) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign) and any(
                    "weight" in t.id for t in node.targets if isinstance(t, ast.Name)) and any(
                    isinstance(op, ast.BinOp) and isinstance(op.op, ast.Div)
                    for op in ast.walk(node.value)):
                return True
    return False


def engine_duplicates(paths) -> list[str]:
    """Breaches of the one-engine layout over the given modules: more than
    one function calling deposit_on_grid, any use of the retired name
    convolve_points_nodes, and errstate(divide=...) weight divisions
    outside the node-measure constructor."""
    found, depositors = [], set()
    for path in paths:
        for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.stem}:{scope or '<module>'}"
            if isinstance(node, ast.Call) and "deposit_on_grid" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                depositors.add(where)
            names = {getattr(node, a, None) for a in ("id", "attr", "name", "asname")}
            if "convolve_points_nodes" in names:
                found.append(f"convolve_points_nodes ({where}, line {node.lineno})")
            if (isinstance(node, ast.With) and scope != NODE_MEASURE
                    and any(map(_is_divide_errstate, node.items))
                    and _divides_into_weights(node.body)):
                found.append(f"errstate weight division ({where}, line {node.lineno})")
    if len(depositors) > 1:
        found += [f"deposit_on_grid called from {d}" for d in sorted(depositors)]
    return sorted(found)


def test_convolution_engine_exists_once():
    assert engine_duplicates(PACKAGE) == []


def test_engine_checker_flags_each_duplicate(tmp_path):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text("from .measures import deposit_on_grid\n"
                   "def f(p, m, g):\n    return deposit_on_grid(p, m, g)\n")
    two.write_text("from . import measures\n"
                   "def g(p, m, g):\n    return measures.deposit_on_grid(p, m, g)\n")
    assert engine_duplicates([one]) == []
    assert engine_duplicates([one, two]) == ["deposit_on_grid called from one:f",
                                             "deposit_on_grid called from two:g"]
    two.write_text("from .bessel_kingman import convolve_points_nodes as nodes\n"
                   "class A:\n    def convolve_points_nodes(self):\n        pass\n")
    assert engine_duplicates([two]) == [
        "convolve_points_nodes (two:<module>, line 1)",
        "convolve_points_nodes (two:A, line 3)"]
    src = ("import numpy as np\n"
           "class LineMeasure:\n    def {name}(m, d):\n"
           "        with np.errstate(divide='ignore'):\n"
           "            weights = m / d\n        return weights\n")
    two.write_text(src.format(name="_from_node_masses"))
    assert engine_duplicates([two]) == []
    two.write_text(src.format(name="rayleigh") + "def sigma(u, v):\n"
                   "    with np.errstate(divide='ignore'):\n        return u / v\n")
    assert engine_duplicates([two]) == ["errstate weight division (two:LineMeasure.rayleigh, line 4)"]


# ---------------------------------------------------------------------------
# the spectral spherical mean is built per axis, once: the public mean and
# the verification batteries both take transform._spectral_mean_weights and
# neither evaluates the kernel on the whole frequency tensor grid

SPECTRAL_ROUTE = {"transform.py": "spherical_mean_spectral", "verify.py": "_battery_means"}


def spectral_route_breaches(sources: dict[Path, str]) -> list[str]:
    """For each (module, function): a missing _spectral_mean_weights call or
    a dunkl_kernel_unitary call inside the function."""
    found = []
    for path, name in sources.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        fn = next((node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == name), None)
        if fn is None:
            found.append(f"{path.stem}.{name} is missing")
            continue
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(fn) if isinstance(node, ast.Call)}
        if "_spectral_mean_weights" not in called:
            found.append(f"{path.stem}.{name} does not call _spectral_mean_weights")
        if "dunkl_kernel_unitary" in called:
            found.append(f"{path.stem}.{name} calls dunkl_kernel_unitary")
    return found


def test_spectral_mean_has_one_per_axis_route():
    assert spectral_route_breaches({ROOT / "src" / "dunklkit" / module: name
                                    for module, name in SPECTRAL_ROUTE.items()}) == []


def test_spectral_route_checker_flags_a_full_tensor_mean(tmp_path):
    good, bad = tmp_path / "good.py", tmp_path / "bad.py"
    good.write_text("from .transform import _spectral_mean_weights\n"
                    "def mean(kv, plan, fhat, x, t):\n"
                    "    return (_spectral_mean_weights(kv, plan, x, t) * fhat).sum()\n")
    bad.write_text("from . import core\n"
                   "def mean(kv, plan, fhat, x, t):\n"
                   "    return (core.dunkl_kernel_unitary(kv, x, plan.freq_grid()) * fhat).sum()\n")
    assert spectral_route_breaches({good: "mean"}) == []
    assert spectral_route_breaches({bad: "mean", good: "other"}) == [
        "bad.mean does not call _spectral_mean_weights",
        "bad.mean calls dunkl_kernel_unitary",
        "good.other is missing"]


# ---------------------------------------------------------------------------
# the pair pipelines take their blocks from measures._row_blocks, the one
# owner of the block size; no ad-hoc chunk size is left in the package

BLOCKED = {"transform.py": "radial_translate", "bessel_kingman.py": "_pair_nodes"}
OLD_CHUNKS = {2**22, 2e6}


def block_breaches(blocked: dict[Path, str], paths) -> list[str]:
    """For each (module, function): a missing _row_blocks call; over the
    given modules: every 2**22 or 2e6 chunk literal."""
    found = []
    for path, name in blocked.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        fn = next((node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == name), None)
        called = set() if fn is None else {
            getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(fn) if isinstance(node, ast.Call)}
        if "_row_blocks" not in called:
            found.append(f"{path.stem}.{name} does not take its blocks from _row_blocks")
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            literal = None
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant)
                    and (node.left.value, node.right.value) == (2, 22)):
                literal = "2**22"
            elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                  and node.value in OLD_CHUNKS):
                literal = repr(node.value)
            if literal:
                found.append(f"chunk literal {literal} ({path.stem}, line {node.lineno})")
    return found


def test_pair_pipelines_share_one_block_generator():
    assert block_breaches({ROOT / "src" / "dunklkit" / module: name
                           for module, name in BLOCKED.items()}, PACKAGE) == []


def test_block_checker_flags_ad_hoc_chunks(tmp_path):
    good, bad = tmp_path / "good.py", tmp_path / "bad.py"
    good.write_text("from .measures import _row_blocks\n"
                    "def translate(y, pts):\n"
                    "    for rows in _row_blocks(len(y), len(pts)):\n        pass\n")
    bad.write_text("def translate(y, pts):\n"
                   "    chunk = max(1, int(2**22 // len(pts)))\n"
                   "    for lo in range(0, len(y), chunk):\n        pass\n"
                   "def pairs(a, b):\n    return max(1, int(2e6) // len(b))\n")
    assert block_breaches({good: "translate"}, [good]) == []
    assert block_breaches({bad: "translate", good: "pairs"}, [bad, good]) == [
        "bad.translate does not take its blocks from _row_blocks",
        "good.pairs does not take its blocks from _row_blocks",
        "chunk literal 2**22 (bad, line 2)",
        "chunk literal 2000000.0 (bad, line 6)"]
