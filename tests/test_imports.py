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
    """The names __all__ lists; one derived from globals() lists every public
    import."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                return {elt.value for elt in node.value.elts}
            if any(isinstance(n, ast.Name) and n.id == "globals" for n in ast.walk(node.value)):
                return {name for name, _ in _module_imports(tree) if not name.startswith("_")}
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
    # an __all__ derived from globals() exports the public imports, not the private ones
    src.write_text("from json import dumps as _dumps, loads\nfrom types import ModuleType\n"
                   "__all__ = [n for n, v in globals().items() if not isinstance(v, ModuleType)]\n")
    assert unused_imports(src) == ["_dumps (line 1)"]


# ---------------------------------------------------------------------------
# scipy's Bessel routines have one owner, special.py, and its Gauss roots
# one owner, quadrature.py

BESSEL_ROUTINES = {"i0e", "i1e", "iv", "ive", "j0", "j1", "jv", "kv", "kve"}
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
# orjson has one importer, measures.py: its float text differs from float
# repr's in notation, and one helper there, _float_tokens, fixes that in the
# bytes, for the JSON arrays of measure_to_json (_float_array_json) and the
# CSV rows of every table writer (_csv_block)

SCRIPTS = MODULES + sorted((ROOT / "bench").glob("*.py"))


def orjson_imports(path: Path) -> list[str]:
    """Imports of orjson anywhere in the module, function-level ones included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] == "orjson"]
    return found


@pytest.mark.parametrize("path", [p for p in SCRIPTS if p.name != "measures.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_orjson_only_in_measures(path):
    assert orjson_imports(path) == []


def test_orjson_checker_flags_imports(tmp_path):
    assert orjson_imports(ROOT / "src" / "dunklkit" / "measures.py")
    src = tmp_path / "mod.py"
    src.write_text("import json\nimport orjson as oj\n"
                   "def f(a):\n    from orjson import dumps, OPT_SERIALIZE_NUMPY\n"
                   "    return dumps(a, option=OPT_SERIALIZE_NUMPY)\n")
    assert orjson_imports(src) == ["orjson (line 2)", "orjson (line 4)"]
    src.write_text("import json\nfrom .measures import measure_to_json\n")
    assert orjson_imports(src) == []


def float_text_breaches(path: Path) -> list[str]:
    """Uses of repr or any __repr__ in the module, called or passed (as to
    map), and each of _float_array_json and _csv_block that does not call
    _float_tokens."""
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = [(node.lineno, name) for node in ast.walk(tree)
            for name in [getattr(node, "id", getattr(node, "attr", None))]
            if isinstance(node, (ast.Name, ast.Attribute)) and name in ("repr", "__repr__")]
    found = [f"{name} (line {line})" for line, name in sorted(uses)]
    for name in ("_float_array_json", "_csv_block"):
        fn = next((node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == name), None)
        if fn is None or not any(isinstance(node, ast.Call)
                                 and getattr(node.func, "id", None) == "_float_tokens"
                                 for node in ast.walk(fn)):
            found.append(f"{name} does not reach _float_tokens")
    return found


def test_float_text_has_one_writer():
    assert float_text_breaches(ROOT / "src" / "dunklkit" / "measures.py") == []


def test_float_text_checker_flags_second_formatting(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def _float_array_json(a):\n    return _float_tokens(a).decode()\n"
                   "def _csv_block(t, ids):\n    return ','.join(map(float.__repr__, t))\n"
                   "def other(v):\n    return repr(v)\n")
    assert float_text_breaches(src) == ["__repr__ (line 4)", "repr (line 6)",
                                        "_csv_block does not reach _float_tokens"]


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
    ("transform", "chapman_kolmogorov_defect"),
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
    one function calling deposit_on_grid, any caller of the moment
    accumulator _add_moments outside measures, any use of the retired name
    convolve_points_nodes, and errstate(divide=...) weight divisions
    outside the node-measure constructor."""
    found, depositors = [], set()
    for path in paths:
        for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.stem}:{scope or '<module>'}"
            called = isinstance(node, ast.Call) and {
                getattr(node.func, "id", None), getattr(node.func, "attr", None)}
            if called and "deposit_on_grid" in called:
                depositors.add(where)
            if called and "_add_moments" in called and path.stem != "measures":
                found.append(f"_add_moments called from {where}")
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
    # the moment accumulator belongs to measures' deposit and grid measure
    home = tmp_path / "measures.py"
    home.write_text("def deposit_on_grid(p, m, g):\n    _add_moments(0, p, m, g)\n"
                    "def _grid_measure(p, m, g):\n    _add_moments(0, p, m, g)\n")
    two.write_text("from . import measures\n"
                   "def g(p, m, g):\n    measures._add_moments(0, p, m, g)\n")
    assert engine_duplicates([home]) == []
    assert engine_duplicates([home, two]) == ["_add_moments called from two:g"]
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


# convolve_measures takes every pair's nodes from _pair_nodes, at whatever
# node count its tier sets: no rule, root or node formula of its own; and
# _point_nodes reads its nodes off _pair_nodes, reversed, with no z(u)
# formula or sort of its own (its angle nodes u come from _angle_rule, and
# _gauss_roots has its own guard)

NODE_BUILDERS = {"_angle_rule", "_gauss_roots", "_point_nodes"}
POINT_NODE_BUILDERS = {"argsort", "sort"}


def node_builder_breaches(path: Path, name: str = "convolve_measures",
                          builders=NODE_BUILDERS) -> list[str]:
    """Calls of the builders and numpy square roots reached from the named
    function, in its body or a module-level function it calls (not through
    _pair_nodes, the one builder it may call); and no _pair_nodes call."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    if name not in defs:
        return [f"{path.stem}.{name} is missing"]
    found, seen, todo, reached = [], set(), [name], False
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(defs[fn]):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            owner = getattr(getattr(node.func, "value", None), "id", None)
            if callee in builders or (callee == "sqrt" and owner in ("np", "numpy")):
                found.append(f"{fn} calls {callee} (line {node.lineno})")
            elif callee == "_pair_nodes":
                reached = True
            elif callee in defs:
                todo.append(callee)
    if not reached:
        found.append(f"{name} does not reach _pair_nodes")
    return sorted(found)


def test_convolution_takes_its_nodes_from_pair_nodes():
    assert node_builder_breaches(ROOT / "src" / "dunklkit" / "bessel_kingman.py") == []


def test_point_nodes_take_their_nodes_from_pair_nodes():
    assert node_builder_breaches(ROOT / "src" / "dunklkit" / "bessel_kingman.py",
                                 "_point_nodes", POINT_NODE_BUILDERS) == []


def test_node_builder_checker_flags_a_second_builder(tmp_path):
    src = tmp_path / "bessel_kingman.py"
    good = ("import numpy as np\n"
            "def _pair_nodes(lam, ax, bx, n):\n"
            "    u, w = _angle_rule(lam, n)\n    return np.sqrt(ax * bx * u), w\n"
            "def _tiers(ax, bx):\n    yield ax, bx, 8\n"
            "def convolve_measures(lam, ax, bx):\n"
            "    for a, b, n in _tiers(ax, bx):\n        yield _pair_nodes(lam, a, b, n)\n")
    src.write_text(good)
    assert node_builder_breaches(src) == []
    src.write_text(good.replace("yield ax, bx, 8", "yield ax, bx, _gauss_roots('jacobi', 8)"))
    assert node_builder_breaches(src) == ["_tiers calls _gauss_roots (line 6)"]
    src.write_text(good.replace("yield _pair_nodes(lam, a, b, n)",
                                "u, w = bessel_kingman._angle_rule(lam, n)\n"
                                "        yield np.sqrt(a * a + b * b - 2 * a * b * u), w"))
    assert node_builder_breaches(src) == ["convolve_measures calls _angle_rule (line 9)",
                                          "convolve_measures calls sqrt (line 10)",
                                          "convolve_measures does not reach _pair_nodes"]
    src.write_text(good.replace("convolve_measures", "convolve"))
    assert node_builder_breaches(src) == ["bessel_kingman.convolve_measures is missing"]
    # _point_nodes may take its angle nodes from _angle_rule, but not sort its own z(u)
    point = ("import numpy as np\n"
             "def _point_nodes(lam, x, y, n):\n"
             "    (_, z, w), = _pair_nodes(lam, np.array([x]), np.array([y]), n)\n"
             "    return z[0, ::-1], w[::-1], _angle_rule(lam, n)[0][::-1]\n")
    src.write_text(point)
    assert node_builder_breaches(src, "_point_nodes", POINT_NODE_BUILDERS) == []
    src.write_text("import numpy as np\n"
                   "def _point_nodes(lam, x, y, n):\n    u, w = _angle_rule(lam, n)\n"
                   "    z = np.sqrt(x * x + y * y - 2.0 * x * y * u)\n"
                   "    order = np.argsort(z)\n    return z[order], w[order], u[order]\n")
    assert node_builder_breaches(src, "_point_nodes", POINT_NODE_BUILDERS) == [
        "_point_nodes calls argsort (line 5)", "_point_nodes calls sqrt (line 4)",
        "_point_nodes does not reach _pair_nodes"]


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
                    "    return (_spectral_mean_weights(plan, x, t) * fhat).sum()\n")
    bad.write_text("from . import core\n"
                   "def mean(kv, plan, fhat, x, t):\n"
                   "    return (core.dunkl_kernel_unitary(kv, x, plan.freq_grid()) * fhat).sum()\n")
    assert spectral_route_breaches({good: "mean"}) == []
    assert spectral_route_breaches({bad: "mean", good: "other"}) == [
        "bad.mean does not call _spectral_mean_weights",
        "bad.mean calls dunkl_kernel_unitary",
        "good.other is missing"]


# ---------------------------------------------------------------------------
# the radial spherical mean is the Bessel-Kingman point convolution of |x|
# and t: it takes its nodes from bessel_kingman._pair_nodes, translates
# nothing and builds no sphere, atom grid or rule of its own, neither
# itself nor through a helper of its module

TRANSLATION_ROUTE = {"radial_translate", "SphereQuadrature", "intertwiner_atoms"}
OWN_RULES = {"_angle_rule", "_orthant_rule", "_tensor_grid", "_gauss_roots"}


def radial_mean_breaches(path: Path, name: str = "spherical_mean_radial") -> list[str]:
    """Calls of the translation route or of a rule builder reached from the
    named function, in its body or in a module-level function it calls,
    directly or not; and no _pair_nodes call on that path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    if name not in defs:
        return [f"{path.stem}.{name} is missing"]
    found, seen, todo = [], set(), [name]
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(defs[fn]):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee in TRANSLATION_ROUTE | OWN_RULES:
                    found.append(f"{fn} calls {callee} (line {node.lineno})")
                elif callee in defs:
                    todo.append(callee)
    calls = {getattr(node.func, "id", getattr(node.func, "attr", None))
             for fn in seen for node in ast.walk(defs[fn]) if isinstance(node, ast.Call)}
    if "_pair_nodes" not in calls:
        found.append(f"{name} does not reach _pair_nodes")
    return sorted(found)


def test_radial_mean_leaves_the_translation_route():
    assert radial_mean_breaches(ROOT / "src" / "dunklkit" / "transform.py") == []


def test_radial_mean_checker_flags_a_reintroduced_call(tmp_path):
    src = tmp_path / "transform.py"
    good = ("def _nodes(lam, t, rx, n):\n    return _pair_nodes(lam, t, rx, n)\n"
            "def spherical_mean_radial(kv, f0, x, t):\n    return f0(_nodes(kv.lam, t, x, 8))\n")
    src.write_text(good)
    assert radial_mean_breaches(src) == []
    src.write_text(good.replace("return _pair_nodes", "return intertwiner_atoms"))
    assert radial_mean_breaches(src) == ["_nodes calls intertwiner_atoms (line 2)",
                                         "spherical_mean_radial does not reach _pair_nodes"]
    src.write_text(good.replace("return f0(", "u, w = bessel_kingman._angle_rule(kv.lam, 8)\n"
                                "    return f0("))
    assert radial_mean_breaches(src) == ["spherical_mean_radial calls _angle_rule (line 4)"]
    src.write_text("from . import harmonics\n"
                   "def spherical_mean_radial(kv, f0, x, t):\n"
                   "    rule = harmonics.SphereQuadrature(kv)\n"
                   "    return radial_translate(kv, f0, x, t * rule.points)\n")
    assert radial_mean_breaches(src) == ["spherical_mean_radial calls SphereQuadrature (line 3)",
                                         "spherical_mean_radial calls radial_translate (line 4)",
                                         "spherical_mean_radial does not reach _pair_nodes"]
    src.write_text(good.replace("spherical_mean_radial", "mean"))
    assert radial_mean_breaches(src) == ["transform.spherical_mean_radial is missing"]


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


# ---------------------------------------------------------------------------
# one Gegenbauer angle rule: the Gauss roots are taken by the two public rule
# builders and by bessel_kingman._angle_rule, which the intertwiner and the
# point convolution (the radial mean among its callers) share; the orbit integral
# is one generalized translation

ROOT_CALLERS = {"quadrature:gauss_legendre", "quadrature:gauss_jacobi",
                "bessel_kingman:_angle_rule"}


def angle_rule_breaches(paths, orbit: Path) -> list[str]:
    """_gauss_roots calls outside ROOT_CALLERS over the given modules, and an
    orbit_integral in the orbit module that does not call radial_translate."""
    found = []
    for path in paths:
        for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.stem}:{scope or '<module>'}"
            if (isinstance(node, ast.Call) and where not in ROOT_CALLERS and "_gauss_roots" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                found.append(f"_gauss_roots called from {where} (line {node.lineno})")
    tree = ast.parse(orbit.read_text(), filename=str(orbit))
    fn = next((node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "orbit_integral"), None)
    called = set() if fn is None else {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(fn) if isinstance(node, ast.Call)}
    if "radial_translate" not in called:
        found.append(f"{orbit.stem}.orbit_integral does not call radial_translate")
    return sorted(found)


def test_gauss_roots_feed_one_angle_rule():
    assert angle_rule_breaches(PACKAGE, ROOT / "src" / "dunklkit" / "harmonics.py") == []


def test_angle_rule_checker_flags_a_reintroduced_rule(tmp_path):
    rank_one, harmonics = tmp_path / "rank_one.py", tmp_path / "harmonics.py"
    rank_one.write_text("from . import quadrature\n"
                        "def intertwiner_measure(k, x, n):\n"
                        "    return quadrature._gauss_roots('jacobi', n, k - 1.0, k)\n")
    harmonics.write_text("from .transform import radial_translate\n"
                         "def orbit_integral(kv, x, z, r):\n"
                         "    return radial_translate(kv, lambda s: s, z, x)\n")
    assert angle_rule_breaches([harmonics], harmonics) == []
    assert angle_rule_breaches([rank_one, harmonics], harmonics) == [
        "_gauss_roots called from rank_one:intertwiner_measure (line 3)"]
    harmonics.write_text("def orbit_integral(kv, x, z, r):\n"
                         "    pts, masses = intertwiner_atoms(kv, z)\n    return masses.sum()\n")
    assert angle_rule_breaches([harmonics], harmonics) == [
        "harmonics.orbit_integral does not call radial_translate"]


# ---------------------------------------------------------------------------
# a measure is integrated through one (positions, masses) view,
# measures.as_weighted_atoms: only measures.py reads a measure's density,
# and the mixture callables, the values-based integral and the sentinel cap
# that bypassed the view stay gone

SENTINEL_CAP = 10**6   # a literal cap this large never bins: use no cap


def _literal_number(node):
    """The value of a numeric literal or a literal power such as 10**9, else None."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and None not in (_literal_number(node.left), _literal_number(node.right))):
        return _literal_number(node.left) ** _literal_number(node.right)
    return None


def weighted_atoms_breaches(paths) -> list[str]:
    """Over the given modules: reads of .density outside measures.py, any
    density_fn, an integrate_values method other than SphereQuadrature's,
    and literal cap= arguments of SENTINEL_CAP or more."""
    found = []
    for path in paths:
        for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.stem}:{scope or '<module>'}, line {getattr(node, 'lineno', '?')}"
            if (isinstance(node, ast.Attribute) and node.attr == "density"
                    and isinstance(node.ctx, ast.Load) and path.name != "measures.py"):
                found.append(f".density read ({where})")
            names = {getattr(node, a, None) for a in ("id", "attr", "name", "arg")}
            if "density_fn" in names:
                found.append(f"density_fn ({where})")
            if (isinstance(node, ast.FunctionDef) and node.name == "integrate_values"
                    and scope != "SphereQuadrature"):
                found.append(f"integrate_values defined ({where})")
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    cap = _literal_number(kw.value) if kw.arg == "cap" else None
                    if cap is not None and cap >= SENTINEL_CAP:
                        found.append(f"sentinel cap={cap} ({where})")
    return sorted(found)


def test_measures_have_one_weighted_atoms_view():
    assert weighted_atoms_breaches(PACKAGE) == []


def test_weighted_atoms_checker_flags_each_breach(tmp_path):
    measures, other = tmp_path / "measures.py", tmp_path / "other.py"
    measures.write_text("class LineMeasure:\n    def mass(self):\n"
                        "        return (self.weights * self.density).sum()\n")
    other.write_text("class SphereQuadrature:\n    def integrate_values(self, v):\n"
                     "        return v.sum()\n"
                     "def f(mu, rule):\n    return as_weighted_atoms(mu, cap=1024)\n")
    assert weighted_atoms_breaches([measures, other]) == []
    measures.write_text("class LineMeasure:\n    density_fn = None\n"
                        "    def integrate_values(self, v):\n        return v.sum()\n")
    other.write_text("def mix(mu, s):\n    d = mu.density\n"
                     "    pos, mass = as_weighted_atoms(s, cap=10**9)\n"
                     "    mu.density = d\n    return sub(s, density_fn=d, cap=1e7)\n")
    assert weighted_atoms_breaches([measures, other]) == [
        ".density read (other:mix, line 2)",
        "density_fn (measures:LineMeasure, line 2)",
        "density_fn (other:mix, line 5)",
        "integrate_values defined (measures:LineMeasure, line 3)",
        "sentinel cap=10000000.0 (other:mix, line 5)",
        "sentinel cap=1000000000 (other:mix, line 3)"]


# ---------------------------------------------------------------------------
# the transform plan runs on real parity halves: TransformPlan.forward and
# inverse both call transform._parity_contract, and the dense complex
# contraction _contract_axes serves dunkl_transform_grid alone, whose file
# axes need not be mirror-symmetric

PARITY_ROUTE = ("TransformPlan.forward", "TransformPlan.inverse")
DENSE_CALLERS = {"transform:dunkl_transform_grid"}


def transform_route_breaches(paths, plan_module: Path) -> list[str]:
    """_contract_axes calls outside DENSE_CALLERS over the given modules, and
    each PARITY_ROUTE method of the plan module that misses _parity_contract."""
    found, plan_calls = [], {}
    for path in paths:
        for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            where = f"{path.stem}:{scope or '<module>'}"
            if callee == "_contract_axes" and where not in DENSE_CALLERS:
                found.append(f"_contract_axes called from {where} (line {node.lineno})")
            if path == plan_module:
                plan_calls.setdefault(scope, set()).add(callee)
    found += [f"{name} does not call _parity_contract" for name in PARITY_ROUTE
              if "_parity_contract" not in plan_calls.get(name, set())]
    return sorted(found)


def test_transform_plan_takes_the_parity_route():
    transform = ROOT / "src" / "dunklkit" / "transform.py"
    assert transform_route_breaches(PACKAGE, transform) == []


def test_transform_route_checker_flags_a_dense_plan(tmp_path):
    transform, other = tmp_path / "transform.py", tmp_path / "other.py"
    good = ("class TransformPlan:\n"
            "    def forward(self, v):\n        return _parity_contract(v, self._forward, -1.0)\n"
            "    def inverse(self, v):\n        return _parity_contract(v, self._inverse, 1.0)\n"
            "def dunkl_transform_grid(kv, gf):\n    return _contract_axes(gf.values, [])\n")
    transform.write_text(good)
    other.write_text("from .transform import _contract_axes\n")
    assert transform_route_breaches([transform, other], transform) == []
    transform.write_text(good.replace("_parity_contract(v, self._forward, -1.0)",
                                      "_contract_axes(v, self.kernels)"))
    other.write_text("from . import transform\n"
                     "def mean(v, f):\n    return transform._contract_axes(v, f)\n")
    assert transform_route_breaches([transform, other], transform) == [
        "TransformPlan.forward does not call _parity_contract",
        "_contract_axes called from other:mean (line 3)",
        "_contract_axes called from transform:TransformPlan.forward (line 3)"]


# ---------------------------------------------------------------------------
# no private helper outlives its last caller: every module-level def _name in
# the package is read somewhere in the package outside its own body


def dead_helpers(paths) -> list[str]:
    """module.name for every module-level private def of the given modules
    that no Name or Attribute reads outside its own definition and outside
    the other dead helpers (so a chain of orphans is flagged whole)."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    reads = set()   # (name, module, top-level scope of the read)
    for path, tree in trees.items():
        for scope, node in _scoped_nodes(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name.startswith("_"):
                reads.add((name, path.stem, scope.split(".")[0]))
    helpers = {(path.stem, node.name) for path, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    dead: set = set()
    while True:   # dead only grows, so this ends
        live = {name for name, module, scope in reads
                if scope != name and (module, scope) not in dead}
        found = {(module, name) for module, name in helpers if name not in live}
        if found == dead:
            return sorted(f"{module}.{name}" for module, name in dead)
        dead = found


def test_no_dead_private_helpers():
    assert dead_helpers(PACKAGE) == []


def test_dead_helper_checker_flags_orphans(tmp_path):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text("def _used(x):\n    return x\n"
                   "def _by_attribute(x):\n    return x\n"
                   "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
                   "def _dead():\n    return _dead_chain()\n"
                   "def _dead_chain():\n    pass\n"
                   "def public():\n    return _used(1)\n"
                   "class A:\n    def _method(self):\n        pass\n")
    two.write_text("from . import one\n"
                   "def g():\n    return one._by_attribute(2)\n")
    assert dead_helpers([one, two]) == ["one._dead", "one._dead_chain", "one._recursive"]
    two.write_text("from . import one\n")
    assert dead_helpers([one, two]) == ["one._by_attribute", "one._dead", "one._dead_chain",
                                        "one._recursive"]


# ---------------------------------------------------------------------------
# the heat window exists once: transform._heat_quadrature alone spans a heat
# kernel's reach sqrt(160 t), and every heat-kernel integral takes its nodes
# from it; markov builds no rule of its own, and composed_kernel_hat runs its
# inner windows in one array pass

HEAT_WINDOW = "transform:_heat_quadrature"
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def heat_window_breaches(paths) -> list[str]:
    """sqrt calls over a literal 160 outside the heat window helper, rules
    named in markov, and loops or comprehensions in composed_kernel_hat."""
    found, defs = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, node in _scoped_nodes(tree):
            where = f"{path.stem}:{scope or '<module>'}"
            if isinstance(node, ast.FunctionDef):
                defs.add(f"{path.stem}:{node.name}")
            name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
            line = getattr(node, "lineno", None)
            func = getattr(node, "func", None)  # set on calls only
            if (getattr(func, "id", getattr(func, "attr", None)) == "sqrt" and where != HEAT_WINDOW
                    and any(isinstance(c, ast.Constant) and c.value == 160 for c in ast.walk(node))):
                found.append(f"heat window in {where} (line {line})")
            elif path.stem == "markov" and name in ("_axis_rule", "gauss_legendre"):
                found.append(f"{name} named in {where} (line {line})")
            elif where.startswith("markov:composed_kernel_hat") and isinstance(node, LOOPS):
                found.append(f"{type(node).__name__} in {where} (line {line})")
    found += [f"{name} is missing" for name in (HEAT_WINDOW, "markov:composed_kernel_hat")
              if name not in defs]
    return sorted(found)


def test_heat_kernel_integrals_share_one_window():
    assert heat_window_breaches(PACKAGE) == []


def test_heat_window_checker_flags_a_second_window(tmp_path):
    transform, markov = tmp_path / "transform.py", tmp_path / "markov.py"
    transform.write_text("import math\n"
                         "def _heat_quadrature(k, t, x):\n    w = math.sqrt(160.0 * t)\n"
                         "def defect(k, t, x):\n    return _heat_quadrature(k, t, x)\n")
    markov.write_text("from .transform import _heat_quadrature\n"
                      "def composed_kernel_hat(k, s, t, x):\n"
                      "    rule, heat = _heat_quadrature(k, s, x)\n"
                      "    return _heat_quadrature(k, t, rule.nodes)\n")
    assert heat_window_breaches([transform, markov]) == []
    transform.write_text(transform.read_text().replace(
        "return _heat_quadrature(k, t, x)", "return _axis_rule(k, x + np.sqrt(160 * t), 96)"))
    markov.write_text("from .transform import _heat_quadrature, _axis_rule\n"
                      "def composed_kernel_hat(k, s, t, x):\n"
                      "    rule, heat = _heat_quadrature(k, s, x)\n"
                      "    return [_heat_quadrature(k, t, z) for z in rule.nodes]\n"
                      "def _hat_rule(k, c, t):\n    return _axis_rule(k, c, 160)\n")
    assert heat_window_breaches([transform, markov]) == [
        "ListComp in markov:composed_kernel_hat (line 4)",
        "_axis_rule named in markov:<module> (line 1)",
        "_axis_rule named in markov:_hat_rule (line 6)",
        "heat window in transform:defect (line 5)"]
    transform.write_text("def _heat_window(k, t, x):\n    pass\n")
    markov.write_text("def composed(k):\n    pass\n")
    assert heat_window_breaches([transform, markov]) == [
        "markov:composed_kernel_hat is missing", "transform:_heat_quadrature is missing"]


# ---------------------------------------------------------------------------
# CSV rows go from _csv_rows to the stream as bytes: measures._write_csv alone
# writes the blocks, and nothing decodes them on the way

CSV_WRITER = "measures:_write_csv"


def _callee(node) -> str | None:
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def csv_block_breaches(paths) -> list[str]:
    """_csv_rows results used other than as an argument of _write_csv, directly
    or through a local name; .decode() calls in any function that makes or
    writes blocks, except in _write_csv's `if ... is None:` branch for a
    stream with no binary buffer; and a missing _write_csv."""
    found, defs = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            where = f"{path.stem}:{fn.name}"
            defs.add(where)
            nodes = list(ast.walk(fn))
            calls = [n for n in nodes if isinstance(n, ast.Call)]
            written = {id(a) for c in calls if _callee(c) == "_write_csv" for a in c.args}
            named = {id(n.value): n.targets[0].id for n in nodes
                     if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
                     and _callee(n.value) == "_csv_rows" and len(n.targets) == 1
                     and isinstance(n.targets[0], ast.Name)}
            makes = [c for c in calls if _callee(c) == "_csv_rows"]
            found.update(f"blocks leave through {where} (line {c.lineno})" for c in makes
                         if id(c) not in named and id(c) not in written)
            found.update(f"blocks leave through {where} (line {n.lineno})" for n in nodes
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                         and n.id in named.values() and id(n) not in written)
            if not makes and fn.name not in ("_write_csv", "_csv_rows", "_csv_block"):
                continue
            text_only = {id(n) for branch in nodes if isinstance(branch, ast.If)
                         and isinstance(branch.test, ast.Compare)
                         and isinstance(branch.test.ops[0], ast.Is)
                         and getattr(branch.test.comparators[0], "value", 0) is None
                         for stmt in branch.body for n in ast.walk(stmt)}
            found.update(f".decode() in {where} (line {c.lineno})" for c in calls
                         if _callee(c) == "decode"
                         and not (where == CSV_WRITER and id(c) in text_only))
    if CSV_WRITER not in defs:
        found.add(f"{CSV_WRITER} is missing")
    return sorted(found)


def test_csv_blocks_reach_the_stream_as_bytes():
    assert csv_block_breaches(PACKAGE) == []


def test_csv_block_checker_flags_a_second_writer_and_decodes(tmp_path):
    measures, caller = tmp_path / "measures.py", tmp_path / "grid.py"
    measures.write_text("def _csv_rows(t):\n    return (b'' for _ in t)\n"
                        "def _write_csv(fh, header, columns, rows):\n"
                        "    raw = getattr(fh, 'buffer', None)\n"
                        "    if raw is None:\n"
                        "        fh.writelines(block.decode() for block in rows)\n"
                        "        return\n"
                        "    for block in rows:\n        raw.write(block)\n")
    caller.write_text("def to_csv(fh, t):\n    rows = _csv_rows(t)\n"
                      "    _write_csv(fh, {}, ['a'], rows)\n"
                      "def to_stdout(fh, t):\n    _write_csv(fh, {}, ['a'], _csv_rows(t))\n")
    assert csv_block_breaches([measures, caller]) == []
    measures.write_text(measures.read_text().replace("raw.write(block)",
                                                     "fh.write(block.decode())"))
    caller.write_text("def to_csv(fh, t):\n    rows = _csv_rows(t)\n"
                      "    fh.write(b''.join(rows).decode())\n"
                      "def to_stdout(fh, t):\n    for block in _csv_rows(t):\n"
                      "        fh.write(block)\n")
    assert csv_block_breaches([measures, caller]) == [
        ".decode() in grid:to_csv (line 3)", ".decode() in measures:_write_csv (line 9)",
        "blocks leave through grid:to_csv (line 3)",
        "blocks leave through grid:to_stdout (line 5)"]
    measures.write_text("def _csv_rows(t):\n    return t\n")
    assert csv_block_breaches([measures]) == ["measures:_write_csv is missing"]
