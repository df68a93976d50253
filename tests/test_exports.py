"""Every exported name resolves, so deletions cannot leave stale exports, is
reached from the command line or the verify suites, and no public signature
hides its parameters behind *args or **kwargs."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


# ---------------------------------------------------------------------------
# every public name is reached from the command line or the verify suites

_ROOTS = ("cli", "verify")


def _package_index():
    """Per module: its module-level definitions (def, class and assigned
    names, each with its statement), the names it imports from the package
    as (module, name), its aliases of package modules, and the statements
    that run on import."""
    defs, imports, aliases, on_import = {}, {}, {}, []
    for path in sorted(Path(dunklkit.__file__).parent.glob("*.py")):
        mod = path.stem
        imports[mod], aliases[mod] = {}, {}
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[mod, stmt.name] = stmt
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for a in stmt.names:
                    if stmt.module is None and a.name in SUBMODULES:
                        aliases[mod][a.asname or a.name] = a.name
                    else:
                        imports[mod][a.asname or a.name] = (stmt.module or "__init__", a.name)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                on_import.append((mod, stmt))
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                        defs[mod, node.id] = stmt
    return defs, imports, aliases, on_import


def _resolve(defs, imports, mod, name):
    """The (module, name) that defines `name` as seen from `mod`, through
    re-exports; None outside the package."""
    while (mod, name) not in defs and name in imports.get(mod, {}):
        mod, name = imports[mod][name]
    return (mod, name) if (mod, name) in defs else None


def _reached() -> set:
    """(module, name) of every definition that the CLI and the verify suites
    reach: whole root modules and every module's import-time statements,
    then every definition a reached body names, through `from . import`
    aliases, re-exports and `module.attr` references; a reached class
    brings all its methods."""
    defs, imports, aliases, on_import = _package_index()
    todo = [(mod, stmt) for mod, stmt in on_import]
    todo += [(mod, stmt) for (mod, _), stmt in defs.items() if mod in _ROOTS]
    reached, seen = set(), set()
    while todo:
        mod, stmt = todo.pop()
        if id(stmt) in seen:
            continue
        seen.add(id(stmt))
        for node in ast.walk(stmt):
            key = None
            if isinstance(node, ast.Name):
                key = _resolve(defs, imports, mod, node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases[mod]):
                key = _resolve(defs, imports, aliases[mod][node.value.id], node.attr)
            if key is not None and key not in reached:
                reached.add(key)
                todo.append((key[0], defs[key]))
    return reached


def test_every_public_name_is_reached():
    # a public name that neither `dunklkit check` nor the CLI reaches is
    # surface that no user-facing route exercises: give it a suite case, as
    # the second route of an identity, or take it out of the API
    defs, imports, _, _ = _package_index()
    reached = _reached()
    assert [name for name in dunklkit.__all__
            if _resolve(defs, imports, "__init__", name) not in reached] == []


# ---------------------------------------------------------------------------
# every defaulted public parameter is set by some caller of the package

_CALLERS = ("src", "bench", "perfbench")
# parameters no caller sets, each kept for the reason given
_UNSET_BY_DESIGN = {
    "spherical_mean_radial.n": "the node budget that a resolution policy and a "
                               "refinement ladder study",
    "LineMeasure.check_probability.tol": "the bound is the caller's: tests check "
                                         "measures at 1e-12, 1e-10 and 1e-8",
    "RadialProfileMeasure.check_probability.tol": "inherited from LineMeasure",
    "MarkovKernelHandle.apply.f": "exactly one of f, f0 is passed: f is the rank-one "
                                  "general test function, f0 the radial one the suites take",
}


def _calls() -> dict:
    """Per called name (a bare name or an attribute), one (positional count,
    keyword names, has * or **) entry for each call in the package and the
    benchmark scripts."""
    root = Path(__file__).resolve().parents[1]
    calls = {}
    for path in sorted(p for d in _CALLERS for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                star = (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords))
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}, star))
    return calls


def _defaulted_parameters() -> list:
    """(dotted name, is set) of every defaulted parameter of _signatures(); a
    call sets it by keyword, by position or through * / **.  A method call
    matches by its attribute name, a constructor by the name of its class or
    a subclass."""
    calls, out = _calls(), []
    for name, sig in _signatures():
        obj = getattr(dunklkit, name.split(".")[0])
        params = list(sig.parameters.values())
        if "." in name:
            names = {name.rsplit(".", 1)[1]}
            params = params[1:] if params and params[0].name in ("self", "cls") else params
        elif inspect.isclass(obj):
            todo, names = [obj], set()
            while todo:
                cls = todo.pop()
                names.add(cls.__name__)
                todo += cls.__subclasses__()
        else:
            names = {name}
        for i, p in enumerate(params):
            if p.default is inspect.Parameter.empty:
                continue
            positional = p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            set_ = any(star or p.name in keywords or (positional and n_pos > i)
                       for called in names for n_pos, keywords, star in calls.get(called, []))
            out.append((f"{name}.{p.name}", set_))
    return out


def test_every_public_parameter_is_set():
    # with one value in use, a parameter is a constant: a default that no
    # caller overrides is surface to validate, document and sweep for nothing
    unset = sorted(name for name, set_ in _defaulted_parameters() if not set_)
    assert unset == sorted(_UNSET_BY_DESIGN)  # a stale allowlist entry fails too
