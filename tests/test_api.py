"""The public API is what the modules declare: each library module's
``__all__`` names exist and ``crqiv`` re-exports them, and ``crqiv``
exports nothing else."""

import ast
import importlib
import json
import math
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import crqiv

# command-line entry points, not part of the library namespace
ENTRY_POINTS = {"cli", "__main__"}
# modules that export nothing, each loaded only by the function that needs it, with why
PRIVATE = {"_csv_text": "save_csv's text kernel; commands that write no data file never compile it"}
LIBRARY = sorted(m.name for m in pkgutil.iter_modules(crqiv.__path__) if m.name not in ENTRY_POINTS | set(PRIVATE))
ROOT = Path(__file__).resolve().parents[1]

# public names that nothing in src/, bench/ or the CLI calls, only tests, each with why it is still public;
# a name leaves this list when it gets such a caller or leaves src/ (ROADMAP aim 2)
TEST_ONLY = {
    "product_limit_survival": "a cell's Kaplan-Meier curve; criterion 1's hand oracle reads it",
}
# the same for the public methods, properties and classmethods of the classes those names export
TEST_ONLY_MEMBERS = {
    "OuterSet.contains": "membership in the outer set's pieces; README's outer-set example calls it",
}
# the same for the optional parameters of the functions and methods written in src/, as "function(parameter)"
TEST_ONLY_OPTIONS = {
    "fit_curve(surface)": "the seam through which tests fit on a surface of their own, such as a design's true one",
}


@pytest.mark.parametrize("name", LIBRARY)
def test_module_exports_are_reexported(name):
    module = importlib.import_module(f"crqiv.{name}")
    assert hasattr(module, "__all__")
    for attr in module.__all__:
        assert hasattr(module, attr), f"crqiv.{name}.__all__ lists missing {attr}"
        assert getattr(crqiv, attr, None) is getattr(module, attr), f"crqiv does not export {name}.{attr}"


def test_every_module_is_exported_or_private():
    assert set(LIBRARY) == set(crqiv._EXPORTS)
    for name in PRIVATE:
        assert importlib.import_module(f"crqiv.{name}").__all__ == [], name


def test_package_exports_only_declared_names():
    declared = set()
    for name in LIBRARY:
        declared.update(importlib.import_module(f"crqiv.{name}").__all__)
    public = {
        n for n in dir(crqiv) if not n.startswith("_") and not isinstance(getattr(crqiv, n), types.ModuleType)
    }
    assert public <= declared, f"exported but declared by no module: {sorted(public - declared)}"


def declared_names():
    return {n for name in LIBRARY for n in importlib.import_module(f"crqiv.{name}").__all__}


def test_import_loads_no_submodule_and_no_numpy(child_env):
    # a library module is still reachable as an attribute once needed
    script = "import json, sys, crqiv; loaded = sorted(sys.modules); crqiv.data.code_type; print(json.dumps(loaded))"
    done = subprocess.run([sys.executable, "-c", script], env=child_env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    modules = json.loads(done.stdout)
    assert "numpy" not in modules
    assert [m for m in modules if m.startswith("crqiv.")] == []


def test_star_import_binds_exactly_the_declared_names():
    namespace = {}
    exec("from crqiv import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == declared_names()
    for name, value in namespace.items():
        assert value is getattr(crqiv, name), name
    assert set(dir(crqiv)) >= declared_names()


def test_names_resolve_to_the_current_object(monkeypatch):
    # nothing is cached in the package, so a patched function is what it returns
    import crqiv.estimator

    def patched(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(crqiv.estimator, "fit_curve", patched)
    assert crqiv.fit_curve is patched
    monkeypatch.undo()
    assert crqiv.fit_curve is crqiv.estimator.fit_curve is not patched


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        crqiv.no_such_name
    assert not hasattr(crqiv, "no_such_name")
    assert getattr(crqiv, "pava_nondecreasing", None) is None  # a module's private helper


def bench_traced() -> tuple:
    """(module, function) of every function the bench's tracer times, from bench/tracer.py's TRACED."""
    tracer = ROOT / "bench" / "tracer.py"
    (traced,) = [node.value for node in ast.parse(tracer.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]]
    return ast.literal_eval(traced)


def test_bench_names_resolve():
    # the bench times every function in its tracer's TRACED list and varies
    # BootstrapConfig.workers; a metric whose name is gone drops out of it
    traced = bench_traced()
    assert traced
    for module, name in traced:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
    from crqiv.inference import BootstrapConfig

    assert [BootstrapConfig(draws=2, workers=w).workers for w in (1, 2)] == [1, 2]


@pytest.mark.parametrize("category", [DeprecationWarning, FutureWarning, UserWarning])
def test_deprecation_met_inside_crqiv_fails(category, monkeypatch):
    # numpy attributes a deprecation or a user warning to its caller;
    # pyproject.toml's filterwarnings turn the ones met in a crqiv module into errors
    import warnings

    import numpy as np

    from crqiv.surface import SmoothedSurvivalSurface

    interp = np.interp

    def deprecated(*args, **kwargs):
        warnings.warn("np.interp is deprecated", category, stacklevel=2)
        return interp(*args, **kwargs)

    monkeypatch.setattr(np, "interp", deprecated)
    surface = SmoothedSurvivalSurface(np.array([0.0, 1.0]), np.ones((1, 1, 2)), np.ones((1, 1)), {}, "local_linear")
    with pytest.raises(category, match="np.interp is deprecated"):
        surface.evaluate(0.5, 0, 0)
    with pytest.warns(category):  # met outside crqiv, it stays a warning
        deprecated(0.5, [0.0, 1.0], [1.0, 1.0])


def caller_files() -> list:
    """The files whose calls count: src/ (the CLI included, __init__ not) and bench/ but its tests."""
    files = [p for p in (ROOT / "src" / "crqiv").glob("*.py") if p.name != "__init__.py"]
    return files + [p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")]


def read_places(attributes_only=False) -> dict:
    """name -> {(module, top-level definition, member of a top-level class)} of each place src/ or bench/ reads it.

    A name or attribute read in src/ (the CLI included) or bench/ counts,
    only an attribute with attributes_only; the bench's tracer calls its
    TRACED functions by name.  __init__'s export table and the __all__
    lists hold names as strings, so they call nothing.
    """
    places = {}
    for module, name in bench_traced():
        places.setdefault(name, set()).add((module, None, None))
    for path in caller_files():
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            members = top.body if isinstance(top, ast.ClassDef) else []
            owner = {id(node): part.name for part in members if hasattr(part, "name") for node in ast.walk(part)}
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and not attributes_only:
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                places.setdefault(name, set()).add((path.stem, getattr(top, "name", None), owner.get(id(node))))
    return places


def public_members():
    """(module, class, member) of each public method, property and classmethod of a class a module exports."""
    for module in LIBRARY:
        for name in importlib.import_module(f"crqiv.{module}").__all__:
            cls = getattr(crqiv, name)
            if isinstance(cls, type) and cls.__module__ == f"crqiv.{module}":
                for member, value in vars(cls).items():
                    if not member.startswith("_") and isinstance(
                            value, (types.FunctionType, property, classmethod, staticmethod)):
                        yield module, name, member


def test_every_public_name_has_a_caller_or_a_reason():
    # a name counts as called where it is read outside its own top-level definition
    places = read_places()
    uncalled = {name for module in LIBRARY for name in importlib.import_module(f"crqiv.{module}").__all__
                if not {p[:2] for p in places.get(name, ())} - {(module, name)}}
    assert uncalled == set(TEST_ONLY), "give a new public name a caller, or a reason in TEST_ONLY; drop a called one"
    assert all(reason and "\n" not in reason for reason in TEST_ONLY.values())


def test_every_public_member_has_a_caller_or_a_reason():
    # a member counts as called where an attribute of its name is read outside its own definition,
    # so a member whose name another one shares counts as called: the check errs toward passing
    places = read_places(attributes_only=True)
    uncalled = {f"{cls}.{member}" for module, cls, member in public_members()
                if not places.get(member, set()) - {(module, cls, member)}}
    assert uncalled == set(TEST_ONLY_MEMBERS), (
        "give a new public member a caller, or a reason in TEST_ONLY_MEMBERS; drop a called one")
    assert all(reason and "\n" not in reason for reason in TEST_ONLY_MEMBERS.values())


def defined_options():
    """("function(parameter)", the name a call gives, parameter, its position in a call or None) of each
    optional parameter of a function or method written at the top level of a module or class in src/.

    A method's position leaves out its self or cls, and an __init__ is
    called by its class's name; dataclass-generated __init__s are not
    written, so they are left out.
    """
    for path in sorted((ROOT / "src" / "crqiv").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, ast.FunctionDef):
                defs = [(None, top)]
            elif isinstance(top, ast.ClassDef):
                defs = [(top.name, node) for node in top.body if isinstance(node, ast.FunctionDef)]
            else:
                continue
            for owner, fn in defs:
                bound = owner is not None and "staticmethod" not in [getattr(d, "id", None) for d in fn.decorator_list]
                called = owner if fn.name == "__init__" else fn.name
                label = fn.name if owner is None else f"{owner}.{fn.name}"
                positional = fn.args.posonlyargs + fn.args.args
                for i, arg in enumerate(positional[len(positional) - len(fn.args.defaults):]):
                    yield f"{label}({arg.arg})", called, arg.arg, len(positional) - len(fn.args.defaults) + i - bound
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        yield f"{label}({arg.arg})", called, arg.arg, None


def passed_arguments() -> tuple:
    """({(name called, parameter name or position)} of each argument a call in src/ or bench/ passes,
    {name called: first position a *-argument covers}, the keys of cli._fit_kwargs' dict).

    A call's name is that of the function or attribute called.  A
    **-argument sets nothing, except the dict _fit_kwargs builds, whose
    keys every command passes through to the fit.
    """
    passed, starred, keys = set(), {}, set()
    for path in caller_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if path.stem == "cli" and isinstance(node, ast.FunctionDef) and node.name == "_fit_kwargs":
                (returned,) = [n.value for n in ast.walk(node) if isinstance(n, ast.Return)]
                keys.update(key.value for key in returned.keys)
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    starred[name] = min(i, starred.get(name, i))
                    break
                passed.add((name, i))
            passed.update((name, kw.arg) for kw in node.keywords if kw.arg)
    return passed, starred, keys


def test_every_public_option_has_a_caller_or_a_reason():
    # an optional parameter counts as set where a call of its function's name in src/ or bench/
    # passes it by keyword or position, so a method whose name another one shares counts as
    # set too; a fit option _fit_kwargs names counts as set wherever it is a parameter
    passed, starred, keys = passed_arguments()
    unset = {label for label, called, param, position in defined_options()
             if (called, param) not in passed and (called, position) not in passed and param not in keys
             and (position is None or position < starred.get(called, math.inf))}
    assert unset == set(TEST_ONLY_OPTIONS), (
        "give a new option a caller or a reason in TEST_ONLY_OPTIONS, or delete it; drop a set one")
    assert all(reason and "\n" not in reason for reason in TEST_ONLY_OPTIONS.values())
