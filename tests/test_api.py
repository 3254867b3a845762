"""The public API is what the modules declare: each library module's
``__all__`` names exist and ``crqiv`` re-exports them, and ``crqiv``
exports nothing else."""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import crqiv

# command-line entry points, not part of the library namespace
ENTRY_POINTS = {"cli", "__main__"}
LIBRARY = sorted(m.name for m in pkgutil.iter_modules(crqiv.__path__) if m.name not in ENTRY_POINTS)


@pytest.mark.parametrize("name", LIBRARY)
def test_module_exports_are_reexported(name):
    module = importlib.import_module(f"crqiv.{name}")
    assert hasattr(module, "__all__")
    for attr in module.__all__:
        assert hasattr(module, attr), f"crqiv.{name}.__all__ lists missing {attr}"
        assert getattr(crqiv, attr, None) is getattr(module, attr), f"crqiv does not export {name}.{attr}"


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


def test_bench_names_resolve():
    # the bench times every function in its tracer's TRACED list and varies
    # BootstrapConfig.workers; a metric whose name is gone drops out of it
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    (traced,) = [node.value for node in ast.parse(tracer.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]]
    traced = ast.literal_eval(traced)
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
