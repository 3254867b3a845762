"""The public API is what the modules declare: each library module's
``__all__`` names exist and ``crqiv`` re-exports them, and ``crqiv``
exports nothing else."""

import importlib
import pkgutil
import types

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
