"""The package's public names: each module's __all__ against the package."""
from __future__ import annotations

import importlib
import pkgutil
import sys

import ghconvex


def test_exports_are_consistent():
    """Every name in a library module's __all__ exists and is re-exported by
    the package, and every package-level function or class is listed in the
    __all__ of the module that defines it.  The command-line front end is
    not re-exported: importing it would load argparse with the library."""
    modules = [
        importlib.import_module(f"ghconvex.{info.name}")
        for info in pkgutil.iter_modules(ghconvex.__path__)
        if info.name != "cli"
    ]
    for module in modules:
        for name in module.__all__:
            assert getattr(ghconvex, name) is getattr(module, name), (module.__name__, name)
    for name, obj in vars(ghconvex).items():
        home = getattr(obj, "__module__", None) or ""
        if not name.startswith("_") and home.startswith("ghconvex."):
            assert name in sys.modules[home].__all__, (home, name)
