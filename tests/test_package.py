"""Package surface: every exported name resolves."""

from __future__ import annotations

import importlib
import pkgutil

import birot4


def test_every_exported_name_resolves():
    modules = [birot4] + [importlib.import_module(f"birot4.{info.name}")
                          for info in pkgutil.iter_modules(birot4.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
