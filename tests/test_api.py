"""Public API guard: every exported name resolves.

A deleted function can leave its name in an ``__all__``, where only a
star import or a reader of the docs would find it missing.
"""

import importlib
import pkgutil

import pytest

import credal

MODULES = [credal] + [
    importlib.import_module(f"credal.{info.name}") for info in pkgutil.iter_modules(credal.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []
