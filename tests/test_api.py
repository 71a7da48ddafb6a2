"""Public API guard: every exported name resolves.

A deleted function can leave its name in an ``__all__``, where only a
star import or a reader of the docs would find it missing.  Likewise the
benchmark's span recorder times layers by rebinding names in ``credal``
modules and skips a name that is gone, so a layer it can no longer find
reads 0 without failing the benchmark; the names it rebinds are checked
here.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

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


def _spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve names through it
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


@pytest.mark.parametrize("owner, name, span", SPANS.REBOUND, ids=lambda v: str(v))
def test_every_traced_name_is_bound(owner, name, span):
    assert callable(getattr(importlib.import_module(owner), name, None))
    assert span in SPANS.LAYER_OF


@pytest.mark.parametrize("name, span", SPANS.METHODS, ids=lambda v: str(v))
def test_every_traced_method_exists(name, span):
    assert callable(getattr(credal.TvuMeasure, name, None))
    assert span in SPANS.LAYER_OF
