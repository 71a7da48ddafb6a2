"""Public API guard: every exported name resolves.

A deleted function can leave its name in an ``__all__``, where only a
star import or a reader of the docs would find it missing.  Likewise the
benchmark's span recorder times layers by rebinding names in ``credal``
modules and skips a name that is gone, so a layer it can no longer find
reads 0 without failing the benchmark; the names it rebinds are checked
here.  Finally every value class (spaces, events, distributions, sets,
measures, the tower) is shared between updates, so each keeps one rule
through one base, ``credal.core._Frozen``: it refuses assignment and
holds only read-only arrays.
"""

import dataclasses
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import credal
from credal.core import _Frozen

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


def _is_value_class(obj):
    return (isinstance(obj, type) and not dataclasses.is_dataclass(obj)
            and not issubclass(obj, BaseException))


VALUE_CLASSES = {obj for obj in map(credal.__dict__.get, credal.__all__) if _is_value_class(obj)}


def test_every_value_class_subclasses_frozen():
    assert VALUE_CLASSES and all(issubclass(cls, _Frozen) for cls in VALUE_CLASSES)


def test_every_value_class_refuses_assignment():
    space = credal.OutcomeSpace(["a", "b"])
    dist = credal.make_distribution(space, [1, 3])
    members = credal.CredalSet([dist])
    family = credal.bernoulli_family()
    tower = credal.build_tower(credal.TowerConfig(family, base_samples=8, order_samples=8,
                                                  max_order=2))
    objs = [space, space.event(["a"]), dist, credal.make_rational_distribution(space, [1, 3]),
            members, credal.EventMap(space.event(["a"])), family.box, family,
            credal.build_measure(family), credal.CountingMeasure(members), tower]
    assert {type(obj) for obj in objs} == VALUE_CLASSES
    for obj in objs:
        cls = type(obj)
        field = cls.__slots__[0]
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(obj, field, getattr(obj, field))


def _held_arrays(base_mode):
    family = credal.coin_match_family()
    cfg = credal.TowerConfig(family, base_samples=8, order_samples=8, max_order=2,
                             base_mode=base_mode)
    tower = credal.build_tower(cfg)
    measure = credal.build_measure(family)
    pre, match = family.space.event(["H1H2", "H1T2"]), family.space.event(["H1H2", "T1T2"])
    return {
        "Tower.base_params": tower.base_params,
        **{f"Tower.levels[{i}]": v for i, v in enumerate(tower.levels)},
        "TvuMeasure.nodes": measure.nodes,
        "TvuMeasure.weights": measure.weights,
        "TvuMeasure.density": measure.density,
        "TvuMeasure._mass": measure._mass,
        "TvuMeasure._outcome_mass": measure._outcome_mass,
        "FiniteDistribution.probs": family.eval(0.3).probs,
        **{f"OrderStats[{s.order}].values": s.values
           for s in credal.convergence_stats(tower, match)},
        **{f"DilationOrder[{o.order}].values": o.values
           for o in credal.dilation_profile(tower, pre, match).orders},
    }


@pytest.mark.parametrize("base_mode", ["tvu", "grid"])
def test_no_held_array_is_writable(base_mode):
    writable = [name for name, arr in _held_arrays(base_mode).items() if arr.flags.writeable]
    assert writable == []
