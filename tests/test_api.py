"""Public API guard: every exported name resolves.

A deleted function can leave its name in an ``__all__``, where only a
star import or a reader of the docs would find it missing.  The package
declares no name itself: it republishes each module's ``__all__``.  Likewise the
benchmark's span recorder times layers by rebinding names in ``credal``
modules and skips a name that is gone, so a layer it can no longer find
reads 0 without failing the benchmark; the names it rebinds are checked
here.  Finally every value the package returns (spaces, events,
distributions, sets, measures, the tower, its config, and every record
and report) is shared between updates, so each keeps one rule through
one base, ``credal.core._Frozen``: it refuses assignment, holds only
read-only arrays, and deep-copies and pickles into a value that keeps
that rule.  Equality is declared once too, on ``credal.core._Record``:
the values without arrays compare and hash by their fields, every other
value by identity.  At the library boundary, an argument of the wrong
kind raises a typed ``CredalError`` before any work, never a raw Python
error.  And the package loads only what a run uses: importing it, or
running a command that builds no tower, loads no thread pool, no logging
and no ``numpy.random``.
"""

import copy
import importlib
import itertools
import importlib.util
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import credal
from credal.core import _Frozen, _Record

MODULES = [credal] + [
    importlib.import_module(f"credal.{info.name}") for info in pkgutil.iter_modules(credal.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []


INTERFACES = [credal.core, credal.sets, credal.tvuniform, credal.tower, credal.inference,
              credal.errors]


def test_the_package_republishes_each_module_interface():
    assert credal.__all__ == ["__version__"] + [n for m in INTERFACES for n in m.__all__]
    for module in INTERFACES:
        assert all(getattr(credal, name) is getattr(module, name) for name in module.__all__)


def test_star_import_binds_exactly_the_package_interface():
    namespace = {}
    exec("from credal import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(credal.__all__)
    assert "MERGE_TOL" in namespace and len(credal.__all__) == 62


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
    return isinstance(obj, type) and not issubclass(obj, BaseException)


VALUE_CLASSES = {obj for obj in map(credal.__dict__.get, credal.__all__) if _is_value_class(obj)}


def _values():
    """One instance of every value class; the tower's base is a finite set, so it pickles."""
    space = credal.OutcomeSpace(["a", "b"])
    a = space.event(["a"])
    dist = credal.make_distribution(space, [1, 3])
    members = credal.CredalSet([dist, credal.make_distribution(space, [3, 1])])
    family = credal.bernoulli_family()
    measure = credal.build_measure(family)
    config = credal.TowerConfig(members, base_samples=8, order_samples=8, max_order=2)
    tower = credal.build_tower(config)
    profile = credal.dilation_profile(tower, space.full_event(), a)
    return [space, a, dist, credal.make_rational_distribution(space, [1, 3]), members,
            credal.EventMap(a), family.box, family, measure, credal.CountingMeasure(members),
            config, tower, credal.convergence_stats(tower, a)[0], profile, profile.orders[0],
            credal.UrnState(history=["red"]), credal.binomial_test(10, 1),
            credal.hocs_ratio(measure, 0.3, family.space.event(["H"]))]


VALUES = _values()

# A family's probability and thickness functions are closures built by its
# constructor, which pickle cannot name; a measure holds its family.
HOLDS_LOCAL_FUNCTIONS = {credal.ParamFamily, credal.TvuMeasure}


def test_every_value_class_subclasses_frozen():
    assert VALUE_CLASSES and all(issubclass(cls, _Frozen) for cls in VALUE_CLASSES)


def test_every_value_class_refuses_assignment():
    assert len(VALUES) == len(VALUE_CLASSES) and {type(obj) for obj in VALUES} == VALUE_CLASSES
    for obj in VALUES:
        cls = type(obj)
        field = cls.__slots__[0]
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(obj, field, getattr(obj, field))


def test_records_are_built_from_every_field_by_keyword():
    report = next(obj for obj in VALUES if isinstance(obj, credal.BinomialTestReport))
    fields = {name: getattr(report, name) for name in type(report).__slots__}
    assert repr(type(report)(**fields)) == repr(report)
    for wrong in ({k: v for k, v in fields.items() if k != "meta"}, {**fields, "extra": 1}):
        with pytest.raises(TypeError, match="^BinomialTestReport needs exactly the fields"):
            type(report)(**wrong)


RECORD_CLASSES = {credal.OutcomeSpace, credal.Event, credal.RationalDistribution,
                  credal.UrnState, credal.HocsResult}


def test_equality_is_declared_once():
    assert set(_Record.__subclasses__()) == RECORD_CLASSES
    declared = [f"{cls.__qualname__}.{attr}" for module in MODULES for cls in vars(module).values()
                if isinstance(cls, type) and cls.__module__ == module.__name__
                for attr in ("__eq__", "__hash__") if attr in vars(cls)]
    assert declared == ["_Record.__eq__", "_Record.__hash__"]


@pytest.mark.parametrize("obj", [obj for obj in VALUES if isinstance(obj, _Record)],
                         ids=lambda obj: type(obj).__name__)
def test_records_compare_and_hash_by_value(obj):
    for dup in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert dup is not obj and dup == obj and hash(dup) == hash(obj)


@pytest.mark.parametrize("obj", [obj for obj in VALUES if not isinstance(obj, _Record)],
                         ids=lambda obj: type(obj).__name__)
def test_other_values_compare_by_identity(obj):
    assert type(obj).__eq__ is object.__eq__ and type(obj).__hash__ is object.__hash__
    assert obj == obj and copy.deepcopy(obj) != obj


def test_no_value_equals_a_value_of_another_class():
    assert {type(obj) for obj in VALUES if isinstance(obj, _Record)} == RECORD_CLASSES
    space = VALUES[0]
    relabeled = type("Relabeled", (credal.OutcomeSpace,), {"__slots__": ()})(space.labels)
    values = [*VALUES, relabeled]
    assert [(type(a), type(b)) for a, b in itertools.permutations(values, 2)
            if type(a) is not type(b) and a == b] == []


def _arrays(obj):
    """Every array a value holds, through the values, tuples and lists it holds."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif type(obj).__module__.startswith("credal."):
        for cls in type(obj).__mro__:
            for name in getattr(cls, "__slots__", ()):
                yield from _arrays(getattr(obj, name, None))
        for value in getattr(obj, "__dict__", {}).values():
            yield from _arrays(value)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


def _assert_same_value(dup, obj):
    assert dup is not obj and type(dup) is type(obj) and repr(dup) == repr(obj)
    arrays = list(_arrays(dup))
    assert [arr.tobytes() for arr in arrays] == [arr.tobytes() for arr in _arrays(obj)]
    assert not any(arr.flags.writeable for arr in arrays)


@pytest.mark.parametrize("obj", VALUES, ids=lambda obj: type(obj).__name__)
def test_every_value_deep_copies(obj):
    _assert_same_value(copy.deepcopy(obj), obj)


@pytest.mark.parametrize("obj", [obj for obj in VALUES if type(obj) not in HOLDS_LOCAL_FUNCTIONS],
                         ids=lambda obj: type(obj).__name__)
def test_every_value_without_local_functions_pickles(obj):
    _assert_same_value(pickle.loads(pickle.dumps(obj)), obj)


@pytest.mark.parametrize("obj", [obj for obj in VALUES if type(obj) in HOLDS_LOCAL_FUNCTIONS],
                         ids=lambda obj: type(obj).__name__)
def test_families_and_their_measures_do_not_pickle(obj):
    with pytest.raises((AttributeError, pickle.PicklingError), match="local"):
        pickle.dumps(obj)


def _held_arrays(base_mode):
    family = credal.coin_match_family()
    cfg = credal.TowerConfig(family, base_samples=8, order_samples=8, max_order=2,
                             base_mode=base_mode)
    tower = credal.build_tower(cfg)
    measure = credal.build_measure(family)
    report = credal.binomial_test(10, 1)
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
        **{f"BinomialTestReport.{name}": getattr(report, name)
           for name in ("grid", "ratios", "density")},
    }


@pytest.mark.parametrize("base_mode", ["tvu", "grid"])
def test_no_held_array_is_writable(base_mode):
    writable = [name for name, arr in _held_arrays(base_mode).items() if arr.flags.writeable]
    assert writable == []


def _bad_arguments():
    space = credal.OutcomeSpace(["a", "b", "c"])
    family = credal.binomial_family(4)
    measure = credal.build_measure(family)
    tower = credal.build_tower(credal.TowerConfig(family, base_samples=8, order_samples=8,
                                                  max_order=2))
    return {
        "make_distribution(space, ['x', 1, 1])": (
            credal.ConfigInvalid, lambda: credal.make_distribution(space, ["x", 1, 1])),
        "tvu_density(family, 'x')": (
            credal.ConfigInvalid, lambda: credal.tvu_density(family, "x")),
        "hocs_curve(measure, event, ['a'])": (
            credal.ConfigInvalid,
            lambda: credal.hocs_curve(measure, family.space.event([1]), ["a"])),
        "build_measure(family, tol='x')": (
            credal.ConfigInvalid, lambda: credal.build_measure(family, tol="x")),
        "binomial_test(10, 1, grid_step='x')": (
            credal.ConfigInvalid, lambda: credal.binomial_test(10, 1, grid_step="x")),
        "OutcomeSpace(None)": (credal.ConfigInvalid, lambda: credal.OutcomeSpace(None)),
        "measure.event_prob(None)": (credal.SpaceMismatch, lambda: measure.event_prob(None)),
        "CredalSet([1, 2])": (credal.ConfigInvalid, lambda: credal.CredalSet([1, 2])),
        "dilation_profile(tower, None, None)": (
            credal.SpaceMismatch, lambda: credal.dilation_profile(tower, None, None)),
    }


@pytest.mark.parametrize("case", list(_bad_arguments()))
def test_a_wrong_kind_of_argument_raises_a_typed_error(case):
    # A non-event where an event belongs is a SpaceMismatch; any other
    # argument of the wrong kind is ConfigInvalid.
    error, call = _bad_arguments()[case]
    with pytest.raises(error):
        call()


# Modules a run that builds no tower never needs: the quadrature's rules
# are written out (no numpy.polynomial), a one-thread tower fills its
# blocks on the calling thread (no concurrent.futures, which imports
# logging), and only a tower draws random numbers (numpy.random).
UNUSED = ("numpy.polynomial", "numpy.random", "concurrent.futures", "logging")


def _run_fresh(script: str, tmp_path) -> list[str]:
    """Run ``script`` in a fresh interpreter and return its output lines."""
    src = str(Path(credal.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_and_tower_free_commands_load_only_what_they_use(tmp_path):
    script = f"""
import sys
before = set(sys.modules)
import credal, credal.cli
print(sorted(m for m in {UNUSED!r} if m in sys.modules and m not in before))
for argv in (["binomial-test", "--n", "10", "--k", "1"], ["urn", "--history", "red"],
             ["tvu-density", "--points", "11"]):
    assert credal.cli.main(argv + ["--out", "."]) == 0, argv
print(sorted(m for m in {UNUSED!r} if m in sys.modules and m not in before))
"""
    lines = _run_fresh(script, tmp_path)  # the commands print between the two lists
    assert [lines[0], lines[-1]] == ["[]", "[]"]


def test_a_one_thread_tower_starts_no_thread(tmp_path):
    # A tower loads numpy.random; with one job it loads no thread pool and
    # starts no thread.
    script = """
import sys, threading
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: (started.append(self.name), start(self))[1]
import credal
cfg = credal.TowerConfig(credal.binomial_family(4), base_samples=600, order_samples=600,
                         max_order=3, seed=1)
credal.build_tower(cfg, n_jobs=1)
print(started, threading.active_count(), "concurrent.futures" in sys.modules,
      "numpy.random" in sys.modules)
"""
    assert _run_fresh(script, tmp_path) == ["[] 1 False True"]
