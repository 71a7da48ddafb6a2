"""Span recorder for the traced run.

The recorder times credal's layers from outside: for the length of one
op it rebinds the names that ``credal.cli``, ``credal.inference`` and
``credal.tower`` import, plus two ``TvuMeasure`` methods, to wrappers
that record a span around each call.  The source tree is never edited
and untraced ops run the original functions.

A span holds its name, start, end, parent span and op id.  Spans stay in
memory until the run ends.  A layer's time in an op is the sum of its
spans' self times (duration minus the time covered by child spans), so
the layer times of an op add up to the op's traced wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from math import comb

import numpy as np

# (module, name bound in it, span name).  A name a later version no longer
# binds is skipped, so its layer then reads 0.
REBOUND = [
    ("credal.cli", "write_csv", "io.write_csv"),
    ("credal.cli", "write_json", "io.write_json"),
    ("credal.cli", "sha256_file", "io.sha256_file"),
    ("credal.cli", "build_measure", "tvuniform.build_measure"),
    ("credal.inference", "build_measure", "tvuniform.build_measure"),
    ("credal.tower", "build_measure", "tvuniform.build_measure"),
    ("credal.cli", "build_tower", "tower.build_tower"),
    ("credal.cli", "convergence_stats", "tower.convergence_stats"),
    ("credal.cli", "urn_update", "inference.urn_update"),
    ("credal.cli", "binomial_test", "inference.binomial_test"),
]
METHODS = [("event_prob", "tvuniform.event_prob"), ("sample_params", "tvuniform.sample_params")]

# Span name -> the per-layer time metric its self time adds to.
LAYER_OF = {
    "cli.main": "cli.self_s",
    "io.write_csv": "io.write_s",
    "io.write_json": "io.write_s",
    "io.sha256_file": "io.hash_s",
    "tvuniform.build_measure": "tvuniform.build_measure_s",
    "tvuniform.event_prob": "tvuniform.event_prob_s",
    "tvuniform.sample_params": "tvuniform.sample_params_s",
    "tower.build_tower": "tower.build_s",
    "tower.convergence_stats": "tower.query_s",
    "inference.urn_update": "inference.urn_update_s",
    "inference.binomial_test": "inference.binomial_test_self_s",
}
LAYER_METRICS = sorted(set(LAYER_OF.values()))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def _level_products(tower) -> int:
    """Sum over weight levels of rows x columns, from the tower's particle counts."""
    sizes = [tower.n_particles(order) for order in range(1, tower.max_order + 1)]
    return sum(a * b for a, b in zip(sizes[1:], sizes[:-1]))


def _ndarray_bytes(obj) -> int:
    """Bytes of the arrays an object holds in its own attributes (one level of containers)."""
    names = getattr(type(obj), "__slots__", None) or vars(obj)
    total = 0
    for name in names:
        value = getattr(obj, name, None)
        items = value.values() if isinstance(value, dict) else (
            value if isinstance(value, (tuple, list)) else [value])
        total += sum(v.nbytes for v in items if isinstance(v, np.ndarray))
    return total


# Computed counts, taken from each traced call's arguments and result.
def _count_build_measure(c, args, result):
    c["tvuniform.nodes"] += result.nodes.shape[0]


def _count_event_prob(c, args, result):
    c["tvuniform.event_prob_calls"] += 1


def _count_build_tower(c, args, result):
    c["tower.weight_draws"] += _level_products(result)
    c["tower.held_mb"] += _ndarray_bytes(result) / 1e6


def _count_chain(c, args, result):
    # An event's matrix-vector chain costs a multiply and an add per weight entry.
    c["tower.chain_flops"] += 2 * _level_products(args[0])


def _count_urn(c, args, result):
    state = args[0]
    n, k = state.ball_total, len(state.colors)
    drawn = len(set(state.history))
    total = comb(n + k - 1, k - 1)
    useful = comb(n - drawn + k - 1, k - 1)
    c["inference.urn_compositions"] += total
    c["inference.urn_useful_ratio"] += useful / total


COUNTERS = {
    "tvuniform.build_measure": _count_build_measure,
    "tvuniform.event_prob": _count_event_prob,
    "tower.build_tower": _count_build_tower,
    "tower.convergence_stats": _count_chain,
    "inference.urn_update": _count_urn,
}


class Tracer:
    """Records spans and computed counts for the ops run under :meth:`op`."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._op: int | None = None
        self._memory = False
        self._saved: list[tuple] = []
        cls = importlib.import_module("credal.tvuniform").TvuMeasure
        targets = [(importlib.import_module(m), a, n) for m, a, n in REBOUND]
        targets += [(cls, a, n) for a, n in METHODS]
        self._targets = [t for t in targets if hasattr(t[0], t[1])]

    @contextlib.contextmanager
    def op(self, op_id: int, memory: bool = False):
        """Trace one op.  ``memory`` also takes the tracemalloc peak of each tower build."""
        self._op, self._memory = op_id, memory
        self.counts[op_id] = Counter()
        self._install()
        try:
            with self._span("cli.main"):
                yield
        finally:
            self._uninstall()
            self._op = None

    @contextlib.contextmanager
    def _span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self._op)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        measure_memory = name == "tower.build_tower"

        def traced(*args, **kwargs):
            with self._span(name):
                if measure_memory and self._memory:
                    tracemalloc.start()
                    try:
                        result = fn(*args, **kwargs)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    self.counts[self._op]["tower.build_peak_alloc_mb"] += peak / 1e6
                else:
                    result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts[self._op], args, result)
            return result

        return traced

    def _install(self):
        for owner, attr, name in self._targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def _uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def layer_times(self) -> dict[int, dict[str, float]]:
        """Per op, the summed self time of each layer."""
        covered = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        out: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(LAYER_METRICS, 0.0))
        for idx, span in enumerate(self.spans):
            out[span.op][LAYER_OF[span.name]] += span.end - span.start - covered[idx]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for idx, span in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, **asdict(span)}) + "\n")
