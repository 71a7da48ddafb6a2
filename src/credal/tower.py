"""Monte-Carlo towers: higher-order uncertainty over credal sets.

Level 1 of a tower is a stack of base distributions (sampled from the
uniform measure over a parametrized family, or enumerated from a grid
or an explicit credal set).  Every higher level is a stack of weight
vectors drawn uniformly (flat Dirichlet, the TV-uniform law on the
simplex) over the level below — "complete agnosticism" iterated
upward.  The probability a level-``i`` particle implies for an event is
the weighted average of the implied probabilities one level down:

    v1[j] = base_j(E),      vi = W_i @ v(i-1),

so implied probabilities are matrix-vector chains through the tower.
As the order grows the per-particle values concentrate; the package's
convergence statistics quantify that contraction (the conjecture that
it always converges is examined empirically, not assumed).

Determinism: every level draws from generators spawned off one seed, a
separate stream per particle row, so results are byte-identical for a
given configuration regardless of how many worker threads fill the
rows.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import Event, _require_same_space, stable_sum
from .errors import AllDropped, ConfigInvalid, IndexOutOfRange
from .sets import CredalSet
from .tvuniform import (
    DEFAULT_ATOMS,
    CountingMeasure,
    ParamFamily,
    TvuMeasure,
    build_measure,
)

__all__ = [
    "TowerConfig",
    "Tower",
    "build_tower",
    "convergence_stats",
    "dilation_profile",
    "OrderStats",
    "DilationOrder",
    "DilationProfile",
]


@dataclass(frozen=True)
class TowerConfig:
    """Recipe for a tower.

    ``base`` is what level 1 ranges over: a parametrized family (or its
    prebuilt measure), or an explicit credal set.  ``base_mode`` selects
    how level 1 is populated: ``"tvu"`` samples ``base_samples``
    parameters from the uniform measure's density (discretized on
    ``base_atoms`` grid atoms, drawn with replacement), ``"grid"``
    enumerates a uniform inclusive parameter grid of ``base_samples``
    points (or the credal set's members verbatim).  Levels 2 and above
    each hold ``order_samples`` uniformly drawn weight vectors.
    """

    base: ParamFamily | TvuMeasure | CredalSet
    base_samples: int = 1601
    order_samples: int = 1601
    max_order: int = 5
    seed: int = 0
    base_mode: str = "tvu"
    base_atoms: int | None = None
    use_multiplicities: bool = False

    def __post_init__(self):
        if not isinstance(self.base, (ParamFamily, TvuMeasure, CredalSet)):
            raise ConfigInvalid(
                f"base must be a family, measure, or credal set, got {type(self.base).__name__}"
            )
        if self.base_samples < 1:
            raise ConfigInvalid("base_samples must be >= 1")
        if self.order_samples < 1:
            raise ConfigInvalid("order_samples must be >= 1")
        if self.max_order < 1:
            raise ConfigInvalid("max_order must be >= 1")
        if self.base_mode not in ("tvu", "grid"):
            raise ConfigInvalid(f"unknown base_mode {self.base_mode!r}")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigInvalid("seed must fit in an unsigned 64-bit integer")
        if self.base_atoms is not None and self.base_atoms < 2:
            raise ConfigInvalid("base_atoms must be >= 2")


class Tower:
    """A built tower: base probability rows plus per-level weight matrices."""

    __slots__ = ("config", "space", "base_probs", "base_params", "weights", "_chains")

    def __init__(self, config, space, base_probs, base_params, weights):
        base_probs = np.asarray(base_probs, dtype=np.float64)
        base_probs.setflags(write=False)
        for w in weights:
            w.setflags(write=False)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "base_probs", base_probs)
        object.__setattr__(self, "base_params", base_params)
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "_chains", {})

    def __setattr__(self, name, value):
        raise AttributeError("Tower is immutable")

    def __repr__(self) -> str:
        sizes = [self.base_probs.shape[0]] + [w.shape[0] for w in self.weights]
        return f"Tower(orders={len(sizes)}, sizes={sizes})"

    @property
    def max_order(self) -> int:
        return len(self.weights) + 1

    def n_particles(self, order: int) -> int:
        self._check_order(order)
        if order == 1:
            return self.base_probs.shape[0]
        return self.weights[order - 2].shape[0]

    def _check_order(self, order: int) -> None:
        if not 1 <= order <= self.max_order:
            raise IndexOutOfRange(f"order {order} outside 1..{self.max_order}")

    def base_event_probs(self, event: Event) -> np.ndarray:
        _require_same_space(self.space, event.space)
        if not event.indices:
            return np.zeros(self.base_probs.shape[0])
        return self.base_probs[:, list(event.indices)].sum(axis=1)

    def implied_vectors(self, event: Event) -> tuple[np.ndarray, ...]:
        """Per-order vectors of implied probabilities for the event.

        ``result[i-1][j]`` is the probability particle ``j`` of order
        ``i`` implies for the event.  Chains are cached per event.
        """
        key = ("event", event.indices)
        if key not in self._chains:
            self._chains[key] = self._chain(self.base_event_probs(event))
        return self._chains[key]

    def _chain(self, v1: np.ndarray) -> tuple[np.ndarray, ...]:
        out = [v1]
        for w in self.weights:
            # einsum keeps a fixed reduction order -> bit-reproducible
            out.append(np.einsum("ij,j->i", w, out[-1]))
        for v in out:
            v.setflags(write=False)
        return tuple(out)

    def implied_probability(self, order: int, index: int, event: Event) -> float:
        """Probability that particle ``index`` at ``order`` implies for the event."""
        self._check_order(order)
        vec = self.implied_vectors(event)[order - 1]
        if not 0 <= index < vec.shape[0]:
            raise IndexOutOfRange(f"particle {index} outside order {order}")
        return float(vec[index])


def _grid_params(family: ParamFamily, m: int) -> np.ndarray:
    if family.ndim != 1:
        raise ConfigInvalid("grid bases are defined for 1-D families")
    a, b = family.box.intervals[0]
    return np.linspace(a, b, m)


def _fill_weight_matrix(gen_parent, rows: int, cols: int, n_jobs: int) -> np.ndarray:
    """Flat-Dirichlet weight rows, one spawned stream per row.

    Row ``j`` depends only on the ``j``-th spawned generator, so the
    result is independent of ``n_jobs`` and of how rows are chunked.
    """
    gens = gen_parent.spawn(rows)
    out = np.empty((rows, cols), dtype=np.float64)

    def fill(j: int) -> None:
        x = gens[j].standard_exponential(cols)
        out[j] = x / x.sum()

    if n_jobs <= 1:
        for j in range(rows):
            fill(j)
    else:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            list(pool.map(fill, range(rows)))
    return out


def build_tower(cfg: TowerConfig, rng: np.random.Generator | None = None, n_jobs: int = 1) -> Tower:
    """Sample a tower per the config.

    ``rng`` defaults to a fresh generator seeded with ``cfg.seed``; pass
    one explicitly to place the tower inside a larger reproducible
    experiment.  ``n_jobs`` parallelizes weight-row sampling without
    changing any sampled value.
    """
    if n_jobs < 1:
        raise ConfigInvalid(f"need n_jobs >= 1, got {n_jobs}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    base_gen, *level_gens = rng.spawn(cfg.max_order)

    base = cfg.base
    params = None
    if isinstance(base, CredalSet):
        members = base.members
        mults = base.multiplicities if cfg.use_multiplicities else (1,) * len(members)
        rows = np.stack(
            [np.asarray([float(p) for p in m.probs], dtype=np.float64) for m in members]
        )
        space = base.space
        if cfg.base_mode == "grid":
            idx = np.repeat(np.arange(len(members)), mults)
        else:
            measure = CountingMeasure(base, use_multiplicities=cfg.use_multiplicities)
            idx = measure.sample_members(base_gen, cfg.base_samples)
        base_probs = rows[idx]
        params = idx.astype(np.float64)
    else:
        family = base.family if isinstance(base, TvuMeasure) else base
        space = family.space
        if cfg.base_mode == "grid":
            params = _grid_params(family, cfg.base_samples)
        else:
            measure = base if isinstance(base, TvuMeasure) else build_measure(family)
            params = measure.sample_params(
                base_gen, cfg.base_samples, atoms=cfg.base_atoms or DEFAULT_ATOMS
            )
        base_probs = family.probs_matrix(np.asarray(params)[:, None])

    weights = []
    prev = base_probs.shape[0]
    for level in range(2, cfg.max_order + 1):
        w = _fill_weight_matrix(level_gens[level - 2], cfg.order_samples, prev, n_jobs)
        weights.append(w)
        prev = cfg.order_samples

    return Tower(cfg, space, base_probs, params, weights)


@dataclass(frozen=True)
class OrderStats:
    """Summary of one order's implied probabilities for one event."""

    order: int
    n: int
    mean: float
    sd: float
    vmin: float
    vmax: float
    max_dev_from_reference: float | None
    values: np.ndarray = field(repr=False)


def _summary(values, reference=None):
    mean = stable_sum(values) / values.size
    sd = float(np.sqrt(stable_sum((values - mean) ** 2) / values.size))
    dev = None if reference is None else float(np.max(np.abs(values - reference)))
    return mean, sd, dev


def convergence_stats(
    tower: Tower, event: Event, reference: float | None = None
) -> list[OrderStats]:
    """Per-order spread of the event's implied probabilities.

    ``reference`` (e.g. the exact uniform-measure probability of the
    event) adds a worst-case deviation column.
    """
    out = []
    for order, values in enumerate(tower.implied_vectors(event), start=1):
        mean, sd, dev = _summary(values, reference)
        out.append(
            OrderStats(
                order=order,
                n=int(values.size),
                mean=float(mean),
                sd=sd,
                vmin=float(values.min()),
                vmax=float(values.max()),
                max_dev_from_reference=dev,
                values=values,
            )
        )
    return out


@dataclass(frozen=True)
class DilationOrder:
    """One order's conditional implied probabilities and their spread.

    ``weighted_mean`` aggregates the order as a whole: the ratio of the
    summed joint chain to the summed conditioning chain, i.e. the
    conditional probability under the uniform mixture of the order's
    particles.  ``n_excluded`` counts particles whose conditioning mass
    was zero (their conditional value is undefined).
    """

    order: int
    n: int
    n_excluded: int
    mean: float
    sd: float
    weighted_mean: float
    vmin: float
    vmax: float
    values: np.ndarray = field(repr=False)

    def band_fraction(self, lo: float, hi: float) -> float:
        """Fraction of this order's values strictly inside (lo, hi)."""
        if self.values.size == 0:
            return 0.0
        inside = (self.values > lo) & (self.values < hi)
        return float(inside.mean())


@dataclass(frozen=True)
class DilationProfile:
    """Conditional implied probabilities of ``query`` given ``pre_event``."""

    pre_event: Event
    query_event: Event
    n_dropped: int
    orders: tuple[DilationOrder, ...]

    def order(self, i: int) -> DilationOrder:
        for o in self.orders:
            if o.order == i:
                return o
        raise IndexOutOfRange(f"no order {i} in profile")


def dilation_profile(tower: Tower, pre_event: Event, query_event: Event) -> DilationProfile:
    """Condition every particle of every order on ``pre_event``.

    Base particles assigning zero probability to ``pre_event`` are
    dropped from level 1 (and contribute nothing upward); if all of them
    do, :class:`~credal.errors.AllDropped` is raised.  For order ``i``,
    each particle's conditional is the ratio of its implied joint
    probability to its implied conditioning probability.
    """
    joint = query_event.intersect(pre_event)
    b1 = tower.base_event_probs(pre_event)
    a1 = tower.base_event_probs(joint)
    alive = b1 > 0.0
    n_dropped = int((~alive).sum())
    if not alive.any():
        raise AllDropped("every base particle assigns zero mass to the conditioning event")

    a_chain = tower._chain(a1)
    b_chain = tower._chain(b1)

    orders = []
    for order, (a, b) in enumerate(zip(a_chain, b_chain), start=1):
        ok = (b > 0.0) if order > 1 else alive
        values = a[ok] / b[ok]
        num, den = stable_sum(a[ok]), stable_sum(b[ok])
        weighted = num / den
        mean = stable_sum(values) / values.size
        sd = float(np.sqrt(stable_sum((values - mean) ** 2) / values.size))
        values = values.copy()
        values.setflags(write=False)
        orders.append(
            DilationOrder(
                order=order,
                n=int(values.size),
                n_excluded=int((~ok).sum()),
                mean=float(mean),
                sd=sd,
                weighted_mean=float(weighted),
                vmin=float(values.min()),
                vmax=float(values.max()),
                values=values,
            )
        )
    return DilationProfile(
        pre_event=pre_event,
        query_event=query_event,
        n_dropped=n_dropped,
        orders=tuple(orders),
    )
