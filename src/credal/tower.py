"""Monte-Carlo towers: higher-order uncertainty over credal sets.

Level 1 of a tower is a stack of base distributions (sampled from the
uniform measure over a parametrized family, or enumerated from a grid
or an explicit credal set).  A sampled base is drawn from the measure
itself: its particles are the measure's own quadrature nodes (or the
credal set's members), taken by stratified inverse-CDF sampling over
their masses, so the base's mean implied probability of any event
matches the measure's ``event_prob`` up to the stratification error.
Every higher level is a stack of mixtures whose weights are drawn
uniformly (flat Dirichlet, the TV-uniform law on the simplex) over the
level below — "complete agnosticism" iterated upward.  A mixture of
distributions is itself a distribution over the outcomes, so the tower
stores each level as a particles × outcomes matrix:

    V_1 = base probabilities,      V_i = W_i @ V_(i-1),

and the probability an order-``i`` particle implies for an event is a
column sum of its row, ``V_i[:, E].sum(1)``.  As the order grows the
per-particle values concentrate; the package's convergence statistics
quantify that contraction (the conjecture that it always converges is
examined empirically, not assumed).  Given level ``i - 1`` with ``S``
particles whose implied values have mean ``m`` and population variance
``s^2``, an order-``i`` particle's value has mean ``m`` and variance
``s^2 / (S + 1)`` (a Bayesian-bootstrap replicate of the level's mean;
Rubin 1981).  The top order therefore settles on the base sample's
mean, which is why the base is drawn from the measure.

The weight matrices ``W_i`` are never held.  A level is built in blocks
of ``BLOCK_ROWS`` rows: a block draws its unnormalized weights for
``DRAW_ROWS`` rows of ``V_(i-1)`` at a time, accumulates their products
with those rows and their totals, and divides once.  A level mixes over
the ``S_(i-1)`` rows of the level below, except level 2 over a sampled
base: the base repeats rows (a heavy node or member is drawn several
times, in one run), and a flat Dirichlet over ``S`` particles, summed
over runs of equal particles, is ``Dirichlet(c_1, ..., c_D)`` over the
``D`` distinct ones (the aggregation property; Ferguson 1973), just as
a sum of ``c`` standard exponentials is ``Gamma(c, 1)``.  So level 2
mixes the ``D`` distinct base rows, each weight one ``Gamma(c_u)`` draw,
and its law is unchanged.  Building level ``i`` costs S_i · (width
mixed over) · (|outcomes| + 1) multiply-adds and holds, beyond the
levels, one workspace of at most 2**15 draws per worker thread.  Every
later event query is a column sum, so a tower over many outcomes queried
for one event does more work than one matrix-vector chain per event would.

Determinism: ``default_rng(seed).spawn(max_order)`` gives one stream per
order; order 1 takes the base's stratification offsets from the first,
and order ``i`` spawns one child stream per block from the ``i``-th (see
``STREAMS``).  A block's values depend only on its stream, and
``einsum`` sums them in fixed chunks, so results are byte-identical for
a configuration and SIMD dispatch whatever the number of worker threads
or BLAS threads.  With ``n_jobs == 1`` the calling thread fills the
blocks in order, and no thread pool is made; more jobs share one
``ThreadPoolExecutor`` that runs the same per-block function.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .core import MAX_GRID_CELLS, Event, _Frozen, _integer, _require_event, stable_sum
from .errors import AllDropped, ConfigInvalid, IndexOutOfRange
from .sets import CredalSet
from .tvuniform import CountingMeasure, ParamFamily, TvuMeasure, _stratified_indices, build_measure

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

# Rows per sampling block; the block layout (not the thread count) fixes
# which stream draws which row.
BLOCK_ROWS = 256

# Rows of the level below per weight chunk: a block draws their weights
# into one workspace of at most DRAW_ROWS x BLOCK_ROWS = 2**15 float64
# cells (256 KB), whatever the number of particles mixed over.
DRAW_ROWS = 128

STREAMS = (
    "rng.spawn(max_order): stream 1 draws one uniform offset per order-1 particle "
    "(stratified inverse CDF over the measure's node masses or the set's weights; "
    "unused by a grid base); order i spawns "
    f"ceil(S_i / {BLOCK_ROWS}) block streams from stream i, and block b draws "
    f"rows [{BLOCK_ROWS}b, {BLOCK_ROWS}(b + 1)) weight-major, {DRAW_ROWS} rows of "
    "level i - 1 at a time: the same sequence as one C-order (S_(i-1) x rows) "
    "random array U, row r weighting row u below by -log(1 - U[u, r]); order 2 "
    "over a base with repeated rows instead weights each of its D distinct rows "
    "u by standard_gamma(c_u), c_u the run length of row u, drawn the same way: "
    "one (D x rows) standard_gamma array with shape c[:, None]"
)


class TowerConfig(_Frozen):
    """Recipe for a tower.

    ``base`` is what level 1 ranges over: a parametrized family (or its
    prebuilt measure), or a finite :class:`~credal.sets.CredalSet`, whose
    uniform measure counts each member once (to weight members by their
    merge multiplicities, pass the set with each member repeated by its
    multiplicity).  A :class:`~credal.tvuniform.CountingMeasure` is
    refused: pass its ``credal_set``.
    ``base_mode`` selects how level 1 is populated: ``"tvu"`` draws
    ``base_samples`` particles from the uniform measure (its quadrature
    nodes by stratified inverse-CDF sampling over their masses, so a
    heavy node is drawn more than once, or the set's members, each about
    ``base_samples / m`` times), ``"grid"`` enumerates a uniform
    inclusive parameter grid of ``base_samples`` points (or each of the
    set's members once).  Levels 2 and above each hold ``order_samples``
    uniformly drawn weight vectors; over a base that repeats rows, level
    2 draws one weight per distinct row, a ``Gamma(c)`` for a row drawn
    ``c`` times, which is the same law.  ``seed`` seeds every random stream.
    """

    __slots__ = ("base", "base_samples", "order_samples", "max_order", "seed", "base_mode")

    def __init__(
        self,
        base: ParamFamily | TvuMeasure | CredalSet,
        base_samples: int = 1601,
        order_samples: int = 1601,
        max_order: int = 5,
        seed: int = 0,
        base_mode: str = "tvu",
    ):
        if not isinstance(base, (ParamFamily, TvuMeasure, CredalSet)):
            hint = "; pass its .credal_set" if isinstance(base, CountingMeasure) else ""
            raise ConfigInvalid(
                f"base must be a family, measure, or credal set, got {type(base).__name__}{hint}"
            )
        counts = {name: _integer(name, value) for name, value in (
            ("base_samples", base_samples), ("order_samples", order_samples),
            ("max_order", max_order), ("seed", seed))}
        for name in ("base_samples", "order_samples", "max_order"):
            if counts[name] < 1:
                raise ConfigInvalid(f"{name} must be >= 1")
        if base_mode not in ("tvu", "grid"):
            raise ConfigInvalid(f"unknown base_mode {base_mode!r}")
        if not (0 <= counts["seed"] < 2**64):
            raise ConfigInvalid("seed must fit in an unsigned 64-bit integer")
        self._init(base=base, **counts, base_mode=base_mode)


class Tower(_Frozen):
    """A built tower: one stack of particle distributions per order.

    ``levels[i - 1]`` is the (particles × outcomes) matrix whose rows are
    the order-``i`` particles as distributions over the outcome space;
    ``levels[0]`` is ``base_probs``.  ``meta`` records the layout:
    ``level_sizes``, ``bytes_held`` (the levels' bytes), ``block_rows``,
    ``mixed_over`` (how many weights each row of levels 2 and up draws),
    ``draw_rows`` (rows of the level below per weight chunk),
    ``workspace_bytes`` (one worker's draw workspace, the largest over
    levels) and ``streams`` (how each level's random stream is derived).
    """

    __slots__ = ("config", "space", "levels", "base_params", "meta")

    def __init__(self, config, space, levels, base_params, mixed_over):
        levels = tuple(np.asarray(v, dtype=np.float64) for v in levels)
        self._init(config=config, space=space, levels=levels, base_params=base_params, meta={
            "level_sizes": [v.shape[0] for v in levels],
            "bytes_held": sum(v.nbytes for v in levels),
            "block_rows": BLOCK_ROWS,
            "mixed_over": mixed_over,
            "draw_rows": DRAW_ROWS,
            "workspace_bytes": max(
                (min(DRAW_ROWS, width) * min(BLOCK_ROWS, v.shape[0]) * 8
                 for width, v in zip(mixed_over, levels[1:])),
                default=0,
            ),
            "streams": STREAMS,
        })

    def __repr__(self) -> str:
        return f"Tower(orders={self.max_order}, sizes={self.meta['level_sizes']})"

    @property
    def base_probs(self) -> np.ndarray:
        return self.levels[0]

    @property
    def max_order(self) -> int:
        return len(self.levels)

    def n_particles(self, order: int) -> int:
        order = _integer("order", order)
        if not 1 <= order <= self.max_order:
            raise IndexOutOfRange(f"order {order} outside 1..{self.max_order}")
        return self.levels[order - 1].shape[0]

    def implied_vectors(self, event: Event) -> tuple[np.ndarray, ...]:
        """Per-order vectors of implied probabilities for the event.

        ``result[i-1][j]`` is the probability particle ``j`` of order
        ``i`` implies for the event: the event's column sum of its row.
        """
        _require_event(self.space, event)
        cols = list(event.indices)
        return tuple(v[:, cols].sum(axis=1) for v in self.levels)


def _grid_params(family: ParamFamily, m: int) -> np.ndarray:
    if family.ndim != 1:
        raise ConfigInvalid("grid bases are defined for 1-D families")
    a, b = family.box.intervals[0]
    return np.linspace(a, b, m)


def _mix_level(gen_parent, rows: int, prev: np.ndarray, block_map, shape=None) -> np.ndarray:
    """``rows`` Dirichlet mixtures of ``prev``'s rows, in blocks of ``BLOCK_ROWS``.

    The weights are flat over ``prev``'s S rows, or ``Dirichlet(shape)``
    when ``shape`` gives one positive parameter per row of ``prev``.
    Block ``b`` fills its rows from the ``b``-th stream spawned off
    ``gen_parent``, weight-major: for each chunk of ``DRAW_ROWS`` rows of
    ``prev`` it draws their weights for every row of the block into one
    reused (chunk × block) workspace ``x``, flat ones as ``log(1 - U)``
    (minus standard exponentials, so ``prev`` is negated to keep every
    product non-negative and a zero ``+0.0``) and Dirichlet ones as
    ``standard_gamma(shape)``, and adds ``[prev | 1].T @ x`` to an
    accumulator whose last row is the weights' total; the block's rows
    are the products over that total.  ``einsum`` (never BLAS, whose sums
    depend on its thread count) sums each chunk in order, so the values
    depend on ``BLOCK_ROWS`` and ``DRAW_ROWS``, never on the thread count.
    ``block_map`` runs the blocks: the builtin ``map`` on the calling
    thread, or a thread pool's ``map``.
    """
    gens = gen_parent.spawn(-(-rows // BLOCK_ROWS))
    width, outcomes = prev.shape
    sign = -1.0 if shape is None else 1.0
    prev1 = np.full((width, outcomes + 1), sign)
    np.multiply(prev, sign, out=prev1[:, :-1])
    out = np.empty((rows, outcomes), dtype=np.float64)

    def fill(b: int) -> None:
        block = out[b * BLOCK_ROWS:(b + 1) * BLOCK_ROWS]
        workspace = np.empty((min(DRAW_ROWS, width), block.shape[0]), dtype=np.float64)
        acc, part = np.zeros((2, outcomes + 1, block.shape[0]), dtype=np.float64)
        for lo in range(0, width, DRAW_ROWS):
            x = workspace[:min(DRAW_ROWS, width - lo)]
            if shape is None:
                np.log(np.subtract(1.0, gens[b].random(out=x), out=x), out=x)
            else:
                gens[b].standard_gamma(shape[lo:lo + DRAW_ROWS, None], out=x)
            np.einsum("ji,jk->ki", x, prev1[lo:lo + DRAW_ROWS], out=part)
            acc += part
        np.divide(acc[:-1], acc[-1], out=part[:-1])
        block[:] = part[:-1].T

    list(block_map(fill, range(len(gens))))
    return out


def _check_size(cfg: TowerConfig, base_rows: int, outcomes: int) -> None:
    """Refuse a tower whose levels pass ``MAX_GRID_CELLS`` cells.

    The weight draws need no bound of their own: a worker thread holds
    one workspace of ``min(DRAW_ROWS, W) * min(BLOCK_ROWS, S_i) <= 2**15``
    cells for any width ``W`` mixed over.
    """
    held = (base_rows + (cfg.max_order - 1) * cfg.order_samples) * outcomes
    if held > MAX_GRID_CELLS:
        raise ConfigInvalid(f"the tower needs {held} cells, above {MAX_GRID_CELLS}")


def build_tower(cfg: TowerConfig, n_jobs: int = 1) -> Tower:
    """Sample a tower per the config.

    Every random stream derives from ``cfg.seed`` (see ``STREAMS``), so
    a config fixes the tower's bytes.  ``n_jobs`` threads fill a level's
    blocks without changing any value; with ``n_jobs == 1`` the calling
    thread fills them in order, and no thread is started.
    """
    if _integer("n_jobs", n_jobs) < 1:
        raise ConfigInvalid(f"need n_jobs >= 1, got {n_jobs}")
    base = cfg.base
    finite = isinstance(base, CredalSet)
    family = base.family if isinstance(base, TvuMeasure) else base
    space = base.space if finite else family.space
    base_rows = len(base) if finite and cfg.base_mode == "grid" else cfg.base_samples
    _check_size(cfg, base_rows, len(space))
    base_gen, *level_gens = np.random.default_rng(cfg.seed).spawn(cfg.max_order)

    if finite:
        m = len(base)
        idx = (np.arange(m) if cfg.base_mode == "grid"
               else _stratified_indices(np.full(m, 1 / m), base_gen, cfg.base_samples))
        base_probs = np.stack([np.asarray(d.probs, dtype=np.float64) for d in base.members])[idx]
        params = idx.astype(np.float64)
    else:
        if cfg.base_mode == "grid":
            params = _grid_params(family, cfg.base_samples)
        else:
            measure = base if isinstance(base, TvuMeasure) else build_measure(family)
            params = measure.sample_params(base_gen, cfg.base_samples)
        base_probs = family.probs_matrix(params[:, None])

    # A stratified draw repeats a row in one run; level 2 mixes each run's
    # row once, weighted by a Gamma of the run's length (see the module doc).
    starts = np.flatnonzero(np.r_[True, params[1:] != params[:-1]])
    prev, shape = base_probs, None
    if starts.size < params.size:
        prev, shape = base_probs[starts], np.diff(np.r_[starts, params.size]).astype(np.float64)
    levels, mixed_over = [base_probs], []
    with contextlib.ExitStack() as stack:
        block_map = map  # one thread fills the blocks in order, on this thread
        if n_jobs > 1:
            from concurrent.futures import ThreadPoolExecutor
            block_map = stack.enter_context(ThreadPoolExecutor(max_workers=n_jobs)).map
        for gen in level_gens:
            mixed_over.append(prev.shape[0])
            levels.append(_mix_level(gen, cfg.order_samples, prev, block_map, shape))
            prev, shape = levels[-1], None
    return Tower(cfg, space, levels, params, mixed_over)


class OrderStats(_Frozen):
    """Summary of one order's implied probabilities for one event."""

    __slots__ = ("order", "n", "mean", "sd", "vmin", "vmax", "max_dev_from_reference", "values")


def _summary(order: int, values: np.ndarray) -> dict:
    """The fields every per-order report shares, from that order's values."""
    mean = stable_sum(values) / values.size
    sd = float(np.sqrt(stable_sum((values - mean) ** 2) / values.size))
    return dict(order=order, n=int(values.size), mean=float(mean), sd=sd,
                vmin=float(values.min()), vmax=float(values.max()), values=values)


def convergence_stats(
    tower: Tower, event: Event, reference: float | None = None
) -> list[OrderStats]:
    """Per-order spread of the event's implied probabilities.

    ``reference`` (e.g. the exact uniform-measure probability of the
    event) adds a worst-case deviation column.
    """
    return [
        OrderStats(
            **_summary(order, values),
            max_dev_from_reference=(
                None if reference is None else float(np.max(np.abs(values - reference)))
            ),
        )
        for order, values in enumerate(tower.implied_vectors(event), start=1)
    ]


class DilationOrder(_Frozen):
    """One order's conditional implied probabilities and their spread.

    ``weighted_mean`` aggregates the order as a whole: the ratio of the
    summed joint chain to the summed conditioning chain, i.e. the
    conditional probability under the uniform mixture of the order's
    particles.  ``n_excluded`` counts particles whose conditioning mass
    was zero (their conditional value is undefined).
    """

    __slots__ = ("order", "n", "n_excluded", "mean", "sd", "weighted_mean", "vmin", "vmax",
                 "values")

    def band_fraction(self, lo: float, hi: float) -> float:
        """Fraction of this order's values strictly inside (lo, hi)."""
        if self.values.size == 0:
            return 0.0
        inside = (self.values > lo) & (self.values < hi)
        return float(inside.mean())


class DilationProfile(_Frozen):
    """Conditional implied probabilities of ``query`` given ``pre_event``."""

    __slots__ = ("pre_event", "query_event", "n_dropped", "orders")

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
    _require_event(tower.space, pre_event)
    a_chain = tower.implied_vectors(pre_event.intersect(query_event))
    b_chain = tower.implied_vectors(pre_event)
    n_dropped = int((b_chain[0] <= 0.0).sum())
    if n_dropped == b_chain[0].size:
        raise AllDropped("every base particle assigns zero mass to the conditioning event")

    orders = []
    for order, (a, b) in enumerate(zip(a_chain, b_chain), start=1):
        ok = b > 0.0
        values = a[ok] / b[ok]
        orders.append(DilationOrder(**_summary(order, values), n_excluded=int((~ok).sum()),
                                    weighted_mean=float(stable_sum(a[ok]) / stable_sum(b[ok]))))
    return DilationProfile(
        pre_event=pre_event,
        query_event=query_event,
        n_dropped=n_dropped,
        orders=tuple(orders),
    )
