"""The uniform reference measure on simply parametrized credal sets.

A *simply parametrized family* is a map ``x -> f(x)`` from a box of
parameters into the probability simplex.  "Uniform over the family"
is defined geometrically: mass proportional to how much total-variation
distance the family sweeps per unit of parameter, so that the measure is
invariant under reparametrization.  The local sweep rate in parameter
slot ``k`` is the *thickness*

    t_k(x) = lim_{h -> 0} TV(f(x), f(x + h e_k)) / |h|,

and the unnormalized density is the product ``rho(x) = prod_k t_k(x)``.
Two regimes are supported:

* an explicit finite credal set, where "uniform" degenerates to the
  counting measure over the (distinct) members; and
* a continuously parametrized family, where event probabilities are
  integrals ``(1/Z) * int rho(x) * f(x)(E) dx`` evaluated by adaptive
  Gauss-Legendre quadrature with panels split at the registered kink
  locations of the thickness.  A tolerance the quadrature cannot reach
  raises :class:`~credal.errors.QuadratureNotConverged`.

The measure is a mixture of the family's distributions, so one vector
over the outcomes answers every event: at construction it sums the
unnormalized per-outcome masses ``m_o = sum_i weight_i * density_i *
f(x_i)_o`` in one pass over the nodes, and an event's probability is
``m[E].sum() / Z``.  The pass evaluates ``BLOCK_ROWS`` nodes at a time,
sums each block pairwise, then sums the block partials pairwise; no
nodes x outcomes matrix is ever held.  Building costs one evaluation of
every node's distribution, each block written into one reused workspace
(about 1.6 MB at ``n = 400``); each event then costs ``|E|`` additions.
Every term is non-negative, so each sum is accurate to a few ulps of the
total (Higham 1993, "The accuracy of floating point summation"), and the
block size is a constant, so the reduction order and every result are
the same on every run.

The binomial head-count family is the fully worked example.  Half the
L1 norm of the pmf's derivative has a closed form (de Moivre's mean
absolute deviation; Diaconis & Zabell 1991): on ``[j/n, (j+1)/n]`` the
thickness is ``n * C(n-1, j) * p^j * (1-p)^(n-1-j)``.  It has sharp
points at ``k/n``, equals ``n`` at both endpoints, and its normalizer for
``n = 10`` is ``3.66021568``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    Event,
    FiniteDistribution,
    OutcomeSpace,
    RationalDistribution,
    _require_same_space,
    stable_sum,
)
from .errors import (
    ConfigInvalid,
    DegenerateFamily,
    IndexOutOfRange,
    LengthMismatch,
    QuadratureNotConverged,
    SpaceMismatch,
    StepTooLarge,
    ZeroEvidence,
)
from .sets import CredalSet

__all__ = [
    "ParamBox",
    "ParamFamily",
    "thickness",
    "tvu_density",
    "build_measure",
    "TvuMeasure",
    "CountingMeasure",
    "binomial_family",
    "bernoulli_family",
    "coin_match_family",
    "product_family",
    "product_space",
    "component_event",
    "iid_extension",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

# Parameter rows whose distributions are evaluated at a time when a node
# set or a grid is reduced over the outcomes.  A constant, so that the
# summation order, and with it every result, never varies.
BLOCK_ROWS = 512


def _prob_blocks(family: ParamFamily, xs: np.ndarray):
    """Yield ``(rows, block, probs)`` for each ``BLOCK_ROWS`` slice of ``xs``.

    Every block is evaluated into one outcome-major workspace, so a pass
    allocates one block's worth of memory however many blocks it has.
    ``block`` is the slice's ``(|outcomes|, rows)`` view of it, and
    ``probs`` is ``block.T`` unless the family returned a fresh array.
    """
    n = xs.shape[0]
    work = np.empty((len(family.space), min(BLOCK_ROWS, n)))
    for lo in range(0, n, BLOCK_ROWS):
        rows = slice(lo, min(lo + BLOCK_ROWS, n))
        block = work[:, : rows.stop - lo]
        yield rows, block, family.probs_matrix(xs[rows], out=block.T)


def _stratified_indices(mass: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` indices drawn from the non-negative weights ``mass``.

    Stratified inverse-CDF sampling (Owen 2013, ch. 10): draw ``i`` is
    the index whose cumulative mass interval holds the point
    ``(i + u_i) / size`` of the total, with ``u_i`` uniform from ``rng``.
    Each index ``j`` is drawn ``size * mass_j / sum(mass)`` times give
    or take less than two, and the draws come out in index order.  A point that
    rounding puts at or past the total falls back to the last index of
    positive mass, so no draw lands past the end or on a zero weight.
    """
    if size < 1:
        raise ConfigInvalid("need size >= 1")
    cdf = np.cumsum(mass)
    points = (np.arange(size) + rng.random(size)) * (cdf[-1] / size)
    idx = np.searchsorted(cdf, points, side="right")
    return np.minimum(idx, np.flatnonzero(mass)[-1])


class ParamBox:
    """An axis-aligned box of parameters: one closed interval per slot."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Sequence[tuple[float, float]]):
        ivs = tuple((float(a), float(b)) for a, b in intervals)
        if not ivs:
            raise ConfigInvalid("a parameter box needs at least one slot")
        for a, b in ivs:
            if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
                raise ConfigInvalid(f"invalid interval ({a}, {b})")
        object.__setattr__(self, "intervals", ivs)

    def __setattr__(self, name, value):
        raise AttributeError("ParamBox is immutable")

    @property
    def ndim(self) -> int:
        return len(self.intervals)

    def __repr__(self) -> str:
        return f"ParamBox({list(self.intervals)!r})"

    def contains(self, x) -> bool:
        x = _as_point(x, self.ndim)
        return all(a <= xi <= b for xi, (a, b) in zip(x, self.intervals))

    def clip(self, x) -> tuple:
        x = _as_point(x, self.ndim)
        return tuple(min(max(xi, a), b) for xi, (a, b) in zip(x, self.intervals))


def _as_point(x, ndim: int) -> tuple:
    if np.isscalar(x):
        pt = (float(x),)
    else:
        pt = tuple(float(v) for v in np.atleast_1d(np.asarray(x, dtype=float)))
    if len(pt) != ndim:
        raise LengthMismatch(f"expected a {ndim}-dimensional parameter, got {len(pt)}")
    return pt


class ParamFamily:
    """A parametrized family of distributions over a fixed outcome space.

    ``probs_batch(xs, out)`` maps an ``(N, ndim)`` array of parameter
    points to the ``(N, |outcomes|)`` matrix of their probability
    vectors; it is the family's one evaluation path, and :meth:`probs`
    reads a single point as a one-row batch.  ``out`` is a writable,
    possibly strided ``(N, |outcomes|)`` float array that the stock
    families fill and return; a family may return a fresh array instead.
    Only the shape is checked: normalization is the family's contract.
    Optional registrations sharpen the geometry:

    * ``kinks[k]``: interior parameter values where the thickness in
      slot ``k`` is not smooth (quadrature panels never straddle them,
      finite differences never step across them);
    * ``thickness_batch[k]``: closed-form thickness for slot ``k``,
      taking the same ``(N, ndim)`` array and returning ``N`` values.

    A slot without a registered thickness falls back to the
    finite-difference estimator :func:`thickness`, point by point.
    """

    __slots__ = ("box", "space", "probs_batch_fn", "kinks", "thickness_batch_fns", "name", "meta")

    def __init__(
        self,
        box: ParamBox,
        space: OutcomeSpace,
        probs_batch: Callable,
        *,
        kinks: Sequence[Sequence[float]] | None = None,
        thickness_batch: Sequence[Callable | None] | None = None,
        name: str = "",
        meta: dict | None = None,
    ):
        d = box.ndim
        if kinks is None:
            kinks = ((),) * d
        else:
            if len(kinks) != d:
                raise ConfigInvalid("one kink list per parameter slot required")
            kinks = tuple(tuple(sorted(float(v) for v in ks)) for ks in kinks)
            for (a, b), ks in zip(box.intervals, kinks):
                if any(not a < v < b for v in ks):
                    raise ConfigInvalid("kinks must lie strictly inside the box")
        if thickness_batch is None:
            thickness_batch = (None,) * d
        elif len(thickness_batch) != d:
            raise ConfigInvalid("one batch thickness per parameter slot required")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "probs_batch_fn", probs_batch)
        object.__setattr__(self, "kinks", kinks)
        object.__setattr__(self, "thickness_batch_fns", tuple(thickness_batch))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "meta", dict(meta or {}))

    def __setattr__(self, name, value):
        raise AttributeError("ParamFamily is immutable")

    def __repr__(self) -> str:
        tag = self.name or "family"
        return f"ParamFamily({tag!r}, ndim={self.box.ndim}, space={self.space!r})"

    @property
    def ndim(self) -> int:
        return self.box.ndim

    def probs(self, x) -> np.ndarray:
        """Probability vector at parameter ``x`` in the box.

        Only its shape is checked; normalization is the family's contract.
        """
        x = _as_point(x, self.ndim)
        if not self.box.contains(x):
            raise IndexOutOfRange(f"parameter {x} outside the box")
        return self.probs_matrix(np.array([x]))[0]

    def probs_matrix(self, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Probability vectors at each row of ``xs`` (shape (N, ndim)),
        filled into ``out`` when the family supports it (allocated if omitted)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        if xs.shape[1] != self.ndim:
            raise LengthMismatch(f"expected (N, {self.ndim}) parameter rows")
        if out is None:
            out = np.empty((xs.shape[0], len(self.space)))
        out = np.asarray(self.probs_batch_fn(xs, out), dtype=np.float64)
        if out.shape != (xs.shape[0], len(self.space)):
            raise LengthMismatch(
                f"family returned shape {out.shape}, expected ({xs.shape[0]}, {len(self.space)})"
            )
        return out

    def eval(self, x) -> FiniteDistribution:
        return FiniteDistribution(self.space, self.probs(x))

    __call__ = eval

    def event_probs(self, xs: np.ndarray, event: Event) -> np.ndarray:
        """The event's probability at each row of ``xs``, ``BLOCK_ROWS`` rows at a time."""
        _require_same_space(self.space, event.space)
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        cols = list(event.indices)
        out = np.empty(xs.shape[0])
        for rows, _, probs in _prob_blocks(self, xs):
            out[rows] = probs[:, cols].sum(axis=1)
        return out


# ---------------------------------------------------------------------------
# Thickness estimation
# ---------------------------------------------------------------------------

# Relative half-width (in units of the slot's interval length) below
# which a point counts as sitting on a kink or boundary.
_KINK_SNAP = 1e-9


def _breakpoints(family: ParamFamily, k: int) -> np.ndarray:
    a, b = family.box.intervals[k]
    return np.array([a, *family.kinks[k], b])


def thickness(family: ParamFamily, x, k: int = 0, h: float | None = None) -> float:
    """Finite-difference estimate of the thickness in parameter slot ``k``.

    Richardson-extrapolated one-sided differences are taken on each side
    of ``x`` that has room, never stepping across a registered kink or
    box boundary; the two sides are averaged when both exist, which at a
    kink yields the mean of the one-sided limits.  ``h`` defaults to
    ``1e-5`` times the slot's interval length and must fit inside it.
    """
    x = _as_point(x, family.ndim)
    if not family.box.contains(x):
        raise IndexOutOfRange(f"parameter {x} outside the box")
    if not 0 <= k < family.ndim:
        raise IndexOutOfRange(f"no parameter slot {k}")
    a, b = family.box.intervals[k]
    span = b - a
    if h is None:
        h = 1e-5 * span
    if not 0.0 < h <= span:
        raise StepTooLarge(f"step {h} does not fit in interval of length {span}")

    xk = x[k]
    bps = _breakpoints(family, k)
    snap = _KINK_SNAP * span
    # Room to move on each side before hitting the next breakpoint.
    above = bps[bps > xk + snap]
    below = bps[bps < xk - snap]
    room_r = float(above[0] - xk) if above.size else 0.0
    room_l = float(xk - below[-1]) if below.size else 0.0

    base = np.asarray(family.probs(x))

    def one_sided(sign: float, room: float) -> float | None:
        step = min(h, room)
        if step <= 0.0:
            return None

        def rate(s: float) -> float:
            y = list(x)
            y[k] = xk + sign * s
            shifted = np.asarray(family.probs(tuple(y)))
            return 0.5 * stable_sum(np.abs(shifted - base)) / s

        d1, d2 = rate(step), rate(step / 2.0)
        return 2.0 * d2 - d1  # cancels the O(h) term of the one-sided quotient

    right = one_sided(+1.0, room_r)
    left = one_sided(-1.0, room_l)
    sides = [v for v in (right, left) if v is not None]
    if not sides:  # pragma: no cover - box validation makes this unreachable
        raise StepTooLarge("no room for a finite-difference step")
    return float(np.mean(sides))


def _thickness_column(family: ParamFamily, xs: np.ndarray, k: int) -> np.ndarray:
    """Thickness values for slot ``k`` at each parameter row, batched."""
    batch = family.thickness_batch_fns[k]
    if batch is not None:
        return np.asarray(batch(xs), dtype=np.float64)
    return np.asarray([thickness(family, tuple(row), k) for row in xs])


def tvu_density(family: ParamFamily, x) -> float:
    """Unnormalized uniformity density: product of per-slot thicknesses."""
    x = _as_point(x, family.ndim)
    row = np.asarray([x], dtype=np.float64)
    value = 1.0
    for k in range(family.ndim):
        value *= float(_thickness_column(family, row, k)[0])
    return value


def _density_rows(family: ParamFamily, xs: np.ndarray) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    out = np.ones(xs.shape[0])
    for k in range(family.ndim):
        out *= _thickness_column(family, xs, k)
    if not np.all(np.isfinite(out)) or np.any(out < 0.0):
        raise DegenerateFamily("density must be finite and non-negative")
    return out


# ---------------------------------------------------------------------------
# Quadrature construction
# ---------------------------------------------------------------------------


def _panel_edges(breakpoints: np.ndarray, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Starting panels ``[lo_i, hi_i]``: each breakpoint segment cut into
    equal parts in proportion to its length, about ``resolution`` in all."""
    total_len = breakpoints[-1] - breakpoints[0]
    edges = []
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        if b <= a:
            continue
        parts = max(1, math.ceil(resolution * (b - a) / total_len))
        edges.append(np.linspace(a, b, parts + 1))
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    return lo, hi


def _gl_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre 8 nodes and weights on each panel, shape ``(P, 8)``."""
    c, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return c[:, None] + half[:, None] * _GL_NODES, half[:, None] * _GL_WEIGHTS


class _Panel(NamedTuple):
    """One quadrature panel: its 16 half-rule nodes, weights and density
    values, the two half integrals, their sum, and that sum's distance
    from the whole-panel rule as the local error estimate."""

    lo: float
    hi: float
    nodes: np.ndarray
    weights: np.ndarray
    rho: np.ndarray
    halves: np.ndarray
    value: float
    err: float


def _split_rules(dens, lo: np.ndarray, hi: np.ndarray, whole: np.ndarray) -> list[_Panel]:
    """Half-panel GL-8 rules for panels ``[lo_i, hi_i]``, in one density call.

    ``whole`` holds each panel's single-rule integral.
    """
    mid = 0.5 * (lo + hi)
    xs, ws = _gl_nodes(np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel())
    rho = dens(xs.ravel()).reshape(-1, 16)
    halves = (ws * rho.reshape(xs.shape)).sum(axis=1).reshape(-1, 2)
    values = halves.sum(axis=1)
    xs, ws = xs.reshape(-1, 16), ws.reshape(-1, 16)
    return [
        _Panel(lo[i], hi[i], xs[i], ws[i], rho[i], halves[i], values[i], abs(whole[i] - values[i]))
        for i in range(lo.size)
    ]


def _adaptive_panels_1d(dens, breakpoints, resolution, tol, max_panels):
    """Adaptively refined Gauss-Legendre grid for a 1-D density.

    Panels start from the breakpoint segments (kinks are always panel
    edges) subdivided to roughly ``resolution`` panels in proportion to
    length.  Each panel's integral is estimated by its two half-panel
    GL-8 rules; the difference from the whole-panel rule is the local
    error.  The worst panel is split until the summed error estimate,
    kept as a running total, drops below ``tol`` relative to the
    integral; missing it within ``max_panels`` panels raises
    :class:`QuadratureNotConverged`.  Returns the nodes, weights and
    density values in panel order, plus the diagnostics for ``meta``.
    """
    lo, hi = _panel_edges(breakpoints, resolution)
    xs, ws = _gl_nodes(lo, hi)
    whole = (ws * dens(xs.ravel()).reshape(xs.shape)).sum(axis=1)
    panels = _split_rules(dens, lo, hi, whole)
    evaluations = 24 * lo.size
    value = float(np.sum([p.value for p in panels]))
    err = float(np.sum([p.err for p in panels]))
    # One entry per live panel, worst first; the unique key breaks ties.
    heap = [(-p.err, key, p) for key, p in enumerate(panels)]
    heapq.heapify(heap)
    counter = itertools.count(len(heap))

    while err > tol * max(abs(value), 1e-300) and len(heap) < max_panels:
        worst = heap[0][2]
        if worst.err == 0.0:  # every panel is exact; the running total only holds rounding
            err = 0.0
            break
        heapq.heappop(heap)
        mid = 0.5 * (worst.lo + worst.hi)
        children = np.array([worst.lo, mid]), np.array([mid, worst.hi])
        for child in _split_rules(dens, *children, worst.halves):
            heapq.heappush(heap, (-child.err, next(counter), child))
            value += child.value
            err += child.err
        value -= worst.value
        err -= worst.err
        evaluations += 32

    scale = max(abs(value), 1e-300)
    if err > tol * scale:
        raise QuadratureNotConverged(
            f"error estimate {err / scale:.3g} above tol {tol:g} at {len(heap)} panels"
        )
    ordered = sorted((p for _, _, p in heap), key=lambda p: p.lo)
    diagnostics = {
        "err_estimate": err / scale,
        "converged": True,
        "panels": len(ordered),
        "evaluations": evaluations,
    }
    return (
        np.concatenate([p.nodes for p in ordered]),
        np.concatenate([p.weights for p in ordered]),
        np.concatenate([p.rho for p in ordered]),
        diagnostics,
    )


class TvuMeasure:
    """Quadrature representation of the uniform measure over a family.

    Stores the final node set ``nodes`` (shape ``(N, ndim)``), the
    quadrature ``weights``, the unnormalized density values ``density``
    at the nodes, the normalizer ``Z = sum(weights * density)`` and the
    unnormalized per-outcome masses ``sum_i weight_i * density_i *
    f(x_i)``, summed once at construction in blocks of ``BLOCK_ROWS``
    nodes (pairwise within a block, then across the block partials).
    It holds O(nodes + outcomes) numbers, never a nodes x outcomes
    matrix.  An event's probability is its outcomes' mass over ``Z``,
    so it costs ``|E|`` additions and is deterministic for a given
    construction.  ``meta`` records the construction's settings, the
    quadrature diagnostics (``err_estimate`` relative to ``Z``,
    ``converged``, ``panels``, ``evaluations``) and the layout
    (``block_rows`` and ``bytes_held``, the bytes of the arrays held).
    """

    __slots__ = ("family", "nodes", "weights", "density", "z", "_mass", "_outcome_mass", "meta")

    def __init__(self, family: ParamFamily, nodes, weights, density, meta=None):
        nodes = np.atleast_2d(np.asarray(nodes, dtype=np.float64))
        weights = np.asarray(weights, dtype=np.float64)
        density = np.asarray(density, dtype=np.float64)
        mass = weights * density
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "_mass", mass)
        z = self._integrate(1.0)
        if not math.isfinite(z) or z <= 0.0:
            raise DegenerateFamily(f"family sweeps zero TV length (Z={z!r})")
        outcome_mass = self._outcome_mass_of(family)
        held = (nodes, weights, density, mass, outcome_mass)
        for arr in held:
            arr.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "_outcome_mass", outcome_mass)
        object.__setattr__(self, "meta", {
            **(meta or {}),
            "block_rows": BLOCK_ROWS,
            "bytes_held": sum(arr.nbytes for arr in held),
        })

    def __setattr__(self, name, value):
        raise AttributeError("TvuMeasure is immutable")

    def __repr__(self) -> str:
        return (
            f"TvuMeasure({self.family!r}, nodes={self.nodes.shape[0]}, Z={self.z:.9g})"
        )

    @property
    def normalizer(self) -> float:
        return self.z

    def pdf(self, x) -> float:
        """Normalized density at ``x``."""
        return tvu_density(self.family, x) / self.z

    def _integrate(self, values) -> float:
        """The quadrature sum ``sum(weights * density * values)``.

        numpy's pairwise sum keeps one fixed reduction order (no BLAS, so
        no dependence on its threading).  For non-negative ``values``
        every term is non-negative and the result is within a few ulps
        of the exact sum; for signed values the bound is relative to the
        sum of magnitudes.
        """
        return float(np.sum(self._mass * values))

    def _outcome_mass_of(self, family: ParamFamily) -> np.ndarray:
        """``sum_i weight_i * density_i * family(x_i)``, one value per outcome.

        Nodes are evaluated ``BLOCK_ROWS`` at a time; each block is summed
        pairwise over its nodes, then the block partials pairwise.
        """
        partials = []
        for rows, block, probs in _prob_blocks(family, self.nodes):
            # Outcomes x nodes, so that each outcome's terms are contiguous
            # and numpy sums them pairwise.
            np.multiply(probs.T, self._mass[rows], out=block)
            partials.append(block.sum(axis=1))
        return np.stack(partials, axis=1).sum(axis=1)

    def event_prob(self, event: Event) -> float:
        """Probability of an event on the family's outcome space."""
        _require_same_space(self.family.space, event.space)
        return float(self._outcome_mass[list(event.indices)].sum()) / self.z

    def expectation(self, values: np.ndarray) -> float:
        """Measure-weighted mean of per-node values (e.g. a statistic of x)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape[0] != self.nodes.shape[0]:
            raise LengthMismatch("need one value per quadrature node")
        return self._integrate(values) / self.z

    def posterior_predictive(
        self, observed: Event, query: Event, family: ParamFamily | None = None
    ) -> float:
        """Conditional probability of ``query`` given ``observed``.

        Both events live on the outcome space of ``family`` (defaults to
        the measure's own family), which must share this measure's
        parameter box — e.g. the i.i.d. multi-draw extension of a
        single-draw family.  Computes the ratio of the measure-weighted
        likelihoods ``P(query & observed) / P(observed)``, both read from
        one per-outcome mass vector: the measure's own, or one blocked
        pass over the nodes for another family.
        """
        fam = family if family is not None else self.family
        if fam.ndim != self.family.ndim:
            raise SpaceMismatch("evaluation family has a different parameter box")
        _require_same_space(fam.space, observed.space)
        _require_same_space(fam.space, query.space)
        mass = self._outcome_mass if fam is self.family else self._outcome_mass_of(fam)
        joint = query.intersect(observed)
        den = float(mass[list(observed.indices)].sum())
        if den <= 0.0:
            raise ZeroEvidence("observed event has measure-weighted likelihood zero")
        return float(mass[list(joint.indices)].sum()) / den

    def sample_params(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw parameters from the measure (1-D families).

        The draws are quadrature nodes, taken by stratified inverse-CDF
        sampling over the node masses ``weights * density`` that define
        the measure, so each node appears in proportion to its mass and
        the draws come out in node order.  This is the sampling scheme
        the tower's default base level uses.
        """
        if self.family.ndim != 1:
            raise ConfigInvalid("parameter sampling is defined for 1-D families")
        return self.nodes[_stratified_indices(self._mass, rng, size), 0]


class CountingMeasure:
    """Uniform counting measure over the members of a finite credal set.

    This is what TV-uniformity degenerates to when the credal set is
    finite: every (distinct) member carries weight ``1/m`` exactly, kept
    as :class:`fractions.Fraction` so that event probabilities over
    rational members are exact.  ``use_multiplicities=True`` weights
    members by their recorded merge multiplicity instead.
    """

    __slots__ = ("credal_set", "weights")

    def __init__(self, credal_set: CredalSet, use_multiplicities: bool = False):
        if use_multiplicities:
            counts = credal_set.multiplicities
        else:
            counts = (1,) * len(credal_set)
        total = sum(counts)
        weights = tuple(Fraction(c, total) for c in counts)
        object.__setattr__(self, "credal_set", credal_set)
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name, value):
        raise AttributeError("CountingMeasure is immutable")

    def __repr__(self) -> str:
        return f"CountingMeasure({len(self.credal_set)} members)"

    def event_prob(self, event: Event, exclude: int | None = None):
        """Weighted-average probability of the event across members.

        ``exclude`` removes one member and renormalizes the remaining
        weights — the finite-set analogue of deleting a singleton whose
        counting measure, unlike a continuum point, is positive.
        Returns a ``Fraction`` when every member is exact.
        """
        members = self.credal_set.members
        if exclude is not None:
            if not 0 <= exclude < len(members):
                raise IndexOutOfRange(f"member index {exclude} out of range")
            if len(members) == 1:
                raise ZeroEvidence("cannot exclude the only member")
        pairs = [
            (w, m)
            for i, (w, m) in enumerate(zip(self.weights, members))
            if i != exclude
        ]
        wsum = sum((w for w, _ in pairs), Fraction(0))
        exact = all(isinstance(m, RationalDistribution) for _, m in pairs)
        if exact:
            total = sum((w * m.prob(event) for w, m in pairs), Fraction(0))
            return total / wsum
        total = math.fsum(float(w) * float(m.prob(event)) for w, m in pairs)
        return total / float(wsum)

    def posterior_predictive(
        self, observed: Event, query: Event, lift: Callable | None = None
    ):
        """Conditional probability of ``query`` given ``observed``.

        ``lift`` maps each member to the distribution used for
        evaluation (e.g. :func:`iid_extension` to score multi-draw
        events); by default members are evaluated as they are.  Exact
        (``Fraction``) when all lifted members are exact.
        """
        members = [lift(m) if lift is not None else m for m in self.credal_set.members]
        joint = query.intersect(observed)
        exact = all(isinstance(m, RationalDistribution) for m in members)
        if exact:
            den = sum(
                (w * m.prob(observed) for w, m in zip(self.weights, members)),
                Fraction(0),
            )
            if den == 0:
                raise ZeroEvidence("observed event has probability zero in every member")
            num = sum(
                (w * m.prob(joint) for w, m in zip(self.weights, members)), Fraction(0)
            )
            return num / den
        den = math.fsum(float(w) * float(m.prob(observed)) for w, m in zip(self.weights, members))
        if den <= 0.0:
            raise ZeroEvidence("observed event has probability zero in every member")
        num = math.fsum(float(w) * float(m.prob(joint)) for w, m in zip(self.weights, members))
        return num / den

    def sample_members(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Indices of members drawn according to the counting weights (stratified)."""
        return _stratified_indices(np.asarray([float(w) for w in self.weights]), rng, size)


def build_measure(
    source: ParamFamily | CredalSet,
    *,
    resolution: int = 24,
    tol: float = 1e-6,
    max_panels: int = 4096,
    use_multiplicities: bool = False,
):
    """Construct the uniform measure over a credal set.

    A finite :class:`CredalSet` yields the exact :class:`CountingMeasure`.
    A :class:`ParamFamily` yields a :class:`TvuMeasure` via adaptive
    Gauss-Legendre quadrature of the thickness-product density:
    ``resolution`` sets the starting panel count per dimension (panels
    always break at registered kinks) and panels are then split where
    the local error estimate is largest until the total estimate is
    below ``tol`` relative to the normalizer.  Doubling ``resolution``
    moves ``Z`` by less than ``tol`` by construction.
    """
    if isinstance(source, CredalSet):
        return CountingMeasure(source, use_multiplicities=use_multiplicities)
    if not isinstance(source, ParamFamily):
        raise ConfigInvalid(f"cannot build a measure over {type(source).__name__}")
    if resolution < 1 or tol <= 0.0 or max_panels < resolution:
        raise ConfigInvalid("need resolution >= 1, tol > 0, max_panels >= resolution")

    if source.ndim == 1:
        dens = lambda xs: _density_rows(source, xs[:, None])  # noqa: E731
        bps = _breakpoints(source, 0)
        nodes, weights, rho, diagnostics = _adaptive_panels_1d(
            dens, bps, resolution, tol, max_panels
        )
        return TvuMeasure(
            source,
            nodes[:, None],
            weights,
            rho,
            meta={"resolution": resolution, "tol": tol, **diagnostics},
        )
    return _tensor_measure(source, resolution, tol)


# Refinement levels (resolution, then five doublings) _tensor_measure tries.
_TENSOR_LEVELS = 6


def _tensor_measure(family: ParamFamily, resolution: int, tol: float) -> TvuMeasure:
    """Tensor-product quadrature for multi-dimensional boxes.

    Refines by doubling every dimension's panel count until the
    normalizer is stable to ``tol`` (relative), raising
    :class:`QuadratureNotConverged` if it is not after six levels.
    Intended for small ``ndim``; the node count grows as
    ``(8 * panels)^ndim``.
    """
    per_dim = resolution
    z_prev = None
    evaluations = 0
    for _ in range(_TENSOR_LEVELS):
        axes = []
        for k in range(family.ndim):
            xs, ws = _gl_nodes(*_panel_edges(_breakpoints(family, k), per_dim))
            axes.append((xs.ravel(), ws.ravel()))
        mesh = np.stack(
            [g.ravel() for g in np.meshgrid(*[ax[0] for ax in axes], indexing="ij")],
            axis=1,
        )
        wmesh = np.stack(
            [g.ravel() for g in np.meshgrid(*[ax[1] for ax in axes], indexing="ij")],
            axis=1,
        ).prod(axis=1)
        rho = _density_rows(family, mesh)
        evaluations += rho.size
        z = float(np.sum(wmesh * rho))
        gap = math.inf if z_prev is None else abs(z - z_prev) / max(abs(z), 1e-300)
        if gap <= tol:
            break
        z_prev = z
        per_dim *= 2
    else:
        raise QuadratureNotConverged(
            f"normalizer still moves by {gap:.3g} (tol {tol:g})"
            f" after {_TENSOR_LEVELS} refinement levels"
        )
    meta = {
        "resolution": per_dim,
        "tol": tol,
        "err_estimate": gap,
        "converged": True,
        "panels": rho.size // 8**family.ndim,
        "evaluations": evaluations,
    }
    return TvuMeasure(family, mesh, wmesh, rho, meta=meta)


# ---------------------------------------------------------------------------
# Stock families
# ---------------------------------------------------------------------------


def binomial_family(n: int) -> ParamFamily:
    """Head-count distributions of ``n`` i.i.d. tosses with bias ``p``.

    Outcomes are the head counts ``0..n``.  The thickness, half the L1
    norm of the pmf's derivative, has de Moivre's closed form: on
    ``[j/n, (j+1)/n]`` it is ``n * C(n-1, j) * p^j * (1-p)^(n-1-j)``, with
    sharp points at ``k/n`` and value exactly ``n`` at both endpoints.
    Both it and the pmf are evaluated as ``exp`` of log terms with the
    log binomial coefficients taken from exact integers, so any ``n``
    whose matrices fit in memory works; ``p = 0`` and ``p = 1`` stay exact.
    """
    if n < 1:
        raise ConfigInvalid("need n >= 1")
    ks = np.arange(n + 1)
    log_comb = np.array([math.log(math.comb(n, k)) for k in range(n + 1)])
    # log(n * C(n-1, j)) for the thickness on panel j.
    log_thick = np.array([math.log(n * math.comb(n - 1, j)) for j in range(n)])

    def probs_batch(xs: np.ndarray, out: np.ndarray) -> np.ndarray:
        p = xs[:, 0]
        # log pmf = (k - c) log(p / (1-p)) + c log(p) + (n - c) log(1-p) + log C(n, k),
        # pivoted at c = n for p > 1/2 so that large terms never cancel; every
        # step works in place in ``out``, with no temporary of its size.
        upper = p > 0.5
        with np.errstate(divide="ignore", invalid="ignore"):
            log_p, log_q = np.log(p), np.log1p(-p)
            out[...] = ks
            out -= (n * upper)[:, None]
            out *= (log_p - log_q)[:, None]
            out += (n * np.where(upper, log_p, log_q))[:, None]
            out += log_comb
        np.exp(out, out=out)
        # 0 * log(0) is nan above; the endpoint pmfs are point masses.
        out[p == 0.0] = ks == 0
        out[p == 1.0] = ks == n
        return out

    def thickness_batch(xs: np.ndarray) -> np.ndarray:
        p = xs[:, 0]
        out = np.full(p.shape, float(n))  # one-sided limit at both endpoints
        interior = (p > 0.0) & (p < 1.0)
        q = p[interior]
        j = np.minimum(np.floor(n * q), n - 1)
        out[interior] = np.exp(
            log_thick[j.astype(np.intp)] + j * np.log(q) + (n - 1 - j) * np.log1p(-q)
        )
        return out

    return ParamFamily(
        ParamBox([(0.0, 1.0)]),
        OutcomeSpace([int(k) for k in ks]),
        probs_batch,
        kinks=[tuple(k / n for k in range(1, n))],
        thickness_batch=[thickness_batch],
        name=f"binomial(n={n})",
        meta={"n": n},
    )


def bernoulli_family(labels: Sequence = ("H", "T")) -> ParamFamily:
    """Single two-outcome draw with probability ``p`` on the first label."""
    labels = tuple(labels)
    if len(labels) != 2:
        raise ConfigInvalid("a two-outcome family needs exactly two labels")

    def probs_batch(xs: np.ndarray, out: np.ndarray) -> np.ndarray:
        p = xs[:, 0]
        out[:, 0], out[:, 1] = p, 1.0 - p
        return out

    return ParamFamily(
        ParamBox([(0.0, 1.0)]),
        OutcomeSpace(labels),
        probs_batch,
        thickness_batch=[lambda xs: np.ones(xs.shape[0])],
        name="bernoulli",
    )


def coin_match_family() -> ParamFamily:
    """Two coins forced to agree in bias: guessed coin 1 vs hidden coin 2.

    Outcomes record (coin 1, coin 2); coin 1 is fair and independent of
    coin 2, whose bias is the unknown parameter ``p``:
    ``(p/2, (1-p)/2, p/2, (1-p)/2)`` over ``H1H2, H1T2, T1H2, T1T2``.
    Conditioning on coin 1's outcome dilates the probability of the
    "match" event — see the dilation demo.  Thickness is identically 1.
    """

    def probs_batch(xs: np.ndarray, out: np.ndarray) -> np.ndarray:
        p = xs[:, 0]
        out[:, ::2], out[:, 1::2] = (0.5 * p)[:, None], (0.5 * (1.0 - p))[:, None]
        return out

    return ParamFamily(
        ParamBox([(0.0, 1.0)]),
        OutcomeSpace(["H1H2", "H1T2", "T1H2", "T1T2"]),
        probs_batch,
        thickness_batch=[lambda xs: np.ones(xs.shape[0])],
        name="coin-match",
    )


def product_space(base: OutcomeSpace, draws: int, sep: str = ",") -> OutcomeSpace:
    """Outcome space of ``draws`` ordered draws with labels joined by ``sep``."""
    if draws < 1:
        raise ConfigInvalid("need draws >= 1")
    combos = itertools.product(base.labels, repeat=draws)
    return OutcomeSpace([sep.join(str(c) for c in combo) for combo in combos])


def component_event(
    space: OutcomeSpace, base: OutcomeSpace, draws: int, position: int, label
) -> Event:
    """Event "draw ``position`` equals ``label``" in a product space.

    Works by index arithmetic (the product space enumerates draws in
    row-major order), so it never parses labels.
    """
    m = len(base)
    if len(space) != m**draws:
        raise SpaceMismatch(f"space size {len(space)} is not {m}^{draws}")
    if not 0 <= position < draws:
        raise IndexOutOfRange(f"no draw position {position}")
    want = base.index(label)
    stride = m ** (draws - 1 - position)
    idx = [i for i in range(len(space)) if (i // stride) % m == want]
    return Event(space, idx)


def product_family(base: ParamFamily, draws: int, sep: str = ",") -> ParamFamily:
    """I.i.d. extension: ``draws`` independent draws sharing one parameter.

    The parameter box (and kinks) are the base family's; only the
    outcome space changes, to ordered tuples of base outcomes.  No
    closed-form thickness is registered — the product family is meant
    for *evaluating* multi-draw events (posterior predictive), while the
    uniformity density should be built from the base family.
    """
    if draws < 1:
        raise ConfigInvalid("need draws >= 1")
    space = product_space(base.space, draws, sep=sep)

    def probs_batch(xs: np.ndarray, out: np.ndarray) -> np.ndarray:
        rows = base.probs_matrix(xs)
        chain = rows
        for _ in range(draws - 1):
            chain = np.einsum("ni,nj->nij", chain, rows).reshape(xs.shape[0], -1)
        return chain

    return ParamFamily(
        base.box,
        space,
        probs_batch,
        kinks=base.kinks,
        name=f"{base.name or 'family'}^{draws}",
        meta={"base_space": base.space, "draws": draws, "sep": sep},
    )


def iid_extension(member, draws: int, sep: str = ","):
    """Lift one distribution to ``draws`` independent ordered draws.

    Exact for :class:`RationalDistribution` members; the counting-measure
    route to posterior predictive values uses this as the ``lift``.
    """
    if draws < 1:
        raise ConfigInvalid("need draws >= 1")
    space = product_space(member.space, draws, sep=sep)
    if isinstance(member, RationalDistribution):
        probs = [
            math.prod(combo, start=Fraction(1))
            for combo in itertools.product(member.probs, repeat=draws)
        ]
        return RationalDistribution(space, probs)
    row = np.asarray(member.probs)
    out = row
    for _ in range(draws - 1):
        out = np.kron(out, row)
    return FiniteDistribution(space, out)
