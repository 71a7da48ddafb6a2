"""The uniform reference measure on simply parametrized credal sets.

A *simply parametrized family* is a map ``x -> f(x)`` from a box of
parameters into the probability simplex.  "Uniform over the family"
is defined geometrically: mass proportional to how much total-variation
distance the family sweeps per unit of parameter, so that a one-slot
measure is invariant under reparametrization; with several slots, only
under reparametrizations acting on each slot alone.  The local sweep
rate in parameter slot ``k`` is the *thickness*

    t_k(x) = lim_{h -> 0} TV(f(x), f(x + h e_k)) / |h|,

and the unnormalized density is the product ``rho(x) = prod_k t_k(x)``.
Two regimes are supported:

* an explicit finite credal set, where "uniform" degenerates to the
  counting measure over the (distinct) members; and
* a continuously parametrized family, where event probabilities are
  integrals ``(1/Z) * int rho(x) * f(x)(E) dx`` evaluated by adaptive
  tensor Gauss-Legendre quadrature over boxes, for any number of slots.
  The starting boxes are the product of each slot's panels, which break
  at the slot's registered kinks.  A box's rule is the tensor GL-8 rule;
  the same rule with GL-4 along one slot checks it, and their distance
  is that slot's error.  Each round splits every box whose summed error
  is at least its equal share of the tolerance at the midpoint of its
  worst slot, in one batch, and evaluates both children afresh.  A
  tolerance the quadrature cannot reach within ``max_panels`` boxes
  raises :class:`~credal.errors.QuadratureNotConverged`.

In both regimes the measure is a mixture of distributions, so one
vector of unnormalized per-outcome masses ``m`` answers every event
through one query path: an event's probability is ``m[E] / total`` (the
normalizer ``Z``, or the member count) and a one-draw conditional is
``m[A & B] / m[B]``.  The TV-uniform measure sums ``m_o = sum_i weight_i
* density_i * f(x_i)_o`` at construction in one pass over the nodes,
``BLOCK_ROWS`` nodes at a time: each block pairwise, then the block
partials pairwise; no nodes x outcomes matrix is ever held.  Of each
block it evaluates only the family's ``outcome_span``, the outcomes that
can hold more than ``OUTCOME_FLOOR`` of a node's mass (every outcome for
a family that registers no span), into one reused workspace of
``BLOCK_ROWS x |outcomes|`` (about 1.6 MB at ``n = 400``).  For the
binomial family the span is a Chernoff band: at ``n = 400`` the pass
evaluates 797,184 of the 3,200 x 401 node-outcome cells.  Each event
then costs ``|E|`` additions.  Every term is non-negative, so each sum
is accurate to a few ulps of the total (Higham 1993, "The accuracy of
floating point summation"), and the block size is a constant, so the
reduction order and every result are the same on every run.

The binomial head-count family is the fully worked example.  Half the
L1 norm of the pmf's derivative has a closed form (de Moivre's mean
absolute deviation; Diaconis & Zabell 1991): on ``[j/n, (j+1)/n]`` the
thickness is ``n * C(n-1, j) * p^j * (1-p)^(n-1-j)``.  It has sharp
points at ``k/n``, equals ``n`` at both endpoints, and its normalizer for
``n = 10`` is ``3.66021568``.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import (
    MAX_GRID_CELLS,
    Event,
    FiniteDistribution,
    OutcomeSpace,
    RationalDistribution,
    _Frozen,
    _floats,
    _integer,
    _real,
    _require_event,
)
from .errors import (
    ConfigInvalid,
    DegenerateFamily,
    IndexOutOfRange,
    LengthMismatch,
    QuadratureNotConverged,
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
    "product_space",
    "iid_extension",
]

# Gauss-Legendre nodes and weights on [-1, 1]: each quadrature box's rule,
# and the coarser rule that checks it along one slot at a time.  They are
# the float64 values numpy 2.4's ``np.polynomial.legendre.leggauss(8)`` and
# ``(4)`` return (a LAPACK eigen-solve, Golub & Welsch 1969, then one Newton
# step), written out as shortest round-trip literals; the tests check them
# bit for bit against it and by the exactness of each rule on polynomials.
# Written out, the package loads no ``numpy.polynomial`` and calls no BLAS
# or LAPACK routine, and the nodes do not depend on the LAPACK build.
_GL8 = (np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                  -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                  0.7966664774136267, 0.9602898564975362]),
        np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                  0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                  0.22238103445337443, 0.10122853629037706]))
_GL4 = (np.array([-0.8611363115940526, -0.33998104358485626, 0.33998104358485626,
                  0.8611363115940526]),
        np.array([0.34785484513745357, 0.6521451548625464, 0.6521451548625464,
                  0.34785484513745357]))

# Parameter rows whose distributions are evaluated at a time when a node
# set or a grid is reduced over the outcomes.  A constant, so that the
# summation order, and with it every result, never varies.
BLOCK_ROWS = 512

# The probability below which a family's ``outcome_span`` may leave an
# outcome out of a block of the outcome-mass pass.  A left-out cell weighs
# less than OUTCOME_FLOOR times its node's mass, so that outcome's block
# partial, at most BLOCK_ROWS x (largest node mass) x OUTCOME_FLOOR,
# becomes 0.  The node masses sum to Z, so no outcome probability P loses
# OUTCOME_FLOOR or more: about 20 orders of magnitude below half an ulp of
# P (above 5e-17 P) when P > 1e-4, as for every binomial head count at
# n <= 2047, the largest n the default start admits (the smallest, at
# n = 2047, is 3.13e-4).  The loss can change P's last bit only by tipping
# a rounding that lies within it; the tests check bit equality with a full
# pass.
OUTCOME_FLOOR = 1e-40


def _prob_blocks(family: ParamFamily, xs: np.ndarray, outcomes: slice | None = None):
    """Yield ``(rows, span, block, probs)`` for each ``BLOCK_ROWS`` slice of ``xs``.

    ``span`` is the slice ``outcomes`` of the family's outcomes or, when
    omitted, the family's :meth:`~ParamFamily.outcome_span` of the
    block's rows.  Every block is evaluated into one outcome-major
    workspace, so a pass allocates one block's worth of memory however
    many blocks it has.  ``block`` is the ``(|span|, rows)`` view of it,
    and ``probs`` is ``block.T`` unless the family returned a fresh array.
    """
    n = xs.shape[0]
    width = len(family.space) if outcomes is None else outcomes.stop - outcomes.start
    work = np.empty((width, min(BLOCK_ROWS, n)))
    for lo in range(0, n, BLOCK_ROWS):
        rows = slice(lo, min(lo + BLOCK_ROWS, n))
        span = family.outcome_span(xs[rows]) if outcomes is None else outcomes
        block = work[: span.stop - span.start, : rows.stop - lo]
        yield rows, span, block, family.probs_matrix(xs[rows], out=block.T, outcomes=span)


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


class ParamBox(_Frozen):
    """An axis-aligned box of parameters: one closed interval per slot."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Sequence[tuple[float, float]]):
        ivs = tuple((float(a), float(b)) for a, b in intervals)
        if not ivs:
            raise ConfigInvalid("a parameter box needs at least one slot")
        for a, b in ivs:
            if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
                raise ConfigInvalid(f"invalid interval ({a}, {b})")
        self._init(intervals=ivs)

    @property
    def ndim(self) -> int:
        return len(self.intervals)

    def __repr__(self) -> str:
        return f"ParamBox({list(self.intervals)!r})"


class ParamFamily(_Frozen):
    """A parametrized family of distributions over a fixed outcome space.

    ``probs_batch(xs, out, outcomes)`` maps an ``(N, ndim)`` array of
    parameter points to the probabilities of the outcomes in ``outcomes``,
    a contiguous ``slice(start, stop)`` of the outcome indices: an ``(N,
    stop - start)`` matrix.  It is the family's one evaluation path;
    :meth:`probs_matrix` passes every outcome unless asked for a slice,
    and :meth:`probs` checks a single point and reads it as a one-row
    batch.  ``out`` is a writable, possibly strided float array of that
    shape, which the stock families fill and return; a family may return
    a fresh array instead.  Only the shape is checked: normalization is
    the family's contract.  Optional registrations sharpen the geometry:

    * ``kinks[k]``: interior parameter values where the thickness in
      slot ``k`` is not smooth (quadrature panels never straddle them,
      finite differences never step across them);
    * ``thickness_batch[k]``: closed-form thickness for slot ``k``,
      taking the same ``(N, ndim)`` array and returning ``N`` values;
    * ``outcome_span(xs)``: a contiguous slice of the outcomes outside
      which every row of ``xs`` has probability below ``OUTCOME_FLOOR``.
      The measure's outcome-mass pass evaluates only that slice of each
      block of nodes; without it, every outcome.

    A slot without one takes finite differences over the same batches,
    ``BLOCK_ROWS`` rows at a time: :func:`thickness`.
    """

    __slots__ = ("box", "space", "probs_batch_fn", "kinks", "thickness_batch_fns",
                 "outcome_span_fn", "name", "meta")

    def __init__(
        self,
        box: ParamBox,
        space: OutcomeSpace,
        probs_batch: Callable,
        *,
        kinks: Sequence[Sequence[float]] | None = None,
        thickness_batch: Sequence[Callable | None] | None = None,
        outcome_span: Callable | None = None,
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
        self._init(box=box, space=space, probs_batch_fn=probs_batch, kinks=kinks,
                   thickness_batch_fns=tuple(thickness_batch), outcome_span_fn=outcome_span,
                   name=name, meta=dict(meta or {}))

    def __repr__(self) -> str:
        tag = self.name or "family"
        return f"ParamFamily({tag!r}, ndim={self.box.ndim}, space={self.space!r})"

    @property
    def ndim(self) -> int:
        return self.box.ndim

    def _outcomes(self, outcomes: slice | None) -> slice:
        """``outcomes`` as ``slice(start, stop)`` within the space; every outcome if ``None``."""
        if outcomes is None:
            return slice(0, len(self.space))
        if isinstance(outcomes, slice):
            start, stop, step = outcomes.indices(len(self.space))
            if step == 1:
                return slice(start, max(start, stop))
        raise ConfigInvalid(f"outcomes must be a contiguous slice, got {outcomes!r}")

    def outcome_span(self, xs: np.ndarray) -> slice:
        """The outcomes outside which every row of ``xs`` has probability
        below ``OUTCOME_FLOOR``: the registered span, or every outcome."""
        return self._outcomes(None if self.outcome_span_fn is None else self.outcome_span_fn(xs))

    def probs(self, x) -> np.ndarray:
        """Probability vector at parameter ``x`` in the box.

        Only its shape is checked; normalization is the family's contract.
        """
        return self.probs_matrix(_checked_rows(self, [x]))[0]

    def probs_matrix(self, xs: np.ndarray, out: np.ndarray | None = None,
                     outcomes: slice | None = None) -> np.ndarray:
        """Probabilities of the ``outcomes`` slice (every outcome if omitted)
        at each row of ``xs`` (shape (N, ndim)), filled into ``out`` when
        the family supports it (allocated if omitted)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        if xs.shape[1] != self.ndim:
            raise LengthMismatch(f"expected (N, {self.ndim}) parameter rows")
        outcomes = self._outcomes(outcomes)
        shape = (xs.shape[0], outcomes.stop - outcomes.start)
        if out is None:
            out = np.empty(shape)
        out = np.asarray(self.probs_batch_fn(xs, out, outcomes), dtype=np.float64)
        if out.shape != shape:
            raise LengthMismatch(f"family returned shape {out.shape}, expected {shape}")
        return out

    def eval(self, x) -> FiniteDistribution:
        return FiniteDistribution(self.space, self.probs(x))

    def event_probs(self, xs: np.ndarray, event: Event) -> np.ndarray:
        """The event's probability at each row of ``xs``, ``BLOCK_ROWS`` rows at a time.

        Only the outcomes from the event's first to its last are
        evaluated.  Every row must lie in the box; a row with a NaN does not.
        """
        _require_event(self.space, event)
        xs = _checked_rows(self, xs)
        idx = event.indices
        span = slice(min(idx, default=0), max(idx, default=-1) + 1)
        cols = [i - span.start for i in idx]
        out = np.empty(xs.shape[0])
        for rows, _, _, probs in _prob_blocks(self, xs, span):
            out[rows] = probs[:, cols].sum(axis=1)
        return out


def _checked_rows(family: ParamFamily, xs) -> np.ndarray:
    """``xs`` as float64 ``(N, ndim)`` parameter rows, every one in the box.

    The one check of the public evaluations: a wrong shape raises
    :class:`LengthMismatch`, and a row outside the box, or holding a NaN,
    raises :class:`IndexOutOfRange` naming the first such row.  An entry
    that is not a number raises :class:`ConfigInvalid`.
    """
    xs = np.atleast_2d(_floats("parameter rows", xs))
    if xs.ndim != 2 or xs.shape[1] != family.ndim:
        raise LengthMismatch(f"expected (N, {family.ndim}) parameter rows, got shape {xs.shape}")
    lo, hi = np.array(family.box.intervals).T
    inside = (lo <= xs) & (xs <= hi)
    if not inside.all():
        i = int(np.argmin(inside.all(axis=1)))
        raise IndexOutOfRange(f"parameter row {i}, {tuple(xs[i].tolist())}, lies outside the box")
    return xs


# ---------------------------------------------------------------------------
# Thickness estimation
# ---------------------------------------------------------------------------

# Relative half-width (in units of the slot's interval length) below
# which a point counts as sitting on a kink or boundary.
_KINK_SNAP = 1e-9


def _breakpoints(family: ParamFamily, k: int) -> np.ndarray:
    a, b = family.box.intervals[k]
    return np.array([a, *family.kinks[k], b])


def thickness(family: ParamFamily, xs, k: int = 0) -> np.ndarray:
    """Finite-difference thickness in parameter slot ``k`` at each ``(N, ndim)`` row of ``xs``.

    Richardson-extrapolated one-sided differences, with steps of ``1e-5``
    times the slot's length, are taken on each side of a row that has
    room, never stepping across a registered kink or box face; the two
    sides are averaged when both exist, which at a kink yields the mean
    of the one-sided limits.  A side whose Richardson correction ``|d2 -
    d1|`` passes a tenth of its estimate ``|2 d2 - d1|`` raises
    :class:`StepTooLarge`: the step is too coarse for the curvature there.
    """
    k = _integer("k", k)
    if not 0 <= k < family.ndim:
        raise IndexOutOfRange(f"no parameter slot {k}")
    return _fd_thickness(family, _checked_rows(family, xs), k)


def _fd_thickness(family: ParamFamily, xs: np.ndarray, k: int) -> np.ndarray:
    """:func:`thickness` unchecked, ``BLOCK_ROWS`` rows at a time: one
    ``probs_matrix`` call for the rows, and two for each side, at ``min(h,
    room)`` and half that.  A refusal names the first refused row, and its
    right side if both are refused.
    """
    a, b = family.box.intervals[k]
    h = 1e-5 * (b - a)
    bps, snap, xk = _breakpoints(family, k), _KINK_SNAP * (b - a), xs[:, k]
    # Room on each side up to the nearest breakpoint past the snap zone; 0 if none.
    up, down = np.searchsorted(bps, xk + snap, "right"), np.searchsorted(bps, xk - snap) - 1
    rooms = (np.where(up < bps.size, bps[np.minimum(up, bps.size - 1)] - xk, 0.0),
             np.where(down >= 0, xk - bps[np.maximum(down, 0)], 0.0))
    unit, out = np.eye(xs.shape[1])[k], np.zeros(xs.shape[0])
    for lo in range(0, xs.shape[0], BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        base, refused = family.probs_matrix(xs[rows]), []
        for sign, room in zip((1.0, -1.0), rooms):
            step = np.minimum(h, room[rows])
            on = np.flatnonzero(step > 0.0)
            if not on.size:
                continue
            # Adding s * unit moves slot k alone: every other slot adds an exact 0.
            d1, d2 = (0.5 * np.abs(family.probs_matrix(xs[rows][on] + (sign * s)[:, None] * unit)
                                   - base[on]).sum(axis=1) / s for s in (step[on], step[on] / 2.0))
            out[lo + on] += 2.0 * d2 - d1  # cancels the O(h) term of the one-sided quotient
            bad = on[np.abs(d2 - d1) > 0.1 * np.abs(2.0 * d2 - d1)]
            if bad.size:
                refused.append((bad[0], float(step[bad[0]])))
        if refused:  # min keeps the first of equal rows: the right side
            i, step = min(refused, key=lambda r: r[0])
            raise StepTooLarge(f"step {step} in slot {k} at {tuple(xs[lo + i].tolist())} is too "
                               "coarse for the local curvature")
    return out / np.count_nonzero(np.stack(rooms) > 0.0, axis=0)


def tvu_density(family: ParamFamily, xs) -> np.ndarray:
    """Unnormalized uniformity density at each ``(N, ndim)`` row of ``xs``:
    the product of the per-slot thicknesses, closed-form where registered.

    Divided by a measure's ``z``, it is the normalized density.  A negative
    or non-finite value raises :class:`DegenerateFamily`.
    """
    return _density_rows(family, _checked_rows(family, xs))


def _density_rows(family: ParamFamily, xs: np.ndarray) -> np.ndarray:
    # Unchecked: a quadrature node lies in its box by construction, and a
    # check could refuse one that rounding puts past a face of a tiny box.
    out = np.ones(xs.shape[0])
    for k, batch in enumerate(family.thickness_batch_fns):
        out *= _fd_thickness(family, xs, k) if batch is None else np.asarray(batch(xs), np.float64)
    if not np.all(np.isfinite(out)) or np.any(out < 0.0):
        raise DegenerateFamily("density must be finite and non-negative")
    return out


# ---------------------------------------------------------------------------
# Quadrature construction
# ---------------------------------------------------------------------------


def _panel_edges(breakpoints: np.ndarray, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Starting panels ``[lo_i, hi_i]``: each breakpoint segment cut into
    equal parts in proportion to its length, about ``resolution`` in all.

    A segment ``[a, b]`` cut into ``parts`` gets the edges of
    ``np.linspace(a, b, parts + 1)``, computed for every segment at once
    with linspace's arithmetic: ``j * ((b - a) / parts) + a``, with ``b``
    itself as the last edge.
    """
    a, b = breakpoints[:-1], breakpoints[1:]
    a, b = a[b > a], b[b > a]
    total_len = breakpoints[-1] - breakpoints[0]
    parts = np.maximum(1, np.ceil(resolution * (b - a) / total_len)).astype(np.intp)
    seg = np.repeat(np.arange(a.size), parts)
    j = np.arange(seg.size) - np.repeat(np.cumsum(parts) - parts, parts)
    step, a, b, last = ((b - a) / parts)[seg], a[seg], b[seg], parts[seg]
    return j * step + a, np.where(j + 1 == last, b, (j + 1) * step + a)


def _box_rules(family: ParamFamily, lo: np.ndarray, hi: np.ndarray):
    """Tensor Gauss-Legendre 8 rule on each box ``[lo_b, hi_b]`` (rows of
    shape ``(B, d)``), checked along each slot ``k`` by the same tensor
    rule with GL-4 along ``k``, all in one density call.

    Returns the GL-8 nodes ``(B, 8**d, d)`` with slot 0's index varying
    slowest, their weights and density values ``(B, 8**d)``, each box's
    GL-8 integral, and one error per slot ``(B, d)``: the distance of the
    GL-4-along-``k`` integral from it.
    """
    n, d = lo.shape
    c, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    xs, ws = [], []
    for k in range(-1, d):  # GL-8 along every slot, then GL-4 along slot k
        rules = [_GL4 if j == k else _GL8 for j in range(d)]
        idx = np.indices([x.size for x, _ in rules]).reshape(d, -1)
        axes = [(c[:, j, None] + half[:, j, None] * x[i], half[:, j, None] * w[i])
                for j, ((x, w), i) in enumerate(zip(rules, idx))]
        xs.append(np.stack([x for x, _ in axes], axis=2))
        ws.append(np.prod([w for _, w in axes], axis=0))
    rho = _density_rows(family, np.concatenate(xs, axis=1).reshape(-1, d)).reshape(n, -1)
    cuts = np.cumsum([w.shape[1] for w in ws[:-1]])
    value, *checks = (a.sum(axis=1) for a in np.split(np.concatenate(ws, 1) * rho, cuts, 1))
    return xs[0], ws[0], rho[:, :cuts[0]], value, np.abs(np.stack(checks, 1) - value[:, None])


# The fields of a set of boxes, each an array with one row per box: the
# corners, then the fields of :func:`_box_rules`' result.
_LO, _HI, _NODES, _WEIGHTS, _RHO, _VALUE, _ERRS = range(7)


def _adaptive_panels(family: ParamFamily, resolution: int, tol: float, max_panels: int):
    """Adaptively refined Gauss-Legendre boxes for the family's density.

    The starting boxes are the product of each slot's panels: its
    breakpoint segments (kinks are always box faces) subdivided to
    roughly ``resolution`` panels in proportion to length.  Every box
    carries its tensor GL-8 rule and the error estimate of
    :func:`_box_rules`, the sum of its slot errors.  Until the summed
    error estimate drops below ``tol`` relative to the integral, each
    round splits every box whose error is at least its equal share of
    the budget, ``min(max error, tol * |integral| / B)`` over ``B`` live
    boxes, worst first and at most ``max_panels - B`` of them, at the
    midpoint of its worst slot, and evaluates both children afresh.
    Missing ``tol`` within ``max_panels`` boxes raises
    :class:`QuadratureNotConverged`.  Returns the nodes, weights and
    density values in the boxes' lexicographic order of lower corners,
    plus the diagnostics for ``meta``.

    Boxes are held as arrays, one per field.  The start and each round's
    children are evaluated in chunks of at most ``BLOCK_ROWS * 128`` node
    coordinates (evaluations times ``d``, the size of the largest
    temporaries: about 2 MB however many boxes).  The starting boxes are
    already in lexicographic order; a round gathers the live boxes back
    into that order with ``np.lexsort``.  The totals are summed afresh
    over the live boxes.
    """
    d = family.ndim
    edges = [_panel_edges(_breakpoints(family, k), resolution) for k in range(d)]
    sizes = [lo.size for lo, _ in edges]
    start, cost = math.prod(sizes), 8**d + 4 * d * 8 ** (d - 1)  # evaluations per box
    evaluations, chunk = start * cost, max(1, BLOCK_ROWS * 128 // (cost * d))
    # The measure's outcome-mass pass evaluates at most every node's distribution.
    cells = start * 8**d * len(family.space)
    if max(evaluations, cells) > MAX_GRID_CELLS:
        # Resolution 1 starts with the fewest boxes: one per kink segment of each slot.
        least = math.prod(_panel_edges(_breakpoints(family, k), 1)[0].size for k in range(d))
        fix = ("lower the resolution" if least * max(cost, cells // start) <= MAX_GRID_CELLS
               else f"the kinks alone force {least} starting boxes, so no resolution fits")
        raise ConfigInvalid(
            f"{sizes} starting panels per slot need {evaluations} density evaluations"
            f" and {cells} node-outcome cells, above {MAX_GRID_CELLS}; {fix}"
        )

    def evaluate(lo: np.ndarray, hi: np.ndarray) -> list:
        for c in range(0, len(lo), chunk):
            rows = slice(c, c + chunk)
            part = (lo[rows], hi[rows], *_box_rules(family, lo[rows], hi[rows]))
            if c == 0:
                fields = [np.empty((len(lo), *a.shape[1:])) for a in part]
            for field, a in zip(fields, part):
                field[rows] = a
        return fields

    grid = np.indices(sizes).reshape(d, -1)
    lo = np.stack([e[0][g] for e, g in zip(edges, grid)], axis=1)
    hi = np.stack([e[1][g] for e, g in zip(edges, grid)], axis=1)
    boxes = evaluate(lo, hi)
    while True:
        errs = boxes[_ERRS].sum(axis=1)
        value, err, live = float(np.sum(boxes[_VALUE])), float(np.sum(errs)), errs.size
        scale = max(abs(value), 1e-300)
        if err <= tol * scale or live >= max_panels:
            break
        take = min(np.count_nonzero(errs >= min(errs.max(), tol * scale / live)), max_panels - live)
        split = np.argsort(-errs, kind="stable")[:take]
        lo, hi = boxes[_LO][split], boxes[_HI][split]
        cut = np.eye(d, dtype=bool)[boxes[_ERRS][split].argmax(axis=1)]
        mid = 0.5 * (lo + hi)
        part = evaluate(np.concatenate([lo, np.where(cut, mid, lo)]),
                        np.concatenate([np.where(cut, mid, hi), hi]))
        evaluations += 2 * take * cost
        ids = np.delete(np.arange(live + 2 * take), split)
        ids = ids[np.lexsort(np.concatenate([boxes[_LO], part[_LO]])[ids].T[::-1])]
        for f in range(len(boxes)):  # one field at a time; each dropped once gathered
            boxes[f], part[f] = np.concatenate([boxes[f], part[f]])[ids], None
    if err > tol * scale:
        raise QuadratureNotConverged(
            f"error estimate {err / scale:.3g} above tol {tol:g} at {live} panels"
        )
    diagnostics = {
        "err_estimate": err / scale,
        "converged": True,
        "panels": live,
        "evaluations": evaluations,
    }
    return (*(boxes[f].reshape(-1, *boxes[f].shape[2:]) for f in (_NODES, _WEIGHTS, _RHO)),
            diagnostics)


class _Mixture(_Frozen):
    """A mixture of distributions on one space, holding one unnormalized
    mass ``m_o`` per outcome.  A subclass supplies ``_event_mass(event)``
    (the space check and the sum of the event's masses), the normalizer
    ``_total`` and ``_result``, the type a probability is returned as."""

    __slots__ = ()

    def event_prob(self, event: Event):
        """Probability of an event on the measure's space: ``m[E] / total``."""
        return self._result(self._event_mass(event) / self._total)

    def posterior_predictive(self, observed: Event, query: Event):
        """Conditional probability of ``query`` given ``observed``, two events
        of one draw: ``m[query & observed] / m[observed]``.  An ``observed``
        of zero mass raises :class:`ZeroEvidence`."""
        joint = query.intersect(observed)
        den = self._event_mass(observed)
        if den <= 0:
            raise ZeroEvidence("observed event has zero mass under the measure")
        return self._result(self._event_mass(joint) / den)


class TvuMeasure(_Mixture):
    """Quadrature representation of the uniform measure over a family.

    Stores the final node set ``nodes`` (shape ``(N, ndim)``), the
    quadrature ``weights``, the unnormalized density values ``density``
    at the nodes, the normalizer ``Z = sum(weights * density)`` and the
    unnormalized per-outcome masses ``sum_i weight_i * density_i *
    f(x_i)``, summed once at construction in blocks of ``BLOCK_ROWS``
    nodes (pairwise within a block, then across the block partials).
    Each block evaluates only the family's ``outcome_span`` of its nodes;
    an outcome outside it has block partial 0.  It holds O(nodes +
    outcomes) numbers, never a nodes x outcomes matrix.  An event's
    probability is its outcomes' mass over ``Z``, so it costs ``|E|``
    additions and is deterministic for a given construction;
    :meth:`outcome_probs` divides the whole mass vector at once, for a
    table over every outcome.  ``meta`` records the
    construction's settings, the quadrature diagnostics (``err_estimate``
    relative to ``Z``, ``converged``, ``panels``, ``evaluations``) and the
    layout (``block_rows``, ``bytes_held``, the bytes of the arrays held,
    and ``outcome_cells``, the node-outcome cells the mass pass evaluated).
    """

    __slots__ = ("family", "nodes", "weights", "density", "z", "_mass", "_outcome_mass", "meta")

    def __init__(self, family: ParamFamily, nodes, weights, density, meta=None):
        nodes = np.atleast_2d(np.asarray(nodes, dtype=np.float64))
        weights = np.asarray(weights, dtype=np.float64)
        density = np.asarray(density, dtype=np.float64)
        self._init(family=family, nodes=nodes, weights=weights, density=density,
                   _mass=weights * density)
        z = self._integrate(1.0)
        if not math.isfinite(z) or z <= 0.0:
            raise DegenerateFamily(f"family sweeps zero TV length (Z={z!r})")
        # Each block is span x nodes, so that each outcome's terms are
        # contiguous and numpy sums them pairwise; then each outcome's block
        # partials, which are 0 outside the block's span.
        partials = np.zeros((len(family.space), -(-nodes.shape[0] // BLOCK_ROWS)))
        cells = 0
        for b, (rows, span, block, probs) in enumerate(_prob_blocks(family, nodes)):
            np.multiply(probs.T, self._mass[rows], out=block)
            partials[span, b] = block.sum(axis=1)
            cells += block.size
        outcome_mass = partials.sum(axis=1)
        held = (nodes, weights, density, self._mass, outcome_mass)
        self._init(z=z, _outcome_mass=outcome_mass, meta={
            **(meta or {}),
            "block_rows": BLOCK_ROWS,
            "bytes_held": sum(arr.nbytes for arr in held),
            "outcome_cells": cells,
        })

    def __repr__(self) -> str:
        return (
            f"TvuMeasure({self.family!r}, nodes={self.nodes.shape[0]}, Z={self.z:.9g})"
        )

    def _integrate(self, values) -> float:
        """The quadrature sum ``sum(weights * density * values)``.

        numpy's pairwise sum keeps one fixed reduction order (no BLAS, so
        no dependence on its threading).  For non-negative ``values``
        every term is non-negative and the result is within a few ulps
        of the exact sum; for signed values the bound is relative to the
        sum of magnitudes.
        """
        return float(np.sum(self._mass * values))

    _result = float
    _total = property(lambda self: self.z)

    def _event_mass(self, event: Event) -> np.float64:
        _require_event(self.family.space, event)
        return self._outcome_mass[list(event.indices)].sum()

    def outcome_probs(self) -> np.ndarray:
        """Every outcome's probability, in outcome order: ``m / Z``.

        Each entry equals :meth:`event_prob` of that outcome's singleton
        bit for bit, since a one-element sum is the element itself.
        """
        return self._outcome_mass / self.z

    def expectation(self, values: np.ndarray) -> float:
        """Measure-weighted mean of per-node values (e.g. a statistic of x).

        Draws sharing the parameter are independent given it, so a
        predictive after several i.i.d. draws is a ratio of two of them,
        over products of the columns ``p, q = family.probs_matrix(nodes).T``
        of a two-outcome family: after ``h`` heads and ``t`` tails,
        ``P(head)`` is ``expectation(p**(h+1) * q**t) / expectation(p**h *
        q**t)`` (``2/3`` after one head under the flat Bernoulli measure,
        Laplace's rule of succession).
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape[0] != self.nodes.shape[0]:
            raise LengthMismatch("need one value per quadrature node")
        return self._integrate(values) / self.z

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


class CountingMeasure(_Mixture):
    """Uniform counting measure over the members of a finite credal set.

    This is what TV-uniformity degenerates to when the credal set is
    finite: each of the ``m`` members counts once, whatever its merge
    multiplicity (to weight members by those, count the set with each
    member repeated by its multiplicity).  Like :class:`TvuMeasure`, the
    measure is a mixture of its members, so at construction it sums one
    unnormalized mass per outcome, ``m_o = sum_i member_i(o)``, in exact
    arithmetic (a float member converts exactly through ``Fraction(p)``).
    An event's probability, the average of its members' probabilities, is
    ``m[E] / m``, and a conditional of one draw is ``m[query & observed]
    / m[observed]``: each sum is exact and divided once, giving a
    ``Fraction`` when every member is exact, otherwise that exact value
    rounded once to a float.  Events are of the set's own space.  A
    two-draw question about a set ``c`` is asked of its lifted set,
    ``CountingMeasure(CredalSet([iid_extension(m, 2) for m in
    c.members]))``, whose events are ordered pairs of draws.  The
    finite-mode evidence ratio, which removes its null member from the
    reference, is :func:`~credal.inference.hocs_curve` over the set.  A
    tower over the set reads its members and builds no measure.
    """

    __slots__ = ("credal_set", "_outcome_mass", "_total", "_result")

    def __init__(self, credal_set: CredalSet):
        mass = [Fraction(0)] * len(credal_set.space)
        for member in credal_set.members:
            for o, p in enumerate(member.probs):
                mass[o] += Fraction(p)
        exact = all(isinstance(m, RationalDistribution) for m in credal_set.members)
        self._init(credal_set=credal_set, _outcome_mass=tuple(mass),
                   _total=len(credal_set), _result=Fraction if exact else float)

    def __repr__(self) -> str:
        return f"CountingMeasure({len(self.credal_set)} members)"

    def _event_mass(self, event: Event) -> Fraction:
        _require_event(self.credal_set.space, event)
        return sum((self._outcome_mass[o] for o in event.indices), Fraction(0))


def build_measure(
    family: ParamFamily,
    *,
    resolution: int = 24,
    tol: float = 1e-6,
    max_panels: int = 4096,
) -> TvuMeasure:
    """Construct the uniform measure over a parametrized family.

    A :class:`ParamFamily` of any dimension yields a :class:`TvuMeasure`
    via adaptive Gauss-Legendre quadrature of the thickness-product
    density over boxes: ``resolution`` sets the starting panel count per
    slot (panels always break at registered kinks), the starting boxes
    are their product, and rounds split every box holding at least its
    share of the error until the total is below ``tol`` relative to the
    normalizer.  ``max_panels`` caps the boxes the splitting may reach;
    missing ``tol`` within it raises :class:`QuadratureNotConverged`.
    Starting boxes needing more than ``MAX_GRID_CELLS`` density
    evaluations, or nodes times outcomes, raise :class:`ConfigInvalid`.
    ``meta["panels"]`` counts the final boxes and ``meta["evaluations"]``
    the density evaluations.  Doubling ``resolution`` moves ``Z`` by less
    than ``tol`` by construction.  ``meta["err_estimate"]`` is the summed
    distance of each box's GL-8 rule from its GL-4 checks, relative to
    ``Z``: an estimate, not a bound (at the singular endpoint of a
    ``p**3`` reparametrization the true error is 1.65-1.76 times it, for
    ``tol`` from 1e-6 to 1e-12).  ``resolution`` and ``max_panels`` must be
    integers and ``tol`` finite and positive; anything else raises
    :class:`ConfigInvalid`.  A finite :class:`CredalSet` has its own
    measure, :class:`CountingMeasure`, and is refused here.
    """
    if not isinstance(family, ParamFamily):
        raise ConfigInvalid(f"cannot build a measure over {type(family).__name__}; "
                            "a finite credal set's measure is CountingMeasure")
    resolution, max_panels = _integer("resolution", resolution), _integer("max_panels", max_panels)
    if not (resolution >= 1 and math.isfinite(_real("tol", tol)) and tol > 0.0
            and max_panels >= resolution):
        raise ConfigInvalid("need resolution >= 1, a finite tol > 0, max_panels >= resolution")

    nodes, weights, rho, diagnostics = _adaptive_panels(family, resolution, tol, max_panels)
    return TvuMeasure(
        family, nodes, weights, rho, meta={"resolution": resolution, "tol": tol, **diagnostics}
    )


# ---------------------------------------------------------------------------
# Stock families
# ---------------------------------------------------------------------------


def _binomial_log_coefficients(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``log C(n, k)`` for ``k = 0..n`` and ``log(n * C(n-1, j))`` for
    ``j = 0..n-1``, from one exact Pascal row: ``n * C(n-1, j)`` is the
    integer ``(j+1) * C(n, j+1)``."""
    row = list(itertools.accumulate(range(n), lambda c, k: c * (n - k) // (k + 1), initial=1))
    log_comb = np.array([math.log(c) for c in row])
    return log_comb, np.array([math.log(j * c) for j, c in enumerate(row[1:], 1)])


def binomial_family(n: int) -> ParamFamily:
    """Head-count distributions of ``n`` i.i.d. tosses with bias ``p``.

    Outcomes are the head counts ``0..n``.  The thickness, half the L1
    norm of the pmf's derivative, has de Moivre's closed form: on
    ``[j/n, (j+1)/n]`` it is ``n * C(n-1, j) * p^j * (1-p)^(n-1-j)``, with
    sharp points at ``k/n`` and value exactly ``n`` at both endpoints.
    Both it and the pmf are evaluated as ``exp`` of log terms with the
    log binomial coefficients taken from one exact Pascal row of integers,
    ``C(n, k+1) = C(n, k) * (n-k) // (k+1)``; ``p = 0`` and ``p = 1`` stay
    exact.  The row is built on the family's first evaluation, so a
    measure that refuses the family before evaluating it never pays for
    it.  ``n`` must keep one ``BLOCK_ROWS x (n + 1)`` evaluation block
    within ``MAX_GRID_CELLS`` (``n < 65536``); a larger ``n`` raises
    :class:`ConfigInvalid`.  The pmf's head counts and pivot are float64
    from the start: small integers are exact there, so no block pays an
    integer-to-float cast, and a slice of head counts runs each cell
    through the same operations as the whole row.

    The outcome span comes from the Chernoff bound (Chernoff 1952;
    Hoeffding 1963) ``P(K = k) <= exp(-n D(k/n || p))``, with ``D`` the
    Kullback-Leibler divergence of two coins, an equality at ``k = 0``
    and ``k = n``.  ``D`` is convex in ``p`` and zero at ``p = k/n``, so
    over rows with biases in ``[a, b]`` the bound is largest at ``p = a``
    for ``k/n < a`` and at ``p = b`` for ``k/n > b``.  The span keeps every
    ``k`` with ``k/n`` in ``[a, b]`` or either bound at least
    ``OUTCOME_FLOOR = 1e-40`` (``n D <= 92.1034``, with ``1e-6`` nats to
    spare for rounding); every other head count has probability below
    ``OUTCOME_FLOOR`` at every row.
    """
    n = _integer("n", n)
    if not 1 <= n < MAX_GRID_CELLS // BLOCK_ROWS:
        raise ConfigInvalid(f"need 1 <= n and one block of {BLOCK_ROWS} x (n + 1) cells "
                            f"within {MAX_GRID_CELLS}, got n={n}")
    ks = np.arange(n + 1, dtype=np.float64)
    fracs = ks / n
    nats = math.log(1.0 / OUTCOME_FLOOR) + 1e-6

    @functools.cache
    def coefficients() -> tuple[np.ndarray, np.ndarray]:
        return _binomial_log_coefficients(n)

    def probs_batch(xs: np.ndarray, out: np.ndarray, outcomes: slice) -> np.ndarray:
        log_comb, k = coefficients()[0][outcomes], ks[outcomes]
        p = xs[:, 0]
        # log pmf = (k - c) log(p / (1-p)) + c log(p) + (n - c) log(1-p) + log C(n, k),
        # pivoted at c = n for p > 1/2 so that large terms never cancel; every
        # step works in place in ``out``, with no temporary of its size.
        upper = p > 0.5
        with np.errstate(divide="ignore", invalid="ignore"):
            log_p, log_q = np.log(p), np.log1p(-p)
            out[...] = k
            out -= np.where(upper, float(n), 0.0)[:, None]
            out *= (log_p - log_q)[:, None]
            out += (n * np.where(upper, log_p, log_q))[:, None]
            out += log_comb
        np.exp(out, out=out)
        # 0 * log(0) is nan above; the endpoint pmfs are point masses.
        out[p == 0.0] = k == 0
        out[p == 1.0] = k == n
        return out

    def outcome_span(xs: np.ndarray) -> slice:
        a, b = xs[:, 0].min(), xs[:, 0].max()
        p = np.array([[a], [b]])
        # n D(k/n || p) for every head count k, at p = a and p = b.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            heads = np.where(ks > 0, ks * np.log(fracs / p), 0.0)
            tails = np.where(ks < n, (n - ks) * np.log((1.0 - fracs) / (1.0 - p)), 0.0)
        below = heads + tails <= nats
        # from_a is false, then true for good, as k rises; to_b as k falls.
        from_a, to_b = (fracs >= a) | below[0], ((fracs <= b) | below[1])[::-1]
        return slice(int(np.argmax(from_a)), n + 1 - int(np.argmax(to_b)))

    def thickness_batch(xs: np.ndarray) -> np.ndarray:
        log_thick = coefficients()[1]
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
        OutcomeSpace(range(n + 1)),
        probs_batch,
        kinks=[tuple(k / n for k in range(1, n))],
        thickness_batch=[thickness_batch],
        outcome_span=outcome_span,
        name=f"binomial(n={n})",
        meta={"n": n},
    )


def _unit_thickness_family(labels: Sequence, columns: Callable, name: str) -> ParamFamily:
    """A family over ``p`` in ``[0, 1]`` whose thickness is identically 1:
    ``columns(p)`` maps the biases of a batch to a tuple of one
    probability column per outcome."""

    def probs_batch(xs: np.ndarray, out: np.ndarray, outcomes: slice) -> np.ndarray:
        for j, col in enumerate(columns(xs[:, 0])[outcomes]):
            out[:, j] = col
        return out

    return ParamFamily(
        ParamBox([(0.0, 1.0)]),
        OutcomeSpace(labels),
        probs_batch,
        thickness_batch=[lambda xs: np.ones(xs.shape[0])],
        name=name,
    )


def bernoulli_family(labels: Sequence = ("H", "T")) -> ParamFamily:
    """Single two-outcome draw with probability ``p`` on the first label."""
    labels = tuple(labels)
    if len(labels) != 2:
        raise ConfigInvalid("a two-outcome family needs exactly two labels")
    return _unit_thickness_family(labels, lambda p: (p, 1.0 - p), "bernoulli")


def coin_match_family() -> ParamFamily:
    """Two coins forced to agree in bias: guessed coin 1 vs hidden coin 2.

    Outcomes record (coin 1, coin 2); coin 1 is fair and independent of
    coin 2, whose bias is the unknown parameter ``p``:
    ``(p/2, (1-p)/2, p/2, (1-p)/2)`` over ``H1H2, H1T2, T1H2, T1T2``.
    Conditioning on coin 1's outcome dilates the probability of the
    "match" event — see the dilation demo.  Thickness is identically 1.
    """
    return _unit_thickness_family(["H1H2", "H1T2", "T1H2", "T1T2"],
                                  lambda p: (0.5 * p, 0.5 * (1.0 - p)) * 2, "coin-match")


def product_space(base: OutcomeSpace, draws: int) -> OutcomeSpace:
    """Outcome space of ``draws`` ordered draws with labels joined by ``","``."""
    if _integer("draws", draws) < 1:
        raise ConfigInvalid("need draws >= 1")
    combos = itertools.product(base.labels, repeat=draws)
    return OutcomeSpace([",".join(str(c) for c in combo) for combo in combos])


def iid_extension(member, draws: int):
    """Lift one distribution to ``draws`` independent ordered draws.

    Exact for :class:`RationalDistribution` members.  A counting measure
    over the lifted members answers multi-draw questions (see
    :class:`CountingMeasure`).
    """
    space = product_space(member.space, draws)
    return type(member)(
        space, [math.prod(c) for c in itertools.product(member.probs, repeat=draws)]
    )
