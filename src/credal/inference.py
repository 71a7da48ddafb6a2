"""Credal inference: exact urn updating and the highest-order shift ratio.

Two workhorses live here.

``urn_update`` is the belief-inertia benchmark: an urn holds a known
total of balls in known colors but unknown composition; draws are with
replacement.  Complete agnosticism over compositions is the counting
prior, and the posterior predictive after any history is a ratio of
integer sums — computed exactly with ``fractions.Fraction``.

``hocs_ratio`` scores a point null hypothesis inside a parametrized
family against the family as a whole: the likelihood the null member
assigns to the observed event, divided by the event's probability under
the uniform measure over the family.  Over a continuum the null point
carries measure zero and the denominator stands as is; over a finite
credal set the null member has positive counting mass, so it is removed
from the denominator and the remaining members renormalized.  The
calibration of this ratio as an evidence scale rests on the empirical
convergence of higher-order towers (see :mod:`credal.tower`), so every
result is flagged ``conjecture_conditional``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .core import Event, OutcomeSpace, RationalDistribution
from .errors import ConfigInvalid, ImpossibleHistory, IndexOutOfRange, ZeroEvidence
from .sets import CredalSet
from .tvuniform import (
    CountingMeasure,
    TvuMeasure,
    _density_rows,
    binomial_family,
    build_measure,
)

__all__ = [
    "UrnState",
    "urn_update",
    "urn_compositions",
    "urn_credal_set",
    "HocsResult",
    "hocs_ratio",
    "hocs_curve",
    "BinomialTestReport",
    "binomial_test",
]


# ---------------------------------------------------------------------------
# Urn: exact counting-prior updating
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UrnState:
    """An urn of ``ball_total`` balls over known colors, unknown counts.

    ``history`` lists the colors seen so far (draws with replacement).
    """

    colors: tuple[str, ...] = ("red", "yellow", "blue")
    ball_total: int = 90
    history: tuple[str, ...] = ()

    def __post_init__(self):
        colors = tuple(self.colors)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "history", tuple(self.history))
        if len(colors) < 1 or len(set(colors)) != len(colors):
            raise ConfigInvalid("colors must be distinct and non-empty")
        if self.ball_total < 1:
            raise ConfigInvalid("ball_total must be >= 1")
        unknown = [c for c in self.history if c not in colors]
        if unknown:
            raise ImpossibleHistory(f"history contains unknown colors {unknown}")

    def with_draw(self, color: str) -> "UrnState":
        return UrnState(self.colors, self.ball_total, self.history + (color,))


def urn_compositions(ball_total: int, n_colors: int):
    """All ways ``ball_total`` indistinct balls split into ``n_colors`` counts."""
    if ball_total < 1 or n_colors < 1:
        raise ConfigInvalid("need ball_total >= 1 and n_colors >= 1")
    # Stars and bars: choose cut points among ball_total + n_colors - 1 slots.
    for cuts in itertools.combinations(range(ball_total + n_colors - 1), n_colors - 1):
        prev, counts = -1, []
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(ball_total + n_colors - 2 - prev)
        yield tuple(counts)


def urn_update(state: UrnState, mode: str = "exact"):
    """Posterior predictive color probabilities after the state's history.

    The prior is counting-uniform over all compositions; each
    composition's likelihood for the history is a monomial in its
    counts, so the predictive reduces to ratios of integer sums:

        P(next = c | history) = sum_i w_i * count_i[c] / (N * sum_i w_i),
        w_i = prod_c count_i[c] ** (#draws of c in history).

    ``mode="exact"`` returns ``Fraction`` values (the default),
    ``mode="float"`` plain floats.
    """
    if mode not in ("exact", "float"):
        raise ConfigInvalid(f"unknown mode {mode!r}")
    n, colors = state.ball_total, state.colors
    h = [sum(1 for d in state.history if d == c) for c in colors]
    totals = [0] * len(colors)
    wsum = 0
    for counts in urn_compositions(n, len(colors)):
        w = 1
        for cnt, hc in zip(counts, h):
            if hc:
                w *= cnt**hc
        if w == 0:
            continue
        wsum += w
        for j, cnt in enumerate(counts):
            totals[j] += w * cnt
    if wsum == 0:  # pragma: no cover - guarded by history validation
        raise ImpossibleHistory("no composition can generate the history")
    if mode == "float":
        return {c: t / (n * wsum) for c, t in zip(colors, totals)}
    return {c: Fraction(t, n * wsum) for c, t in zip(colors, totals)}


def urn_credal_set(state: UrnState | None = None, **kwargs) -> CredalSet:
    """The urn's credal set: one exact distribution per composition.

    Members are :class:`RationalDistribution`s over the color space,
    labeled by their composition tuple.  Combined with
    :class:`~credal.tvuniform.CountingMeasure` and
    :func:`~credal.tvuniform.iid_extension`, this reproduces
    :func:`urn_update` through the measure API — the two routes agree
    exactly and the tests keep them independent.
    """
    if state is None:
        state = UrnState(**kwargs)
    elif kwargs:
        raise ConfigInvalid("pass either a state or keyword fields, not both")
    space = OutcomeSpace(state.colors)
    members, labels = [], []
    for counts in urn_compositions(state.ball_total, len(state.colors)):
        members.append(
            RationalDistribution(
                space, [Fraction(c, state.ball_total) for c in counts]
            )
        )
        labels.append(counts)
    return CredalSet(members, labels=labels)


# ---------------------------------------------------------------------------
# Highest-order credal shift ratio
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HocsResult:
    """Evidence ratio for a point null inside a family.

    ``ratio = null_likelihood / reference_prob``: how the null member's
    likelihood for the observed event compares to the event's
    probability under the uniform measure over all hypotheses.  Values
    near 0 mean the event is far likelier under agnosticism than under
    the null; large values favor the null.  ``conjecture_conditional``
    records that the calibration of this scale rests on the empirical
    higher-order convergence phenomenon rather than a proved guarantee.
    """

    null_point: float | int
    event_labels: tuple
    null_likelihood: float
    reference_prob: float
    ratio: float
    mode: str
    conjecture_conditional: bool = True


def hocs_ratio(measure, null, event: Event) -> HocsResult:
    """Score a point null against the uniform measure over its family.

    For a :class:`TvuMeasure`, ``null`` is a parameter point; the
    continuum reference probability is unaffected by deleting one point.
    For a :class:`CountingMeasure`, ``null`` is a member index; the
    member is excluded from the reference and the remaining weights
    renormalized (a singleton has positive counting measure).
    """
    if isinstance(measure, TvuMeasure):
        result = hocs_curve(measure, event, [null])[0]
        return replace(result, null_point=null if np.isscalar(null) else tuple(null))
    if not isinstance(measure, CountingMeasure):
        raise ConfigInvalid(f"unsupported measure type {type(measure).__name__}")
    idx = int(null)
    members = measure.credal_set.members
    if not 0 <= idx < len(members):
        raise IndexOutOfRange(f"member index {idx} out of range")
    like = float(members[idx].prob(event))
    ref = float(measure.event_prob(event, exclude=idx))
    if ref <= 0.0:
        raise ZeroEvidence("event has reference probability zero")
    return HocsResult(
        null_point=idx,
        event_labels=event.labels,
        null_likelihood=like,
        reference_prob=ref,
        ratio=like / ref,
        mode="finite-excluded",
    )


def hocs_curve(measure, event: Event, params) -> list[HocsResult]:
    """The ratio as a function of the null point over a parameter grid.

    For a :class:`TvuMeasure` the likelihoods come from one blocked
    ``family.event_probs`` call and the reference from one
    ``event_prob``; :func:`hocs_ratio` is this curve at one point.
    """
    params = np.asarray(params, dtype=float)
    if not isinstance(measure, TvuMeasure):
        return [hocs_ratio(measure, p, event) for p in params]
    family = measure.family
    xs = params[:, None] if params.ndim == 1 else params
    if not all(family.box.contains(x) for x in xs):
        raise IndexOutOfRange("parameter grid reaches outside the box")
    likes = family.event_probs(xs, event)
    ref = measure.event_prob(event)
    if ref <= 0.0:
        raise ZeroEvidence("event has reference probability zero")
    return [
        HocsResult(
            null_point=p if np.isscalar(p) else tuple(p),
            event_labels=event.labels,
            null_likelihood=float(like),
            reference_prob=ref,
            ratio=float(like) / ref,
            mode="continuum",
        )
        for p, like in zip(params, likes)
    ]


# ---------------------------------------------------------------------------
# Binomial head-count test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinomialTestReport:
    """Everything the head-count hypothesis test produces.

    For ``n`` tosses with ``k`` heads observed: the uniform-measure
    probability of every head count (``reference``), the evidence-ratio
    curve for point nulls over a bias grid, and the unnormalized density
    along the same grid (``z`` is its integral, the normalizer).
    ``meta`` is the measure's ``meta``: quadrature diagnostics and layout.
    """

    n: int
    k: int
    z: float
    reference: tuple[float, ...]
    grid: np.ndarray = field(repr=False)
    ratios: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)
    conjecture_conditional: bool = True
    meta: dict = field(default_factory=dict, repr=False)

    def observed_reference(self) -> float:
        return self.reference[self.k]

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "z": self.z,
            "conjecture_conditional": self.conjecture_conditional,
            "reference": {str(i): v for i, v in enumerate(self.reference)},
            "grid": [float(x) for x in self.grid],
            "ratios": [float(r) for r in self.ratios],
            "density": [float(d) for d in self.density],
        }


# Largest (grid points) x (head counts) likelihood grid binomial_test
# evaluates.  The grid is evaluated in blocks of rows, so the cap bounds
# the work (2**25 pmf cells) and the length of the grid, ratio and density
# arrays, not the size of any one matrix.
MAX_GRID_CELLS = 2**25


def binomial_test(
    n: int,
    k: int,
    *,
    resolution: int = 24,
    grid_step: float = 0.001,
    measure: TvuMeasure | None = None,
) -> BinomialTestReport:
    """Run the head-count test: ``k`` heads observed in ``n`` tosses.

    Builds the uniform measure over the ``n``-toss bias family (or uses
    a prebuilt one), tabulates every head count's reference probability,
    and sweeps the evidence ratio for the point null across a bias grid
    of the given step.  At ``p = 0`` and ``p = 1`` the likelihood of any
    interior head count is exactly zero, so the curve's endpoints are
    exact zeros.
    """
    if not 0 <= k <= n:
        raise ConfigInvalid(f"need 0 <= k <= n, got k={k}, n={n}")
    if not (math.isfinite(grid_step) and 0.0 < grid_step <= 1.0):
        raise ConfigInvalid(f"need a finite grid step in (0, 1], got {grid_step!r}")
    if measure is None:
        measure = build_measure(binomial_family(n), resolution=resolution)
    family = measure.family
    space = family.space
    reference = tuple(measure.event_prob(space.event([i])) for i in range(n + 1))
    inverse = 1.0 / grid_step  # inf for the smallest subnormal steps
    steps = int(round(inverse)) if inverse < MAX_GRID_CELLS else MAX_GRID_CELLS
    if (steps + 1) * (n + 1) > MAX_GRID_CELLS:
        raise ConfigInvalid(
            f"grid step {grid_step!r} with n={n} needs more than "
            f"{MAX_GRID_CELLS} likelihood grid cells"
        )
    grid = np.linspace(0.0, 1.0, steps + 1)
    event = space.event([k])
    likes = family.event_probs(grid[:, None], event)
    ratios = likes / reference[k]
    density = _density_rows(family, grid[:, None])
    return BinomialTestReport(
        n=n,
        k=k,
        z=measure.z,
        reference=reference,
        grid=grid,
        ratios=ratios,
        density=density,
        meta=measure.meta,
    )
