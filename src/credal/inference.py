"""Credal inference: exact urn updating and the highest-order shift ratio.

Two workhorses live here.

``urn_update`` is the belief-inertia benchmark: an urn holds a known
total of balls in known colors but unknown composition; draws are with
replacement.  Complete agnosticism over compositions is the counting
prior, and the posterior predictive after any history is a ratio of
integer sums over compositions, each one coefficient of a polynomial
product, returned exactly as ``fractions.Fraction``.

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
from fractions import Fraction

import numpy as np

from .core import (MAX_GRID_CELLS, Event, OutcomeSpace, RationalDistribution, _Frozen, _integer,
                   _Record, _require_same_space)
from .errors import ConfigInvalid, ImpossibleHistory, ZeroEvidence
from .sets import CredalSet
from .tvuniform import (
    CountingMeasure,
    TvuMeasure,
    binomial_family,
    build_measure,
    tvu_density,
)

__all__ = [
    "UrnState",
    "urn_update",
    "urn_work",
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


class UrnState(_Record):
    """An urn of ``ball_total`` balls over known colors, unknown counts.

    ``history`` lists the colors seen so far (draws with replacement).
    """

    __slots__ = ("colors", "ball_total", "history")

    def __init__(self, colors=("red", "yellow", "blue"), ball_total: int = 90, history=()):
        colors, history = tuple(colors), tuple(history)
        if len(colors) < 1 or len(set(colors)) != len(colors):
            raise ConfigInvalid("colors must be distinct and non-empty")
        ball_total = _integer("ball_total", ball_total)
        if ball_total < 1:
            raise ConfigInvalid("ball_total must be >= 1")
        unknown = [c for c in history if c not in colors]
        if unknown:
            raise ImpossibleHistory(f"history contains unknown colors {unknown}")
        self._init(colors=colors, ball_total=ball_total, history=history)

    def with_draw(self, color: str) -> "UrnState":
        return UrnState(self.colors, self.ball_total, self.history + (color,))


def urn_compositions(ball_total: int, n_colors: int):
    """All ways ``ball_total`` indistinct balls split into ``n_colors`` counts, lazily."""
    ball_total, n_colors = _integer("ball_total", ball_total), _integer("n_colors", n_colors)
    if ball_total < 1 or n_colors < 1:
        raise ConfigInvalid("need ball_total >= 1 and n_colors >= 1")
    # Stars and bars: choose cut points among ball_total + n_colors - 1 slots.
    slots = ball_total + n_colors - 1
    return (tuple(b - a - 1 for a, b in itertools.pairwise((-1, *cuts, slots)))
            for cuts in itertools.combinations(range(slots), n_colors - 1))


def urn_update(state: UrnState, mode: str = "exact"):
    """Posterior predictive color probabilities after the state's history.

    Under the counting prior over compositions ``k`` of the ``N`` balls,
    with ``h_c`` draws of color ``c`` so far,

        P(next = c | history) = S(h + 1_c) / (N * S(h)),
        S(e) = sum_k prod_c k_c ** e_c = [t^N] prod_c sum_x x ** e_c * t^x

    (generating functions, ``0 ** 0 = 1``): ``c + 1`` integer polynomial
    products cut off at degree ``N``.  An update whose multiply-adds and
    powers, charged by size as :func:`urn_work` counts them, together
    pass ``MAX_GRID_CELLS`` raises :class:`ConfigInvalid`.
    ``mode="exact"`` returns ``Fraction`` values (the default),
    ``mode="float"`` the floats nearest them.
    """
    if mode not in ("exact", "float"):
        raise ConfigInvalid(f"unknown mode {mode!r}")
    n, colors = state.ball_total, state.colors
    cost = urn_work(state)
    work = cost["multiply_adds"] + cost["powers"]
    if work > MAX_GRID_CELLS:
        raise ConfigInvalid(f"an urn of {n} balls in {len(colors)} colors needs {work} "
                            f"word-sized integer multiply-adds and powers, above {MAX_GRID_CELLS}")

    def weight(exponents) -> int:
        if len(exponents) == 1:  # [t^N] sum_x x ** e * t^x
            return n ** exponents[0]
        # Only a factor the convolution slices is listed; the others stream.
        first, *middle, last = exponents
        poly = map(pow, range(n + 1), itertools.repeat(first))
        for e in middle:
            poly, powers = list(poly), [x**e for x in range(n + 1)]
            poly = [sum(map(int.__mul__, poly[: d + 1], powers[d::-1])) for d in range(n + 1)]
        return sum(map(int.__mul__, poly, map(pow, range(n, -1, -1), itertools.repeat(last))))

    h = [state.history.count(c) for c in colors]
    wsum = weight(h)
    if wsum == 0:  # more colors drawn than there are balls
        raise ImpossibleHistory("no composition can generate the history")
    exact = {c: Fraction(weight([e + (j == i) for j, e in enumerate(h)]), n * wsum)
             for i, c in enumerate(colors)}
    return {c: float(v) for c, v in exact.items()} if mode == "float" else exact


def urn_work(state: UrnState) -> dict:
    """The work :func:`urn_update` does for ``state``, for diagnostics.

    ``degree`` is the truncation degree ``N`` (the ball total),
    ``colors`` the number of colours ``c``.  Each of the update's
    ``c + 1`` weights computes ``c`` colours' ``N + 1`` powers ``x ** e``
    (listing only those a product slices, so two colours list none)
    and takes ``c - 2`` products cut off at degree ``N``, of
    ``(N + 1) * (N + 2) / 2`` multiply-adds each, and one last
    coefficient of ``N + 1`` (a single colour's weight is the one power
    ``N ** e``, which lists nothing).  ``powers`` charges each power one
    unit per 64-bit word it may hold (``e * b`` bits for ``b`` the bit
    length of ``N``), and ``multiply_adds`` each multiply-add the product
    of its operands' words, bounding a partial product of ``k`` colours
    by ``(E + k - 1) * b`` bits for exponents summing to ``E``.  While
    every operand fits one word (short histories) both are plain counts.
    """
    n, c, bits = state.ball_total, len(state.colors), state.ball_total.bit_length()
    h = [state.history.count(x) for x in state.colors]
    powers = multiply_adds = 0
    for i in range(-1, c) if c > 1 else ():  # the history's weight, then one per colour
        words = [1 + (e + (j == i)) * bits // 64 for j, e in enumerate(h)]
        powers += (n + 1) * sum(words)
        for k in range(1, c):  # multiply the product of k colours by the next
            cells = (n + 1) * (n + 2) // 2 if k < c - 1 else n + 1
            partial = 1 + (sum(h[:k]) + (0 <= i < k) + k - 1) * bits // 64
            multiply_adds += cells * partial * words[k]
    return {"degree": n, "colors": c, "multiply_adds": multiply_adds, "powers": powers}


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
    space, n = OutcomeSpace(state.colors), state.ball_total
    labels = list(urn_compositions(n, len(state.colors)))
    members = [RationalDistribution(space, [Fraction(c, n) for c in counts]) for counts in labels]
    return CredalSet(members, labels=labels)


# ---------------------------------------------------------------------------
# Highest-order credal shift ratio
# ---------------------------------------------------------------------------


class HocsResult(_Record):
    """Evidence ratio for a point null inside a family.

    ``ratio = null_likelihood / reference_prob``: how the null member's
    likelihood for the observed event compares to the event's
    probability under the uniform measure over all hypotheses.  Values
    near 0 mean the event is far likelier under agnosticism than under
    the null; large values favor the null.  ``conjecture_conditional``
    records that the calibration of this scale rests on the empirical
    higher-order convergence phenomenon rather than a proved guarantee.
    """

    __slots__ = ("null_point", "event_labels", "null_likelihood", "reference_prob", "ratio",
                 "mode", "conjecture_conditional")


def hocs_ratio(measure, null, event: Event) -> HocsResult:
    """Score a point null against the uniform measure over its family.

    This is :func:`hocs_curve` at the one null ``null``: a parameter
    point of a :class:`TvuMeasure` or a member index of a finite
    :class:`CredalSet`.
    """
    return hocs_curve(measure, event, [null])[0]


def hocs_curve(measure, event: Event, nulls) -> list[HocsResult]:
    """The ratio as a function of the null, one result per entry of ``nulls``.

    For a :class:`TvuMeasure` the nulls are parameter points; the
    likelihoods come from one blocked ``family.event_probs`` call and
    the reference from one ``event_prob``, which deleting one point of
    the continuum leaves unchanged.  For a finite :class:`CredalSet` the
    nulls are member indices (integers, not ``bool``s) and the measure is
    its counting measure, in which a member has positive mass: member
    ``i`` is scored against the other ``m - 1`` members' mean,
    ``(total - mass_i) / (m - 1)``, from the members' exact event masses
    ``sum(Fraction(p_o) for o in event)``, each summed once, and rounded
    once to a float.  A :class:`CountingMeasure` is refused; pass its
    ``.credal_set``.
    """
    if isinstance(measure, TvuMeasure):
        points = np.asarray(nulls, dtype=float)
        likes = measure.family.event_probs(points[:, None] if points.ndim == 1 else points, event)
        refs = [measure.event_prob(event)] * len(points)
        nulls = [p if np.isscalar(p) else tuple(p) for p in points]
        mode = "continuum"
    elif isinstance(measure, CredalSet):
        _require_same_space(measure.space, event.space)
        nulls = [_integer("a finite-mode null", i) for i in nulls]
        likes = [float(measure.member(i).prob(event)) for i in nulls]
        if len(measure) == 1:
            raise ZeroEvidence("a one-member set leaves no member to refer a null to")
        masses = [sum((Fraction(d.probs[o]) for o in event.indices), Fraction(0))
                  for d in measure.members]
        total, rest = sum(masses), len(masses) - 1
        refs = [float((total - masses[i]) / rest) for i in nulls]
        mode = "finite-excluded"
    else:
        hint = "; pass its .credal_set" if isinstance(measure, CountingMeasure) else ""
        raise ConfigInvalid(f"unsupported measure type {type(measure).__name__}{hint}")
    if any(ref <= 0.0 for ref in refs):
        raise ZeroEvidence("event has reference probability zero")
    return [
        HocsResult(null_point=null, event_labels=event.labels, null_likelihood=float(like),
                   reference_prob=ref, ratio=float(like) / ref, mode=mode,
                   conjecture_conditional=True)
        for null, like, ref in zip(nulls, likes, refs)
    ]


# ---------------------------------------------------------------------------
# Binomial head-count test
# ---------------------------------------------------------------------------


class BinomialTestReport(_Frozen):
    """Everything the head-count hypothesis test produces.

    For ``n`` tosses with ``k`` heads observed: the uniform-measure
    probability of every head count (``reference``), the evidence-ratio
    curve for point nulls over a bias grid, and the unnormalized density
    along the same grid (``z`` is its integral, the normalizer).
    ``meta`` is the measure's ``meta``: quadrature diagnostics and layout.
    """

    __slots__ = ("n", "k", "z", "reference", "grid", "ratios", "density",
                 "conjecture_conditional", "meta")

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


def binomial_test(
    n: int,
    k: int,
    *,
    grid_step: float = 0.001,
    measure: TvuMeasure | None = None,
) -> BinomialTestReport:
    """Run the head-count test: ``k`` heads observed in ``n`` tosses.

    Builds the uniform measure over the ``n``-toss bias family (or uses
    a prebuilt one, which must be over ``binomial_family(n)``), reads
    every head count's reference probability from its
    :meth:`~credal.tvuniform.TvuMeasure.outcome_probs`, and sweeps the
    evidence ratio for the point null across a bias grid of the given
    step, rounded to ``1/round(1/grid_step)`` (``0.3`` gives 4 points, a
    step of 1/3).  At ``p = 0`` and ``p = 1`` the likelihood of any
    interior head count is exactly zero, so the curve's endpoints are
    exact zeros.  A grid of more than ``MAX_GRID_CELLS`` rows raises
    :class:`ConfigInvalid`.
    """
    n, k = _integer("n", n), _integer("k", k)
    if not 0 <= k <= n:
        raise ConfigInvalid(f"need 0 <= k <= n, got k={k}, n={n}")
    if not (math.isfinite(grid_step) and 0.0 < grid_step <= 1.0):
        raise ConfigInvalid(f"need a finite grid step in (0, 1], got {grid_step!r}")
    if measure is None:
        measure = build_measure(binomial_family(n))
    elif not (
        isinstance(measure, TvuMeasure)
        and len(measure.family.space) == n + 1
        and measure.family.meta.get("n") == n
    ):
        raise ConfigInvalid(f"the measure must be over binomial_family({n}), got {measure!r}")
    family = measure.family
    space = family.space
    reference = tuple(measure.outcome_probs().tolist())
    inverse = 1.0 / grid_step  # inf for the smallest subnormal steps
    steps = int(round(inverse)) if inverse < MAX_GRID_CELLS else MAX_GRID_CELLS
    if steps + 1 > MAX_GRID_CELLS:  # the likelihood reads one head count per row
        raise ConfigInvalid(f"grid step {grid_step!r} needs more than {MAX_GRID_CELLS} grid rows")
    grid = np.linspace(0.0, 1.0, steps + 1)
    event = space.event([k])
    likes = family.event_probs(grid[:, None], event)
    ratios = likes / reference[k]
    density = tvu_density(family, grid[:, None])
    return BinomialTestReport(
        n=n,
        k=k,
        z=measure.z,
        reference=reference,
        grid=grid,
        ratios=ratios,
        density=density,
        conjecture_conditional=True,
        meta=measure.meta,
    )
