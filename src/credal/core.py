"""Finite outcome spaces, distributions, and total-variation geometry.

Conventions used throughout the package:

* An outcome space is an ordered tuple of distinct hashable labels
  (strings or integers).  Ordering matters because distributions are
  stored as dense vectors aligned with it.
* Total variation distance between two probability vectors ``a, b`` over
  the same finite space is ``sup_E |a(E) - b(E)|``, which on a finite
  space equals ``0.5 * sum_i |a_i - b_i|``.  It is the metric every
  geometric notion in this package (uniformity, thickness, member
  merging) is defined against.
* Sampling uniformly in that metric over the probability simplex is the
  flat Dirichlet distribution, realized by normalizing i.i.d. unit
  exponentials.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigInvalid,
    IndexOutOfRange,
    LengthMismatch,
    NegativeWeight,
    SpaceMismatch,
    ZeroProbabilityEvent,
    ZeroTotal,
)

__all__ = [
    "OutcomeSpace",
    "Event",
    "FiniteDistribution",
    "RationalDistribution",
    "make_distribution",
    "make_rational_distribution",
    "tv_distance",
    "event_probability",
    "condition",
    "sample_l1_uniform",
    "stable_sum",
]

# Most float cells one request may evaluate or hold: a likelihood grid, a
# density table, the quadrature's starting density evaluations or a tower's
# levels (whose size also bounds each thread's weight-draw workspace).
# Larger requests raise ConfigInvalid before anything is allocated or spawned.
MAX_GRID_CELLS = 2**25


def stable_sum(values) -> float:
    """Sum a collection of floats by numpy's pairwise summation.

    Its rounding error grows with the logarithm of the length, not with
    the length; every caller in the package sums non-negative terms, so no
    cancellation amplifies it.
    """
    return float(np.sum(np.asarray(values, dtype=np.float64).ravel()))


def _integer(name: str, value) -> int:
    """``value`` as an ``int`` if it is a true integer (not a ``bool``)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigInvalid(f"{name} must be an integer, got {value!r}")


class _Frozen:
    """Base of every value the package returns, which updates read and share.

    Assignment is refused.  A constructor sets its fields once through
    :meth:`_init`, which makes every numpy array it stores read-only: an
    array alone, or a tuple whose first element is an array (a tuple of
    labels or members is never walked).  A plain record (a report or a
    per-order summary) names its fields in ``__slots__`` and is built by
    keyword through the inherited ``__init__``; its ``repr`` lists them,
    leaving out arrays and dicts (``meta``).  Copies and unpickled values
    are rebuilt through :meth:`_init` too, so they hold the same rule.
    """

    __slots__ = ()

    def __init__(self, **fields):
        cls = type(self)
        if fields.keys() != set(cls.__slots__):
            raise TypeError(f"{cls.__name__} needs exactly the fields {cls.__slots__}")
        self._init(**fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        self._init(**state[1])

    def __repr__(self) -> str:
        shown = ((name, getattr(self, name)) for name in type(self).__slots__)
        fields = ", ".join(f"{name}={value!r}" for name, value in shown
                           if not isinstance(value, (np.ndarray, dict)))
        return f"{type(self).__name__}({fields})"

    def _init(self, **fields) -> None:
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            elif isinstance(value, tuple) and value and isinstance(value[0], np.ndarray):
                for arr in value:
                    arr.setflags(write=False)
            object.__setattr__(self, name, value)


class _Record(_Frozen):
    """A value equal to, and hashed as, any value of its class with equal fields.

    The package's one equality rule.  The fields are the ``__slots__``
    unless a class narrows :meth:`_fields`; a value that holds an array
    does not subclass it, and compares by identity.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


class OutcomeSpace(_Record):
    """An ordered finite set of distinct outcome labels."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Sequence[str | int]):
        labels = tuple(labels)
        if len(labels) == 0:
            raise LengthMismatch("an outcome space needs at least one outcome")
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise LengthMismatch("outcome labels must be distinct")
        self._init(labels=labels, _index=index)

    def __len__(self) -> int:
        return len(self.labels)

    def _fields(self) -> tuple:
        return (self.labels,)  # the index is derived from the labels

    def __repr__(self) -> str:
        return f"OutcomeSpace({list(self.labels)!r})"

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise IndexOutOfRange(f"label {label!r} not in space") from None

    def event(self, labels: Iterable) -> "Event":
        """Event consisting of the given outcome labels."""
        return Event(self, indices=[self.index(lab) for lab in labels])

    def event_from_indices(self, indices: Iterable[int]) -> "Event":
        return Event(self, indices=indices)

    def full_event(self) -> "Event":
        return Event(self, indices=range(len(self.labels)))


class Event(_Record):
    """A subset of an outcome space: sorted outcome indices, each a true integer."""

    __slots__ = ("space", "indices")

    def __init__(self, space: OutcomeSpace, indices: Iterable[int]):
        idx = sorted({_integer("event index", i) for i in indices})
        n = len(space)
        if idx and (idx[0] < 0 or idx[-1] >= n):
            raise IndexOutOfRange(f"event indices must lie in [0, {n})")
        self._init(space=space, indices=tuple(idx))

    def __len__(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:
        return f"Event({list(self.labels)!r})"

    @property
    def labels(self) -> tuple:
        return tuple(self.space.labels[i] for i in self.indices)

    def complement(self) -> "Event":
        present = set(self.indices)
        return Event(self.space, (i for i in range(len(self.space)) if i not in present))

    def intersect(self, other: "Event") -> "Event":
        _require_same_space(self.space, other.space)
        return Event(self.space, set(self.indices) & set(other.indices))

    __and__ = intersect


def _require_same_space(a: OutcomeSpace, b: OutcomeSpace) -> None:
    if a != b:
        raise SpaceMismatch(f"outcome spaces differ: {a!r} vs {b!r}")


class FiniteDistribution(_Frozen):
    """A probability vector over a finite outcome space.

    The constructor expects an already-normalized vector (sum within
    1e-12 of one); use :func:`make_distribution` to normalize raw
    non-negative weights.
    """

    __slots__ = ("space", "probs")

    def __init__(self, space: OutcomeSpace, probs):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size != len(space):
            raise LengthMismatch(
                f"need {len(space)} probabilities, got shape {probs.shape}"
            )
        if np.any(probs < 0.0):
            raise NegativeWeight("probabilities must be non-negative")
        total = stable_sum(probs)
        if not abs(total - 1.0) <= 1e-12:  # a NaN total fails too
            raise ZeroTotal(f"probabilities sum to {total!r}, not 1")
        self._init(space=space, probs=probs.copy())

    def __repr__(self) -> str:
        body = ", ".join(
            f"{lab!r}: {p:.6g}" for lab, p in zip(self.space.labels, self.probs)
        )
        return f"FiniteDistribution({{{body}}})"

    def prob(self, event: Event) -> float:
        _require_same_space(self.space, event.space)
        if not event.indices:
            return 0.0
        return stable_sum(self.probs[list(event.indices)])

    def to_dict(self) -> dict:
        return {
            "labels": list(self.space.labels),
            "probs": [float(p) for p in self.probs],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FiniteDistribution":
        return cls(OutcomeSpace(payload["labels"]), payload["probs"])


def _fractions(values) -> tuple[Fraction, ...]:
    """``values`` as exact fractions; a NaN or an infinity raises :class:`ZeroTotal`."""
    try:
        return tuple(Fraction(v) for v in values)
    except (ValueError, OverflowError) as exc:
        raise ZeroTotal(f"values must be finite rationals: {exc}") from None


class RationalDistribution(_Record):
    """An exact probability vector with :class:`fractions.Fraction` entries.

    Used where the package promises exact arithmetic (urn posteriors,
    counting measures over finite credal sets).  Mirrors the float API:
    ``prob`` returns a Fraction, ``to_float`` drops to a
    :class:`FiniteDistribution`.
    """

    __slots__ = ("space", "probs")

    def __init__(self, space: OutcomeSpace, probs):
        probs = _fractions(probs)
        if len(probs) != len(space):
            raise LengthMismatch(f"need {len(space)} probabilities, got {len(probs)}")
        if any(p < 0 for p in probs):
            raise NegativeWeight("probabilities must be non-negative")
        if sum(probs) != 1:
            raise ZeroTotal(f"probabilities sum to {sum(probs)}, not 1")
        self._init(space=space, probs=probs)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{lab!r}: {p}" for lab, p in zip(self.space.labels, self.probs)
        )
        return f"RationalDistribution({{{body}}})"

    def prob(self, event: Event) -> Fraction:
        _require_same_space(self.space, event.space)
        return sum((self.probs[i] for i in event.indices), Fraction(0))

    def to_float(self) -> FiniteDistribution:
        return make_distribution(self.space, [float(p) for p in self.probs])


def make_distribution(space: OutcomeSpace, weights) -> FiniteDistribution:
    """Normalize non-negative weights into a distribution over ``space``.

    Relative proportions are preserved exactly up to the single division
    by the total; already-normalized input passes through unchanged.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size != len(space):
        raise LengthMismatch(f"need {len(space)} weights, got shape {w.shape}")
    if np.any(w < 0.0):
        raise NegativeWeight("weights must be non-negative")
    with np.errstate(over="ignore"):  # an overflowing total is refused just below
        total = stable_sum(w)
    if not 0.0 < total < np.inf:
        raise ZeroTotal(f"weights must have a finite positive total, got {total!r}")
    return FiniteDistribution(space, w / total)


def make_rational_distribution(space: OutcomeSpace, weights) -> RationalDistribution:
    """Exact-arithmetic counterpart of :func:`make_distribution`."""
    w = _fractions(weights)
    if len(w) != len(space):
        raise LengthMismatch(f"need {len(space)} weights, got {len(w)}")
    if any(x < 0 for x in w):
        raise NegativeWeight("weights must be non-negative")
    total = sum(w, Fraction(0))
    if total == 0:
        raise ZeroTotal("weights sum to zero")
    return RationalDistribution(space, [x / total for x in w])


def tv_distance(a, b) -> float:
    """Total variation distance ``sup_E |a(E) - b(E)| = 0.5 * ||a - b||_1``.

    Either distribution may be exact; its probabilities are read as floats.
    """
    _require_same_space(a.space, b.space)
    pa, pb = (np.asarray(d.probs, dtype=np.float64) for d in (a, b))
    return 0.5 * stable_sum(np.abs(pa - pb))


def event_probability(d, event: Event):
    """Probability mass the distribution assigns to the event: ``d.prob(event)``,
    a float for a :class:`FiniteDistribution`, a ``Fraction`` for a
    :class:`RationalDistribution`."""
    return d.prob(event)


def condition(d, event: Event):
    """Bayes' rule: ``d`` given an event of positive probability.

    The package's one conditioning rule, for float and exact
    distributions alike: each probability inside the event is divided
    once by ``d.prob(event)``, the rest become zero, and the result is
    rebuilt as ``type(d)`` on the same outcome space.
    :class:`credal.sets.EventMap` restricts it to the event's outcomes.
    """
    mass = d.prob(event)
    if mass <= 0:
        raise ZeroProbabilityEvent("conditioning event has probability zero")
    keep = set(event.indices)
    return type(d)(d.space, [p / mass if i in keep else 0 * p for i, p in enumerate(d.probs)])


def sample_l1_uniform(space: OutcomeSpace, rng: np.random.Generator):
    """Draw one distribution uniformly (w.r.t. TV distance) over the simplex.

    Normalized i.i.d. unit exponentials are jointly flat-Dirichlet, which
    is exactly the uniform law under the L1 (hence TV) metric.  Pass an
    explicit ``numpy.random.Generator``; determinism and parallel stream
    splitting are the caller's to manage via seeds and ``Generator.spawn``.
    """
    row = sample_l1_uniform_rows(len(space), 1, rng)[0]
    return FiniteDistribution(space, row)


def sample_l1_uniform_rows(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Batch form of :func:`sample_l1_uniform`: ``size`` rows of length ``n``.

    Returns a plain array (rows sum to one) for callers that build large
    stacks of weight vectors and do not want object overhead.
    """
    if n < 1 or size < 1:
        raise LengthMismatch("need n >= 1 and size >= 1")
    x = rng.standard_exponential(size=(size, n))
    totals = x.sum(axis=1, keepdims=True)
    # A total of exactly zero has probability zero; resample defensively.
    while np.any(totals == 0.0):  # pragma: no cover - probability-zero branch
        bad = totals[:, 0] == 0.0
        x[bad] = rng.standard_exponential(size=(int(bad.sum()), n))
        totals = x.sum(axis=1, keepdims=True)
    return x / totals
