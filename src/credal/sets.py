"""Credal sets (sets of distributions) and conditioning with relabeling.

Conditioning a credal set on an event ``E`` does two things at once:

* every member with positive mass on ``E`` is Bayes-conditioned, members
  assigning zero mass are discarded (their conditional is undefined);
* the outcome space is restricted to ``E`` via an explicit
  :class:`EventMap`, the bookkeeping object that translates events of the
  original space into events of the restricted space (``f -> f & E``)
  and back.  Keeping the map around is what makes iterated, time-indexed
  conditioning auditable: probabilities assigned before and after the
  restriction can be compared event by event.

Distinct members may collapse to the same conditional; such duplicates
are merged and the merge count is recorded in ``multiplicities``.  Exact
members merge when equal; float members merge when every probability
rounds to the same multiple of ``MERGE_TOL`` (``np.rint(p / MERGE_TOL)``).
That is a rounding grid, not a TV threshold: two conditionals closer than
``MERGE_TOL`` stay apart when a rounding boundary falls between them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    Event,
    FiniteDistribution,
    OutcomeSpace,
    RationalDistribution,
    _Frozen,
    _integer,
    _require_same_space,
    condition,
)
from .errors import AllMembersZero, ConfigInvalid, IndexOutOfRange, LengthMismatch

__all__ = [
    "CredalSet",
    "EventMap",
    "credal_condition",
    "probability_range",
    "MERGE_TOL",
]

MERGE_TOL = 1e-12


class CredalSet(_Frozen):
    """A non-empty finite set of distributions over one outcome space.

    ``multiplicities[i]`` counts how many original members are
    represented by ``members[i]`` after any merging; fresh sets default
    to all ones.  ``labels`` optionally names members (e.g. the parameter
    value that generated each one).
    """

    __slots__ = ("space", "members", "labels", "multiplicities")

    def __init__(
        self,
        members: Sequence[FiniteDistribution | RationalDistribution],
        labels: Sequence | None = None,
        multiplicities: Sequence[int] | None = None,
    ):
        members = tuple(members)
        if not members:
            raise LengthMismatch("a credal set needs at least one member")
        space = members[0].space
        for m in members[1:]:
            _require_same_space(space, m.space)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(members):
                raise LengthMismatch("one label per member required")
        if multiplicities is None:
            multiplicities = (1,) * len(members)
        else:
            multiplicities = tuple(_integer("a multiplicity", k) for k in multiplicities)
            if len(multiplicities) != len(members):
                raise LengthMismatch("one multiplicity per member required")
            if any(k < 1 for k in multiplicities):
                raise ConfigInvalid("multiplicities must be positive")
        self._init(space=space, members=members, labels=labels,
                   multiplicities=multiplicities)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __repr__(self) -> str:
        return f"CredalSet({len(self.members)} members over {self.space!r})"

    def member(self, i: int):
        i = _integer("a member index", i)
        if not 0 <= i < len(self.members):
            raise IndexOutOfRange(f"member index {i} out of range")
        return self.members[i]

    def total_multiplicity(self) -> int:
        return sum(self.multiplicities)


def probability_range(c: CredalSet, event: Event) -> tuple[float, float]:
    """Lower and upper probability of the event across all members."""
    probs = [float(m.prob(event)) for m in c.members]
    return min(probs), max(probs)


class EventMap(_Frozen):
    """Relabeling induced by conditioning: source events to the event space.

    The target space's outcomes are exactly the outcomes of the
    conditioning event, in source order.  The forward direction sends a
    source event ``f`` to the target event for ``f & E``; the preimage of
    a target event is the corresponding subset of ``E`` in the source
    space.  Forward mapping is surjective but many-to-one: all source
    outcomes outside ``E`` are dropped, so mapping then pulling back
    returns ``f & E``, not ``f``.  A distribution maps by
    :func:`~credal.core.condition` on ``E``, then restriction.
    """

    __slots__ = ("source_space", "event", "target_space", "_src2tgt", "_tgt2src")

    def __init__(self, event: Event):
        if len(event) == 0:
            raise LengthMismatch("cannot restrict to an empty event")
        self._init(source_space=event.space, event=event,
                   target_space=OutcomeSpace(event.labels),
                   _src2tgt={s: t for t, s in enumerate(event.indices)},
                   _tgt2src=tuple(event.indices))

    def __repr__(self) -> str:
        return f"EventMap({self.event!r} -> {self.target_space!r})"

    def map_event(self, f: Event) -> Event:
        """Image of a source event: ``f & E`` expressed in the target space."""
        _require_same_space(self.source_space, f.space)
        tgt = [self._src2tgt[i] for i in f.indices if i in self._src2tgt]
        return Event(self.target_space, tgt)

    def preimage(self, g: Event) -> Event:
        """Source-space event corresponding to a target event (a subset of E)."""
        _require_same_space(self.target_space, g.space)
        return Event(self.source_space, (self._tgt2src[j] for j in g.indices))

    def map_distribution(self, d):
        """``d`` conditioned on E by :func:`condition` (with its errors), then restricted."""
        probs = condition(d, self.event).probs
        return type(d)(self.target_space, [probs[i] for i in self._tgt2src])


def _merge_key(member) -> tuple:
    if isinstance(member, RationalDistribution):
        return member.probs
    scaled = np.rint(np.asarray(member.probs) / MERGE_TOL)
    return tuple(int(v) for v in scaled)


def credal_condition(c: CredalSet, event: Event) -> tuple[CredalSet, EventMap]:
    """Condition every member on the event and restrict to its outcomes.

    Members assigning zero probability to the event are dropped; if all
    of them do, :class:`~credal.errors.AllMembersZero` is raised.
    Surviving conditionals that coincide are merged, summing their
    multiplicities: exact ones when equal, float ones when each
    probability rounds to the same multiple of ``MERGE_TOL`` (see the
    module docstring; a rounding boundary can split near neighbours).
    Returns the conditioned set together with the :class:`EventMap`
    used for the restriction.
    """
    _require_same_space(c.space, event.space)
    emap = EventMap(event)

    merged: dict[tuple, int] = {}
    members: list = []
    labels: list = []
    mults: list[int] = []
    have_labels = c.labels is not None
    for i, m in enumerate(c.members):
        if m.prob(event) <= 0:
            continue
        conditioned = emap.map_distribution(m)
        key = _merge_key(conditioned)
        if key in merged:
            slot = merged[key]
            mults[slot] += c.multiplicities[i]
            continue
        merged[key] = len(members)
        members.append(conditioned)
        if have_labels:
            labels.append(c.labels[i])
        mults.append(c.multiplicities[i])
    if not members:
        raise AllMembersZero("every member assigns zero probability to the event")
    return (
        CredalSet(members, labels=labels if have_labels else None, multiplicities=mults),
        emap,
    )
