"""Exception types raised by the credal library.

Everything derives from :class:`CredalError` (itself a ``ValueError``) so
callers can catch the whole family with one clause while still seeing
specific failure modes in tracebacks.
"""

from __future__ import annotations

__all__ = [
    "CredalError", "LengthMismatch", "NegativeWeight", "ZeroTotal", "SpaceMismatch",
    "IndexOutOfRange", "ZeroProbabilityEvent", "AllMembersZero", "AllDropped", "ConfigInvalid",
    "StepTooLarge", "DegenerateFamily", "QuadratureNotConverged", "ZeroEvidence",
    "ImpossibleHistory",
]


class CredalError(ValueError):
    """Base class for all validation and domain errors in this package."""


class LengthMismatch(CredalError):
    """Weight/label vectors whose lengths disagree with the outcome space."""


class NegativeWeight(CredalError):
    """A weight or probability was negative."""


class ZeroTotal(CredalError):
    """A weight vector whose total is zero or not finite, so it cannot be normalized."""


class SpaceMismatch(CredalError):
    """Two objects built over different outcome spaces were combined."""


class IndexOutOfRange(CredalError):
    """An outcome, member, order, or particle index outside the valid range."""


class ZeroProbabilityEvent(CredalError):
    """Conditioning on an event the distribution gives probability zero."""


class AllMembersZero(CredalError):
    """Every member of a credal set assigns zero mass to the conditioning event."""


class AllDropped(CredalError):
    """Every base particle of a tower was dropped by the conditioning event."""


class ConfigInvalid(CredalError):
    """A configuration object failed validation."""


class StepTooLarge(CredalError):
    """A finite-difference step too large for its interval or for the local curvature."""


class DegenerateFamily(CredalError):
    """A parametrized family whose density integrates to zero."""


class QuadratureNotConverged(CredalError):
    """Quadrature stopped at its panel or refinement cap above the tolerance."""


class ZeroEvidence(CredalError):
    """The normalizing (evidence) term of a conditional quantity is zero."""


class ImpossibleHistory(CredalError):
    """An observation history that no hypothesis can generate."""
