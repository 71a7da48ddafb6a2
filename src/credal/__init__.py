"""Credal sets under total-variation geometry.

A toolkit for reasoning with *sets* of probability distributions:

* :mod:`credal.core` — finite outcome spaces, distributions (float and
  exact-rational), total variation distance, conditioning, and uniform
  (flat-Dirichlet) simplex sampling;
* :mod:`credal.sets` — credal sets, lower/upper probabilities, and
  conditioning with explicit event relabeling;
* :mod:`credal.tvuniform` — the uniform measure over simply
  parametrized families (thickness densities, adaptive quadrature),
  reparametrization-invariant in one slot and, with several, under maps
  acting on each slot alone, and its finite counting-measure case;
* :mod:`credal.tower` — Monte-Carlo towers of higher-order uncertainty
  and their convergence/dilation statistics;
* :mod:`credal.inference` — exact urn updating and the evidence-ratio
  test of point nulls against uniform agnosticism;
* :mod:`credal.cli` — the ``credal`` command reproducing all of the
  above from the shell.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .core import (
    Event,
    FiniteDistribution,
    OutcomeSpace,
    RationalDistribution,
    condition,
    event_probability,
    make_distribution,
    make_rational_distribution,
    sample_l1_uniform,
    stable_sum,
    tv_distance,
)
from .errors import (
    AllDropped,
    AllMembersZero,
    ConfigInvalid,
    CredalError,
    DegenerateFamily,
    ImpossibleHistory,
    IndexOutOfRange,
    LengthMismatch,
    NegativeWeight,
    QuadratureNotConverged,
    SpaceMismatch,
    StepTooLarge,
    ZeroEvidence,
    ZeroProbabilityEvent,
    ZeroTotal,
)
from .inference import (
    BinomialTestReport,
    HocsResult,
    UrnState,
    binomial_test,
    hocs_curve,
    hocs_ratio,
    urn_compositions,
    urn_credal_set,
    urn_update,
    urn_work,
)
from .sets import CredalSet, EventMap, credal_condition, probability_range
from .tower import (
    DilationOrder,
    DilationProfile,
    OrderStats,
    Tower,
    TowerConfig,
    build_tower,
    convergence_stats,
    dilation_profile,
)
from .tvuniform import (
    CountingMeasure,
    ParamBox,
    ParamFamily,
    TvuMeasure,
    bernoulli_family,
    binomial_family,
    build_measure,
    coin_match_family,
    iid_extension,
    product_space,
    thickness,
    tvu_density,
)

__all__ = [
    "__version__",
    # core
    "OutcomeSpace", "Event", "FiniteDistribution", "RationalDistribution",
    "make_distribution", "make_rational_distribution", "tv_distance",
    "event_probability", "condition", "sample_l1_uniform", "stable_sum",
    # sets
    "CredalSet", "EventMap", "credal_condition", "probability_range",
    # tvuniform
    "ParamBox", "ParamFamily", "TvuMeasure", "CountingMeasure",
    "thickness", "tvu_density", "build_measure", "binomial_family",
    "bernoulli_family", "coin_match_family", "product_space",
    "iid_extension",
    # tower
    "TowerConfig", "Tower", "build_tower", "convergence_stats",
    "dilation_profile", "OrderStats", "DilationOrder", "DilationProfile",
    # inference
    "UrnState", "urn_update", "urn_work", "urn_compositions", "urn_credal_set",
    "HocsResult", "hocs_ratio", "hocs_curve",
    "BinomialTestReport", "binomial_test",
    # errors
    "CredalError", "LengthMismatch", "NegativeWeight", "ZeroTotal",
    "SpaceMismatch", "IndexOutOfRange", "ZeroProbabilityEvent",
    "AllMembersZero", "AllDropped", "ConfigInvalid", "StepTooLarge",
    "DegenerateFamily", "ZeroEvidence", "ImpossibleHistory",
    "QuadratureNotConverged",
]
