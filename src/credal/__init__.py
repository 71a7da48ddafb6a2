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

from . import core, errors, inference, sets, tower, tvuniform
from .core import *
from .errors import *
from .inference import *
from .sets import *
from .tower import *
from .tvuniform import *

# Each module's __all__ is its public interface; the package republishes them.
__all__ = ["__version__"]
__all__ += core.__all__
__all__ += sets.__all__
__all__ += tvuniform.__all__
__all__ += tower.__all__
__all__ += inference.__all__
__all__ += errors.__all__
