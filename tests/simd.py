"""The numpy SIMD dispatch that the byte goldens were recorded under.

numpy picks one kernel per float64 ufunc at import, from the CPU's
features minus any that ``NPY_DISABLE_CPU_FEATURES`` turns off, and its
``exp``, ``log`` and ``log1p`` kernels for different targets can round
the same input to different last bits.  The binomial family's masses and
thickness pass through all three, so a digest of their bytes holds for one
numpy version and one set of kernels.  A golden table is keyed by
:func:`dispatch_key`; a key with no recorded entry fails and names itself.
"""

import numpy as np
import pytest

try:
    from numpy.lib.introspect import opt_func_info
except ImportError:  # numpy < 2.0 cannot report its dispatch
    opt_func_info = None

UFUNCS = ("exp", "log", "log1p")

NUMPY = "2.4.6"
AVX512 = (NUMPY, "X86_V4", "X86_V4", "X86_V4")
AVX2 = (NUMPY, "X86_V3", "X86_V3", "baseline(X86_V2)")
BASELINE = (NUMPY, "baseline(X86_V2)", "baseline(X86_V2)", "baseline(X86_V2)")

# The ``NPY_DISABLE_CPU_FEATURES`` settings that steer x86-64 numpy on an
# AVX-512 host to the AVX2 and the baseline kernels, and the keys they give.
STEERED = {
    "AVX2": ("X86_V4 AVX512_ICL AVX512_SPR", AVX2),
    "baseline": ("X86_V3 X86_V4 AVX512_ICL AVX512_SPR", BASELINE),
}


def _target(name: str) -> str:
    if opt_func_info is None:
        return "unknown"
    return opt_func_info(func_name=f"^{name}$", signature="float64")[name]["dd"]["current"]


def dispatch_key() -> tuple[str, ...]:
    """numpy's version and the targets its float64 ``UFUNCS`` run on."""
    return (np.__version__, *map(_target, UFUNCS))


def recorded(table: dict):
    """The entry of ``table`` recorded under this run's dispatch key."""
    key = dispatch_key()
    if key not in table:
        pytest.fail(f"no golden recorded for numpy dispatch {key}; record one on such a host")
    return table[key]
