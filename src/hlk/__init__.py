"""Linking invariants of two-component handlebody-links.

The pipeline: parse a diagram (or a raw matrix file), form the linking
matrix, reduce it to Smith normal form over the integers, and read off
the invariant and the two quotient groups.  Everything is exact integer
arithmetic; randomized helpers exist to cross-check the reduction.
"""

from . import diagram, exactla, invariant
from .diagram import *
from .exactla import *
from .invariant import *

__version__ = "0.1.0"

# The self-test's names, which load hlk.selftest on first use (see __getattr__).
_SELFTEST = ("SplitMix64", "apply_slide", "determinant", "minor_gcd_profile", "random_unimodular", "run_selftest")

__all__ = [*diagram.__all__, *exactla.__all__, *invariant.__all__, *_SELFTEST, "__version__"]


def __getattr__(name):
    # Only `hlk selftest` runs the self-test, so importing hlk or hlk.cli skips it.
    if name == "selftest" or name in _SELFTEST:
        import hlk.selftest as selftest  # `from . import selftest` would call this function again
        return selftest if name == "selftest" else getattr(selftest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
