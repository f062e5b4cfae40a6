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
from .selftest import SplitMix64, apply_slide, determinant, minor_gcd_profile, random_unimodular, run_selftest

__version__ = "0.1.0"

__all__ = [*diagram.__all__, *exactla.__all__, *invariant.__all__, "SplitMix64", "apply_slide",
           "determinant", "minor_gcd_profile", "random_unimodular", "run_selftest", "__version__"]
