"""Linking invariants of two-component handlebody-links.

The pipeline: parse a diagram (or a raw matrix file), form the linking
matrix, reduce it to Smith normal form over the integers, and read off
the invariant and the two quotient groups.  Everything is exact integer
arithmetic; randomized helpers exist to cross-check the reduction.
"""

from .diagram import (
    Diagram,
    DiagramParseError,
    InvalidDiagramError,
    Loop,
    linking_matrix,
    linking_number,
    merge_loops,
    parse_diagram,
)
from .exactla import (
    IntMatrix,
    MatrixParseError,
    SNFResult,
    SplitMix64,
    apply_slide,
    determinant,
    elementary_divisors,
    format_matrix,
    minor_gcd_profile,
    parse_matrix,
    rank,
    random_unimodular,
    smith_normal_form,
)
from .invariant import (
    AbelianGroup,
    LkInvariant,
    handlebody_linking,
    quotient_group,
    quotient_groups,
    reconstruct_lk,
)
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = [
    "Diagram",
    "DiagramParseError",
    "InvalidDiagramError",
    "Loop",
    "linking_matrix",
    "linking_number",
    "merge_loops",
    "parse_diagram",
    "IntMatrix",
    "MatrixParseError",
    "SNFResult",
    "SplitMix64",
    "apply_slide",
    "determinant",
    "elementary_divisors",
    "format_matrix",
    "minor_gcd_profile",
    "parse_matrix",
    "rank",
    "random_unimodular",
    "smith_normal_form",
    "AbelianGroup",
    "LkInvariant",
    "handlebody_linking",
    "quotient_group",
    "quotient_groups",
    "reconstruct_lk",
    "run_selftest",
    "__version__",
]
