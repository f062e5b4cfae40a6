"""Randomized self-checks for the reduction and invariant code.

Each trial draws a small random matrix and exercises the properties the
library promises: exactness of the recorded transforms, invariance of the
divisors under unimodular multiplication, transposition and slides,
agreement with the minor-gcd oracle, and consistency of the quotient
groups.  All randomness flows from one SplitMix64 stream, so a (trials,
seed) pair always reruns the identical trials.
"""

import sys

from .exactla import (
    IntMatrix,
    SNFResult,
    SplitMix64,
    apply_slide,
    determinant,
    elementary_divisors,
    minor_gcd_profile,
    random_unimodular,
    smith_normal_form,
)
from .invariant import AbelianGroup, LkInvariant, quotient_groups, reconstruct_lk

__all__ = ["random_matrix", "random_slide", "snf_defects", "trial_defects", "run_selftest"]


def random_matrix(rng: SplitMix64, max_rows: int, max_cols: int, max_entry: int) -> IntMatrix:
    """Random matrix with 1..max_rows rows, 1..max_cols cols, entries in [-max_entry, max_entry]."""
    m = 1 + rng.below(max_rows)
    n = 1 + rng.below(max_cols)
    entries = tuple(rng.below(2 * max_entry + 1) - max_entry for _ in range(m * n))
    return IntMatrix(m, n, entries)


def random_slide(m: IntMatrix, rng: SplitMix64) -> IntMatrix | None:
    """One random slide move on ``m``, or None when no two rows or columns exist."""
    kinds = []
    if m.rows >= 2:
        kinds.append("row")
    if m.cols >= 2:
        kinds.append("col")
    if not kinds:
        return None
    kind = kinds[rng.below(len(kinds))]
    limit = m.rows if kind == "row" else m.cols
    src = rng.below(limit)
    dst = rng.below(limit - 1)
    if dst >= src:
        dst += 1
    coeff = 1 if rng.below(2) else -1
    return apply_slide(m, kind, src, dst, coeff)


def snf_defects(m: IntMatrix, r: SNFResult) -> list[str]:
    """Every way ``r`` fails to be a sound Smith normal form of ``m`` (empty if sound)."""
    defects = []
    if r.u @ m @ r.v != r.d:
        defects.append("u @ m @ v differs from d")
    if abs(determinant(r.u)) != 1:
        defects.append(f"det u = {determinant(r.u)}, expected +-1")
    if abs(determinant(r.v)) != 1:
        defects.append(f"det v = {determinant(r.v)}, expected +-1")
    diag = [r.d.entry(i, i) for i in range(min(r.d.rows, r.d.cols))]
    for i in range(r.d.rows):
        for j in range(r.d.cols):
            if i != j and r.d.entry(i, j):
                defects.append(f"d has off-diagonal entry at ({i}, {j})")
    if list(r.divisors) != [x for x in diag if x]:
        defects.append("divisors do not match the nonzero diagonal of d")
    if any(x == 0 for x in diag[: len(r.divisors)]):
        defects.append("zero diagonal entry ahead of a nonzero one")
    for d in r.divisors:
        if d < 1:
            defects.append(f"non-positive divisor {d}")
    for a, b in zip(r.divisors, r.divisors[1:]):
        if b % a:
            defects.append(f"divisor chain broken: {a} does not divide {b}")
    return defects


def trial_defects(m: IntMatrix, rng: SplitMix64) -> list[str]:
    """Run every property check on one matrix; returns the failures."""
    defects = []
    r = smith_normal_form(m)
    defects += snf_defects(m, r)
    base = list(r.divisors)

    u = random_unimodular(m.rows, rng.next_u64(), 12)
    v = random_unimodular(m.cols, rng.next_u64(), 12)
    if elementary_divisors(u @ m @ v) != base:
        defects.append("divisors changed under unimodular multiplication")

    transposed = elementary_divisors(m.transpose())
    if transposed != base:
        defects.append("divisors changed under transposition")

    slid = random_slide(m, rng)
    if slid is not None and elementary_divisors(slid) != base:
        defects.append("divisors changed under a slide move")

    if min(m.rows, m.cols) <= 3:
        profile = minor_gcd_profile(m)
        prod = 1
        for k, d in enumerate(base):
            prod *= d
            if profile[k] != prod:
                defects.append(f"minor-gcd oracle disagrees at k={k + 1}")
        for k in range(len(base), len(profile)):
            if profile[k] != 0:
                defects.append(f"minor-gcd oracle nonzero beyond rank at k={k + 1}")

    a1, a2 = quotient_groups(m)
    if a2 != AbelianGroup(m.cols - len(transposed), tuple(d for d in transposed if d > 1)):
        defects.append("second quotient group differs from the one the transpose presents")
    if reconstruct_lk(a1, len(base)) != LkInvariant(tuple(base)):
        defects.append("invariant not recovered from the quotient group")

    return defects


def run_selftest(trials: int, seed: int, verbose: bool = False, out=None, err=None) -> int:
    """Run ``trials`` random trials; returns the number of failing trials.

    Prints ``<passed>/<trials> passed`` to ``out`` and one line per defect
    to ``err``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    rng = SplitMix64(seed)
    failures = 0
    for trial in range(trials):
        m = random_matrix(rng, 5, 5, 9)
        defects = trial_defects(m, rng)
        if defects:
            failures += 1
            for msg in defects:
                print(f"trial {trial}: {msg} on {m!r}", file=err)
        elif verbose:
            print(f"trial {trial}: ok ({m.rows} x {m.cols})", file=err)
    print(f"{trials - failures}/{trials} passed", file=out)
    return failures
