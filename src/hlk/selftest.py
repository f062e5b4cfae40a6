"""Oracles and randomized self-checks for the reduction and invariant code.

The determinant and the minor-gcd profile (both by Bareiss elimination) share
no code with the reduction; random unimodular matrices and slides are moves
the divisors must survive.  Each trial draws a random matrix of at most 5 x 5
and checks what the library promises: exact transforms, divisors invariant
under unimodular multiplication, transposition and slides, agreement with the
minor-gcd oracle, and consistent quotient groups.  A check that raises fails
its trial.  One SplitMix64 stream drives all randomness, so a (trials, seed)
pair always reruns the identical trials.
"""

import math
import sys
from contextlib import suppress
from itertools import combinations

from .exactla import IntMatrix, SNFResult, _identity_rows, _require_ints, elementary_divisors, smith_normal_form
from .invariant import AbelianGroup, LkInvariant, quotient_groups, reconstruct_lk

__all__ = [
    "SplitMix64", "determinant", "minor_gcd_profile", "random_unimodular", "apply_slide",
    "random_matrix", "random_slide", "snf_defects", "trial_defects", "run_selftest",
]


def _bareiss(a: list[list[int]]) -> int:
    """Determinant of the square row list ``a`` by fraction-free (Bareiss)
    elimination; ``a`` is overwritten."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            arow, krow = a[i], a[k]
            for j in range(k + 1, n):
                # Bareiss: the division by the previous pivot is exact.
                arow[j] = (arow[j] * pivot - aik * krow[j]) // prev
            arow[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    return _bareiss(m.to_rows())


# ---------------------------------------------------------------------------
# Determinantal-divisor oracle.  Brute force over every minor and entirely
# separate from the reduction code in exactla, so the two can check each other:
# the product d_1 * ... * d_k must equal the gcd of all k x k minors.

_MINOR_DIM_LIMIT = 6
_MINOR_COUNT_LIMIT = 10**6


def minor_gcd_profile(m: IntMatrix) -> list[int]:
    """[D_1, ..., D_min(m,n)] where D_k = gcd of |all k x k minors|.

    D_k is 0 when every k x k minor vanishes.  Each minor is evaluated by
    Bareiss elimination; this is a verification oracle for small matrices,
    not a production path, and refuses inputs beyond the size guard.
    """
    k_max = min(m.rows, m.cols)
    if k_max > _MINOR_DIM_LIMIT:
        raise ValueError(f"minor oracle limited to min(m, n) <= {_MINOR_DIM_LIMIT}")
    total = sum(math.comb(m.rows, k) * math.comb(m.cols, k) for k in range(1, k_max + 1))
    if total > _MINOR_COUNT_LIMIT:
        raise ValueError(f"minor oracle limited to {_MINOR_COUNT_LIMIT} minors, needs {total}")

    rows = m.to_rows()
    profile = []
    for k in range(1, k_max + 1):
        g = 0
        for rsel in combinations(range(m.rows), k):
            picked = [rows[i] for i in rsel]
            for csel in combinations(range(m.cols), k):
                g = math.gcd(g, _bareiss([[r[j] for j in csel] for r in picked]))
                if g == 1:
                    break
            if g == 1:
                break
        profile.append(g)
    return profile


# ---------------------------------------------------------------------------
# Deterministic randomness for property testing.

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; fixed constants, reproducible across platforms.

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64, then the output is the
    state scrambled by two xor-shift-multiply rounds (see README for the
    exact recurrence).
    """

    def __init__(self, seed: int):
        _require_ints(seed=seed)
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw from range(n); modulo bias is irrelevant here."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n


def random_unimodular(size: int, seed: int, ops: int) -> IntMatrix:
    """Product of ``ops`` random elementary row operations on the identity.

    The operations are row swaps, row negations, and additions of k times
    one row to another with k in [-3, 3]; each has determinant +-1, so the
    result is unimodular.  Driven by :class:`SplitMix64`, hence fully
    reproducible from ``seed``.
    """
    _require_ints(size=size, ops=ops)
    if size < 1:
        raise ValueError("size must be at least 1")
    if ops < 0:
        raise ValueError("ops must be non-negative")
    rng = SplitMix64(seed)
    a = _identity_rows(size)
    for _ in range(ops):
        kind = rng.below(3)
        if kind == 0:
            i, j = rng.below(size), rng.below(size)
            if i != j:
                a[i], a[j] = a[j], a[i]
        elif kind == 1:
            i = rng.below(size)
            a[i] = [-x for x in a[i]]
        else:
            i, j = rng.below(size), rng.below(size)
            k = rng.below(7) - 3
            if i != j and k:
                src = a[i]
                a[j] = [x + k * y for x, y in zip(a[j], src)]
    return IntMatrix.from_rows(a, cols=size)


def apply_slide(m: IntMatrix, kind: str, src: int, dst: int, coeff: int) -> IntMatrix:
    """Add ``coeff`` times row/column ``src`` to row/column ``dst``.

    This is the matrix shadow of sliding one loop of a bouquet graph along
    another; it never changes the elementary divisors.
    """
    _require_ints(src=src, dst=dst, coeff=coeff)
    if kind not in ("row", "col"):
        raise ValueError(f"kind must be 'row' or 'col', got {kind!r}")
    if coeff not in (1, -1):
        raise ValueError(f"coeff must be +1 or -1, got {coeff!r}")
    limit = m.rows if kind == "row" else m.cols
    if not (0 <= src < limit and 0 <= dst < limit):
        raise IndexError(f"{kind} index out of range for {m.rows} x {m.cols}")
    if src == dst:
        raise ValueError("slide source and destination must differ")
    rows = m.to_rows()
    if kind == "row":
        rows[dst] = [x + coeff * y for x, y in zip(rows[dst], rows[src])]
    else:
        for row in rows:
            row[dst] += coeff * row[src]
    return IntMatrix.from_rows(rows, cols=m.cols)


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
    for name, t in (("u", r.u), ("v", r.v)):
        if abs(det := determinant(t)) != 1:
            defects.append(f"det {name} = {det}, expected +-1")
    rows = r.d.to_rows()
    diag = [row[i] for i, row in enumerate(rows[: r.d.cols])]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if i != j and x:
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
    """Run every property check, the minor-gcd oracle included, on one matrix; returns the failures."""
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
    if reconstruct_lk(a1, len(base)) != LkInvariant(base):
        defects.append("invariant not recovered from the quotient group")

    return defects


def run_selftest(trials: int, seed: int, verbose: bool = False, out=None, err=None) -> int:
    """Run ``trials`` random trials; returns the number of failing trials.

    Prints ``<passed>/<trials> passed`` to ``out`` and one line per defect
    to ``err``.  A trial whose checks raise fails with one defect,
    ``raised <Type>: <message>``.
    """
    _require_ints(trials=trials, seed=seed)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    rng = SplitMix64(seed)
    failures = 0
    for trial in range(trials):
        m = random_matrix(rng, 5, 5, 9)
        try:
            defects = trial_defects(m, rng)
        except Exception as exc:  # a check that cannot finish fails its trial
            defects = [f"raised {type(exc).__name__}: {exc}"]
        failures += bool(defects)
        with suppress(OSError):  # a line that cannot be written changes no result
            for msg in defects:
                print(f"trial {trial}: {msg} on {m!r}", file=err)
            if verbose and not defects:
                print(f"trial {trial}: ok ({m.rows} x {m.cols})", file=err)
    print(f"{trials - failures}/{trials} passed", file=out)
    return failures
