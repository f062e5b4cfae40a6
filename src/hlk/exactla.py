"""Exact integer matrices, Smith normal form, and oracles for checking it.

Everything here works with plain Python integers, so entries of any
magnitude stay exact; intermediate values during reduction routinely
exceed machine words.
"""

import math
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Literal

__all__ = [
    "IntMatrix",
    "SNFResult",
    "MatrixParseError",
    "SplitMix64",
    "smith_normal_form",
    "elementary_divisors",
    "rank",
    "minor_gcd_profile",
    "random_unimodular",
    "apply_slide",
    "determinant",
    "parse_matrix",
    "format_matrix",
]


class MatrixParseError(ValueError):
    """Raised when a matrix file cannot be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, entries stored row-major.

    Zero rows or columns are allowed; an m x 0 or 0 x n matrix is a valid
    (rank zero) value.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries for a "
                f"{self.rows} x {self.cols} matrix, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: int | None = None) -> "IntMatrix":
        """Build a matrix from an iterable of rows.

        ``cols`` disambiguates the width when ``rows`` is empty.
        """
        row_list = [list(r) for r in rows]
        if row_list:
            width = len(row_list[0])
            if any(len(r) != width for r in row_list):
                raise ValueError("rows have unequal lengths")
            if cols is not None and cols != width:
                raise ValueError(f"rows have {width} entries, expected {cols}")
        else:
            width = 0 if cols is None else cols
        flat = tuple(x for r in row_list for x in r)
        return cls(len(row_list), width, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls(m, n, (0,) * (m * n))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) out of range for {self.rows} x {self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        """Mutable row-of-lists copy, the working form for reductions."""
        n = self.cols
        return [list(self.entries[i * n : (i + 1) * n]) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        flipped = tuple(
            self.entries[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        )
        return IntMatrix(self.cols, self.rows, flipped)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows} x {self.cols} by {other.rows} x {other.cols}"
            )
        a, b = self.to_rows(), other.to_rows()
        n = other.cols
        out = []
        for arow in a:
            acc = [0] * n
            for k, x in enumerate(arow):
                if x:
                    brow = b[k]
                    for j in range(n):
                        acc[j] += x * brow[j]
            out.append(acc)
        return IntMatrix.from_rows(out, cols=n)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"IntMatrix({self.rows}x{self.cols} [{body}])"


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form ``u @ input @ v == d`` with unimodular u, v.

    ``d`` is rectangular diagonal; its nonzero diagonal entries are
    ``divisors``, positive and each dividing the next.
    """

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix
    divisors: tuple[int, ...]


# ---------------------------------------------------------------------------
# Elementary row/column operations on list-of-lists working copies.  Row
# helpers apply the operation to every matrix in `rows`, column helpers to
# every matrix in `cols`.  Both lists start with the working matrix; any
# further members are transform accumulators kept in sync with it.

def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_rows(rows, i, j):
    for m in rows:
        m[i], m[j] = m[j], m[i]


def _add_row(rows, src, dst, k):
    for m in rows:
        ms, md = m[src], m[dst]
        for idx, x in enumerate(ms):
            if x:
                md[idx] += k * x


def _negate_row(rows, i):
    for m in rows:
        m[i] = [-x for x in m[i]]


def _mix_rows(rows, i, p, q, r, s):
    """Rows (i, i+1) become (p*row_i + q*row_i+1, r*row_i + s*row_i+1)."""
    for m in rows:
        x, y = m[i], m[i + 1]
        m[i] = [p * a + q * b for a, b in zip(x, y)]
        m[i + 1] = [r * a + s * b for a, b in zip(x, y)]


def _swap_cols(cols, i, j):
    for m in cols:
        for row in m:
            row[i], row[j] = row[j], row[i]


def _add_col(cols, src, dst, k):
    for m in cols:
        for row in m:
            x = row[src]
            if x:
                row[dst] += k * x


def _mix_cols(cols, i, p, q, r, s):
    """Columns (i, i+1) become (p*col_i + q*col_i+1, r*col_i + s*col_i+1)."""
    for m in cols:
        for row in m:
            x, y = row[i], row[i + 1]
            row[i], row[i + 1] = p * x + q * y, r * x + s * y


def _min_abs_entry(a, t, m, n):
    """Position of the smallest-magnitude nonzero entry of a[t:, t:].

    Ties go to the earliest position in row-major scan order, which keeps
    the whole reduction deterministic.  Returns None when the submatrix is
    all zero.
    """
    best = None
    bi = bj = -1
    for i in range(t, m):
        row = a[i]
        for j in range(t, n):
            x = row[j]
            if x:
                if x < 0:
                    x = -x
                if best is None or x < best:
                    best, bi, bj = x, i, j
                    if best == 1:
                        return bi, bj
    return None if best is None else (bi, bj)


def _diagonalize(rows, cols):
    """Staircase reduction of the working matrix ``rows[0]`` to diagonal form.

    At each step the nonzero entry of least magnitude is moved to the
    pivot position and its row and column are cleared by Euclidean
    subtraction steps.  Any nonzero remainder is strictly smaller than the
    pivot and is swapped in as the new pivot, so each step terminates.
    Returns the number of pivots, which is the rank.
    """
    a = rows[0]
    m = len(a)
    n = len(a[0]) if m else 0
    t = 0
    while True:
        pivot = _min_abs_entry(a, t, m, n)
        if pivot is None:
            return t
        pi, pj = pivot
        if pi != t:
            _swap_rows(rows, t, pi)
        if pj != t:
            _swap_cols(cols, t, pj)
        while True:
            p = a[t][t]
            improved = False
            for i in range(t + 1, m):
                x = a[i][t]
                if x:
                    q = x // p
                    if q:
                        _add_row(rows, t, i, -q)
                    if a[i][t]:
                        _swap_rows(rows, t, i)
                        improved = True
                        break
            if improved:
                continue
            for j in range(t + 1, n):
                x = a[t][j]
                if x:
                    q = x // p
                    if q:
                        _add_col(cols, t, j, -q)
                    if a[t][j]:
                        _swap_cols(cols, t, j)
                        improved = True
                        break
            if improved:
                continue
            break
        t += 1


def _reduce(rows, cols) -> list[int]:
    """Reduce the working matrix ``rows[0]`` (also ``cols[0]``) to Smith form.

    Diagonalizes, repairs the divisibility chain and makes the divisors
    positive, applying each row operation to every matrix in ``rows`` and
    each column operation to every matrix in ``cols``.  Returns the chain.
    """
    a = rows[0]
    r = _diagonalize(rows, cols)

    # Repair the chain: a violating pair (x, y) becomes (g, xy/g) with
    # g = gcd(x, y) = s*x + t*y, by one row and one column step, each of
    # determinant 1.  Each fix strictly shrinks |d_i|, so the sweep settles.
    # s is the inverse of x/g modulo k = |y/g|, taken nearest zero to keep
    # the transforms small.
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            x, y = a[i][i], a[i + 1][i + 1]
            if y % x:
                g = math.gcd(x, y)
                k = abs(y // g)
                s = (pow(x // g, -1, k) + k // 2) % k - k // 2
                t = (g - s * x) // y
                _mix_rows(rows, i, s, t, -y // g, x // g)
                _mix_cols(cols, i, 1, 1, -t * y // g, s * x // g)
                changed = True

    for i in range(r):
        if a[i][i] < 0:
            _negate_row(rows, i)
    return [a[i][i] for i in range(r)]


def smith_normal_form(m: IntMatrix) -> SNFResult:
    """Smith normal form with recorded transforms.

    Returns an :class:`SNFResult` whose matrices satisfy
    ``u @ m @ v == d`` exactly, with ``|det u| = |det v| = 1``, ``d``
    rectangular diagonal, and the nonzero diagonal entries positive and
    forming a divisibility chain.  Total and deterministic: the same input
    always yields the identical result, including ``u`` and ``v``.
    """
    a = m.to_rows()
    u = _identity_rows(m.rows)
    v = _identity_rows(m.cols)
    divisors = _reduce([a, u], [a, v])
    return SNFResult(
        d=IntMatrix.from_rows(a, cols=m.cols),
        u=IntMatrix.from_rows(u, cols=m.rows),
        v=IntMatrix.from_rows(v, cols=m.cols),
        divisors=tuple(divisors),
    )


def elementary_divisors(m: IntMatrix) -> list[int]:
    """The divisor chain d_1 | d_2 | ... of ``m``, each positive."""
    a = m.to_rows()
    return _reduce([a], [a])


def rank(m: IntMatrix) -> int:
    """Rank of ``m`` over the integers (= length of the divisor chain)."""
    return len(elementary_divisors(m))


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
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


# ---------------------------------------------------------------------------
# Determinantal-divisor oracle.  Deliberately brute force and entirely
# separate from the reduction code above, so the two can check each other:
# the product d_1 * ... * d_k must equal the gcd of all k x k minors.

_MINOR_DIM_LIMIT = 6
_MINOR_COUNT_LIMIT = 10**6


def _cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    first = rows[0]
    rest = rows[1:]
    total = 0
    for j, x in enumerate(first):
        if x == 0:
            continue
        sub = [r[:j] + r[j + 1 :] for r in rest]
        d = _cofactor_det(sub)
        total += x * d if j % 2 == 0 else -x * d
    return total


def minor_gcd_profile(m: IntMatrix) -> list[int]:
    """[D_1, ..., D_min(m,n)] where D_k = gcd of |all k x k minors|.

    D_k is 0 when every k x k minor vanishes.  Minors are evaluated by
    cofactor expansion; this is a verification oracle for small matrices,
    not a production path, and refuses inputs beyond the size guard.
    """
    k_max = min(m.rows, m.cols)
    if k_max > _MINOR_DIM_LIMIT:
        raise ValueError(f"minor oracle limited to min(m, n) <= {_MINOR_DIM_LIMIT}")
    total = sum(math.comb(m.rows, k) * math.comb(m.cols, k) for k in range(1, k_max + 1))
    if total > _MINOR_COUNT_LIMIT:
        raise ValueError(f"minor oracle limited to {_MINOR_COUNT_LIMIT} minors, needs {total}")

    rows = [list(m.row(i)) for i in range(m.rows)]
    profile = []
    for k in range(1, k_max + 1):
        g = 0
        for rsel in combinations(range(m.rows), k):
            picked = [rows[i] for i in rsel]
            for csel in combinations(range(m.cols), k):
                minor = [[r[j] for j in csel] for r in picked]
                g = math.gcd(g, _cofactor_det(minor))
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


def apply_slide(
    m: IntMatrix,
    kind: Literal["row", "col"],
    src: int,
    dst: int,
    coeff: int,
) -> IntMatrix:
    """Add ``coeff`` times row/column ``src`` to row/column ``dst``.

    This is the matrix shadow of sliding one loop of a bouquet graph along
    another; it never changes the elementary divisors.
    """
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


# ---------------------------------------------------------------------------
# Matrix file format: header `matrix <m> <n>`, then m rows of n integers, each an
# ASCII token `[+-]?[0-9]+`, space separated.  `#` comments and blanks are ignored.

_INTEGERS = re.compile(r"[+-]?[0-9]+(?: [+-]?[0-9]+)*")


def _integers(tokens: list[str], lineno: int, what: str) -> list[int]:
    if not _INTEGERS.fullmatch(" ".join(tokens)):
        raise MatrixParseError(f"{what} must be signed decimal integers", line=lineno)
    try:
        return [int(t) for t in tokens]
    except ValueError:
        # The grammar held, so int() refused the length (over 4,300 digits by default).
        raise MatrixParseError(f"{what} exceed the integer digit limit", line=lineno) from None


def parse_matrix(text: str) -> IntMatrix:
    """Parse the textual matrix format; raises MatrixParseError with a line number."""
    significant = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        significant.append((lineno, [t for t in stripped.split(" ") if t]))

    if not significant:
        raise MatrixParseError("empty input, expected a 'matrix <m> <n>' header")
    header_line, header = significant[0]
    if header[0] != "matrix" or len(header) != 3:
        raise MatrixParseError("expected header 'matrix <m> <n>'", line=header_line)
    m, n = _integers(header[1:], header_line, "matrix dimensions")
    if m < 0 or n < 0:
        raise MatrixParseError("matrix dimensions must be non-negative", line=header_line)

    body = significant[1:]
    # A width-zero matrix has no printable rows, so none are expected.
    expected_rows = m if n > 0 else 0
    if len(body) != expected_rows:
        where = body[expected_rows][0] if len(body) > expected_rows else header_line
        raise MatrixParseError(f"expected {expected_rows} rows, found {len(body)}", line=where)
    if n == 0:
        return IntMatrix.zeros(m, 0)

    rows = []
    for lineno, tokens in body:
        if len(tokens) != n:
            raise MatrixParseError(f"expected {n} entries, found {len(tokens)}", line=lineno)
        rows.append(_integers(tokens, lineno, "entries"))
    return IntMatrix.from_rows(rows, cols=n)


def format_matrix(m: IntMatrix) -> str:
    """Render ``m`` in the matrix file format (bit-exact, trailing newline)."""
    lines = [f"matrix {m.rows} {m.cols}"]
    if m.cols > 0:
        for i in range(m.rows):
            lines.append(" ".join(str(x) for x in m.row(i)))
    return "\n".join(lines) + "\n"
