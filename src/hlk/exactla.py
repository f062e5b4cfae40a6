"""Exact integer matrices, their Smith normal form, and the matrix file format.

Everything here works with plain Python integers, so entries of any
magnitude stay exact; intermediate values during reduction routinely
exceed machine words.
"""

import math
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from itertools import chain, compress, islice
from operator import mul

__all__ = [
    "IntMatrix",
    "SNFResult",
    "MatrixParseError",
    "smith_normal_form",
    "elementary_divisors",
    "parse_matrix",
    "format_matrix",
]


class _ParseError(ValueError):
    """A parse error, with ``line N:`` prefixed when the line is known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MatrixParseError(_ParseError):
    """Raised when a matrix file cannot be parsed."""


def _require_ints(**values) -> None:
    """Raise ``TypeError`` naming the first of ``values`` whose type is not exactly ``int``."""
    for name, value in values.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")


class _Record:
    """Base of the immutable value types; a subclass's ``__slots__`` are its fields.

    A subclass's ``__init__`` hands every field value to this one; equality,
    hashing, ``repr`` and pickling go by those values.  It hands sequences over
    as tuples: a caller's list would stay shared and make the value unhashable.
    See README, Design notes.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class IntMatrix(_Record):
    """Immutable dense integer matrix, entries stored row-major.

    Zero rows or columns are allowed; an m x 0 or 0 x n matrix is a valid
    (rank zero) value.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        super().__init__(rows, cols, tuple(entries))
        if type(self.rows) is not int or type(self.cols) is not int:
            raise TypeError(f"matrix dimensions must be ints, got {self.rows!r} x {self.cols!r}")
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries for a "
                f"{self.rows} x {self.cols} matrix, got {len(self.entries)}"
            )
        if not set(map(type, self.entries)) <= {int}:
            bad = next(x for x in self.entries if type(x) is not int)
            raise TypeError(f"matrix entries must be ints, got {bad!r}")

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
        return cls(len(row_list), width, tuple(chain.from_iterable(row_list)))

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
        e, n = self.entries, self.cols
        return IntMatrix(n, self.rows, tuple(chain.from_iterable(e[j::n] for j in range(n))))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows} x {self.cols} by {other.rows} x {other.cols}"
            )
        e, n = other.entries, other.cols
        cols = [e[j::n] for j in range(n)]
        products = (sum(map(mul, row, col)) for row in self.to_rows() for col in cols)
        return IntMatrix(self.rows, n, tuple(products))

    def __repr__(self):
        # Rows are cut from the entries, so a width-zero matrix costs nothing
        # however many rows it has.
        n, e = self.cols, self.entries
        body = "; ".join(" ".join(map(str, e[k : k + n])) for k in range(0, len(e), n or 1))
        return f"IntMatrix({self.rows}x{self.cols} [{body}])"


class SNFResult(_Record):
    """Smith normal form ``u @ input @ v == d`` with unimodular u, v.

    ``d`` is rectangular diagonal; its nonzero diagonal entries are
    ``divisors``, positive and each dividing the next.
    """

    __slots__ = ("d", "u", "v", "divisors")

    def __init__(self, d: IntMatrix, u: IntMatrix, v: IntMatrix, divisors: tuple[int, ...]):
        super().__init__(d, u, v, tuple(divisors))


# ---------------------------------------------------------------------------
# Working copies are lists of row lists.  The certified path keeps one bordered
# matrix B = [[A, U], [V, 0]], so that a step on A's rows also updates U and a
# step on A's columns also updates V; B's transpose [[A^T, V^T], [U^T, 0]] has
# the same layout.  The divisor-only path works on A alone.  Its staircase is
# the faster reduction on small inputs, but its entries blow up on dense ones,
# so it runs under a budget of 50 * m * min(m, n) multiplier bits; past that,
# the Hermite alternation finishes the trailing block A[t:, t:], no border.
# Every staircase step is unimodular and touches only rows and columns from
# its pivot t on, so the t finished pivots and the block keep A's divisors.
# Hermite's rows stop at a shared width past which all are zero (an identity
# border's row j brings j + 1 columns), and a row step starts at the pivot
# column, left of which the basis row is zero: it skips only zeros.

def _identity_rows(n):
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _transpose(a):
    return [list(c) for c in zip(*a)]


def _combine(u, w, p, q, r, s):
    """The lists ``(p*u + q*w, r*u + s*w)``: one 2x2 step on two rows or two columns."""
    return [p * x + q * y for x, y in zip(u, w)], [r * x + s * y for x, y in zip(u, w)]


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


def _diagonalize(a, budget):
    """Staircase reduction of ``a`` to diagonal form, recording no transforms.

    At each step the nonzero entry of least magnitude is moved to the
    pivot position and its row and column are cleared by Euclidean
    subtraction steps.  Any nonzero remainder is strictly smaller than the
    pivot and is swapped in as the new pivot, so each step terminates.
    Returns the number of pivots, which is the rank.

    Each row subtraction spends the bit length of its multiplier.  Entries
    can grow without bound on dense inputs, so once more than ``budget`` is
    spent at pivot t, the Hermite alternation diagonalizes the block
    ``a[t:, t:]`` in its place; rows and columns before t are already zero
    off the diagonal.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    t = 0
    spent = 0
    while True:
        pivot = _min_abs_entry(a, t, m, n)
        if pivot is None:
            return t
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        # Rows above t are zero from column t on, so column swaps skip them.
        if pj != t:
            for row in a[t:]:
                row[t], row[pj] = row[pj], row[t]
        start = t + 1
        while True:
            # Rows t + 1 .. start - 1 are zero in column t: the sweep swaps at
            # the first row left with a nonzero remainder, so it resumes there.
            prow = a[t]
            p = prow[t]
            for i in range(start, m):
                row = a[i]
                x = row[t]
                if x:
                    q = x // p
                    if q:
                        # prow is zero left of column t.
                        for j in range(t, n):
                            y = prow[j]
                            if y:
                                row[j] -= q * y
                        spent += q.bit_length()
                        if spent > budget:
                            block = _hermite([row[t:] for row in a[t:]], n - t)
                            r = _alternate(block, m - t, n - t)
                            for row, done in zip(a[t:], block):
                                row[t:] = done
                            return t + r
                    if row[t]:
                        a[t], a[i] = row, prow
                        start = i
                        break
            else:
                # Column t is now zero outside row t, so subtracting multiples
                # of it changes only row t.
                for j in range(t + 1, n):
                    if prow[j]:
                        prow[j] %= p
                        if prow[j]:
                            for row in a[t:]:
                                row[t], row[j] = row[j], row[t]
                            start = t + 1
                            break
                else:
                    break
        t += 1


def _reduce_row(row, pivots):
    """Take ``row``'s entries at the ``(basis row, pivot column)`` pairs ``pivots``
    into [0, pivot), in place."""
    for b, c in pivots:
        q = row[c] // b[c]
        if q:
            row[c:] = [x - q * y for x, y in zip(row[c:], b[c:])]


def _hermite(rows, n, full_rank=False):
    """Row Hermite form of the first ``n`` columns of ``rows``; the rest ride along.

    Kannan-Bachem row insertion: each row is inserted into an echelon basis
    that is kept fully reduced, with every pivot positive and every entry
    above a pivot in [0, pivot).  The incoming row is reduced the same way
    after each step, so no entry grows beyond a polynomial bound.  Returns
    the basis rows in pivot order, then the rows that became zero in their
    first ``n`` columns, each as long as the rows given; ``rows`` is left unchanged.
    With ``full_rank``, returns None instead as soon as a row becomes zero,
    without reading the rows after it.
    """
    full = len(rows[0]) if rows else 0
    basis, leads, kernel = [], [], []
    w = n

    def reduce_above(i):
        # basis[:i] is reduced against basis[i + 1:]; only an entry outside [0, p) changes it.
        # Reducing those rows leaves basis[i:] as it is, so one pivot list serves them all.
        c = leads[i]
        p = basis[i][c]
        pivots = list(zip(basis[i:], leads[i:]))
        for b in basis[:i]:
            if not 0 <= b[c] < p:
                _reduce_row(b, pivots)

    for row in rows:
        end = 1 + max(compress(range(full), row), default=-1)
        if end > w:
            for b in basis:
                b += [0] * (end - w)
            w = end
        row = row[:w]
        i = 0
        while (lead := next(compress(range(n), row), n)) < n:
            i = bisect_left(leads, lead, i)
            if i == len(leads) or lead < leads[i]:
                if row[lead] < 0:
                    row[lead:] = [-x for x in row[lead:]]
                _reduce_row(row, zip(basis[i:], leads[i:]))
                basis.insert(i, row)
                leads.insert(i, lead)
                reduce_above(i)
                break
            pivot = basis[i]
            p, x = pivot[lead], row[lead]
            if x % p:
                # One determinant-1 step [[s, t], [-x/g, p/g]] with
                # g = s*p + t*x = gcd(p, x) makes g the pivot and clears x.
                g = math.gcd(p, x)
                pg, xg = p // g, x // g
                t = pow(xg, -1, pg)
                s = (g - t * x) // p
                pivot[lead:], row[lead:] = _combine(pivot[lead:], row[lead:], s, t, -xg, pg)
                _reduce_row(pivot, zip(basis[i + 1:], leads[i + 1:]))
                reduce_above(i)
            # Subtract x // p times the pivot row (none after a gcd step), then reduce further.
            _reduce_row(row, zip(basis[i:], leads[i:]))
            i += 1
        else:
            if full_rank:
                return None
            kernel.append(row)
    return [row + [0] * (full - len(row)) for row in basis + kernel]


# Packed, U takes r * r slots of k bits however small it stays, where the
# identity border takes a 64-bit pointer to a small int.  The packed pass is
# declined when the slots would hold more than this many bits for each
# nonzero entry of A: on a diagonal matrix with large entries k runs to
# millions of bits while U stays the identity.
_PACKED_BITS_PER_NONZERO = 2048


def _packed_slot_bytes(a):
    """Bytes in each slot of ``U`` packed for the row pass on the rows ``a``,
    or None when the slots would be too wide for ``a``'s nonzero entries.

    With full row rank and pivot columns S, ``U = H_S @ inverse(A_S)``; each
    entry of ``H_S`` is at most ``|det A_S|`` and each cofactor of ``A_S`` at
    most ``prod(|A_i|)`` (Hadamard), so ``|U| <= r * prod(max(1, |A_i|))``.
    A slot holds that bound and a sign bit in whole bytes.
    """
    r = len(a)
    nonzero = sum(len(row) - row.count(0) for row in a)
    widest = _PACKED_BITS_PER_NONZERO * nonzero // (r * r)
    # A row's norm has at least the bits of its largest entry.  The norms and
    # their product, which can run to millions of bits, are not formed when
    # that already makes the slots too wide.
    if sum(max(map(int.bit_length, row)) - 1 for row in a) >= widest:
        return None
    norms = [math.isqrt(sum(x * x for x in row)) + 1 for row in a]
    size = ((r * math.prod(norms)).bit_length() + 8) // 8
    return size if 8 * size <= widest else None


def _packed_hermite(a, n):
    """Row Hermite form ``[H, U]`` of the rows ``a`` (at most ``n`` of them), or None.

    Each row carries its row of ``U`` as one int, ``sum(U[i][j] << (k * j))``,
    through ``_hermite``: packing is linear, so every row step on the int is
    that step on the row of ``U``.  The slots may overflow during the pass;
    only the final ``U``, unpacked once at its end, must fit, and
    ``_packed_slot_bytes`` bounds it.  Returns None before the pass when
    that declines, and at the first row that reduces to zero, since the
    kernel rows' ``U`` has no such bound; so a pass on rows of rank ``s``
    reduces at most ``s + 1`` of them.
    """
    size = _packed_slot_bytes(a)
    if size is None:
        return None
    r, k = len(a), 8 * size
    rows = _hermite([row + [1 << (k * i)] for i, row in enumerate(a)], n, full_rank=True)
    if rows is None:
        return None
    # Adding 2^(k-1) to every slot makes each one a k-bit unsigned field.
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * r, "little")
    half = 1 << (k - 1)
    for row in rows:
        data = (row[n] + bias).to_bytes(size * r, "little")
        row[n:] = [int.from_bytes(data[s : s + size], "little") - half
                   for s in range(0, size * r, size)]
    return rows


def _alternate(b, m, n):
    """Diagonalize the m x n block A of ``b`` in place, ``b[:m]`` already in row Hermite form.

    Column Hermite forms of A, the row forms of the transpose's first n rows,
    alternate with row forms of ``b[:m]``.  Each pass keeps
    ``U @ input @ V == A``, and the alternation ends once A is diagonal, with
    its nonzero entries first.  Returns their number, the rank.
    """
    flipped = False
    while any(row[j] for i, row in enumerate(b[:m]) for j in range(n) if i != j):
        b[:] = _transpose(b)
        m, n, flipped = n, m, not flipped
        b[:m] = _hermite(b[:m], n)
    if flipped:
        b[:] = _transpose(b)
    return sum(1 for i in range(min(m, n)) if b[i][i])


def _chain(d, u, w):
    """Make the diagonal ``d`` of ``U A V`` a positive divisor chain in place and return it.

    ``u`` holds U's rows and ``w`` V's columns, each empty where not kept.  A
    violating pair (x, y) becomes (g, xy/g) with g = gcd(x, y) = s*x + t*y, by
    one row step on U and one column step on V, each of determinant 1.  Each fix
    strictly shrinks |d_i|, so the sweep settles.  s is the inverse of x/g
    modulo k = |y/g|, taken nearest zero to keep U and V small.
    """
    changed = True
    while changed:
        changed = False
        for i in range(len(d) - 1):
            x, y = d[i], d[i + 1]
            if y % x:
                g = math.gcd(x, y)
                k = abs(y // g)
                s = (pow(x // g, -1, k) + k // 2) % k - k // 2
                t = (g - s * x) // y
                d[i], d[i + 1] = g, x // g * y
                u[i], u[i + 1] = _combine(u[i], u[i + 1], s, t, -y // g, x // g)
                w[i], w[i + 1] = _combine(w[i], w[i + 1], 1, 1, -t * y // g, s * x // g)
                changed = True

    for i, x in enumerate(d):
        if x < 0:
            d[i], u[i] = -x, [-e for e in u[i]]
    return d


def _reduce_against_kernel(rows, rank):
    """Size-reduce ``rows`` (U's rows or V's columns) before ``rank`` in place
    against the Hermite form of those past it.

    It runs only when there are at most half as many kernel vectors as
    ``rank``: the Hermite pass over k of them takes about k² row steps.  The
    kernel rows are independent, so ``_hermite`` returns as many, in pivot
    order, and each row reduced against them has its entries at their pivots
    in [0, pivot).
    """
    if not 0 < 2 * (len(rows) - rank) <= rank:
        return
    width = len(rows[0])
    rows[rank:] = kernel = _hermite(rows[rank:], width)
    pivots = [(row, next(compress(range(width), row))) for row in kernel]
    for row in rows[:rank]:
        _reduce_row(row, pivots)


def smith_normal_form(m: IntMatrix) -> SNFResult:
    """Smith normal form with recorded transforms.

    Returns an :class:`SNFResult` whose matrices satisfy
    ``u @ m @ v == d`` exactly, with ``|det u| = |det v| = 1``, ``d``
    rectangular diagonal, and the nonzero diagonal entries positive and
    forming a divisibility chain.  Total and deterministic: the same input
    always yields the identical result, including ``u`` and ``v``.
    """
    r, c = m.rows, m.cols
    # The first row pass, which does most of the work, carries U packed where
    # the slots fit, and otherwise runs on the identity border.
    a = m.to_rows()
    b = _packed_hermite(a, c) if 0 < r <= c else None
    if b is None:
        b = _hermite([row + u for row, u in zip(a, _identity_rows(r))], c)
    del a  # A's rows are not held through the alternation
    b += [row + [0] * r for row in _identity_rows(c)]
    rank = _alternate(b, r, c)
    # A is diagonal now: the chain repair takes its diagonal, U's rows and V's columns.
    u = [row[c:] for row in b[:r]]
    w = _transpose([row[:c] for row in b[r:]])
    divisors = _chain([b[i][i] for i in range(rank)], u, w)
    del b
    d = [0] * (r * c)
    d[: rank * (c + 1) : c + 1] = divisors
    # The rows of U and the columns of V past the rank span A's left kernel and
    # its kernel, so adding them to the other rows and columns changes neither
    # U A nor A V; the others are size-reduced against them where the kernel is
    # small next to the rank.
    _reduce_against_kernel(u, rank)
    _reduce_against_kernel(w, rank)
    return SNFResult(IntMatrix(r, c, tuple(d)), IntMatrix(r, r, tuple(chain.from_iterable(u))),
                     IntMatrix(c, c, tuple(chain.from_iterable(zip(*w)))), divisors)


def elementary_divisors(m: IntMatrix) -> list[int]:
    """The divisor chain d_1 | d_2 | ... of ``m``, each positive."""
    if not m.entries:
        # to_rows would build one empty list per row of an m x 0 matrix.
        return []
    a = m.to_rows()
    r = _diagonalize(a, 50 * m.rows * min(m.rows, m.cols))
    return _chain([a[i][i] for i in range(r)], [[]] * r, [[]] * r)


# ---------------------------------------------------------------------------
# Line grammar shared by matrix files, diagram files and the format sniff:
# blank lines and lines starting with `#` are ignored, tokens are separated by
# runs of ASCII spaces.  Matrix file format: header `matrix <m> <n>`, then m rows
# of n integers, each an ASCII token `[+-]?[0-9]+`.


def _tokens(line: str) -> list[str] | None:
    """The tokens of one line, or None if it is blank or a comment."""
    stripped = line.strip()
    if stripped and not stripped.startswith("#"):
        tokens = stripped.split(" ")
        # Only a run of spaces leaves empty tokens, so most lines skip the filter.
        return [t for t in tokens if t] if "" in tokens else tokens
    return None


def _significant_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, tokens)`` of each line that is not blank or a comment, lazily."""
    for lineno, line in enumerate(chain.from_iterable(_sliced_lines(text)), start=1):
        if tokens := _tokens(line):
            yield lineno, tokens


# Most characters split into lines at a time, so that no pass holds a list of
# every line of a long text.  The first slices are shorter, so that a reader
# that stops at the first significant line, as the format sniff does, splits little.
_SLICE = 1 << 16


def _sliced_lines(text: str) -> Iterator[list[str]]:
    """The lines of ``text``, one list per slice, lazily.

    The first slice takes at least ``min(64, _SLICE)`` characters and each
    later one 16 times as many as the one before, up to ``_SLICE``.  A slice
    ends just after the next ``"\n"``, ``"\r\n"`` or lone ``"\r"`` (or at the
    end of the text), so the lists concatenate to ``text.splitlines()``.  The
    next ``"\n"`` is kept from cut to cut and ``"\r"`` is looked for only up
    to it, so no character is searched more than twice.
    """
    start, size, lf = 0, min(64, _SLICE), -1
    while start < len(text):
        cut = start + size - 1
        if lf < cut:
            lf = text.find("\n", cut)
            lf = len(text) if lf < 0 else lf
        cr = text.find("\r", cut, lf)
        end = cr + 1 + text.startswith("\n", cr + 1) if cr >= 0 else lf + 1
        # No name holds the list here, so the caller can free it before the next split.
        yield text[start:end].splitlines()
        start, size = end, min(16 * size, _SLICE)


def _integers(tokens: list[str], lineno: int | None, what: str) -> list[int]:
    """The values of ``tokens``; a MatrixParseError about ``what`` on line ``lineno``
    unless each is an ASCII token ``[+-]?[0-9]+`` that int() takes (it refuses
    over 4,300 digits by default).  The tokens hold no space or line break.
    """
    row = " ".join(tokens)
    # int() also skips whitespace around a number and reads underscores and
    # non-ASCII digits.  In ASCII it skips only space, tab and the line breaks
    # \n \v \f \r, so tab is the one a line's tokens can hold.
    if row.isascii() and "_" not in row and "\t" not in row:
        try:
            return [int(t) for t in tokens]
        except ValueError:
            if all((t[1:] if t[:1] in "+-" else t).isdigit() for t in tokens):
                raise MatrixParseError(f"{what} exceed the integer digit limit", line=lineno) from None
    raise MatrixParseError(f"{what} must be signed decimal integers", line=lineno)


def parse_matrix(text: str) -> IntMatrix:
    """Parse the textual matrix format in one pass, each row joining the entries as it is read.  A
    MatrixParseError names the first bad line: a missing row at the header, an extra one at its own."""
    lines = _significant_lines(text)
    header_line, header = next(lines, (None, None))
    if header is None:
        raise MatrixParseError("empty input, expected a 'matrix <m> <n>' header")
    if header[0] != "matrix" or len(header) != 3:
        raise MatrixParseError("expected header 'matrix <m> <n>'", line=header_line)
    m, n = _integers(header[1:], header_line, "matrix dimensions")
    if m < 0 or n < 0:
        raise MatrixParseError("matrix dimensions must be non-negative", line=header_line)

    # A width-zero matrix has no printable rows, so none are expected.
    expected = m if n > 0 else 0

    def rows() -> Iterator[list[int]]:
        for lineno, tokens in islice(lines, expected):
            if len(tokens) != n:
                raise MatrixParseError(f"expected {n} entries, found {len(tokens)}", line=lineno)
            yield _integers(tokens, lineno, "entries")

    entries = tuple(chain.from_iterable(rows()))
    if len(entries) < m * n:
        raise MatrixParseError(f"expected {expected} rows, found {len(entries) // n}", line=header_line)
    if extra := next(lines, None):
        found = expected + 1 + sum(1 for _ in lines)
        raise MatrixParseError(f"expected {expected} rows, found {found}", line=extra[0])
    return IntMatrix(m, n, entries)


def format_matrix(m: IntMatrix) -> str:
    """Render ``m`` in the matrix file format (bit-exact, trailing newline)."""
    lines = [f"matrix {m.rows} {m.cols}"]
    if m.cols > 0:
        for i in range(m.rows):
            lines.append(" ".join(str(x) for x in m.row(i)))
    return "\n".join(lines) + "\n"
