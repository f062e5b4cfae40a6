"""Output checks made apart from the program.

Nothing here imports ``hlk``.  A claimed divisor chain is tested against
quantities the benchmark computes itself from the input matrix: the rank
and, for square nonsingular inputs, the determinant by fraction-free
elimination; the gcd of the entries (the first determinantal divisor);
divisibility of a nonzero r x r minor by the product of the chain; and, for
small primes p, the exact p-adic valuations of the elementary divisors by an
elimination over Z/p^K.  A printed Smith normal form is checked as a
certificate: ``U M V = D`` by the benchmark's own product, D diagonal with a
divisor chain, and U, V unimodular.  Every check returns a list of problems,
empty when the output is right.
"""

import math
import sys
from contextlib import contextmanager

from gen import matmul

SMALL_PRIMES = (2, 3, 5, 7)


@contextmanager
def unlimited_int_digits():
    """Lift the int/str conversion limit while the checks parse big outputs."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def echelon(rows):
    """Fraction-free (Bareiss) row echelon form.

    Returns ``(rank, last_pivot, sign, pivot_rows, pivot_cols)``; for a
    square nonsingular matrix ``sign * last_pivot`` is its determinant.
    ``pivot_rows`` are original row indices.
    """
    a = [list(r) for r in rows]
    order = list(range(len(a)))
    m = len(a)
    n = len(a[0]) if m else 0
    r, prev, sign = 0, 1, 1
    pivot_cols = []
    for c in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[p], a[r] = a[r], a[p]
            order[p], order[r] = order[r], order[p]
            sign = -sign
        piv, prow = a[r][c], a[r]
        for i in range(r + 1, m):
            row = a[i]
            x = row[c]
            for j in range(c + 1, n):
                row[j] = (row[j] * piv - x * prow[j]) // prev
            row[c] = 0
        prev = piv
        pivot_cols.append(c)
        r += 1
    return r, prev, sign, order[:r], pivot_cols


def determinant(rows):
    n = len(rows)
    if n == 0:
        return 1
    rank, last, sign, _, _ = echelon(rows)
    return sign * last if rank == n else 0


def _valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def local_valuations(rows, p, k):
    """Sorted ``min(v_p(d_i), k)`` over all min(m, n) diagonal places.

    Smith form over Z/p^k: each step moves an entry of least p-adic
    valuation to the pivot and clears its row and column, which is exact in
    a local ring.  Places beyond the rank read as ``k``.
    """
    mod = p**k
    a = [[x % mod for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    vals = []
    for t in range(min(m, n)):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x:
                    v = 0 if x % p else _valuation(x, p)
                    if best is None or v < best[0]:
                        best = (v, i, j)
                        if v == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            vals += [k] * (min(m, n) - t)
            break
        v, i, j = best
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        scale = p**v
        inv = pow(a[t][t] // scale, -1, mod)
        prow = a[t]
        for i in range(t + 1, m):
            x = a[i][t]
            if x:
                q = (x // scale) * inv % mod
                a[i] = [(y - q * z) % mod for y, z in zip(a[i], prow)]
        vals.append(v)
    return sorted(vals)


def check_chain(rows, chain):
    """Problems with ``chain`` as the elementary divisors of ``rows``."""
    problems = []
    if any(d < 1 for d in chain):
        return [f"non-positive divisor in {chain}"]
    for a, b in zip(chain, chain[1:]):
        if b % a:
            problems.append(f"{a} does not divide {b}")
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank, last, sign, prow, pcol = echelon(rows)
    if rank != len(chain):
        return problems + [f"chain has {len(chain)} divisors, rank is {rank}"]
    if rank == 0:
        return problems
    g = 0
    for r in rows:
        for x in r:
            g = math.gcd(g, x)
    if chain[0] != g:
        problems.append(f"first divisor {chain[0]}, gcd of entries is {g}")
    product = math.prod(chain)
    if rank == m == n:
        if product != abs(sign * last):
            problems.append(f"product of divisors {product} != |det| {abs(last)}")
    else:
        minor = determinant([[rows[i][j] for j in pcol] for i in prow])
        if minor % product:
            problems.append(f"product of divisors {product} does not divide a {rank}x{rank} minor")
    for p in SMALL_PRIMES:
        k = max(_valuation(d, p) for d in chain) + 1
        want = sorted([min(_valuation(d, p), k) for d in chain] + [k] * (min(m, n) - rank))
        if local_valuations(rows, p, k) != want:
            problems.append(f"{p}-adic valuations of the chain do not match the matrix")
    return problems


def check_certificate(rows, d, u, v):
    """Problems with ``(D, U, V)`` as a Smith normal form of ``rows``."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    shapes = [(len(d), len(d[0]) if d else n), (len(u), len(u[0]) if u else 0), (len(v), len(v[0]) if v else 0)]
    if shapes != [(m, n), (m, m), (n, n)]:
        return [f"shapes D, U, V are {shapes} for a {m}x{n} input"]
    problems = []
    off = [(i, j) for i in range(m) for j in range(n) if i != j and d[i][j]]
    if off:
        problems.append(f"D has {len(off)} nonzero entries off the diagonal")
    diag = [d[i][i] for i in range(min(m, n))]
    chain = [x for x in diag if x]
    if diag[: len(chain)] != chain:
        problems.append("zeros on the diagonal of D come before nonzero divisors")
    if any(x < 1 for x in chain) or any(b % a for a, b in zip(chain, chain[1:])):
        problems.append(f"diagonal of D is not a divisor chain: {chain}")
    if matmul(matmul(u, rows), v) != d:
        problems.append("U M V != D")
        return problems
    if m == n and len(chain) == n and math.prod(chain) == abs(determinant(rows)):
        # |det U| |det M| |det V| = det D = |det M| != 0, and det U and
        # det V are integers, so each is +-1.
        return problems
    for name, t in (("U", u), ("V", v)):
        if abs(determinant(t)) != 1:
            problems.append(f"{name} is not unimodular")
    return problems


def parse_matrix_text(text):
    """Rows of a printed matrix block; raises ValueError on a malformed one."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    head = lines[0].split()
    if len(head) != 3 or head[0] != "matrix":
        raise ValueError(f"bad matrix header {lines[0]!r}")
    m, n = int(head[1]), int(head[2])
    rows = [[int(t) for t in ln.split()] for ln in lines[1:]]
    if len(rows) != (m if n else 0) or any(len(r) != n for r in rows):
        raise ValueError(f"matrix body does not match header {m} x {n}")
    return rows if n else [[] for _ in range(m)]


def parse_snf(text):
    """``(D, U, V)`` from the output of ``hlk snf``."""
    blocks, label = {}, None
    for line in text.splitlines(keepends=True):
        if line.startswith("# "):
            label = line[2:].strip()
            blocks[label] = ""
        elif label is not None:
            blocks[label] += line
    if sorted(blocks) != ["D", "U", "V"]:
        raise ValueError(f"expected blocks D, U, V, found {sorted(blocks)}")
    return tuple(parse_matrix_text(blocks[k]) for k in ("D", "U", "V"))


def parse_invariant(text):
    """The chain from ``Lk = {d1, ..., dl}``; ``{0}`` is the empty chain."""
    line = text.strip()
    if not (line.startswith("Lk = {") and line.endswith("}")):
        raise ValueError(f"bad invariant line {line!r}")
    body = line[len("Lk = {"):-1]
    chain = [int(t) for t in body.split(", ")]
    return [] if chain == [0] else chain


def parse_group(text):
    """``(free_rank, torsion)`` from ``Z^r (+) Z/t1 (+) ...`` or ``0``."""
    if text == "0":
        return 0, []
    parts = text.split(" (+) ")
    if not parts[0].startswith("Z^"):
        raise ValueError(f"bad group {text!r}")
    torsion = []
    for part in parts[1:]:
        if not part.startswith("Z/"):
            raise ValueError(f"bad group factor {part!r}")
        torsion.append(int(part[2:]))
    return int(parts[0][2:]), torsion


def check_groups(rows, text):
    """``(problems, chain)`` for the output of ``hlk groups`` on ``rows``.

    The chain is the one the two groups and ``l`` stand for.
    """
    lines = text.splitlines()
    if len(lines) != 3 or not lines[0].startswith("A1 = ") or not lines[1].startswith("A2 = ") \
            or not lines[2].startswith("l = "):
        return [f"bad groups output {text!r}"], None
    free1, tors1 = parse_group(lines[0][5:])
    free2, tors2 = parse_group(lines[1][5:])
    length = int(lines[2][4:])
    m = len(rows)
    n = len(rows[0]) if m else 0
    problems = []
    if tors1 != tors2:
        problems.append(f"A1 torsion {tors1} != A2 torsion {tors2}")
    if (free1, free2) != (m - length, n - length):
        problems.append(f"free ranks {free1}, {free2} for l = {length} on a {m}x{n} matrix")
    if any(t < 2 for t in tors1) or len(tors1) > length:
        return problems + [f"torsion {tors1} does not fit l = {length}"], None
    chain = [1] * (length - len(tors1)) + tors1
    return problems + check_chain(rows, chain), chain
