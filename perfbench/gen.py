"""Input generator for the benchmark.

Everything here is the benchmark's own: the random stream, the matrix
families and the diagram builder.  Nothing is imported from ``hlk``, so a
change to the program cannot change the inputs.  Every input is rendered as
text in the file formats the README documents, and carries what the checks
need: the matrix itself, and for planted inputs the chain or the linking
matrix it was built from.
"""

from dataclasses import dataclass

MASK64 = (1 << 64) - 1


class Rng:
    """splitmix64: the same stream from the same seed, on every platform."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n

    def between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def sub_rng(seed: int, index: int) -> Rng:
    """An independent stream for input ``index`` of the run seeded ``seed``."""
    mixer = Rng((seed * 0x100000001B3) ^ (index * 0x9E3779B97F4A7C15))
    return Rng(mixer.next())


@dataclass
class Input:
    """One generated input file and what is known about it independently."""

    name: str
    text: str
    matrix: list[list[int]]          # the (linking) matrix the text encodes
    chain: list[int] | None = None   # planted divisor chain, when known
    crossings: int = 0               # crossing lines, for diagram files
    fixed: bool = False              # True when the input does not depend on the seed


def matrix_text(rows: list[list[int]], comment: str = "") -> str:
    lines = [f"# {comment}"] if comment else []
    lines.append(f"matrix {len(rows)} {len(rows[0]) if rows else 0}")
    lines.extend(" ".join(str(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(b[0]) if b else 0
    out = []
    for arow in a:
        acc = [0] * n
        for k, x in enumerate(arow):
            if x:
                for j, y in enumerate(b[k]):
                    acc[j] += x * y
        out.append(acc)
    return out


def uniform(rng: Rng, m: int, n: int, bound: int) -> list[list[int]]:
    return [[rng.between(-bound, bound) for _ in range(n)] for _ in range(m)]


def rank_deficient(rng: Rng, n: int, k: int, bound: int) -> list[list[int]]:
    """``A(n x k) @ B(k x n)`` with uniform factors: rank at most k."""
    return matmul(uniform(rng, n, k, bound), uniform(rng, k, n, bound))


def unimodular(rng: Rng, n: int, ops: int) -> list[list[int]]:
    """Identity after ``ops`` random row additions (multiplier +-1) and swaps."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.below(n), rng.below(n)
        if i == j:
            continue
        if rng.below(4) == 0:
            a[i], a[j] = a[j], a[i]
        else:
            k = 1 if rng.below(2) else -1
            a[j] = [x + k * y for x, y in zip(a[j], a[i])]
    return a


def random_chain(rng: Rng, length: int) -> list[int]:
    """A divisor chain d1 | d2 | ... built from small prime steps."""
    chain, d = [], 1
    for _ in range(length):
        step = rng.below(8)
        d *= (1, 1, 1, 1, 1, 1, 2, 3)[step]
        chain.append(d)
    return chain


def planted(rng: Rng, m: int, n: int, rank: int) -> tuple[list[list[int]], list[int]]:
    """``U0 @ diag(chain, 0...) @ V0`` with unimodular U0, V0: the chain is known."""
    chain = random_chain(rng, rank)
    d = [[0] * n for _ in range(m)]
    for i, x in enumerate(chain):
        d[i][i] = x
    u0 = unimodular(rng, m, 2 * m)
    v0 = unimodular(rng, n, 2 * n)
    return matmul(matmul(u0, d), v0), chain


def splitmix_matrix(seed: int, m: int, n: int, bound: int) -> list[list[int]]:
    """Row-major draws ``below(2 * bound + 1) - bound`` from splitmix64(seed).

    These are the fixed matrices the project's baseline figures were
    measured on (seed ``901 + n`` for the square ones).
    """
    rng = Rng(seed)
    return [[rng.below(2 * bound + 1) - bound for _ in range(n)] for _ in range(m)]


def diagram(rng: Rng, g1: int, g2: int, crossings: int, entry: int) -> tuple[str, list[list[int]]]:
    """A diagram file with ``crossings`` crossing lines and a planted linking matrix.

    Crossings come in pairs between the same two loops, so every pair sum
    is even.  A same-sign pair between loop i of the first component and
    loop j of the second adds +-1 to the linking number; the rest of the
    budget is cancelling (+, -) pairs and pairs inside one component, which
    add nothing.  Over/under order is random and the lines are shuffled.
    """
    first = [f"e{i + 1}" for i in range(g1)]
    second = [f"f{j + 1}" for j in range(g2)]
    lk = [[rng.between(-entry, entry) for _ in range(g2)] for _ in range(g1)]
    pairs = crossings // 2
    planted_pairs = sum(abs(x) for row in lk for x in row)
    if planted_pairs > pairs:
        raise ValueError(f"{crossings} crossings cannot carry the planted matrix")

    def pair(a: str, b: str, s1: str, s2: str) -> list[str]:
        out = []
        for s in (s1, s2):
            over, under = (a, b) if rng.below(2) else (b, a)
            out.append(f"crossing {over} {under} {s}")
        return out

    lines = []
    for i, row in enumerate(lk):
        for j, x in enumerate(row):
            s = "+" if x > 0 else "-"
            for _ in range(abs(x)):
                lines += pair(first[i], second[j], s, s)
    loops = (first, second)
    for _ in range(pairs - planted_pairs):
        if rng.below(8) == 0 and min(g1, g2) > 1:
            side = loops[rng.below(2)]
            a, b = rng.below(len(side)), rng.below(len(side) - 1)
            b += b >= a
            lines += pair(side[a], side[b], "+-"[rng.below(2)], "+-"[rng.below(2)])
        else:
            s1 = "+-"[rng.below(2)]
            lines += pair(first[rng.below(g1)], second[rng.below(g2)], s1, "-" if s1 == "+" else "+")
    rng.shuffle(lines)
    head = [f"# genus {g1} / genus {g2}, {crossings} crossings", "component h1"]
    head += [f"loop {e}" for e in first]
    head += ["", "component h2"] + [f"loop {f}" for f in second] + [""]
    return "\n".join(head + lines) + "\n", lk
