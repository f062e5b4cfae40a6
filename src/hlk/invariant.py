"""Invariants of a two-component handlebody-link from its linking matrix.

The linking invariant is the multiset of elementary divisors of the
linking matrix (the zero marker when the matrix has rank zero).  The two
quotient groups are the first homology of one component's complement
modulo the cycles of the other component; the linking matrix and its
transpose present them, and the two share one divisor chain.
"""

from .exactla import IntMatrix, _Record, _require_ints, elementary_divisors

__all__ = [
    "LkInvariant",
    "AbelianGroup",
    "handlebody_linking",
    "quotient_groups",
    "reconstruct_lk",
]


class LkInvariant(_Record):
    """Divisor multiset {d_1, ..., d_l}, or the zero marker {0} when empty.

    Kept as a multiset rather than a set: repeated divisors carry real
    information about the chain.
    """

    __slots__ = ("divisors",)

    def __init__(self, divisors: tuple[int, ...] = ()):
        super().__init__(tuple(divisors))
        for d in self.divisors:
            if type(d) is not int:
                raise TypeError(f"divisors must be ints, got {d!r}")
            if d < 1:
                raise ValueError(f"divisors must be positive, got {d}")
        for prev, cur in zip(self.divisors, self.divisors[1:]):
            if cur % prev:
                raise ValueError(f"broken divisibility chain: {prev} does not divide {cur}")

    def __str__(self):
        if not self.divisors:
            return "{0}"
        return "{" + ", ".join(str(d) for d in self.divisors) + "}"


class AbelianGroup(_Record):
    """Finitely generated abelian group Z^free_rank (+) Z/t_1 (+) Z/t_2 ...

    Torsion coefficients are at least 2 (trivial Z/1 factors are dropped)
    and each divides the next.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        super().__init__(free_rank, tuple(torsion))
        if not {type(self.free_rank), *map(type, self.torsion)} <= {int}:
            raise TypeError(f"rank and torsion must be ints, got {self.free_rank!r}, {self.torsion!r}")
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        for t in self.torsion:
            if t < 2:
                raise ValueError(f"torsion coefficients must be >= 2, got {t}")
        for prev, cur in zip(self.torsion, self.torsion[1:]):
            if cur % prev:
                raise ValueError(f"broken torsion chain: {prev} does not divide {cur}")

    def __str__(self):
        if not self.torsion:
            return f"Z^{self.free_rank}" if self.free_rank else "0"
        return " (+) ".join([f"Z^{self.free_rank}"] + [f"Z/{t}" for t in self.torsion])


def handlebody_linking(m: IntMatrix) -> LkInvariant:
    """The linking invariant of the pair whose linking matrix is ``m``.

    Separated components give a zero matrix, hence the {0} marker.
    """
    return LkInvariant(elementary_divisors(m))


def quotient_groups(m: IntMatrix) -> tuple[AbelianGroup, AbelianGroup]:
    """Both quotient groups ``(A1, A2)``, read from one divisor chain of ``m``.

    ``m`` and its transpose share that chain; with ``l`` its length, A1 is
    ``Z^(rows - l)`` and A2 ``Z^(cols - l)``, each with the divisors > 1 as torsion.
    """
    divisors = elementary_divisors(m)
    torsion = tuple(d for d in divisors if d > 1)
    l = len(divisors)
    return AbelianGroup(m.rows - l, torsion), AbelianGroup(m.cols - l, torsion)


def reconstruct_lk(g: AbelianGroup, l: int) -> LkInvariant:
    """Recover the linking invariant from a quotient group and the chain length.

    The group alone loses the unit divisors; ``l`` (the rank drop of the
    presentation) restores them as leading 1s.  ``l = 0`` gives the zero
    marker.
    """
    _require_ints(l=l)
    if l < len(g.torsion):
        raise ValueError(
            f"chain length {l} is shorter than the torsion list ({len(g.torsion)} entries)"
        )
    if l == 0:
        return LkInvariant()
    return LkInvariant((1,) * (l - len(g.torsion)) + g.torsion)
