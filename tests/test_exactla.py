import collections
import hashlib
import io
import itertools
import math
import random
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlk.cli as cli
import hlk.exactla as exactla
from conftest import identity
from hlk import SplitMix64, apply_slide, determinant, minor_gcd_profile, random_unimodular
from hlk.exactla import (
    IntMatrix,
    MatrixParseError,
    elementary_divisors,
    format_matrix,
    parse_matrix,
    smith_normal_form,
)
from hlk.invariant import AbelianGroup, LkInvariant, handlebody_linking, quotient_groups
from hlk.selftest import snf_defects

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@st.composite
def int_matrices(draw, max_dim=4, max_entry=30):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    entries = draw(st.lists(st.integers(-max_entry, max_entry), min_size=m * n, max_size=m * n))
    return IntMatrix(m, n, tuple(entries))


def assert_sound_snf(m, r):
    assert r.u @ m @ r.v == r.d
    assert abs(determinant(r.u)) == 1
    assert abs(determinant(r.v)) == 1
    for i in range(r.d.rows):
        for j in range(r.d.cols):
            if i != j:
                assert r.d.entry(i, j) == 0
    diag = [r.d.entry(i, i) for i in range(min(r.d.rows, r.d.cols))]
    assert list(r.divisors) == [x for x in diag if x]
    assert diag[: len(r.divisors)] == list(r.divisors)
    assert all(d >= 1 for d in r.divisors)
    for a, b in zip(r.divisors, r.divisors[1:]):
        assert b % a == 0


# --- IntMatrix -------------------------------------------------------------


class TestIntMatrix:
    def test_from_rows(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)
        assert m.entry(0, 0) == 1
        assert m.entry(1, 2) == 6
        assert m.row(1) == (4, 5, 6)
        assert m.to_rows() == [[1, 2, 3], [4, 5, 6]]

    def test_from_rows_ragged(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_from_rows_empty_needs_cols(self):
        assert IntMatrix.from_rows([], cols=3).shape == (0, 3)
        assert IntMatrix.from_rows([]).shape == (0, 0)

    def test_from_rows_width_mismatch(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2]], cols=3)

    def test_entry_count_validation(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_negative_dims(self):
        with pytest.raises(ValueError):
            IntMatrix(-1, 2, ())

    def test_zeros(self):
        assert IntMatrix.zeros(2, 3).to_rows() == [[0, 0, 0], [0, 0, 0]]

    def test_entry_bounds(self):
        m = identity(2)
        with pytest.raises(IndexError):
            m.entry(2, 0)
        with pytest.raises(IndexError):
            m.row(5)

    def test_transpose(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().to_rows() == [[1, 4], [2, 5], [3, 6]]
        assert m.transpose().transpose() == m

    def test_matmul(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[5, 6], [7, 8]])
        assert (a @ b).to_rows() == [[19, 22], [43, 50]]
        assert (identity(2) @ a) == a

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            identity(2) @ identity(3)

    def test_matmul_by_a_non_matrix(self):
        with pytest.raises(TypeError):
            identity(2) @ 3

    def test_immutability(self):
        m = identity(2)
        with pytest.raises(AttributeError):
            m.rows = 3

    def test_keeps_its_own_copy_of_a_list(self):
        entries = [1, 2]
        m = IntMatrix(1, 2, entries)
        entries[0] = 99
        assert m.entry(0, 0) == 1
        assert m == IntMatrix(1, 2, (1, 2))
        assert hash(m) == hash(IntMatrix(1, 2, (1, 2)))
        tuple_entries = (3, 4)
        assert IntMatrix(1, 2, tuple_entries).entries is tuple_entries

    def test_values_must_be_ints(self):
        for rows in ([[1.5, 3]], [[2.0, 4.0]], [[True, 2]], [[1, None]]):
            with pytest.raises(TypeError, match="entries must be ints"):
                IntMatrix.from_rows(rows)
        for shape in ((2.0, 0), (0, True)):
            with pytest.raises(TypeError, match="dimensions must be ints"):
                IntMatrix(*shape, ())

    def test_repr(self):
        assert repr(IntMatrix.from_rows([[1, -2]])) == "IntMatrix(1x2 [1 -2])"
        assert repr(IntMatrix.from_rows([[1], [2]])) == "IntMatrix(2x1 [1; 2])"
        assert repr(IntMatrix.zeros(0, 3)) == "IntMatrix(0x3 [])"

    def test_repr_of_width_zero_is_instant(self):
        start = time.perf_counter()
        assert repr(IntMatrix.zeros(10**12, 0)) == "IntMatrix(1000000000000x0 [])"
        assert time.perf_counter() - start < 1


def reference_transpose(m):
    """``IntMatrix.transpose`` as it was before it read columns as slices."""
    flipped = tuple(m.entries[i * m.cols + j] for j in range(m.cols) for i in range(m.rows))
    return IntMatrix(m.cols, m.rows, flipped)


def reference_matmul(a, b):
    """``IntMatrix.__matmul__`` as it was before it read columns as slices:
    each row of the product accumulated entry by entry, skipping zeros of ``a``."""
    rows, n = b.to_rows(), b.cols
    out = []
    for arow in a.to_rows():
        acc = [0] * n
        for k, x in enumerate(arow):
            if x:
                brow = rows[k]
                for j in range(n):
                    acc[j] += x * brow[j]
        out.append(acc)
    return IntMatrix.from_rows(out, cols=n)


class TestIntMatrixReferences:
    """transpose and @ against the index-arithmetic references above."""

    @staticmethod
    def cases():
        """(a, b) with a m x k and b k x n: 1,200 seeded pairs, each side up to 6,
        entries up to 1, 100 or 10^30 in magnitude, about a third of them zero."""
        rng = SplitMix64(2357)
        for case in range(1200):
            m, k, n = rng.below(7), rng.below(7), rng.below(7)
            bound = (1, 100, 10**30)[case % 3]

            def draw(rows, cols):
                entries = [rng.below(2 * bound + 1) - bound if rng.below(3) else 0 for _ in range(rows * cols)]
                return IntMatrix(rows, cols, tuple(entries))

            yield draw(m, k), draw(k, n)

    def test_matches_the_references(self):
        seen = collections.Counter()
        for a, b in self.cases():
            assert a.transpose() == reference_transpose(a), a
            assert a @ b == reference_matmul(a, b), (a, b)
            seen["0 x n"] += a.rows == 0 < a.cols
            seen["n x 0"] += a.cols == 0 < a.rows
            seen["inner 0"] += a.cols == 0 < a.rows * b.cols
            seen["30 digits"] += max(map(abs, a.entries), default=0) > 10**29
            seen["cases"] += 1
        assert seen["cases"] == 1200
        assert all(seen[key] for key in ("0 x n", "n x 0", "inner 0", "30 digits")), seen


# --- Smith normal form -----------------------------------------------------


class TestSmithNormalForm:
    def test_worked_example(self, worked_matrix):
        r = smith_normal_form(worked_matrix)
        assert list(r.divisors) == [1, 2, 4]
        assert_sound_snf(worked_matrix, r)

    def test_identity(self):
        assert elementary_divisors(identity(3)) == [1, 1, 1]

    def test_zero_matrix(self):
        assert elementary_divisors(IntMatrix.zeros(3, 2)) == []

    def test_diagonal_gets_chained(self):
        # diag(2, 3) is not in normal form; the chain is 1 | 6
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        r = smith_normal_form(m)
        assert list(r.divisors) == [1, 6]
        assert_sound_snf(m, r)

    def test_single_entry(self):
        assert elementary_divisors(IntMatrix.from_rows([[-7]])) == [7]
        assert elementary_divisors(IntMatrix.from_rows([[0]])) == []

    def test_empty_shapes(self):
        for shape in [(0, 0), (3, 0), (0, 4)]:
            m = IntMatrix.zeros(*shape)
            r = smith_normal_form(m)
            assert r.divisors == ()
            assert r.d.shape == shape
            assert r.u.shape == (shape[0], shape[0])
            assert r.v.shape == (shape[1], shape[1])
            assert_sound_snf(m, r)

    def test_needs_repair_pass(self):
        # staircase alone can leave 2 | 2 | ... with a later 4; the repair
        # pass must produce 1 | 2 | 4 here, not [2, 2, 2]
        m = IntMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        assert elementary_divisors(m) == [2, 2, 2]
        # the extended-gcd step, also on negative entries, a longer chain
        # and a zero row
        for rows, chain in [
            ([[6, 0], [0, 4]], [2, 12]),
            ([[-6, 0], [0, 4]], [2, 12]),
            ([[4, 0], [0, -6]], [2, 12]),
            ([[2, 0, 0], [0, 3, 0], [0, 0, 5]], [1, 1, 30]),
            ([[4, 0], [0, 0], [0, -6]], [2, 12]),
        ]:
            m = IntMatrix.from_rows(rows)
            r = smith_normal_form(m)
            assert elementary_divisors(m) == list(r.divisors) == chain
            assert_sound_snf(m, r)

    def test_deterministic(self, worked_matrix):
        a = smith_normal_form(worked_matrix)
        b = smith_normal_form(worked_matrix)
        assert a.d == b.d and a.u == b.u and a.v == b.v

    def test_rank(self, worked_matrix):
        assert len(elementary_divisors(worked_matrix)) == 3
        assert len(elementary_divisors(IntMatrix.zeros(4, 4))) == 0
        assert len(elementary_divisors(IntMatrix.from_rows([[1, 2], [2, 4]]))) == 1

    def test_large_entries_stay_exact(self):
        big = 10**30
        m = IntMatrix.from_rows([[big, big + 1], [big - 1, big]])
        # det = big^2 - (big^2 - 1) = 1, so the matrix is unimodular
        assert elementary_divisors(m) == [1, 1]


class TestDivisorsOnlyPath:
    def test_no_caller_needs_the_certificate(self, monkeypatch, fixtures_dir):
        # Only smith_normal_form builds U and V; every divisor-only path must
        # get its chain without it or its Hermite forms.
        def refuse(*args):
            raise AssertionError("certified machinery entered on a divisors-only path")

        monkeypatch.setattr(exactla, "smith_normal_form", refuse)
        monkeypatch.setattr(cli, "smith_normal_form", refuse)
        monkeypatch.setattr(exactla, "_hermite", refuse)
        m = parse_matrix((fixtures_dir / "worked_example.mat").read_text())
        assert elementary_divisors(m) == [1, 2, 4]
        assert str(handlebody_linking(m)) == "{1, 2, 4}"
        assert tuple(map(str, quotient_groups(m))) == (
            "Z^0 (+) Z/2 (+) Z/4",
            "Z^1 (+) Z/2 (+) Z/4",
        )
        path = str(fixtures_dir / "worked_example.mat")
        for subcommand, expected in [
            ("invariant", "Lk = {1, 2, 4}\n"),
            ("groups", "A1 = Z^0 (+) Z/2 (+) Z/4\nA2 = Z^1 (+) Z/2 (+) Z/4\nl = 3\n"),
        ]:
            out = io.StringIO()
            code = cli.run(cli.CliConfig(subcommand, path), out=out, err=io.StringIO())
            assert (code, out.getvalue()) == (cli.EXIT_OK, expected)

    @staticmethod
    def small_cases():
        rng = SplitMix64(1979)

        def draw(m, n, bound):
            return IntMatrix.from_rows(
                [[rng.below(2 * bound + 1) - bound for _ in range(n)] for _ in range(m)], cols=n
            )

        for bound in (1, 9, 100):
            for _ in range(10):
                yield draw(1 + rng.below(6), 1 + rng.below(6), bound)
            for _ in range(10):
                m, k, n = 2 + rng.below(5), 1 + rng.below(3), 2 + rng.below(5)
                yield draw(m, k, bound) @ draw(k, n, 2)

    @staticmethod
    def record_hand_offs(monkeypatch, check=None):
        """Route _alternate through ``check``; return the shapes it was given."""
        alternate = exactla._alternate
        shapes = []

        def record(block, rows, cols):
            if check:
                check(block, rows, cols)
            shapes.append((rows, cols))
            return alternate(block, rows, cols)

        monkeypatch.setattr(exactla, "_alternate", record)
        return shapes

    def test_hand_off_at_every_budget_gives_the_chain(self, monkeypatch):
        # Stop the staircase after each possible charge.  By then the pivots
        # before t are finished: their rows and columns are zero off the
        # diagonal, and the Hermite alternation gets only the block after them.
        cases = [(m, list(smith_normal_form(m).divisors)) for m in self.small_cases()]

        def check(block, rows, cols):
            t = len(a) - rows
            assert (rows, cols) == (m.rows - t, m.cols - t), (m, budget)
            assert block == exactla._hermite([row[t:] for row in a[t:]], cols), (m, budget)
            finished = [(i, j) for i in range(m.rows) for j in range(m.cols) if min(i, j) < t]
            assert all(bool(a[i][j]) == (i == j) for i, j in finished), (m, budget)

        shapes = self.record_hand_offs(monkeypatch, check)
        for m, chain in cases:
            for budget in itertools.count():
                a = m.to_rows()
                hand_offs = len(shapes)
                r = exactla._diagonalize(a, budget)
                assert len(a) == m.rows and {len(row) for row in a} == {m.cols}, m
                assert exactla._chain([a[i][i] for i in range(r)], [[]] * r, [[]] * r) == chain, \
                    (m, budget)
                if len(shapes) == hand_offs:
                    break
        assert len(shapes) > 1000

    @pytest.mark.parametrize("seed, n", [(941, 40), (931, 30)])
    def test_hermite_gets_only_the_unfinished_block(self, monkeypatch, seed, n):
        # Both pass the budget after the staircase has finished some pivots.
        m = splitmix_matrix(seed, n, n, 1)
        chain = list(smith_normal_form(m).divisors)
        shapes = self.record_hand_offs(monkeypatch)
        assert elementary_divisors(m) == chain
        assert len(shapes) == 1 and max(shapes[0]) < n, shapes

    @staticmethod
    def diagram_from_linking(rows):
        # Each unit of linking is one crossing in each direction.
        lines = ["component h1", *(f"loop e{i}" for i in range(len(rows)))]
        lines += ["component h2", *(f"loop f{j}" for j in range(len(rows[0])))]
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                sign = "+" if x > 0 else "-"
                lines += [f"crossing e{i} f{j} {sign}", f"crossing f{j} e{i} {sign}"] * abs(x)
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "seed, n, bound, as_diagram",
        [(936, 35, 100, False), (941, 40, 100, False), (961, 60, 1, False),
         (961, 60, 100, False), (5, 50, 3, True)],
    )
    def test_dense_inputs_are_fast(self, seed, n, bound, as_diagram):
        # The unmetered staircase took 7 s (60x60 [-1, 1]) to over 100 s
        # (35x35 [-100, 100]) on these.
        m = splitmix_matrix(seed, n, n, bound)
        text = self.diagram_from_linking(m.to_rows()) if as_diagram else format_matrix(m)
        divisors = smith_normal_form(m).divisors
        l = len(divisors)
        group = AbelianGroup(n - l, tuple(d for d in divisors if d > 1))
        for subcommand, expected in [
            ("invariant", f"Lk = {LkInvariant(divisors)}\n"),
            ("groups", f"A1 = {group}\nA2 = {group}\nl = {l}\n"),
        ]:
            out = io.StringIO()
            start = time.perf_counter()
            code = cli.run(cli.CliConfig(subcommand), stdin=io.StringIO(text), out=out, err=io.StringIO())
            assert time.perf_counter() - start < 2
            assert (code, out.getvalue()) == (cli.EXIT_OK, expected)


def splitmix_matrix(seed, m, n, bound):
    """Row-major draws ``below(2 * bound + 1) - bound`` from SplitMix64(seed)."""
    rng = SplitMix64(seed)
    return IntMatrix.from_rows(
        [[rng.below(2 * bound + 1) - bound for _ in range(n)] for _ in range(m)], cols=n
    )


def product_matrix(seed, n, k, bound):
    """``A(n x k) @ B(k x n)``, both drawn row-major from one SplitMix64(seed)."""
    rng = SplitMix64(seed)

    def draw(rows, cols):
        return IntMatrix.from_rows(
            [[rng.below(2 * bound + 1) - bound for _ in range(cols)] for _ in range(rows)], cols=cols
        )

    return draw(n, k) @ draw(k, n)


def planted_matrix(seed, n, rank):
    """An n x n of the given rank: a divisor chain, each entry 1 to 3 times the
    one before as SplitMix64(seed) draws, between two random unimodular matrices."""
    rng = SplitMix64(seed)
    d, rows = 1, []
    for i in range(n):
        if i < rank:
            d *= 1 + rng.below(3)
        rows.append([0] * i + [d if i < rank else 0] + [0] * (n - 1 - i))
    diagonal = IntMatrix.from_rows(rows, cols=n)
    return random_unimodular(n, seed + 1, 6 * n) @ diagonal @ random_unimodular(n, seed + 2, 6 * n)


def diagonal_matrix(n, s):
    """n x n, diagonal entry i ``below(s) + 1`` from SplitMix64(1), zero elsewhere."""
    rng = SplitMix64(1)
    d = [rng.below(s) + 1 for _ in range(n)]
    return IntMatrix.from_rows([[d[i] * (i == j) for j in range(n)] for i in range(n)], cols=n)


def block_diagonal_matrix(n, s):
    """n x n (n even), each 2x2 diagonal block four ``below(s) + 1`` drawn
    row-major from SplitMix64(1), zero elsewhere."""
    rng = SplitMix64(1)
    rows = [[0] * n for _ in range(n)]
    for k in range(0, n, 2):
        for i in (k, k + 1):
            rows[i][k : k + 2] = [rng.below(s) + 1, rng.below(s) + 1]
    return IntMatrix.from_rows(rows, cols=n)


def snf_digest(m):
    """sha256 of `hlk snf` stdout on ``m``."""
    out, err = io.StringIO(), io.StringIO()
    text = format_matrix(m)
    assert cli.run(cli.CliConfig("snf"), stdin=io.StringIO(text), out=out, err=err) == cli.EXIT_OK
    assert err.getvalue() == ""
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def hadamard_bits(m):
    """log2 of the Hadamard bound on the maximal minors of ``m``."""
    def log_norms(rows):
        return math.log2(math.prod(max(1, sum(x * x for x in r)) for r in rows)) / 2

    rows = m.to_rows()
    return min(log_norms(rows), log_norms(zip(*rows)))


# sha256 of `hlk snf` stdout: the eight `certified` benchmark anchors
# (splitmix64 seed, rows, cols, entry bound) and the four fixtures.
SNF_DIGESTS = [
    ((921, 20, 20, 100), "95092ae3b588e73f1287fa5c5dccc9624978ab567fe18475da30dd9ab283e07e"),
    ((926, 25, 25, 100), "beac74f583784ad3ef5bfc10e7d61d40a1a17425fdf42b8807bd1e46173b9c70"),
    ((931, 30, 30, 1), "1f7f534818cab587134cbcf6623bc813ce198bbf93dc4c642b0278185d38add0"),
    ((936, 35, 35, 1), "e1683533d15c82e488debaf43c8e563a473ad619a50b6c72db475894b3b740e1"),
    ((931, 30, 30, 100), "ee0430517caffc47ed30d4092ebd27a979142488b9a4c3ed218a60a936f5cbe6"),
    ((941, 40, 40, 1), "2007c560afe1ed5c68cccd408766fd90e1ccd7039016f43a816bda967aee82bd"),
    ((951, 20, 30, 100), "2683ac08df34c0dd0866ab25a2db158c25f8c3e00ad8678ad3c01fd2d2c457bf"),
    ((951, 30, 20, 100), "2537cdf3c064d5a9c6296914afc3200b003d18d2aa215536292cbe9a22d8f5a9"),
    ("hopf.hlk", "7c19d2ae585cd89f5eaac184dc03708781d48f8cd3806c497e9820c37088f023"),
    ("separated.hlk", "007e5c06d20de9b358f7aad3b185a067fe6efcc8253273f40e741cab8d25d2d0"),
    ("worked_example.hlk", "d3d664f956f9366bbe22beede69f9f91069e62120515fb19f109c19462e9473c"),
    ("worked_example.mat", "d3d664f956f9366bbe22beede69f9f91069e62120515fb19f109c19462e9473c"),
]


class TestCertifiedPath:
    """smith_normal_form (alternating Hermite forms) against elementary_divisors
    (min-abs staircase): two independent diagonalizations."""

    @staticmethod
    def cases():
        rng = SplitMix64(2024)

        def draw(m, n, bound):
            return [[rng.below(2 * bound + 1) - bound for _ in range(n)] for _ in range(m)]

        for _ in range(150):
            m, k, n = 1 + rng.below(12), 1 + rng.below(4), 1 + rng.below(12)
            a = IntMatrix.from_rows(draw(m, k, 6), cols=k)
            b = IntMatrix.from_rows(draw(k, n, 6), cols=n)
            rows = (a @ b).to_rows()
            # Zero one row and one column of some products.
            if rng.below(2):
                rows[rng.below(m)] = [0] * n
                j = rng.below(n)
                for row in rows:
                    row[j] = 0
            yield IntMatrix.from_rows(rows, cols=n)
        for n in range(1, 13):
            yield IntMatrix.from_rows(draw(1, n, 40), cols=n)
            yield IntMatrix.from_rows(draw(n, 1, 40), cols=1)
            yield IntMatrix.from_rows([[0] * n, draw(1, n, 40)[0]], cols=n)
            yield IntMatrix.zeros(n, 13 - n)

    def test_agrees_with_elementary_divisors(self, monkeypatch):
        results = [(m, smith_normal_form(m)) for m in self.cases()]
        # Every case stays under the staircase's budget, so the two stay independent.
        monkeypatch.setattr(exactla, "_alternate", None)
        for m, r in results:
            assert_sound_snf(m, r)
            assert list(r.divisors) == elementary_divisors(m), m
        assert len(results) == 198

    @pytest.mark.parametrize(
        "seed, rows, cols, bound",
        [
            (921, 20, 20, 100), (926, 25, 25, 100), (931, 30, 30, 1), (936, 35, 35, 1),
            (931, 30, 30, 100), (941, 40, 40, 1), (951, 20, 30, 100), (951, 30, 20, 100),
            (936, 35, 35, 100), (961, 60, 60, 100), (1208, 12, 8, 100),
        ],
    )
    def test_transforms_stay_near_the_hadamard_bound(self, seed, rows, cols, bound):
        m = splitmix_matrix(seed, rows, cols, bound)
        r = smith_normal_form(m)
        assert r.u @ m @ r.v == r.d
        bits = max(abs(x).bit_length() for x in r.u.entries + r.v.entries)
        # The kernel rows and columns are size-reduced, so the rectangular cases
        # stay under 1x.  The worst left are the square ±100 cases at 1.8x, all
        # in U's row of the largest divisor.
        assert bits <= 2 * hadamard_bits(m)

    @staticmethod
    def kernel_cases():
        """Uniform matrices and products A(m x k) @ B(k x n), up to 12x12,
        with entries up to 8 or up to 100."""
        rng = SplitMix64(2712)

        def draw(m, n, bound):
            return IntMatrix.from_rows(
                [[rng.below(2 * bound + 1) - bound for _ in range(n)] for _ in range(m)], cols=n
            )

        for _ in range(1200):
            m, k, n = 1 + rng.below(12), 1 + rng.below(12), 1 + rng.below(12)
            bound = (8, 100)[rng.below(2)]
            yield draw(m, n, bound) if rng.below(2) else draw(m, k, bound) @ draw(k, n, bound)

    @staticmethod
    def reduced_against_kernel(rows, rank):
        """Whether ``rows[rank:]`` are in Hermite form and every entry of the
        rows before ``rank`` at one of their pivots p lies in [0, p)."""
        pivots = [next((j, x) for j, x in enumerate(row) if x) for row in rows[rank:]]
        hermite = all(x > 0 for _, x in pivots) and all(
            a[0] < b[0] for a, b in zip(pivots, pivots[1:])
        ) and all(row[j] == 0 for row, (p, _) in zip(rows[rank:], pivots) for j in range(p))
        return hermite and all(0 <= row[j] < p for row in rows[:rank] for j, p in pivots)

    def test_reduced_kernel_sides_stay_within_twice_the_hadamard_bound(self):
        # A side is reduced against its kernel when the kernel has at most
        # half as many vectors as the rank, however short the kernel's entries.
        covered = 0
        for m in self.kernel_cases():
            r = smith_normal_form(m)
            assert snf_defects(m, r) == [], m
            assert list(r.divisors) == elementary_divisors(m), m
            rank = len(r.divisors)
            for rows, kernel in ((r.u.to_rows(), m.rows - rank),
                                 (r.v.transpose().to_rows(), m.cols - rank)):
                if 0 < 2 * kernel <= rank:
                    covered += 1
                    assert self.reduced_against_kernel(rows, rank), m
                    bits = max(abs(x).bit_length() for row in rows for x in row)
                    assert bits <= 2 * hadamard_bits(m), m
        assert covered >= 300

    # sha256 of `hlk snf` stdout on inputs whose kernel has more vectors than
    # half the rank, taken before the kernel part was size-reduced.
    @pytest.mark.parametrize("source, digest", [
        ((3005, 300, 5, 100), "fd0be6f8d49f056ade7d5e6493a31585cac79e2b29c744bfa42c323015d9ebfd"),
        ((5300, 5, 300, 100), "56a8617a86b137ba36c23ac4a365845d6aa2bf709ac2ff6235b8eed9facd1cec"),
    ], ids=["300x5", "5x300"])
    def test_snf_output_past_the_kernel_guard_is_pinned(self, source, digest):
        assert snf_digest(splitmix_matrix(*source)) == digest

    @pytest.mark.parametrize("seed, n", [(936, 35), (961, 60)])
    def test_snf_of_large_dense_matrices_is_fast(self, seed, n):
        text = format_matrix(splitmix_matrix(seed, n, n, 100))
        out = io.StringIO()
        start = time.perf_counter()
        code = cli.run(cli.CliConfig("snf"), stdin=io.StringIO(text), out=out, err=io.StringIO())
        assert time.perf_counter() - start < 2
        assert code == cli.EXIT_OK
        assert out.getvalue().startswith(f"# D\nmatrix {n} {n}\n")

    @pytest.mark.parametrize("source, digest", SNF_DIGESTS, ids=[
        s if isinstance(s, str) else "-".join(map(str, s)) for s, _ in SNF_DIGESTS
    ])
    def test_snf_output_is_pinned(self, source, digest):
        # U and V are deterministic; these digests of the whole `hlk snf` output
        # were taken before the Hermite row steps were narrowed to their live span,
        # the two rectangular anchors' and the worked example's once their kernel
        # part was size-reduced.
        if isinstance(source, str):
            text = (FIXTURES / source).read_text()
        else:
            text = format_matrix(splitmix_matrix(*source))
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(cli.CliConfig("snf"), stdin=io.StringIO(text), out=out, err=err) == cli.EXIT_OK
        assert err.getvalue() == ""
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


class TestPackedFirstPass:
    """The first row pass with U packed into one int per row gives the same
    SNFResult as the pass on the identity border."""

    @staticmethod
    def cases():
        rng = SplitMix64(1979)

        def draw(m, n, bound):
            return [[rng.below(2 * bound + 1) - bound for _ in range(n)] for _ in range(m)]

        for _ in range(1200):
            m, n = 1 + rng.below(14), 1 + rng.below(14)
            rows = draw(m, n, (1, 9, 10**6, 10**30)[rng.below(4)])
            kind = rng.below(6) if m > 1 else 0
            i, j = rng.below(m), rng.below(m)
            if kind == 3:
                rows[i] = [0] * n
            elif kind == 4:
                rows[i] = list(rows[j])
            elif kind == 5:
                p, q = rng.below(7) - 3, rng.below(7) - 3
                rows[i] = [p * x + q * y for x, y in zip(rows[j], rows[(j + 1) % m])]
            yield IntMatrix.from_rows(rows, cols=n)
        for _ in range(200):
            # Triangular, with large entries on the diagonal: the Hadamard
            # bound is far above U's size, and most of these decline.
            m = 2 + rng.below(13)
            n = m + rng.below(15 - m)
            rows = [[0] * i + [10 ** (20 + rng.below(80)) + rng.below(99)]
                    + [rng.below(19) - 9 for _ in range(n - i - 1)] for i in range(m)]
            if rng.below(2):
                rows = [row[: i + 1] + [0] * (n - i - 1) for i, row in enumerate(rows)]
            yield IntMatrix.from_rows(rows, cols=n)
        for n in range(4):
            yield IntMatrix.zeros(n, 3)
            yield IntMatrix.zeros(3, n)

    @staticmethod
    def snf_both_ways(monkeypatch, matrices):
        """Each matrix's SNFResult with the packed pass and with it declined,
        and which way the packed pass went: 'kept', 'fell back' (rank below
        the row count), 'declined' (slot too wide) or 'skipped' (tall)."""
        calls = []
        packed_hermite = exactla._packed_hermite

        def record(a, n):
            rows = packed_hermite(a, n)
            if rows is not None:
                calls.append("kept")
            elif exactla._packed_slot_bytes(a) is None:
                calls.append("declined")
            else:
                calls.append("fell back")
            return rows

        monkeypatch.setattr(exactla, "_packed_hermite", record)
        packed, branches = [], []
        for m in matrices:
            seen = len(calls)
            packed.append(smith_normal_form(m))
            branches.append(calls[-1] if len(calls) > seen else "skipped")
        monkeypatch.setattr(exactla, "_packed_hermite", lambda a, n: None)
        return packed, [smith_normal_form(m) for m in matrices], branches

    def test_same_result_as_the_identity_border(self, monkeypatch):
        matrices = list(self.cases())
        packed, declined, branches = self.snf_both_ways(monkeypatch, matrices)
        for m, p, d in zip(matrices, packed, declined):
            assert p == d, m
        counts = collections.Counter(branches)
        assert min(counts[b] for b in ("kept", "fell back", "declined", "skipped")) >= 100, counts
        assert all(b == "skipped" for m, b in zip(matrices, branches) if m.rows > m.cols)

    def test_anchors_take_the_packed_pass(self, monkeypatch):
        # The six square `certified` anchors and the wide one; a silent
        # fallback would leave them equal but slow.
        anchors = [splitmix_matrix(*source) for source, _ in SNF_DIGESTS[:7]]
        packed, declined, branches = self.snf_both_ways(monkeypatch, anchors)
        assert packed == declined
        assert branches == ["kept"] * 7

    def test_first_row_pass_runs_once(self, monkeypatch):
        # _hermite calls on each anchor when the alternation ran its own first
        # row pass over the packed pass's [H, U]; that pass changed nothing.
        before = [3, 3, 4, 3, 4, 3, 3]
        # The wide anchor's V has 10 kernel columns against rank 20, and their
        # Hermite form takes one more call; the square anchors have none.
        kernel_steps = [0, 0, 0, 0, 0, 0, 1]
        anchors = [splitmix_matrix(*source) for source, _ in SNF_DIGESTS[:7]]
        hermite, calls = exactla._hermite, []

        def count(*args, **options):
            calls.append(args)
            return hermite(*args, **options)

        monkeypatch.setattr(exactla, "_hermite", count)
        counts = []
        for m in anchors:
            seen = len(calls)
            smith_normal_form(m)
            counts.append(len(calls) - seen)
        assert counts == [k - 1 + j for k, j in zip(before, kernel_steps)]

    def test_rank_deficient_pass_stops_at_its_first_zero_row(self, monkeypatch):
        # Rank 5, and the slots fit: the pass gives up on the packed border
        # after at most rank + 1 rows, not after all 24.
        a = product_matrix(2405, 24, 5, 10).to_rows()
        assert exactla._packed_slot_bytes(a) is not None
        hermite, drawn = exactla._hermite, []

        class Counting(list):
            def __iter__(self):
                for row in super().__iter__():
                    drawn.append(row)
                    yield row

        monkeypatch.setattr(exactla, "_hermite",
                            lambda rows, n, **options: hermite(Counting(rows), n, **options))
        assert exactla._packed_hermite(a, 24) is None
        assert 0 < len(drawn) <= 6

    # sha256 of `hlk snf` stdout on inputs that leave the packed pass, taken
    # before a rank-deficient pass stopped at its first zero row and before
    # the alternation took the first row pass's result as it stood;
    # planted-16x16x12's and tall-12x8's once their kernel part was size-reduced.
    # The diagonal and block-diagonal ones were taken before the chain repair
    # stepped U's rows and V's columns instead of the bordered matrix.
    @pytest.mark.parametrize("make, branch, digest", [
        (lambda: product_matrix(1605, 16, 5, 10), "fell back",
         "b4937d4e395ed5ef6ea46613bc4856bf352edd68e739fc1eb8a28714aedcffec"),
        (lambda: planted_matrix(1612, 16, 12), "fell back",
         "ebf740770e3ab063d50d445093cdc738ec385a39d0f3a85b06d32a5096d82614"),
        (lambda: splitmix_matrix(1208, 12, 8, 100), "skipped",
         "5295a6043cbe788d72f63879adeb6ed6c0239bb6e91fae5b1e49ff35df37abe4"),
        (lambda: diagonal_matrix(24, 2**64), "declined",
         "6134afae695ae3303d932a8d6b3e856ff4a5955177cfd6a42f84aa23bce119fa"),
        (lambda: block_diagonal_matrix(24, 2**64), "declined",
         "e0134ed15bf5bfbb62b596206adc84e928362c695ea6331484896949822aa4f5"),
        (lambda: diagonal_matrix(40, 100), "declined",
         "07c453d4200da34548b2c2d2f4d5f77e1877f675c23e82ada82bd67784c4014e"),
    ], ids=["rank-deficient-16x5x16", "planted-16x16x12", "tall-12x8",
            "diagonal-24-64bit", "blocks-24-64bit", "diagonal-40-1..100"])
    def test_snf_output_off_the_packed_pass_is_pinned(self, monkeypatch, make, branch, digest):
        m = make()
        assert snf_digest(m) == digest
        packed, declined, branches = self.snf_both_ways(monkeypatch, [m])
        assert packed == declined
        assert branches == [branch]

    def test_large_diagonal_keeps_the_identity_border(self):
        # U is the identity, but the Hadamard bound gives slots of 331,872
        # bits: with U packed, this call's traced peak is 236 MB.
        d = 10**999 + 7
        m = IntMatrix.from_rows([[d * (i == j) for j in range(100)] for i in range(100)], cols=100)
        tracemalloc.start()
        try:
            result = smith_normal_form(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.divisors == (d,) * 100
        assert result.u == result.v == identity(100)
        assert peak < 10 * 2**20


def reference_chain(b, r):
    """The chain repair as it was when it stepped whole rows and columns of the
    bordered matrix ``b = [[A, U], [V, 0]]``, A diagonal with rank ``r``."""
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            x, y = b[i][i], b[i + 1][i + 1]
            if y % x:
                g = math.gcd(x, y)
                k = abs(y // g)
                s = (pow(x // g, -1, k) + k // 2) % k - k // 2
                t = (g - s * x) // y
                b[i], b[i + 1] = exactla._combine(b[i], b[i + 1], s, t, -y // g, x // g)
                cols = exactla._combine([row[i] for row in b], [row[i + 1] for row in b],
                                        1, 1, -t * y // g, s * x // g)
                for row, e, f in zip(b, *cols):
                    row[i], row[i + 1] = e, f
                changed = True

    for i in range(r):
        if b[i][i] < 0:
            b[i] = [-x for x in b[i]]
    return [b[i][i] for i in range(r)]


def reference_divisor_chain(d):
    """The chain of diag(d), d nonzero: (gcd, lcm) over every pair i < j sorts
    each prime's valuations."""
    d = [abs(x) for x in d]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = math.gcd(d[i], d[j]), math.lcm(d[i], d[j])
    return d


class TestChainRepair:
    """exactla._chain on the diagonal, U's rows and V's columns."""

    @staticmethod
    def signed_entries(rng, count):
        kind = rng.below(4)
        if kind == 3:
            values = [(1, 2, 3, 4, 6, 12)[rng.below(6)] for _ in range(count)]
        else:
            bound = (100, 2**64, 10**30)[kind]
            values = [rng.below(bound) + 1 for _ in range(count)]
        return [x if rng.below(2) else -x for x in values]

    def test_matches_the_bordered_reference(self):
        rng = SplitMix64(2012)
        fixed = 0
        for _ in range(400):
            r, c = rng.below(10), rng.below(10)
            rank = rng.below(min(r, c) + 1)
            d = self.signed_entries(rng, rank)
            u = [[rng.below(19) - 9 for _ in range(r)] for _ in range(r)]
            v = [[rng.below(19) - 9 for _ in range(c)] for _ in range(c)]
            b = [[d[i] if i == j and i < rank else 0 for j in range(c)] + u[i]
                 for i in range(r)] + [row + [0] * r for row in v]
            fixed += any(y % x for x, y in zip(d, d[1:]))
            chain = reference_chain(b, rank)
            w = exactla._transpose(v)
            assert exactla._chain(d, u, w) == chain, (d, u, v)
            assert u == [row[c:] for row in b[:r]], (d, u, v)
            assert w == exactla._transpose([row[:c] for row in b[r:]]), (d, u, v)
        assert fixed > 100

    def test_divisor_path_matches_all_pairs(self):
        rng = SplitMix64(2013)
        for _ in range(400):
            d = self.signed_entries(rng, rng.below(41))
            expected = reference_divisor_chain(d)
            assert exactla._chain(d, [[]] * len(d), [[]] * len(d)) == expected, d

    def test_divisor_path_steps_no_rows(self, monkeypatch):
        # About 8,000 fixes: the divisor path keeps no transforms, so none of
        # them may step a row or column of the working matrix.
        m = diagonal_matrix(200, 100)
        combine, widths = exactla._combine, []

        def record(u, w, *steps):
            widths.append(len(u) + len(w))
            return combine(u, w, *steps)

        monkeypatch.setattr(exactla, "_combine", record)
        assert elementary_divisors(m) == reference_divisor_chain([m.entry(i, i) for i in range(200)])
        assert len(widths) > 2000
        assert set(widths) == {0}


def reference_reduce_row(row, basis, leads, start):
    """The Hermite kernel's row reduction as it was before row steps started at
    the pivot column: whole-width rows, a new list per step."""
    for b, c in zip(basis[start:], leads[start:]):
        q = row[c] // b[c]
        if q:
            row = [x - q * y for x, y in zip(row, b)]
    return row


def reference_hermite(rows, n):
    """The Hermite kernel before it trimmed rows and skipped zero spans; the
    arithmetic of ``exactla._hermite`` must match it step for step."""
    basis, leads, kernel = [], [], []
    for row in rows:
        i = 0
        while True:
            start = leads[i - 1] + 1 if i else 0
            lead = next((j for j in range(start, n) if row[j]), n)
            if lead == n:
                kernel.append(row)
                break
            if i == len(basis) or lead < leads[i]:
                if row[lead] < 0:
                    row = [-x for x in row]
                basis.insert(i, reference_reduce_row(row, basis, leads, i))
                leads.insert(i, lead)
                for k in range(i):
                    basis[k] = reference_reduce_row(basis[k], basis, leads, i)
                break
            if lead == leads[i]:
                pivot = basis[i]
                p, x = pivot[lead], row[lead]
                if x % p:
                    g = math.gcd(p, x)
                    pg, xg = p // g, x // g
                    t = pow(xg, -1, pg)
                    s = (g - t * x) // p
                    basis[i] = reference_reduce_row(
                        [s * y + t * z for y, z in zip(pivot, row)], basis, leads, i + 1
                    )
                    row = [pg * z - xg * y for y, z in zip(pivot, row)]
                    for k in range(i):
                        basis[k] = reference_reduce_row(basis[k], basis, leads, i)
                else:
                    q = x // p
                    row = [z - q * y for y, z in zip(pivot, row)]
                row = reference_reduce_row(row, basis, leads, i + 1)
            i += 1
    return basis + kernel


class TestHermiteKernel:
    """exactla._hermite against the whole-width reference above."""

    BORDERS = ("identity", "dense", "trailing-zeros", "none")

    @staticmethod
    def cases():
        """(rows, n, border kind): 1,200 seeded inputs up to 9 x 9 plus a border."""
        rng = SplitMix64(1979)

        def draw(bound):
            return rng.below(2 * bound + 1) - bound

        for case in range(1200):
            border = TestHermiteKernel.BORDERS[case % 4]
            m, n, bound = rng.below(10), rng.below(10), (1, 3, 100)[rng.below(3)]
            if rng.below(3):
                a = [[draw(bound) for _ in range(n)] for _ in range(m)]
            else:
                # Rank at most k: a product of m x k and k x n factors.
                k = rng.below(3)
                x = [[draw(3) for _ in range(k)] for _ in range(m)]
                y = [[draw(3) for _ in range(n)] for _ in range(k)]
                a = [[sum(p * q for p, q in zip(r, col)) for col in zip(*y)] if k else [0] * n
                     for r in x]
            for row in a:
                if rng.below(5) == 0:
                    row[:] = [0] * n
            if border == "identity":
                extra = [[int(i == j) for j in range(m)] for i in range(m)]
            elif border == "dense":
                width = rng.below(10)
                extra = [[draw(bound) for _ in range(width)] for _ in range(m)]
            elif border == "trailing-zeros":
                # Each row's border ends in a run of zeros of its own length.
                width = 1 + rng.below(9)
                extra = []
                for _ in range(m):
                    live = rng.below(width + 1)
                    extra.append([draw(bound) for _ in range(live)] + [0] * (width - live))
            else:
                extra = [[] for _ in range(m)]
            yield [r + e for r, e in zip(a, extra)], n, border

    def test_matches_the_reference(self):
        seen = collections.Counter()
        for rows, n, border in self.cases():
            before = [list(r) for r in rows]
            got = exactla._hermite(rows, n)
            assert rows == before, (before, n)
            assert got == reference_hermite([list(r) for r in rows], n), (before, n)
            width = len(rows[0]) if rows else 0
            assert all(len(r) == width for r in got)
            seen[border, n == 0, not rows] += 1
        # Every border kind met empty inputs and zero-width A.
        assert sum(seen.values()) == 1200
        assert all(seen[b, True, False] and seen[b, False, True] for b in self.BORDERS), seen

    def test_no_rows_and_no_columns(self):
        assert exactla._hermite([], 0) == []
        assert exactla._hermite([], 3) == []
        rows = [[0, 0, 1, 0], [0, 0, 0, 0]]
        assert exactla._hermite(rows, 0) == reference_hermite(rows, 0) == rows
        assert rows == [[0, 0, 1, 0], [0, 0, 0, 0]]


def reference_add_row(a, src, dst, k, start):
    """The staircase's row step before ``exactla._diagonalize`` took it inline."""
    ms, md = a[src], a[dst]
    for idx in range(start, len(ms)):
        x = ms[idx]
        if x:
            md[idx] += k * x


def reference_diagonalize(a, budget):
    """The staircase before its column sweep resumed at the row it swapped in;
    ``exactla._diagonalize`` must take the same steps and hand off at the same pivot."""
    m = len(a)
    n = len(a[0]) if m else 0
    t = 0
    spent = 0
    while True:
        pivot = exactla._min_abs_entry(a, t, m, n)
        if pivot is None:
            return t
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            p = a[t][t]
            improved = False
            for i in range(t + 1, m):
                x = a[i][t]
                if x:
                    q = x // p
                    if q:
                        reference_add_row(a, t, i, -q, t)
                        spent += q.bit_length()
                        if spent > budget:
                            block = exactla._hermite([row[t:] for row in a[t:]], n - t)
                            r = exactla._alternate(block, m - t, n - t)
                            for row, done in zip(a[t:], block):
                                row[t:] = done
                            return t + r
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        improved = True
                        break
            if improved:
                continue
            row = a[t]
            for j in range(t + 1, n):
                if row[j]:
                    row[j] %= p
                    if row[j]:
                        for r in a:
                            r[t], r[j] = r[j], r[t]
                        improved = True
                        break
            if improved:
                continue
            break
        t += 1


# The `divisors` benchmark anchors (splitmix64 seed, rows, cols, entry bound).
DIVISOR_ANCHORS = [
    (926, 25, 25, 100), (936, 35, 35, 1), (931, 30, 30, 100),
    (941, 40, 40, 1), (951, 20, 30, 100), (951, 30, 20, 100),
]


class TestStaircase:
    """exactla._diagonalize against the reference above."""

    @staticmethod
    def cases():
        """The six `divisors` anchors, then 360 seeded inputs up to 9 x 9."""
        for source in DIVISOR_ANCHORS:
            yield splitmix_matrix(*source).to_rows()
        rng = SplitMix64(1982)

        def draw(rows, cols, bound):
            return [[rng.below(2 * bound + 1) - bound for _ in range(cols)] for _ in range(rows)]

        for case in range(360):
            m, n, bound = 1 + rng.below(9), 1 + rng.below(9), (1, 9, 100)[case % 3]
            if case % 4:
                yield draw(m, n, bound)
            else:
                # Rank at most k < min(m, n): a product of m x k and k x n factors.
                k = rng.below(min(m, n))
                x, y = draw(m, k, bound), draw(k, n, 2)
                yield [[sum(p * q for p, q in zip(r, col)) for col in zip(*y)] if k else [0] * n
                       for r in x]

    def test_matches_the_reference(self, monkeypatch):
        # The same working matrix, rank and hand-off block at every budget.
        hand_offs = []
        alternate = exactla._alternate

        def record(block, rows, cols):
            hand_offs.append(([list(r) for r in block], rows, cols))
            return alternate(block, rows, cols)

        monkeypatch.setattr(exactla, "_alternate", record)

        def run(diagonalize, a, budget):
            hand_offs.clear()
            a = [list(r) for r in a]
            rank = diagonalize(a, budget)
            return a, rank, list(hand_offs)

        seen = collections.Counter()
        for a in self.cases():
            m, n = len(a), len(a[0])
            for budget in (0, 5, 50, 500, 50 * m * min(m, n)):
                got = run(exactla._diagonalize, a, budget)
                assert got == run(reference_diagonalize, a, budget), (a, budget)
                seen["handed off" if got[2] else "finished", got[1] < min(m, n)] += 1
        assert sum(seen.values()) == 5 * 366
        assert min(seen.values()) > 50 and len(seen) == 4, seen

    def test_anchors_hand_off_where_they_did(self, monkeypatch):
        # The pivot at which each anchor passes the default budget, as taken
        # before the sweep resumed at the swapped row.
        shapes = TestDivisorsOnlyPath.record_hand_offs(monkeypatch)
        for source, t in zip(DIVISOR_ANCHORS, (10, 27, 8, 27, 8, 7)):
            m = splitmix_matrix(*source)
            shapes.clear()
            elementary_divisors(m)
            assert shapes == [(m.rows - t, m.cols - t)], source


# --- determinant -----------------------------------------------------------


class TestDeterminant:
    def test_known(self):
        assert determinant(IntMatrix.from_rows([[3]])) == 3
        assert determinant(IntMatrix.from_rows([[1, 2], [3, 4]])) == -2
        assert determinant(IntMatrix.from_rows([[2, 0, 1], [1, 1, 0], [0, 3, 1]])) == 5

    def test_empty_is_one(self):
        assert determinant(IntMatrix.zeros(0, 0)) == 1

    def test_singular(self):
        assert determinant(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0
        assert determinant(IntMatrix.zeros(3, 3)) == 0

    def test_needs_pivot_swap(self):
        assert determinant(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1

    def test_non_square(self):
        with pytest.raises(ValueError):
            determinant(IntMatrix.zeros(2, 3))

    def test_agrees_with_divisor_product_up_to_sign(self):
        rng = SplitMix64(99)
        for _ in range(100):
            n = 1 + rng.below(4)
            m = IntMatrix(n, n, tuple(rng.below(19) - 9 for _ in range(n * n)))
            divs = elementary_divisors(m)
            prod = math.prod(divs) if len(divs) == n else 0
            assert abs(determinant(m)) == prod


# --- minor-gcd oracle ------------------------------------------------------


def reference_cofactor_det(rows):
    """The minor oracle's determinant before it used Bareiss elimination:
    cofactor expansion along the first row."""
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
        d = reference_cofactor_det(sub)
        total += x * d if j % 2 == 0 else -x * d
    return total


def reference_minor_gcd_profile(rows, n):
    """[D_1, ..., D_min(m,n)] with every minor by cofactor expansion."""
    profile = []
    for k in range(1, min(len(rows), n) + 1):
        g = 0
        for rsel in itertools.combinations(rows, k):
            for csel in itertools.combinations(range(n), k):
                g = math.gcd(g, reference_cofactor_det([[r[j] for j in csel] for r in rsel]))
        profile.append(g)
    return profile


class TestMinorGcdProfile:
    KINDS = ("dense", "zero", "rank-deficient", "repeated-row")

    @staticmethod
    def cases():
        """(rows, n, kind, bound): 1,200 seeded inputs up to 6 x 6 with entries up to 9 or 100."""
        rng = SplitMix64(4096)
        for case in range(1200):
            kind, bound = TestMinorGcdProfile.KINDS[case % 4], (9, 100)[case // 4 % 2]
            m, n = 1 + rng.below(6), 1 + rng.below(6)

            def draw(b=bound):
                return rng.below(2 * b + 1) - b

            if kind == "zero":
                rows = [[0] * n for _ in range(m)]
            elif kind == "rank-deficient":
                # Rank at most k < min(m, n): a product of m x k and k x n factors.
                k = rng.below(min(m, n))
                x = [[draw(3) for _ in range(k)] for _ in range(m)]
                y = [[draw(bound // 3) for _ in range(n)] for _ in range(k)]
                rows = [[sum(p * q for p, q in zip(r, col)) for col in zip(*y)] if k else [0] * n
                        for r in x]
            else:
                rows = [[draw() for _ in range(n)] for _ in range(m)]
                if kind == "repeated-row" and m > 1:
                    src = rng.below(m)
                    rows[(src + 1 + rng.below(m - 1)) % m] = list(rows[src])
            yield rows, n, kind, bound

    def test_matches_cofactor_expansion(self):
        seen, singular = collections.Counter(), collections.Counter()
        for rows, n, kind, bound in self.cases():
            m = IntMatrix.from_rows(rows, cols=n)
            expected = reference_minor_gcd_profile(rows, n)
            assert minor_gcd_profile(m) == expected, m
            assert minor_gcd_profile(m.transpose()) == expected, m
            seen[kind, bound, min(m.rows, m.cols)] += 1
            singular[kind] += expected[-1] == 0
        assert sum(seen.values()) == 1200
        # Every kind and bound met a 6 x 6 input; the constructed kinds are singular.
        assert all(seen[kind, bound, 6] for kind in self.KINDS for bound in (9, 100)), seen
        assert singular["zero"] == singular["rank-deficient"] == 300 and singular["repeated-row"], singular

    def test_worked_example(self, worked_matrix):
        # divisor chain 1 | 2 | 4 gives prefix products 1, 2, 8
        assert minor_gcd_profile(worked_matrix) == [1, 2, 8]

    def test_identity(self):
        assert minor_gcd_profile(identity(3)) == [1, 1, 1]

    def test_zeros(self):
        assert minor_gcd_profile(IntMatrix.zeros(2, 3)) == [0, 0]

    def test_rank_deficient(self):
        m = IntMatrix.from_rows([[2, 4], [4, 8]])
        assert minor_gcd_profile(m) == [2, 0]

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            minor_gcd_profile(IntMatrix.zeros(7, 7))

    def test_count_guard(self):
        # min dim 6 passes the first guard, but the minor count explodes
        with pytest.raises(ValueError):
            minor_gcd_profile(IntMatrix.zeros(6, 40))


# --- splitmix64 ------------------------------------------------------------


class TestSplitMix64:
    def test_reference_vector_seed_zero(self):
        r = SplitMix64(0)
        assert [r.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_seed_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    @pytest.mark.parametrize("seed", [True, 1.5, 1.0])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(TypeError, match="^seed must be an int"):
            SplitMix64(seed)

    def test_below_range(self):
        r = SplitMix64(42)
        draws = [r.below(10) for _ in range(500)]
        assert set(draws) == set(range(10))

    def test_below_positive_bound(self):
        with pytest.raises(ValueError):
            SplitMix64(0).below(0)


# --- random_unimodular -----------------------------------------------------


class TestRandomUnimodular:
    def test_always_unimodular(self):
        for seed in range(30):
            for size in (1, 2, 3, 5):
                u = random_unimodular(size, seed, ops=20)
                assert u.shape == (size, size)
                assert abs(determinant(u)) == 1

    def test_zero_ops_is_identity(self):
        assert random_unimodular(4, 123, 0) == identity(4)

    def test_deterministic(self):
        assert random_unimodular(3, 7, 15) == random_unimodular(3, 7, 15)

    def test_size_one_reaches_both_units(self):
        seen = {random_unimodular(1, seed, 5).entry(0, 0) for seed in range(40)}
        assert seen == {1, -1}

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            random_unimodular(0, 1, 1)
        with pytest.raises(ValueError):
            random_unimodular(2, 1, -1)
        for args, name in [
            ((True, 1, 3), "size"), ((2.0, 1, 3), "size"), ((2, 1, 3.0), "ops"),
            ((2, True, 3), "seed"), ((2, 1.5, 3), "seed"),
        ]:
            with pytest.raises(TypeError, match=f"^{name} must be an int"):
                random_unimodular(*args)


# --- apply_slide -----------------------------------------------------------


class TestApplySlide:
    def test_row_slide(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert apply_slide(m, "row", 0, 1, 1).to_rows() == [[1, 2], [4, 6]]
        assert apply_slide(m, "row", 1, 0, -1).to_rows() == [[-2, -2], [3, 4]]

    def test_col_slide(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert apply_slide(m, "col", 0, 1, 1).to_rows() == [[1, 3], [3, 7]]

    def test_preserves_divisors(self, worked_matrix):
        base = elementary_divisors(worked_matrix)
        m = worked_matrix
        for kind, src, dst, coeff in [
            ("row", 0, 2, 1),
            ("col", 3, 1, -1),
            ("row", 1, 0, -1),
            ("col", 0, 2, 1),
        ]:
            m = apply_slide(m, kind, src, dst, coeff)
            assert elementary_divisors(m) == base

    def test_bad_arguments(self):
        m = identity(2)
        with pytest.raises(ValueError):
            apply_slide(m, "diag", 0, 1, 1)
        with pytest.raises(ValueError):
            apply_slide(m, "row", 0, 1, 2)
        with pytest.raises(ValueError):
            apply_slide(m, "row", 0, 0, 1)
        with pytest.raises(IndexError):
            apply_slide(m, "col", 0, 2, 1)
        for args, name in [((True, 0, 1), "src"), ((0, 1.0, 1), "dst"), ((0, 1, True), "coeff"),
                           ((0, 1, 1.0), "coeff")]:
            with pytest.raises(TypeError, match=f"^{name} must be an int"):
                apply_slide(m, "row", *args)


# --- matrix file format ----------------------------------------------------


def filtering_split(text):
    """The line grammar as the README states it: tokens are runs of non-spaces."""
    expected = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            expected.append((lineno, [t for t in stripped.split(" ") if t]))
    return expected


class TestLineScanner:
    @pytest.mark.parametrize(
        "text, lines",
        [
            (
                "component   h1\ncrossing  a   b  -\n",
                [(1, ["component", "h1"]), (2, ["crossing", "a", "b", "-"])],
            ),
            (
                "   loop a\n  matrix 2 3  \n\t1 2\t \n",
                [(1, ["loop", "a"]), (2, ["matrix", "2", "3"]), (3, ["1", "2"])],
            ),
            ("crossing a\tb +\n\tloop\t a \n", [(1, ["crossing", "a\tb", "+"]), (2, ["loop\t", "a"])]),
            (
                "component\u3000h1\n\u3000loop a\u3000\nloop  \u3000 b\n",
                [(1, ["component\u3000h1"]), (2, ["loop", "a"]), (3, ["loop", "\u3000", "b"])],
            ),
            ("matrix 1 2\r\n1  2\r\n# c\r\n\r\n", [(1, ["matrix", "1", "2"]), (2, ["1", "2"])]),
            (
                "loop a\x0bloop  b\u2028crossing a b +\x0c\x1c 7 \x85x",
                [
                    (1, ["loop", "a"]),
                    (2, ["loop", "b"]),
                    (3, ["crossing", "a", "b", "+"]),
                    (5, ["7"]),
                    (6, ["x"]),
                ],
            ),
            ("\n  \n#\n  # loop a\nloop #a\n", [(5, ["loop", "#a"])]),
        ],
    )
    def test_tokens_are_runs_of_non_spaces(self, text, lines):
        assert list(exactla._significant_lines(text)) == lines

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=" \t\u3000\r\n\x0b\u2028#ab", max_size=40))
    def test_tokens_match_on_any_text(self, text):
        assert list(exactla._significant_lines(text)) == filtering_split(text)


def reference_integers(tokens, lineno, what):
    """The values of ``tokens``, each a README_INTEGER, or the parser's error about ``what``."""
    if not all(README_INTEGER.fullmatch(t) for t in tokens):
        raise MatrixParseError(f"{what} must be signed decimal integers", line=lineno)
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise MatrixParseError(f"{what} exceed the integer digit limit", line=lineno) from None


def sequential_parse_matrix(text):
    """The line-by-line matrix reader, kept as an oracle: each significant line
    of ``text.splitlines()`` is checked in file order, and the row count when the
    first extra row or the end of the text is reached."""
    header_line, rows, extra, found = None, [], None, 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = [t for t in line.strip().split(" ") if t]
        if not tokens or tokens[0].startswith("#"):
            continue
        if header_line is None:
            if tokens[0] != "matrix" or len(tokens) != 3:
                raise MatrixParseError("expected header 'matrix <m> <n>'", line=lineno)
            m, n = reference_integers(tokens[1:], lineno, "matrix dimensions")
            if m < 0 or n < 0:
                raise MatrixParseError("matrix dimensions must be non-negative", line=lineno)
            header_line, expected = lineno, (m if n > 0 else 0)
            continue
        found += 1
        if found > expected:
            extra = extra or lineno
            continue
        if len(tokens) != n:
            raise MatrixParseError(f"expected {n} entries, found {len(tokens)}", line=lineno)
        rows.append(reference_integers(tokens, lineno, "entries"))
    if header_line is None:
        raise MatrixParseError("empty input, expected a 'matrix <m> <n>' header")
    if found != expected:
        raise MatrixParseError(f"expected {expected} rows, found {found}", line=extra or header_line)
    return IntMatrix(m, n, tuple(x for row in rows for x in row))


def matrix_outcome(parse, text):
    """The parsed matrix, or the error's message and line."""
    try:
        return "matrix", parse(text)
    except MatrixParseError as exc:
        return "error", str(exc), exc.line


# Every line break str.splitlines() takes, and lines that a matrix reader skips.
MATRIX_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SKIPPED = ["", "  ", "# c", "  # 1 2", "#", "\t"]
BAD_TOKENS = ["x", "1_0", "\u0663", "5\t", "+-1", "--", "0x1"]


def malformed_matrix_text(rng):
    """A matrix text of up to 3 x 3, most of whose lines are valid.  The header
    may be malformed or of width zero, the row count off by one or two, and a
    row short, long or holding a bad token.  Now and then there is no line to
    read.  Comments and blank lines fall anywhere, and each line ends in any
    line break, the last in none at times."""
    m, n = rng.below(4), rng.below(4)
    header = f"matrix {m} {n}"
    if rng.below(12) == 0:
        header = ["matrix 2", "mat 2 2", "matrix -1 2", "matrix a 2", "matrix 2 2 2"][rng.below(5)]
    lines = [header]
    rows = max(m + [0, 0, 0, 0, -1, 1, 2][rng.below(7)], 0) if n > 0 else [0, 0, 0, 1][rng.below(4)]
    for _ in range(rows):
        width = n + ([0] * 10 + [-1, 1])[rng.below(12)] if n > 0 else 1 + rng.below(2)
        row = [str(rng.below(21) - 10) for _ in range(width)]
        if row and rng.below(10) == 0:
            row[rng.below(len(row))] = BAD_TOKENS[rng.below(len(BAD_TOKENS))]
        lines.append(" " + "  ".join(row) + " " if rng.below(4) == 0 else " ".join(row))
    if rng.below(40) == 0:
        lines = []
    for _ in range(rng.below(3)):
        lines.insert(rng.below(len(lines) + 1), SKIPPED[rng.below(len(SKIPPED))])
    breaks = [MATRIX_BREAKS[rng.below(len(MATRIX_BREAKS))] for _ in lines]
    if lines and rng.below(5) == 0:
        breaks[-1] = ""
    return "".join(line + brk for line, brk in zip(lines, breaks))


class TestMatrixFormat:
    def test_parse_basic(self):
        m = parse_matrix("matrix 2 3\n1 -2 3\n0 5 -6\n")
        assert m.to_rows() == [[1, -2, 3], [0, 5, -6]]

    def test_parse_skips_comments_and_blanks(self):
        text = "# header comment\n\nmatrix 1 2\n# row comment\n\n  7 -8  \n"
        assert parse_matrix(text).to_rows() == [[7, -8]]

    def test_parse_zero_width(self):
        assert parse_matrix("matrix 3 0\n").shape == (3, 0)
        assert parse_matrix("matrix 0 4\n").shape == (0, 4)

    def test_round_trip(self, worked_matrix):
        assert parse_matrix(format_matrix(worked_matrix)) == worked_matrix
        for shape in [(0, 0), (2, 0), (0, 3), (1, 1)]:
            m = IntMatrix.zeros(*shape)
            assert parse_matrix(format_matrix(m)) == m

    def test_format_worked(self, worked_matrix):
        assert format_matrix(worked_matrix) == (
            "matrix 3 4\n-1 -1 0 2\n1 -3 -2 0\n0 0 2 -2\n"
        )

    def test_parse_errors(self):
        empty = "empty input, expected a 'matrix <m> <n>' header"
        signed = "entries must be signed decimal integers"
        cases = [
            ("", None, empty),
            ("# only a comment\n", None, empty),
            ("mat 2 2\n1 2\n3 4\n", 1, "expected header 'matrix <m> <n>'"),
            ("matrix 2\n", 1, "expected header 'matrix <m> <n>'"),
            ("matrix a b\n", 1, "matrix dimensions must be signed decimal integers"),
            ("matrix -1 2\n", 1, "matrix dimensions must be non-negative"),
            ("matrix 2 2\n1 2\n", 1, "expected 2 rows, found 1"),
            ("matrix 1 2\n1 2\n3 4\n", 3, "expected 1 rows, found 2"),
            ("matrix 1 2\n1 2\n3 4\n\n5 6\n", 3, "expected 1 rows, found 3"),
            ("matrix 0 2\n1 2\n", 2, "expected 0 rows, found 1"),
            ("matrix 2 0\n\n1\n", 3, "expected 0 rows, found 1"),
            ("matrix 1 3\n1 2\n", 2, "expected 3 entries, found 2"),
            ("matrix 1 2\n1 x\n", 2, signed),
            # A row-count error and a bad row: the line read first is named.
            ("matrix 2 2\n1 x\n", 2, signed),
            ("matrix 2 2\n1 2 3\n", 2, "expected 2 entries, found 3"),
            ("matrix 1 2\n1 x\n3 4\n", 2, signed),
            ("matrix 2 2\n1 2\n3 x\n5 6\n", 3, signed),
        ]
        for text, line, message in cases:
            with pytest.raises(MatrixParseError) as info:
                parse_matrix(text)
            assert info.value.line == line, text
            assert str(info.value) == (message if line is None else f"line {line}: {message}"), text

    @pytest.mark.parametrize("slice_chars", [exactla._SLICE, 1, 7])
    def test_matches_the_line_by_line_reader(self, monkeypatch, slice_chars):
        # Slices of 1 and 7 characters put line breaks of every kind, CR LF
        # included, on slice edges.
        monkeypatch.setattr(exactla, "_SLICE", slice_chars)
        kinds = collections.Counter()
        for seed in range(2_000):
            text = malformed_matrix_text(SplitMix64(seed))
            expected = matrix_outcome(sequential_parse_matrix, text)
            assert matrix_outcome(parse_matrix, text) == expected, (seed, text)
            kinds[expected[0] if expected[0] == "matrix" else re.sub(r"\d+", "N", expected[1])] += 1
        assert 400 < kinds["matrix"] < 1_600
        assert kinds["line N: expected N rows, found N"] > 100
        assert kinds["line N: expected N entries, found N"] > 100
        assert kinds["line N: entries must be signed decimal integers"] > 50
        assert kinds["empty input, expected a 'matrix <m> <n>' header"] > 10

    def test_memory_is_bounded_by_the_matrix(self):
        # 400x400, entries in [-100, 100], 0.55 MB.  Converting each row as it
        # is read takes 6.7 times the text's length; listing every row's tokens
        # before converting any would take 25.7.  The peak is the matrix that
        # is returned plus about one row (1.08 times what the result holds);
        # an entry list held beside the tuple copied from it would take 1.39.
        text = format_matrix(splitmix_matrix(1301, 400, 400, 100))
        tracemalloc.start()
        try:
            result = parse_matrix(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.rows == result.cols == 400
        assert peak < 12 * len(text)
        assert peak < 1.25 * held

    def test_only_ascii_integer_tokens(self):
        cases = [
            ("matrix 1 1\n\u0663\n", 2),  # Arabic-Indic three
            ("matrix 1 2\n1 \uff14\n", 2),  # full-width four
            ("matrix 1 2\n1_0 4\n", 2),
            ("matrix 2 1\n5\n+-1\n", 3),
            ("matrix \u0661 1\n3\n", 1),
            ("matrix 1 \uff11\n3\n", 1),
            ("# comment\nmatrix 1_0 2\n", 2),
            ("matrix 1 3\n0 5\t 0\n", 2),  # int() skips a tab
            ("matrix 1 3\n0 5\x1f 0\n", 2),  # whitespace to str.split(), not to int()
        ]
        for text, line in cases:
            with pytest.raises(MatrixParseError) as info:
                parse_matrix(text)
            assert info.value.line == line, text

    def test_signs_and_repeated_spaces_accepted(self):
        assert parse_matrix("matrix +1 2\n+3   -04\n").to_rows() == [[3, -4]]

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() has no digit limit here")
    def test_over_long_entry_is_named(self):
        with pytest.raises(MatrixParseError, match="digit limit") as info:
            parse_matrix("matrix 1 2\n1 " + "9" * (INT_DIGIT_LIMIT + 1) + "\n")
        assert info.value.line == 2

    def test_parse_error_is_value_error(self):
        with pytest.raises(ValueError):
            parse_matrix("junk")


# The grammar of an integer token as the README states it: the reference the
# parser's own check is compared with.
README_INTEGER = re.compile(r"[+-]?[0-9]+")
# What ends a token in a matrix file: a space or a line break.
TOKEN_ENDS = set(" \n\r\x0b\x0c\x1c\x1d\x1e")


def grammar_tokens(count):
    """Every one-character token, then ``count`` seeded ones of two or three characters.

    They come from every ASCII character, a no-break space, a figure space and
    three non-ASCII digits, with digits and signs drawn more often.
    """
    alphabet = [chr(c) for c in range(128)] + ["\xa0", "\u2007", "\u0663", "\uff11", "\U0001d7d9"]
    rng = random.Random(2012)
    weighted = alphabet + list("0123456789+-") * 12
    return alphabet + ["".join(rng.choices(weighted, k=rng.randint(2, 3))) for _ in range(count)]


class TestIntegerGrammar:
    """Entries, header dimensions and integer flags accept exactly README_INTEGER."""

    FILE_TOKENS = [t for t in grammar_tokens(6000) if not TOKEN_ENDS & set(t)]

    def test_entries(self):
        assert sum(bool(README_INTEGER.fullmatch(t)) for t in self.FILE_TOKENS) > 1000
        for token in self.FILE_TOKENS:
            # Between two other entries, so no strip of the line reaches the token.
            text = f"matrix 1 3\n0 {token} 0\n"
            if README_INTEGER.fullmatch(token):
                assert parse_matrix(text).entries == (0, int(token), 0), repr(token)
            else:
                with pytest.raises(MatrixParseError) as info:
                    parse_matrix(text)
                assert str(info.value) == "line 2: entries must be signed decimal integers", repr(token)

    def test_header(self):
        for token in self.FILE_TOKENS:
            text = f"matrix {token} 0\n"
            if README_INTEGER.fullmatch(token) and int(token) >= 0:
                assert parse_matrix(text).shape == (int(token), 0), repr(token)
                continue
            with pytest.raises(MatrixParseError) as info:
                parse_matrix(text)
            problem = "must be non-negative" if README_INTEGER.fullmatch(token) else "must be signed decimal integers"
            assert str(info.value) == f"line 1: matrix dimensions {problem}", repr(token)

    @pytest.mark.parametrize("flag", ["--trials", "--seed"])
    def test_flags(self, flag, monkeypatch, capsys):
        # Flag values may hold spaces and line breaks too.  The self-test is
        # replaced by one that records its arguments.
        calls = []
        monkeypatch.setattr("hlk.selftest.run_selftest", lambda trials, seed, **kw: calls.append((trials, seed)))
        for token in grammar_tokens(1500):
            code = cli.main(["selftest", "--trials=1", "--seed=0", f"{flag}={token}"])
            err = capsys.readouterr().err
            value = int(token) if README_INTEGER.fullmatch(token) else None
            if value is None:
                assert (code, err.splitlines()[-1]) == (1, f"hlk selftest: error: argument {flag}: "
                                                           f"invalid int value: {token!r}"), repr(token)
            elif flag == "--trials" and value < 1:
                assert (code, err) == (1, "hlk selftest: error: --trials must be at least 1\n"), repr(token)
            else:
                assert (code, err) == (0, ""), repr(token)
                assert calls.pop() == ((value, 0) if flag == "--trials" else (1, value))
        assert calls == []

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() has no digit limit here")
    @pytest.mark.parametrize("sign", ["", "+", "-"])
    def test_a_token_over_the_digit_limit_is_named(self, sign):
        token = sign + "9" * (INT_DIGIT_LIMIT + 1)
        cases = [
            (f"matrix 1 2\n{token} 1\n", "line 2: entries exceed the integer digit limit"),
            (f"matrix {token} 0\n", "line 1: matrix dimensions exceed the integer digit limit"),
            # A token outside the grammar is named first, wherever it stands.
            (f"matrix 1 2\n{token} 1_0\n", "line 2: entries must be signed decimal integers"),
        ]
        for text, message in cases:
            with pytest.raises(MatrixParseError) as info:
                parse_matrix(text)
            assert str(info.value) == message


# --- property tests --------------------------------------------------------


class TestProperties:
    @given(int_matrices())
    @settings(max_examples=120, deadline=None)
    def test_snf_is_sound(self, m):
        r = smith_normal_form(m)
        assert_sound_snf(m, r)
        assert elementary_divisors(m) == list(r.divisors)

    @given(int_matrices(max_dim=3, max_entry=12))
    @settings(max_examples=120, deadline=None)
    def test_divisor_products_match_minor_gcds(self, m):
        divisors = elementary_divisors(m)
        profile = minor_gcd_profile(m)
        prod = 1
        for k, d in enumerate(divisors):
            prod *= d
            assert profile[k] == prod
        for k in range(len(divisors), len(profile)):
            assert profile[k] == 0

    @given(int_matrices())
    @settings(max_examples=120, deadline=None)
    def test_transpose_invariance(self, m):
        assert elementary_divisors(m.transpose()) == elementary_divisors(m)

    @given(int_matrices(max_dim=4, max_entry=9), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_unimodular_invariance(self, m, seed):
        u = random_unimodular(m.rows, seed, 10)
        v = random_unimodular(m.cols, seed ^ 0xA5A5, 10)
        assert elementary_divisors(u @ m @ v) == elementary_divisors(m)

    @given(int_matrices(max_entry=1000))
    @settings(max_examples=80, deadline=None)
    def test_format_round_trip(self, m):
        assert parse_matrix(format_matrix(m)) == m
