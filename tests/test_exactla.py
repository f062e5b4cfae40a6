import io
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlk.cli as cli
import hlk.exactla as exactla
from hlk.exactla import (
    IntMatrix,
    MatrixParseError,
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
from hlk.invariant import handlebody_linking, quotient_groups

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

    def test_identity_zeros(self):
        assert IntMatrix.identity(2).to_rows() == [[1, 0], [0, 1]]
        assert IntMatrix.zeros(2, 3).to_rows() == [[0, 0, 0], [0, 0, 0]]

    def test_entry_bounds(self):
        m = IntMatrix.identity(2)
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
        assert (IntMatrix.identity(2) @ a) == a

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            IntMatrix.identity(2) @ IntMatrix.identity(3)

    def test_immutability(self):
        m = IntMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 3

    def test_repr(self):
        assert repr(IntMatrix.from_rows([[1, -2]])) == "IntMatrix(1x2 [1 -2])"


# --- Smith normal form -----------------------------------------------------


class TestSmithNormalForm:
    def test_worked_example(self, worked_matrix):
        r = smith_normal_form(worked_matrix)
        assert list(r.divisors) == [1, 2, 4]
        assert_sound_snf(worked_matrix, r)

    def test_identity(self):
        assert elementary_divisors(IntMatrix.identity(3)) == [1, 1, 1]

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
        assert rank(worked_matrix) == 3
        assert rank(IntMatrix.zeros(4, 4)) == 0
        assert rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1

    def test_large_entries_stay_exact(self):
        big = 10**30
        m = IntMatrix.from_rows([[big, big + 1], [big - 1, big]])
        # det = big^2 - (big^2 - 1) = 1, so the matrix is unimodular
        assert elementary_divisors(m) == [1, 1]


class TestDivisorsOnlyPath:
    def test_no_caller_needs_the_certificate(self, monkeypatch, fixtures_dir):
        # Only smith_normal_form builds U and V; every divisor-only path must
        # get its chain without it.
        def refuse(m):
            raise AssertionError("smith_normal_form called on a divisors-only path")

        monkeypatch.setattr(exactla, "smith_normal_form", refuse)
        monkeypatch.setattr(cli, "smith_normal_form", refuse)
        m = parse_matrix((fixtures_dir / "worked_example.mat").read_text())
        assert elementary_divisors(m) == [1, 2, 4]
        assert rank(m) == 3
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


class TestMinorGcdProfile:
    def test_worked_example(self, worked_matrix):
        # divisor chain 1 | 2 | 4 gives prefix products 1, 2, 8
        assert minor_gcd_profile(worked_matrix) == [1, 2, 8]

    def test_identity(self):
        assert minor_gcd_profile(IntMatrix.identity(3)) == [1, 1, 1]

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
        assert random_unimodular(4, 123, 0) == IntMatrix.identity(4)

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
        m = IntMatrix.identity(2)
        with pytest.raises(ValueError):
            apply_slide(m, "diag", 0, 1, 1)
        with pytest.raises(ValueError):
            apply_slide(m, "row", 0, 1, 2)
        with pytest.raises(ValueError):
            apply_slide(m, "row", 0, 0, 1)
        with pytest.raises(IndexError):
            apply_slide(m, "col", 0, 2, 1)


# --- matrix file format ----------------------------------------------------


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
        cases = [
            ("", None),
            ("# only a comment\n", None),
            ("mat 2 2\n1 2\n3 4\n", 1),
            ("matrix 2\n", 1),
            ("matrix a b\n", 1),
            ("matrix -1 2\n", 1),
            ("matrix 2 2\n1 2\n", 1),
            ("matrix 1 2\n1 2\n3 4\n", 3),
            ("matrix 1 3\n1 2\n", 2),
            ("matrix 1 2\n1 x\n", 2),
        ]
        for text, line in cases:
            with pytest.raises(MatrixParseError) as info:
                parse_matrix(text)
            assert info.value.line == line, text

    def test_only_ascii_integer_tokens(self):
        cases = [
            ("matrix 1 1\n\u0663\n", 2),  # Arabic-Indic three
            ("matrix 1 2\n1 \uff14\n", 2),  # full-width four
            ("matrix 1 2\n1_0 4\n", 2),
            ("matrix 2 1\n5\n+-1\n", 3),
            ("matrix \u0661 1\n3\n", 1),
            ("matrix 1 \uff11\n3\n", 1),
            ("# comment\nmatrix 1_0 2\n", 2),
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
