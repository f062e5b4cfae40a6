import pytest

from hlk import SplitMix64, invariant
from hlk.exactla import IntMatrix, elementary_divisors
from hlk.invariant import (
    AbelianGroup,
    LkInvariant,
    handlebody_linking,
    quotient_groups,
    reconstruct_lk,
)


class TestLkInvariant:
    def test_rendering(self):
        assert str(LkInvariant((1, 2, 4))) == "{1, 2, 4}"
        assert str(LkInvariant((3,))) == "{3}"
        assert str(LkInvariant()) == "{0}"

    def test_zero_marker(self):
        assert LkInvariant().divisors == ()
        assert LkInvariant((1,)).divisors != ()

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            LkInvariant((0, 2))
        with pytest.raises(ValueError, match="chain"):
            LkInvariant((2, 3))
        LkInvariant((2, 2, 6))  # fine: 2 | 2 | 6
        for divisors in ((1.5,), (2.0,), (True,), (1, "2")):
            with pytest.raises(TypeError, match="ints"):
                LkInvariant(divisors)


class TestAbelianGroup:
    def test_rendering(self):
        assert str(AbelianGroup(0)) == "0"
        assert str(AbelianGroup(2)) == "Z^2"
        assert str(AbelianGroup(1)) == "Z^1"
        assert str(AbelianGroup(1, (2, 4))) == "Z^1 (+) Z/2 (+) Z/4"
        assert str(AbelianGroup(0, (2, 4))) == "Z^0 (+) Z/2 (+) Z/4"
        assert str(AbelianGroup(0, (3,))) == "Z^0 (+) Z/3"

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            AbelianGroup(-1)
        with pytest.raises(ValueError, match=">= 2"):
            AbelianGroup(0, (1, 2))
        with pytest.raises(ValueError, match="chain"):
            AbelianGroup(0, (4, 2))
        AbelianGroup(0, (3,))  # a lone odd torsion coefficient is fine
        for free_rank, torsion in ((0, (2.0,)), (1.0, ()), (True, ()), (0, (2, True))):
            with pytest.raises(TypeError, match="ints"):
                AbelianGroup(free_rank, torsion)


class TestHandlebodyLinking:
    def test_worked_example(self, worked_matrix):
        assert handlebody_linking(worked_matrix) == LkInvariant((1, 2, 4))
        assert str(handlebody_linking(worked_matrix)) == "{1, 2, 4}"

    def test_zero_matrix(self):
        assert handlebody_linking(IntMatrix.zeros(2, 3)) == LkInvariant()
        assert str(handlebody_linking(IntMatrix.zeros(2, 3))) == "{0}"

    def test_genus_one(self):
        assert handlebody_linking(IntMatrix.from_rows([[-3]])) == LkInvariant((3,))
        assert handlebody_linking(IntMatrix.from_rows([[0]])) == LkInvariant()

    def test_zero_marker_iff_rank_zero(self):
        rng = SplitMix64(5)
        for _ in range(100):
            m = 1 + rng.below(4)
            n = 1 + rng.below(4)
            mat = IntMatrix(m, n, tuple(rng.below(5) - 2 for _ in range(m * n)))
            # Rank zero means every entry is zero.
            assert (handlebody_linking(mat).divisors == ()) == (not any(mat.entries))


class TestQuotientGroup:
    def test_worked_example(self, worked_matrix):
        a1, a2 = quotient_groups(worked_matrix)
        assert (a1.free_rank, a1.torsion) == (0, (2, 4))
        assert (a2.free_rank, a2.torsion) == (1, (2, 4))

    def test_zero_matrix_first_side_is_free(self):
        a1, a2 = quotient_groups(IntMatrix.zeros(2, 3))
        assert (a1.free_rank, a1.torsion) == (2, ())
        assert (a2.free_rank, a2.torsion) == (3, ())

    def test_second_side_matches_transpose_presentation(self):
        rng = SplitMix64(17)
        for _ in range(200):
            m = 1 + rng.below(5)
            n = 1 + rng.below(5)
            mat = IntMatrix(m, n, tuple(rng.below(11) - 5 for _ in range(m * n)))
            chain = elementary_divisors(mat.transpose())
            torsion = tuple(d for d in chain if d > 1)
            l = len(chain)
            assert quotient_groups(mat) == (AbelianGroup(m - l, torsion), AbelianGroup(n - l, torsion))

    def test_both_groups_from_one_reduction(self, worked_matrix, monkeypatch):
        calls = []

        def counting(m):
            calls.append(m)
            return elementary_divisors(m)

        monkeypatch.setattr(invariant, "elementary_divisors", counting)
        a1, a2 = quotient_groups(worked_matrix)
        assert calls == [worked_matrix]
        assert (str(a1), str(a2)) == ("Z^0 (+) Z/2 (+) Z/4", "Z^1 (+) Z/2 (+) Z/4")


class TestReconstructLk:
    def test_pads_with_units(self):
        g = AbelianGroup(0, (2, 4))
        assert reconstruct_lk(g, 3) == LkInvariant((1, 2, 4))

    def test_no_padding_needed(self):
        assert reconstruct_lk(AbelianGroup(2, (5,)), 1) == LkInvariant((5,))

    def test_zero_marker(self):
        assert reconstruct_lk(AbelianGroup(4), 0) == LkInvariant()

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError, match="chain length"):
            reconstruct_lk(AbelianGroup(0, (2, 4)), 1)

    @pytest.mark.parametrize("l", [True, 2.5, 2.0])
    def test_chain_length_must_be_an_int(self, l):
        # True once read as 1 and gave {1}; 2.5 failed inside the padding.
        with pytest.raises(TypeError, match="^l must be an int"):
            reconstruct_lk(AbelianGroup(2), l)

    def test_rejects_negative_chain_length(self):
        with pytest.raises(ValueError, match="chain length -1"):
            reconstruct_lk(AbelianGroup(2), -1)

    def test_round_trip_with_quotient_group(self, worked_matrix):
        a1, _ = quotient_groups(worked_matrix)
        assert reconstruct_lk(a1, len(elementary_divisors(worked_matrix))) == handlebody_linking(worked_matrix)

    def test_round_trip_random(self):
        rng = SplitMix64(23)
        for _ in range(200):
            m = 1 + rng.below(4)
            n = 1 + rng.below(4)
            mat = IntMatrix(m, n, tuple(rng.below(9) - 4 for _ in range(m * n)))
            l = len(elementary_divisors(mat))
            for group in quotient_groups(mat):
                assert reconstruct_lk(group, l) == handlebody_linking(mat)
