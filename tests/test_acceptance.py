"""Acceptance criteria, one test per criterion.

``pytest tests/test_acceptance.py -v`` gives one pass/fail line per
criterion.  The module is self-contained: it builds its own inputs and
only reads the shipped fixture files.
"""

import time

from hlk import (
    IntMatrix,
    LkInvariant,
    SplitMix64,
    determinant,
    elementary_divisors,
    handlebody_linking,
    linking_matrix,
    minor_gcd_profile,
    parse_diagram,
    quotient_groups,
    random_unimodular,
    smith_normal_form,
)
from hlk.selftest import random_slide

WORKED_ROWS = [
    [-1, -1, 0, 2],
    [1, -3, -2, 0],
    [0, 0, 2, -2],
]

# (matrix, SNFResult) pairs accumulated by criteria 3-5 and re-verified
# wholesale by criterion 6.
_COLLECTED = []


def _random_matrix(rng, max_dim, max_entry):
    m = 1 + rng.below(max_dim)
    n = 1 + rng.below(max_dim)
    entries = tuple(rng.below(2 * max_entry + 1) - max_entry for _ in range(m * n))
    return IntMatrix(m, n, entries)


def _assert_exact(m, r):
    assert r.u @ m @ r.v == r.d
    assert abs(determinant(r.u)) == 1
    assert abs(determinant(r.v)) == 1
    assert all(d >= 1 for d in r.divisors)
    for a, b in zip(r.divisors, r.divisors[1:]):
        assert b % a == 0


def test_criterion_1_worked_example_divisors():
    start = time.perf_counter()
    m = IntMatrix.from_rows(WORKED_ROWS)
    assert elementary_divisors(m) == [1, 2, 4]
    assert f"Lk = {handlebody_linking(m)}" == "Lk = {1, 2, 4}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS — divisors [1, 2, 4] in {elapsed:.3f} s")


def test_criterion_2_quotient_groups():
    m = IntMatrix.from_rows(WORKED_ROWS)
    a1, a2 = quotient_groups(m)
    assert (a1.free_rank, list(a1.torsion)) == (0, [2, 4])
    assert (a2.free_rank, list(a2.torsion)) == (1, [2, 4])
    assert a1.torsion == a2.torsion
    assert a1.free_rank - a2.free_rank == m.rows - m.cols == -1
    print("criterion 2: PASS — A1 rank 0, A2 rank 1, shared torsion [2, 4]")


def test_criterion_3_unimodular_invariance():
    start = time.perf_counter()
    rng = SplitMix64(301)
    for _ in range(1000):
        m = _random_matrix(rng, 6, 9)
        u = random_unimodular(m.rows, rng.next_u64(), rng.below(21))
        v = random_unimodular(m.cols, rng.next_u64(), rng.below(21))
        product = u @ m @ v
        rm = smith_normal_form(m)
        rp = smith_normal_form(product)
        assert rp.divisors == rm.divisors
        _COLLECTED.append((m, rm))
        _COLLECTED.append((product, rp))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 3: PASS — 1000 unimodular-invariance trials in {elapsed:.2f} s")


def test_criterion_4_minor_gcd_oracle():
    start = time.perf_counter()
    rng = SplitMix64(401)
    for _ in range(10000):
        m = _random_matrix(rng, 5, 9)
        r = smith_normal_form(m)
        profile = minor_gcd_profile(m)
        prod = 1
        for k, d in enumerate(r.divisors):
            prod *= d
            assert profile[k] == prod
        _COLLECTED.append((m, r))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 4: PASS — 10000 matrices agree with the minor-gcd oracle in {elapsed:.2f} s")


def test_criterion_5_transpose_and_slide_invariance():
    rng = SplitMix64(501)
    for _ in range(1000):
        m = _random_matrix(rng, 5, 9)
        rm = smith_normal_form(m)
        rt = smith_normal_form(m.transpose())
        assert rt.divisors == rm.divisors
        slid = m
        for _ in range(10):
            moved = random_slide(slid, rng)
            if moved is None:
                break
            slid = moved
        rs = smith_normal_form(slid)
        assert rs.divisors == rm.divisors
        _COLLECTED.extend([(m, rm), (m.transpose(), rt), (slid, rs)])
    print("criterion 5: PASS — transpose and 10-slide invariance over 1000 matrices")


def test_criterion_6_snf_exactness():
    pairs = list(_COLLECTED)
    # fresh sample so the check still bites when this test runs alone
    rng = SplitMix64(601)
    for _ in range(200):
        m = _random_matrix(rng, 6, 9)
        pairs.append((m, smith_normal_form(m)))
    for m, r in pairs:
        _assert_exact(m, r)
    print(f"criterion 6: PASS — {len(pairs)} SNF results exact with unimodular transforms")


def test_criterion_7_diagram_pipeline(fixtures_dir):
    hopf = parse_diagram((fixtures_dir / "hopf.hlk").read_text())
    assert f"Lk = {handlebody_linking(linking_matrix(hopf))}" == "Lk = {1}"

    separated = parse_diagram((fixtures_dir / "separated.hlk").read_text())
    assert f"Lk = {handlebody_linking(linking_matrix(separated))}" == "Lk = {0}"

    worked = parse_diagram((fixtures_dir / "worked_example.hlk").read_text())
    assert linking_matrix(worked) == IntMatrix.from_rows(WORKED_ROWS)
    print("criterion 7: PASS — Hopf {1}, separated {0}, fixture matrix matches")


def test_criterion_8_genus_one_coincidence():
    rng = SplitMix64(801)
    for _ in range(100):
        c = rng.below(41) - 20
        expected = LkInvariant((abs(c),)) if c else LkInvariant()
        assert handlebody_linking(IntMatrix.from_rows([[c]])) == expected
    print("criterion 8: PASS — 100 1x1 matrices give {|c|} (or {0})")


def test_criterion_9_coefficient_growth_stress():
    rng = SplitMix64(901)
    m = IntMatrix(20, 20, tuple(rng.below(201) - 100 for _ in range(400)))
    start = time.perf_counter()
    r = smith_normal_form(m)
    elapsed = time.perf_counter() - start
    _assert_exact(m, r)
    assert elapsed < 5.0
    digits = len(str(max(r.divisors)))
    print(f"criterion 9: PASS — 20x20 SNF in {elapsed:.3f} s, largest divisor has {digits} digits")
