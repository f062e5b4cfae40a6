import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hlk.exactla as exactla
from hlk import SplitMix64, selftest
from hlk.cli import EXIT_SELFTEST, main
from hlk.exactla import IntMatrix, SNFResult, elementary_divisors, smith_normal_form
from hlk.invariant import AbelianGroup, quotient_groups
from hlk.selftest import random_matrix, random_slide, run_selftest, snf_defects, trial_defects

ROOT = Path(__file__).resolve().parents[1]


def signs_only_chain(d, u, w):
    """``exactla._chain`` without its repair: it makes the diagonal positive and nothing more."""
    for i, x in enumerate(d):
        if x < 0:
            d[i], u[i] = -x, [-e for e in u[i]]
    return d


class TestRandomMatrix:
    def test_respects_bounds(self):
        rng = SplitMix64(0)
        for _ in range(300):
            m = random_matrix(rng, 5, 4, 9)
            assert 1 <= m.rows <= 5
            assert 1 <= m.cols <= 4
            assert all(-9 <= x <= 9 for x in m.entries)

    def test_deterministic(self):
        a = [random_matrix(SplitMix64(3), 5, 5, 9) for _ in range(10)]
        b = [random_matrix(SplitMix64(3), 5, 5, 9) for _ in range(10)]
        assert a == b


class TestRandomSlide:
    def test_preserves_divisors(self):
        rng = SplitMix64(11)
        for _ in range(100):
            m = random_matrix(rng, 4, 4, 6)
            slid = random_slide(m, rng)
            if slid is not None:
                assert elementary_divisors(slid) == elementary_divisors(m)

    def test_one_by_one_has_no_move(self):
        assert random_slide(IntMatrix.from_rows([[5]]), SplitMix64(0)) is None


class TestSnfDefects:
    def test_clean_result(self, worked_matrix):
        assert snf_defects(worked_matrix, smith_normal_form(worked_matrix)) == []

    def test_detects_tampering(self, worked_matrix):
        r = smith_normal_form(worked_matrix)

        wrong_d = IntMatrix.from_rows([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 5, 0]])
        assert snf_defects(worked_matrix, SNFResult(wrong_d, r.u, r.v, (1, 2, 5)))

        off_diag = IntMatrix.from_rows([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 4, 0]])
        defects = snf_defects(worked_matrix, SNFResult(off_diag, r.u, r.v, (1, 2, 4)))
        assert any("off-diagonal" in d for d in defects)

        singular_u = IntMatrix.zeros(3, 3)
        defects = snf_defects(worked_matrix, SNFResult(r.d, singular_u, r.v, r.divisors))
        assert any("det u" in d for d in defects)

        negative = SNFResult(r.d, r.u, r.v, (-1, 2, 4))
        assert any("non-positive" in d for d in snf_defects(worked_matrix, negative))

        broken_chain = SNFResult(r.d, r.u, r.v, (1, 2, 3))
        assert any("chain" in d for d in snf_defects(worked_matrix, broken_chain))

        m, one = IntMatrix.from_rows([[0, 0], [0, 5]]), IntMatrix.from_rows([[1, 0], [0, 1]])
        assert snf_defects(m, SNFResult(m, one, one, (5,))) == ["zero diagonal entry ahead of a nonzero one"]


class TestTrialDefects:
    def test_many_random_trials_clean(self):
        rng = SplitMix64(2024)
        for _ in range(150):
            m = random_matrix(rng, 5, 5, 9)
            assert trial_defects(m, rng) == []

    def test_detects_wrong_quotient_groups(self, worked_matrix, monkeypatch):
        a1, a2 = quotient_groups(worked_matrix)
        monkeypatch.setattr(selftest, "quotient_groups", lambda m: (a1, AbelianGroup(0, (2, 4))))
        assert trial_defects(worked_matrix, SplitMix64(1)) == [
            "second quotient group differs from the one the transpose presents"
        ]
        monkeypatch.setattr(selftest, "quotient_groups", lambda m: (AbelianGroup(0, (4,)), a2))
        assert trial_defects(worked_matrix, SplitMix64(1)) == [
            "invariant not recovered from the quotient group"
        ]


class TestRunSelftest:
    def test_all_pass(self):
        out, err = io.StringIO(), io.StringIO()
        assert run_selftest(60, 0, out=out, err=err) == 0
        assert out.getvalue() == "60/60 passed\n"
        assert err.getvalue() == ""

    def test_verbose_reports_each_trial(self):
        out, err = io.StringIO(), io.StringIO()
        assert run_selftest(5, 1, verbose=True, out=out, err=err) == 0
        assert out.getvalue() == "5/5 passed\n"
        assert len(err.getvalue().splitlines()) == 5

    def test_deterministic_output(self):
        def capture(seed):
            out, err = io.StringIO(), io.StringIO()
            run_selftest(30, seed, verbose=True, out=out, err=err)
            return out.getvalue(), err.getvalue()

        assert capture(9) == capture(9)
        assert capture(9) != capture(10)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            run_selftest(0, 0)

    @pytest.mark.parametrize("args, name", [
        ((True, 0), "trials"), ((1.0, 0), "trials"), ((1, True), "seed"), ((1, 1.5), "seed"),
    ])
    def test_trials_and_seed_must_be_ints(self, args, name):
        # Refused before any trial runs or any line is written.
        out, err = io.StringIO(), io.StringIO()
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            run_selftest(*args, out=out, err=err)
        assert (out.getvalue(), err.getvalue()) == ("", "")

    @pytest.mark.parametrize("failing", [False, True], ids=["passing", "failing"])
    def test_unwritable_trial_lines_change_no_result(self, monkeypatch, failing):
        def refuse(*args):
            raise OSError(28, "No space left on device")

        if failing:
            monkeypatch.setattr(selftest, "trial_defects", lambda m, rng: ["a defect"])
        out, err = io.StringIO(), io.StringIO()
        err.write = refuse
        assert run_selftest(3, 0, verbose=True, out=out, err=err) == 3 * failing
        assert out.getvalue() == f"{3 - 3 * failing}/3 passed\n"

    @pytest.mark.parametrize("name, broken, kinds", [
        ("elementary_divisors", lambda real: lambda m: real(m)[:-1], {
            "divisors changed under unimodular multiplication", "divisors changed under transposition",
            "divisors changed under a slide move",
            "second quotient group differs from the one the transpose presents",
        }),
        ("minor_gcd_profile", lambda real: lambda m: [2 * x for x in real(m)] + [1], {
            "minor-gcd oracle disagrees at k=#", "minor-gcd oracle nonzero beyond rank at k=#",
        }),
    ], ids=["elementary_divisors", "minor_gcd_profile"])
    def test_failing_trials_are_reported(self, monkeypatch, capsys, name, broken, kinds):
        monkeypatch.setattr(selftest, name, broken(getattr(selftest, name)))
        rng, expected, failing = SplitMix64(3), [], 0
        for trial in range(12):
            m = random_matrix(rng, 5, 5, 9)
            defects = trial_defects(m, rng)
            failing += bool(defects)
            expected += [f"trial {trial}: {defect} on {m!r}" for defect in defects]
        assert 0 < failing
        assert {re.sub(r"[0-9]+", "#", line.split(": ", 1)[1].split(" on ")[0]) for line in expected} == kinds

        out, err = io.StringIO(), io.StringIO()
        assert run_selftest(12, 3, out=out, err=err) == failing
        assert out.getvalue() == f"{12 - failing}/12 passed\n"
        assert err.getvalue().splitlines() == expected
        assert main(["selftest", "--trials", "12", "--seed", "3"]) == EXIT_SELFTEST
        assert capsys.readouterr() == (out.getvalue(), err.getvalue())

    def test_oracle_runs_on_every_trial(self, monkeypatch):
        calls = []
        real = selftest.minor_gcd_profile
        monkeypatch.setattr(selftest, "minor_gcd_profile", lambda m: calls.append(m) or real(m))
        out, err = io.StringIO(), io.StringIO()
        assert run_selftest(200, 0, out=out, err=err) == 0
        assert len(calls) == 200
        assert max(min(m.rows, m.cols) for m in calls) == 5

    def test_a_raising_check_fails_its_trial(self, monkeypatch, capsys):
        # Without the chain repair, AbelianGroup refuses the unrepaired divisors.
        monkeypatch.setattr(exactla, "_chain", signs_only_chain)
        out, err = io.StringIO(), io.StringIO()
        failing = run_selftest(50, 0, out=out, err=err)
        assert 0 < failing < 50
        assert out.getvalue() == f"{50 - failing}/50 passed\n"
        lines = err.getvalue().splitlines()
        assert "trial 13: raised ValueError: broken torsion chain: 2 does not divide 159 on " \
               "IntMatrix(3x3 [-9 7 0; 6 -1 -2; 0 3 8])" in lines
        assert len({line.split(":", 1)[0] for line in lines}) == failing

        assert main(["selftest", "--trials", "50", "--seed", "0"]) == EXIT_SELFTEST
        assert capsys.readouterr() == (out.getvalue(), err.getvalue())

    def test_too_many_divisors_fail_their_trial(self, monkeypatch):
        # More divisors than min(m, n) run past the end of the minor-gcd profile.
        real = selftest.smith_normal_form

        def one_divisor_too_many(m):
            r = real(m)
            return SNFResult(r.d, r.u, r.v, (*r.divisors, 1))

        monkeypatch.setattr(selftest, "smith_normal_form", one_divisor_too_many)
        out, err = io.StringIO(), io.StringIO()
        assert run_selftest(10, 0, out=out, err=err) == 10
        assert "raised IndexError: list index out of range" in err.getvalue()


@pytest.mark.parametrize("seed", [0, 7])
def test_full_selftest_run_passes(seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "hlk.cli", "selftest", "--trials", "1000", "--seed", str(seed)],
                          env=env, capture_output=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"1000/1000 passed\n", b"")
