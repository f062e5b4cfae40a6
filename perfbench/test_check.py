"""Tests of the benchmark's own checks, generator and metric list.

    python3 -m unittest discover -s perfbench -t perfbench

The checks must accept right outputs and reject corrupted ones.  Outputs to
corrupt come from the program itself, imported from ``src/``.
"""

import io
import json
import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

import check
import gen
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hlk import cli  # noqa: E402

WORKED = check.parse_matrix_text((ROOT / "fixtures" / "worked_example.mat").read_text())


def hlk_output(command, text):
    out = io.StringIO()
    code = cli.run(cli.CliConfig(subcommand=command, input_path="-"),
                   stdin=io.StringIO(text), out=out, err=io.StringIO())
    assert code == 0
    return out.getvalue()


def fraction_rank_det(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    m, n = len(a), len(a[0])
    rank, det = 0, Fraction(1)
    for c in range(n):
        p = next((i for i in range(rank, m) if a[i][c]), None)
        if p is None:
            det = Fraction(0)
            continue
        if p != rank:
            a[p], a[rank] = a[rank], a[p]
            det = -det
        det *= a[rank][c]
        for i in range(rank + 1, m):
            q = a[i][c] / a[rank][c]
            a[i] = [x - q * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank, det if m == n == rank else 0


class ChainCheckTest(unittest.TestCase):
    def test_worked_example_checks_as_1_2_4(self):
        self.assertEqual(check.check_chain(WORKED, [1, 2, 4]), [])

    def test_one_changed_entry_is_rejected(self):
        chain = [3, 12, 60, 120]
        d = [[chain[i] if i == j else 0 for j in range(4)] for i in range(4)]
        planted = gen.matmul(gen.matmul(gen.unimodular(gen.Rng(5), 4, 8), d),
                             gen.unimodular(gen.Rng(6), 4, 8))
        for rows, chain in ((WORKED, [1, 2, 4]), (planted, chain)):
            self.assertEqual(check.check_chain(rows, chain), [])
            for i in range(len(chain)):
                for wrong in (chain[i] * 2, chain[i] * 3, chain[i] * 7, chain[i] + 1):
                    bad = chain[:i] + [wrong] + chain[i + 1:]
                    self.assertNotEqual(check.check_chain(rows, bad), [], bad)
            self.assertNotEqual(check.check_chain(rows, chain[:-1]), [])
            self.assertNotEqual(check.check_chain(rows, chain + [chain[-1]]), [])

    def test_rank_and_determinant_match_exact_fractions(self):
        rng = random.Random(3)
        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.choice([0, 0, 1, -1, 2, 5]) for _ in range(n)] for _ in range(m)]
            rank, det = fraction_rank_det(rows)
            self.assertEqual(check.echelon(rows)[0], rank)
            if m == n:
                self.assertEqual(check.determinant(rows), det)

    def test_local_valuations_of_a_diagonal(self):
        rows = [[4, 0, 0], [0, 12, 0], [0, 0, 0]]
        self.assertEqual(check.local_valuations(rows, 2, 3), [2, 2, 3])
        self.assertEqual(check.local_valuations(rows, 3, 2), [0, 1, 2])


class CertificateCheckTest(unittest.TestCase):
    def certificate(self, text):
        with check.unlimited_int_digits():
            return [list(map(list, block)) for block in check.parse_snf(hlk_output("snf", text))]

    def test_program_certificates_pass(self):
        for rows in (WORKED, gen.uniform(gen.Rng(1), 6, 6, 9), gen.rank_deficient(gen.Rng(2), 6, 2, 4)):
            d, u, v = self.certificate(gen.matrix_text(rows))
            self.assertEqual(check.check_certificate(rows, d, u, v), [])

    def test_corrupted_d_u_or_v_is_rejected(self):
        for rows in (WORKED, gen.uniform(gen.Rng(1), 5, 5, 9)):
            d, u, v = self.certificate(gen.matrix_text(rows))
            for which in range(3):
                for i, j, delta in ((0, 0, 1), (1, 0, 1), (0, 1, -2), (2, 2, 3)):
                    parts = [[list(r) for r in p] for p in (d, u, v)]
                    parts[which][i][j] += delta
                    self.assertNotEqual(check.check_certificate(rows, *parts), [], (which, i, j))

    def test_scaled_transform_is_not_unimodular(self):
        for rows in (WORKED, gen.uniform(gen.Rng(1), 5, 5, 9)):
            d, u, v = self.certificate(gen.matrix_text(rows))
            d2 = [[2 * x for x in r] for r in d]
            u2 = [[2 * x for x in r] for r in u]
            self.assertNotEqual(check.check_certificate(rows, d2, u2, v), [])


class OutputParsingTest(unittest.TestCase):
    def test_groups_of_worked_example(self):
        problems, chain = check.check_groups(WORKED, hlk_output("groups", gen.matrix_text(WORKED)))
        self.assertEqual((problems, chain), ([], [1, 2, 4]))

    def test_corrupted_groups_are_rejected(self):
        good = hlk_output("groups", gen.matrix_text(WORKED))
        for bad in (good.replace("Z/4", "Z/8"), good.replace("A2 = Z^1", "A2 = Z^2"),
                    good.replace("l = 3", "l = 2")):
            self.assertNotEqual(check.check_groups(WORKED, bad)[0], [], bad)

    def test_invariant_line(self):
        self.assertEqual(check.parse_invariant("Lk = {1, 2, 4}\n"), [1, 2, 4])
        self.assertEqual(check.parse_invariant("Lk = {0}\n"), [])


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in workloads.WORKLOADS.values():
            a, b = make(7), make(7)
            self.assertEqual([i.text for i in a.inputs], [i.text for i in b.inputs])

    def test_planted_chain_and_linking_matrix(self):
        rows, chain = gen.planted(gen.Rng(9), 8, 8, 6)
        self.assertEqual(check.check_chain(rows, chain), [])
        text, lk = gen.diagram(gen.Rng(4), 3, 4, 400, 3)
        loops = {f"e{i + 1}": i for i in range(3)} | {f"f{j + 1}": j for j in range(4)}
        total = [[0] * 4 for _ in range(3)]
        for line in text.splitlines():
            if line.startswith("crossing"):
                _, a, b, s = line.split()
                if a[0] != b[0]:
                    e, f = (a, b) if a[0] == "e" else (b, a)
                    total[loops[e]][loops[f]] += 1 if s == "+" else -1
        self.assertEqual([[x // 2 for x in r] for r in total], lk)
        self.assertEqual(check.parse_matrix_text(hlk_output("matrix", text)), lk)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
