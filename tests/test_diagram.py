import time

import pytest

from hlk.diagram import (
    Crossing,
    Diagram,
    DiagramParseError,
    InvalidDiagramError,
    Loop,
    linking_matrix,
    linking_number,
    merge_loops,
    parse_diagram,
)
from hlk.exactla import IntMatrix, SplitMix64

MINIMAL = "component h1\nloop a\ncomponent h2\nloop b\ncrossing a b +\ncrossing b a +"


def two_loops(crossings: str) -> Diagram:
    return parse_diagram(f"component h1\nloop a\ncomponent h2\nloop b\n{crossings}")


def random_diagram(rng: SplitMix64) -> Diagram:
    """Up to 4 loops a side, declared interleaved, with crossing pairs in both
    over/under orders (self and same-component pairs included) and, now and
    then, a lone crossing that makes some pair's sum odd."""
    loops = [Loop(f"e{i}", 0) for i in range(1 + rng.below(4))]
    loops += [Loop(f"f{j}", 1) for j in range(1 + rng.below(4))]
    for k in range(len(loops) - 1, 0, -1):
        swap = rng.below(k + 1)
        loops[k], loops[swap] = loops[swap], loops[k]
    crossings = []

    def pick():
        return loops[rng.below(len(loops))].name

    for _ in range(rng.below(30)):
        a, b = pick(), pick()
        sign = 1 if rng.below(2) else -1
        crossings.append(Crossing(a, b, sign))
        crossings.append(Crossing(b, a, sign) if rng.below(2) else Crossing(a, b, -sign))
    for _ in range(rng.below(3)):
        crossings.append(Crossing(pick(), pick(), 1 if rng.below(2) else -1))
    for k in range(len(crossings) - 1, 0, -1):
        swap = rng.below(k + 1)
        crossings[k], crossings[swap] = crossings[swap], crossings[k]
    return Diagram(("h1", "h2"), tuple(loops), tuple(crossings))


# --- parsing ---------------------------------------------------------------


class TestParseDiagram:
    def test_minimal(self):
        d = parse_diagram(MINIMAL)
        assert d.component_names == ("h1", "h2")
        assert len(d.loops) == 2
        assert len(d.crossings) == 2
        assert d.crossings[0] == Crossing("a", "b", 1)

    def test_declaration_order_kept(self, fixtures_dir):
        d = parse_diagram((fixtures_dir / "worked_example.hlk").read_text())
        assert [l.name for l in d.component_loops(0)] == ["e1", "e2", "e3"]
        assert [l.name for l in d.component_loops(1)] == ["f1", "f2", "f3", "f4"]

    def test_comments_blanks_and_spacing(self):
        text = "# c\n\ncomponent   h1\n  loop a\n\ncomponent h2\nloop b\ncrossing  a   b  -\n"
        d = parse_diagram(text)
        assert d.crossings == (Crossing("a", "b", -1),)

    def test_errors_carry_line_numbers(self):
        cases = [
            ("component\n", 1),
            ("component h1 extra\n", 1),
            ("component a\ncomponent b\ncomponent c\n", 3),
            ("loop a\n", 1),
            ("component h1\nloop a\nloop a\n", 3),
            ("component h1\nloop a\ncrossing a\n", 3),
            ("component h1\nloop a\ncrossing a a *\n", 3),
            ("component h1\nloop a\ncrossing a zz +\n", 3),
            ("component h1\nknot a\n", 2),
        ]
        for text, line in cases:
            with pytest.raises(DiagramParseError) as info:
                parse_diagram(text)
            assert info.value.line == line, text

    def test_structural_errors(self):
        with pytest.raises(DiagramParseError, match="two components"):
            parse_diagram("component h1\nloop a\n")
        with pytest.raises(DiagramParseError, match="no loops"):
            parse_diagram("component h1\nloop a\ncomponent h2\n")
        with pytest.raises(DiagramParseError, match="two components"):
            parse_diagram("")

    def test_end_of_input_rules_come_from_the_constructor(self):
        with pytest.raises(DiagramParseError) as info:
            parse_diagram("component h1\nloop a\n")
        assert str(info.value) == "expected exactly two components, found 1"
        assert info.value.line is None
        with pytest.raises(ValueError, match="expected exactly two components, found 1"):
            Diagram(("x",), (Loop("a", 0),), ())

    def test_crossing_must_follow_loops(self):
        with pytest.raises(DiagramParseError) as info:
            parse_diagram("component h1\nloop a\ncrossing a b +\ncomponent h2\nloop b\n")
        assert info.value.line == 3


class TestDiagramType:
    def test_validation(self):
        a, b = Loop("a", 0), Loop("b", 1)
        with pytest.raises(ValueError):
            Diagram(("x",), (a, b), ())
        with pytest.raises(ValueError):
            Diagram(("x", "y"), (a, Loop("a", 1)), ())
        with pytest.raises(ValueError):
            Diagram(("x", "y"), (a, Loop("b", 2)), ())
        with pytest.raises(ValueError):
            Diagram(("x", "y"), (a,), ())
        with pytest.raises(ValueError):
            Diagram(("x", "y"), (a, b), (Crossing("a", "b", 2),))
        with pytest.raises(ValueError):
            Diagram(("x", "y"), (a, b), (Crossing("a", "zz", 1),))

    def test_loop_lookup(self):
        d = parse_diagram(MINIMAL)
        assert d.loop("a") == Loop("a", 0)
        with pytest.raises(KeyError):
            d.loop("zz")


# --- linking numbers -------------------------------------------------------


class TestLinkingNumber:
    def test_hopf(self):
        d = parse_diagram(MINIMAL)
        assert linking_number(d, "a", "b") == 1

    def test_no_crossings(self):
        assert linking_number(two_loops(""), "a", "b") == 0

    def test_mixed_signs(self):
        d = two_loops("crossing a b +\ncrossing b a +\ncrossing a b -\ncrossing b a +\n")
        assert linking_number(d, "a", "b") == 1

    def test_symmetric_in_the_pair(self):
        d = two_loops("crossing a b -\ncrossing b a -\n")
        assert linking_number(d, "a", "b") == linking_number(d, "b", "a") == -1

    def test_odd_sum_rejected(self):
        with pytest.raises(InvalidDiagramError, match="odd"):
            linking_number(two_loops("crossing a b +\n"), "a", "b")

    def test_same_component_rejected(self):
        d = parse_diagram("component h1\nloop a\nloop c\ncomponent h2\nloop b\n")
        with pytest.raises(InvalidDiagramError, match="same component"):
            linking_number(d, "a", "c")

    def test_unknown_loop(self):
        with pytest.raises(KeyError):
            linking_number(parse_diagram(MINIMAL), "a", "zz")

    def test_other_crossings_ignored(self):
        text = (
            "component h1\nloop a\nloop c\ncomponent h2\nloop b\n"
            "crossing a b +\ncrossing b a +\n"
            "crossing c b -\ncrossing b c -\n"
            "crossing a c +\n"  # intra-component, never counted
        )
        d = parse_diagram(text)
        assert linking_number(d, "a", "b") == 1
        assert linking_number(d, "c", "b") == -1


# --- linking matrix --------------------------------------------------------


class TestLinkingMatrix:
    def test_worked_example_fixture(self, fixtures_dir, worked_matrix):
        d = parse_diagram((fixtures_dir / "worked_example.hlk").read_text())
        assert linking_matrix(d) == worked_matrix

    def test_separated_fixture(self, fixtures_dir):
        d = parse_diagram((fixtures_dir / "separated.hlk").read_text())
        assert linking_matrix(d) == IntMatrix.zeros(2, 3)

    def test_hopf_fixture(self, fixtures_dir):
        d = parse_diagram((fixtures_dir / "hopf.hlk").read_text())
        assert linking_matrix(d) == IntMatrix.from_rows([[1]])

    def test_error_names_the_entry(self):
        text = "component h1\nloop a\nloop c\ncomponent h2\nloop b\ncrossing c b +\n"
        with pytest.raises(InvalidDiagramError, match=r"entry \(1, 0\)"):
            linking_matrix(parse_diagram(text))

    def test_agrees_with_pairwise_linking_numbers(self):
        odd_seen = 0
        for seed in range(300):
            d = random_diagram(SplitMix64(seed))
            table, first_odd = [], None
            for i, e in enumerate(d.component_loops(0)):
                row = []
                for j, f in enumerate(d.component_loops(1)):
                    try:
                        row.append(linking_number(d, e.name, f.name))
                        assert linking_number(d, f.name, e.name) == row[-1]
                    except InvalidDiagramError as exc:
                        if first_odd is None:
                            first_odd = f"entry ({i}, {j}): {exc}"
                        row.append(None)
                table.append(row)
            if first_odd is None:
                assert linking_matrix(d).to_rows() == table, seed
            else:
                odd_seen += 1
                with pytest.raises(InvalidDiagramError) as info:
                    linking_matrix(d)
                assert str(info.value) == first_odd, seed
        assert 50 < odd_seen < 250

    def test_genus_fifty_with_many_crossings_is_fast(self):
        rng = SplitMix64(50)
        first = [f"e{i}" for i in range(50)]
        second = [f"f{j}" for j in range(50)]
        expected = [[0] * 50 for _ in range(50)]
        crossings = []
        for _ in range(10_000):
            i, j = rng.below(50), rng.below(50)
            sign = 1 if rng.below(2) else -1
            expected[i][j] += sign
            crossings += [Crossing(first[i], second[j], sign), Crossing(second[j], first[i], sign)]
        loops = tuple(Loop(n, 0) for n in first) + tuple(Loop(n, 1) for n in second)
        d = Diagram(("h1", "h2"), loops, tuple(crossings))
        start = time.perf_counter()
        m = linking_matrix(d)
        assert time.perf_counter() - start < 2.0
        assert m.to_rows() == expected


# --- loop merging ----------------------------------------------------------


class TestMergeLoops:
    def test_linking_numbers_add(self, fixtures_dir):
        d = parse_diagram((fixtures_dir / "worked_example.hlk").read_text())
        before = linking_matrix(d).to_rows()
        merged = merge_loops(d, "e1", "e2", "e12")
        after = linking_matrix(merged).to_rows()
        assert after[0] == [x + y for x, y in zip(before[0], before[1])]
        assert after[1] == before[2]

    def test_second_component_too(self, fixtures_dir):
        d = parse_diagram((fixtures_dir / "worked_example.hlk").read_text())
        before = linking_matrix(d)
        merged = merge_loops(d, "f2", "f3", "f23")
        after = linking_matrix(merged)
        assert after.shape == (3, 3)
        for i in range(3):
            assert after.entry(i, 1) == before.entry(i, 1) + before.entry(i, 2)

    def test_pair_crossings_become_self_crossings(self):
        text = (
            "component h1\nloop a\nloop c\ncomponent h2\nloop b\n"
            "crossing a b +\ncrossing b a +\ncrossing a c +\n"
        )
        merged = merge_loops(parse_diagram(text), "a", "c", "ac")
        # the a-c crossing now pairs 'ac' with itself and stops counting
        assert linking_number(merged, "ac", "b") == 1

    def test_errors(self):
        d = parse_diagram(MINIMAL)
        with pytest.raises(ValueError, match="different components"):
            merge_loops(d, "a", "b", "ab")
        with pytest.raises(ValueError, match="itself"):
            merge_loops(d, "a", "a", "aa")
        with pytest.raises(KeyError):
            merge_loops(d, "a", "zz", "x")
        d2 = parse_diagram("component h1\nloop a\nloop c\nloop e\ncomponent h2\nloop b\n")
        with pytest.raises(ValueError, match="already in use"):
            merge_loops(d2, "a", "c", "e")
