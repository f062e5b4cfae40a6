import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlk.diagram as diagram
import hlk.exactla as exactla
from hlk.diagram import (
    Diagram,
    DiagramParseError,
    InvalidDiagramError,
    linking_matrix,
    merge_loops,
    parse_diagram,
)
from hlk import SplitMix64
from hlk.exactla import IntMatrix, _significant_lines

MINIMAL = "component h1\nloop a\ncomponent h2\nloop b\ncrossing a b +\ncrossing b a +"


def two_loops(crossings: str) -> Diagram:
    return parse_diagram(f"component h1\nloop a\ncomponent h2\nloop b\n{crossings}")


def shuffle(rng: SplitMix64, items: list) -> None:
    for k in range(len(items) - 1, 0, -1):
        swap = rng.below(k + 1)
        items[k], items[swap] = items[swap], items[k]


def diagram_text(first: list[str], second: list[str], crossings: list[tuple[str, str, int]]) -> str:
    lines = ["component h1", *(f"loop {n}" for n in first), "component h2"]
    lines += [f"loop {n}" for n in second]
    lines += [f"crossing {o} {u} {'+' if s > 0 else '-'}" for o, u, s in crossings]
    return "\n".join(lines) + "\n"


def random_diagram(rng: SplitMix64) -> tuple[str, list[str], list[str], list[tuple[str, str, int]]]:
    """Diagram text with up to 4 loops a side in shuffled declaration order,
    crossing pairs in both over/under orders (self and same-component pairs
    included) and, now and then, a lone crossing that makes some pair's sum
    odd.  Returns the text, the loops of each side in declaration order and
    the ``(over, under, sign)`` list the text was written from."""
    loops = [f"e{i}" for i in range(1 + rng.below(4))]
    loops += [f"f{j}" for j in range(1 + rng.below(4))]
    shuffle(rng, loops)
    crossings = []

    def pick():
        return loops[rng.below(len(loops))]

    for _ in range(rng.below(30)):
        a, b = pick(), pick()
        sign = 1 if rng.below(2) else -1
        crossings.append((a, b, sign))
        crossings.append((b, a, sign) if rng.below(2) else (a, b, -sign))
    for _ in range(rng.below(3)):
        crossings.append((pick(), pick(), 1 if rng.below(2) else -1))
    shuffle(rng, crossings)
    first = [n for n in loops if n.startswith("e")]
    second = [n for n in loops if n.startswith("f")]
    return diagram_text(first, second, crossings), first, second, crossings


def sequential_parse(text: str) -> Diagram:
    """The line-by-line parser, kept as an oracle: the checks run on every
    significant line in file order."""
    component_names, loops, sums, declared = [], ([], []), {}, set()
    for lineno, tokens in _significant_lines(text):
        keyword = tokens[0]
        if keyword == "crossing":
            if len(tokens) != 4:
                raise DiagramParseError("expected 'crossing <over> <under> <sign>'", line=lineno)
            sign = {"+": 1, "-": -1}.get(tokens[3])
            if sign is None:
                raise DiagramParseError(f"sign must be '+' or '-', got {tokens[3]!r}", line=lineno)
            pair = (tokens[1], tokens[2])
            for name in pair:
                if name not in declared:
                    raise DiagramParseError(f"crossing references unknown loop {name!r}", line=lineno)
            sums[pair] = sums.get(pair, 0) + sign
        elif keyword == "component":
            if len(tokens) != 2:
                raise DiagramParseError("expected 'component <name>'", line=lineno)
            if len(component_names) == 2:
                raise DiagramParseError("more than two components", line=lineno)
            component_names.append(tokens[1])
        elif keyword == "loop":
            if len(tokens) != 2:
                raise DiagramParseError("expected 'loop <id>'", line=lineno)
            if not component_names:
                raise DiagramParseError("loop declared before any component", line=lineno)
            name = tokens[1]
            if name in declared:
                raise DiagramParseError(f"duplicate loop id {name!r}", line=lineno)
            declared.add(name)
            loops[len(component_names) - 1].append(name)
        else:
            raise DiagramParseError(f"unknown directive {keyword!r}", line=lineno)
    try:
        return Diagram(tuple(component_names), loops, sums)
    except ValueError as exc:
        raise DiagramParseError(str(exc)) from None


def outcome(parse, text: str) -> tuple:
    """The parsed diagram's names, loops and sums, or the error's message and line."""
    try:
        d = parse(text)
    except DiagramParseError as exc:
        return "error", str(exc), exc.line
    return "diagram", d.component_names, d.loops, dict(d.crossing_sums)


# Lines that repeat, clash or differ only in spacing, and every kind of line break.
LINES = [
    "component h1", "component h2", "component  h1", "component h1 x", "component",
    "loop a", "loop  a", "loop a ", "loop b", "loop c", "loop", "loop a b", "component h1\t",
    "\x1fcomponent h1", "\u3000loop a",
    "crossing a b +", "crossing  a b +", "crossing b a -", "crossing a c +",
    "crossing c c -", "crossing a b *", "crossing a", "crossing a zz +",
    "knot x", "# c", "#", "", "  ",
]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x85", "\u2028"]
# The parser's slice size, then two so small that line breaks of every kind fall on slice edges.
SLICES = [exactla._SLICE, 1, 7]
HEADS = [
    "",
    "component h1\nloop a\ncomponent h2\nloop b\n",
    "component h\nloop a\ncomponent h\nloop b\nloop c\n",
    "component h\nloop a\nloop c\ncrossing a c +\ncomponent h\nloop b\n",
]

ANY_LINES = st.lists(st.tuples(st.sampled_from(LINES), st.sampled_from(BREAKS)), max_size=30)


def repeating_text(rng: SplitMix64) -> str:
    """A mostly valid diagram whose crossing lines repeat, with a few lines
    moved or added so that some crossings precede their loops and some
    component, loop, junk or comment lines repeat."""
    names = ["a", "b", "c", "d"]
    split = 1 + rng.below(3)
    lines = ["component " + ["h1", "h"][rng.below(2)], *(f"loop {n}" for n in names[:split])]
    lines += ["component " + ["h2", "h", "h1", " h"][rng.below(4)], *(f"loop {n}" for n in names[split:])]
    for _ in range(rng.below(40)):
        lines.append(f"crossing {names[rng.below(4)]} {names[rng.below(3)]} {'+-'[rng.below(2)]}")
    for _ in range(rng.below(3)):
        lines.insert(rng.below(len(lines) + 1), LINES[rng.below(len(LINES))])
    for _ in range(rng.below(3)):
        i, j = rng.below(len(lines)), rng.below(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    return "".join(line + BREAKS[rng.below(len(BREAKS))] for line in lines)


# Heads and the line that follows them 100,000 times.
COPIED = [
    ("", "component h"),
    ("component h1\n", "loop a"),
    ("component h1\nloop a\n", "knot"),
    (MINIMAL + "\n", "# c"),
]


def many_crossings() -> str:
    """2 + 2 loops and 80,000 crossings over at most 32 distinct crossing lines."""
    rng = SplitMix64(80)
    names = ["e0", "e1", "f0", "f1"]
    crossings = [
        (names[rng.below(4)], names[rng.below(4)], 1 if rng.below(2) else -1)
        for _ in range(80_000)
    ]
    return diagram_text(names[:2], names[2:], crossings)


def count_tokenizer_calls(monkeypatch) -> list[int]:
    calls = [0]
    tokens = diagram._tokens

    def counting(line):
        calls[0] += 1
        return tokens(line)

    monkeypatch.setattr(diagram, "_tokens", counting)
    return calls


# --- parsing ---------------------------------------------------------------


class TestParseDiagram:
    def test_minimal(self):
        d = parse_diagram(MINIMAL)
        assert d.component_names == ("h1", "h2")
        assert d.loops == (("a",), ("b",))
        assert d.crossing_sums == {("a", "b"): 1, ("b", "a"): 1}

    def test_declaration_order_kept(self, fixtures_dir):
        d = parse_diagram((fixtures_dir / "worked_example.hlk").read_text())
        assert d.loops == (("e1", "e2", "e3"), ("f1", "f2", "f3", "f4"))

    def test_comments_blanks_and_spacing(self):
        text = "# c\n\ncomponent   h1\n  loop a\n\ncomponent h2\nloop b\ncrossing  a   b  -\n"
        d = parse_diagram(text)
        assert d.crossing_sums == {("a", "b"): -1}

    def test_state_is_per_loop_pair_not_per_crossing(self):
        rng = SplitMix64(5)
        names = ["e0", "e1", "e2", "f0", "f1"]
        for count in (0, 10, 1_000, 20_000):
            crossings = [
                (names[rng.below(5)], names[rng.below(5)], 1 if rng.below(2) else -1)
                for _ in range(count)
            ]
            d = parse_diagram(diagram_text(names[:3], names[3:], crossings))
            tally = {}
            for over, under, sign in crossings:
                tally[over, under] = tally.get((over, under), 0) + sign
            assert d.crossing_sums == tally

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
            # The third component line repeats the first; the second differs only in spacing.
            ("component h\nloop a\ncomponent h \nloop b\ncomponent h\n", 5),
            ("component h\ncomponent h\ncomponent h\n", 3),
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
            Diagram(("x",), (["a"], []), ())

    def test_crossing_must_follow_loops(self):
        with pytest.raises(DiagramParseError) as info:
            parse_diagram("component h1\nloop a\ncrossing a b +\ncomponent h2\nloop b\n")
        assert info.value.line == 3

    def test_matches_the_line_by_line_parser(self):
        parsed = 0
        for seed in range(3_000):
            text = repeating_text(SplitMix64(seed))
            expected = outcome(sequential_parse, text)
            assert outcome(parse_diagram, text) == expected, (seed, text)
            parsed += expected[0] == "diagram"
        assert 500 < parsed < 2_500

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(HEADS), ANY_LINES)
    def test_matches_the_line_by_line_parser_on_any_lines(self, head, lines):
        text = head + "".join(line + brk for line, brk in lines)
        assert outcome(parse_diagram, text) == outcome(sequential_parse, text)

    def test_state_machine_runs_once_per_distinct_line(self, monkeypatch):
        text = many_crossings()
        expected = outcome(sequential_parse, text)
        calls = count_tokenizer_calls(monkeypatch)
        assert outcome(parse_diagram, text) == expected
        # 2 component, 4 loop and at most 32 distinct crossing lines.
        assert calls[0] <= 38

    @pytest.mark.parametrize("head, line", COPIED)
    def test_copies_of_a_line_are_checked_once(self, monkeypatch, head, line):
        text = head + f"{line}\n" * 100_000
        expected = outcome(sequential_parse, text)
        calls = count_tokenizer_calls(monkeypatch)
        assert outcome(parse_diagram, text) == expected
        assert calls[0] <= 10
        assert expected[0] == ("diagram" if line == "# c" else "error")

    def test_same_named_components_are_split_once(self, monkeypatch):
        slices = [0]
        sliced_lines = diagram._sliced_lines

        def counting(text):
            for lines in sliced_lines(text):
                slices[0] += 1
                yield lines

        text = many_crossings()
        same_named = text.replace("component h2", "component h1")
        expected = outcome(sequential_parse, same_named)
        assert expected[1] == ("h1", "h1")
        monkeypatch.setattr(diagram, "_sliced_lines", counting)
        parse_diagram(text)
        distinct_named, slices[0] = slices[0], 0
        assert outcome(parse_diagram, same_named) == expected
        assert slices[0] == distinct_named

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"])
    def test_memory_is_bounded_by_a_slice(self, brk):
        text = many_crossings().replace("\n", brk)
        tracemalloc.start()
        try:
            parse_diagram(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A list of every line takes 4.35 times the text's length, and keeping
        # one slice's lines alive while the next is split 0.47 times; 0.26 here.
        assert peak < len(text) * 0.4

    def test_many_loops_declared_twice_fail_fast(self):
        loops = "".join(f"loop a{i}\n" for i in range(20_000))
        text = "component h1\n" + loops * 2 + "component h2\nloop b\n"
        expected = outcome(sequential_parse, text)
        start = time.perf_counter()
        assert outcome(parse_diagram, text) == expected
        # Finding each copy with its own scan of the lines took minutes here.
        assert time.perf_counter() - start < 1.0
        assert expected == ("error", "line 20002: duplicate loop id 'a0'", 20_002)

    def test_slices_concatenate_to_the_lines(self, monkeypatch):
        breaks = BREAKS + ["\x0c", "\x1c", "\x1d", "\x1e", "\u2029"]
        text = "".join(line + brk for line in LINES for brk in breaks) + "loop z"
        for slice_chars in [*range(1, 40), 100, exactla._SLICE]:
            monkeypatch.setattr(exactla, "_SLICE", slice_chars)
            slices = list(exactla._sliced_lines(text))
            assert [line for lines in slices for line in lines] == text.splitlines()


@pytest.mark.parametrize("slice_chars", SLICES[1:])
class TestParseDiagramOnSmallSlices:
    """The parse tests again, with slices so small that line breaks of every
    kind, CR LF included, fall on slice edges."""

    parse = TestParseDiagram()

    def test_errors_carry_line_numbers(self, monkeypatch, slice_chars):
        monkeypatch.setattr(exactla, "_SLICE", slice_chars)
        self.parse.test_errors_carry_line_numbers()

    def test_matches_the_line_by_line_parser(self, monkeypatch, slice_chars):
        monkeypatch.setattr(exactla, "_SLICE", slice_chars)
        self.parse.test_matches_the_line_by_line_parser()

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(HEADS), ANY_LINES)
    def test_matches_the_line_by_line_parser_on_any_lines(self, slice_chars, head, lines):
        text = head + "".join(line + brk for line, brk in lines)
        # Hypothesis refuses function-scoped fixtures such as monkeypatch.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exactla, "_SLICE", slice_chars)
            assert outcome(parse_diagram, text) == outcome(sequential_parse, text)

    def test_state_machine_runs_once_per_distinct_line(self, monkeypatch, slice_chars):
        monkeypatch.setattr(exactla, "_SLICE", slice_chars)
        self.parse.test_state_machine_runs_once_per_distinct_line(monkeypatch)

    @pytest.mark.parametrize("head, line", COPIED)
    def test_copies_of_a_line_are_checked_once(self, monkeypatch, slice_chars, head, line):
        monkeypatch.setattr(exactla, "_SLICE", slice_chars)
        self.parse.test_copies_of_a_line_are_checked_once(monkeypatch, head, line)


def reference_sliced_lines(text):
    """The scanner before it cut each slice in its own loop, with the windowed
    search below; ``exactla._sliced_lines`` must cut every slice where it did."""
    start, size = 0, min(64, exactla._SLICE)
    while start < len(text):
        end = reference_slice_end(text, start + size - 1)
        yield text[start:end].splitlines()
        start, size = end, min(16 * size, exactla._SLICE)


def reference_slice_end(text, pos):
    while pos < len(text):
        lf = text.find("\n", pos, pos + exactla._SLICE)
        cr = text.find("\r", pos, lf if lf >= 0 else pos + exactla._SLICE)
        if cr >= 0:
            return cr + 1 + text.startswith("\n", cr + 1)
        if lf >= 0:
            return lf + 1
        pos += exactla._SLICE
    return len(text)


class TestSlicedLines:
    def test_matches_the_reference(self, monkeypatch):
        breaks = BREAKS + ["\x0c", "\x1c", "\u2029"]
        rng = SplitMix64(23)
        texts = [
            "".join(LINES[rng.below(len(LINES))] + breaks[rng.below(len(breaks))] for _ in range(rng.below(40)))
            for _ in range(100)
        ]
        for slice_chars in [*range(1, 41), 64, exactla._SLICE]:
            monkeypatch.setattr(exactla, "_SLICE", slice_chars)
            for text in texts + [text + "loop z" for text in texts[:20]]:
                assert list(exactla._sliced_lines(text)) == list(reference_sliced_lines(text)), (slice_chars, text)

    @pytest.mark.parametrize("brk", ["\r", "\x0b"], ids=repr)
    def test_texts_without_line_feeds_are_cut_in_linear_time(self, monkeypatch, brk):
        # Each cut searches on from where the last search for "\n" stopped,
        # so a text with none is not searched to its end once per slice.
        text = "crossing a b +" + brk
        text *= 200_000
        monkeypatch.setattr(exactla, "_SLICE", 16)
        start = time.perf_counter()
        slices = list(exactla._sliced_lines(text))
        assert time.perf_counter() - start < 2.0
        assert slices == list(reference_sliced_lines(text))


class TestDiagramType:
    def test_validation(self):
        a, b = ("a",), ("b",)
        with pytest.raises(ValueError):
            Diagram(("x",), (a, b), ())
        with pytest.raises(ValueError, match="duplicate loop id 'a'"):
            Diagram(("x", "y"), (a, ("b", "a")), ())
        # A string side would otherwise split into one-letter loop names.
        for loops in ("ab", ("a", "b"), (a, "b"), (["a"], "bc")):
            with pytest.raises(TypeError, match="not a string"):
                Diagram(("x", "y"), loops, {})
        for loops in ((a, b, ("c",)), (a,), ()):
            with pytest.raises(ValueError, match=f"expected the loops of two components, found {len(loops)}"):
                Diagram(("x", "y"), loops, {})
        for loops in ((a, ()), ((), b), ([], [])):
            with pytest.raises(ValueError, match="has no loops"):
                Diagram(("x", "y"), loops, {})
        assert Diagram(("x", "y"), [["a", "c"], iter("b")], {}).loops == (("a", "c"), ("b",))
        with pytest.raises(ValueError, match="unknown loop 'zz'"):
            Diagram(("x", "y"), (a, b), {("a", "zz"): 1})
        with pytest.raises(ValueError, match="unknown loop 'zz'"):
            Diagram(("x", "y"), (a, b), {("zz", "b"): 0})
        with pytest.raises(TypeError, match="pair"):
            Diagram(("x", "y"), (a, b), {"ab": 1})
        with pytest.raises(TypeError, match="pair"):
            Diagram(("x", "y"), (a, b), {("a", "b", "a"): 1})
        for total in (1.5, 2.0, True):
            with pytest.raises(TypeError, match="must be an int"):
                Diagram(("x", "y"), (a, b), {("a", "b"): total})
        sums = {("a", "b"): 2}
        d = Diagram(("x", "y"), (a, b), sums)
        sums[("a", "b")] = 3
        assert d.crossing_sums == {("a", "b"): 2}
        with pytest.raises(TypeError):
            d.crossing_sums[("b", "a")] = 1


# --- linking numbers -------------------------------------------------------


class TestLinkingNumber:
    """Single entries of the linking matrix."""

    def test_hopf(self):
        assert linking_matrix(parse_diagram(MINIMAL)) == IntMatrix.from_rows([[1]])

    def test_no_crossings(self):
        assert linking_matrix(two_loops("")) == IntMatrix.zeros(1, 1)

    def test_mixed_signs(self):
        d = two_loops("crossing a b +\ncrossing b a +\ncrossing a b -\ncrossing b a +\n")
        assert linking_matrix(d) == IntMatrix.from_rows([[1]])

    def test_symmetric_in_the_pair(self):
        # Either loop may be on top: all three orderings count both crossings.
        for crossings in ("crossing a b -\ncrossing b a -\n", "crossing a b -\n" * 2, "crossing b a -\n" * 2):
            assert linking_matrix(two_loops(crossings)) == IntMatrix.from_rows([[-1]])

    def test_odd_sum_rejected(self):
        with pytest.raises(InvalidDiagramError, match="odd"):
            linking_matrix(two_loops("crossing a b +\n"))

    def test_other_crossings_ignored(self):
        text = (
            "component h1\nloop a\nloop c\ncomponent h2\nloop b\n"
            "crossing a b +\ncrossing b a +\n"
            "crossing c b -\ncrossing b c -\n"
            "crossing a c +\n"  # intra-component, never counted
        )
        assert linking_matrix(parse_diagram(text)) == IntMatrix.from_rows([[1], [-1]])


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
        # The expected table comes from a naive scan of the crossing list the
        # text was written from, not from the parsed tally.
        odd_seen = 0
        for seed in range(300):
            text, first, second, crossings = random_diagram(SplitMix64(seed))
            d = parse_diagram(text)
            table, first_odd = [], None
            for i, e in enumerate(first):
                row = []
                for j, f in enumerate(second):
                    total = sum(s for o, u, s in crossings if {o, u} == {e, f})
                    if total % 2:
                        if first_odd is None:
                            first_odd = f"entry ({i}, {j}): odd crossing sign sum {total}"
                            first_odd += f" between {e!r} and {f!r}"
                        row.append(None)
                    else:
                        row.append(total // 2)
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
            crossings += [(first[i], second[j], sign), (second[j], first[i], sign)]
        text = diagram_text(first, second, crossings)
        start = time.perf_counter()
        m = linking_matrix(parse_diagram(text))
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
        assert linking_matrix(merged) == IntMatrix.from_rows([[1]])
        assert merged.crossing_sums == {("ac", "b"): 1, ("b", "ac"): 1, ("ac", "ac"): 1}

    def test_colliding_sums_add(self):
        text = (
            "component h1\nloop a\nloop c\ncomponent h2\nloop b\n"
            "crossing a b +\ncrossing b a +\ncrossing c b +\ncrossing b c -\ncrossing c b +\n"
        )
        merged = merge_loops(parse_diagram(text), "a", "c", "ac")
        assert merged.crossing_sums == {("ac", "b"): 3, ("b", "ac"): 0}
        with pytest.raises(InvalidDiagramError, match=r"entry \(0, 0\): odd crossing sign sum 3"):
            linking_matrix(merged)

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
        # An unknown name comes first, then a loop merged with itself, then
        # loops of two components, then a merged id already in use.
        for first, second in (("zz", "zz"), ("zz", "a"), ("b", "zz")):
            with pytest.raises(KeyError):
                merge_loops(d2, first, second, "e")
        with pytest.raises(ValueError, match="itself"):
            merge_loops(d2, "a", "a", "e")
        with pytest.raises(ValueError, match="different components"):
            merge_loops(d2, "a", "b", "e")

    def test_merged_loops_keep_their_order(self, fixtures_dir):
        d = parse_diagram((fixtures_dir / "worked_example.hlk").read_text())
        assert merge_loops(d, "e3", "e1", "e13").loops == (("e2", "e13"), ("f1", "f2", "f3", "f4"))
        assert merge_loops(d, "f2", "f4", "f2").loops == (("e1", "e2", "e3"), ("f1", "f2", "f3"))
        text = "component h1\nloop a\nloop c\ncomponent h2\nloop b\n"
        assert merge_loops(parse_diagram(text), "a", "c", "c").loops == (("c",), ("b",))
