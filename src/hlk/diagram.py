"""Two-component spatial bouquet diagrams and their linking matrix.

Diagram file format (UTF-8, line oriented, tokens separated by one or
more ASCII spaces):

    # comment                 comment and blank lines are ignored
    component <name>          opens a component block; exactly two per file
    loop <id>                 declares a loop in the current component
    crossing <over> <under> <sign>
                              sign is literally + or -; crossing lines may
                              appear anywhere after the loops they reference

The loops of a component are its first-homology basis circles; their
declaration order fixes the row/column order of the linking matrix.
"""

from collections import Counter
from collections.abc import Mapping
from itertools import chain, islice
from types import MappingProxyType

from .exactla import IntMatrix, _ParseError, _Record, _sliced_lines, _tokens

__all__ = [
    "Diagram",
    "DiagramParseError",
    "InvalidDiagramError",
    "parse_diagram",
    "linking_matrix",
    "merge_loops",
]


class DiagramParseError(_ParseError):
    """Malformed diagram text (syntax or structural violation)."""


class InvalidDiagramError(ValueError):
    """Crossing data inconsistent with closed curves."""


_SIGNS = {"+": 1, "-": -1}


class Diagram(_Record):
    """Two named components, the loop names of each in declaration order, and
    the signed crossing sum of each ``(over, under)`` loop pair.

    Linking numbers need only these sums, so a diagram holds one sum per
    loop pair however many crossings its file lists.
    """

    __slots__ = ("component_names", "loops", "crossing_sums")

    def __init__(self, component_names: tuple[str, str], loops: tuple[tuple[str, ...], tuple[str, ...]],
                 crossing_sums: Mapping[tuple[str, str], int]):
        loops = tuple(loops)
        if any(isinstance(side, str) for side in loops):  # tuple() would split one into letters
            raise TypeError(f"each side of loops must be a sequence of loop names, not a string: {loops!r}")
        super().__init__(tuple(component_names), tuple(map(tuple, loops)), crossing_sums)
        if len(self.component_names) != 2:
            raise ValueError(f"expected exactly two components, found {len(self.component_names)}")
        if len(self.loops) != 2:
            raise ValueError(f"expected the loops of two components, found {len(self.loops)}")
        names = set()
        for name in chain(*self.loops):
            if name in names:
                raise ValueError(f"duplicate loop id {name!r}")
            names.add(name)
        for component, side in zip(self.component_names, self.loops):
            if not side:
                raise ValueError(f"component {component!r} has no loops")
        sums = MappingProxyType(dict(self.crossing_sums))
        for pair, total in sums.items():
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise TypeError(f"crossing sum key must be an (over, under) pair, got {pair!r}")
            if type(total) is not int:
                raise TypeError(f"crossing sum of {pair!r} must be an int, got {total!r}")
            for name in pair:
                if name not in names:
                    raise ValueError(f"crossing references unknown loop {name!r}")
        # A read-only copy, so the checked sums cannot change afterwards.
        object.__setattr__(self, "crossing_sums", sums)

    def __reduce__(self):
        # pickle refuses the read-only mapping; the constructor takes a plain dict.
        return Diagram, (self.component_names, self.loops, dict(self.crossing_sums))


def parse_diagram(text: str) -> Diagram:
    """Parse diagram text; raises DiagramParseError with a line number.

    The text is split and counted once.  A later copy of a component or loop
    line acts again (it names the second component or fails), so the count
    records where each such copy stands, walking in Python only the slices
    that hold one, and ``_tally`` checks it among the distinct lines there.
    """
    counts: Counter[str] = Counter()
    declarations: set[str] = set()
    # (distinct lines before it, line, line number) of the first two later
    # copies of a declaration: the tally stops at the second, if not before.
    copies: list[tuple[int, str, int]] = []
    for lines in _sliced_lines(text):
        known = len(counts)
        counts.update(lines)
        new = list(islice(reversed(counts), len(counts) - known))
        # One substring search keeps the per-line test off slices of crossings only.
        if "component" in (joined := "\n".join(new)) or "loop" in joined:
            declarations.update(l for l in new if l.lstrip().startswith(("component", "loop")))
        if len(copies) < 2 and sum(map(counts.__getitem__, declarations)) > len(declarations) + len(copies):
            fresh, distinct = set(new), known
            for lineno, line in enumerate(lines, counts.total() - len(lines) + 1):
                if line in fresh:
                    fresh.remove(line)
                    distinct += 1
                elif line in declarations:
                    copies.append((distinct, line, lineno))
            del copies[2:]
        # Free this slice's lines before the next slice is split.
        del lines
    parts = _tally(text, counts, copies)

    # Duplicate and unknown loop ids were caught above with their line; the
    # constructor states the end-of-input rules (two components, none empty).
    try:
        return Diagram(*parts)
    except ValueError as exc:
        raise DiagramParseError(str(exc)) from None


def _line_number(text: str, line: str) -> int:
    """The number of the first line equal to ``line``."""
    before = 0
    for lines in _sliced_lines(text):
        try:
            return before + lines.index(line) + 1
        except ValueError:
            before += len(lines)


def _tally(text: str, counts: Mapping[str, int],
           copies: list[tuple[int, str, int]]) -> tuple[tuple[str, ...], tuple[list[str], list[str]], dict]:
    """Names, loops and sums, checking each distinct line of ``counts`` once
    and each copy ``(k, line, line number)`` after the first ``k`` of them.

    A crossing adds its sign times its count: its repeats are valid when it is,
    as the declared loops only grow.  An error names the line of ``text``
    where the bad line first occurs, or the copy's own line.
    """
    component_names: list[str] = []
    loops: tuple[list[str], list[str]] = ([], [])
    sums: dict[tuple[str, str], int] = {}
    declared: set[str] = set()
    # A copy stands in the stream as (line, minus its line number).
    items = iter(counts.items())
    stream = []
    done = 0
    for k, line, lineno in copies:
        stream += islice(items, k - done), [(line, -lineno)]
        done = k
    try:
        for raw, count in chain(*stream, items):
            if not (tokens := _tokens(raw)):
                continue
            keyword = tokens[0]
            if keyword == "crossing":
                if len(tokens) != 4:
                    raise DiagramParseError("expected 'crossing <over> <under> <sign>'")
                sign = _SIGNS.get(tokens[3])
                if sign is None:
                    raise DiagramParseError(f"sign must be '+' or '-', got {tokens[3]!r}")
                pair = (tokens[1], tokens[2])
                for name in pair:
                    if name not in declared:
                        raise DiagramParseError(f"crossing references unknown loop {name!r}")
                sums[pair] = sums.get(pair, 0) + sign * count
            elif keyword == "component":
                if len(tokens) != 2:
                    raise DiagramParseError("expected 'component <name>'")
                if len(component_names) == 2:
                    raise DiagramParseError("more than two components")
                component_names.append(tokens[1])
            elif keyword == "loop":
                if len(tokens) != 2:
                    raise DiagramParseError("expected 'loop <id>'")
                if not component_names:
                    raise DiagramParseError("loop declared before any component")
                name = tokens[1]
                if name in declared:
                    raise DiagramParseError(f"duplicate loop id {name!r}")
                declared.add(name)
                loops[len(component_names) - 1].append(name)
            else:
                raise DiagramParseError(f"unknown directive {keyword!r}")
    except DiagramParseError as exc:
        line = -count if count < 0 else _line_number(text, raw)
        raise DiagramParseError(str(exc), line=line) from None
    return tuple(component_names), loops, sums


def linking_matrix(d: Diagram) -> IntMatrix:
    """Matrix of linking numbers, rows = first component's loops, cols = second's.

    Entry ``(i, j)`` is half the signed sum of the crossings between the two
    loops, either on top.  A closed-curve pair crosses an even number of
    times, so an odd sum raises InvalidDiagramError.  Crossings within one
    component are ignored.
    """
    first, second = d.loops
    sums = d.crossing_sums
    entries = []
    for i, e in enumerate(first):
        for j, f in enumerate(second):
            total = sums.get((e, f), 0) + sums.get((f, e), 0)
            if total % 2:
                raise InvalidDiagramError(
                    f"entry {(i, j)}: odd crossing sign sum {total} between {e!r} and {f!r}")
            entries.append(total // 2)
    return IntMatrix(len(first), len(second), tuple(entries))


def merge_loops(d: Diagram, first: str, second: str, merged: str) -> Diagram:
    """Fuse two loops of one component into a single loop.

    The merged loop inherits both loops' crossing sums, so it behaves like the
    sum of the two homology classes: its linking number with any loop of
    the other component is the sum of the originals'.  Crossings between
    the two merged loops become self-crossings and drop out of every
    linking number.
    """
    side = {name: k for k, names in enumerate(d.loops) for name in names}
    ka, kb = side[first], side[second]
    if first == second:
        raise ValueError("cannot merge a loop with itself")
    if ka != kb:
        raise ValueError(f"loops {first!r} and {second!r} lie in different components")
    if merged in side.keys() - {first, second}:
        raise ValueError(f"merged id {merged!r} is already in use")
    rename = {first: merged, second: merged}
    new_loops = [[rename.get(n, n) for n in names if n != second] for names in d.loops]
    sums: dict[tuple[str, str], int] = {}
    for (over, under), total in d.crossing_sums.items():
        pair = (rename.get(over, over), rename.get(under, under))
        sums[pair] = sums.get(pair, 0) + total
    return Diagram(d.component_names, new_loops, sums)
