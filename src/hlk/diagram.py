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
    "Loop",
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


class Loop(_Record):
    __slots__ = ("name", "component")

    def __init__(self, name: str, component: int):
        super().__init__(name, component)


class Diagram(_Record):
    """Two named components, their loops in declaration order, and the
    signed crossing sum of each ``(over, under)`` loop pair.

    Linking numbers need only these sums, so a diagram holds one sum per
    loop pair however many crossings its file lists.
    """

    __slots__ = ("component_names", "loops", "crossing_sums")

    def __init__(self, component_names: tuple[str, str], loops: tuple[Loop, ...],
                 crossing_sums: Mapping[tuple[str, str], int]):
        super().__init__(tuple(component_names), tuple(loops), crossing_sums)
        if len(self.component_names) != 2:
            raise ValueError(f"expected exactly two components, found {len(self.component_names)}")
        names = set()
        for loop in self.loops:
            if type(loop.component) is not int:
                raise TypeError(f"loop {loop.name!r} has component {loop.component!r}, expected an int")
            if loop.component not in (0, 1):
                raise ValueError(f"loop {loop.name!r} has component {loop.component}, expected 0 or 1")
            if loop.name in names:
                raise ValueError(f"duplicate loop id {loop.name!r}")
            names.add(loop.name)
        for side in (0, 1):
            if not any(l.component == side for l in self.loops):
                raise ValueError(f"component {self.component_names[side]!r} has no loops")
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

    def component_loops(self, component: int) -> tuple[Loop, ...]:
        return tuple(l for l in self.loops if l.component == component)


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
           copies: list[tuple[int, str, int]]) -> tuple[tuple[str, ...], tuple[Loop, ...], dict]:
    """Names, loops and sums, checking each distinct line of ``counts`` once
    and each copy ``(k, line, line number)`` after the first ``k`` of them.

    A crossing adds its sign times its count: its repeats are valid when it is,
    as the declared loops only grow.  An error names the line of ``text``
    where the bad line first occurs, or the copy's own line.
    """
    component_names: list[str] = []
    loops: list[Loop] = []
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
                loops.append(Loop(name, len(component_names) - 1))
            else:
                raise DiagramParseError(f"unknown directive {keyword!r}")
    except DiagramParseError as exc:
        line = -count if count < 0 else _line_number(text, raw)
        raise DiagramParseError(str(exc), line=line) from None
    return tuple(component_names), tuple(loops), sums


def linking_matrix(d: Diagram) -> IntMatrix:
    """Matrix of linking numbers, rows = first component's loops, cols = second's.

    Entry ``(i, j)`` is half the signed sum of the crossings between the two
    loops, either on top.  A closed-curve pair crosses an even number of
    times, so an odd sum raises InvalidDiagramError.  Crossings within one
    component are ignored.
    """
    first = [l.name for l in d.component_loops(0)]
    second = [l.name for l in d.component_loops(1)]
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
    by_name = {l.name: l for l in d.loops}
    la, lb = by_name[first], by_name[second]
    if first == second:
        raise ValueError("cannot merge a loop with itself")
    if la.component != lb.component:
        raise ValueError(f"loops {first!r} and {second!r} lie in different components")
    if merged in by_name.keys() - {first, second}:
        raise ValueError(f"merged id {merged!r} is already in use")
    rename = {first: merged, second: merged}
    kept = (l for l in d.loops if l.name != second)
    new_loops = tuple(Loop(rename.get(l.name, l.name), l.component) for l in kept)
    sums: dict[tuple[str, str], int] = {}
    for (over, under), total in d.crossing_sums.items():
        pair = (rename.get(over, over), rename.get(under, under))
        sums[pair] = sums.get(pair, 0) + total
    return Diagram(d.component_names, new_loops, sums)
