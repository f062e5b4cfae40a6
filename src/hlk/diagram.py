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

from dataclasses import dataclass

from .exactla import IntMatrix, _ParseError, _significant_lines

__all__ = [
    "Loop",
    "Crossing",
    "Diagram",
    "DiagramParseError",
    "InvalidDiagramError",
    "parse_diagram",
    "linking_number",
    "linking_matrix",
    "merge_loops",
]


class DiagramParseError(_ParseError):
    """Malformed diagram text (syntax or structural violation)."""


class InvalidDiagramError(ValueError):
    """Crossing data inconsistent with closed curves, or a bad loop pair."""


@dataclass(frozen=True)
class Loop:
    name: str
    component: int


@dataclass(frozen=True)
class Crossing:
    over: str
    under: str
    sign: int


@dataclass(frozen=True)
class Diagram:
    """Two named components, their loops in declaration order, and signed crossings."""

    component_names: tuple[str, str]
    loops: tuple[Loop, ...]
    crossings: tuple[Crossing, ...]

    def __post_init__(self):
        if len(self.component_names) != 2:
            raise ValueError(f"expected exactly two components, found {len(self.component_names)}")
        names = set()
        for loop in self.loops:
            if loop.component not in (0, 1):
                raise ValueError(f"loop {loop.name!r} has component {loop.component}, expected 0 or 1")
            if loop.name in names:
                raise ValueError(f"duplicate loop id {loop.name!r}")
            names.add(loop.name)
        for side in (0, 1):
            if not any(l.component == side for l in self.loops):
                raise ValueError(f"component {self.component_names[side]!r} has no loops")
        for c in self.crossings:
            if c.sign not in (1, -1):
                raise ValueError(f"crossing sign must be +-1, got {c.sign!r}")
            for name in (c.over, c.under):
                if name not in names:
                    raise ValueError(f"crossing references unknown loop {name!r}")

    def component_loops(self, component: int) -> tuple[Loop, ...]:
        return tuple(l for l in self.loops if l.component == component)

    def loop(self, name: str) -> Loop:
        for l in self.loops:
            if l.name == name:
                return l
        raise KeyError(name)


def parse_diagram(text: str) -> Diagram:
    """Parse diagram text; raises DiagramParseError with a line number."""
    component_names: list[str] = []
    loops: list[Loop] = []
    crossings: list[Crossing] = []
    declared: set[str] = set()

    for lineno, tokens in _significant_lines(text):
        keyword = tokens[0]

        if keyword == "component":
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
            loops.append(Loop(name, len(component_names) - 1))
        elif keyword == "crossing":
            if len(tokens) != 4:
                raise DiagramParseError("expected 'crossing <over> <under> <sign>'", line=lineno)
            over, under, sign_token = tokens[1], tokens[2], tokens[3]
            if sign_token == "+":
                sign = 1
            elif sign_token == "-":
                sign = -1
            else:
                raise DiagramParseError(f"sign must be '+' or '-', got {sign_token!r}", line=lineno)
            for name in (over, under):
                if name not in declared:
                    raise DiagramParseError(f"crossing references unknown loop {name!r}", line=lineno)
            crossings.append(Crossing(over, under, sign))
        else:
            raise DiagramParseError(f"unknown directive {keyword!r}", line=lineno)

    # Duplicate and unknown loop ids were caught above with their line; the
    # constructor states the end-of-input rules (two components, none empty).
    try:
        return Diagram(tuple(component_names), tuple(loops), tuple(crossings))
    except ValueError as exc:
        raise DiagramParseError(str(exc)) from None


def _pair_sums(d: Diagram) -> dict[tuple[str, str], int]:
    """Signed crossing sum per ``(over, under)`` loop pair, in one pass over the crossings."""
    sums: dict[tuple[str, str], int] = {}
    for c in d.crossings:
        key = (c.over, c.under)
        sums[key] = sums.get(key, 0) + c.sign
    return sums


def _linking(sums: dict, a: str, b: str, entry: tuple[int, int] | None = None) -> int:
    """Half the crossing sum of ``a`` and ``b``, either on top; ``entry`` prefixes an odd-sum error."""
    total = sums.get((a, b), 0) + sums.get((b, a), 0)
    if total % 2:
        where = f"entry {entry}: " if entry else ""
        raise InvalidDiagramError(f"{where}odd crossing sign sum {total} between {a!r} and {b!r}")
    return total // 2


def linking_number(d: Diagram, a: str, b: str) -> int:
    """Linking number of loops ``a`` and ``b``: half the signed crossing sum.

    Counts every crossing between the two loops regardless of which is on
    top; a closed-curve pair always crosses an even number of times, so an
    odd sum means the crossing data is inconsistent and raises
    InvalidDiagramError.  Crossings involving other loops, and
    self/intra-component crossings, are ignored.
    """
    la, lb = d.loop(a), d.loop(b)
    if la.component == lb.component:
        raise InvalidDiagramError(f"loops {a!r} and {b!r} lie in the same component")
    return _linking(_pair_sums(d), a, b)


def linking_matrix(d: Diagram) -> IntMatrix:
    """Matrix of linking numbers, rows = first component's loops, cols = second's."""
    first = d.component_loops(0)
    second = d.component_loops(1)
    sums = _pair_sums(d)
    rows = [
        [_linking(sums, e.name, f.name, (i, j)) for j, f in enumerate(second)]
        for i, e in enumerate(first)
    ]
    return IntMatrix.from_rows(rows, cols=len(second))


def merge_loops(d: Diagram, first: str, second: str, merged: str) -> Diagram:
    """Fuse two loops of one component into a single loop.

    The merged loop inherits both crossing records, so it behaves like the
    sum of the two homology classes: its linking number with any loop of
    the other component is the sum of the originals'.  Crossings between
    the two merged loops become self-crossings and drop out of every
    linking number.
    """
    la, lb = d.loop(first), d.loop(second)
    if first == second:
        raise ValueError("cannot merge a loop with itself")
    if la.component != lb.component:
        raise ValueError(f"loops {first!r} and {second!r} lie in different components")
    new_loops = []
    for l in d.loops:
        if l.name == first:
            new_loops.append(Loop(merged, l.component))
        elif l.name == second:
            continue
        else:
            if l.name == merged:
                raise ValueError(f"merged id {merged!r} is already in use")
            new_loops.append(l)
    rename = {first: merged, second: merged}
    new_crossings = tuple(
        Crossing(rename.get(c.over, c.over), rename.get(c.under, c.under), c.sign)
        for c in d.crossings
    )
    return Diagram(d.component_names, tuple(new_loops), new_crossings)
