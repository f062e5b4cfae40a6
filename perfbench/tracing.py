"""Span tracing of ``hlk`` from outside, by wrapping its public names at run time.

Each wrapper records one span per call: the wrapped name, start and end
times, the index of the enclosing span and the invocation id.  Names are
wrapped as the calling modules bind them (``hlk.cli.parse_matrix`` is the
name ``cli.run`` calls), so a span sits exactly at a layer boundary.  A
name that no longer exists is skipped.  Spans stay in memory; the caller
writes them out when the run ends.
"""

import sys
from time import perf_counter

# (module, attribute path, layer).  Each layer's self time is the time in its
# spans not covered by child spans.
TARGETS = [
    ("hlk.cli", "run", "cli"),
    ("hlk.cli", "parse_matrix", "exactla.parse_matrix"),
    ("hlk.cli", "parse_diagram", "diagram.parse"),
    ("hlk.cli", "linking_matrix", "diagram.linking_matrix"),
    ("hlk.cli", "handlebody_linking", "invariant"),
    ("hlk.cli", "quotient_group", "invariant"),
    ("hlk.cli", "smith_normal_form", "exactla.reduce"),
    ("hlk.cli", "format_matrix", "exactla.format"),
    ("hlk.invariant", "elementary_divisors", "exactla.reduce"),
    ("hlk.exactla", "smith_normal_form", "exactla.reduce"),
    ("hlk.exactla", "IntMatrix.from_rows", "exactla.pack"),
    ("hlk.invariant", "LkInvariant.__post_init__", "invariant"),
    ("hlk.invariant", "LkInvariant.__str__", "invariant"),
    ("hlk.invariant", "AbelianGroup.__post_init__", "invariant"),
    ("hlk.invariant", "AbelianGroup.__str__", "invariant"),
]

LAYER_OF = {f"{module}.{path}": layer for module, path, layer in TARGETS}

# Names whose argument or result size is recorded with the span, for rates.
SIZED = {
    "hlk.cli.parse_matrix": lambda args, result: len(args[0]),
    "hlk.cli.format_matrix": lambda args, result: len(result),
}


class Tracer:
    """Installs span-recording wrappers; ``spans`` holds one tuple per call:
    ``(name, start, end, parent index or -1, invocation id, size)``."""

    def __init__(self):
        self.spans = []
        self.invocation = 0
        self.skipped = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, func):
        spans, stack, sized = self.spans, self._stack, SIZED.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                size = sized(args, result) if sized and result is not None else 0
                spans[index] = (name, start, end, parent, self.invocation, size)

        return traced

    def install(self):
        for module_name, path, _ in TARGETS:
            module = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.skipped.append(f"{module_name}.{path}")
                continue
            original = vars(owner)[attr]
            name = f"{module_name}.{path}"
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Self time of every span: its duration minus its children's durations."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
