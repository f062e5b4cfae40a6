"""The three workloads: which inputs each one generates and which commands it runs.

A workload is a fixed round of invocations ``(command, input)``.  The shapes
of the inputs are fixed; the run seed draws the entries of the seeded ones.
Anchor inputs do not depend on the seed: they are the splitmix64 matrices
``901 + n`` that the project's baseline figures were measured on, plus two
rectangular ones, and they carry the shapes whose cost depends too much on
the entries to be drawn per seed (a random 30x30 matrix with entries up to
100 takes anywhere from 0.2 s to 14 s to reduce today).
"""

from dataclasses import dataclass

import gen

ANCHOR_SEED = 2012  # fixed stream for the seed-independent diagram files


@dataclass
class Workload:
    inputs: list
    plan: list  # (command, input index) in round order


def _seeded_matrix(seed, index, family, *shape):
    rng = gen.sub_rng(seed, index)
    if family == "uniform":
        m, n, bound = shape
        rows, chain = gen.uniform(rng, m, n, bound), None
        what = f"uniform {m}x{n}, entries in [-{bound}, {bound}]"
    elif family == "rank-deficient":
        n, k, bound = shape
        rows, chain = gen.rank_deficient(rng, n, k, bound), None
        what = f"A({n}x{k}) B({k}x{n}), factor entries in [-{bound}, {bound}]"
    else:
        m, n, rank = shape
        rows, chain = gen.planted(rng, m, n, rank)
        what = f"planted chain, {m}x{n} of rank {rank}"
    name = f"{family}-{'x'.join(map(str, shape))}"
    return gen.Input(name, gen.matrix_text(rows, what), rows, chain=chain)


def _anchor(seed, m, n, bound):
    rows = gen.splitmix_matrix(seed, m, n, bound)
    what = f"splitmix64({seed}) {m}x{n}, entries in [-{bound}, {bound}]"
    return gen.Input(f"anchor-{seed}-{m}x{n}-{bound}", gen.matrix_text(rows, what), rows, fixed=True)


def _matrices(seed, families, anchors):
    inputs = [_seeded_matrix(seed, i, *spec) for i, spec in enumerate(families)]
    return inputs + [_anchor(*spec) for spec in anchors]


# Where the median and the 90th percentile fall.  Every slot of a round
# gives one sample per round, so the sorted samples come in groups, one per
# slot.  A quantile on the edge between two groups of very different cost
# jumps between them from run to run; the slot counts below put the median
# inside a crowd of slots of similar cost and the 90th percentile in the
# middle of one group.  Changing a list means checking where they fall again.

# Seeded families.  These shapes keep the spread of their reduction time
# over seeds small (p10 to p90 within about a third of the median) and have
# no heavy tail; larger random shapes do, so they appear only as anchors.
# The sizes step through a range so that the seeded slots' times form a
# continuum.  54 seeded slots and 12 anchor slots: the median falls among
# the seeded slots and the 90th percentile inside `groups` on the 20x30
# anchor.
DIVISOR_FAMILIES = (
    [("uniform", n, n, 1) for n in (14, 15, 16, 17, 18, 21, 22, 23, 24)]
    + [("rank-deficient", n, 5, 10) for n in (12, 14, 16, 18, 20, 22, 24, 26, 30)]
    + [("uniform", m, n, 100) for m, n in ((10, 10), (11, 11), (10, 14), (14, 10), (12, 18))]
    + [("planted", n, n, r) for n, r in ((14, 12), (16, 14), (18, 15), (20, 15))]
)
DIVISOR_ANCHORS = [
    (926, 25, 25, 100), (936, 35, 35, 1),
    (931, 30, 30, 100), (941, 40, 40, 1), (951, 20, 30, 100), (951, 30, 20, 100),
]

# Seeded families whose U and V stay far below 4,300 decimal digits (14,284
# bits) on every one of a thousand seeds, so that no seeded snf fails.
# They take one or two milliseconds.  7 seeded slots and 8 anchors: the
# median falls inside the fastest anchor and the 90th percentile inside
# the second slowest.
CERTIFIED_FAMILIES = [
    ("uniform", 10, 10, 100), ("uniform", 20, 20, 1),
    ("rank-deficient", 16, 5, 10), ("rank-deficient", 24, 5, 10),
    ("uniform", 8, 12, 100), ("uniform", 12, 8, 100), ("planted", 16, 16, 12),
]
# Four anchors that succeed, then the four on which `hlk snf` fails today
# because an entry of V is longer than 4,300 digits.
CERTIFIED_ANCHORS = [
    (921, 20, 20, 100), (926, 25, 25, 100), (931, 30, 30, 1), (936, 35, 35, 1),
    (931, 30, 30, 100), (941, 40, 40, 1), (951, 20, 30, 100), (951, 30, 20, 100),
]

# (loops of the first component, loops of the second, crossings), from
# parse-heavy to linking-matrix-heavy; the last two are drawn from a fixed
# stream and do not depend on the seed.  Each file is a group of three slots
# of similar cost; with five files the median falls in the middle of the
# third group and the 90th percentile in the middle of the slowest, which
# is linking-matrix-heavy.  Parse time follows the yardstick least well, so
# the largest file stops at 80,000 crossings.
DIAGRAM_SHAPES = [
    (2, 2, 80_000), (4, 6, 24_000), (8, 8, 10_000), (15, 15, 4_000), (20, 20, 6_000),
]
FIXED_DIAGRAMS = 2
LINK_ENTRY = 3  # linking numbers are drawn from [-3, 3]


def divisors(seed):
    inputs = _matrices(seed, DIVISOR_FAMILIES, DIVISOR_ANCHORS)
    return Workload(inputs, [(c, i) for i in range(len(inputs)) for c in ("invariant", "groups")])


def certified(seed):
    inputs = _matrices(seed, CERTIFIED_FAMILIES, CERTIFIED_ANCHORS)
    return Workload(inputs, [("snf", i) for i in range(len(inputs))])


def diagrams(seed):
    inputs = []
    for i, (g1, g2, crossings) in enumerate(DIAGRAM_SHAPES):
        fixed = i >= len(DIAGRAM_SHAPES) - FIXED_DIAGRAMS
        rng = gen.sub_rng(ANCHOR_SEED if fixed else seed, i)
        text, lk = gen.diagram(rng, g1, g2, crossings, LINK_ENTRY)
        inputs.append(gen.Input(f"diagram-{g1}x{g2}-{crossings}", text, lk,
                                crossings=crossings, fixed=fixed))
    plan = [(c, i) for i in range(len(inputs)) for c in ("invariant", "groups", "matrix")]
    return Workload(inputs, plan)


WORKLOADS = {"divisors": divisors, "certified": certified, "diagrams": diagrams}
