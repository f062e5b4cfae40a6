#!/usr/bin/env python3
"""Benchmark of the ``hlk`` command line, one workload per run.

    python3 perfbench/run.py --workload divisors --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The program is imported from
``src/`` and driven in-process through ``hlk.cli.run``, one invocation at a
time, in whole rounds of the workload's invocations until ``--seconds`` have
passed.  Every output is checked against computations made apart from the
program (``check.py``), outside the timed region.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics of a traced
run with ``--trace 1``.  A summary goes to stderr.

Times are given at a reference machine speed.  The CPU this was built on
runs the same code up to 1.7 times faster or slower for seconds to minutes
at a time, depending on what else the machine is doing.  So the run times a
fixed yardstick, the benchmark's own integer elimination, after every
invocation, and scales each invocation's time by
``YARDSTICK_REFERENCE_S / median of the yardstick times around it``.  The
unscaled figures and the range of the speed factor are printed on stderr.
"""

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import check
import gen
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_INVOCATIONS = 100  # so that ten samples lie beyond the 90th percentile
SETUP_SAMPLES = 21
YARDSTICK_REFERENCE_S = 1.5e-3
YARDSTICK = (gen.splitmix_matrix(7, 16, 16, 100), gen.splitmix_matrix(5, 24, 24, 100))
TOO_LONG = 10**4300  # CPython converts ints of up to 4,300 digits to str by default

END_TO_END = {
    "solve_p50_ms": "ms",
    "solve_p90_ms": "ms",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "cert_bits": "bits",
}
PER_LAYER = {
    "cli.self_ms": "ms",
    "exactla.parse_matrix_ms": "ms",
    "exactla.parse_matrix_mb_per_s": "MB/s",
    "diagram.parse_ms": "ms",
    "diagram.parse_crossings_per_s": "1/s",
    "diagram.linking_matrix_ms": "ms",
    "diagram.linking_matrix_crossings_per_s": "1/s",
    "exactla.reduce_ms": "ms",
    "exactla.reductions_per_solve": "count",
    "exactla.pack_ms": "ms",
    "exactla.format_ms": "ms",
    "exactla.format_mb_per_s": "MB/s",
    "invariant.self_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unaccounted_pct": "%",
}

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import hlk.cli
print(time.perf_counter() - start)
"""


def import_seconds():
    """Time to import ``hlk.cli`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def yardstick_seconds():
    start = perf_counter()
    check.determinant(YARDSTICK[0])
    check.local_valuations(YARDSTICK[1], 2, 3)
    return perf_counter() - start


class Clock:
    """What the run samples between invocations, outside their timing.

    The yardstick after every invocation, and with ``setup`` the import time
    of ``hlk.cli`` every ``seconds / SETUP_SAMPLES``: samples taken in one
    burst would all see the same phase of the machine.
    """

    def __init__(self, seconds, setup):
        self.yardstick = [yardstick_seconds()]  # [k] is taken before invocation k
        self.setup = []
        self.setup_every = seconds / SETUP_SAMPLES if setup else None
        self.setup_due = perf_counter()
        if setup:
            import_seconds()  # compiles the bytecode cache; not counted

    def between(self):
        self.yardstick.append(yardstick_seconds())
        if self.setup_every and perf_counter() >= self.setup_due:
            self.setup.append((import_seconds(), len(self.yardstick) - 1))
            self.setup_due = perf_counter() + self.setup_every

    def factor(self, k):
        """Reference over the yardstick time around invocation ``k``: the
        median of the two samples before it and the two after it."""
        return YARDSTICK_REFERENCE_S / statistics.median(self.yardstick[max(0, k - 1):k + 3])

    def setup_seconds(self):
        """Median import time, each sample scaled by the speed factor at the
        point of the run where it was taken."""
        while len(self.setup) < SETUP_SAMPLES:
            self.setup.append((import_seconds(), len(self.yardstick) - 1))
        return statistics.median(t * self.factor(k) for t, k in self.setup)


def invoke(cli, command, text):
    """One invocation: ``(seconds, exit code or None, exception or None, stdout)``."""
    stdin, out, err = io.StringIO(text), io.StringIO(), io.StringIO()
    config = cli.CliConfig(subcommand=command, input_path="-")
    failure = None
    start = perf_counter()
    try:
        code = cli.run(config, stdin=stdin, out=out, err=err)
    except Exception as exc:  # timed up to the failure and counted as failed
        code, failure = None, exc
    return perf_counter() - start, code, failure, out.getvalue()


class Run:
    """Whole rounds of a workload until the time is up.

    ``times[r][s]`` is the wall time of slot ``s`` in round ``r``.  With a
    tracer, odd rounds are traced and even rounds are not, so the two kinds
    interleave over the run.  ``first`` holds the first round's outcome per
    slot; ``unstable`` the slots whose later outcomes differed from it.
    ``peak_rss_mb`` is the peak resident set once every input has run once:
    what one process needs for the workload, before the allocator's slow
    growth over later rounds.
    """

    def __init__(self, cli, work, seconds, tracer, clock):
        self.work, self.tracer, self.clock = work, tracer, clock
        self.times, self.traced, self.first, self.unstable = [], [], [], set()
        deadline = perf_counter() + seconds
        while (len(self.times) < 2 or perf_counter() < deadline
               or len(self.times) * len(work.plan) < MIN_INVOCATIONS):
            self.round(cli, tracer is not None and len(self.times) % 2 == 1)

    def round(self, cli, traced):
        r = len(self.times)
        self.times.append([])
        self.traced.append(traced)
        if traced:
            self.tracer.install()
        for slot, (command, index) in enumerate(self.work.plan):
            if traced:
                self.tracer.invocation = (r, slot)
            elapsed, code, failure, output = invoke(cli, command, self.work.inputs[index].text)
            self.times[r].append(elapsed)
            self.clock.between()
            outcome = (code, repr(failure) if failure else None, output)
            if r == 0:
                self.first.append((outcome, failure))
            elif outcome != self.first[slot][0]:
                self.unstable.add(slot)
        if traced:
            self.tracer.uninstall()
        if r == 0:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def factor(self, r, s):
        return self.clock.factor(r * len(self.work.plan) + s)

    def scaled(self, traced):
        """Per slot, the scaled times of the traced or the untraced rounds."""
        rounds = [r for r, t in enumerate(self.traced) if t == traced]
        return [[self.times[r][s] * self.factor(r, s) for r in rounds]
                for s in range(len(self.work.plan))]


def check_outputs(work, first, unstable, certificates):
    """Problems with the first round's outputs.

    A failed invocation is accepted only as the known fault of ``hlk snf``:
    a ValueError from converting an entry of U or V longer than 4,300 digits.
    """
    problems = [f"slot {s}: output differs between rounds" for s in sorted(unstable)]
    for slot, ((code, _, output), failure) in enumerate(first):
        command, index = work.plan[slot]
        inp = work.inputs[index]
        where = f"{command} {inp.name}"
        if failure is not None or code != 0:
            cert = certificates.get(index)
            known = (command == "snf" and isinstance(failure, ValueError) and cert is not None
                     and any(abs(x) >= TOO_LONG for x in cert.u.entries + cert.v.entries))
            if not known:
                problems.append(f"{where}: failed with exit code {code}, {failure!r}")
            continue
        try:
            found, chain = [], None
            if command == "invariant":
                chain = check.parse_invariant(output)
                if inp.chain is None:
                    found = check.check_chain(inp.matrix, chain)
            elif command == "groups":
                found, chain = check.check_groups(inp.matrix, output)
            elif command == "matrix":
                if check.parse_matrix_text(output) != inp.matrix:
                    found = ["printed linking matrix differs from the planted one"]
            else:
                d, u, v = check.parse_snf(output)
                found = check.check_certificate(inp.matrix, d, u, v)
                chain = [x for i, row in enumerate(d) for j, x in enumerate(row) if i == j and x]
            if inp.chain is not None and chain is not None and chain != inp.chain:
                found.append(f"chain {chain} differs from the planted {inp.chain}")
        except (ValueError, IndexError) as exc:
            found = [f"unreadable output: {exc!r}"]
        problems += [f"{where}: {p}" for p in found]
    return problems


def timing(samples):
    """``(p50 ms, p90 ms, invocations per busy second)`` of a flat sample list."""
    return (statistics.median(samples) * 1e3,
            statistics.quantiles(samples, n=10)[-1] * 1e3,
            len(samples) / sum(samples))


def end_to_end(run, certificates, setup_s):
    p50, p90, rate = timing([t for slot in run.scaled(False) for t in slot])
    bits = [max(abs(x).bit_length() for x in c.u.entries + c.v.entries)
            for c in certificates.values()]
    return {
        "solve_p50_ms": p50,
        "solve_p90_ms": p90,
        "solves_per_s": rate,
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": setup_s,
        "cert_bits": statistics.median(bits),
    }


def per_layer(run, tracer):
    """Per-layer figures from the traced rounds, at the reference speed.

    A layer's time is, for each invocation slot of the round, the median over
    traced rounds of the layer's self time in that invocation, averaged over
    the slots; so the layer times add up to the mean traced invocation.
    """
    work = run.work
    per_call = {}   # (round, slot) -> {layer: scaled self seconds}
    totals = {}     # layer -> [scaled self seconds, size, crossings]
    reductions = 0
    roots = 0.0
    for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
        name, start, end, parent, (r, s), size = span
        layer = tracing.LAYER_OF[name]
        own *= run.factor(r, s)
        calls = per_call.setdefault((r, s), {})
        calls[layer] = calls.get(layer, 0.0) + own
        acc = totals.setdefault(layer, [0.0, 0, 0])
        acc[0] += own
        acc[1] += size
        acc[2] += work.inputs[work.plan[s][1]].crossings
        reductions += name.endswith(".smith_normal_form")
        if parent < 0:
            roots += (end - start) * run.factor(r, s)
    traced_rounds = [r for r, t in enumerate(run.traced) if t]
    slots = range(len(work.plan))

    def layer_ms(layer):
        return 1e3 * statistics.fmean(
            statistics.median(per_call.get((r, s), {}).get(layer, 0.0) for r in traced_rounds)
            for s in slots)

    def rate(layer, amount, scale):
        seconds, *amounts = totals.get(layer, [0.0, 0, 0])
        return amounts[amount] / seconds / scale if seconds else 0.0

    traced, plain = run.scaled(True), run.scaled(False)
    overhead = (sum(statistics.median(t) for t in traced)
                / sum(statistics.median(t) for t in plain) - 1)
    return {
        "cli.self_ms": layer_ms("cli"),
        "exactla.parse_matrix_ms": layer_ms("exactla.parse_matrix"),
        "exactla.parse_matrix_mb_per_s": rate("exactla.parse_matrix", 0, 1e6),
        "diagram.parse_ms": layer_ms("diagram.parse"),
        "diagram.parse_crossings_per_s": rate("diagram.parse", 1, 1),
        "diagram.linking_matrix_ms": layer_ms("diagram.linking_matrix"),
        "diagram.linking_matrix_crossings_per_s": rate("diagram.linking_matrix", 1, 1),
        "exactla.reduce_ms": layer_ms("exactla.reduce"),
        "exactla.reductions_per_solve": reductions / (len(traced_rounds) * len(work.plan)),
        "exactla.pack_ms": layer_ms("exactla.pack"),
        "exactla.format_ms": layer_ms("exactla.format"),
        "exactla.format_mb_per_s": rate("exactla.format", 0, 1e6),
        "invariant.self_ms": layer_ms("invariant"),
        "trace.overhead_pct": 100 * overhead,
        "trace.unaccounted_pct": 100 * (1 - roots / sum(sum(t) for t in traced)),
    }


def write_spans(tracer, workload, seed):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.json"
    fields = ["name", "start", "end", "parent", "invocation", "size"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": fields, "skipped": tracer.skipped, "spans": tracer.spans}, handle)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark the hlk command line.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hlk" / "cli.py").is_file():
        print(f"perfbench: no hlk sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hlk.cli as cli
    from hlk.exactla import IntMatrix, smith_normal_form

    work = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    clock = Clock(args.seconds, setup=not args.trace)
    run = Run(cli, work, args.seconds, tracer, clock)

    # Transforms of the seed-independent matrices, and of every matrix whose
    # snf failed: they give cert_bits and tell the known fault from others.
    failed = {work.plan[s][1] for s, (_, failure) in enumerate(run.first) if failure is not None}
    certificates = {i: smith_normal_form(IntMatrix.from_rows(inp.matrix))
                    for i, inp in enumerate(work.inputs) if inp.fixed or i in failed}
    with check.unlimited_int_digits():
        problems = check_outputs(work, run.first, run.unstable, certificates)
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)

    failed_per_round = sum(1 for (code, _, _), failure in run.first if failure or code != 0)
    if args.trace:
        values, units = per_layer(run, tracer), PER_LAYER
        path = write_spans(tracer, args.workload, args.seed)
        print(f"perfbench: {len(tracer.spans)} spans written to {path}", file=sys.stderr)
    else:
        fixed = {i: c for i, c in certificates.items() if work.inputs[i].fixed}
        factors = [clock.factor(k) for k in range(len(run.times) * len(work.plan))]
        values, units = end_to_end(run, fixed, clock.setup_seconds()), END_TO_END
        raw = timing([t for r in run.times for t in r])
        print(f"perfbench: speed factor {min(factors):.3f}..{max(factors):.3f};"
              f" unscaled p50 {raw[0]:.4f} ms, p90 {raw[1]:.4f} ms, {raw[2]:.4f}/s", file=sys.stderr)
    for name, unit in units.items():
        print(f"perfbench: {args.workload:9s} {name:40s} {values[name]:14.4f} {unit}", file=sys.stderr)
    rounds = len(run.times)
    print(f"perfbench: {rounds} rounds of {len(work.plan)} invocations,"
          f" {failed_per_round} failing per round", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * len(work.plan),
        "failed": rounds * failed_per_round,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
