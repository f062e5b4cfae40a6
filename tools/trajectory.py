#!/usr/bin/env python3
"""Append one benchmark run of each workload to the trajectory files.

    python3 tools/trajectory.py SEED

For each of the workloads ``divisors``, ``certified`` and ``diagrams`` this
runs ``perfbench/run.py --workload W --seed SEED --seconds 30 --trace 0`` in a
subprocess from the root of the checkout.  It reads the JSON object on the
last line of the run's stdout and the ``perfbench: speed factor a..b`` line on
its stderr, and appends one entry to ``BENCH_<workload>.json`` at the root:
the git commit (with ``-dirty`` when tracked files differ from it), the Python
version, the seed, the seconds, the speed-factor range, ``correct``,
``attempted``, ``failed`` and each metric's value.  ``BENCHMARK.json`` gives
the metrics' units and bounds.

When any run exits nonzero or reports ``correct: false``, or the checkout is
not a git checkout, nothing is appended and the script exits 1.  SEED is ASCII
decimal digits.  Standard library only.
"""

import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("divisors", "certified", "diagrams")
SECONDS = 30
SPEED_PREFIX = "perfbench: speed factor "


def parse_run(stdout: str, stderr: str) -> dict:
    """The entry fields that one ``--trace 0`` run printed; ValueError if it failed or is unreadable."""
    lines = stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or result.get("correct") is not True:
        raise ValueError(f"the run did not report correct: true: {lines[-1:]}")
    for line in stderr.splitlines():
        if line.startswith(SPEED_PREFIX):
            low, _, high = line[len(SPEED_PREFIX):].split(";")[0].partition("..")
            speed = [float(low), float(high)]
            break
    else:
        raise ValueError("no speed factor line on stderr")
    for name in ("attempted", "failed", "metrics"):
        if name not in result:
            raise ValueError(f"the run's result has no {name!r} field")
    if not isinstance(result["metrics"], dict):
        raise ValueError(f"the run's 'metrics' is not an object: {result['metrics']!r}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric, dict) or "value" not in metric:
            raise ValueError(f"metric {name!r} is not an object with a 'value': {metric!r}")
    return {
        "speed_factor": speed,
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }


def run_workload(workload: str, seed: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True)


def commit() -> str | None:
    """HEAD's commit, with ``-dirty`` when tracked files differ from it; None
    when ``ROOT`` is not in a git checkout or git cannot be run."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode:
            return None
        dirty = git("diff", "--quiet", "HEAD").returncode
    except OSError:  # no git to run
        return None
    return head.stdout.strip() + ("-dirty" if dirty else "")


def main(argv: list[str]) -> int:
    # str.isdigit() also takes digits such as "²" and "٣", which int() reads or refuses.
    if len(argv) != 1 or not (argv[0].isascii() and argv[0].isdigit()):
        print("usage: trajectory.py SEED", file=sys.stderr)
        return 2
    seed = int(argv[0])
    if (revision := commit()) is None:
        print("trajectory: not a git checkout; nothing appended", file=sys.stderr)
        return 1
    head = {"commit": revision, "python": platform.python_version(), "seed": seed,
            "seconds": SECONDS}
    entries = {}
    for workload in WORKLOADS:
        done = run_workload(workload, seed)
        try:
            if done.returncode:
                raise ValueError(f"exit code {done.returncode}")
            entries[workload] = head | parse_run(done.stdout, done.stderr)
        except ValueError as e:
            sys.stderr.write(done.stderr)
            print(f"trajectory: {workload}: {e}; nothing appended", file=sys.stderr)
            return 1
    for workload, entry in entries.items():
        path = ROOT / f"BENCH_{workload}.json"
        history = json.loads(path.read_text()) if path.exists() else []
        history.append(entry)
        path.write_text(json.dumps(history, indent=1) + "\n")
        print(f"trajectory: appended to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
