import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "trajectory.py"
spec = importlib.util.spec_from_file_location("trajectory", SCRIPT)
trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trajectory)

# What `perfbench/run.py --workload certified --seed 1 --seconds 1 --trace 0` printed.
STDOUT = """\
{"correct": true, "attempted": 105, "failed": 0, "metrics": {"solve_p50_ms": {"value": 5.525264084107191, "unit": "ms"}, "solve_p90_ms": {"value": 14.767498389034902, "unit": "ms"}, "solves_per_s": {"value": 142.0106085374476, "unit": "1/s"}, "peak_rss_mb": {"value": 18.16796875, "unit": "MB"}, "setup_s": {"value": 0.0021910497059828907, "unit": "s"}, "cert_bits": {"value": 145.5, "unit": "bits"}}}
"""
STDERR = """\
perfbench: speed factor 0.901..1.498; unscaled p50 3.9768 ms, p90 11.3711 ms, 186.2994/s
perfbench: certified solve_p50_ms                                     5.5253 ms
perfbench: certified solve_p90_ms                                    14.7675 ms
perfbench: certified solves_per_s                                   142.0106 1/s
perfbench: certified peak_rss_mb                                     18.1680 MB
perfbench: certified setup_s                                          0.0022 s
perfbench: certified cert_bits                                      145.5000 bits
perfbench: 7 rounds of 15 invocations, 0 failing per round
"""
# Two results that read as JSON but lack what an entry needs.
NO_FIELDS = '{"correct": true}\n'
METRIC_NOT_OBJECT = STDOUT.replace('{"value": 145.5, "unit": "bits"}', "145.5")


def test_reads_a_captured_run():
    assert trajectory.parse_run(STDOUT, STDERR) == {
        "speed_factor": [0.901, 1.498],
        "correct": True,
        "attempted": 105,
        "failed": 0,
        "metrics": {
            "solve_p50_ms": 5.525264084107191,
            "solve_p90_ms": 14.767498389034902,
            "solves_per_s": 142.0106085374476,
            "peak_rss_mb": 18.16796875,
            "setup_s": 0.0021910497059828907,
            "cert_bits": 145.5,
        },
    }


@pytest.mark.parametrize("stdout, stderr", [
    (STDOUT.replace('"correct": true', '"correct": false'), STDERR),
    ("", STDERR),
    ("perfbench: no result\n", STDERR),
    (STDOUT, STDERR.splitlines(keepends=True)[-1]),
    (NO_FIELDS, STDERR),
    (METRIC_NOT_OBJECT, STDERR),
], ids=["incorrect", "no-stdout", "not-json", "no-speed-factor", "no-fields", "metric-not-object"])
def test_a_failed_or_unreadable_run_is_refused(stdout, stderr):
    with pytest.raises(ValueError):
        trajectory.parse_run(stdout, stderr)


@pytest.mark.parametrize("stdout, message", [
    (NO_FIELDS, "no 'attempted' field"),
    (METRIC_NOT_OBJECT, "metric 'cert_bits' is not an object"),
], ids=["no-fields", "metric-not-object"])
def test_a_malformed_run_ends_in_a_refusal_not_a_traceback(monkeypatch, tmp_path, capsys, stdout, message):
    def run_workload(workload, seed):
        return subprocess.CompletedProcess([], 0, stdout if workload == "certified" else STDOUT, STDERR)

    monkeypatch.setattr(trajectory, "ROOT", tmp_path)
    monkeypatch.setattr(trajectory, "commit", lambda: "0" * 40)
    monkeypatch.setattr(trajectory, "run_workload", run_workload)
    assert trajectory.main(["7"]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("trajectory: certified: ") and last.endswith("; nothing appended")
    assert message in last
    assert list(tmp_path.iterdir()) == []


def test_appends_one_entry_per_workload_only_when_every_run_passes(monkeypatch, tmp_path, capsys):
    codes = {}

    def run_workload(workload, seed):
        return subprocess.CompletedProcess([], codes.get(workload, 0), STDOUT, STDERR)

    monkeypatch.setattr(trajectory, "ROOT", tmp_path)
    monkeypatch.setattr(trajectory, "commit", lambda: "0" * 40)
    monkeypatch.setattr(trajectory, "run_workload", run_workload)
    assert trajectory.main(["7"]) == 0
    assert trajectory.main(["8"]) == 0
    for workload in trajectory.WORKLOADS:
        history = json.loads((tmp_path / f"BENCH_{workload}.json").read_text())
        assert [entry["seed"] for entry in history] == [7, 8]
        assert history[0]["commit"] == "0" * 40
        assert history[0]["seconds"] == 30
        assert history[0]["metrics"]["cert_bits"] == 145.5

    codes["diagrams"] = 1
    before = {p.name: p.read_text() for p in tmp_path.iterdir()}
    assert trajectory.main(["9"]) == 1
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == before
    assert "diagrams: exit code 1; nothing appended" in capsys.readouterr().err
    assert trajectory.main(["x"]) == 2


def refuse_runs(workload, seed):
    raise AssertionError(f"the benchmark ran: {workload} {seed}")


@pytest.mark.parametrize("seed", ["²", "٣", "3x", "-1", ""])
def test_a_seed_not_in_ascii_digits_is_a_usage_error(monkeypatch, tmp_path, capsys, seed):
    monkeypatch.setattr(trajectory, "ROOT", tmp_path)
    monkeypatch.setattr(trajectory, "commit", lambda: "0" * 40)
    monkeypatch.setattr(trajectory, "run_workload", refuse_runs)
    assert trajectory.main([seed]) == 2
    assert capsys.readouterr().err == "usage: trajectory.py SEED\n"
    assert list(tmp_path.iterdir()) == []


def fake_git(monkeypatch, tmp_path, script: str) -> None:
    """Put a ``git`` that runs the shell ``script`` first on PATH."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    git = bin_dir / "git"
    git.write_text("#!/bin/sh\n" + script)
    git.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")


@pytest.mark.skipif(os.name != "posix", reason="the stub git is a shell script")
@pytest.mark.parametrize("git", ["fails", "missing"])
def test_outside_a_git_checkout_nothing_runs_or_is_appended(monkeypatch, tmp_path, capsys, git):
    if git == "fails":
        fake_git(monkeypatch, tmp_path, "echo 'fatal: not a git repository' >&2\nexit 128\n")
    else:
        monkeypatch.setenv("PATH", str(tmp_path / "no-such-dir"))
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    monkeypatch.setattr(trajectory, "ROOT", checkout)
    monkeypatch.setattr(trajectory, "run_workload", refuse_runs)
    assert trajectory.commit() is None
    assert trajectory.main(["7"]) == 1
    assert capsys.readouterr().err == "trajectory: not a git checkout; nothing appended\n"
    assert list(checkout.iterdir()) == []


@pytest.mark.skipif(os.name != "posix", reason="the stub git is a shell script")
@pytest.mark.parametrize("diff_code, expected", [(0, "ab12"), (1, "ab12-dirty")])
def test_commit_marks_a_dirty_checkout(monkeypatch, tmp_path, diff_code, expected):
    fake_git(monkeypatch, tmp_path, f'[ "$1" = rev-parse ] && echo ab12 && exit 0\nexit {diff_code}\n')
    monkeypatch.setattr(trajectory, "ROOT", tmp_path)
    assert trajectory.commit() == expected
