import io
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlk.cli as cli
from hlk.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SELFTEST,
    EXIT_USAGE,
    CliConfig,
    detect_format,
    main,
    run,
)
from conftest import FIXTURES
from hlk import SplitMix64
from hlk.exactla import IntMatrix, _significant_lines, format_matrix, parse_matrix

ROOT = Path(__file__).resolve().parents[1]
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
WORKED_TEXT = "matrix 3 4\n-1 -1 0 2\n1 -3 -2 0\n0 0 2 -2\n"
# A diagram whose one crossing leaves an odd sum between the components.
ODD_TEXT = "component h1\nloop a\ncomponent h2\nloop b\ncrossing a b +\n"


def process_env():
    """The environment for an ``hlk`` process that imports the package from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_config(config, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(config, stdin=io.StringIO(stdin_text), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_main(argv, stdin_text="", monkeypatch=None, capsys=None):
    if stdin_text:
        # main reads the bytes under sys.stdin, as in a process.
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin_text.encode())))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDetectFormat:
    def test_diagram(self):
        assert detect_format("component h1\n") == "diagram"

    def test_matrix(self):
        assert detect_format("matrix 1 1\n5\n") == "matrix"

    def test_leading_comments_skipped(self):
        assert detect_format("# note\n\n  matrix 1 1\n5\n") == "matrix"

    def test_unknown(self):
        assert detect_format("knot 3 1\n") is None
        assert detect_format("") is None
        assert detect_format("# only comments\n") is None

    @staticmethod
    def full_text_sniff(text):
        for _, tokens in _significant_lines(text):
            return {"component": "diagram", "matrix": "matrix"}.get(tokens[0])
        return None

    @pytest.mark.parametrize("body", ["component h", "componentx", "matrix 1 1", "#matrix\nmatrix"])
    @pytest.mark.parametrize("filler", ["\n", " ", "#\r\n", "\x0b", "\u2028", "#\u3000"])
    def test_first_line_across_every_prefix_boundary(self, body, filler):
        for repeat in range(300 // len(filler)):
            text = filler * repeat + body
            assert detect_format(text) == self.full_text_sniff(text), repr(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.text(alphabet=" \t\u3000\r\n\x0b\u2028#ab", max_size=40),
                st.sampled_from(["component", "matrix", "\r\n"]),
            ),
            max_size=20,
        ).map("".join)
    )
    def test_matches_the_full_text_scanner(self, text):
        assert detect_format(text) == self.full_text_sniff(text)

    def test_reads_a_prefix_only(self):
        stops = []

        class Recording(str):
            def __getitem__(self, key):
                stops.append(key.stop)
                return str.__getitem__(self, key)

        text = Recording("# note\ncomponent h1\n" + "crossing a b +\n" * 100_000)
        assert detect_format(text) == "diagram"
        assert stops and max(stops) < 100
        # Two of the three diagram fixtures open with a comment longer than the first slice.
        header = ("# " + "x" * 220 + "\n") * 2
        stops.clear()
        text = Recording(header + "component h1\nloop a\ncomponent h2\nloop b\n" + "crossing a b +\n" * 80_000)
        assert len(header) == 446 and detect_format(text) == "diagram"
        assert stops and max(stops) < 2048


class TestInvariantCommand:
    def test_from_matrix_file(self, fixtures_dir, capsys):
        assert main(["invariant", str(fixtures_dir / "worked_example.mat")]) == EXIT_OK
        assert capsys.readouterr().out == "Lk = {1, 2, 4}\n"

    def test_from_diagram_file(self, fixtures_dir, capsys):
        assert main(["invariant", str(fixtures_dir / "worked_example.hlk")]) == EXIT_OK
        assert capsys.readouterr().out == "Lk = {1, 2, 4}\n"

    def test_hopf_and_separated(self, fixtures_dir, capsys):
        assert main(["invariant", str(fixtures_dir / "hopf.hlk")]) == EXIT_OK
        assert capsys.readouterr().out == "Lk = {1}\n"
        assert main(["invariant", str(fixtures_dir / "separated.hlk")]) == EXIT_OK
        assert capsys.readouterr().out == "Lk = {0}\n"

    def test_stdin_dash(self):
        code, out, err = run_config(CliConfig("invariant", "-"), WORKED_TEXT)
        assert (code, out, err) == (EXIT_OK, "Lk = {1, 2, 4}\n", "")

    def test_stdin_default_path(self):
        code, out, _ = run_config(CliConfig("invariant"), "matrix 1 1\n-7\n")
        assert (code, out) == (EXIT_OK, "Lk = {7}\n")

    def test_main_reads_stdin(self, monkeypatch, capsys):
        code, out, err = run_main(["invariant"], WORKED_TEXT, monkeypatch, capsys)
        assert (code, out) == (EXIT_OK, "Lk = {1, 2, 4}\n")

    def test_many_crossings_are_fast(self):
        # 80,000 crossings on two loops a side: noise that cancels pair by pair,
        # then the planted linking matrix diag(2, 6).
        rng = SplitMix64(80)
        lines = ["component h1", "loop e0", "loop e1", "component h2", "loop f0", "loop f1"]
        planted = [(0, 0)] * 2 + [(1, 1)] * 6
        for _ in range((40_000 - len(planted)) // 2):
            i, j = rng.below(2), rng.below(2)
            for sign in "+-":
                lines += [f"crossing e{i} f{j} {sign}", f"crossing f{j} e{i} {sign}"]
        lines += [f"crossing {over} +" for i, j in planted for over in (f"e{i} f{j}", f"f{j} e{i}")]
        text = "\n".join(lines) + "\n"
        assert text.count("crossing") == 80_000
        start = time.perf_counter()
        assert run_config(CliConfig("invariant"), text) == (EXIT_OK, "Lk = {2, 6}\n", "")
        assert time.perf_counter() - start < 2.0

    def test_byte_identical_reruns(self, fixtures_dir, capsys):
        main(["invariant", str(fixtures_dir / "worked_example.hlk")])
        first = capsys.readouterr()
        main(["invariant", str(fixtures_dir / "worked_example.hlk")])
        second = capsys.readouterr()
        assert first.out == second.out and first.err == second.err == ""


class TestMatrixCommand:
    def test_prints_matrix_format(self, fixtures_dir, capsys):
        assert main(["matrix", str(fixtures_dir / "worked_example.hlk")]) == EXIT_OK
        assert capsys.readouterr().out == WORKED_TEXT

    def test_round_trip_through_invariant(self, fixtures_dir):
        code, out, _ = run_config(CliConfig("matrix", str(fixtures_dir / "worked_example.hlk")))
        assert code == EXIT_OK
        code, via_matrix, _ = run_config(CliConfig("invariant", "-"), out)
        assert code == EXIT_OK
        code, via_diagram, _ = run_config(
            CliConfig("invariant", str(fixtures_dir / "worked_example.hlk"))
        )
        assert via_matrix == via_diagram

    def test_rejects_matrix_input(self, fixtures_dir, capsys):
        assert main(["matrix", str(fixtures_dir / "worked_example.mat")]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "diagram" in captured.err


class TestGroupsCommand:
    def test_worked_example(self, fixtures_dir, capsys):
        assert main(["groups", str(fixtures_dir / "worked_example.mat")]) == EXIT_OK
        assert capsys.readouterr().out == (
            "A1 = Z^0 (+) Z/2 (+) Z/4\nA2 = Z^1 (+) Z/2 (+) Z/4\nl = 3\n"
        )

    def test_separated(self, fixtures_dir, capsys):
        assert main(["groups", str(fixtures_dir / "separated.hlk")]) == EXIT_OK
        assert capsys.readouterr().out == "A1 = Z^2\nA2 = Z^3\nl = 0\n"

    def test_width_zero_header_builds_no_rows(self, monkeypatch):
        def refuse(self):
            raise AssertionError("to_rows called on a matrix with no entries")

        monkeypatch.setattr(IntMatrix, "to_rows", refuse)
        code, out, err = run_config(CliConfig("groups"), "matrix 1000000000000 0\n")
        assert (code, err) == (EXIT_OK, "")
        assert out == "A1 = Z^1000000000000\nA2 = 0\nl = 0\n"


class TestSnfCommand:
    def test_blocks_parse_and_verify(self, fixtures_dir, capsys):
        assert main(["snf", str(fixtures_dir / "worked_example.mat")]) == EXIT_OK
        out = capsys.readouterr().out
        blocks = {}
        label = None
        for line in out.splitlines():
            if line.startswith("# "):
                label = line[2:]
                blocks[label] = []
            else:
                blocks[label].append(line)
        assert set(blocks) == {"D", "U", "V"}
        d = parse_matrix("\n".join(blocks["D"]))
        u = parse_matrix("\n".join(blocks["U"]))
        v = parse_matrix("\n".join(blocks["V"]))
        m = parse_matrix(WORKED_TEXT)
        assert u @ m @ v == d
        assert [d.entry(i, i) for i in range(3)] == [1, 2, 4]

    def test_accepts_diagram_input(self, fixtures_dir, capsys):
        assert main(["snf", str(fixtures_dir / "hopf.hlk")]) == EXIT_OK
        assert "# D\nmatrix 1 1\n1\n" in capsys.readouterr().out

    def test_size_limit(self, monkeypatch):
        # Records shapes only: a failure report must not print a 10^12-row matrix.
        reduced = []
        monkeypatch.setattr(cli, "smith_normal_form", lambda m: reduced.append(m.shape))
        limit = f"at most {cli._SNF_MAX_DIM} rows and {cli._SNF_MAX_DIM} columns"
        for text in ("matrix 1000000000000 0\n", f"matrix 0 {cli._SNF_MAX_DIM + 1}\n"):
            code, out, err = run_config(CliConfig("snf"), text)
            assert (code, out) == (EXIT_PARSE, "")
            assert limit in err
        assert reduced == []
        code, out, _ = run_config(CliConfig("invariant"), "matrix 1000000000000 0\n")
        assert (code, out) == (EXIT_OK, "Lk = {0}\n")

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                (Path(__file__).resolve().parents[1] / "fixtures" / "worked_example.mat").read_text(),
                "# D\nmatrix 3 4\n1 0 0 0\n0 2 0 0\n0 0 4 0\n"
                "# U\nmatrix 3 3\n-1 0 0\n0 0 1\n1 1 3\n"
                "# V\nmatrix 4 4\n1 1 1 2\n0 1 -1 0\n0 2 0 1\n0 1 0 1\n",
            ),
            (
                # Rank 2, and the chain repair turns diag(3, 1) into diag(1, 3).
                "matrix 3 5\n-3 3 -9 0 -9\n0 -1 4 -2 5\n-3 2 -5 -2 -4\n",
                "# D\nmatrix 3 5\n1 0 0 0 0\n0 3 0 0 0\n0 0 0 0 0\n"
                "# U\nmatrix 3 3\n0 -1 0\n0 -1 1\n1 1 -1\n"
                "# V\nmatrix 5 5\n1 -1 1 -2 2\n1 0 4 -2 5\n0 0 1 0 0\n0 0 0 1 0\n0 0 0 0 1\n",
            ),
            ("matrix 2 0\n", "# D\nmatrix 2 0\n# U\nmatrix 2 2\n1 0\n0 1\n# V\nmatrix 0 0\n"),
            ("matrix 0 2\n", "# D\nmatrix 0 2\n# U\nmatrix 0 0\n# V\nmatrix 2 2\n1 0\n0 1\n"),
        ],
        ids=["worked-example", "3x5-rank-2", "2x0", "0x2"],
    )
    def test_pinned_certificates(self, text, expected):
        # U and V are deterministic; these texts were taken from an earlier
        # release of the reduction, so a refactor must print them unchanged.
        # The worked example's V and the 3x5 case's U were taken again once
        # the kernel part was size-reduced.
        assert run_config(CliConfig("snf"), text) == (EXIT_OK, expected, "")

    def test_size_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "_SNF_MAX_DIM", 3)
        identity = "matrix 3 3\n1 0 0\n0 1 0\n0 0 1\n"
        expected = "".join(f"# {label}\n{identity}" for label in "DUV")
        assert run_config(CliConfig("snf"), identity) == (EXIT_OK, expected, "")
        assert run_config(CliConfig("snf"), "matrix 4 0\n")[:2] == (EXIT_PARSE, "")

    def test_failed_formatting_writes_nothing(self, monkeypatch):
        calls = []

        def format_or_fail(m):
            calls.append(m)
            if len(calls) == 3:
                raise ValueError("Exceeds the limit for integer string conversion")
            return format_matrix(m)

        monkeypatch.setattr(cli, "format_matrix", format_or_fail)
        out = io.StringIO()
        with pytest.raises(ValueError, match="integer string conversion"):
            run(CliConfig("snf"), stdin=io.StringIO(WORKED_TEXT), out=out, err=io.StringIO())
        assert len(calls) == 3
        assert out.getvalue() == ""


@pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() has no digit limit here")
class TestLongResults:
    # Each entry has 3,000 digits, within the parser's limit; the second
    # divisor has about 6,000, beyond the limit Python applies to str(int).
    X = int("7" + "1" * 2999)
    Y = int("3" * 3000)
    TEXT = f"matrix 2 2\n{X} 0\n0 {Y}\n"

    @pytest.mark.parametrize("subcommand", ["invariant", "groups", "snf"])
    def test_results_beyond_the_digit_limit_print_exactly(self, subcommand):
        code, out, err = run_config(CliConfig(subcommand), self.TEXT)
        assert sys.get_int_max_str_digits() == INT_DIGIT_LIMIT
        assert (code, err) == (EXIT_OK, "")
        # The chain is (g, XY/g) with g = gcd(X, Y).
        g = math.gcd(self.X, self.Y)
        sys.set_int_max_str_digits(0)
        try:
            last = str(self.X * self.Y // g)
        finally:
            sys.set_int_max_str_digits(INT_DIGIT_LIMIT)
        assert len(last) > INT_DIGIT_LIMIT
        groups = f"Z^0 (+) Z/{g} (+) Z/{last}"
        expected = {
            "invariant": f"Lk = {{{g}, {last}}}\n",
            "groups": f"A1 = {groups}\nA2 = {groups}\nl = 2\n",
            "snf": f"# D\nmatrix 2 2\n{g} 0\n0 {last}\n# U\n",
        }[subcommand]
        assert out.startswith(expected)


class TestSelftestCommand:
    def test_passes(self, capsys):
        assert main(["selftest", "--trials", "25", "--seed", "5"]) == EXIT_OK
        assert capsys.readouterr().out == "25/25 passed\n"

    def test_verbose(self, capsys):
        assert main(["selftest", "--trials", "3", "--verbose"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "3/3 passed\n"
        assert len(captured.err.splitlines()) == 3

    def test_failure_exit_code(self, monkeypatch, capsys):
        # cli.run imports run_selftest when it runs the self-test.
        monkeypatch.setattr("hlk.selftest.run_selftest", lambda *a, **k: 2)
        assert main(["selftest", "--trials", "10"]) == EXIT_SELFTEST

    def test_trials_must_be_positive(self, capsys):
        assert main(["selftest", "--trials", "0"]) == EXIT_USAGE
        assert "at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [True, 1.5])
    def test_run_refuses_a_seed_that_is_not_an_int(self, seed):
        with pytest.raises(TypeError, match="^seed must be an int"):
            run_config(CliConfig("selftest", trials=1, seed=seed))


HLK_USAGE = "usage: hlk [-h] subcommand ...\n"


class TestExitCodes:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE
        message = "the following arguments are required: subcommand"
        assert capsys.readouterr() == ("", f"{HLK_USAGE}hlk: error: {message}\n")

    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == EXIT_USAGE

    def test_run_refuses_an_unknown_subcommand_before_reading(self):
        class Unreadable:
            def read(self):
                raise AssertionError("read the input of an unknown subcommand")

        out, err = io.StringIO(), io.StringIO()
        assert run(CliConfig("bogus"), stdin=Unreadable(), out=out, err=err) == EXIT_USAGE
        assert (out.getvalue(), err.getvalue()) == ("", "hlk: error: unknown subcommand 'bogus'\n")

    def test_bad_flag_value(self, capsys):
        # Flag integers follow the grammar of matrix entries, ASCII [+-]?[0-9]+.
        for flag, value in [
            ("--trials", "abc"),
            ("--trials", "1_0"),
            ("--trials", "\u0663"),
            ("--trials", " 2 "),
            ("--trials", "1 2"),
            ("--seed", "+0_1"),
        ]:
            assert main(["selftest", flag, value]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(f"hlk selftest: error: argument {flag}: invalid int value: {value!r}\n")

    def test_signed_flag_values(self, capsys):
        assert main(["selftest", "--trials", "+2", "--seed", "-7"]) == EXIT_OK
        assert capsys.readouterr().out == "2/2 passed\n"

    def test_unknown_flag(self, capsys):
        assert main(["invariant", "--frobnicate"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"{HLK_USAGE}hlk: error: unrecognized arguments: --frobnicate\n")

    def test_second_path(self, capsys):
        assert main(["invariant", "a", "b"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"{HLK_USAGE}hlk: error: unrecognized arguments: b\n")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith(HLK_USAGE)
        assert "subcommand" in captured.out and captured.err == ""

    def test_selftest_help(self, capsys):
        assert main(["selftest", "--help"]) == EXIT_OK
        captured = capsys.readouterr()
        usage = "usage: hlk selftest [-h] [--trials TRIALS] [--seed SEED] [--verbose]\n"
        assert captured.out.startswith(usage) and captured.err == ""

    @pytest.mark.parametrize("argv, passed", [
        (["selftest", "--trials=3", "--seed=-7"], "3/3"),
        (["selftest", "--tri", "2"], "2/2"),
    ], ids=["equals-sign", "abbreviation"])
    def test_flag_spellings(self, capsys, argv, passed):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == (f"{passed} passed\n", "")

    @pytest.mark.parametrize("flag", ["--trials", "--seed"])
    def test_a_flag_value_of_two_dashes(self, capsys, flag):
        # argparse before Python 3.13 stored [] for it, which failed in run.
        assert main(["selftest", f"{flag}=--"]) == EXIT_USAGE
        usage = "usage: hlk selftest [-h] [--trials TRIALS] [--seed SEED] [--verbose]\n"
        assert capsys.readouterr() == ("", f"{usage}hlk selftest: error: argument {flag}: invalid int value: '--'\n")

    def test_missing_file(self, capsys):
        assert main(["invariant", "/nonexistent/path.hlk"]) == EXIT_USAGE
        assert capsys.readouterr().err != ""

    def test_unrecognized_format(self):
        code, out, err = run_config(CliConfig("invariant"), "garbage here\n")
        assert (code, out) == (EXIT_PARSE, "")
        assert "neither" in err

    def test_empty_input(self):
        code, _, _ = run_config(CliConfig("invariant"), "")
        assert code == EXIT_PARSE

    def test_matrix_parse_error(self):
        code, _, err = run_config(CliConfig("invariant"), "matrix 2 2\n1 2\n")
        assert code == EXIT_PARSE
        assert "error" in err

    @pytest.mark.parametrize(
        "text",
        [
            "matrix 1 1\n\u0663\n",
            "matrix 1 1\n\uff13\n",
            "matrix 1 2\n1_0 4\n",
            "matrix \u0661 1\n3\n",
            "matrix 1 \uff11\n3\n",
            "matrix 1_0 2\n",
        ],
    )
    def test_non_ascii_integers_are_parse_errors(self, text):
        code, out, err = run_config(CliConfig("invariant"), text)
        assert (code, out) == (EXIT_PARSE, "")
        assert "line " in err

    def test_diagram_parse_error(self):
        code, _, err = run_config(CliConfig("invariant"), "component h1\nloop a\n")
        assert code == EXIT_PARSE

    def test_invalid_diagram(self):
        code, _, err = run_config(CliConfig("invariant"), ODD_TEXT)
        assert code == EXIT_INVALID
        assert "odd" in err

    def test_crossings_within_one_component_are_ignored(self):
        # (a, c) has an odd sum, but both loops belong to h1: no exit 3.
        text = ("component h1\nloop a\nloop c\ncomponent h2\nloop b\n"
                "crossing a c +\ncrossing a b +\ncrossing b a +\n")
        assert run_config(CliConfig("invariant"), text) == (EXIT_OK, "Lk = {1}\n", "")

    @pytest.mark.parametrize("subcommand, target", [
        ("groups", "read"), ("invariant", "parse_matrix"),
        ("invariant", "handlebody_linking"), ("snf", "format_matrix"), ("invariant", "write"),
    ])
    def test_out_of_memory_is_a_parse_error(self, monkeypatch, subcommand, target):
        # Reading, parsing, reducing, formatting and writing each report it without a traceback.
        def exhaust(*args):
            raise MemoryError

        stdin, out, err = io.StringIO(WORKED_TEXT), io.StringIO(), io.StringIO()
        if target == "read":
            stdin.read = exhaust
        elif target == "write":
            out.write = exhaust
        else:
            monkeypatch.setattr(cli, target, exhaust)
        assert run(CliConfig(subcommand), stdin=stdin, out=out, err=err) == EXIT_PARSE
        assert out.getvalue() == ""
        assert err.getvalue() == f"hlk {subcommand}: error: the input is too large for memory\n"

    def test_diagnostics_go_to_stderr(self):
        code, out, err = run_config(CliConfig("groups"), "nonsense\n")
        assert code == EXIT_PARSE and out == "" and err != ""

    def test_undecodable_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_bytes(b"matrix 1 1\n\xff\n")
        code, out, err = run_config(CliConfig("invariant", str(path)))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("hlk invariant: error: input is not UTF-8: ")

    def test_undecodable_stdin_is_a_parse_error(self):
        raw = io.BytesIO(b"matrix 1 1\n\xff\n")
        stdin = io.TextIOWrapper(raw, encoding="utf-8", errors="strict")
        out, err = io.StringIO(), io.StringIO()
        assert run(CliConfig("groups"), stdin=stdin, out=out, err=err) == EXIT_PARSE
        assert out.getvalue() == ""
        assert "input is not UTF-8" in err.getvalue()

    @pytest.mark.parametrize("setting", [("LC_ALL", "C"), ("PYTHONIOENCODING", "latin-1")], ids="=".join)
    def test_undecodable_process_stdin_is_a_parse_error(self, setting):
        # Under either setting the process's text stdin would accept these bytes.
        env = process_env()
        env[setting[0]] = setting[1]
        done = subprocess.run([sys.executable, "-m", "hlk.cli", "invariant", "-"], env=env,
                              input=b"matrix 1 1\n5\n# caf\xe9\n", capture_output=True, timeout=60)
        assert (done.returncode, done.stdout) == (EXIT_PARSE, b"")
        assert done.stderr.startswith(b"hlk invariant: error: input is not UTF-8")

    def test_closed_process_stdin_is_a_usage_error(self):
        # With descriptor 0 closed, Python starts with sys.stdin set to None.
        env = process_env()
        done = subprocess.run(["sh", "-c", 'exec "$0" -m hlk.cli invariant - <&-', sys.executable],
                              env=env, capture_output=True, timeout=60)
        assert (done.returncode, done.stdout) == (EXIT_USAGE, b"")
        assert done.stderr == b"hlk invariant: error: standard input is closed\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("argv", [
        ["invariant", "worked_example.mat"], ["groups", "worked_example.hlk"],
        ["snf", "worked_example.mat"], ["matrix", "hopf.hlk"], ["selftest", "--trials", "3"],
    ], ids=lambda argv: argv[0])
    def test_process_stdout_on_a_full_device_is_a_usage_error(self, fixtures_dir, argv):
        # Every write to /dev/full fails with ENOSPC.
        argv = [str(fixtures_dir / arg) if "." in arg else arg for arg in argv]
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "hlk.cli", *argv], env=process_env(),
                                  stdout=full, stderr=subprocess.PIPE, timeout=60)
        assert done.returncode == EXIT_USAGE
        prefix = f"hlk {argv[0]}: error: cannot write the result: "
        assert done.stderr.decode().startswith(prefix) and done.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize("config", [CliConfig("invariant"), CliConfig("snf"), CliConfig("selftest", trials=2)],
                             ids=lambda config: config.subcommand)
    def test_write_error_is_a_usage_error(self, method, config):
        def refuse(*args):
            raise OSError(28, "No space left on device")

        out, err = io.StringIO(), io.StringIO()
        setattr(out, method, refuse)
        assert run(config, stdin=io.StringIO(WORKED_TEXT), out=out, err=err) == EXIT_USAGE
        prog = f"hlk {config.subcommand}"
        assert err.getvalue() == f"{prog}: error: cannot write the result: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("config, text, code", [
        (CliConfig("invariant"), "matrix 2 2\n1 2\n", EXIT_PARSE),
        (CliConfig("invariant"), ODD_TEXT, EXIT_INVALID),
        (CliConfig("selftest", trials=3, verbose=True), "", EXIT_OK),
    ], ids=["parse", "invalid", "selftest"])
    def test_unwritable_diagnostic_changes_no_exit_code(self, config, text, code):
        def refuse(*args):
            raise OSError(28, "No space left on device")

        out, err = io.StringIO(), io.StringIO()
        err.write = refuse
        assert run(config, stdin=io.StringIO(text), out=out, err=err) == code
        assert out.getvalue() == run_config(config, text)[1]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("argv, text, expected", [
        (["invariant"], "matrix 2 2\n1 2\n", (EXIT_PARSE, b"")),
        (["invariant"], ODD_TEXT, (EXIT_INVALID, b"")),
        (["selftest", "--trials", "3", "--verbose"], "", (EXIT_OK, b"3/3 passed\n")),
        # Stdout on the full device as well: the result's write error decides.
        (["invariant"], WORKED_TEXT, (EXIT_USAGE, None)),
    ], ids=["parse", "invalid", "selftest", "result"])
    def test_process_stderr_on_a_full_device_changes_no_exit_code(self, argv, text, expected):
        with open("/dev/full", "w") as full:
            stdout = full if expected[1] is None else subprocess.PIPE
            done = subprocess.run([sys.executable, "-m", "hlk.cli", *argv], env=process_env(),
                                  input=text.encode(), stdout=stdout, stderr=full, timeout=60)
        assert (done.returncode, done.stdout) == expected

    def test_processes_run_clean_in_development_mode(self, fixtures_dir):
        # -X dev reports unclosed files and other resource warnings; -W error
        # turns them, and deprecation warnings, into failures.
        runs = [(["invariant", "-"], WORKED_TEXT.encode()), (["selftest", "--trials", "20"], b"")]
        # main imports argparse when it is called, not with the module.
        runs += [(["--help"], b""), (["selftest", "--help"], b"")]
        for path in sorted(fixtures_dir.iterdir()):
            subs = ["invariant", "groups", "snf"] + (["matrix"] if path.suffix == ".hlk" else [])
            runs += [([sub, str(path)], b"") for sub in subs]
        hlk = [sys.executable, "-X", "dev", "-W", "error", "-m", "hlk.cli"]
        for argv, data in runs:
            done = subprocess.run([*hlk, *argv], env=process_env(), input=data, capture_output=True, timeout=60)
            assert (done.returncode, done.stderr) == (EXIT_OK, b""), argv
        done = subprocess.run([*hlk, "selftest", "--trials", "x"], env=process_env(), capture_output=True, timeout=60)
        assert (done.returncode, done.stdout) == (EXIT_USAGE, b"")
        assert done.stderr.endswith(b"hlk selftest: error: argument --trials: invalid int value: 'x'\n")


# --- the input layer as a whole ---------------------------------------------

# Lines of a head word and up to three arguments.  The gaps and breaks include
# separators that str.split or str.splitlines know and the documented grammar
# does not, so the sniff and both parsers meet the same odd text.
HEADS = ["matrix", "component", "loop", "crossing", "#", "1", "-3"]
ARGS = ["a", "b", "+", "-", "#", *"0123456789", "-3", "+12"]
GAPS = [" ", " ", " ", "  ", "\t", "\x0c", "\x1c", "\u3000"]
BREAKS = ["\n", "\n", "\n", "\r", "\r\n", "\x0b", "\x85"]
LINES = st.tuples(
    st.sampled_from(HEADS),
    st.lists(st.tuples(st.sampled_from(GAPS), st.sampled_from(ARGS)), max_size=3),
    st.sampled_from(BREAKS),
).map(lambda line: line[0] + "".join(gap + arg for gap, arg in line[1]) + line[2])
TEXTS = st.lists(LINES, max_size=8).map(lambda lines: "".join(lines)[:80])


class TestInputLayer:
    @pytest.mark.parametrize("subcommand", ["invariant", "matrix"])
    @pytest.mark.parametrize(
        "text", ["matrix\t1 1\n5\n", "component\th1\n", "component\u3000h1\n"]
    )
    def test_sniff_and_parsers_agree(self, subcommand, text):
        code, out, err = run_config(CliConfig(subcommand), text)
        assert (code, out) == (EXIT_PARSE, "")
        assert "neither a diagram nor a matrix file" in err

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["invariant", "groups", "matrix", "snf"]), TEXTS)
    def test_any_text_ends_in_a_documented_exit_code(self, subcommand, text):
        code, out, err = run_config(CliConfig(subcommand), text)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_INVALID)
        if code == EXIT_OK:
            assert err == ""
        else:
            assert out == "" and err.startswith(f"hlk {subcommand}: error: ")


# Files and the process's standard input go through one decode: strict UTF-8
# bytes with no newline translation.  Lines end where the scanner ends them.
BOM = "\ufeff".encode()
INPUTS = {
    "worked_example.hlk": (FIXTURES / "worked_example.hlk").read_bytes(),
    "worked_example.mat": (FIXTURES / "worked_example.mat").read_bytes(),
    "parse_error.hlk": b"component h1\nloop e1\n\n# e1 only\ncomponent h2\nloop f1\ncrossing e1 f1 *\n",
    "undecodable.mat": b"matrix 1 1\n# caf\xe9\n5\n",
}


class TestFilesAndStdin:
    @staticmethod
    def outcomes(monkeypatch, path, data):
        """``(code, stdout, stderr)`` of each subcommand, from the file, then from stdin."""
        path.write_bytes(data)
        from_file, from_stdin = [], []
        for subcommand in ["invariant", "groups", "matrix", "snf"]:
            from_file.append(run_config(CliConfig(subcommand, str(path))))
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            out, err = io.StringIO(), io.StringIO()
            from_stdin.append((run(CliConfig(subcommand), out=out, err=err), out.getvalue(), err.getvalue()))
        return from_file, from_stdin

    @pytest.mark.parametrize("brk", ["\r\n", "\r"], ids=repr)
    @pytest.mark.parametrize("name", INPUTS)
    def test_files_and_stdin_agree(self, monkeypatch, tmp_path, name, brk):
        lf_file, lf_stdin = self.outcomes(monkeypatch, tmp_path / name, INPUTS[name])
        from_file, from_stdin = self.outcomes(monkeypatch, tmp_path / name, INPUTS[name].replace(b"\n", brk.encode()))
        assert from_file == from_stdin
        assert lf_file == lf_stdin
        # invariant, groups, matrix and snf; matrix takes only a diagram file.
        assert [code for code, _, _ in from_file] == {
            "worked_example.hlk": [EXIT_OK] * 4,
            "worked_example.mat": [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK],
            "parse_error.hlk": [EXIT_PARSE] * 4,
            "undecodable.mat": [EXIT_PARSE] * 4,
        }[name]
        if name == "undecodable.mat":
            assert all(": error: input is not UTF-8: " in err for _, _, err in from_file)
        else:
            # The same lines, so the same results and the same line numbers in errors.
            assert from_file == lf_file
        if name == "parse_error.hlk":
            assert all(": error: line 7: " in err for _, _, err in from_file)

    @pytest.mark.parametrize("name", ["worked_example.hlk", "worked_example.mat"])
    def test_a_leading_byte_order_mark_is_skipped(self, monkeypatch, tmp_path, name):
        plain = self.outcomes(monkeypatch, tmp_path / name, INPUTS[name])
        marked = self.outcomes(monkeypatch, tmp_path / name, BOM + INPUTS[name])
        assert marked == plain
        from_file, from_stdin = marked
        assert from_file == from_stdin
        assert from_file[0][:2] == (EXIT_OK, "Lk = {1, 2, 4}\n")

    @pytest.mark.parametrize("mark", [b"", BOM], ids=["plain", "marked"])
    @pytest.mark.parametrize("body, what", [
        (b"matrix 1 1\n\xff\n", "byte 0xff in position {}: invalid start byte"),
        (b"matrix 1 1\n\xe2\x82\n", "bytes in position {}-{}: invalid continuation byte"),
    ], ids=["one-byte", "two-bytes"])
    def test_a_decode_error_gives_its_offset_in_the_input(self, monkeypatch, tmp_path, mark, body, what):
        # The bad bytes start at offset 11 of the body, so 14 behind a mark.
        start = 11 + len(mark)
        reason = what.format(start, start + 1)
        for outcomes in self.outcomes(monkeypatch, tmp_path / "bad.mat", mark + body):
            assert [(code, out) for code, out, _ in outcomes] == [(EXIT_PARSE, "")] * 4
            assert [err.split(": error: ", 1)[1] for _, _, err in outcomes] == [
                f"input is not UTF-8: 'utf-8' codec can't decode {reason}\n"] * 4

    def test_a_later_byte_order_mark_is_text(self, monkeypatch, tmp_path):
        data = WORKED_TEXT.encode()
        for marked in (data[:1] + BOM + data[1:], BOM + BOM + data):
            from_file, from_stdin = self.outcomes(monkeypatch, tmp_path / "marked.mat", marked)
            assert from_file == from_stdin
            for code, out, err in from_file:
                assert (code, out) == (EXIT_PARSE, "")
                assert "neither a diagram nor a matrix file" in err
        # A caller's text is read as given, mark and all.
        code, out, err = run_config(CliConfig("invariant"), "\ufeff" + WORKED_TEXT)
        assert (code, out) == (EXIT_PARSE, "")

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"], ids=repr)
    def test_a_file_read_peaks_at_twice_its_size(self, tmp_path, brk):
        # 120,000 crossing lines, about 2 MB.  The bytes and the decoded text
        # are both alive while the file decodes; a newline translation of the
        # text would keep a third copy.  So would cutting a byte-order mark
        # from the decoded text, which the mark makes two bytes a character.
        lines = ["component h1", "loop e0", "component h2", "loop f0"]
        lines += [f"crossing e0 f0 {sign}" for sign in "+-"] * 60_000
        path = tmp_path / "big.hlk"
        for mark in (b"", BOM):
            path.write_bytes(mark + (brk.join(lines) + brk).encode())
            out, err = io.StringIO(), io.StringIO()
            tracemalloc.start()
            try:
                code = run(CliConfig("invariant", str(path)), out=out, err=err)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, out.getvalue(), err.getvalue()) == (EXIT_OK, "Lk = {0}\n", ""), mark
            assert peak < 2.2 * path.stat().st_size, mark
