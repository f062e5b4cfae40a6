"""Command-line front end.

Subcommands: ``invariant`` and ``groups`` accept a diagram or matrix file
(told apart by the first significant token), ``matrix`` turns a diagram
into its linking matrix, ``snf`` prints the full reduction, ``selftest``
runs the randomized property suite.  Exit codes: 0 success; 1 usage or flag
error, an unreadable input or an unwritable result; 2 parse error, input that
is not UTF-8 or an input too large for memory; 3 invalid diagram; 4 self-test
failure.
"""

import io
import sys
from contextlib import suppress

from .diagram import InvalidDiagramError, linking_matrix, parse_diagram
from .exactla import (
    _integers,
    _ParseError,
    _Record,
    _significant_lines,
    format_matrix,
    parse_matrix,
    smith_normal_form,
)
from .invariant import handlebody_linking, quotient_groups

__all__ = [
    "CliConfig",
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_PARSE",
    "EXIT_INVALID",
    "EXIT_SELFTEST",
    "detect_format",
    "run",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_SELFTEST = 4

# `hlk snf` prints an m x m `U` and an n x n `V`, so even a matrix with no
# entries costs O(m^2 + n^2); larger inputs are refused with EXIT_PARSE.
_SNF_MAX_DIM = 2000

# Each subcommand and its help text; all but selftest read one input file.
_SUBCOMMANDS = {
    "invariant": "print the linking invariant of a diagram or matrix file",
    "matrix": "print the linking matrix of a diagram file",
    "groups": "print the two quotient groups and the chain length",
    "snf": "print the Smith normal form D with its transforms U and V",
    "selftest": "run the randomized property suite",
}


class CliConfig(_Record):
    """One parsed invocation."""

    __slots__ = ("subcommand", "input_path", "trials", "seed", "verbose")

    def __init__(self, subcommand: str, input_path: str | None = None, trials: int = 100,
                 seed: int = 0, verbose: bool = False):
        super().__init__(subcommand, input_path, trials, seed, verbose)


def detect_format(text: str) -> str | None:
    """``'diagram'`` or ``'matrix'`` by the first significant token, else None.

    Scans lines as both parsers do, and only as far as the first line that is
    not blank or a comment.
    """
    first = next(_significant_lines(text), None)
    return first and {"component": "diagram", "matrix": "matrix"}.get(first[1][0])


def _decode(data: bytes) -> str:
    """``data`` decoded strictly as UTF-8, one leading byte-order mark skipped.

    A decode error gives its position in ``data``, counting the mark.
    """
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # The codec decodes what follows the mark, and counts positions from there.
        shift = len(data) - len(exc.object)
        exc.object, exc.start, exc.end = data, exc.start + shift, exc.end + shift
        raise


def run(config: CliConfig, stdin=None, out=None, err=None) -> int:
    """Execute one invocation; returns the exit code.

    Results go to ``out``, diagnostics to ``err`` (defaulting to the process
    streams); a diagnostic that cannot be written changes no exit code.  A
    caller's ``stdin`` text is read as it is; a file or the process's standard
    input is read as bytes and decoded strictly as UTF-8, with no newline
    translation, whatever the locale, and one leading byte-order mark is skipped.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    known = config.subcommand in _SUBCOMMANDS
    prog = f"hlk {config.subcommand}" if known else "hlk"

    def fail(code: int, message: object) -> int:
        with suppress(OSError):  # a diagnostic that cannot be written changes no exit code
            print(f"{prog}: error: {message}", file=err)
        return code

    if not known:
        return fail(EXIT_USAGE, f"unknown subcommand {config.subcommand!r}")
    # Results are exact, so printing them lifts Python's int-to-str digit limit
    # once the input is parsed; the parser still refuses entries over it.  The
    # caller's setting is restored afterwards.
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    previous = sys.get_int_max_str_digits() if set_digits else None
    # The except clauses below are the whole exit-code table.  Reading, parsing,
    # reducing, formatting and writing can each need memory in proportion to the
    # input; running out is reported, not raised.
    try:
        code = EXIT_OK
        if config.subcommand == "selftest":
            if config.trials < 1:
                return fail(EXIT_USAGE, "--trials must be at least 1")
            from .selftest import run_selftest  # only this subcommand loads the self-test
            summary = io.StringIO()
            if run_selftest(config.trials, config.seed, verbose=config.verbose, out=summary, err=err):
                code = EXIT_SELFTEST
            result = summary.getvalue()
        else:
            if config.input_path in (None, "-"):
                if stdin is None and sys.stdin is None:
                    # Python sets sys.stdin to None when descriptor 0 is closed.
                    return fail(EXIT_USAGE, "standard input is closed")
                text = _decode(sys.stdin.buffer.read()) if stdin is None else stdin.read()
            else:
                with open(config.input_path, "rb") as handle:
                    text = _decode(handle.read())
            kind = detect_format(text)
            if kind is None:
                expected = "expected a 'component' or 'matrix' line first"
                return fail(EXIT_PARSE, f"input is neither a diagram nor a matrix file ({expected})")
            if config.subcommand == "matrix" and kind != "diagram":
                return fail(EXIT_USAGE, "this subcommand takes a diagram file")
            m = linking_matrix(parse_diagram(text)) if kind == "diagram" else parse_matrix(text)
            if set_digits:
                set_digits(0)
            # Each result is formatted whole before it is written, so a failure
            # leaves stdout empty.
            if config.subcommand == "invariant":
                result = f"Lk = {handlebody_linking(m)}\n"
            elif config.subcommand == "matrix":
                result = format_matrix(m)
            elif config.subcommand == "groups":
                first, second = quotient_groups(m)
                result = f"A1 = {first}\nA2 = {second}\nl = {m.rows - first.free_rank}\n"
            else:  # snf
                if max(m.shape) > _SNF_MAX_DIM:
                    limit = f"at most {_SNF_MAX_DIM} rows and {_SNF_MAX_DIM} columns"
                    return fail(EXIT_PARSE, f"the matrix is {m.rows} x {m.cols}; snf takes {limit}")
                r = smith_normal_form(m)
                blocks = (("D", r.d), ("U", r.u), ("V", r.v))
                result = "".join(f"# {label}\n{format_matrix(part)}" for label, part in blocks)
        try:
            # Flushed here, so that a write error fails this call, not the exit.
            out.write(result)
            out.flush()
        except OSError as exc:
            return fail(EXIT_USAGE, f"cannot write the result: {exc}")
        return code
    except OSError as exc:
        return fail(EXIT_USAGE, exc)
    except UnicodeDecodeError as exc:
        return fail(EXIT_PARSE, f"input is not UTF-8: {exc}")
    except _ParseError as exc:  # the base of DiagramParseError and MatrixParseError
        return fail(EXIT_PARSE, exc)
    except InvalidDiagramError as exc:
        return fail(EXIT_INVALID, exc)
    except MemoryError:
        return fail(EXIT_PARSE, "the input is too large for memory")
    finally:
        if set_digits:
            set_digits(previous)


def main(argv=None) -> int:
    # Only flags need argparse, so importers of this module and callers of
    # run never load it.
    import argparse

    def _flag_int(text: str) -> int:
        """A flag's integer: one ASCII token ``[+-]?[0-9]+``, as in matrix files."""
        # _integers takes tokens as a line splits them, so a flag with any
        # whitespace is refused first.
        with suppress(ValueError):  # a MatrixParseError is a ValueError
            if text.split() == [text]:
                return _integers([text], None, "flags")[0]
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")

    description = "Linking invariants of two-component handlebody-links."
    parser = argparse.ArgumentParser(prog="hlk", description=description)
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    for name, text in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=text, description=text)
        if name != "selftest":
            path_help = "input file, or - for standard input (default)"
            cmd.add_argument("input_path", metavar="path", nargs="?", default="-", help=path_help)
    cmd = sub.choices["selftest"]
    cmd.description = "Run the randomized property suite over the reduction and invariant code."
    cmd.add_argument("--trials", type=_flag_int, default=100, help="number of trials (default 100)")
    cmd.add_argument("--seed", type=_flag_int, default=0, help="seed for the trial stream (default 0)")
    cmd.add_argument("--verbose", action="store_true", help="report every trial, not only failures")
    try:
        args = parser.parse_args(argv)
        for name in ("trials", "seed"):
            # argparse before Python 3.13 drops the value of --seed=-- and stores [].
            if vars(args).get(name) == []:
                cmd.error(f"argument --{name}: invalid int value: '--'")
    except SystemExit as exc:
        # argparse exits with status 2 on bad flags; this tool reserves 2 for
        # parse errors, so usage problems exit 1.
        return EXIT_USAGE if exc.code == 2 else int(exc.code or 0)
    return run(CliConfig(**vars(args)))


if __name__ == "__main__":
    sys.exit(main())
