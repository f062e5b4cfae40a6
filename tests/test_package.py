"""The package's public names, what importing its CLI loads, and guards against
code that nothing uses."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import hlk

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hlk"
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
DEMOS = [ast.parse(path.read_text(), filename=str(path)) for path in sorted((ROOT / "demos").glob("*.py"))]

PUBLIC_NAMES = {
    "AbelianGroup", "Diagram", "DiagramParseError", "IntMatrix", "InvalidDiagramError",
    "LkInvariant", "MatrixParseError", "SNFResult", "SplitMix64", "__version__",
    "apply_slide", "determinant", "elementary_divisors", "format_matrix", "handlebody_linking",
    "linking_matrix", "merge_loops", "minor_gcd_profile", "parse_diagram", "parse_matrix",
    "quotient_groups", "random_unimodular", "reconstruct_lk", "run_selftest", "smith_normal_form",
}


def test_public_names():
    assert len(hlk.__all__) == len(set(hlk.__all__))
    assert set(hlk.__all__) == PUBLIC_NAMES
    for name in hlk.__all__:
        assert getattr(hlk, name) is not None


def loaded_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in ``tree``, with the names listed in its ``__all__``."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names |= {n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    return names


def referenced_names(tree: ast.AST) -> set[str]:
    """Names read in ``tree``, as bare names or as attributes."""
    return loaded_names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_every_public_function_is_used():
    # A public function earns its place when another package module or a demo
    # calls it; the defining module and the re-exports in __init__ do not count.
    functions = [getattr(hlk, name) for name in hlk.__all__]
    functions = [f for f in functions if callable(f) and not isinstance(f, type)]
    unused = []
    for f in functions:
        home = f.__module__.rsplit(".", 1)[-1] + ".py"
        users = [tree for module, tree in MODULES.items() if module not in (home, "__init__.py")] + DEMOS
        if not any(f.__name__ in referenced_names(tree) for tree in users):
            unused.append(f.__name__)
    assert DEMOS and functions
    assert unused == []


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    tree = MODULES[name]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name != "*"
    }
    assert imported - loaded_names(tree) == set()


def private_definitions(node: ast.stmt) -> set[str]:
    """The ``_private`` functions, classes and constants that a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = {node.name}
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = {t.id for t in targets if isinstance(t, ast.Name)}
    else:
        names = set()
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(node: ast.AST) -> set[str]:
    """Names that ``node`` reads, as bare names or as attributes."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def test_every_private_definition_is_used():
    # A private helper earns its place when package code outside its own
    # definition reads it; importing it, or calling it from its own body, does not.
    statements = [node for tree in MODULES.values() for node in tree.body]
    defined = set().union(*map(private_definitions, statements))
    unused = {
        name for name in defined
        if not any(name in read_names(node) for node in statements if name not in private_definitions(node))
    }
    assert len(defined) > 30
    assert unused == set()


def fresh_process(code: str) -> str:
    """The standard output of ``code`` run in a fresh ``python -I`` that imports hlk from this checkout."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); " + code
    done = subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    return done.stdout


def test_cli_import_loads_no_argparse_dataclasses_inspect_or_typing():
    # Every hlk command imports hlk.cli first; these modules once cost most of
    # that import.  Only what the import adds counts: site may preload some.
    added = fresh_process("before = set(sys.modules); import hlk.cli; print(*sorted(set(sys.modules) - before))")
    added = set(added.split())
    assert "hlk.cli" in added
    assert added & {"argparse", "gettext", "dataclasses", "inspect", "typing"} == set()


def test_only_main_loads_argparse():
    # run reads no flags, so its callers never load argparse; main still does,
    # so the import was deferred, not dropped.
    worked = (ROOT / "fixtures" / "worked_example.mat").read_text()
    run = f"import io; from hlk import cli; print(cli.run(cli.CliConfig('invariant'), stdin=io.StringIO({worked!r})))"
    loaded = "; print('argparse' in sys.modules)"
    assert fresh_process(run + loaded) == "Lk = {1, 2, 4}\n0\nFalse\n"
    help_text = fresh_process("from hlk import cli; print(cli.main(['--help']))" + loaded)
    assert help_text.startswith("usage: hlk [-h] subcommand ...\n")
    assert help_text.endswith("\n0\nTrue\n")


def test_only_the_selftest_subcommand_loads_selftest():
    # The reading commands never run the self-test, so hlk.selftest loads on
    # first use: by the selftest subcommand or one of the package's names for it.
    worked = (ROOT / "fixtures" / "worked_example.mat").read_text()
    run = f"import io; from hlk import cli; print(cli.run(cli.CliConfig('groups'), stdin=io.StringIO({worked!r})))"
    loaded = "; print('hlk.selftest' in sys.modules)"
    assert fresh_process(run + loaded).endswith("l = 3\n0\nFalse\n")
    selftest = "from hlk import cli; print(cli.main(['selftest', '--trials', '1']))"
    assert fresh_process(selftest + loaded) == "1/1 passed\n0\nTrue\n"
    names = ("import hlk; from hlk import run_selftest, SplitMix64; "
             "print(run_selftest.__module__, SplitMix64(0).next_u64(), hlk.selftest.snf_defects.__name__, "
             "*sorted(hlk.__all__))")
    module, stream, defects, *public = fresh_process(names).split()
    assert (module, stream, defects) == ("hlk.selftest", str(hlk.SplitMix64(0).next_u64()), "snf_defects")
    assert public == sorted(PUBLIC_NAMES)


def test_a_missing_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'hlk' has no attribute 'selftests'$"):
        getattr(hlk, "selftests")


def imported_modules(tree: ast.AST) -> set[str]:
    """Dotted names of the modules and names that ``tree`` imports, relative ones without their dots."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {".".join(filter(None, (node.module, alias.name))) for alias in node.names}
    return names


def test_checking_code_lives_in_selftest():
    # The reduction module holds the records, the reduction and the matrix
    # file format; the oracles and random moves that check it live in selftest,
    # which only the CLI and the package's re-exports import.
    moved = ["SplitMix64", "apply_slide", "determinant", "minor_gcd_profile", "random_unimodular"]
    assert [getattr(hlk, name).__module__ for name in moved] == ["hlk.selftest"] * len(moved)
    assert [name for name in moved if hasattr(hlk.exactla, name)] == []
    assert not hasattr(hlk.IntMatrix, "identity")
    importers = {
        module for module, tree in MODULES.items()
        if any("selftest" in name.split(".") for name in imported_modules(tree))
    }
    assert importers == {"cli.py", "__init__.py"}


def test_package_imports_no_re():
    # Integer tokens are checked with str methods and int(): a compiled regex
    # cost about 0.15 ms of every import of hlk.
    imported = {name.split(".")[0] for tree in MODULES.values() for name in imported_modules(tree)}
    assert "re" not in imported and "exactla" in imported


def splitlines_calls(tree: ast.AST) -> list[ast.Call]:
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "splitlines"]


def test_one_function_splits_text_into_lines():
    # Where a line ends is part of the line grammar: matrix files, diagram
    # files and the format sniff all take their lines from _sliced_lines.
    sliced = next(node for node in MODULES["exactla.py"].body if getattr(node, "name", None) == "_sliced_lines")
    assert len(splitlines_calls(sliced)) == 1
    assert sum(len(splitlines_calls(tree)) for tree in MODULES.values()) == 1


def test_files_are_opened_as_bytes():
    # Decoding is one rule, in cli.run: a file's bytes, like standard input's,
    # are decoded strictly as UTF-8 with no newline translation.
    opens = [
        n for tree in MODULES.values() for n in ast.walk(tree)
        if isinstance(n, ast.Call) and "open" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
    ]
    assert opens
    for call in opens:
        modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
        assert len(modes) == 1 and "b" in getattr(modes[0], "value", ""), ast.unparse(call)
