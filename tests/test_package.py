"""The package's public names, and guards against code that nothing uses."""

import ast
from pathlib import Path

import pytest

import hlk

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hlk"
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}

PUBLIC_NAMES = {
    "AbelianGroup", "Diagram", "DiagramParseError", "IntMatrix", "InvalidDiagramError",
    "LkInvariant", "Loop", "MatrixParseError", "SNFResult", "SplitMix64", "__version__",
    "apply_slide", "determinant", "elementary_divisors", "format_matrix", "handlebody_linking",
    "linking_matrix", "linking_number", "merge_loops", "minor_gcd_profile", "parse_diagram",
    "parse_matrix", "quotient_group", "quotient_groups", "random_unimodular", "rank",
    "reconstruct_lk", "run_selftest", "smith_normal_form",
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


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level ``_private`` functions, classes and constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_definition_is_used():
    used = set()
    for tree in MODULES.values():
        used |= loaded_names(tree)
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        used |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    defined = set().union(*map(private_definitions, MODULES.values()))
    assert defined - used == set()
