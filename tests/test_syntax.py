import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    [*(ROOT / "src" / "hlk").glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "tests").glob("*.py"),
     *(ROOT / "tools").glob("*.py")]
)


def declared_minimum():
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_sources_and_minimum_are_found():
    assert len(SOURCES) >= 20  # the package modules, the four demos and the tests
    assert declared_minimum() >= (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_on_the_declared_minimum_python(path):
    # The tests run on a newer Python, which would accept newer syntax silently.
    ast.parse(path.read_text(), filename=str(path), feature_version=declared_minimum())
