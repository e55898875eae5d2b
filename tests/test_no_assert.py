"""Guards in the library are real checks: no `assert` statement anywhere.

`python -O` strips asserts, so a guard written as one silently disappears.
"""

import ast
from pathlib import Path

import pytest

import toricsplit

MODULES = sorted(Path(toricsplit.__file__).parent.glob("*.py"))


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"{path.name}: assert on lines {found}"
