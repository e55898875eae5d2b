"""The library computes exactly: no floating-point arithmetic anywhere.

An inexact path (float inverses rounded back to integers, say) needs a
check and an exact fallback that tests rarely reach; the library has none,
so none may come back.  Forbidden: the name `float`, float literals,
`np.linalg` and `np.rint`.
"""

import ast
from pathlib import Path

import pytest

import toricsplit

MODULES = sorted(Path(toricsplit.__file__).parent.glob("*.py"))
ATTRIBUTES = {("np", "linalg"), ("numpy", "linalg"), ("np", "rint"), ("numpy", "rint")}


def inexact(node):
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (node.value.id, node.attr) in ATTRIBUTES
    return False


def test_modules_found():
    assert len(MODULES) >= 8


def test_catches_inexact_code():
    tree = ast.parse("x = np.rint(float(y) * np.linalg.inv(m)) + 0.5")
    assert sum(map(inexact, ast.walk(tree))) == 4


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_arithmetic(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [node.lineno for node in ast.walk(tree) if inexact(node)]
    assert not found, f"{path.name}: float arithmetic on lines {found}"
