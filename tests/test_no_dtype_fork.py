"""Only `lattice` chooses between int64 and Python ints.

A product that may outgrow int64 goes through `lattice._exact_matmul`, and an
exact array is stored in int64 through `lattice._narrow`; the elimination
`lattice._bareiss` picks its own dtype.  Each of these bounds is tested once,
at its boundary, in tests/test_lattice.py.  A module that derives a bound of
its own needs tests of its own at that boundary, so outside lattice.py none
may: no expression choosing between np.int64 and object, no `.astype(object)`
and no `except OverflowError`.
"""

import ast
from pathlib import Path

import pytest

import toricsplit

MODULES = sorted(path for path in Path(toricsplit.__file__).parent.glob("*.py")
                 if path.name != "lattice.py")

# the int64 bound of `divisor._cartier` before the product moved into lattice
OWN_BOUND = '''
def _cartier(fan, a):
    dets, adjs = fan.cone_adjugates
    if (abs(dets) != 1).any():
        fan.cone_inverses  # raises NotUnimodular
    inverses = dets[:, None, None] * adjs
    bound = fan.dim ** 2 * int(np.abs(inverses).max(initial=1)) * max(map(abs, a), default=0)
    dtype = np.int64 if bound * int(np.abs(fan.ray_matrix).max()) < 2 ** 62 else object
    cones = np.array(fan.max_cones, dtype=np.intp).reshape(-1, fan.dim)
    return (inverses.astype(dtype) @ -np.array(a, dtype=dtype)[cones][:, :, None])[:, :, 0]
'''


def is_int64(node):
    return (isinstance(node, ast.Attribute) and node.attr == "int64"
            or isinstance(node, ast.Name) and node.id == "int64")


def is_name(node, name):
    return isinstance(node, ast.Name) and node.id == name


def forks(node):
    """Whether the node chooses between int64 and Python ints."""
    if isinstance(node, ast.IfExp):
        branches = (node.body, node.orelse)
        return any(map(is_int64, branches)) and any(is_name(b, "object") for b in branches)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "astype":
        return any(is_name(arg, "object") for arg in node.args + [k.value for k in node.keywords])
    if isinstance(node, ast.ExceptHandler):
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return any(is_name(t, "OverflowError") for t in caught)
    return False


def test_modules_found():
    assert len(MODULES) >= 7


def test_catches_own_bounds():
    assert sum(map(forks, ast.walk(ast.parse(OWN_BOUND)))) == 1
    other = ("try:\n    b = a.astype(np.int64)\nexcept (ValueError, OverflowError):\n"
             "    b = a.astype(dtype=object)\nc = object if big else int64\n")
    assert sum(map(forks, ast.walk(ast.parse(other)))) == 3
    allowed = "b = np.array(a, dtype=object)\nc = a.astype(np.int64)\nd = x if y else object\n"
    assert not any(map(forks, ast.walk(ast.parse(allowed))))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dtype_fork(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [node.lineno for node in ast.walk(tree) if forks(node)]
    assert not found, f"{path.name}: int64 or Python-int choice on lines {found}"
