"""Per-fan results are cached only through `fan._per_fan`.

A hand-written get/compute/store block needs its own key into `Fan._cache`
and its own care not to store a failed call; the one memo does both.  So
`._cache` appears only in `_per_fan` and in `Fan.__init__`, which makes
the dict.
"""

import ast
from pathlib import Path

import pytest

import toricsplit

MODULES = sorted(Path(toricsplit.__file__).parent.glob("*.py"))
ALLOWED = {("fan.py", "_per_fan"), ("fan.py", "Fan.__init__")}


def cache_uses(tree):
    """(scope, line) of every `._cache` attribute: the scope is the
    top-level function, or the `Class.method`, that holds it."""
    found = []
    for top in tree.body:
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            scope = getattr(node, "name", "")
            if node is not top:
                scope = f"{top.name}.{scope}"
            found += [(scope, sub.lineno) for sub in ast.walk(node)
                      if isinstance(sub, ast.Attribute) and sub.attr == "_cache"]
    return found


def test_modules_found():
    assert len(MODULES) >= 8


def test_catches_a_hand_written_cache():
    tree = ast.parse("def f(fan):\n"
                     "    if 'k' in fan._cache:\n"
                     "        return fan._cache['k']\n"
                     "class Fan:\n"
                     "    def __init__(self):\n"
                     "        self._cache = {}\n")
    assert cache_uses(tree) == [("f", 2), ("f", 3), ("Fan.__init__", 6)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_cache_only_in_the_memo(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [line for scope, line in cache_uses(tree) if (path.name, scope) not in ALLOWED]
    assert not found, f"{path.name}: Fan._cache used outside _per_fan on lines {found}"
