"""Per-fan results are cached only through `fan._per_fan`.

A hand-written get/compute/store block needs its own key into `Fan._cache`
and its own care not to store a failed call; the one memo does both.  So
`._cache` appears only in `_per_fan` and in `Fan.__init__`, which makes
the dict.  Nor does any object keep a cache of its own: no `self.<attr>`
starts as an empty dict, list or set but `Fan.__init__`'s `_cache`.
"""

import ast
from pathlib import Path

import pytest

import toricsplit

MODULES = sorted(Path(toricsplit.__file__).parent.glob("*.py"))
ALLOWED = {("fan.py", "_per_fan"), ("fan.py", "Fan.__init__")}
ALLOWED_EMPTY = {("fan.py", "Fan.__init__", "_cache")}
EMPTY_CALLS = {"dict", "list", "set"}


def scopes(tree):
    """(scope, node) of every top-level statement and every statement of a
    class body: the scope is the function's name, or `Class.method`."""
    for top in tree.body:
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            scope = getattr(node, "name", "")
            yield (f"{top.name}.{scope}" if node is not top else scope), node


def cache_uses(tree):
    """(scope, line) of every `._cache` attribute."""
    return [(scope, sub.lineno) for scope, node in scopes(tree) for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr == "_cache"]


def is_empty(value):
    """An empty dict or list display, or a dict(), list() or set() call."""
    if isinstance(value, (ast.Dict, ast.List)):
        return not (value.keys if isinstance(value, ast.Dict) else value.elts)
    return isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and \
        value.func.id in EMPTY_CALLS and not value.args and not value.keywords


def assigned(node):
    """(target, value) of an assignment, tuple targets paired elementwise."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
            yield from zip(target.elts, node.value.elts)
        else:
            yield target, node.value


def empty_attributes(tree):
    """(scope, attribute, line) of every `self.<attribute>` assigned an
    empty container."""
    return [(scope, target.attr, sub.lineno)
            for scope, node in scopes(tree) for sub in ast.walk(node)
            if isinstance(sub, (ast.Assign, ast.AnnAssign))
            for target, value in assigned(sub)
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
            and target.value.id == "self" and is_empty(value)]


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


def test_catches_an_object_cache():
    # the lookup object that once kept its own memo beside `Fan._cache`
    tree = ast.parse("class _JoinLookup:\n"
                     "    def __init__(self, fan):\n"
                     "        self.weights = fan.weights\n"
                     "        self.memo = {}\n"
                     "    def grow(self):\n"
                     "        self.keys, self.seen = [], set()\n"
                     "        self.ids: dict = dict()\n"
                     "        self.polys = list()\n"
                     "        self.full = [0]\n"
                     "        self.copy = set(self.keys)\n"
                     "        other.memo = {}\n")
    assert empty_attributes(tree) == [
        ("_JoinLookup.__init__", "memo", 4), ("_JoinLookup.grow", "keys", 6),
        ("_JoinLookup.grow", "seen", 6), ("_JoinLookup.grow", "ids", 7),
        ("_JoinLookup.grow", "polys", 8)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_object_caches(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [(attr, line) for scope, attr, line in empty_attributes(tree)
             if (path.name, scope, attr) not in ALLOWED_EMPTY]
    assert not found, f"{path.name}: attributes that start as empty containers: {found}"
