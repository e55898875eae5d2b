"""The public API pinned: `toricsplit.__all__` and the signature of every
public callable, against tests/golden/public_api.json.

A refactor that keeps the results must keep these too.  After a deliberate
change of the API, regenerate the file with
`PYTHONPATH=src python tests/test_public_api.py`.
"""

import inspect
import json
import pathlib

import toricsplit

GOLDEN = pathlib.Path(__file__).parent / "golden" / "public_api.json"


def _signature(obj):
    """The call signature, or for a class without one (an exception derived
    from a builtin) its bases, so the exception hierarchy is pinned too."""
    try:
        return str(inspect.signature(obj))
    except ValueError:
        return "bases: " + ", ".join(base.__name__ for base in obj.__bases__)


def public_api():
    return {
        "all": sorted(toricsplit.__all__),
        "signatures": {name: _signature(getattr(toricsplit, name))
                       for name in sorted(toricsplit.__all__)
                       if callable(getattr(toricsplit, name))},
    }


def test_public_api():
    assert public_api() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(public_api(), indent=1) + "\n")
