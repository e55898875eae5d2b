"""The CLI's options pinned: every (sub)command's arguments, with their
flags, types, defaults and choices, against tests/golden/cli_options.json.

After a deliberate change of the options, regenerate the file with
`PYTHONPATH=src python tests/test_cli_options.py`.
"""

import argparse
import json
import pathlib

from toricsplit import cli

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_options.json"


def cli_options():
    """{command path: [option]} for the parser and every subparser under it."""
    found = {}

    def walk(parser, path):
        options = found[" ".join(path)] = []
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, path + (name,))
            elif not isinstance(action, argparse._HelpAction):
                options.append({
                    "flag": "/".join(action.option_strings) or action.dest,
                    "type": getattr(action.type, "__name__", None),
                    "default": action.default,
                    "choices": None if action.choices is None else list(action.choices),
                })

    walk(cli._build_parser(), ())
    return found


def test_cli_options():
    assert cli_options() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(cli_options(), indent=1) + "\n")
