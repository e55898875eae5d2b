"""Every `toricsplit` example of the README's "Command line" block parses.

The block's lines are joined at trailing backslashes; `#` comments and
`>` redirections are dropped, and what is left goes through the CLI's own
parser, so an example that names a removed option fails here.
"""

import pathlib
import shlex

import pytest

from toricsplit import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The argument lists of the `toricsplit` lines of the first `sh`
    block under the "Command line" heading."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        redirect = [i for i, w in enumerate(words) if w.startswith(">")]
        words = words[:redirect[0]] if redirect else words
        if words and words[0] == "toricsplit":
            commands.append(words[1:])
    return commands


def test_block_is_found():
    commands = readme_commands()
    assert len(commands) >= 5
    assert {argv[0] for argv in commands} == \
        {"variety", "frobenius", "bondal", "cohomology", "collection"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_example_parses(argv):
    cli._build_parser().parse_args(argv)
