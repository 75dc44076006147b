"""Every `treeforge ...` line in the README's sh blocks parses with the
CLI's own parser, so the documented commands cannot drift from the options
the program accepts."""

import re
import shlex
from itertools import product
from pathlib import Path

import pytest

from treeforge import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_invocations() -> list[list[str]]:
    """The argument lists of the README's sh-block `treeforge` lines, with
    comments and `> file` redirections dropped and each `a|b|c` token
    expanded into one invocation per alternative."""
    invocations = []
    in_sh = False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
            continue
        command = re.sub(r"\s*>\s*\S+", "", line.split("#", 1)[0]).strip()
        if in_sh and command.startswith("treeforge "):
            words = shlex.split(command)[1:]
            invocations += [list(w) for w in product(*(word.split("|") for word in words))]
    return invocations


INVOCATIONS = readme_invocations()


def test_readme_has_invocations():
    assert INVOCATIONS


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_readme_invocation_parses(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]
