"""Every `treeforge ...` line in the README's sh blocks parses with the
CLI's own parser, and every python block runs, so neither the documented
commands nor the documented library calls can drift from the program."""

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


def readme_python_blocks() -> list[str]:
    """The source of each of the README's python blocks."""
    blocks, block = [], None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            if block is not None:
                blocks.append("\n".join(block))
            block = [] if line.strip() == "```python" else None
        elif block is not None:
            block.append(line)
    return blocks


INVOCATIONS = readme_invocations()
PYTHON_BLOCKS = readme_python_blocks()


def test_readme_has_invocations():
    assert INVOCATIONS


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_readme_invocation_parses(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_readme_has_python_blocks():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("source", PYTHON_BLOCKS)
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})
