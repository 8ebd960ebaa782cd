"""README.md's ``python`` code blocks run as written, and every ``ddlab``
line of its plain code blocks parses with the CLI's own parser, so an
example cannot keep a name, command or flag the library no longer has."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from ddlab.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
CLI_LINES = [line
             for block in re.findall(r"^```\n(.*?)^```", TEXT,
                                     re.MULTILINE | re.DOTALL)
             for line in block.splitlines() if line.startswith("ddlab")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_cli_lines():
    assert CLI_LINES


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_parses(line):
    # a usage error exits 2 through SystemExit
    build_parser().parse_args(shlex.split(line)[1:])
