"""README.md's ``python`` code blocks run as written, and every ``ddlab``
line of its plain code blocks parses with the CLI's own parser, so an
example cannot keep a name, command or flag the library no longer has.
Its ``train`` ranges and defaults name exactly ``TrainConfig``'s fields."""

import contextlib
import dataclasses
import io
import json
import re
import shlex
import typing
from pathlib import Path

import pytest

from ddlab import TrainConfig
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


def bullet(start):
    """The README bullet that starts with ``start``, up to the next
    bullet of its level or blank line."""
    match = re.search(rf"^{re.escape(start)}.*?(?=^\* |\n\n)", TEXT,
                      re.MULTILINE | re.DOTALL)
    assert match, start
    return match.group()


def scalar_keys(cls, prefix=""):
    """Dotted keys of ``cls``'s scalar fields, a section's under its name."""
    for key, hint in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(hint):
            yield from scalar_keys(hint, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_readme_train_ranges_name_every_train_key():
    # each range line names its keys before its colon
    named = [key
             for line in bullet("* Accepted `train` ranges").splitlines()
             if line.startswith("  - ")
             for key in re.findall(r"`([^`]+)`", line.partition(":")[0])]
    assert sorted(named) == sorted(scalar_keys(TrainConfig))


def test_readme_train_defaults_are_train_configs():
    text = bullet("* The `train` section is")
    top, _, optimizer = text.partition("an `optimizer` of")
    config = TrainConfig()
    for part, section in [(top, config), (optimizer, config.optimizer)]:
        shown = {key: json.loads(value)
                 for key, value in re.findall(r"`(\w+): ([^`]+)`", part)}
        assert shown == {key: value
                         for key, value in vars(section).items()
                         if not dataclasses.is_dataclass(value)}
