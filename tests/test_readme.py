"""README.md's ``python`` code blocks run as written, so an example cannot
keep a name the library no longer exports."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
