"""The ``>>>`` examples of every fenced ``python`` block in README.md run as
written.  Each block is parsed on its own, so the closing fence is never
read as expected output."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block(index):
    test = doctest.DocTestParser().get_doctest(BLOCKS[index], {}, f"README.md block {index}", str(README), 0)
    report: list[str] = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.attempted and not result.failed, "".join(report)
