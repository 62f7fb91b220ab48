"""README's Python examples run as written, so a public name or parameter
that the code drops fails here wherever the README still uses it."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("i", range(len(BLOCKS)))
def test_readme_python_example_runs(i):
    exec(compile(BLOCKS[i], f"README.md python block {i}", "exec"), {})
