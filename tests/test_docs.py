"""The documented API runs: the README's python examples and every export."""

import re
from pathlib import Path

import inducoh

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks, "README.md has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_resolves():
    assert [name for name in inducoh.__all__ if not hasattr(inducoh, name)] == []
