"""The README's python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2  # the fence pattern still finds the examples
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md, python block {i + 1}", "exec"), {})
