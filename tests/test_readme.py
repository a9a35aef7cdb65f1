"""The README's python examples run as written."""

import re
from pathlib import Path

import pytest

from slantmap.catalog import CatalogError, catalog_ids, load_catalog

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2  # the fence pattern still finds the examples
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md, python block {i + 1}", "exec"), {})


def test_the_catalog_table_lists_every_entry_in_order():
    section = README.read_text().split("## Built-in catalog")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([a-z0-9_]+)(\(alpha=\.\.\.\))?` \|", section,
                      re.MULTILINE)
    assert [name for name, _ in rows] == catalog_ids()
    for name, alpha in rows:  # written with (alpha=...) iff it takes alpha
        if alpha:
            load_catalog(f"{name}(alpha=0.3)")
        else:
            with pytest.raises(CatalogError, match="takes no parameter"):
                load_catalog(f"{name}(alpha=0.3)")
