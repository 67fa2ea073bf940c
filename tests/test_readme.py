"""The README's library-layout table names only what the modules define."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def layout_rows() -> list[tuple[str, list[str]]]:
    """(module, backticked names) for each row of the library-layout table."""
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1]
    rows = []
    for line in section.splitlines():
        match = re.match(r"\|\s*`(mpst\.\w+)`\s*\|(.*)\|\s*$", line)
        if match:
            rows.append((match.group(1), re.findall(r"`(\w+)`", match.group(2))))
    return rows


def test_layout_table_names_exist_in_their_modules():
    rows = layout_rows()
    assert len(rows) == 6
    for module_name, names in rows:
        module = importlib.import_module(module_name)
        assert names, module_name
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, f"{module_name} lacks {missing}"
