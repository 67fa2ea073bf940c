"""Every name a module of the package imports is used in that module, and
every private function or class a module defines is used in that module.

`mpst/__init__.py` is left out of the import check: it imports names to
re-export them."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mpst"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from typing import Iterator, Union\nimport re\nX = Union[int, str]\n"
    assert unused_imports(source) == ["Iterator (line 1)", "re (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_private_definitions(source: str) -> list[str]:
    """The `_`-prefixed module-level functions and classes that nothing in
    the module but their own body refers to by name."""
    tree = ast.parse(source)
    defined = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
    ]
    used: set[str] = set()
    for statement in tree.body:
        names = {node.id for node in ast.walk(statement) if isinstance(node, ast.Name)}
        used |= names - {getattr(statement, "name", None)}
    return [name for name in defined if name not in used]


def test_the_check_sees_an_unused_private_definition():
    source = (
        "def _used(n):\n    return _Kept() if n else _used(n - 1)\n"
        "class _Kept:\n    pass\n"
        "def _dead():\n    return 1\n"
        "class _Gone:\n    pass\n"
        "def _loop(n):\n    return _loop(n)\n"
        "def public():\n    return _used(2)\n"
    )
    assert unused_private_definitions(source) == ["_dead", "_Gone", "_loop"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_definition_is_used(path):
    assert unused_private_definitions(path.read_text(encoding="utf-8")) == []
