"""Every name a package module imports is used there (``__init__``
re-exports, so it is exempt): a standard-library stand-in for a linter's
unused-import rule."""

import ast
from pathlib import Path

import pytest

import padic_cuntz

MODULES = sorted(p for p in Path(padic_cuntz.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["line 1: os", "line 2: b"]
    assert unused_imports("from __future__ import annotations\n"
                          "import a.b\nfrom x import T\n"
                          "def f(v: T) -> None: a.b.g()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
