"""Every private module-level name and private method that a package module
defines is read somewhere in the package: a standard-library stand-in for
a linter's dead-code rule, next to the unused-import scan."""

import ast
from pathlib import Path

import padic_cuntz

MODULES = sorted(Path(padic_cuntz.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each private top-level def, class or assignment
    target, and of each private method of a top-level class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        found += [(t.id, node.lineno) for t in targets
                  if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(item.name, item.lineno) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [(name, line) for name, line in found if _private(name)]


def names_read(tree: ast.Module) -> set[str]:
    """Every name loaded, bare or as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            read.add(node.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    return [f"{module}:{line}: {name}" for module, tree in trees.items()
            for name, line in private_definitions(tree) if name not in read]


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_unused: int = 0\n"
                "def _helper(): return _LIMIT\n"
                "class K:\n    def _dead(self): pass\n"
                "    def _live(self): return self._x\n"
                "    def __repr__(self): return ''\n",
        "b.py": "from a import _helper, K\n_helper()\nK()._live()\n",
    }
    assert unread_private_names(sources) == [
        "a.py:2: _unused", "a.py:5: _dead"]


def test_every_private_name_is_read_in_the_package():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in MODULES}
    assert unread_private_names(sources) == []
