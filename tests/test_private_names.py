"""Every private module-level name and private method that a package module
defines is read somewhere in the package, and every public one is read in
the package or by the benchmark harness, unless it is a reference route
that the README names: a standard-library stand-in for a linter's
dead-code rule, next to the unused-import scan.  Both scans match by name."""

import ast
from pathlib import Path

import padic_cuntz

MODULES = sorted(Path(padic_cuntz.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).resolve().parent.parent
                    / "perfbench").glob("*.py"))
#: public names only the tests call, each the README's route to an identity
REFERENCE_ROUTES = frozenset(("real_sign", "conjugate",
                              "coefficients_of_length"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each top-level def, class or assignment target, and
    of each method of a top-level class."""
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
    return found


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


def _unread(sources, callers, keep):
    """module:line: name for each name of ``sources`` that ``keep`` selects
    and that neither ``sources`` nor ``callers`` read."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(names_read, trees.values()),
                       *(names_read(ast.parse(s)) for s in callers.values()))
    return [f"{module}:{line}: {name}" for module, tree in trees.items()
            for name, line in definitions(tree)
            if keep(name) and name not in read]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    return _unread(sources, {}, _private)


def unread_public_names(sources: dict[str, str], callers: dict[str, str],
                        allowed=REFERENCE_ROUTES) -> list[str]:
    """Public names (an import is no read, so re-exports do not count)."""
    return _unread(sources, callers,
                   lambda name: not name.startswith("_")
                   and name not in allowed)


def _read_all(paths) -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in paths}


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


def test_the_scan_finds_an_unread_public_name():
    sources = {
        "a.py": "def used(): pass\ndef unused(): pass\n"
                "class K:\n    def method(self): pass\n"
                "    def dead(self): pass\n"
                "    def real_sign(self): pass\n"
                "    def __eq__(self, other): return True\n",
        "__init__.py": "from .a import K, unused, used\n",
        "b.py": "from a import used, K\nused()\n",
    }
    callers = {"run.py": "import a\na.K().method()\n"}
    assert unread_public_names(sources, callers) == [
        "a.py:2: unused", "a.py:5: dead"]
    assert unread_public_names(sources, callers, frozenset()) == [
        "a.py:2: unused", "a.py:5: dead", "a.py:6: real_sign"]


def test_every_private_name_is_read_in_the_package():
    assert unread_private_names(_read_all(MODULES)) == []


def test_every_public_name_has_a_caller_or_is_a_reference_route():
    sources, callers = _read_all(MODULES), _read_all(PERFBENCH)
    assert unread_public_names(sources, callers) == []
    # and each listed route is still defined and still has no caller
    assert {entry.split()[-1] for entry in
            unread_public_names(sources, callers, frozenset())} == \
        REFERENCE_ROUTES
