"""Every exported name resolves, so no retired name stays in an export
list, every module-level import is read, so none outlives its use, and
every private module-level name is read besides its own definition."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sparselms

MODULES = ["sparselms"] + [
    f"sparselms.{m.name}" for m in pkgutil.iter_modules(sparselms.__path__)]
SOURCES = sorted(Path(sparselms.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []


def _unread_imports(path: Path) -> list[str]:
    """``file:line name`` of each name a module-level import binds that
    the module never reads and does not list in ``__all__``;
    ``__future__`` and ``*`` imports bind nothing to read."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = {c.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items()
            if name not in read | exported]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_are_read(path):
    assert _unread_imports(path) == []


def _private_definitions(tree: ast.Module):
    """``(name, node)`` of each private function, class and constant a
    module defines at top level; dunder names are the language's own."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _reads(node) -> set[str]:
    """Names a node reads, as a name or as an attribute of a module."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def test_private_names_are_read():
    """A private function, class or constant of the package that nothing
    but its own definition reads is dead code: each is read by another
    top-level statement of some module of the package."""
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    reads = [(node, _reads(node)) for tree in trees.values()
             for node in tree.body]
    unread = [f"{path}:{own.lineno} {name}"
              for path, tree in trees.items()
              for name, own in _private_definitions(tree)
              if not any(name in names for node, names in reads
                         if node is not own)]
    assert unread == []
