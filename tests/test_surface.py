"""No public function, class or method in the package that only tests call.

Each public module-level function or class in ``src/ksgrowup`` must be named
somewhere in the package outside ``__init__.py`` (its own module counts when
it uses the name), or in ``perfbench/``.  Each public method or property of a
public class must be read as an attribute (``obj.name``) in the package or
named in ``perfbench/``.  Anything else is dead code kept alive by its own
tests; the references the tests check a claim against live in
``tests/oracles.py``.  The check goes by name, so a method shares its use
with every attribute of the same name.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(tree):
    """Every name a module reads: variables, attributes and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _attributes(tree):
    """Every attribute a module reads."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _public(nodes, kinds):
    return [node for node in nodes
            if isinstance(node, kinds) and not node.name.startswith("_")]


def test_every_public_definition_has_a_caller():
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "ksgrowup").glob("*.py"))}
    run = [tree for name, tree in trees.items() if name != "__init__.py"]
    used = set().union(*(_names(tree) for tree in run))
    read = set().union(*(_attributes(tree) for tree in run))
    bench = "\n".join(p.read_text()
                      for p in sorted((ROOT / "perfbench").glob("*.py")))

    def in_bench(name):
        return re.search(rf"\b{name}\b", bench)

    uncalled = []
    for module, tree in trees.items():
        for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
            if node.name not in used and not in_bench(node.name):
                uncalled.append(f"{module}: {node.name}")
            if isinstance(node, ast.ClassDef):
                uncalled += [f"{module}: {node.name}.{m.name}"
                             for m in _public(node.body, ast.FunctionDef)
                             if m.name not in read and not in_bench(m.name)]
    assert uncalled == []
