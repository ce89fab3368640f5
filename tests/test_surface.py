"""No public function or class in the package that only tests call.

Each public module-level function or class in ``src/ksgrowup`` must be named
somewhere in the package outside ``__init__.py`` (its own module counts when
it uses the name), or in ``perfbench/``, or be one of the oracles below that
the tests check a claim against.  Anything else is dead code kept alive by
its own tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORACLES = ("residual_fd", "steady_profile", "ordered_pair_test",
           "small_time_checks", "closed_rate", "gamma_of_a", "apply_operator",
           "w_from_u", "quintic_cutoff")


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


def test_every_public_definition_has_a_caller():
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "ksgrowup").glob("*.py"))}
    used = set().union(*(_names(tree) for name, tree in trees.items()
                         if name != "__init__.py"))
    bench = "\n".join(p.read_text()
                      for p in sorted((ROOT / "perfbench").glob("*.py")))
    uncalled = [f"{module}: {node.name}" for module, tree in trees.items()
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in used and node.name not in ORACLES
                and not re.search(rf"\b{node.name}\b", bench)]
    assert uncalled == []
