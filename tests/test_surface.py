"""No public function, class or method in the package that only tests call,
and no parameter or field with a default that only tests set.

Each public module-level function or class in ``src/ksgrowup`` must be named
somewhere in the package outside ``__init__.py`` (its own module counts when
it uses the name), or in ``perfbench/``.  Each public method or property of a
public class must be read as an attribute (``obj.name``) in the package or
named in ``perfbench/``.  Anything else is dead code kept alive by its own
tests; the references the tests check a claim against live in
``tests/oracles.py``.  The check goes by name, so a method shares its use
with every attribute of the same name.

Likewise every parameter with a default, of any function, method or class in
``src/ksgrowup``, and every dataclass field with a default, must be passed by
some call in the package or in ``perfbench/``; calls match by name here too.
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



def _call_name(func):
    """The name a call or decorator goes by: f(...) and obj.f(...) are f."""
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(trees):
    """name -> [(positional count, keywords)] for every call in the trees; a
    starred argument counts as every position, and ``**`` is keyword None."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(_call_name(node.func), []).append(
                    (float("inf") if starred else len(node.args),
                     {kw.arg for kw in node.keywords}))
    return calls


def _has_default(value):
    """Whether a dataclass field's right-hand side gives it a default."""
    if isinstance(value, ast.Call) and _call_name(value.func) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return value is not None


def _settable(tree):
    """(call name, name, positional index or None, label) of every parameter
    with a default of a module-level function, method or class, and of every
    dataclass field with a default."""
    out = []

    def params(fn, call_name, label, first):
        args = fn.args
        positional = args.posonlyargs + args.args
        start = len(positional) - len(args.defaults)
        out.extend((call_name, a.arg, i - first, f"{label}({a.arg})")
                   for i, a in enumerate(positional) if i >= start)
        out.extend((call_name, a.arg, None, f"{label}({a.arg})")
                   for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            params(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            decorators = {_call_name(getattr(d, "func", d)) for d in node.decorator_list}
            if "dataclass" in decorators:
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                out.extend((node.name, s.target.id, i, f"{node.name}.{s.target.id}")
                           for i, s in enumerate(fields) if _has_default(s.value))
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    static = any(_call_name(d) == "staticmethod" for d in m.decorator_list)
                    params(m, node.name if m.name == "__init__" else m.name,
                           f"{node.name}.{m.name}", 0 if static else 1)
    return out


def test_every_settable_value_is_set_by_a_run():
    # a parameter or dataclass field with a default that no call in the
    # package or in perfbench/ passes takes one value in every run: it is a
    # constant that only tests could set.  A call passes it by keyword, by
    # ``**`` or with enough positional arguments; calls match by name.
    src = {p.name: ast.parse(p.read_text())
           for p in sorted((ROOT / "src" / "ksgrowup").glob("*.py"))}
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    calls = _calls([*src.values(), *bench])
    unset = [f"{module}: {label}"
             for module, tree in src.items()
             for call_name, name, index, label in _settable(tree)
             if not any(name in kws or None in kws
                        or (index is not None and n > index)
                        for n, kws in calls.get(call_name, []))]
    assert unset == []
