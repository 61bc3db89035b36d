"""Every definition in src/quintic is reached from src/quintic itself.

A module-level function or class, or a method, that nothing in the package
names is code no command runs. Names are matched as identifiers (a bare
name or an attribute), anywhere in the package except inside the
definition itself and in the ``__init__`` re-exports. Dunder methods are
called by the language and are not checked.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quintic"

#: reached from outside the package: click registers the command callbacks
#: by their decorator, and from_json is the library inverse of to_json
ALLOWED = frozenset({
    "cli.factor",
    "cli.genus_cmd",
    "cli.enumerate_cmd",
    "cli.selftest_cmd",
    "cyclo.CycInt.from_json",
})


def _definitions(tree: ast.Module, module: str):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{module}.{node.name}.{sub.name}", sub


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_definition_is_referenced_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    refs = {
        module: list(_references(tree)) for module, tree in trees.items() if module != "__init__"
    }
    defined = set()
    unreferenced = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module):
            defined.add(qualname)
            if qualname in ALLOWED:
                continue
            used = any(
                name == node.name
                and not (other == module and node.lineno <= line <= node.end_lineno)
                for other, names in refs.items()
                for name, line in names
            )
            if not used:
                unreferenced.append(qualname)
    assert unreferenced == []
    assert ALLOWED <= defined
