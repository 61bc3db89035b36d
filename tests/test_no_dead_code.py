"""Every definition in src/quintic is reached from src/quintic itself.

A module-level function or class, or a method, that nothing in the package
names is code no command runs. Names are matched as identifiers (a bare
name or an attribute), anywhere in the package except inside the
definition itself. Dunder methods, and module-level dunder functions such
as the package's ``__getattr__`` (PEP 562), are called by the language and
are not checked.

A method named like an attribute of a builtin type, of ``array.array`` or of
an ``enum.Enum`` member would pass on a call to that attribute alone (a
``value`` method passes on every ``Verdict.value``), so each such method is
listed, with the reason it is reached, in FOREIGN_NAMED. A method can still
pass on a call to another quintic method of the same name, such as
``to_json``.

Every parameter of every function, other than ``self`` and ``cls``, is read
in the function's body, or is listed with its reason in UNREAD_PARAMETERS.

Every module-level constant (a name a top-level assignment binds, dunders
aside) is read somewhere in the package outside its own assignment, so a
flag or a record that goes cannot leave its constants behind.
"""

import array
import ast
import builtins
import enum
from pathlib import Path

from quintic.cli import main

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quintic"

#: reached from outside the package: click calls the callback of every command
#: registered on the group, and the group's own parse_args and invoke;
#: from_json is the library inverse of to_json
ALLOWED = frozenset({
    *(f"cli.{command.callback.__name__}" for command in main.commands.values()),
    f"cli.{type(main).parse_args.__qualname__}",
    f"cli.{type(main).invoke.__qualname__}",
    "cyclo.CycInt.from_json",
})

#: methods named like a foreign attribute, each with the call that reaches it
FOREIGN_NAMED = {
    "intarith._PrimeTable.extend":
        "factorize, factorize_window, prime_blocks and sieve_primes grow a prime table with table.extend",
}

#: parameters that their function never reads, each with the reason it is kept
UNREAD_PARAMETERS: dict[str, str] = {}


class _Member(enum.Enum):
    A = 1


#: attribute names of every builtin type, of array.array and of an Enum member
FOREIGN_ATTRIBUTES = frozenset(
    name
    for kind in (*(t for t in vars(builtins).values() if isinstance(t, type)), array.array, _Member.A)
    for name in dir(kind)
)


def _definitions(tree: ast.Module, module: str):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
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
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
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


def test_every_method_named_like_a_foreign_attribute_is_listed():
    methods = {
        qualname
        for path in sorted(PACKAGE.glob("*.py"))
        for qualname, node in _definitions(ast.parse(path.read_text()), path.stem)
        if qualname.count(".") == 2 and node.name in FOREIGN_ATTRIBUTES
    }
    assert methods == FOREIGN_NAMED.keys()


def _functions(node: ast.AST, prefix: str):
    """Every function and lambda under node, nested ones too, by dotted name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name)
        elif isinstance(child, ast.Lambda):
            yield f"{prefix}.<lambda>", child
            yield from _functions(child, prefix)
        else:
            yield from _functions(child, prefix)


def _unread_parameters(fn) -> list[str]:
    spec = fn.args
    params = [*spec.posonlyargs, *spec.args, spec.vararg, *spec.kwonlyargs, spec.kwarg]
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    read = {
        node.id
        for statement in body
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [p.arg for p in params if p is not None and p.arg not in ("self", "cls") and p.arg not in read]


def test_every_parameter_is_read_in_its_function():
    unread = {
        f"{qualname}.{param}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualname, fn in _functions(ast.parse(path.read_text()), path.stem)
        for param in _unread_parameters(fn)
    }
    assert unread == UNREAD_PARAMETERS.keys()


def _constants(tree: ast.Module):
    """The names bound by each top-level assignment, with the assignment."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, node


def _reads(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def test_every_module_level_constant_is_read_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = {module: list(_reads(tree)) for module, tree in trees.items()}
    unread = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _constants(tree)
        if not any(
            read == name and not (other == module and node.lineno <= line <= node.end_lineno)
            for other, names in reads.items()
            for read, line in names
        )
    ]
    assert unread == []
