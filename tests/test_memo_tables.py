"""Every memo table in src/quintic is bounded at MEMO_SIZE.

A functools memo decorator keeps its entries for the life of the process and
hands every later caller the same result. The only form allowed is
``lru_cache(maxsize=MEMO_SIZE)``, bounded by the one constant in ``primes``;
``functools.cache``, ``cached_property`` and an ``lru_cache`` of any other
size fail the check, whether applied as a decorator or called.
"""

import ast
from pathlib import Path

from quintic.primes import MEMO_SIZE

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quintic"
MEMO = frozenset({"cache", "lru_cache", "cached_property"})


def _memo_uses(tree: ast.Module):
    """Each node that names a functools memo decorator, with that decorator's name."""
    local = {}  # name bound by "from functools import ..." -> functools name
    modules = set()  # names bound by "import functools"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            local.update((a.asname or a.name, a.name) for a in node.names if a.name in MEMO)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in local:
            yield node, local[node.id]
        elif (isinstance(node, ast.Attribute) and node.attr in MEMO
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield node, node.attr


def _bounded(node: ast.AST, name: str, call: ast.AST | None) -> bool:
    """True when node is the callee of exactly lru_cache(maxsize=MEMO_SIZE)."""
    return (
        name == "lru_cache"
        and isinstance(call, ast.Call)
        and call.func is node
        and not call.args
        and [(k.arg, getattr(k.value, "id", None)) for k in call.keywords] == [("maxsize", "MEMO_SIZE")]
    )


def test_every_memo_table_is_bounded_at_memo_size():
    assert type(MEMO_SIZE) is int and MEMO_SIZE > 0
    found, unbounded = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node, name in _memo_uses(tree):
            where = f"{path.stem}:{node.lineno} {name}"
            found.append(where)
            if not _bounded(node, name, parent.get(node)):
                unbounded.append(where)
    assert found  # the package memoizes; a check that finds no table reads nothing
    assert unbounded == []
