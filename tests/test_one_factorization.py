"""Each factoring function of intarith has the one caller in radicand that decides its use.

classify keeps n's factorization in its RadicandForm, and every per-radicand
function reads it from there, so the package factors each n once:
- radicand_factorization, which refuses n < 2 first, is the one caller of
  factorize;
- enumerate_ledgers, which sieves a dense window at once for `enumerate`
  and for enumerate_radicands, is the one caller of factorize_window.

Inside src/quintic each name may therefore appear only in intarith, which
defines it, and in radicand, which imports it for its one caller. A use under
another name (``import ... as``) or through the module (``intarith.factorize``)
counts the same.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quintic"

#: each factoring function of intarith, with the one radicand function that calls it
CALLERS = {
    "factorize": "radicand_factorization",
    "factorize_window": "enumerate_ledgers",
}


def _uses(tree: ast.Module, function: str):
    """(enclosing top-level definition or None, kind) of each use of function."""
    local = {function}  # names bound to it by "from ... import function [as x]"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            local.update(a.asname or a.name for a in node.names if a.name == function)
    for top in tree.body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.alias) and node.name == function:
                yield where, "import"
            elif isinstance(node, ast.Name) and node.id in local:
                yield where, "read"
            elif isinstance(node, ast.Attribute) and node.attr == function:
                yield where, "read"


@pytest.mark.parametrize("function, caller", CALLERS.items())
def test_each_factoring_function_has_one_caller(function, caller):
    found = {
        (path.stem, where, kind)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "intarith"
        for where, kind in _uses(ast.parse(path.read_text()), function)
    }
    assert found == {("radicand", None, "import"), ("radicand", caller, "read")}
