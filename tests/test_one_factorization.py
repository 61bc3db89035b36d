"""Only radicand.radicand_factorization factors a radicand.

classify keeps n's factorization in its RadicandForm, and every per-radicand
function reads it from there, so the package factors each n once and one
function decides how (refusing n < 2 first). Inside src/quintic the name
factorize may therefore appear only in intarith, which defines it, and in
radicand, which imports it for radicand_factorization alone. A use under
another name (``import ... as``) or through the module (``intarith.factorize``)
counts the same.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quintic"


def _uses(tree: ast.Module):
    """(enclosing top-level definition or None, kind) of each use of factorize."""
    local = {"factorize"}  # names bound to it by "from ... import factorize [as x]"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            local.update(a.asname or a.name for a in node.names if a.name == "factorize")
    for top in tree.body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.alias) and node.name == "factorize":
                yield where, "import"
            elif isinstance(node, ast.Name) and node.id in local:
                yield where, "read"
            elif isinstance(node, ast.Attribute) and node.attr == "factorize":
                yield where, "read"


def test_only_radicand_factorization_calls_factorize():
    found = {
        (path.stem, where, kind)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "intarith"
        for where, kind in _uses(ast.parse(path.read_text()))
    }
    assert found == {("radicand", None, "import"), ("radicand", "radicand_factorization", "read")}
