"""Only chained reaches into symx's private names.

The output-pair search in chained works on (num, den) pairs by design.
Every other module builds its sums and derivatives of normal forms with
symx's public functions (fold, normalize). Each module is read from its
syntax tree, not imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flatcheck"


def _private_symx_names(tree: ast.AST) -> list[str]:
    """Underscore names taken from symx: imported by name, or read as
    an attribute of the module."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and node.module in ("symx", "flatcheck.symx")):
            out += [a.name for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name)
              and node.value.id == "symx"):
            out.append(node.attr)
    return out


def test_only_chained_imports_private_symx_names():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("symx", "chained"):
            continue
        names = _private_symx_names(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            found[path.stem] = names
    assert found == {}


def test_the_guard_sees_both_forms():
    tree = ast.parse("from .symx import Expr, _add\n"
                     "from flatcheck.symx import _canon as c\n"
                     "from . import symx\n"
                     "x = symx._ratform(e, {})\n")
    assert _private_symx_names(tree) == ["_add", "_canon", "_ratform"]
