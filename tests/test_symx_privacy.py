"""No module other than symx handles symx's (num, den) pairs.

No module of the package, chained included, takes an underscore name or
the pair types Poly, Pair and Mono from symx. Sums and derivatives of
normal forms go through symx's public functions (fold, normalize), and
the output-pair search through symx.Ansatz. Each module is read from
its syntax tree, not imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flatcheck"

PAIR_TYPES = ("Poly", "Pair", "Mono")


def _private_symx_names(tree: ast.AST) -> list[str]:
    """Underscore names and pair types taken from symx: imported by
    name, or read as an attribute of the module."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and node.module in ("symx", "flatcheck.symx")):
            out += [a.name for a in node.names
                    if a.name.startswith("_") or a.name in PAIR_TYPES]
        elif (isinstance(node, ast.Attribute)
              and (node.attr.startswith("_") or node.attr in PAIR_TYPES)
              and isinstance(node.value, ast.Name)
              and node.value.id == "symx"):
            out.append(node.attr)
    return out


def test_no_module_but_symx_takes_private_symx_names():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "symx":
            continue
        names = _private_symx_names(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            found[path.stem] = names
    assert found == {}


def test_the_guard_sees_both_forms():
    tree = ast.parse("from .symx import Expr, _add, Pair\n"
                     "from flatcheck.symx import _canon as c\n"
                     "from . import symx\n"
                     "x = symx._ratform(e, {})\n"
                     "y: symx.Poly = {}\n")
    assert sorted(_private_symx_names(tree)) == ["Pair", "Poly", "_add",
                                                 "_canon", "_ratform"]
