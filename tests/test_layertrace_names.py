"""The benchmark's layer trace still finds every name it patches.

bench/layertrace.py wraps flatcheck functions and methods by name, so
deleting or renaming one of them breaks the traced benchmark run. Its
name tables are read from the file's syntax tree: the file is neither
imported nor run.
"""

import ast
import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"
TABLES = ("MODULES", "FUNCTIONS", "OWN_MODULE", "METHODS")


def _tables() -> dict:
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in TABLES}


def test_layertrace_names_resolve():
    tables = _tables()
    assert sorted(tables) == sorted(TABLES)
    mods = {m: importlib.import_module(f"flatcheck.{m}")
            for m in tables["MODULES"]}
    missing = []
    for home, attrs in (*tables["FUNCTIONS"].values(),
                        *tables["OWN_MODULE"].values()):
        for attr in (attrs,) if isinstance(attrs, str) else attrs:
            if not callable(getattr(mods[home], attr, None)):
                missing.append(f"{home}.{attr}")
    for sites in tables["METHODS"].values():
        for home, cls_name, attr in sites:
            cls = getattr(mods[home], cls_name, None)
            if cls is None or attr not in vars(cls):
                missing.append(f"{home}.{cls_name}.{attr}")
    assert missing == []
