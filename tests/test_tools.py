"""The repository's command-line tools under tools/."""

import sys
from pathlib import Path

from flatcheck.harness import _COLUMN_BLOCK

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import code_lines  # noqa: E402
import same_outputs  # noqa: E402

FIXTURE = '''\
"""A module docstring
over two lines."""

import sys  # a comment after code

# a comment line


def f(x):
    """A function docstring."""
    text = """a string
that spans
three lines"""
    return x, text
'''


def test_code_lines_counts_code_only():
    # import, def, the three lines of the string, return
    assert code_lines.code_lines(FIXTURE) == 6


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "a          6", "b          1", "total      7", ""]


def test_same_outputs_lists_every_differing_leaf():
    base = {"a": 1.0, "b": [1, 2, {"c": "x"}], "d": True, "e": 0,
            "n": float("nan")}
    head = {"a": 1.5, "b": [1, 4, {"c": "y"}], "d": True, "f": 0,
            "n": float("nan")}
    assert same_outputs._json_lines("op", base, head) == [
        "op: json differs at 5 leaves, largest |difference| 2",
        "  .a: base 1.0, head 1.5, difference 0.5",
        "  .b[1]: base 2, head 4, difference 2",
        "  .b[2].c: base 'x', head 'y'",
        "  .e: base 0, head absent",
        "  .f: base absent, head 0"]
    assert same_outputs._json_lines("op", base, dict(base)) == []


def test_same_outputs_ops_cover_long_column_runs():
    # beyond the benchmark's ops: a simulate of chained8 and a verify of
    # chained6 over more than one block of columns (50,000 steps)
    ops = same_outputs.ops()
    assert len(ops) == len(set(ops)) == 33
    for op in (same_outputs.run.Op("simulate", "chained8", ("--dt", "1e-4")),
               same_outputs.run.Op("verify", "chained6", ("--dt", "2e-5"))):
        assert op in ops
    assert round(1 / 2e-5) > _COLUMN_BLOCK
