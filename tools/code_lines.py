"""Count the lines of Python source that hold code.

    python tools/code_lines.py PATH [PATH ...]

Each PATH is a .py file or a directory, whose .py files are read at any
depth. A line holds code when a token other than a comment starts,
ends or runs through it; blank lines, comment lines and docstrings do
not count. A docstring here is any string that stands alone as a
statement. A string inside an expression counts on every line it
spans. Prints one line per file, named by its path under its PATH
without .py, then the total.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# tokens after which a string starts a statement of its own
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_LAYOUT = _STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    toks = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
            if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for i, tok in enumerate(toks):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (i == 0 or toks[i - 1].type in _STATEMENT_START)
                and toks[i + 1].type in _LAYOUT):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(paths: list[str]) -> list[tuple[str, int]]:
    """(name, code lines) of every .py file under the paths."""
    out = []
    for arg in paths:
        root = Path(arg)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            name = (path.relative_to(root).with_suffix("").as_posix()
                    if root.is_dir() else path.stem)
            out.append((name, code_lines(path.read_text(encoding="utf-8"))))
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows = count(argv)
    width = max([len(name) for name, _ in rows] + [len("total")])
    for name, n in rows:
        print(f"{name:<{width}} {n:>6}")
    print(f"{'total':<{width}} {sum(n for _, n in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
