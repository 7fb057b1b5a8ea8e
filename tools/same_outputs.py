"""Do two flatcheck source trees give the same outputs?

    python tools/same_outputs.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are directories holding the flatcheck package
(each checkout's src/). Every op below runs once per tree and seed, at
seeds 0 and 7, as a fresh `python -m flatcheck.cli` process with
PYTHONPATH set to that tree, in a scratch directory of its own. File
names in the arguments are relative, so the "wrote:" lines of the two
trees compare equal. Per op and seed it compares the exit code, stdout,
stderr, the JSON report without provenance.timestamp, and the bytes of
simulate's CSV.

The ops: every op of the benchmark's specs, symbolic-n and roundtrip
workloads (bench/run.py), cubic4 check, transform and verify,
disguised4 check and transform --force, perturbed_example1 check and
transform --force, involutive check, simulate chained8 --dt 1e-4,
verify chained6 --dt 2e-5, verify chained4 --samples 3, check sqrt4
and verify example1 --samples 150. simulate chained8 and verify
chained6 are closed-loop runs that harness integrates column by
column, the second over more than one block of columns. The last three
reach the edges of a point set: fewer sample rows than the five
reference rows of condition 2; a sample screen that drops rows (sqrt4
is chained4 with f = 0, 0, 0, sqrt(x1 + 1/2), which rejects 21 of 100
samples at seed 0); and a bracket oracle that takes the first 100 of
its sample rows.

Then the usage cases, each run once per tree, compare the exit code,
stdout and stderr of the command-line parser's help and errors: the
top-level --help, each command's --help, no arguments, an unknown
command, a missing spec, an unknown option, --samples 1 and --dt abc.

Prints one line per op and seed, or usage case, that differs, naming
what differs, and exits 1 if any does, else 0. For a JSON report that
line counts the differing leaves and gives the largest |head - base|
over the numeric ones; one line per differing leaf follows, with its
path, the base and head values and, for two numbers, head minus base.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402  (the benchmark's op list and spec writer)


def ops() -> list[run.Op]:
    """The ops of the module docstring, each once."""
    extra = [run.Op(c, "cubic4") for c in ("check", "transform", "verify")]
    extra += [run.Op(c, s, x) for s in ("disguised4", "perturbed_example1")
              for c, x in (("check", ()), ("transform", ("--force",)))]
    extra += [run.Op("check", "involutive"),
              run.Op("simulate", "chained8", ("--dt", "1e-4")),
              run.Op("verify", "chained6", ("--dt", "2e-5")),
              run.Op("verify", "chained4", ("--samples", "3")),
              run.Op("check", "sqrt4"),
              run.Op("verify", "example1", ("--samples", "150"))]
    out: list[run.Op] = []
    for op in [op for w in ("specs", "symbolic-n", "roundtrip")
               for op in run.WORKLOADS[w]] + extra:
        if op not in out:
            out.append(op)
    return out


def usage_cases() -> list[list[str]]:
    """The argvs of the usage cases of the module docstring."""
    return ([["--help"]] + [[c, "--help"] for c in run.COMMANDS]
            + [[], ["bogus"], ["check"], ["check", "example1.spec", "--bogus"],
               ["check", "example1.spec", "--samples", "1"],
               ["simulate", "example1.spec", "--dt", "abc"]])


def write_specs(work: Path, ops_: list[run.Op]) -> None:
    run.write_inputs(work, [op for op in ops_
                            if op.system not in ("cubic4", "sqrt4")])
    (work / "cubic4.spec").write_bytes((ROOT / "tests" / "cubic4.spec")
                                       .read_bytes())
    chained4 = (ROOT / "specs" / "chained4.spec").read_text(encoding="utf-8")
    (work / "sqrt4.spec").write_text(
        chained4.replace("\nf = 0, 0, 0, 0\n",
                         "\nf = 0, 0, 0, sqrt(x1 + 1/2)\n"), encoding="utf-8")


def _outputs(proc: subprocess.Popen, work: Path) -> dict:
    stdout, stderr = proc.communicate()
    report = work / "out.json"
    data = None
    if report.exists():
        data = json.loads(report.read_text(encoding="utf-8"))
        data["provenance"].pop("timestamp", None)
        report.unlink()
    csv = work / "out.csv"
    table = csv.read_bytes() if csv.exists() else None
    csv.unlink(missing_ok=True)
    return {"exit code": proc.returncode, "stdout": stdout,
            "stderr": stderr, "json": data, "csv": table}


class _Absent:
    """The value, on one side, of a key that only the other has."""

    def __repr__(self):
        return "absent"


_ABSENT = _Absent()


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _differing_leaves(a, b, path: str = "") -> list[tuple[str, object, object]]:
    """(path, base, head) of every leaf where a and b differ. A key only
    one side has is a leaf, absent on the other, and so are two lists
    of different lengths."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [leaf for key in sorted(a.keys() | b.keys())
                for leaf in _differing_leaves(a.get(key, _ABSENT),
                                              b.get(key, _ABSENT),
                                              f"{path}.{key}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [leaf for i, (x, y) in enumerate(zip(a, b))
                for leaf in _differing_leaves(x, y, f"{path}[{i}]")]
    same = a == b or a != a and b != b  # NaN matches NaN
    return [] if same else [(path or ".", a, b)]


def _json_lines(label: str, base, head) -> list[str]:
    """How many leaves differ and the largest |head - base| of the
    numeric ones (NaN above all), then one line per leaf: its path,
    both values and, for two numbers, head minus base. No lines when
    no leaf differs."""
    leaves = _differing_leaves(base, head)
    if not leaves:
        return []
    diffs = [abs(b - a) for _, a, b in leaves
             if _is_number(a) and _is_number(b)]
    largest = (f", largest |difference| "
               f"{max(diffs, key=lambda d: (d != d, d))!r}" if diffs else "")
    lines = [f"{label}: json differs at {len(leaves)} "
             f"{'leaf' if len(leaves) == 1 else 'leaves'}{largest}"]
    for path, a, b in leaves:
        diff = (f", difference {b - a!r}" if _is_number(a) and _is_number(b)
                else "")
        lines.append(f"  {path}: base {a!r}, head {b!r}{diff}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [str(Path(a).resolve()) for a in argv]
    for tree in trees:
        # else the subprocess would import whichever flatcheck is
        # installed, and two such runs always agree
        if not Path(tree, "flatcheck", "__init__.py").is_file():
            print(f"no flatcheck package in {tree}", file=sys.stderr)
            return 2
    todo = ops()
    differ = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        works = [Path(tmp, side) for side in ("base", "head")]
        for work in works:
            work.mkdir()
            write_specs(work, todo)
        runs = [(f"{op.name} --seed {seed}", op.argv(seed, "out"))
                for op in todo for seed in (0, 7)]
        cases = usage_cases()
        runs += [("usage: " + " ".join(["flatcheck", *a]), a) for a in cases]
        for label, argv_ in runs:
            procs = [subprocess.Popen(
                [sys.executable, "-m", "flatcheck.cli", *argv_],
                cwd=work, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=tree))
                for tree, work in zip(trees, works)]
            base, head = (_outputs(p, w) for p, w in zip(procs, works))
            for what in base:
                if what == "json":
                    lines = _json_lines(label, base[what], head[what])
                else:
                    lines = ([f"{label}: {what} differs"]
                             if base[what] != head[what] else [])
                if lines:
                    differ += 1
                    print("\n".join(lines))
    print(f"{len(todo)} ops at seeds 0 and 7, {len(cases)} usage cases: "
          f"{'identical' if not differ else f'{differ} differences'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
