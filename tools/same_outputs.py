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
transform --force, and involutive check.

Then the usage cases, each run once per tree, compare the exit code,
stdout and stderr of the command-line parser's help and errors: the
top-level --help, each command's --help, no arguments, an unknown
command, a missing spec, an unknown option, --samples 1 and --dt abc.

Prints one line per op and seed, or usage case, that differs, naming
what differs (for a JSON report, the path of its first difference,
and where that is a number, the base and head values and head minus
base), and exits 1 if any does, else 0.
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
    extra.append(run.Op("check", "involutive"))
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
    run.write_inputs(work, [op for op in ops_ if op.system != "cubic4"])
    (work / "cubic4.spec").write_bytes((ROOT / "tests" / "cubic4.spec")
                                       .read_bytes())


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


def _first_difference(a, b, path: str = "") -> str:
    """The path of the first key or index where a and b differ, and,
    where that is two numbers, both and their difference."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                return f"{path}.{key}"
            if a[key] != b[key]:
                return _first_difference(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _first_difference(x, y, f"{path}[{i}]")
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool)
             for x in (a, b)):
        return f"{path or '.'}: {a!r} against {b!r}, difference {b - a!r}"
    return path or "."


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
                if base[what] != head[what]:
                    differ += 1
                    where = (f" at {_first_difference(base[what], head[what])}"
                             if what == "json" else "")
                    print(f"{label}: {what} differs{where}")
    print(f"{len(todo)} ops at seeds 0 and 7, {len(cases)} usage cases: "
          f"{'identical' if not differ else f'{differ} differences'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
