"""flatcheck benchmark: per-command latency over fixed op lists.

    python3 bench/run.py --workload specs --seed 0 --seconds 30 --trace 0

An op is one flatcheck command on one spec file, timed as one
in-process call of ``flatcheck.cli.main(argv)`` from a single thread
(BLAS threads pinned to 1), inside a scratch working directory under
``.bench_work/`` with ``--json``/``--out`` pointing there.  A run
repeats the workload's op list in passes until ``--seconds`` is spent
(at least two passes, so repeats can be compared) and reports, per
command, the sum over its ops of each op's median wall time, scaled to
a host of fixed speed (see ``HostSpeed``).

``--trace 1`` alternates untraced and traced passes (at least one
each) and reports the per-layer metrics of ``bench/layertrace.py``
instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full per-op record is
written to ``.bench_work/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported (by flatcheck, below).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402  (the benchmark's own modules)
import systems  # noqa: E402

COMMANDS = ("check", "transform", "verify", "simulate")
BUNDLED = ("example1", "motor", "chained4")
SETUP_REPEATS = 9
QUANTUM_S = 0.5
# The host-speed yardstick (see HostSpeed): its loop size, how often it
# runs between and inside timed calls, and its wall time on the host
# that the reported seconds refer to (about its median on a 2-vCPU Xeon).
REF_ITEMS = 1500
REF_BETWEEN = 4
REF_PERIOD_S = 0.1
REF_NOMINAL_S = 0.0027

# Known answers of the check stage.  Every generated system is built in
# triangular form, so it must pass.
PASS = {"condition1": "pass", "condition2": "pass", "overall": "pass"}
KNOWN = {
    "motor": {"condition1": "pass", "condition2": "vacuous",
              "overall": "vacuous-2"},
    "perturbed_example1": {"condition1": "pass", "condition2": "fail",
                           "overall": "fail"},
    "involutive": {"condition1": "fail", "overall": "fail"},
}


@dataclass(frozen=True)
class Op:
    command: str
    system: str
    extra: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return " ".join((self.command, self.system) + self.extra)

    def argv(self, seed: int, stem: str) -> list[str]:
        argv = [self.command, f"{self.system}.spec", "--seed", str(seed),
                *self.extra, "--json", f"{stem}.json"]
        if self.command == "simulate":
            argv += ["--out", f"{stem}.csv"]
        return argv

    def expected(self) -> tuple[dict[str, str], int]:
        """Known verdicts (only the keys given are compared), exit code."""
        if self.command == "simulate":
            return {"overall": "pass", "verification": "pass"}, 0
        want = dict(KNOWN.get(self.system, PASS))
        if self.command == "transform":
            want["construction"] = "ok"
        elif self.command == "verify":
            want["verification"] = "pass"
        return want, 1 if want["overall"] == "fail" else 0


# Why each workload exists, and why every one runs all four commands, is
# in bench/README.md.
WORKLOADS = {
    "specs": [Op(c, s) for s in BUNDLED for c in COMMANDS]
    + [Op("check", "perturbed_example1"), Op("check", "involutive")],
    "symbolic-n": [Op("transform", f"chained{n}", ("--force",))
                   for n in range(5, 9)]
    + [Op("check", "chained7"), Op("verify", "chained5"),
       Op("simulate", "chained7")],
    "roundtrip": [Op("simulate", s, ("--dt", "1e-4")) for s in BUNDLED]
    + [Op("check", "chained4"), Op("transform", "chained4"),
       Op("verify", "chained4", ("--dt", "1e-4"))],
    # Not in BENCHMARK.json: ops that fail at the seed commit, kept
    # runnable so that each defect is reported by name.  One pass.
    "defects": [Op("transform", f"disguised{n}", ("--force",))
                for n in range(4, 7)],
}
MIN_PASSES = {"defects": 1}
# Run once, untimed, before the first timed op: the first call of each
# command pays one-time costs (lazy imports such as scipy's, the first
# growth of the heap) that a pass would otherwise charge to whichever
# op came first.
WARMUP = [Op(c, "chained4") for c in COMMANDS]


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop: the host-speed yardstick.

    It builds Fractions into tuples kept in a dict and sorts them, the
    kind of work flatcheck's expression engine does, but it never calls
    flatcheck, so no change to the program can move it.  The collector
    is kept off inside, so the program's heap does not leak into it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        buckets: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        for i in range(REF_ITEMS):
            key = (i % 97, i * 31 % 101)
            buckets[key] = buckets.get(key, ()) + (Fraction(i, 7),)
        sorted(buckets.items())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Scales wall times to a host of fixed speed.

    The shared host this runs on changes speed by up to 1.5x, within
    seconds, for every process alike.  So the yardstick is timed
    ``REF_BETWEEN`` times between timed calls and, from a SIGALRM
    handler, every ``REF_PERIOD_S`` inside a call run under
    ``sampling()``.  A call's wall time, less the time spent in the
    handler, is scaled by ``REF_NOMINAL_S`` over the geometric mean of
    the yardstick times taken just before, inside and just after it, so
    that it reads as seconds on a host where the yardstick takes
    ``REF_NOMINAL_S``.
    """

    def __init__(self):
        self.samples: list[float] = []  # every yardstick time, in order
        self._before = self._probe()
        self._inside: list[float] = []
        self._spent = 0.0

    def _probe(self) -> list[float]:
        gc.collect()
        got = [reference_seconds() for _ in range(REF_BETWEEN)]
        self.samples += got
        return got

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        try:
            self._inside.append(reference_seconds())
        except RecursionError:  # the interrupted call was already at the limit
            pass
        self._spent += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        """Time the yardstick every ``REF_PERIOD_S`` inside the block too."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, wall: float) -> float:
        """Scaled time of the call that took ``wall`` s and just ended."""
        self.samples += self._inside
        after = self._probe()
        ref = self._before + self._inside + after
        speed = math.exp(statistics.fmean(math.log(t) for t in ref))
        scaled = (wall - self._spent) * REF_NOMINAL_S / speed
        self._before, self._inside, self._spent = after, [], 0.0
        return scaled


@dataclass
class Outcome:
    """What one execution of an op produced, and how long it took."""

    seconds: float  # wall time
    scaled: float  # wall time less yardstick time, scaled by HostSpeed
    exit_code: int | None
    exception: str | None
    verdicts: dict
    report: str | None  # JSON report without provenance.timestamp

    def key(self):
        return self.exit_code, self.exception, self.verdicts, self.report


@dataclass
class OpRecord:
    op: Op
    untraced: list[Outcome] = field(default_factory=list)
    traced: list[Outcome] = field(default_factory=list)
    reps: int = 1  # untraced runs per pass

    def _problem(self, o: Outcome, traced: bool) -> str | None:
        want, want_rc = self.op.expected()
        if o.exception is not None:
            return f"{o.exception} escaped main"
        wrong = [f"{k} {o.verdicts.get(k)} (expected {v})"
                 for k, v in want.items() if o.verdicts.get(k) != v]
        if o.exit_code != want_rc:
            wrong.append(f"exit code {o.exit_code} (expected {want_rc})")
        if wrong:
            return ", ".join(wrong)
        first = self.untraced[0]
        if traced and o.key() != first.key():
            return "traced outcome differs from untraced (tracing bug)"
        if o.report != first.report:
            return "JSON report differs between repeats"
        return None

    def problems(self) -> list[str | None]:
        """One entry per execution: why it failed, or None."""
        return ([self._problem(o, False) for o in self.untraced]
                + [self._problem(o, True) for o in self.traced])

    def reasons(self) -> list[str]:
        return list(dict.fromkeys(p for p in self.problems() if p))

    def median_s(self) -> float:
        return statistics.median(o.scaled for o in self.untraced)

    def median_wall_s(self) -> float:
        return statistics.median(o.seconds for o in self.untraced)


def _strip_timestamp(text: str) -> str:
    data = json.loads(text)
    data["provenance"].pop("timestamp", None)
    return json.dumps(data, sort_keys=True)


def run_op(main, op: Op, seed: int, stem: str, host: HostSpeed,
           call=None) -> Outcome:
    """Run one op in the current directory; ``call`` wraps the timed call."""
    argv = op.argv(seed, stem)
    report = Path(f"{stem}.json")
    report.unlink(missing_ok=True)
    rc = exc = None
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with host.sampling(), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            rc = call(lambda: main(argv)) if call else main(argv)
    except (Exception, SystemExit) as e:  # an escaping error fails the op
        exc = type(e).__name__
    seconds = time.perf_counter() - start
    scaled = host.scale(seconds)
    verdicts, text = {}, None
    if exc is None and report.exists():
        raw = report.read_text(encoding="utf-8")
        verdicts = json.loads(raw)["verdicts"]
        text = _strip_timestamp(raw)
    return Outcome(seconds, scaled, rc, exc, verdicts, text)


def setup_seconds(host: HostSpeed) -> list[float]:
    """Scaled wall times of a fresh interpreter importing flatcheck.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import flatcheck.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first run fills __pycache__
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        scaled = host.scale(time.perf_counter() - start)
        if i:
            times.append(scaled)
    return times


def write_inputs(work: Path, ops: list[Op]) -> None:
    for name in sorted({op.system for op in ops}):
        if name in BUNDLED:
            text = (ROOT / "specs" / f"{name}.spec").read_text(encoding="utf-8")
        elif name.startswith("chained"):
            text = systems.chained(int(name[len("chained"):]))
        elif name.startswith("disguised"):
            text = systems.disguised(int(name[len("disguised"):]))
        else:
            text = getattr(systems, name)()
        (work / f"{name}.spec").write_text(text, encoding="utf-8")


def repo_snapshot() -> dict[str, tuple[int, int]]:
    """Size and mtime of every checkout file outside scratch and caches."""
    skip = {".bench_work", ".bench_build", ".git", "__pycache__"}
    snap = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for f in filenames:
            p = Path(dirpath, f)
            st = p.stat()
            snap[str(p.relative_to(ROOT))] = (st.st_size, st.st_mtime_ns)
    return snap


def traced_accounting(tracer: layertrace.Tracer,
                      ops_wall: dict[int, float]) -> list[str]:
    """Check that each traced op's spans nest and add up to its wall time."""
    errors = []
    layers = {name[:-len(".self_s")] for name, _, _ in layertrace.PER_LAYER
              if name.endswith(".self_s")}
    for name in {span[0] for span in tracer.spans} - layers - {
            layertrace.NODES}:
        errors.append(f"span {name} is not counted in any layer metric")
    for name, start, end, parent, op in tracer.spans:
        if end < start:
            errors.append(f"a {name} span was never closed")
        elif name != layertrace.ROOT and (
                parent < 0 or tracer.spans[parent][4] != op):
            errors.append(f"a {name} span has no parent in its op")
    if min(tracer.self_times(), default=0.0) < -1e-6:
        errors.append("a span has negative self time (overlapping children)")
    for op, totals in tracer.per_op().items():
        spans_s = sum(v for k, v in totals.items() if k.endswith(".self_s"))
        wall = ops_wall[op]
        if abs(spans_s - wall) > 0.02 * wall + 1e-3:
            errors.append(f"op {op}: self times sum to {spans_s:.4f} s, "
                          f"measured wall {wall:.4f} s")
    return list(dict.fromkeys(errors))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    if not (SRC / "flatcheck" / "cli.py").is_file():
        print(f"bench: no flatcheck sources under {SRC}", file=sys.stderr)
        return 2
    missing = [s for s in BUNDLED
               if not (ROOT / "specs" / f"{s}.spec").is_file()]
    if missing:
        print(f"bench: bundled specs missing: {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flatcheck.cli
    if Path(flatcheck.cli.__file__).resolve().parent != SRC / "flatcheck":
        print("bench: flatcheck imported from outside the checkout",
              file=sys.stderr)
        return 2

    checks: list[str] = []
    try:
        systems.self_test_fraction()
    except AssertionError as e:
        checks.append(f"generator self-test: {e}")
    host = HostSpeed()
    setup = setup_seconds(host)

    records = [OpRecord(op) for op in WORKLOADS[args.workload]]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    write_inputs(work, [r.op for r in records] + WARMUP)
    before = repo_snapshot()

    tracer = layertrace.Tracer()
    ops_wall: dict[int, float] = {}  # traced op key -> measured wall
    traced_passes = 0
    min_passes = 2 if args.trace else MIN_PASSES.get(args.workload, 2)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for op in WARMUP:
            run_op(flatcheck.cli.main, op, args.seed, "warmup", host)
        start = time.perf_counter()
        passes = 0
        while True:
            t0 = time.perf_counter()
            if args.trace == 1 and passes % 2 == 1:
                with tracer.installed():
                    for i, rec in enumerate(records):
                        key = traced_passes * len(records) + i
                        o = run_op(flatcheck.cli.main, rec.op, args.seed,
                                   f"op{i:02d}", host,
                                   call=lambda f, k=key: tracer.run_op(k, f))
                        rec.traced.append(o)
                        ops_wall[key] = o.seconds
                traced_passes += 1
            else:
                for i, rec in enumerate(records):
                    for _ in range(rec.reps):
                        rec.untraced.append(run_op(flatcheck.cli.main, rec.op,
                                                   args.seed, f"op{i:02d}",
                                                   host))
                    # after its first run, an op short of QUANTUM_S repeats
                    # within each pass, so short ops get enough samples
                    rec.reps = max(1, math.ceil(QUANTUM_S / rec.median_s()))
            passes += 1
            now = time.perf_counter()
            if passes >= min_passes and (now - start) + (now - t0) > args.seconds:
                break
    finally:
        os.chdir(cwd)
    if repo_snapshot() != before:
        checks.append("an op wrote into the checkout outside .bench_work/")

    command_s = {f"{cmd}_s": sum(r.median_s() for r in records
                                 if r.op.command == cmd) for cmd in COMMANDS}
    notes: list[str] = []
    if args.trace == 0:
        metrics = {k: {"value": v, "unit": "s"} for k, v in command_s.items()}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB"}
    else:
        checks += traced_accounting(tracer, ops_wall)
        per_op = tracer.per_op()
        n = len(records)
        layer = layertrace.median_metrics([
            layertrace.layer_metrics([per_op.get(p * n + i, {})
                                      for i in range(n)])
            for p in range(traced_passes)])
        def traced_pass_s(scaled: bool) -> float:
            return statistics.median(
                sum(r.traced[p].scaled if scaled else r.traced[p].seconds
                    for r in records) for p in range(traced_passes))
        layer["trace.overhead_ratio"] = traced_pass_s(True) / sum(
            r.median_s() for r in records)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in layertrace.PER_LAYER}
        self_s = {k: v for k, v in layer.items() if k.endswith(".self_s")}
        notes.append(f"largest layer self time: {max(self_s, key=self_s.get)}")
        notes.append(f"traced wall {traced_pass_s(False):.4f} s; layers and cli "
                     f"{sum(self_s.values()):.4f} s; the rest is trace "
                     f"bookkeeping (counting normalize result nodes)")
        simulate_wall = sum(r.median_wall_s() for r in records
                            if r.op.command == "simulate")
        if simulate_wall:
            notes.append("harness.simulate.self_s / untraced simulate wall = "
                         f"{layer['harness.simulate.self_s'] / simulate_wall:.3f}")

    attempted = sum(len(r.problems()) for r in records)
    failed = sum(1 for r in records for p in r.problems() if p)
    correct = not checks and not failed

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{tag}.json"
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "checks": checks,
        "notes": notes, "untraced_command_s": command_s,
        "attempted": attempted, "failed": failed, "setup_runs_s": setup,
        "reference_s": {"nominal": REF_NOMINAL_S,
                        "median": statistics.median(host.samples),
                        "min": min(host.samples), "max": max(host.samples)},
        "ops": [{
            "op": r.op.name,
            "argv": r.op.argv(args.seed, f"op{i:02d}"),
            "expected": dict(zip(("verdicts", "exit_code"), r.op.expected())),
            "exit_code": r.untraced[0].exit_code,
            "exception": r.untraced[0].exception,
            "verdicts": r.untraced[0].verdicts,
            "matched": not r.reasons(),
            "failures": r.reasons(),
            "untraced_s": [o.seconds for o in r.untraced],
            "untraced_scaled_s": [o.scaled for o in r.untraced],
            "traced_s": [o.seconds for o in r.traced],
        } for i, r in enumerate(records)],
        "metrics": metrics,
    }
    out_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if args.trace == 1:
        tracer.write(results / f"{tag}.spans.jsonl.gz")
    shutil.rmtree(work, ignore_errors=True)

    for r in records:
        status = "; ".join(r.reasons()) or "ok"
        print(f"{r.median_s():9.4f} s  x{len(r.untraced)}  "
              f"{r.op.name:32s} {status}")
    for c in checks:
        print(f"check failed: {c}")
    for note in notes:
        print(note)
    print(f"result file: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
