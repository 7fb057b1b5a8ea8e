"""Outside-in layer trace for the benchmark's traced run.

Spans are recorded from the benchmark's own files: each traced public
function is wrapped only where another flatcheck module bound it by
name (``from .symx import normalize`` in ``cauchy``, say), never in the
defining module's own globals.  ``diff`` and ``normalize`` recurse
through those globals, and a wrapper frame per recursion level would
change both their cost and the depth at which they hit the recursion
limit.  Two exceptions are patched in their own module because their
only callers live there and neither recurses: ``cauchy.annihilator`` /
``cauchy.cauchy_space`` (called by ``check_condition2``) and
``cli._load`` (spec parsing).  Methods are patched on their class:
``VectorField.values``, ``OneForm.values``, ``SampleBox.points``,
``FlatSignal.from_trajectory`` and ``CheckReport.render``/``to_json``.

Spans live in memory as (name, start, end, parent, op) and are turned
into per-layer metrics once, at the end of the run.  A span's self time
is its duration minus the time its child spans cover; the ``cli`` span
is the whole ``main(argv)`` call, so per op the self times of all spans
add up to the ``cli`` span's duration.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import time
from contextlib import contextmanager

# span name -> (defining module, attribute); see the module docstring
# for where each is patched.
FUNCTIONS = {
    "symx.normalize": ("symx", "normalize"),
    "symx.diff": ("symx", "diff"),
    "symx.eval_at": ("symx", "eval_at"),
    "symx.compile_fn": ("symx", "compile_fn"),
    "symx.linalg": ("symx", ("rref_exprs", "nullspace_exprs",
                             "solve_affine_exprs", "linear_decompose")),
    "diffgeo.lie_bracket": ("diffgeo", "lie_bracket"),
    "diffgeo.forms": ("diffgeo", ("exterior_derivative_1form",
                                  "exterior_derivative_fn", "interior_product",
                                  "lie_derivative_1form", "lie_derivative_fn",
                                  "wedge")),
    "flags.compute_flags": ("flags", "compute_flags"),
    "flags.check_condition1": ("flags", "check_condition1"),
    "cauchy.check_condition2": ("cauchy", "check_condition2"),
    "chained.find_output_pair": ("chained", "find_output_pair"),
    "chained.build_chart": ("chained", "build_chart"),
    "chained.verify_chained": ("chained", "verify_chained"),
    "triangular.drift_feedback": ("triangular", "drift_feedback"),
    "triangular.extract_triangular": ("triangular", "extract_triangular"),
    "triangular.flat_output": ("triangular", "flat_output"),
    "harness.fd_bracket": ("harness", "fd_bracket"),
    "harness.simulate": ("harness", "simulate"),
    "harness.reconstruct": ("harness", "reconstruct"),
}
OWN_MODULE = {
    "cauchy.annihilator": ("cauchy", "annihilator"),
    "cauchy.cauchy_space": ("cauchy", "cauchy_space"),
    "cli.load": ("cli", "_load"),
}
METHODS = {
    "diffgeo.values": (("diffgeo", "VectorField", "values"),
                       ("diffgeo", "OneForm", "values")),
    "harness.sample": (("harness", "SampleBox", "points"),),
    "harness.flat_signal": (("harness", "FlatSignal", "from_trajectory"),),
    "cli.report": (("cli", "CheckReport", "render"),
                   ("cli", "CheckReport", "to_json")),
}
MODULES = ("symx", "diffgeo", "flags", "cauchy", "chained", "triangular",
           "harness", "cli")
ROOT = "cli"
NODES = "trace.nodes"  # bookkeeping: counting normalize result sizes

# (metric, unit, better); the README's layer table explains each.
PER_LAYER = [
    ("symx.normalize.calls", "count", "lower"),
    ("symx.normalize.self_s", "s", "lower"),
    ("symx.normalize.max_nodes", "count", "lower"),
    ("symx.diff.self_s", "s", "lower"),
    ("symx.linalg.self_s", "s", "lower"),
    ("symx.eval_at.calls", "count", "lower"),
    ("symx.eval_at.self_s", "s", "lower"),
    ("symx.compile_fn.calls", "count", "lower"),
    ("symx.compile_fn.self_s", "s", "lower"),
    ("diffgeo.lie_bracket.calls", "count", "lower"),
    ("diffgeo.lie_bracket.self_s", "s", "lower"),
    ("diffgeo.exterior_derivative_1form.calls", "count", "lower"),
    ("diffgeo.forms.self_s", "s", "lower"),
    ("diffgeo.values.calls", "count", "lower"),
    ("diffgeo.values.self_s", "s", "lower"),
    ("flags.compute_flags.self_s", "s", "lower"),
    ("flags.check_condition1.self_s", "s", "lower"),
    ("flags.p_words", "count", "lower"),
    ("flags.q_words", "count", "lower"),
    ("flags.q_word_yield", "ratio", "higher"),
    ("cauchy.annihilator.self_s", "s", "lower"),
    ("cauchy.cauchy_space.calls", "count", "lower"),
    ("cauchy.cauchy_space.self_s", "s", "lower"),
    ("cauchy.check_condition2.self_s", "s", "lower"),
    ("cauchy.symbolic_route_ratio", "ratio", "higher"),
    ("chained.find_output_pair.self_s", "s", "lower"),
    ("chained.build_chart.self_s", "s", "lower"),
    ("chained.verify_chained.self_s", "s", "lower"),
    ("triangular.drift_feedback.self_s", "s", "lower"),
    ("triangular.extract_triangular.self_s", "s", "lower"),
    ("triangular.flat_output.self_s", "s", "lower"),
    ("harness.sample.self_s", "s", "lower"),
    ("harness.fd_bracket.calls", "count", "lower"),
    ("harness.fd_bracket.self_s", "s", "lower"),
    ("harness.simulate.self_s", "s", "lower"),
    ("harness.simulate.step_us", "us", "lower"),
    ("harness.flat_signal.self_s", "s", "lower"),
    ("harness.reconstruct.self_s", "s", "lower"),
    ("cli.load.self_s", "s", "lower"),
    ("cli.report.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def count_nodes(e) -> int:
    """Nodes of an expression tree, counted without recursion."""
    stack, count = [e], 0
    while stack:
        node = stack.pop()
        count += 1
        for child in (getattr(node, "a", None), getattr(node, "b", None),
                      getattr(node, "base", None), getattr(node, "arg", None)):
            if child is not None:
                stack.append(child)
    return count


class Tracer:
    """Span recorder plus the counters read from traced results."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: list[tuple[int, str, float]] = []  # (op, name, value)
        self._stack: list[int] = []
        self.op = -1

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, op)
        self._stack.pop()

    def span(self, name: str, fn, observe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op: int, call):
        """Run ``call()`` as op ``op`` under the root ``cli`` span."""
        self.op = op
        idx = self._open(ROOT)
        try:
            return call()
        finally:
            self._close(idx)

    def count(self, name: str, value: float) -> None:
        self.counters.append((self.op, name, value))

    # -- patching -------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch flatcheck for the duration of the block, then restore."""
        mods = {m: importlib.import_module(f"flatcheck.{m}") for m in MODULES}
        undo: list[tuple[object, str, object]] = []

        def patch(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            for name, (home, attrs) in FUNCTIONS.items():
                for attr in (attrs,) if isinstance(attrs, str) else attrs:
                    orig = getattr(mods[home], attr)
                    wrapped = self.span(name, orig,
                                        OBSERVERS.get(f"{home}.{attr}"))
                    for mname, mod in mods.items():
                        if mname != home and mod.__dict__.get(attr) is orig:
                            patch(mod, attr, wrapped)
            for name, (home, attr) in OWN_MODULE.items():
                patch(mods[home], attr,
                      self.span(name, getattr(mods[home], attr)))
            for name, sites in METHODS.items():
                for home, cls_name, attr in sites:
                    cls = getattr(mods[home], cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        value = classmethod(self.span(name, raw.__func__))
                    else:
                        value = self.span(name, raw)
                    patch(cls, attr, value)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def write(self, path) -> None:
        """All spans, gzipped, one JSON array per line: name, start and end
        in integer nanoseconds from the first span's start, parent, op."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.writelines('["%s", %d, %d, %d, %d]\n' % (
                name, round((start - t0) * 1e9), round((end - t0) * 1e9),
                parent, op) for name, start, end, parent, op in self.spans)

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per op: self seconds and call count per span name, plus counters."""
        ops: dict[int, dict[str, float]] = {}
        for (name, _, _, _, op), self_s in zip(self.spans, self.self_times()):
            d = ops.setdefault(op, {})
            d[f"{name}.self_s"] = d.get(f"{name}.self_s", 0.0) + self_s
            d[f"{name}.calls"] = d.get(f"{name}.calls", 0) + 1
        for op, name, value in self.counters:
            d = ops.setdefault(op, {})
            if name.endswith(".max"):
                d[name] = max(d.get(name, 0), value)
            else:
                d[name] = d.get(name, 0) + value
        return ops


def _observe_normalize(tracer: Tracer, result) -> None:
    idx = tracer._open(NODES)
    try:
        tracer.count("symx.normalize.nodes.max", count_nodes(result))
    finally:
        tracer._close(idx)


def _observe_d1form(tracer: Tracer, _result) -> None:
    tracer.count("diffgeo.exterior_derivative_1form.calls", 1)


def _observe_flags(tracer: Tracer, table) -> None:
    levels = table.levels[1:]
    tracer.count("flags.p_words", sum(lv.p_word_count for lv in levels))
    attempted = sum(lv.q_word_count for lv in levels)
    tracer.count("flags.q_words", attempted)
    tracer.count("flags.q_kept",
                 attempted - sum(len(lv.q_dropped_words) for lv in levels))


def _observe_condition2(tracer: Tracer, result: dict) -> None:
    levels = result.get("levels", [])
    tracer.count("cauchy.levels", len(levels))
    tracer.count("cauchy.levels_symbolic",
                 sum(1 for lv in levels if lv.get("method") == "symbolic"))


def _observe_simulate(tracer: Tracer, traj) -> None:
    # two RK4 integrations (z and x) over the same grid
    tracer.count("harness.simulate.steps", 2 * (len(traj.t) - 1))


# keyed by defining module and attribute
OBSERVERS = {
    "symx.normalize": _observe_normalize,
    "diffgeo.exterior_derivative_1form": _observe_d1form,
    "flags.compute_flags": _observe_flags,
    "cauchy.check_condition2": _observe_condition2,
    "harness.simulate": _observe_simulate,
}


def layer_metrics(op_totals: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics for one traced pass from its ops' totals."""
    tot: dict[str, float] = {}
    for d in op_totals:
        for k, v in d.items():
            tot[k] = max(tot.get(k, 0), v) if k.endswith(".max") \
                else tot.get(k, 0) + v
    g = tot.get
    out = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s") or name.endswith(".calls"):
            out[name] = float(g(name, 0))
    out["symx.normalize.max_nodes"] = float(g("symx.normalize.nodes.max", 0))
    out["flags.p_words"] = float(g("flags.p_words", 0))
    out["flags.q_words"] = float(g("flags.q_words", 0))
    q = g("flags.q_words", 0)
    out["flags.q_word_yield"] = g("flags.q_kept", 0) / q if q else 0.0
    lv = g("cauchy.levels", 0)
    out["cauchy.symbolic_route_ratio"] = (g("cauchy.levels_symbolic", 0) / lv
                                          if lv else 0.0)
    steps = g("harness.simulate.steps", 0)
    out["harness.simulate.step_us"] = (1e6 * g("harness.simulate.self_s", 0)
                                       / steps if steps else 0.0)
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
