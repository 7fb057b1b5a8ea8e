"""Spec-file ingestion and the command pipeline behind the flatcheck CLI.

A system spec is a flat ``key = value`` text file:

    n = 4
    states = x1 x2 x3 x4
    params =
    f = 0, x1^2 + x2, 1, x1*x4
    g1 = x4^2+1, (x3-2*x1)*(x4^2+1), 0, (x1^2+x2)*(x4^2+1)
    g2 = 0, 0, 1, 0

Optional keys: ``chart`` (n expressions), ``beta`` (4 expressions,
row-major), ``box`` (n ``lo hi`` pairs, comma separated),
``param_values`` (``name=value`` tokens), and simulation extras ``z0``
(n transformed coordinates), ``v1``, ``v2`` (expressions in t). Blank
lines and ``#`` comments are ignored.

The commands build on each other: ``check`` runs the two rank/containment
conditions over a sampled box, ``transform`` adds chart and feedback
construction plus the triangular extraction, ``verify`` adds the numeric
oracle suite, and ``simulate`` writes a trajectory CSV next to the JSON
report. A report is one record rendered two ways (text and JSON), so the
two views cannot drift apart.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .symx import (FUNCTIONS, EvalError, ParseError, Frame, SymxError,
                   compile_fns, compile_scope, evaluable_rows, to_str)
from .diffgeo import VectorField, lie_bracket
from .flags import (DEFAULT_RANK_TOL, SampleBox, SystemSpec,
                    check_box_interval, check_condition1, compute_flags)
from .cauchy import DEFAULT_PROJ_TOL, check_condition2
from .chained import (ChainedError, FeedbackMatrix, build_chart,
                      find_output_pair, verify_chained)
from .triangular import (TriangularError, drift_components, drift_feedback,
                         extract_triangular, flat_output)
from .harness import (DEFAULT_REG_THRESHOLD, FlatSignal, HarnessError,
                      RegularityError, Stencil, T_FRAME, VSignal,
                      fd_bracket, reconstruct, simulate)

BRACKET_FD_TOL = 1e-5
SIM_AGREEMENT_TOL = 1e-6
ROUND_TRIP_TOL = 1e-5
_V1_DEFAULT = "1 + sin(2*t)/4"
_V2_DEFAULT = "sin(t)/2"

_REQUIRED_KEYS = ("n", "states", "f", "g1", "g2")
_KNOWN_KEYS = _REQUIRED_KEYS + ("params", "chart", "beta", "box",
                                "param_values", "z0", "v1", "v2")


class SpecFileError(Exception):
    """Malformed spec file; the message carries path and line."""


class OutputFileError(Exception):
    """A report or trajectory file could not be written; the message
    carries the path."""


def _write_file(path: str, write) -> None:
    """write(path), with an OSError turned into an OutputFileError."""
    try:
        write(path)
    except OSError as e:
        raise OutputFileError(f"{path}: {e.strerror or e}") from None


@dataclass(frozen=True)
class SimSetup:
    """The optional simulation start and the inputs read from the spec
    file, v1 and v2 parsed (_V1_DEFAULT and _V2_DEFAULT when absent)."""

    z0: tuple[float, ...] | None
    v: VSignal


@dataclass(frozen=True)
class RunConfig:
    spec_path: str
    command: str
    seed: int = 0
    samples: int = 100
    degree: int = 2
    rank_tol: float = DEFAULT_RANK_TOL
    proj_tol: float = DEFAULT_PROJ_TOL
    dt: float = 1e-3
    horizon: float = 1.0
    out: str | None = None
    json_path: str | None = None
    force: bool = False

    def __post_init__(self):
        for name in ("rank_tol", "proj_tol", "dt", "horizon"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if self.samples < 2:
            # the check needs two evaluable points; see _check
            raise ValueError("samples must be at least 2")


def _read_entries(path: str) -> dict[str, tuple[int, str]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise SpecFileError(f"{path}: {e.strerror or e}")
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise SpecFileError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _KNOWN_KEYS:
            raise SpecFileError(f"{path}:{lineno}: unknown key '{key}'")
        if key in entries:
            raise SpecFileError(f"{path}:{lineno}: duplicate key '{key}'")
        entries[key] = (lineno, value.strip())
    return entries


def _parse_exprs(frame: Frame, path: str, key: str,
                 entry: tuple[int, str], expect: int):
    lineno, value = entry
    parts = [s.strip() for s in value.split(",")]
    if len(parts) != expect:
        raise SpecFileError(
            f"{path}:{lineno}: {key} has {len(parts)} components, "
            f"expected {expect}")
    out = []
    for i, text in enumerate(parts):
        try:
            out.append(frame.parse(text))
        except ParseError as e:
            raise SpecFileError(
                f"{path}:{lineno}: {key} component {i + 1}: {e} in '{text}'")
        except SymxError as e:
            raise SpecFileError(
                f"{path}:{lineno}: {key} component {i + 1}: {e}")
    return tuple(out)


def _check_names(path: str, entry: tuple[int, str], kind: str,
                 taken: dict[str, str]) -> tuple[str, ...]:
    """The names of a states or params entry, each an ASCII identifier
    (the expression parser's rule) that is no function name and no key
    of taken. taken maps each name no entry may declare to the reason,
    and each name declared is added to it, so none is declared twice."""
    lineno, value = entry
    names = tuple(value.split())
    for name in names:
        why = ("is not an identifier"
               if not (name.isascii() and name.isidentifier())
               else "shadows a function name" if name in FUNCTIONS
               else taken.get(name))
        if why:
            raise SpecFileError(f"{path}:{lineno}: {kind} name '{name}' "
                                f"{why}")
        taken[name] = "is a repeated name"
    return names


def _load(path: str) -> tuple[SystemSpec, SimSetup]:
    entries = _read_entries(path)
    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise SpecFileError(f"{path}: missing required key '{key}'")

    lineno, value = entries["n"]
    try:
        n = int(value)
    except ValueError:
        raise SpecFileError(f"{path}:{lineno}: n must be an integer, "
                            f"got '{value}'")

    if n < 2:
        raise SpecFileError(f"{path}:{lineno}: need at least two states")
    # the x-chart with inputs takes u1 and u2; the z-chart, which keeps
    # the parameters, takes z1..zn, and v1 with them
    taken = {u: "is reserved for an input" for u in ("u1", "u2")}
    states = _check_names(path, entries["states"], "state", taken)
    if len(states) != n:
        raise SpecFileError(f"{path}:{entries['states'][0]}: {len(states)} "
                            f"states declared but n = {n}")
    taken.update({f"z{i}": "is reserved for a transformed coordinate"
                  for i in range(1, n + 1)},
                 v1="is reserved for the first transformed input")
    params: tuple[str, ...] = ()
    if "params" in entries:
        params = _check_names(path, entries["params"], "parameter", taken)
    frame = Frame(Path(path).stem, states, params)

    f = VectorField(frame, _parse_exprs(frame, path, "f", entries["f"], n))
    g1 = VectorField(frame, _parse_exprs(frame, path, "g1", entries["g1"], n))
    g2 = VectorField(frame, _parse_exprs(frame, path, "g2", entries["g2"], n))
    if g1.is_zero() and g2.is_zero():
        raise SpecFileError(f"{path}:{entries['g2'][0]}: g1 and g2 are "
                            f"both identically zero")

    chart_exprs = None
    if "chart" in entries:
        chart_exprs = _parse_exprs(frame, path, "chart", entries["chart"], n)
    beta_exprs = None
    if "beta" in entries:
        flat = _parse_exprs(frame, path, "beta", entries["beta"], 4)
        beta_exprs = ((flat[0], flat[1]), (flat[2], flat[3]))

    box = None
    if "box" in entries:
        lineno, value = entries["box"]
        pairs = [s.strip() for s in value.split(",")]
        if len(pairs) != n:
            raise SpecFileError(f"{path}:{lineno}: box has {len(pairs)} "
                                f"intervals, expected n = {n}")
        box_list = []
        for i, pair in enumerate(pairs):
            toks = pair.split()
            try:
                lo, hi = (float(t) for t in toks)
            except ValueError:
                raise SpecFileError(
                    f"{path}:{lineno}: box interval {i + 1} must be "
                    f"'lo hi', got '{pair}'")
            try:
                check_box_interval(lo, hi)
            except ValueError as e:
                raise SpecFileError(f"{path}:{lineno}: {e}")
            box_list.append((lo, hi))
        box = tuple(box_list)

    param_values: dict[str, float] = {}
    if "param_values" in entries:
        lineno, value = entries["param_values"]
        for tok in value.split():
            name, sep, num = tok.partition("=")
            if not sep:
                raise SpecFileError(f"{path}:{lineno}: param_values entry "
                                    f"'{tok}' must be name=value")
            if name not in params:
                raise SpecFileError(f"{path}:{lineno}: param_values names "
                                    f"undeclared parameter '{name}'")
            if name in param_values:
                raise SpecFileError(f"{path}:{lineno}: param_values names "
                                    f"parameter '{name}' twice")
            try:
                param_values[name] = float(num)
            except ValueError:
                raise SpecFileError(f"{path}:{lineno}: param_values entry "
                                    f"'{tok}' is not numeric")
            if not math.isfinite(param_values[name]):
                raise SpecFileError(f"{path}:{lineno}: param_values entry "
                                    f"'{tok}' is not finite")

    z0 = None
    if "z0" in entries:
        lineno, value = entries["z0"]
        toks = [s.strip() for s in value.split(",")]
        if len(toks) != n:
            raise SpecFileError(f"{path}:{lineno}: z0 has {len(toks)} "
                                f"coordinates, expected n = {n}")
        try:
            z0 = tuple(float(t) for t in toks)
        except ValueError:
            raise SpecFileError(f"{path}:{lineno}: z0 coordinates must "
                                f"be numeric")
        if not all(map(math.isfinite, z0)):
            raise SpecFileError(f"{path}:{lineno}: z0 coordinates must "
                                f"be finite")
    v = []
    for key, default in (("v1", _V1_DEFAULT), ("v2", _V2_DEFAULT)):
        lineno, value = entries.get(key, (0, default))  # defaults parse
        try:
            v.append(T_FRAME.parse(value))
        except (ParseError, SymxError) as e:
            raise SpecFileError(f"{path}:{lineno}: {key}: {e}")

    try:
        spec = SystemSpec(frame=frame, f=f, g1=g1, g2=g2,
                          param_values=param_values,
                          chart_exprs=chart_exprs, beta_exprs=beta_exprs,
                          box=box)
    except ValueError as e:
        raise SpecFileError(f"{path}: {e}")
    return spec, SimSetup(z0, VSignal(*v))


def load_spec(path: str) -> SystemSpec:
    """Read and fully validate a system spec file."""
    return _load(path)[0]


# --- report record ---------------------------------------------------------

def _float_text(x: float) -> str:
    """A float as json spells it."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


_escape = json.encoder.encode_basestring_ascii
_SCALAR_TEXT = {str: _escape, int: int.__repr__, float: _float_text,
                bool: lambda b: "true" if b else "false",
                type(None): lambda _: "null"}


def _json_text(x, indent: str) -> str:
    """json.dumps(x, indent=2, sort_keys=True) at the given indent, for
    x built of exact dicts with str keys, lists, tuples and the scalars
    of _SCALAR_TEXT; TypeError for anything else. A list of one scalar
    type is written by one join over a C-level map."""
    kind = type(x)
    text = _SCALAR_TEXT.get(kind)
    if text is not None:
        return text(x)
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is dict:
        if not x:
            return "{}"
        body = sep.join([_escape(k) + ": " + _json_text(x[k], inner)
                         for k in sorted(x)])
        return "{\n" + inner + body + "\n" + indent + "}"
    if kind is not list and kind is not tuple:
        raise TypeError(f"not written directly: {kind.__name__}")
    if not x:
        return "[]"
    kinds = set(map(type, x))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is dict and len(x) > 1:
        body = _table_text(x, inner)
        if body is not None:
            return "[\n" + inner + body + "\n" + indent + "]"
    text = _SCALAR_TEXT.get(kind)
    if text is _float_text:
        body = sep.join(map(float.__repr__, x))
        if "n" in body:  # nan or inf
            body = sep.join(map(text, x))
    elif text is not None:
        body = sep.join(map(text, x))
    else:
        body = sep.join([_json_text(v, inner) for v in x])
    return "[\n" + inner + body + "\n" + indent + "]"


def _table_text(rows: list, indent: str) -> str | None:
    """The items of a list of dicts at the given indent, as _json_text
    writes them, by one template and one %: for dicts with one set of
    str keys, where each key's values are all exact finite floats, all
    exact ints, all bools, or all lists of one length of exact finite
    floats or of exact ints. None for any other list."""
    first = rows[0].keys()
    if not first or not all(type(k) is str for k in first):
        return None
    for row in rows:
        if row.keys() != first:
            return None
    inner = indent + "  "
    deep = inner + "  "
    fields, columns = [], []
    for key in sorted(first):
        col = [row[key] for row in rows]
        kinds = set(map(type, col))
        if len(kinds) != 1:
            return None
        kind = kinds.pop()
        if kind is bool:
            col = zip(map(_SCALAR_TEXT[bool], col))
            spec = "%s"
        elif kind is float or kind is int:
            if kind is float and not math.isfinite(sum(col)):
                return None  # nan or inf somewhere, or a sum past the max
            col = zip(col)
            spec = "%r" if kind is float else "%d"
        elif kind is list:
            lengths = set(map(len, col))
            if len(lengths) != 1:
                return None
            length = lengths.pop()
            flat = list(itertools.chain.from_iterable(col))
            kinds = set(map(type, flat))
            if kinds == {float}:
                if not math.isfinite(sum(flat)):
                    return None
                one = "%r"
            elif kinds == {int}:
                one = "%d"
            elif length:
                return None
            spec = ("[\n" + deep + (",\n" + deep).join([one] * length)
                    + "\n" + inner + "]") if length else "[]"
        else:
            return None
        fields.append(_escape(key).replace("%", "%%") + ": " + spec)
        columns.append(col)
    item = "{\n" + inner + (",\n" + inner).join(fields) + "\n" + indent + "}"
    values = tuple(itertools.chain.from_iterable(
        itertools.chain.from_iterable(zip(*columns))))
    return (",\n" + indent).join([item] * len(rows)) % values


@dataclass
class CheckReport:
    """One record, rendered as text for people and JSON for machines."""

    data: dict

    def to_json(self) -> str:
        """json.dumps(data, indent=2, sort_keys=True) and a newline."""
        try:
            text = _json_text(self.data, "")
        except (TypeError, RecursionError):
            # not plain data, or a cycle: json writes it or raises its error
            text = json.dumps(self.data, indent=2, sort_keys=True)
        return text + "\n"

    def render(self) -> str:
        return _render(self.data)

    @property
    def verdicts(self) -> dict:
        return self.data["verdicts"]


def _provenance(cfg: RunConfig) -> dict:
    return {
        "version": __version__,
        "command": cfg.command,
        "spec": cfg.spec_path,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "degree": cfg.degree,
        "tolerances": {
            "rank_tol": cfg.rank_tol,
            "proj_tol": cfg.proj_tol,
            "reg_threshold": DEFAULT_REG_THRESHOLD,
            "bracket_fd_tol": BRACKET_FD_TOL,
            "sim_agreement_tol": SIM_AGREEMENT_TOL,
            "round_trip_tol": ROUND_TRIP_TOL,
        },
        "dt": cfg.dt,
        "horizon": cfg.horizon,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _empty_report(cfg: RunConfig) -> dict:
    return {"verdicts": {}, "condition1": {}, "condition2": {},
            "construction": {}, "verification": {},
            "provenance": _provenance(cfg)}


# --- check -----------------------------------------------------------------

def _sample_points(spec: SystemSpec, cfg: RunConfig):
    box = SampleBox(spec.sample_box(), cfg.samples, seed=cfg.seed)
    good = box.points(spec.frame, spec.param_values)
    for vf in (spec.f, spec.g1, spec.g2):
        kept, _ = evaluable_rows(vf.cached_values, good)
        good = [good[i] for i in kept]
    return good, box.count - len(good)


def _check(data: dict, spec: SystemSpec, cfg: RunConfig) -> list:
    """Sample, run both conditions and fill their sections and verdicts.
    Returns the evaluable sample points, none when too few were."""
    points, rejected = _sample_points(spec, cfg)
    if len(points) < max(2, cfg.samples // 2):
        reason = (f"only {len(points)} of {cfg.samples} sampled points "
                  f"were evaluable")
        data["verdicts"].update(condition1="inconclusive",
                                condition2="inconclusive",
                                overall="inconclusive")
        data["condition1"] = {"reason": reason}
        data["condition2"] = {"reason": reason}
        return []

    table = compute_flags(spec, rank_tol=cfg.rank_tol, seed=cfg.seed)
    c1 = check_condition1(spec, points, table=table)
    c1["points_rejected"] = rejected
    try:
        c2 = check_condition2(spec, table, points, tol=cfg.proj_tol)
    except SymxError as e:
        c2 = {"verdict": "inconclusive", "levels": [], "reason": str(e)}
    data["condition1"] = c1
    data["condition2"] = c2

    c1v = "pass" if c1["pass"] else "fail"
    c2v = c2["verdict"]
    if c1v == "fail" or c2v == "fail":
        overall = "fail"
    elif c2v == "inconclusive":
        overall = "inconclusive"
    elif c2v == "vacuous":
        overall = "vacuous-2"
    else:
        overall = "pass"
    data["verdicts"].update(condition1=c1v, condition2=c2v, overall=overall)
    return points


# --- transform -------------------------------------------------------------

def _construct(data: dict, spec: SystemSpec, cfg: RunConfig):
    """The triangular realization, reported under "construction", with
    its chained-form check under "verification"."""
    if spec.chart_exprs is not None:
        chart, fb = build_chart(spec.chart_exprs, spec)
        source = "user chart"
    else:
        chart, fb = find_output_pair(spec, degree=cfg.degree)
        source = f"output-pair search at degree {cfg.degree}"
    if spec.beta_exprs is not None:
        fb = FeedbackMatrix(beta=spec.beta_exprs, alpha=fb.alpha)
        source += ", user beta"
    fb = drift_feedback(spec, chart, fb)
    real = extract_triangular(spec, chart, fb, seed=cfg.seed)
    data["construction"] = _construction_section(real, source)
    data["verification"]["chained_form"] = verify_chained(
        real.chart, real.feedback, spec)
    return real


def _construction_section(real, source: str) -> dict:
    spec, chart, fb = real.system, real.chart, real.feedback
    fo = flat_output(real)
    sec = {
        "source": source,
        "z_states": list(chart.z_frame.states),
        "chart": [to_str(e) for e in chart.forward],
        "inverse": ([to_str(e) for e in chart.inverse]
                    if chart.inverse is not None else None),
        "beta": [[to_str(b) for b in row] for row in fb.beta],
        "alpha": [to_str(a) for a in fb.alpha],
        "alpha_bar": [to_str(a) for a in drift_components(spec, chart)],
        "flat_output": {
            "y": [to_str(fo["y"][0]), to_str(fo["y"][1])],
            "flat_indices": list(fo["flat_indices"]),
            "regularity_z": ([to_str(e) for e in fo["regularity_z"]]
                             if fo["regularity_z"] is not None else None),
            "regularity_x": [to_str(e) for e in fo["regularity_x"]],
            "parameter_dependence": fo["parameter_dependence"],
        },
    }
    if real.phis is not None:
        sec["phi"] = [to_str(e) for e in real.phis]
        drift = real.closed_loop_drift()
        sec["closed_loop_drift"] = [to_str(e) for e in drift]
    else:
        sec["phi_x"] = [to_str(e) for e in real.phis_x]
    return sec


# --- verify / simulate -----------------------------------------------------

def _bracket_oracle(spec: SystemSpec, points) -> dict:
    b1 = lie_bracket(spec.g1, spec.g2)
    b2 = lie_bracket(spec.g1, b1)
    b3 = lie_bracket(spec.g2, b1)
    cases = ((spec.g1, spec.g2, b1, "[g1,g2]"),
             (spec.g1, b1, b2, "[g1,[g1,g2]]"),
             (spec.g2, b1, b3, "[g2,[g1,g2]]"))
    # g1, g2 and b1 each enter two cases, and b1 is also the first
    # case's exact bracket: each field keeps its values at the points
    # and on the one stencil across the cases
    stencil = Stencil(points)
    worst = 0.0
    per = []
    for X, Y, sym, label in cases:
        try:
            exact = sym.cached_values(points)
        except EvalError as exc:
            # a stencil failure at or before that point comes first
            fd_bracket(X, Y, points[:exc.row + 1])
            raise
        fd = stencil.bracket(X, Y)
        scale = np.maximum(1.0, np.max(np.abs(exact), axis=1))
        # per point as a Python max from 0.0, which skips a nan error
        errs = np.max(np.abs(fd - exact), axis=1) / scale
        m = max([0.0] + errs.tolist())
        per.append({"bracket": label, "max_rel_error": m})
        worst = max(worst, m)
    return {"pass": worst <= BRACKET_FD_TOL, "max_rel_error": worst,
            "points_checked": len(points), "per_bracket": per}


def _resolve_sim(real, sim: SimSetup):
    spec, chart = real.system, real.chart
    params = spec.param_values
    if sim.z0 is not None:
        z0 = chart.z_frame.point(sim.z0, params)
    else:
        center = [0.5 * (lo + hi) for lo, hi in spec.sample_box()]
        q = spec.frame.point(center, params)
        coords = [float(c) for c in chart.forward_values(q)]
        z0 = chart.z_frame.point(coords, params)
    return z0, sim.v


def _simulation_sections(real, traj, v, cfg: RunConfig):
    chart = real.chart
    xs = chart.x_frame.states
    fwd = compile_fns(chart.forward, xs, real.system.param_values)
    zhat = np.column_stack([np.broadcast_to(c, traj.t.shape) for c in
                            fwd([traj.x[:, i] for i in range(len(xs))])])
    scale = np.maximum(1.0, np.max(np.abs(traj.z), axis=0))
    agreement = float(np.max(np.abs(zhat - traj.z) / scale))
    sim_sec = {
        "dt": cfg.dt,
        "horizon": cfg.horizon,
        "steps": len(traj.t) - 1,
        "chart_agreement_max_rel": agreement,
        "min_abs_regularity": traj.meta["min_abs_regularity"],
        "pass": agreement <= SIM_AGREEMENT_TOL,
    }

    flat = FlatSignal.from_trajectory(real, traj, v)
    rec = reconstruct(real, flat)
    errors = {}
    for name, a, b in (("z", rec.z, traj.z), ("x", rec.x, traj.x),
                       ("v", rec.v, traj.v), ("u", rec.u, traj.u)):
        sc = np.maximum(1.0, np.max(np.abs(b), axis=0))
        errors[name] = float(np.max(np.abs(a - b) / sc))
    worst = max(errors.values())
    rt_sec = {"max_rel_error": errors, "max_rel_overall": worst,
              "pass": worst <= ROUND_TRIP_TOL}
    return sim_sec, rt_sec


def _verify_into(data, real, sim, cfg, points):
    """The trajectory, or None when the chained-form check that
    _construct recorded failed."""
    ver = data["verification"]
    ver["brackets"] = _bracket_oracle(real.system, points[:100])
    if not ver["chained_form"]["pass"]:
        ver["simulation"] = {"skipped": "chained-form check failed"}
        ver["round_trip"] = {"skipped": "chained-form check failed"}
        data["verdicts"]["verification"] = "fail"
        return None
    z0, v = _resolve_sim(real, sim)
    try:
        traj = simulate(real, z0, v, T=cfg.horizon, dt=cfg.dt)
        sim_sec, rt_sec = _simulation_sections(real, traj, v, cfg)
    except RegularityError as e:
        raise HarnessError(f"simulation left the regular region: {e}")
    ver["simulation"] = sim_sec
    ver["round_trip"] = rt_sec
    ok = (ver["brackets"]["pass"] and sim_sec["pass"] and rt_sec["pass"])
    data["verdicts"]["verification"] = "pass" if ok else "fail"
    return traj


# --- the run ---------------------------------------------------------------

@compile_scope()
def run(cfg: RunConfig) -> CheckReport:
    """Load the spec and carry it through check, construction and
    verification, stopping after the stage cfg.command names.

    check, transform and verify are prefixes of that sequence; a failed
    or inconclusive check stops the two that construct unless
    cfg.force. simulate skips the check, verifies, and writes the
    trajectory CSV. The run is one compile_scope(): each distinct
    generated function compiles once in it.
    """
    spec, sim = _load(cfg.spec_path)
    # parameters without a value are drawn here, once for every stage
    spec = replace(spec, param_values=spec.bound_params(cfg.seed))
    data = _empty_report(cfg)
    verdicts = data["verdicts"]
    if cfg.command == "simulate":
        verdicts.update(condition1="skipped", condition2="skipped")
        points, _ = _sample_points(spec, cfg)
    else:
        points = _check(data, spec, cfg)
        if cfg.command == "check":
            return CheckReport(data)
        gate = verdicts["overall"]
        if gate in ("fail", "inconclusive") and not cfg.force:
            data["construction"] = {
                "skipped": f"check verdict is {gate}; use --force to override"}
            if cfg.command == "verify":
                verdicts["verification"] = "skipped"
            return CheckReport(data)

    real = _construct(data, spec, cfg)
    if cfg.command == "transform":
        ok = data["verification"]["chained_form"]["pass"]
        verdicts["construction"] = "ok" if ok else "fail"
        return CheckReport(data)

    traj = _verify_into(data, real, sim, cfg, points)
    # simulate has no check verdict, so its overall is the verification's
    if verdicts["verification"] == "fail" or cfg.command == "simulate":
        verdicts["overall"] = verdicts["verification"]
    if cfg.command == "verify":
        return CheckReport(data)
    if traj is None:
        raise ChainedError("chained-form verification failed; "
                           "no trajectory written")
    out = cfg.out or f"{Path(cfg.spec_path).stem}.traj.csv"
    _write_file(out, traj.to_csv)
    data["verification"]["files"] = {"csv": out}
    return CheckReport(data)


# --- rendering -------------------------------------------------------------

def _render(d: dict) -> str:
    prov = d["provenance"]
    lines = [f"flatcheck {prov['command']}: {prov['spec']}"]
    v = d["verdicts"]

    c1 = d["condition1"]
    if "pass" in c1:
        lines.append(f"condition 1: {v['condition1']} "
                     f"(expected dims {c1['expected']}, "
                     f"{c1['points_checked']} points)")
        ff = c1["first_failure"]
        if ff:
            lines.append(f"  first failure: level k={ff['level']} "
                         f"dim F={ff['dim_F']} dim G={ff['dim_G']} "
                         f"expected {ff['expected']}")
    elif "reason" in c1:
        lines.append(f"condition 1: inconclusive ({c1['reason']})")

    c2 = d["condition2"]
    if "verdict" in c2:
        lines.append(f"condition 2: {c2['verdict']}")
        for lv in c2["levels"]:
            lines.append(f"  k={lv['k']}: "
                         f"{'pass' if lv['pass'] else 'fail'} "
                         f"[{lv['method']}] max residual "
                         f"{lv['max_residual']:.3e} "
                         f"(dim A={lv['dim_A']}, dim C={lv['dim_C']})")
        if "reason" in c2:
            lines.append(f"  reason: {c2['reason']}")

    con = d["construction"]
    if "skipped" in con:
        lines.append(f"construction: skipped ({con['skipped']})")
    elif con:
        lines.append(f"construction ({con['source']}):")
        for zname, expr in zip(con["z_states"], con["chart"]):
            lines.append(f"  {zname} = {expr}")
        lines.append("  beta = [" + "; ".join(
            ", ".join(row) for row in con["beta"]) + "]")
        lines.append("  alpha = (" + ", ".join(con["alpha"]) + ")")
        key = "phi" if "phi" in con else "phi_x"
        for i, expr in enumerate(con[key], start=1):
            lines.append(f"  phi_{i} = {expr}")
        fo = con["flat_output"]
        lines.append(f"  flat output: y = ({fo['y'][0]}, {fo['y'][1]})")
        if fo["regularity_z"] is not None:
            for i, expr in enumerate(fo["regularity_z"], start=1):
                lines.append(f"  regularity r_{i}: {expr} != 0")
        for i, expr in enumerate(fo["regularity_x"], start=1):
            lines.append(f"  regularity r_{i} (original coords): "
                         f"{expr} != 0")
        dep = fo["parameter_dependence"]
        if any(dep.values()):
            lines.append("  parameter dependence: " + "; ".join(
                f"{k}: {', '.join(ps) if ps else 'none'}"
                for k, ps in dep.items()))

    ver = d["verification"]
    if ver:
        lines.append("verification:")
        if "brackets" in ver:
            br = ver["brackets"]
            lines.append(f"  brackets (fd vs symbolic): "
                         f"{'pass' if br['pass'] else 'fail'} "
                         f"max rel {br['max_rel_error']:.3e} "
                         f"at {br['points_checked']} points")
        if "chained_form" in ver:
            ch = ver["chained_form"]
            lines.append(f"  chained form [{ch['mode']}]: "
                         f"{'pass' if ch['pass'] else 'fail'}")
            for m in ch["mismatches"][:4]:
                lines.append(f"    {m['field']} component "
                             f"{m['component']}: got {m['got']}, "
                             f"want {m['want']}")
        for key, label in (("simulation", "x/z simulation"),
                           ("round_trip", "flat round trip")):
            if key not in ver:
                continue
            sec = ver[key]
            if "skipped" in sec:
                lines.append(f"  {label}: skipped ({sec['skipped']})")
            elif key == "simulation":
                lines.append(f"  {label}: "
                             f"{'pass' if sec['pass'] else 'fail'} "
                             f"chart agreement "
                             f"{sec['chart_agreement_max_rel']:.3e}, "
                             f"min |r| {sec['min_abs_regularity']:.3e} "
                             f"(dt={sec['dt']:g}, T={sec['horizon']:g})")
            else:
                per = ", ".join(f"{k} {e:.3e}"
                                for k, e in sec["max_rel_error"].items())
                lines.append(f"  {label}: "
                             f"{'pass' if sec['pass'] else 'fail'} "
                             f"max rel {per}")
        if "files" in ver:
            lines.append(f"  wrote: {ver['files']['csv']}")

    if "overall" in v:
        lines.append(f"overall: {v['overall']}")
    if "verification" in v:
        lines.append(f"verification verdict: {v['verification']}")
    tol = prov["tolerances"]
    lines.append(f"provenance: seed={prov['seed']} "
                 f"samples={prov['samples']} degree={prov['degree']} "
                 f"rank_tol={tol['rank_tol']:g} "
                 f"proj_tol={tol['proj_tol']:g} version={prov['version']}")
    return "\n".join(lines) + "\n"


# --- entry point -----------------------------------------------------------

_COMMANDS = (("check", "run the two flag conditions over a sampled box"),
             ("transform", "construct chart, feedback, and the triangular "
                           "form"),
             ("verify", "run the numeric oracle suite on the constructed "
                        "form"),
             ("simulate", "simulate the closed loop and write trajectory "
                          "CSV"))


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser. When command names one of _COMMANDS,
    only that subcommand is built: an argv that starts with it parses
    to the same namespace, text and exit as with all four, since its
    usage spells the full command list. Any other command (none, -h,
    an unknown one) gets all four, for the help and the errors that
    list them."""
    names = [name for name, _ in _COMMANDS]
    only = command in names
    ap = argparse.ArgumentParser(
        prog="flatcheck",
        description="Decide and construct flat triangular forms for "
                    "two-input control-affine systems.")
    sub = ap.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(names) + "}" if only else None)
    for name, doc in _COMMANDS:
        if only and name != command:
            continue
        # an option left out stays out of the namespace, so main's
        # RunConfig(**vars(args)) takes its default from RunConfig
        p = sub.add_parser(name, help=doc,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("spec_path", metavar="spec", help="system spec file")
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--degree", type=int)
        p.add_argument("--rank-tol", type=float)
        p.add_argument("--proj-tol", type=float)
        p.add_argument("--dt", type=float)
        p.add_argument("--horizon", type=float)
        p.add_argument("--out", help="trajectory CSV path (simulate)")
        p.add_argument("--json", dest="json_path",
                       help="write the JSON report here")
        if name in ("transform", "verify"):
            p.add_argument("--force", action="store_true",
                           help="construct even when check fails")
    return ap


def _exit_code(data: dict) -> int:
    values = set(data["verdicts"].values())
    if "fail" in values:
        return 1
    if "inconclusive" in values:
        return 2
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
        report = run(cfg)
        sys.stdout.write(report.render())
        json_path = cfg.json_path
        if json_path is None and cfg.command == "simulate":
            json_path = f"{Path(cfg.spec_path).stem}.report.json"
        if json_path is not None:
            _write_file(json_path, lambda p: Path(p).write_text(
                report.to_json(), encoding="utf-8"))
    except (SpecFileError, OutputFileError, SymxError, ChainedError,
            TriangularError, HarnessError, ValueError) as e:
        print(f"flatcheck: error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # the expression walkers recurse once per tree level
        print("flatcheck: error: expression nested too deeply for the "
              "recursion limit (RecursionError)", file=sys.stderr)
        return 2
    return _exit_code(report.data)


if __name__ == "__main__":
    sys.exit(main())
