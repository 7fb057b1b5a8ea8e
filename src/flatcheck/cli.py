"""Spec-file ingestion and the command pipeline behind the flatcheck CLI.

A system spec is a flat ``key = value`` text file:

    n = 4
    states = x1 x2 x3 x4
    params =
    f = 0, x1^2 + x2, 1, x1*x4
    g1 = x4^2+1, (x3-2*x1)*(x4^2+1), 0, (x1^2+x2)*(x4^2+1)
    g2 = 0, 0, 1, 0

Optional keys: ``chart`` (n expressions), ``beta`` (4 expressions,
row-major), ``h1``, ``h2``, ``box`` (n ``lo hi`` pairs, comma
separated), ``param_values`` (``name=value`` tokens), and simulation
extras ``z0`` (n transformed coordinates), ``v1``, ``v2`` (expressions
in t). Blank lines and ``#`` comments are ignored.

The commands build on each other: ``check`` runs the two rank/containment
conditions over a sampled box, ``transform`` adds chart and feedback
construction plus the triangular extraction, ``verify`` adds the numeric
oracle suite, and ``simulate`` writes a trajectory CSV next to the JSON
report. A report is one record rendered two ways (text and JSON), so the
two views cannot drift apart.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .symx import EvalError, ParseError, Frame, SymxError, compile_fns, to_str
from .diffgeo import VectorField, lie_bracket
from .flags import (DEFAULT_RANK_TOL, SystemSpec, check_condition1,
                    compute_flags)
from .cauchy import DEFAULT_PROJ_TOL, check_condition2
from .chained import (ChainedError, FeedbackMatrix, build_chart,
                      find_output_pair, verify_chained)
from .triangular import (TriangularError, drift_components, drift_feedback,
                         extract_triangular, flat_output)
from .harness import (DEFAULT_REG_THRESHOLD, FlatSignal, HarnessError,
                      RegularityError, SampleBox, T_FRAME, VSignal,
                      fd_bracket, reconstruct, simulate)

BRACKET_FD_TOL = 1e-5
SIM_AGREEMENT_TOL = 1e-6
ROUND_TRIP_TOL = 1e-5
_V1_DEFAULT = "1 + sin(2*t)/4"
_V2_DEFAULT = "sin(t)/2"

_REQUIRED_KEYS = ("n", "states", "f", "g1", "g2")
_KNOWN_KEYS = _REQUIRED_KEYS + ("params", "chart", "beta", "h1", "h2",
                                "box", "param_values", "z0", "v1", "v2")


class SpecFileError(Exception):
    """Malformed spec file; the message carries path and line."""


@dataclass(frozen=True)
class SimSetup:
    """Optional simulation start and inputs read from the spec file."""

    z0: tuple[float, ...] | None = None
    v1: str | None = None
    v2: str | None = None


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
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if self.samples < 1:
            raise ValueError("samples must be positive")


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

    lineno, value = entries["states"]
    states = tuple(value.split())
    if len(states) != n:
        raise SpecFileError(f"{path}:{lineno}: {len(states)} states "
                            f"declared but n = {n}")
    params: tuple[str, ...] = ()
    if "params" in entries:
        params = tuple(entries["params"][1].split())
    names = states + params
    if len(set(names)) != len(names):
        raise SpecFileError(f"{path}: states/params contain a repeated name")
    frame = Frame(Path(path).stem, states, params)

    f = VectorField(frame, _parse_exprs(frame, path, "f", entries["f"], n))
    g1 = VectorField(frame, _parse_exprs(frame, path, "g1", entries["g1"], n))
    g2 = VectorField(frame, _parse_exprs(frame, path, "g2", entries["g2"], n))

    chart_exprs = None
    if "chart" in entries:
        chart_exprs = _parse_exprs(frame, path, "chart", entries["chart"], n)
    beta_exprs = None
    if "beta" in entries:
        flat = _parse_exprs(frame, path, "beta", entries["beta"], 4)
        beta_exprs = ((flat[0], flat[1]), (flat[2], flat[3]))
    h1 = h2 = None
    if "h1" in entries:
        h1 = _parse_exprs(frame, path, "h1", entries["h1"], 1)[0]
    if "h2" in entries:
        h2 = _parse_exprs(frame, path, "h2", entries["h2"], 1)[0]

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
            try:
                param_values[name] = float(num)
            except ValueError:
                raise SpecFileError(f"{path}:{lineno}: param_values entry "
                                    f"'{tok}' is not numeric")

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
    v1 = v2 = None
    for key in ("v1", "v2"):
        if key in entries:
            lineno, value = entries[key]
            try:
                T_FRAME.parse(value)
            except (ParseError, SymxError) as e:
                raise SpecFileError(f"{path}:{lineno}: {key}: {e}")
            if key == "v1":
                v1 = value
            else:
                v2 = value

    try:
        spec = SystemSpec(frame=frame, f=f, g1=g1, g2=g2,
                          param_values=param_values,
                          chart_exprs=chart_exprs, beta_exprs=beta_exprs,
                          h1=h1, h2=h2, box=box)
    except ValueError as e:
        raise SpecFileError(f"{path}: {e}")
    return spec, SimSetup(z0=z0, v1=v1, v2=v2)


def load_spec(path: str) -> SystemSpec:
    """Read and fully validate a system spec file."""
    return _load(path)[0]


# --- report record ---------------------------------------------------------

def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@dataclass
class CheckReport:
    """One record, rendered as text for people and JSON for machines."""

    data: dict

    def to_json(self) -> str:
        return json.dumps(_plain(self.data), indent=2, sort_keys=True) + "\n"

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
    pts = box.points(spec.frame, spec.bound_params(cfg.seed))
    good = []
    for q in pts:
        try:
            for vf in (spec.f, spec.g1, spec.g2):
                vf.values(q)
        except EvalError:
            continue
        good.append(q)
    return good, len(pts) - len(good)


def _run_check(spec: SystemSpec, cfg: RunConfig):
    """Shared first stage: sample, run both conditions, fill verdicts."""
    data = _empty_report(cfg)
    points, rejected = _sample_points(spec, cfg)
    if len(points) < max(2, cfg.samples // 2):
        reason = (f"only {len(points)} of {cfg.samples} sampled points "
                  f"were evaluable")
        data["verdicts"] = {"condition1": "inconclusive",
                            "condition2": "inconclusive",
                            "overall": "inconclusive"}
        data["condition1"] = {"reason": reason}
        data["condition2"] = {"reason": reason}
        return data, [], None

    table = compute_flags(spec, rank_tol=cfg.rank_tol, seed=cfg.seed)
    c1 = check_condition1(spec, points, tol=cfg.rank_tol, table=table)
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
    data["verdicts"] = {"condition1": c1v, "condition2": c2v,
                        "overall": overall}
    return data, points, table


def cmd_check(cfg: RunConfig) -> CheckReport:
    spec = load_spec(cfg.spec_path)
    data, _, _ = _run_check(spec, cfg)
    return CheckReport(data)


# --- transform -------------------------------------------------------------

def _construct(spec: SystemSpec, cfg: RunConfig):
    if spec.chart_exprs is not None:
        chart, fb = build_chart(spec.chart_exprs, spec)
        source = "user chart"
    else:
        pair = find_output_pair(spec, degree=cfg.degree)
        chart, fb = build_chart(pair, spec)
        source = f"output-pair search at degree {pair.degree}"
    if spec.beta_exprs is not None:
        fb = FeedbackMatrix(beta=spec.beta_exprs, alpha=fb.alpha)
        source += ", user beta"
    fb = drift_feedback(spec, chart, fb)
    real = extract_triangular(spec, chart, fb, seed=cfg.seed)
    return chart, fb, real, flat_output(real), source


def _construction_section(spec, chart, fb, real, fo, source) -> dict:
    sec = {
        "source": source,
        "z_states": list(chart.z_frame.states),
        "chart": [to_str(e) for e in chart.forward],
        "inverse": ([to_str(e) for e in chart.inverse]
                    if chart.inverse is not None else None),
        "beta": [[to_str(b) for b in row] for row in fb.beta],
        "alpha": [to_str(a) for a in fb.alpha],
        "alpha_bar": [to_str(a) for a in drift_components(spec, chart)],
        "dependence_mode": real.dependence_mode,
        "flat_output": {
            "y": [to_str(fo["y"][0]), to_str(fo["y"][1])],
            "flat_indices": list(fo["flat_indices"]),
            "regularity_z": ([to_str(e) for e in fo["regularity_z"]]
                             if fo["regularity_z"] is not None else None),
            "regularity_x": ([to_str(e) for e in fo["regularity_x"]]
                             if fo["regularity_x"] is not None else None),
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


def cmd_transform(cfg: RunConfig) -> CheckReport:
    spec = load_spec(cfg.spec_path)
    data, points, _ = _run_check(spec, cfg)
    gate = data["verdicts"]["overall"]
    if gate in ("fail", "inconclusive") and not cfg.force:
        data["construction"] = {
            "skipped": f"check verdict is {gate}; use --force to override"}
        return CheckReport(data)
    chart, fb, real, fo, source = _construct(spec, cfg)
    data["construction"] = _construction_section(spec, chart, fb, real,
                                                 fo, source)
    chained = verify_chained(chart, fb, spec,
                             sample_points=points[:20] or None)
    data["verification"]["chained_form"] = chained
    data["verdicts"]["construction"] = "ok" if chained["pass"] else "fail"
    return CheckReport(data)


# --- verify / simulate -----------------------------------------------------

def _bracket_oracle(spec: SystemSpec, points) -> dict:
    b1 = lie_bracket(spec.g1, spec.g2)
    b2 = lie_bracket(spec.g1, b1)
    b3 = lie_bracket(spec.g2, b1)
    cases = ((spec.g1, spec.g2, b1, "[g1,g2]"),
             (spec.g1, b1, b2, "[g1,[g1,g2]]"),
             (spec.g2, b1, b3, "[g2,[g1,g2]]"))
    worst = 0.0
    per = []
    for X, Y, sym, label in cases:
        m = 0.0
        for q in points:
            fd = fd_bracket(X, Y, q)
            exact = sym.values(q)
            scale = max(1.0, float(np.max(np.abs(exact))))
            m = max(m, float(np.max(np.abs(fd - exact))) / scale)
        per.append({"bracket": label, "max_rel_error": m})
        worst = max(worst, m)
    return {"pass": worst <= BRACKET_FD_TOL, "max_rel_error": worst,
            "points_checked": len(points), "per_bracket": per}


def _resolve_sim(spec: SystemSpec, real, sim: SimSetup, cfg: RunConfig):
    chart = real.chart
    params = spec.bound_params(cfg.seed)
    if sim.z0 is not None:
        z0 = chart.z_frame.point(sim.z0, params)
    else:
        center = [0.5 * (lo + hi) for lo, hi in spec.sample_box()]
        q = spec.frame.point(center, params)
        coords = [float(c) for c in chart.forward_values(q)]
        z0 = chart.z_frame.point(coords, params)
    v = VSignal.from_strings(sim.v1 or _V1_DEFAULT, sim.v2 or _V2_DEFAULT)
    return z0, v


def _simulation_sections(spec, real, traj, v, cfg: RunConfig):
    chart = real.chart
    xs = chart.x_frame.states
    params = spec.bound_params(cfg.seed)
    fwd = compile_fns(chart.forward, xs, params)
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
        if a is None or b is None:
            continue
        sc = np.maximum(1.0, np.max(np.abs(b), axis=0))
        errors[name] = float(np.max(np.abs(a - b) / sc))
    worst = max(errors.values())
    rt_sec = {"max_rel_error": errors, "max_rel_overall": worst,
              "pass": worst <= ROUND_TRIP_TOL}
    return sim_sec, rt_sec, rec


def _verify_into(data, spec, real, chart, fb, sim, cfg, points):
    ver = data["verification"]
    ver["brackets"] = _bracket_oracle(spec, points[:100])
    ver["chained_form"] = verify_chained(chart, fb, spec,
                                         sample_points=points[:20] or None)
    if not ver["chained_form"]["pass"]:
        ver["simulation"] = {"skipped": "chained-form check failed"}
        ver["round_trip"] = {"skipped": "chained-form check failed"}
        data["verdicts"]["verification"] = "fail"
        return None
    z0, v = _resolve_sim(spec, real, sim, cfg)
    try:
        traj = simulate(real, z0, v, T=cfg.horizon, dt=cfg.dt)
        sim_sec, rt_sec, rec = _simulation_sections(spec, real, traj, v, cfg)
    except RegularityError as e:
        raise HarnessError(f"simulation left the regular region: {e}")
    ver["simulation"] = sim_sec
    ver["round_trip"] = rt_sec
    ok = (ver["brackets"]["pass"] and sim_sec["pass"] and rt_sec["pass"])
    data["verdicts"]["verification"] = "pass" if ok else "fail"
    return traj, rec


def cmd_verify(cfg: RunConfig) -> CheckReport:
    spec, sim = _load(cfg.spec_path)
    data, points, _ = _run_check(spec, cfg)
    gate = data["verdicts"]["overall"]
    if gate in ("fail", "inconclusive") and not cfg.force:
        data["construction"] = {
            "skipped": f"check verdict is {gate}; use --force to override"}
        data["verdicts"]["verification"] = "skipped"
        return CheckReport(data)
    chart, fb, real, fo, source = _construct(spec, cfg)
    data["construction"] = _construction_section(spec, chart, fb, real,
                                                 fo, source)
    _verify_into(data, spec, real, chart, fb, sim, cfg, points)
    if data["verdicts"]["verification"] == "fail":
        data["verdicts"]["overall"] = "fail"
    return CheckReport(data)


def cmd_simulate(cfg: RunConfig) -> tuple[CheckReport, str]:
    """Simulate, reconstruct, and write the trajectory CSV.

    Returns the report and the CSV path written.
    """
    spec, sim = _load(cfg.spec_path)
    data = _empty_report(cfg)
    data["verdicts"] = {"condition1": "skipped", "condition2": "skipped"}
    chart, fb, real, fo, source = _construct(spec, cfg)
    data["construction"] = _construction_section(spec, chart, fb, real,
                                                 fo, source)
    result = _verify_into(data, spec, real, chart, fb, sim, cfg,
                          points=_sample_points(spec, cfg)[0])
    data["verdicts"]["overall"] = data["verdicts"]["verification"]
    if result is None:
        raise ChainedError("chained-form verification failed; "
                           "no trajectory written")
    traj, _ = result
    out = cfg.out or f"{Path(cfg.spec_path).stem}.traj.csv"
    traj.to_csv(out)
    data["verification"]["files"] = {"csv": out}
    return CheckReport(data), out


# --- rendering -------------------------------------------------------------

def _render(d: dict) -> str:
    prov = d["provenance"]
    lines = [f"flatcheck {prov['command']}: {prov['spec']}"]
    v = d.get("verdicts", {})

    c1 = d.get("condition1") or {}
    if "pass" in c1:
        lines.append(f"condition 1: {v['condition1']} "
                     f"(expected dims {c1['expected']}, "
                     f"{c1['points_checked']} points)")
        if c1.get("first_failure"):
            ff = c1["first_failure"]
            lines.append(f"  first failure: level k={ff['level']} "
                         f"dim F={ff['dim_F']} dim G={ff['dim_G']} "
                         f"expected {ff['expected']}")
    elif "reason" in c1:
        lines.append(f"condition 1: inconclusive ({c1['reason']})")

    c2 = d.get("condition2") or {}
    if "verdict" in c2:
        lines.append(f"condition 2: {c2['verdict']}")
        for lv in c2.get("levels", []):
            lines.append(f"  k={lv['k']}: "
                         f"{'pass' if lv['pass'] else 'fail'} "
                         f"[{lv['method']}] max residual "
                         f"{lv['max_residual']:.3e} "
                         f"(dim A={lv['dim_A']}, dim C={lv['dim_C']})")
        if "reason" in c2:
            lines.append(f"  reason: {c2['reason']}")

    con = d.get("construction") or {}
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
        for i, expr in enumerate(con.get(key, []), start=1):
            lines.append(f"  phi_{i} = {expr}")
        fo = con["flat_output"]
        lines.append(f"  flat output: y = ({fo['y'][0]}, {fo['y'][1]})")
        if fo["regularity_z"] is not None:
            for i, expr in enumerate(fo["regularity_z"], start=1):
                lines.append(f"  regularity r_{i}: {expr} != 0")
        if fo["regularity_x"] is not None:
            for i, expr in enumerate(fo["regularity_x"], start=1):
                lines.append(f"  regularity r_{i} (original coords): "
                             f"{expr} != 0")
        dep = fo["parameter_dependence"]
        if any(dep.values()):
            lines.append("  parameter dependence: " + "; ".join(
                f"{k}: {', '.join(ps) if ps else 'none'}"
                for k, ps in dep.items()))

    ver = d.get("verification") or {}
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
            for m in ch.get("mismatches", [])[:4]:
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

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flatcheck",
        description="Decide and construct flat triangular forms for "
                    "two-input control-affine systems.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, doc in (("check", "run the two flag conditions over a "
                                "sampled box"),
                      ("transform", "construct chart, feedback, and the "
                                    "triangular form"),
                      ("verify", "run the numeric oracle suite on the "
                                 "constructed form"),
                      ("simulate", "simulate the closed loop and write "
                                   "trajectory CSV")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("spec", help="system spec file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--degree", type=int, default=2)
        p.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL)
        p.add_argument("--proj-tol", type=float, default=DEFAULT_PROJ_TOL)
        p.add_argument("--dt", type=float, default=1e-3)
        p.add_argument("--horizon", type=float, default=1.0)
        p.add_argument("--out", default=None,
                       help="trajectory CSV path (simulate)")
        p.add_argument("--json", dest="json_path", default=None,
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
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(spec_path=args.spec, command=args.command,
                        seed=args.seed, samples=args.samples,
                        degree=args.degree, rank_tol=args.rank_tol,
                        proj_tol=args.proj_tol, dt=args.dt,
                        horizon=args.horizon, out=args.out,
                        json_path=args.json_path,
                        force=getattr(args, "force", False))
        if args.command == "check":
            report = cmd_check(cfg)
        elif args.command == "transform":
            report = cmd_transform(cfg)
        elif args.command == "verify":
            report = cmd_verify(cfg)
        else:
            report, _ = cmd_simulate(cfg)
    except (SpecFileError, SymxError, ChainedError, TriangularError,
            HarnessError, ValueError) as e:
        print(f"flatcheck: error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # the expression walkers recurse once per tree level
        print("flatcheck: error: expression nested too deeply for the "
              "recursion limit (RecursionError)", file=sys.stderr)
        return 2

    sys.stdout.write(report.render())
    json_path = cfg.json_path
    if json_path is None and args.command == "simulate":
        json_path = f"{Path(cfg.spec_path).stem}.report.json"
    if json_path is not None:
        Path(json_path).write_text(report.to_json(), encoding="utf-8")
    return _exit_code(report.data)


if __name__ == "__main__":
    sys.exit(main())
