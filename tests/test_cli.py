import argparse
import json
import math
from pathlib import Path

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from flatcheck.symx import Frame, Sub, is_zero, parse
from flatcheck.cli import (BRACKET_FD_TOL, CheckReport, RunConfig,
                           SpecFileError, _bracket_oracle, _build_parser,
                           _json_text, _sample_points, _table_text,
                           load_spec, main, run)
from flatcheck.diffgeo import lie_bracket
from flatcheck.harness import SampleBox

import harness_reference
import systems
from conftest import SPEC_DIR

TESTS_DIR = Path(__file__).resolve().parent

BASE = """\
n = 4
states = x1 x2 x3 x4
f = 0, 0, 0, 0
g1 = x2, x3, 0, 1
g2 = 0, 0, 1, 0
"""

INVOLUTIVE = """\
n = 4
states = x1 x2 x3 x4
f = 0, 0, 0, 0
g1 = 1, 0, 0, 0
g2 = exp(x1), exp(x1), 0, 0
box = -1 1, -1 1, -1 1, -1 1
"""


def _write(tmp_path, text, name="case.spec"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_spec_example1_golden():
    spec = load_spec(str(SPEC_DIR / "example1.spec"))
    assert spec.n == 4
    assert spec.frame.states == ("x1", "x2", "x3", "x4")
    fr = spec.frame
    for got, want in zip(spec.f.components, systems.E1_F):
        assert is_zero(Sub(got, parse(want, fr)))
    for got, want in zip(spec.g1.components, systems.E1_G1):
        assert is_zero(Sub(got, parse(want, fr)))
    for got, want in zip(spec.chart_exprs, systems.E1_CHART):
        assert is_zero(Sub(got, parse(want, fr)))
    assert spec.box == ((-1.0, 1.0),) * 4


def test_load_spec_motor_params():
    spec = load_spec(str(SPEC_DIR / "motor.spec"))
    assert spec.frame.params == ("J", "L", "M", "R", "T_L", "n_p")
    assert spec.param_values == systems.MOTOR_PARAMS
    assert spec.chart_exprs is None


@pytest.mark.parametrize("mutate,match", [
    (lambda s: s.replace("g2 = 0, 0, 1, 0\n", ""),
     r"missing required key 'g2'"),
    (lambda s: s.replace("n = 4", "n = four"), r"n must be an integer"),
    (lambda s: s.replace("states = x1 x2 x3 x4", "states = x1 x2 x3"),
     r"3 states declared but n = 4"),
    (lambda s: s.replace("x3 x4", "x3 x3"), r"repeated name"),
    (lambda s: s + "foo = 1\n", r"unknown key 'foo'"),
    (lambda s: s + "h1 = x1\n", r"unknown key 'h1'"),
    (lambda s: s + "f = 0, 0, 0, 0\n", r"duplicate key 'f'"),
    (lambda s: s + "just some text\n", r"expected 'key = value'"),
    (lambda s: s.replace("f = 0, 0, 0, 0", "f = 0, 0, 0"),
     r"\.spec:3: f has 3 components, expected 4"),
    (lambda s: s.replace("f = 0, 0, 0, 0", "f = x1 +, 0, 0, 0"),
     r"f component 1"),
    (lambda s: s.replace("f = 0, 0, 0, 0", "f = y9, 0, 0, 0"),
     r"f component 1: undeclared"),
    (lambda s: s + "box = -1 1, -1 1, -1 1\n",
     r"box has 3 intervals, expected n = 4"),
    (lambda s: s + "box = -1 1, -1 1, -1 1, 1\n", r"must be 'lo hi'"),
    (lambda s: s + "box = 1 -1, -1 1, -1 1, -1 1\n", r"box"),
    (lambda s: s + "box = -1 1, -inf inf, -1 1, -1 1\n",
     r"box interval \[-inf, inf\] is not of finite width"),
    (lambda s: s + "params = a\nparam_values = b=1\n",
     r"undeclared parameter 'b'"),
    (lambda s: s + "params = a\nparam_values = a\n",
     r"must be name=value"),
    (lambda s: s + "params = a\nparam_values = a=xyz\n", r"not numeric"),
    (lambda s: s + "z0 = 1, 2\n", r"z0 has 2 coordinates"),
    (lambda s: s + "z0 = a, b, c, d\n", r"must be numeric"),
    (lambda s: s + "v1 = sin(\n", r"v1:"),
])
def test_load_spec_rejects_malformed(tmp_path, mutate, match):
    path = _write(tmp_path, mutate(BASE))
    with pytest.raises(SpecFileError, match=match):
        load_spec(path)


@pytest.mark.parametrize("text,line,message", [
    # names the z-chart, the regularity chart or the x-chart with inputs
    # would take a second time
    (BASE + "params = z2\n", 6,
     "parameter name 'z2' is reserved for a transformed coordinate"),
    (BASE + "params = a v1\n", 6,
     "parameter name 'v1' is reserved for the first transformed input"),
    (BASE.replace("x3 x4", "x3 u1"), 2,
     "state name 'u1' is reserved for an input"),
    (BASE + "params = u2\n", 6,
     "parameter name 'u2' is reserved for an input"),
    (BASE.replace("x3 x4", "x3 x3"), 2,
     "state name 'x3' is a repeated name"),
    (BASE + "params = a x1\n", 6,
     "parameter name 'x1' is a repeated name"),
    (BASE.replace("g1 = x2, x3, 0, 1", "g1 = 0, 0, 0, 0")
     .replace("g2 = 0, 0, 1, 0", "g2 = 0, 0, 0, x1 - x1"), 5,
     "g1 and g2 are both identically zero"),
    ("n = 1\nstates = x1\nf = 0\ng1 = 1\ng2 = 0\n", 1,
     "need at least two states"),
], ids=["param-z2", "param-v1", "state-u1", "param-u2", "repeated-state",
        "param-repeats-state", "zero-inputs", "one-state"])
def test_spec_name_errors_give_their_line(tmp_path, capsys, text, line,
                                          message):
    path = _write(tmp_path, text)
    for command in COMMANDS:
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err == f"flatcheck: error: {path}:{line}: {message}\n"


def test_load_spec_missing_file(tmp_path):
    with pytest.raises(SpecFileError):
        load_spec(str(tmp_path / "nope.spec"))


def test_run_config_validation():
    mk = lambda **kw: RunConfig(spec_path="s", command="check", **kw)
    with pytest.raises(ValueError, match="dt"):
        mk(dt=0.0)
    with pytest.raises(ValueError, match="samples"):
        mk(samples=0)
    with pytest.raises(ValueError, match="degree"):
        mk(degree=0)
    with pytest.raises(ValueError, match="rank_tol"):
        mk(rank_tol=-1e-9)


def _cfg(path, command="check", **kw):
    kw.setdefault("samples", 30)
    return RunConfig(spec_path=str(path), command=command, **kw)


def test_sample_screen_rejects_where_the_drift_is_undefined(tmp_path):
    # specs/chained4.spec with f = (0, 0, 0, sqrt(x1 + 1/2)): the screen
    # skips each failing point and resumes after it
    text = (SPEC_DIR / "chained4.spec").read_text()
    assert "f = 0, 0, 0, 0\n" in text
    path = _write(tmp_path, text.replace(
        "f = 0, 0, 0, 0\n", f"f = {', '.join(systems.SQRT4_F)}\n"))
    rng = np.random.default_rng(0)
    draw = [tuple(float(rng.uniform(-1.0, 1.0)) for _ in range(4))
            for _ in range(100)]
    rejected = [i for i, c in enumerate(draw) if c[0] + 0.5 < 0.0]
    assert tuple(rejected) == systems.SQRT4_REJECTED_ROWS
    kept = [list(c) for i, c in enumerate(draw) if i not in rejected]
    assert kept[0] == list(systems.SQRT4_KEPT_FIRST)
    assert kept[-1] == list(systems.SQRT4_KEPT_LAST)

    spec = systems.sqrt4()
    good, count = _sample_points(spec, _cfg(path, samples=100, seed=0))
    assert count == len(systems.SQRT4_REJECTED_ROWS) == 21
    assert [list(q) for q in good.coords] == kept
    for command in ("check", "verify"):
        rep = run(_cfg(path, command=command, samples=100, seed=0))
        c1 = rep.data["condition1"]
        assert c1["points_rejected"] == 21
        assert [p["coords"] for p in c1["per_point"]] == kept
        assert rep.data["verdicts"]["overall"] == "pass"
    assert rep.data["verdicts"]["verification"] == "pass"
    assert rep.data["verification"]["brackets"]["points_checked"] == 79


def test_check_verdicts_across_systems(tmp_path):
    rep = run(_cfg(SPEC_DIR / "example1.spec"))
    assert rep.verdicts == {"condition1": "pass", "condition2": "pass",
                              "overall": "pass"}
    rep = run(_cfg(SPEC_DIR / "motor.spec"))
    assert rep.verdicts["condition2"] == "vacuous"
    assert rep.verdicts["overall"] == "vacuous-2"
    rep = run(_cfg(_write(tmp_path, INVOLUTIVE)))
    assert rep.verdicts["condition1"] == "fail"
    assert rep.verdicts["overall"] == "fail"


def test_check_inconclusive_when_unsampleable(tmp_path):
    text = BASE.replace("f = 0, 0, 0, 0", "f = sqrt(x1 - 2), 0, 0, 0")
    text += "box = -1 1, -1 1, -1 1, -1 1\n"
    rep = run(_cfg(_write(tmp_path, text), samples=10))
    assert rep.verdicts["overall"] == "inconclusive"
    assert "evaluable" in rep.data["condition1"]["reason"]


def test_main_exit_codes(tmp_path, capsys):
    spec = str(SPEC_DIR / "example1.spec")
    assert main(["check", spec, "--samples", "30"]) == 0
    assert main(["check", _write(tmp_path, INVOLUTIVE),
                 "--samples", "30"]) == 1
    assert main(["check", str(tmp_path / "missing.spec")]) == 2
    assert main(["check", spec, "--dt", "0"]) == 2
    err = capsys.readouterr().err
    assert "flatcheck: error:" in err


@pytest.mark.parametrize("samples", ["1", "0"])
def test_main_too_few_samples_is_a_named_error(capsys, samples):
    # one sample could never give the two evaluable points the check
    # needs, so it ended inconclusive with a false reason
    spec = str(SPEC_DIR / "example1.spec")
    for command in ("check", "transform", "verify", "simulate"):
        assert main([command, spec, "--samples", samples]) == 2, command
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "flatcheck: error: samples must be at least 2\n"
    assert main(["check", spec, "--samples", "2"]) == 0


@pytest.mark.parametrize("box", ["-inf inf", "-1 1e400", "-1e308 1e308"])
def test_main_non_finite_box_is_a_named_error(tmp_path, capsys, box):
    # sampling such a box overflowed inside numpy before it was refused
    path = _write(tmp_path, BASE + f"box = {box}, -1 1, -1 1, -1 1\n")
    for command in ("check", "transform", "verify", "simulate"):
        assert main([command, path, "--samples", "5"]) == 2, command
        err = capsys.readouterr().err
        assert "is not of finite width" in err and "Traceback" not in err


@pytest.mark.parametrize("box, message", [
    ("-inf inf", "box interval [-inf, inf] is not of finite width"),
    ("-1 1e400", "box interval [-1.0, inf] is not of finite width"),
    ("1 -1", "empty box interval [1.0, -1.0]"),
    ("0.5 0.5", "empty box interval [0.5, 0.5]")])
def test_bad_box_interval_names_its_line(tmp_path, capsys, box, message):
    # every other bad spec value names path:line; the box did not
    text = BASE + "# a comment\n" + f"box = -1 1, {box}, -1 1, -1 1\n"
    path = _write(tmp_path, text)
    line = len(text.splitlines())
    with pytest.raises(SpecFileError) as exc:
        load_spec(path)
    assert str(exc.value) == f"{path}:{line}: {message}"
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == f"flatcheck: error: {path}:{line}: " \
                                      f"{message}\n"


@pytest.mark.parametrize("key, values, message", [
    # J = inf gave a wrong condition-1 fail, J = nan an inconclusive check
    ("param_values", ["J=inf L=0.5 M=0.2 R=1.0 T_L=0.05 n_p=2.0",
                      "J=0.1 L=0.5 M=0.2 R=nan T_L=0.05 n_p=2.0"],
     "param_values entry '{}' is not finite"),
    # z0 = nan, 0, 0 stopped simulate at a non-finite state at t = dt
    ("z0", ["nan, 0, 0", "0.2, -inf, 0.05"], "z0 coordinates must be finite"),
], ids=["param_values", "z0"])
def test_main_non_finite_spec_value_is_a_named_error(tmp_path, capsys, key,
                                                     values, message):
    lines = (SPEC_DIR / "motor.spec").read_text().splitlines(keepends=True)
    lineno = next(i for i, line in enumerate(lines, 1)
                  if line.startswith(f"{key} = "))
    for value in values:
        lines[lineno - 1] = f"{key} = {value}\n"
        path = _write(tmp_path, "".join(lines))
        bad = next((t for t in value.split() if "inf" in t or "nan" in t))
        want = message.format(bad)
        for command in ("check", "transform", "verify", "simulate"):
            assert main([command, path, "--samples", "5"]) == 2, command
            err = capsys.readouterr().err
            assert err == f"flatcheck: error: {path}:{lineno}: {want}\n"


def _with_line(spec_name, key, value):
    """The lines of a bundled spec with the line of key set to value,
    and that line's number."""
    lines = (SPEC_DIR / spec_name).read_text().splitlines(keepends=True)
    lineno = next(i for i, line in enumerate(lines, 1)
                  if line.startswith(f"{key} = "))
    lines[lineno - 1] = f"{key} = {value}\n"
    return "".join(lines), lineno


@pytest.mark.parametrize("spec_name, key, value, message", [
    # the state met the output-pair search's unknown '@c0': check
    # passed and transform failed with "expression is not affine in
    # the unknowns"
    ("chained4.spec", "states", "x1 x2 x3 @c0",
     "state name '@c0' is not an identifier"),
    # parsed as the constant 2 wherever f, g1 or g2 wrote it
    ("chained4.spec", "states", "x1 x2 x3 2",
     "state name '2' is not an identifier"),
    # refused with no path or line
    ("chained4.spec", "states", "x1 x2 x3 sin",
     "state name 'sin' shadows a function name"),
    ("motor.spec", "params", "J L M R T.L n_p",
     "parameter name 'T.L' is not an identifier"),
    ("motor.spec", "params", "J L M R exp n_p",
     "parameter name 'exp' shadows a function name"),
    # the last value won
    ("motor.spec", "param_values", "J=0.1 L=0.5 M=0.2 R=1.0 T_L=0.05 "
     "n_p=2.0 J=0.2", "param_values names parameter 'J' twice"),
], ids=["at-name", "number", "function", "param-dot", "param-function",
        "repeated-param-value"])
def test_bad_names_are_named_errors_with_their_line(tmp_path, capsys,
                                                    spec_name, key, value,
                                                    message):
    text, lineno = _with_line(spec_name, key, value)
    path = _write(tmp_path, text)
    for command in ("check", "transform", "verify", "simulate"):
        assert main([command, path, "--samples", "5"]) == 2, command
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"flatcheck: error: {path}:{lineno}: {message}\n"


def test_identifier_state_names_transform(tmp_path):
    # the name the '@c0' case wanted, as an identifier
    text, _ = _with_line("chained4.spec", "states", "x1 x2 x3 c0")
    path = _write(tmp_path, text)
    assert main(["transform", path, "--samples", "5"]) == 0


@pytest.mark.parametrize("option", ["--rank-tol", "--proj-tol", "--dt",
                                    "--horizon"])
def test_main_non_finite_setting_is_a_named_error(capsys, option):
    # --horizon inf overflowed in the step count, as a traceback
    spec = str(SPEC_DIR / "example1.spec")
    assert main(["verify", spec, "--samples", "5", option, "inf"]) == 2
    err = capsys.readouterr().err
    name = option[2:].replace("-", "_")
    assert err == f"flatcheck: error: {name} must be finite\n"


def test_main_deep_expression_is_a_named_error(tmp_path, capsys):
    # a flat sum of 3000 terms nests deeper than the recursion limit
    deep = " + ".join(["x1"] * 3000)
    path = _write(tmp_path, BASE.replace("f = 0, 0, 0, 0",
                                         f"f = {deep}, 0, 0, 0"))
    assert main(["check", path, "--samples", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("flatcheck: error:")
    assert "RecursionError" in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag, name", [
    ("check", "--json", "r.json"), ("simulate", "--out", "t.csv")])
def test_main_unwritable_output_is_a_named_error(tmp_path, capsys, command,
                                                 flag, name):
    target = tmp_path / "missing" / name
    spec = str(SPEC_DIR / "chained4.spec")
    argv = [command, spec, "--samples", "10", flag, str(target)]
    if command == "simulate":
        argv += ["--json", str(tmp_path / "r.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"flatcheck: error: {target}: No such file or directory\n"
    assert not target.exists()


def test_main_json_shape(tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", str(SPEC_DIR / "example1.spec"),
                 "--samples", "30", "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert set(data) == {"verdicts", "condition1", "condition2",
                         "construction", "verification", "provenance"}
    assert data["provenance"]["seed"] == 0
    assert "timestamp" in data["provenance"]


def test_reports_identical_modulo_timestamp():
    cfg = _cfg(SPEC_DIR / "example1.spec", samples=15)
    a = json.loads(run(cfg).to_json())
    b = json.loads(run(cfg).to_json())
    del a["provenance"]["timestamp"], b["provenance"]["timestamp"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_simulate_writes_default_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", str(SPEC_DIR / "chained4.spec"),
                 "--horizon", "0.2", "--dt", "0.01", "--samples", "20"])
    assert code == 0
    csv_path = Path("chained4.traj.csv")
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,z1,z2,z3,z4,x1,x2,x3,x4,v1,v2,u1,u2"
    report = json.loads(Path("chained4.report.json").read_text())
    assert report["verification"]["files"]["csv"] == "chained4.traj.csv"
    assert report["verdicts"]["condition1"] == "skipped"
    assert report["verdicts"]["overall"] == "pass"


def test_simulate_honors_out_flag(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    dest = tmp_path / "run.csv"
    code = main(["simulate", str(SPEC_DIR / "chained4.spec"),
                 "--horizon", "0.1", "--dt", "0.01", "--samples", "20",
                 "--out", str(dest)])
    assert code == 0 and dest.exists()


def test_transform_gate_and_force(tmp_path, capsys):
    path = _write(tmp_path, INVOLUTIVE)
    out = tmp_path / "t.json"
    assert main(["transform", path, "--samples", "30",
                 "--json", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["construction"]["skipped"] == (
        "check verdict is fail; use --force to override")
    capsys.readouterr()
    assert main(["transform", path, "--samples", "30", "--force"]) == 2
    assert "flatcheck: error:" in capsys.readouterr().err


def test_verify_gate_skips_construction(tmp_path, capsys):
    path = _write(tmp_path, INVOLUTIVE)
    out = tmp_path / "v.json"
    assert main(["verify", path, "--samples", "30",
                 "--json", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["construction"] == {
        "skipped": "check verdict is fail; use --force to override"}
    assert data["verification"] == {}
    assert data["verdicts"]["verification"] == "skipped"
    assert "verification verdict: skipped" in capsys.readouterr().out


def test_simulate_wrong_user_beta_writes_no_trajectory(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = (SPEC_DIR / "example1.spec").read_text()
    path = _write(tmp_path, text + "beta = 1, 0, 0, 1\n")
    assert main(["simulate", path, "--samples", "30", "--horizon", "0.1",
                 "--dt", "0.01"]) == 2
    assert capsys.readouterr().err == (
        "flatcheck: error: chained-form verification failed; "
        "no trajectory written\n")
    assert list(tmp_path.iterdir()) == [Path(path)]


def test_transform_example1_golden_strings():
    rep = run(_cfg(SPEC_DIR / "example1.spec", command="transform"))
    sec = rep.data["construction"]
    assert sec["source"] == "user chart"
    assert sec["beta"] == [["1/(x4^2 + 1)", "0"], ["0", "1"]]
    assert sec["alpha"] == ["0", "-1"]
    assert sec["alpha_bar"] == ["0", "-1"]
    assert sec["closed_loop_drift"] == ["z1*z4", "z2", "0", "0"]
    assert sec["flat_output"]["y"] == ["x4", "x1"]
    assert rep.data["verdicts"]["construction"] == "ok"


def test_transform_cubic4_needs_no_inverse(tmp_path):
    # z1 = x1 + x1^3 has no sequential inverse; the triangular shape and
    # the x-regularity are still decided exactly
    out = tmp_path / "c.json"
    assert main(["transform", str(TESTS_DIR / "cubic4.spec"), "--samples",
                 "30", "--json", str(out)]) == 0
    sec = json.loads(out.read_text())["construction"]
    assert sec["inverse"] is None
    assert "dependence_mode" not in sec
    assert sec["flat_output"]["regularity_x"] == ["u1", "u1"]
    assert sec["flat_output"]["regularity_z"] is None
    assert len(sec["phi_x"]) == 2 and "phi" not in sec


CHAINED6 = """\
n = 6
states = x1 x2 x3 x4 x5 x6
f = 0, 0, 0, 0, 0, 0
g1 = x2, x3, x4, x5, 0, 1
g2 = 0, 0, 0, 0, 1, 0
"""


def test_transform_motor_golden_strings():
    # the output pair comes from the ansatz search, so these strings pin
    # the exact elimination's printed results, not just their values
    rep = run(_cfg(SPEC_DIR / "motor.spec", command="transform"))
    sec = rep.data["construction"]
    assert sec["source"] == "output-pair search at degree 2"
    assert sec["chart"] == ["(-M*n_p*x2*x3 + J*M*R*x1)/(J*L)",
                            "(-2*M^2*R*n_p*x3)/(J*L^2)",
                            "L*x2/(M*R)"]
    assert sec["flat_output"]["y"] == ["(-M*n_p*x2*x3 + J*M*R*x1)/(J*L)",
                                       "L*x2/(M*R)"]
    assert sec["inverse"] == ["(-(1/2)*L*z2*z3 + L*z1)/(M*R)",
                              "M*R*z3/L",
                              "(-(1/2)*J*L^2*z2)/(M^2*R*n_p)"]
    assert sec["beta"] == [["1", "0"],
                           ["0", "(-(1/2)*J*L^3)/(M^3*R^2*n_p)"]]
    assert sec["alpha"] == ["(L*n_p*x1*x3 + R*x2)/(M*R)",
                            "(-L*n_p*x1*x2 + R*x3)/(M*R)"]
    assert sec["alpha_bar"] == [
        "(L*n_p*x1*x3 + R*x2)/(M*R)",
        "(2*L*M^2*R*n_p^2*x1*x2 - 2*M^2*R^2*n_p*x3)/(J*L^3)"]
    assert rep.data["verdicts"]["construction"] == "ok"


def test_transform_chained6_forced_golden_strings(tmp_path):
    rep = run(_cfg(_write(tmp_path, CHAINED6), command="transform",
                   force=True))
    sec = rep.data["construction"]
    assert sec["source"] == "output-pair search at degree 2"
    assert sec["chart"] == ["x1", "x2", "x3", "x4", "x5", "x6"]
    assert sec["flat_output"]["y"] == ["x1", "x6"]
    assert sec["inverse"] == ["z1", "z2", "z3", "z4", "z5", "z6"]
    assert sec["beta"] == [["1", "0"], ["0", "1"]]
    assert sec["alpha"] == ["0", "0"]
    assert sec["alpha_bar"] == ["0", "0"]
    assert rep.data["verdicts"]["construction"] == "ok"


def test_verify_flags_wrong_user_beta(tmp_path):
    text = (SPEC_DIR / "example1.spec").read_text()
    path = _write(tmp_path, text + "beta = 1, 0, 0, 1\n")
    code = main(["verify", path, "--samples", "30",
                 "--json", str(tmp_path / "v.json")])
    assert code == 1
    data = json.loads((tmp_path / "v.json").read_text())
    chained = data["verification"]["chained_form"]
    assert not chained["pass"]
    assert any(m["field"] == "g1hat" for m in chained["mismatches"])
    assert data["verdicts"]["overall"] == "fail"


@pytest.mark.parametrize("name", ["example1", "motor", "chained4", "chained5",
                                  "chained6", "chained7", "chained8"])
def test_bracket_oracle_matches_per_case_stencils(name):
    # the batched oracle's whole section equals the one built from
    # per-point stencils, bit for bit
    spec = (systems.chained(int(name[-1])) if name.startswith("chained")
            else getattr(systems, name)())
    for seed in (5, 11):
        points = SampleBox(spec.sample_box(), 40, seed=seed).points(
            spec.frame, spec.bound_params(seed))
        got = _bracket_oracle(spec, points)
        assert got == harness_reference.bracket_section(spec, points,
                                                        BRACKET_FD_TOL)


def test_bracket_oracle_evaluates_each_stencil_once_per_point(monkeypatch):
    # g1, g2 and [g1, g2] each enter two of the three cases; each gets
    # one Jacobian (2n batched calls) and one base value over all
    # points, and [g1, g2], the first case's exact bracket, is not
    # evaluated again. Every call covers every point once.
    calls = Counter()
    rows = Counter()
    make = Frame.evaluator

    def counting(frame, exprs):
        fn = make(frame, exprs)

        def batch(coords, bindings):
            calls[tuple(exprs)] += 1
            rows[tuple(exprs)] += len(coords)
            return fn(coords, bindings)
        return batch

    monkeypatch.setattr(Frame, "evaluator", counting)
    spec = systems.chained(4)
    points = SampleBox(spec.sample_box(), 10, seed=1).points(spec.frame)
    _bracket_oracle(spec, points)
    b1 = lie_bracket(spec.g1, spec.g2)
    n, p = spec.n, len(points)
    want = {
        spec.g1.components: 2 * n + 1,
        spec.g2.components: 2 * n + 1,
        b1.components: 2 * n + 1,
        lie_bracket(spec.g1, b1).components: 1,
        lie_bracket(spec.g2, b1).components: 1,
    }
    assert calls == want
    assert rows == {k: c * p for k, c in want.items()}


def _motor_without_param_values() -> str:
    text = (SPEC_DIR / "motor.spec").read_text()
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("param_values"))


def test_unbound_params_are_drawn_once_for_every_command(tmp_path, capsys,
                                                         monkeypatch):
    # parameters without a value are drawn once per run from --seed; the
    # simulation and the reconstruction read that same binding
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, _motor_without_param_values(), name="motor.spec")
    out = tmp_path / "v.json"
    assert main(["verify", path, "--samples", "20", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["verdicts"]["verification"] == "pass"
    assert data["verification"]["round_trip"]["pass"]
    assert main(["simulate", path, "--samples", "20", "--horizon", "0.2",
                 "--dt", "0.01"]) == 0
    assert Path("motor.traj.csv").exists()
    assert capsys.readouterr().err == ""


def _leaf_types(obj, path="report"):
    """(path, type) of every value in a report that is not a container;
    every key must be a str."""
    if type(obj) is dict:
        for k, v in obj.items():
            assert type(k) is str, f"{path}: key {k!r}"
            yield from _leaf_types(v, f"{path}.{k}")
    elif type(obj) is list:
        for i, v in enumerate(obj):
            yield from _leaf_types(v, f"{path}[{i}]")
    else:
        yield path, type(obj)


COMMANDS = ("check", "transform", "verify", "simulate")


@pytest.mark.parametrize("command, name, force", [
    *((c, s, False) for s in ("example1", "motor", "chained4")
      for c in COMMANDS),
    # a failed check gates construction; forcing it on these two ends in
    # a named error with no report, so the forced case is chained6
    *((c, s, False) for s in ("perturbed_example1", "involutive")
      for c in ("check", "transform", "verify")),
    ("transform", "chained6", True)])
def test_reports_hold_only_plain_values(tmp_path, command, name, force):
    # to_json dumps the record as it is: a numpy scalar would not
    # serialize, or would pass only as a float subclass
    if name == "perturbed_example1":
        path = _write(tmp_path, (SPEC_DIR / "example1.spec").read_text()
                      .replace("x1*x4\n", "x1*x4 + x3\n"))
    elif name in ("involutive", "chained6"):
        path = _write(tmp_path, INVOLUTIVE if name == "involutive"
                      else CHAINED6)
    else:
        path = SPEC_DIR / f"{name}.spec"
    rep = run(_cfg(path, command, samples=20, force=force, horizon=0.1,
                   dt=0.01, out=str(tmp_path / "t.csv")))
    plain = (str, int, float, bool, type(None))
    assert [(p, t) for p, t in _leaf_types(rep.data) if t not in plain] == []
    assert json.loads(rep.to_json()) == rep.data


def test_transform_twice_gives_the_same_report():
    # normal forms share their stored pairs across the whole run; a
    # second run in the same process must not see the first one's
    first, second = (run(_cfg(SPEC_DIR / "example1.spec", "transform")).data
                     for _ in range(2))
    for data in (first, second):
        data["provenance"].pop("timestamp")
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)


@pytest.mark.parametrize("name", ["example1", "motor"])
def test_commands_are_prefixes(name):
    # transform runs check's stage unchanged, and verify transform's
    check, transform, verify = (
        run(_cfg(SPEC_DIR / f"{name}.spec", command)).data
        for command in ("check", "transform", "verify"))
    for sec in ("condition1", "condition2"):
        assert transform[sec] == check[sec]
        assert verify[sec] == check[sec]
    assert verify["construction"] == transform["construction"]
    assert (verify["verification"]["chained_form"]
            == transform["verification"]["chained_form"])


# --- the report writer -------------------------------------------------------

_json_string = st.text() | st.sampled_from(
    ['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "\u2028", "é", "\U0001f600",
     "\ud800", "/"])
_json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 63) | st.integers(max_value=-2 ** 63),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                  5e-324, 1e16, 1.7976931348623157e308]),
    _json_string)
_json_value = st.recursive(
    _json_scalar | st.lists(st.floats()) | st.lists(st.integers())
    | st.lists(_json_string) | st.lists(st.booleans()) | st.lists(st.none()),
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_json_string, kids, max_size=4),
    max_leaves=25)


@given(_json_value)
@settings(max_examples=400, deadline=None)
@example({"a": [1.0, math.nan, -0.0, math.inf], "b": {}, "c": [], "d": ()})
@example([[1, 2.5, "x", None, True], (1, (2,)), {"k": {"k": [False]}}])
@example({"é": "\u2028", "": 2 ** 70, "\n": -(2 ** 64)})
def test_report_writer_is_json_dumps(x):
    want = json.dumps(x, indent=2, sort_keys=True) + "\n"
    # written directly, not by falling back to json.dumps
    assert _json_text(x, "") + "\n" == want
    assert CheckReport(x).to_json() == want


@pytest.mark.parametrize("x", [
    {"a": np.float64(0.1)}, [1.0, np.float64(2.5)], {"a": {1: "x", 2: [1.5]}},
    {"a": {True: None, False: 1}}, {1: "x"}])
def test_report_writer_falls_back_to_json_dumps(x):
    with pytest.raises(TypeError):
        _json_text(x, "")
    assert CheckReport(x).to_json() == \
        json.dumps(x, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("x", [{"a": object()}, [1, {2, 3}],
                               {"a": np.int64(1)}, {1: "x", "b": 2}])
def test_report_writer_raises_what_json_dumps_raises(x):
    with pytest.raises(TypeError) as want:
        json.dumps(x, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        CheckReport(x).to_json()
    assert str(got.value) == str(want.value)


def test_report_writer_reports_a_cycle_as_json_dumps_does():
    x = [1.0]
    x.append({"x": x})
    with pytest.raises(ValueError, match="Circular reference"):
        CheckReport({"a": x}).to_json()


# --- a table written by one template -----------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)
_int = st.integers() | st.integers(min_value=2 ** 63) | st.integers(
    max_value=-2 ** 63)
_odd_value = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1.7976931348623157e308, -0.0, 5e-324,
     2 ** 64, -(2 ** 70), True, False, None, "%s \"%d\"\n", [1.0], [1, 2, 3],
     [1.0, 2], [math.nan, 1.0], [], {}]) | _finite.map(np.float64)
_odd_element = st.sampled_from(
    [math.nan, math.inf, -math.inf, True, 1, 1.5, 2 ** 64, "x", None,
     np.float64(0.5)])
_table_key = _json_string | st.sampled_from(["%", "%s", "%%d", "pass"])


@st.composite
def _tables(draw):
    """Two or more dicts on one key set. In a clean table each column
    is of one kind (a float, int or bool, or a float or int list of
    one length); otherwise a column may be of any values or have one
    value, or one list element, spoilt, and one row may have another
    key set."""
    n = draw(st.integers(2, 5))
    keys = draw(st.lists(_table_key, max_size=4, unique=True))
    clean = draw(st.booleans())
    cols = []
    for _ in keys:
        kind = draw(st.sampled_from(["float", "int", "bool", "floats",
                                     "ints"] + ([] if clean else ["any"])))
        if kind in ("floats", "ints"):
            length = draw(st.integers(0, 3))
            elem = _finite if kind == "floats" else _int
            col = [draw(st.lists(elem, min_size=length, max_size=length))
                   for _ in range(n)]
            if not clean and length and draw(st.booleans()):
                i, j = draw(st.integers(0, n - 1)), draw(
                    st.integers(0, length - 1))
                col[i][j] = draw(_odd_element)
        else:
            elem = {"float": _finite, "int": _int, "bool": st.booleans(),
                    "any": _json_value}[kind]
            col = [draw(elem) for _ in range(n)]
        if not clean and draw(st.booleans()):
            col[draw(st.integers(0, n - 1))] = draw(_odd_value)
        cols.append(col)
    rows = [dict(zip(keys, vals)) for vals in zip(*cols)] or [{}] * n
    if not clean and draw(st.integers(0, 2)) == 0:
        row = draw(st.integers(0, n - 1))
        rows[row] = dict(rows[row], extra=1.5)
    return rows


@given(_tables())
@settings(max_examples=400, deadline=None)
@example([{"coords": [0.5, -0.0], "dim_F": [2, 3], "pass": True},
          {"coords": [5e-324, 1e16], "dim_F": [2, 2 ** 70], "pass": False}])
@example([{"a%s": 1.7976931348623157e308}, {"a%s": 1.7976931348623157e308}])
@example([{"x": [1.0, math.nan]}, {"x": [1.0, 2.0]}])
@example([{"x": np.float64(1.5)}, {"x": 2.5}])
@example([{"x": np.float64(1.5)}, {"x": np.float64(2.5)}])
@example([{"x": [0.5, True]}, {"x": [1.5, 2.5]}])
@example([{"x": [0.5, np.float64(2.5)]}, {"x": [1.5, 2.5]}])
@example([{"x": [1, True]}, {"x": [2, 3]}])
@example([{"x": []}, {"x": []}])
@example([{}, {}])
def test_table_writer_is_json_dumps(rows):
    for x in (rows, {"per_point": rows, "n": len(rows)}):
        assert CheckReport(x).to_json() == \
            json.dumps(x, indent=2, sort_keys=True) + "\n"


def test_table_writer_takes_the_report_tables():
    data = run(RunConfig(str(SPEC_DIR / "chained4.spec"), "check")).data
    rows = data["condition1"]["per_point"]
    assert _table_text(rows, "    ") is not None
    assert _table_text([{"x": 1.0}, {"x": -0.0}], "") is not None
    for spoilt in (math.nan, math.inf, np.float64(1.0), 1, [1.0]):
        assert _table_text([{"x": 1.0}, {"x": spoilt}], "") is None
    assert _table_text([{"x": [1.0]}, {"x": [1.0, 2.0]}], "") is None
    assert _table_text([{"x": 1}, {"y": 1}], "") is None


# --- the parser of one command ----------------------------------------------

_USAGE_CASES = (
    [["--help"], ["-h"], [], ["bogus"], ["bogus", "--help"], ["check"],
     ["check", "a.spec", "b.spec"], ["check", "a.spec", "--seed"],
     ["check", "a.spec", "--force"], ["check", "a.spec", "--samples", "1"],
     ["simulate", "a.spec", "--dt", "abc"], ["--seed", "1", "check", "a"]]
    + [[c, "--help"] for c in COMMANDS]
    + [[c, "a.spec", "--bogus"] for c in COMMANDS])
_VALID_ARGVS = (
    [[c, "a.spec"] for c in COMMANDS]
    + [["transform", "a.spec", "--force", "--seed", "3", "--degree", "1"],
       ["verify", "a.spec", "--rank-tol", "1e-6", "--proj-tol", "1e-7",
        "--horizon", "2", "--force"],
       ["simulate", "a.spec", "--dt", "1e-4", "--out", "o.csv", "--json",
        "o.json", "--samples", "20"],
       ["check", "--sam", "5", "a.spec"]])


def _parse(parser, argv, capsys):
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    out, err = capsys.readouterr()
    return result, out, err


@pytest.mark.parametrize("argv", _USAGE_CASES + _VALID_ARGVS, ids=" ".join)
def test_command_parser_is_the_full_parser(argv, capsys):
    """The parser main builds for argv, which may hold only its
    command's subparser, parses, prints and exits as the full one."""
    full = _parse(_build_parser(), argv, capsys)
    assert _parse(_build_parser(argv[0] if argv else None), argv,
                  capsys) == full
    if argv in _VALID_ARGVS:
        assert full[0]["command"] == argv[0] and full[1:] == ("", "")


def test_command_parser_holds_one_subcommand():
    for command in COMMANDS:
        sub = _build_parser(command)._subparsers._group_actions[0]
        assert list(sub.choices) == [command]
    for command in (None, "bogus", "-h"):
        sub = _build_parser(command)._subparsers._group_actions[0]
        assert list(sub.choices) == list(COMMANDS)


def test_main_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """No parser, compiled function or memo stays in cli's or symx's
    module state from one main() call to the next."""
    from flatcheck import cli, symx
    monkeypatch.chdir(tmp_path)

    def state():
        return {(mod.__name__, k): (id(v), len(v) if isinstance(
                    v, (dict, list, set)) else None)
                for mod in (cli, symx) for k, v in vars(mod).items()}
    def held(v, depth=3):
        """Is v, or a value in a container v holds, a parser or a
        generated function?"""
        if isinstance(v, argparse.ArgumentParser) or getattr(
                getattr(v, "__code__", None), "co_filename", "") == "<string>":
            return True
        if depth and isinstance(v, (dict, list, tuple, set)):
            items = v.values() if isinstance(v, dict) else v
            return any(held(x, depth - 1) for x in items)
        return False
    spec = str(SPEC_DIR / "chained4.spec")
    main(["simulate", spec, "--dt", "1e-2"])
    before = state()
    main(["verify", spec, "--dt", "1e-2"])
    main(["check", str(SPEC_DIR / "motor.spec")])
    capsys.readouterr()
    assert state() == before
    assert not [k for mod in (cli, symx) for k, v in vars(mod).items()
                if held(v)]
    # the run's compile scope closed with it: the same command compiles
    # the same sources again
    assert symx._compiled.get(None) is None
    runs = []
    for _ in range(2):
        sources = []

        def counting_exec(src, scope):
            sources.append(src)
            exec(src, scope)  # noqa: S102
        monkeypatch.setattr(symx, "exec", counting_exec, raising=False)
        main(["check", str(SPEC_DIR / "motor.spec")])
        runs.append(sources)
    capsys.readouterr()
    assert runs[0] and runs[0] == runs[1]


def test_simulate_chained7_compiles_each_source_once(tmp_path, capsys,
                                                    monkeypatch,
                                                    bench_systems):
    from flatcheck import symx
    # the benchmark's generated chained7 spec
    spec = _write(tmp_path, bench_systems.chained(7), "chained7.spec")
    monkeypatch.chdir(tmp_path)
    sources = []

    def counting_exec(src, scope):
        sources.append(src)
        exec(src, scope)  # noqa: S102
    monkeypatch.setattr(symx, "exec", counting_exec, raising=False)
    assert main(["simulate", spec, "--seed", "0"]) == 0
    capsys.readouterr()
    assert sources and len(sources) == len(set(sources))
