"""End-to-end acceptance gate for the toolkit.

Each test exercises one headline guarantee at its stated tolerance
and prints a single PASS/FAIL line on the real stdout, so the gate
outcome stays visible inside any pytest run.
"""

import json
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

from flatcheck.symx import Sub, compile_fn, eval_at, is_zero, parse
from flatcheck.diffgeo import lie_bracket, lie_derivative_1form
from flatcheck.flags import check_condition1, compute_flags
from flatcheck.cauchy import annihilator, cauchy_space, check_condition2
from flatcheck.chained import build_chart, find_output_pair
from flatcheck.triangular import (drift_components, drift_feedback,
                                  extract_triangular, flat_output)
from flatcheck.harness import (FlatSignal, SampleBox, VSignal, fd_bracket,
                               reconstruct, simulate)
from flatcheck.cli import RunConfig, load_spec, run

import systems
from conftest import SPEC_DIR, each_point
from symx_reference import equiv
from cauchy_reference import span_residual


@pytest.fixture
def gate(request):
    """One visible PASS/FAIL line per criterion, bypassing capture."""
    cap = request.config.pluginmanager.getplugin("capturemanager")

    def emit(line):
        if cap is None:
            print(line, flush=True)
            return
        with cap.global_and_fixture_disabled():
            print(line, flush=True)

    @contextmanager
    def _gate(num, label):
        try:
            yield
        except BaseException:
            emit(f"acceptance {num} ({label}): FAIL")
            raise
        emit(f"acceptance {num} ({label}): PASS")

    return _gate


def test_acceptance_1_example1_golden_run(gate):
    with gate(1, "example1 golden run"):
        t0 = time.perf_counter()
        spec = load_spec(str(SPEC_DIR / "example1.spec"))
        fr = spec.frame
        pts = SampleBox(spec.sample_box(), 100, seed=0).points(fr)
        table = compute_flags(spec, seed=0)
        c1 = check_condition1(spec, pts, table=table)
        assert c1["pass"] and c1["points_checked"] == 100
        c2 = check_condition2(spec, table, pts)
        assert c2["verdict"] == "pass"

        chart, fb = build_chart(spec.chart_exprs, spec)
        fb = drift_feedback(spec, chart, fb)
        real = extract_triangular(spec, chart, fb)
        zf = chart.z_frame
        for got, want in zip(real.closed_loop_drift(), systems.E1_DRIFT_Z):
            assert is_zero(Sub(got, parse(want, zf)))
        for grow, wrow in zip(fb.beta, systems.E1_BETA):
            for g, w in zip(grow, wrow):
                assert is_zero(Sub(g, parse(w, fr)))
        for got, want in zip(drift_components(spec, chart),
                             systems.E1_ALPHA_BAR):
            assert is_zero(Sub(got, parse(want, fr)))
        y = flat_output(real)["y"]
        for got, want in zip(y, systems.E1_Y):
            assert is_zero(Sub(got, parse(want, fr)))
        assert time.perf_counter() - t0 < 10.0


def test_acceptance_2_motor_output_pair_search(gate, motor_spec):
    with gate(2, "motor output-pair search"):
        t0 = time.perf_counter()
        spec = motor_spec
        fr = spec.frame
        chart, fb = find_output_pair(spec, degree=2)
        fb = drift_feedback(spec, chart, fb)
        real = extract_triangular(spec, chart, fb)

        def eq(a, s, frame):
            return equiv(a, parse(s, frame), trials=200, tol=1e-9)

        for grow, wrow in zip(fb.beta,
                              (("1", "0"), ("0", systems.MOTOR_BETA22))):
            for g, w in zip(grow, wrow):
                assert eq(g, w, fr)
        for g, w in zip(fb.alpha, systems.MOTOR_ALPHA):
            assert eq(g, w, fr)
        assert eq(real.phis[0], systems.MOTOR_PHI1, real.chart.z_frame)
        fo = flat_output(real)
        assert eq(fo["regularity_x"][0], systems.MOTOR_REG_X,
                  fo["reg_frame_x"])
        dep = fo["parameter_dependence"]
        assert "T_L" not in dep["chart"]
        assert "T_L" not in dep["beta"]
        assert "T_L" not in dep["alpha"]
        assert time.perf_counter() - t0 < 30.0


def test_acceptance_3_bracket_table_exact(gate, example1_spec):
    with gate(3, "example1 bracket table"):
        spec = example1_spec
        fr = spec.frame
        b1 = lie_bracket(spec.g1, spec.g2)
        b2 = lie_bracket(spec.g1, b1)
        b3 = lie_bracket(spec.g2, b1)
        for got, want in zip(b1.components, systems.E1_G3):
            assert is_zero(Sub(got, parse(want, fr)))
        for got, want in zip(b2.components, systems.E1_G4):
            assert is_zero(Sub(got, parse(want, fr)))
        assert b3.is_zero()


def test_acceptance_4_chained_flags_and_spaces(gate):
    with gate(4, "chained flag dimensions and retracting spaces"):
        for n in (4, 5, 6):
            spec = systems.chained(n)
            pts = SampleBox(spec.sample_box(), 50, seed=11).points(spec.frame)
            table = compute_flags(spec)
            c1 = check_condition1(spec, pts, table=table)
            assert c1["pass"]
            for pp in c1["per_point"]:
                assert pp["dim_F"] == [2 + k for k in range(n - 1)]
                assert pp["dim_G"] == [2 + k for k in range(n - 1)]
            for k in range(1, n - 2):
                pairs = annihilator(table, k, pts[:5])
                keep = list(range(n - 1 - k)) + [n - 1]
                vt, ranks = cauchy_space(pairs, pts)
                assert len(vt) == len(ranks) == len(pts)
                for v, r in zip(vt, ranks):
                    # dim A = n - r, dim C = r; C is vt[p, :r]
                    assert n - r == k and r == n - k
                    for j in keep:
                        e = np.zeros(n)
                        e[j] = 1.0
                        assert span_residual(e, v[:r]) <= 1e-10


def test_acceptance_5_negative_controls(gate):
    with gate(5, "negative controls with rank oracles"):
        inv = systems.involutive()
        pts = SampleBox(inv.sample_box(), 25, seed=5).points(inv.frame)
        b1 = lie_bracket(inv.g1, inv.g2)
        for q in each_point(pts):
            stacked = np.column_stack(
                [inv.g1.values(q)[0], inv.g2.values(q)[0],
                 b1.values(q)[0]])
            assert np.linalg.matrix_rank(stacked, tol=1e-8) == 2
        c1 = check_condition1(inv, pts)
        assert not c1["pass"]
        for pp in c1["per_point"]:
            assert pp["dim_F"][1] == 2 and not pp["pass"]

        pert = systems.perturbed_example1()
        pts2 = SampleBox(pert.sample_box(), 50, seed=5).points(pert.frame)
        table = compute_flags(pert)
        c2 = check_condition2(pert, table, pts2)
        assert c2["verdict"] == "fail"
        resid = c2["levels"][0]["residuals"]
        assert sum(r > 1e-3 for r in resid) >= 0.9 * len(resid)
        # independent confirmation: appending the transported form to the
        # retracting basis raises its numeric rank at the same points
        pairs = annihilator(table, 1, pts2[:5])
        lf = [lie_derivative_1form(pert.f, w) for w, _ in pairs]
        jumps = 0
        vt, ranks = cauchy_space(pairs, pts2)
        for q, v, rank in zip(each_point(pts2), vt, ranks, strict=True):
            retract = v[:rank]  # the retracting space C at q
            base = np.linalg.matrix_rank(retract, tol=1e-8)
            rows = [np.array([eval_at(c, q.env(0)) for c in w.coefficients])
                    for w in lf]
            if any(np.linalg.matrix_rank(np.vstack([retract, r]),
                                         tol=1e-8) == base + 1
                   for r in rows):
                jumps += 1
        assert jumps >= 0.9 * len(pts2)


def test_acceptance_6_cross_validation(gate, example1_spec, motor_spec,
                                       chained4_spec, example1_real,
                                       motor_real, chained4_real):
    with gate(6, "finite-difference and two-route cross checks"):
        for spec in (example1_spec, motor_spec, chained4_spec):
            params = spec.bound_params(2)
            pts = SampleBox(spec.sample_box(), 100, seed=2).points(
                spec.frame, params)
            b1 = lie_bracket(spec.g1, spec.g2)
            b2 = lie_bracket(spec.g1, b1)
            b3 = lie_bracket(spec.g2, b1)
            for q in each_point(pts):
                for X, Y, B in ((spec.g1, spec.g2, b1),
                                (spec.g1, b1, b2), (spec.g2, b1, b3)):
                    sym = B.values(q)[0]
                    fd = fd_bracket(X, Y, q)[0]
                    scale = max(1.0, float(np.max(np.abs(sym))))
                    assert np.max(np.abs(fd - sym)) / scale <= 1e-5

        v = VSignal.from_strings("1 + sin(2*t)/4", "sin(t)/2")
        for real, z0 in ((example1_real, [0.1, 0.1, 0.0, 0.1]),
                         (chained4_real, [0.0, 0.0, 0.0, 0.0]),
                         (motor_real, [0.2, 0.1, 0.05])):
            params = real.system.param_values
            traj = simulate(real, real.chart.z_frame.point(z0), v,
                            T=1.0, dt=1e-3)
            xs = real.chart.x_frame.states
            xcols = [traj.x[:, j] for j in range(real.n)]
            fwd = np.column_stack(
                [np.broadcast_to(compile_fn(c, xs, params)(xcols),
                                 traj.t.shape)
                 for c in real.chart.forward])
            assert np.max(np.abs(fwd - traj.z)) <= 1e-6


def _round_trip_errors(real, z0_coords, v1s, v2s):
    v = VSignal.from_strings(v1s, v2s)
    z0 = real.chart.z_frame.point(z0_coords)
    dt_ref = 1e-5
    ref = simulate(real, z0, v, T=1.0, dt=dt_ref)
    errs = []
    for dt in (1e-2, 1e-3, 1e-4):
        traj = simulate(real, z0, v, T=1.0, dt=dt)
        flat = FlatSignal.from_trajectory(real, traj, v)
        back = reconstruct(real, flat)
        stride = round(dt / dt_ref)
        worst = 0.0
        for got, want in ((back.z, ref.z), (back.x, ref.x),
                          (back.v, ref.v), (back.u, ref.u)):
            sub = want[::stride]
            scale = np.maximum(1.0, np.max(np.abs(sub), axis=0))
            worst = max(worst, float(np.max(np.abs(got - sub) / scale)))
        errs.append(worst)
    return errs


def test_acceptance_7_flat_output_round_trip(gate, chained4_real,
                                             example1_real, motor_real):
    with gate(7, "flat output round trip"):
        cases = (
            (chained4_real, [0.0, 0.0, 0.0, 0.0],
             "1 + sin(4*t)/2", "cos(5*t)", 1e-6),
            (example1_real, [0.1, 0.1, 0.0, 0.1],
             "1 + sin(4*t)/2", "cos(3*t)/2", 1e-6),
            (motor_real, [0.2, 0.1, 0.05],
             "1 + sin(2*t)/4", "sin(t)/2", 1e-5),
        )
        for real, z0, v1s, v2s, bound in cases:
            errs = _round_trip_errors(real, z0, v1s, v2s)
            assert all(e <= bound for e in errs)
            assert errs[0] > errs[1] > errs[2]


def test_acceptance_8_deterministic_reports(gate):
    with gate(8, "deterministic reports"):
        def strip(text):
            return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "-"', text)

        mk = lambda cmd: RunConfig(
            spec_path=str(SPEC_DIR / "example1.spec"), command=cmd,
            seed=0, samples=100)
        assert strip(run(mk("check")).to_json()) == \
            strip(run(mk("check")).to_json())

        vk = lambda: RunConfig(spec_path=str(SPEC_DIR / "chained4.spec"),
                               command="verify", seed=3, samples=40)
        a, b = run(vk()).to_json(), run(vk()).to_json()
        assert strip(a) == strip(b)
        json.loads(a)
