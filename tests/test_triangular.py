import pytest

from flatcheck.symx import Frame, Sub, is_zero, parse
from flatcheck.diffgeo import VectorField, basis_vector
from flatcheck.flags import SystemSpec
from flatcheck.chained import Chart, FeedbackMatrix, build_chart
from flatcheck.triangular import (TriangularError, drift_components,
                                  drift_feedback, extract_triangular,
                                  flat_output)

import systems
from conftest import realize
from symx_reference import equiv


def _blind(chart):
    return Chart(name=chart.name, x_frame=chart.x_frame,
                 z_frame=chart.z_frame, forward=chart.forward,
                 inverse=None, jacobian_dets=chart.jacobian_dets)


def test_example1_drift_components(example1_spec):
    chart, _ = build_chart(systems.example1_chart(example1_spec),
                           example1_spec)
    abar = drift_components(example1_spec, chart)
    fr = example1_spec.frame
    for got, want in zip(abar, systems.E1_ALPHA_BAR):
        assert is_zero(Sub(got, parse(want, fr)))


def test_example1_alpha_and_drift(example1_real):
    fr = example1_real.system.frame
    for got, want in zip(example1_real.feedback.alpha, ("0", "-1")):
        assert is_zero(Sub(got, parse(want, fr)))
    zf = example1_real.chart.z_frame
    for got, want in zip(example1_real.closed_loop_drift(),
                         systems.E1_DRIFT_Z):
        assert is_zero(Sub(got, parse(want, zf)))


def test_example1_regularity_both_frames(example1_real):
    rf = example1_real.reg_frame
    # phi_1 = z1*z4 has no z2 term, so both rows reduce to bare v1
    for r in example1_real.regularity:
        assert is_zero(Sub(r, parse("v1", rf)))
    fo = flat_output(example1_real)
    fxu = fo["reg_frame_x"]
    for r in fo["regularity_x"]:
        assert is_zero(Sub(r, parse("u1", fxu)))
    zf = example1_real.chart.z_frame
    assert is_zero(Sub(fo["y"][0], parse("x4", example1_real.system.frame)))
    assert is_zero(Sub(fo["y"][1], parse("x1", example1_real.system.frame)))
    assert fo["flat_indices"] == (1, 4)


def test_motor_feedback_and_phi(motor_real):
    fr = motor_real.system.frame
    for got, want in zip(motor_real.feedback.alpha, systems.MOTOR_ALPHA):
        assert equiv(got, parse(want, fr))
    zf = motor_real.chart.z_frame
    assert equiv(motor_real.phis[0], parse(systems.MOTOR_PHI1, zf))
    rf = motor_real.reg_frame
    assert equiv(motor_real.regularity[0],
                 parse(systems.MOTOR_REG_Z, rf))
    rx = flat_output(motor_real)["regularity_x"]
    fo_frame = flat_output(motor_real)["reg_frame_x"]
    assert is_zero(Sub(rx[0], parse(systems.MOTOR_REG_X, fo_frame)))


def test_motor_parameter_scan(motor_real):
    scan = flat_output(motor_real)["parameter_dependence"]
    assert "T_L" not in scan["chart"]
    assert "T_L" not in scan["beta"]
    assert "T_L" not in scan["alpha"]
    assert "T_L" in scan["phi"]


def test_chained_realization_is_trivial(chained4_real):
    assert all(is_zero(p) for p in chained4_real.phis)
    assert all(is_zero(a) for a in chained4_real.feedback.alpha)
    rf = chained4_real.reg_frame
    for r in chained4_real.regularity:
        assert is_zero(Sub(r, parse("v1", rf)))


def test_uncancelled_drift_is_caught(example1_spec):
    chart, fb = build_chart(systems.example1_chart(example1_spec),
                            example1_spec)
    zero = parse("0", example1_spec.frame)
    bad = FeedbackMatrix(beta=fb.beta, alpha=(zero, zero))
    with pytest.raises(TriangularError, match="drift cancellation failed"):
        extract_triangular(example1_spec, chart, bad)


def test_perturbed_drift_breaks_dependence():
    spec = systems.perturbed_example1()
    chart, fb = build_chart(systems.example1_chart(spec), spec)
    fb = drift_feedback(spec, chart, fb)
    with pytest.raises(TriangularError, match="dphi_1/dz_3"):
        extract_triangular(spec, chart, fb)


def test_numeric_mode_without_inverse(example1_spec, example1_real):
    chart = _blind(example1_real.chart)
    real = extract_triangular(example1_spec, chart, example1_real.feedback)
    assert real.dependence_mode == "numeric"
    assert real.phis is None
    assert real.regularity is None
    assert real.closed_loop_drift() is None
    assert len(real.phis_x) == 2
    fo = flat_output(real)
    assert fo["regularity_z"] is None and fo["regularity_x"] is None


def test_numeric_mode_still_catches_violation():
    spec = systems.perturbed_example1()
    chart, fb = build_chart(systems.example1_chart(spec), spec)
    fb = drift_feedback(spec, chart, fb)
    with pytest.raises(TriangularError, match="dphi_1/dz_3"):
        extract_triangular(spec, _blind(chart), fb)


def _chained4_with_param(pname):
    fr = Frame("x", ("x1", "x2", "x3", "x4"), (pname,))
    P = lambda s: parse(s, fr)
    zero = P("0")
    f = VectorField(fr, (zero, zero, zero, zero))
    g1 = VectorField(fr, (P("x2"), P("x3"), zero, P("1")))
    g2 = basis_vector(fr, 2)
    return SystemSpec(frame=fr, f=f, g1=g1, g2=g2)


def test_input_symbol_collisions_are_refused():
    spec = _chained4_with_param("v1")
    chart, fb = build_chart(tuple(parse(s, spec.frame)
                                  for s in ("x1", "x2", "x3", "x4")), spec)
    fb = drift_feedback(spec, chart, fb)
    with pytest.raises(TriangularError, match="v1 already taken"):
        extract_triangular(spec, chart, fb)

    spec2 = _chained4_with_param("u1")
    chart2, fb2 = build_chart(tuple(parse(s, spec2.frame)
                                    for s in ("x1", "x2", "x3", "x4")), spec2)
    fb2 = drift_feedback(spec2, chart2, fb2)
    real2 = extract_triangular(spec2, chart2, fb2)
    with pytest.raises(TriangularError, match="u1 already taken"):
        flat_output(real2)
