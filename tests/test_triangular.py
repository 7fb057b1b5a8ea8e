import dataclasses

import pytest

from flatcheck.symx import (ONE_E, ZERO, Frame, Sub, diff, is_zero,
                            normalize, parse, subst, to_str)
from flatcheck.diffgeo import VectorField, basis_vector, lie_derivative_fn
from flatcheck.flags import SystemSpec, _reference_points
from flatcheck.chained import FeedbackMatrix, build_chart, find_output_pair
from flatcheck.triangular import (TriangularError, _coordinate_fields,
                                  _hat_drift, _z_derivatives,
                                  drift_components, drift_feedback,
                                  extract_triangular, flat_output)

import systems
import triangular_reference
from conftest import realize
from symx_reference import equiv


def _blind(chart):
    return dataclasses.replace(chart, inverse=None)


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


def test_dependence_check_needs_no_inverse(example1_spec, example1_real):
    # the same chart without its inverse: the dependence check and the
    # x-regularity are unchanged, only the z-side presentation is gone
    chart = _blind(example1_real.chart)
    real = extract_triangular(example1_spec, chart, example1_real.feedback)
    assert real.phis is None
    assert real.reg_frame is None
    assert real.regularity is None
    assert real.closed_loop_drift() is None
    assert real.phis_x == example1_real.phis_x
    assert real.dphis_x == example1_real.dphis_x
    fo = flat_output(real)
    assert fo["regularity_z"] is None
    assert fo["regularity_x"] == flat_output(example1_real)["regularity_x"]
    assert [to_str(r) for r in fo["regularity_x"]] == ["u1", "u1"]


def test_blind_chart_catches_violation_exactly():
    spec = systems.perturbed_example1()
    chart, fb = build_chart(systems.example1_chart(spec), spec)
    fb = drift_feedback(spec, chart, fb)
    with pytest.raises(TriangularError, match=r"dphi_1/dz_3 = 1 != 0"):
        extract_triangular(spec, _blind(chart), fb)


def test_cubic4_perturbed_names_exact_derivative():
    # f1 gains x3/(1 + 3*x1^2), so phi_1 = z1*z4 + z3
    spec = systems.cubic4(systems.CUBIC4_F1_PERTURBED)
    with pytest.raises(TriangularError,
                       match=r"dphi_1/dz_3 = 1 != 0 \(\|value\| = "):
        realize(spec, systems.cubic4_chart(spec))


def _case(name):
    """A named system, its chart and the drift-cancelling feedback:
    example1's own chart for the example1 pair, else the searched one."""
    if name.startswith("chained"):
        spec = systems.chained(int(name[len("chained"):]))
    else:
        spec = getattr(systems, name)()
    if "example1" in name:
        chart, fb = build_chart(systems.example1_chart(spec), spec)
    elif name == "cubic4":
        chart, fb = build_chart(systems.cubic4_chart(spec), spec)
    else:
        chart, fb = find_output_pair(spec)
    return spec, chart, drift_feedback(spec, chart, fb)


@pytest.mark.parametrize("name", ["example1", "motor", "chained4",
                                  "chained5", "chained6", "chained7",
                                  "chained8", "cubic4"])
def test_drift_rows_need_no_normalize(name):
    # extract_triangular takes <dz_i, fhat> as lie_derivative_fn builds
    # it: that is already normalize's tree, with the same stored pair
    spec, chart, fb = _case(name)
    fhat = _hat_drift(spec, fb)
    for z in chart.forward:
        bare = lie_derivative_fn(fhat, z)
        again = normalize(bare)
        assert bare == again
        assert getattr(bare, "_pair", None) == getattr(again, "_pair", None)


@pytest.mark.parametrize("name", ["example1", "perturbed_example1",
                                  "chained4", "chained5", "chained6",
                                  "disguised4"])
def test_dependence_agrees_with_z_route(name):
    spec, chart, fb = _case(name)
    assert chart.inverse is not None
    fhat = _hat_drift(spec, fb)
    phis_x = tuple(normalize(lie_derivative_fn(fhat, z))
                   for z in chart.forward[:spec.n - 2])
    phis = tuple(chart.to_z(p) for p in phis_x)
    got = _z_derivatives(phis_x, chart)
    want = triangular_reference.forbidden_derivatives_z(phis, chart)
    fwd = dict(zip(chart.z_frame.states, chart.forward))
    for pair, d_z in want.items():
        assert is_zero(got[pair]) == is_zero(d_z), pair
        assert is_zero(Sub(subst(d_z, fwd), got[pair])), pair
    points = _reference_points(spec, seed=7, count=25)
    try:
        triangular_reference.check_dependence_z(phis, chart, points)
    except TriangularError as e:
        with pytest.raises(TriangularError) as lib:
            extract_triangular(spec, chart, fb)
        assert str(lib.value).split(" = ")[0] == str(e).split(" = ")[0]
    else:
        extract_triangular(spec, chart, fb)


@pytest.mark.parametrize("name", ["example1", "motor", "disguised4"])
def test_coordinate_fields_invert_the_jacobian(name):
    spec, chart, _ = _case(name)
    states = chart.x_frame.states
    fields = _coordinate_fields(chart)
    assert len(fields) == spec.n - 2
    for c, field in enumerate(fields):
        j = c + 1  # 0-based index of z_{c+2}, the field's coordinate
        for r, z in enumerate(chart.forward):
            got = normalize(sum((diff(z, s) * x
                                 for s, x in zip(states, field)), ZERO))
            assert got == (ONE_E if r == j else ZERO), (c, r)


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
