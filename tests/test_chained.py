import pytest
from fractions import Fraction

import numpy as np

from flatcheck.symx import (Const, Div, Mul, Sub, Sym, is_zero, normalize,
                            parse, subst)
from flatcheck.diffgeo import basis_vector
from flatcheck.flags import SystemSpec
from flatcheck.chained import (ChainedError, Chart, FeedbackMatrix,
                               build_chart, control_pair, find_output_pair,
                               verify_chained)

import systems
from symx_reference import equiv


def test_output_pair_chained_is_identity_candidates(chained4_spec):
    pair = find_output_pair(chained4_spec, degree=2)
    fr = chained4_spec.frame
    assert is_zero(Sub(pair.h2, parse("x1", fr)))
    assert is_zero(Sub(pair.h1, parse("x4", fr)))
    assert pair.degree == 2


def test_output_pair_motor_matches_references(motor_spec):
    pair = find_output_pair(motor_spec, degree=2)
    fr = motor_spec.frame
    assert equiv(pair.h1, parse(systems.MOTOR_H1, fr))
    assert equiv(pair.h2, parse(systems.MOTOR_H2, fr))


def test_output_pair_search_fails_cleanly():
    with pytest.raises(ChainedError, match="degree"):
        find_output_pair(systems.motor(), degree=1)


def test_build_chart_from_user_chart(example1_spec):
    chart, fb = build_chart(systems.example1_chart(example1_spec),
                            example1_spec)
    assert chart.z_frame.states == ("z1", "z2", "z3", "z4")
    assert chart.inverse is not None
    # z(x(z)) is the identity
    inv_map = dict(zip(chart.x_frame.states, chart.inverse))
    for zi, fwd in zip(chart.z_frame.states, chart.forward):
        assert is_zero(Sub(subst(fwd, inv_map), Sym(zi)))
    for want_row, got_row in zip(systems.E1_BETA, fb.beta):
        for want, got in zip(want_row, got_row):
            assert is_zero(Sub(got, parse(want, example1_spec.frame)))


def test_build_chart_motor_scaling(motor_spec):
    chart, fb = build_chart(find_output_pair(motor_spec), motor_spec)
    fr = motor_spec.frame
    assert equiv(chart.forward[0], parse(systems.MOTOR_H2, fr))
    assert equiv(chart.forward[1], parse(systems.MOTOR_Z2, fr))
    assert equiv(chart.forward[2], parse(systems.MOTOR_H1, fr))
    assert is_zero(fb.beta[0][1]) and is_zero(fb.beta[1][0])
    assert equiv(fb.beta[1][1], parse(systems.MOTOR_BETA22, fr))


def test_control_pair_column_convention():
    from flatcheck.symx import Frame, ZERO
    from flatcheck.diffgeo import VectorField
    fr = Frame("x", ("x1", "x2"), ())
    spec = SystemSpec(frame=fr, f=VectorField(fr, (ZERO, ZERO)),
                      g1=basis_vector(fr, 0), g2=basis_vector(fr, 1))
    C = lambda k: Const(Fraction(k))
    fb = FeedbackMatrix(beta=((C(2), C(3)), (C(5), C(7))),
                        alpha=(ZERO, ZERO))
    g1h, g2h = control_pair(spec, fb)
    # column j of beta weights (g1, g2) for transformed input j
    assert [normalize(c) for c in g1h.components] == [C(2), C(5)]
    assert [normalize(c) for c in g2h.components] == [C(3), C(7)]


def inverse_beta(fb):
    """beta^{-1} by the adjugate over det(beta)."""
    b = fb.beta
    d = normalize(b[0][0] * b[1][1] - b[0][1] * b[1][0])
    neg = Const(Fraction(-1))
    return ((normalize(Div(b[1][1], d)), normalize(Div(Mul(neg, b[0][1]), d))),
            (normalize(Div(Mul(neg, b[1][0]), d)), normalize(Div(b[0][0], d))))


def test_feedback_matrix_inverse():
    fr = systems.example1().frame
    P = lambda s: parse(s, fr)
    fb = FeedbackMatrix(beta=((P("x4^2 + 1"), P("1")), (P("0"), P("2"))),
                        alpha=(P("0"), P("0")))
    inv = inverse_beta(fb)
    for i in range(2):
        for j in range(2):
            acc = P("0")
            for k in range(2):
                acc = acc + fb.beta[i][k] * inv[k][j]
            want = P("1") if i == j else P("0")
            assert is_zero(Sub(normalize(acc), want))


def test_verify_chained_symbolic_pass(example1_spec, example1_real):
    out = verify_chained(example1_real.chart, example1_real.feedback,
                         example1_spec)
    assert out["pass"] and out["mode"] == "symbolic"
    assert out["mismatches"] == []


def test_verify_chained_flags_wrong_beta(example1_spec):
    chart, fb = build_chart(systems.example1_chart(example1_spec),
                            example1_spec)
    fr = example1_spec.frame
    one, zero = parse("1", fr), parse("0", fr)
    wrong = FeedbackMatrix(beta=((one, zero), (zero, one)), alpha=fb.alpha)
    out = verify_chained(chart, wrong, example1_spec)
    assert not out["pass"]
    assert any(m["field"] == "g1hat" for m in out["mismatches"])
    assert all("component" in m for m in out["mismatches"])


def test_verify_chained_numeric_route(example1_spec, example1_real):
    chart = example1_real.chart
    blind = Chart(name=chart.name, x_frame=chart.x_frame,
                  z_frame=chart.z_frame, forward=chart.forward,
                  inverse=None, jacobian_dets=chart.jacobian_dets)
    out = verify_chained(blind, example1_real.feedback, example1_spec)
    assert out["pass"] and out["mode"] == "numeric"
    assert out["points_checked"] > 0


def test_chart_to_z_requires_inverse(example1_real):
    chart = example1_real.chart
    blind = Chart(name=chart.name, x_frame=chart.x_frame,
                  z_frame=chart.z_frame, forward=chart.forward,
                  inverse=None, jacobian_dets=chart.jacobian_dets)
    with pytest.raises(ChainedError):
        blind.to_z(parse("x1", chart.x_frame))


def test_forward_values_numeric(example1_spec, example1_real):
    q = example1_spec.point([0.2, -0.1, 0.4, 0.3])
    z = example1_real.chart.forward_values(q)
    assert np.allclose(z, [0.3, 0.2 ** 2 - 0.1, 0.4, 0.2])


def test_build_chart_identity_for_chained(chained4_real):
    chart = chained4_real.chart
    for fwd, x in zip(chart.forward, chart.x_frame.states):
        assert is_zero(Sub(fwd, Sym(x)))
    one = Const(Fraction(1))
    assert [normalize(b) for row in chained4_real.feedback.beta
            for b in row] == [one, Const(Fraction(0)),
                              Const(Fraction(0)), one]
