import dataclasses
import pytest
from fractions import Fraction

import numpy as np

from flatcheck.symx import (ZERO, Const, Div, Mul, Sub, Sym, is_zero,
                            normalize, parse, subst, to_str)
from flatcheck.diffgeo import basis_vector, lie_derivative_fn
from flatcheck.flags import SystemSpec
from flatcheck.chained import (ChainedError, FeedbackMatrix, _replay,
                               build_chart, control_pair, find_output_pair,
                               verify_chained)

import chained_reference
import systems
from conftest import realize
from symx_reference import equiv


def test_output_pair_chained_is_identity_candidates(chained4_spec):
    chart, fb = find_output_pair(chained4_spec, degree=2)
    fr = chained4_spec.frame
    assert is_zero(Sub(chart.forward[0], parse("x1", fr)))
    assert is_zero(Sub(chart.forward[-1], parse("x4", fr)))
    # the chart and feedback returned are the ones built from the chain
    built, built_fb = build_chart(chart.forward, chained4_spec)
    assert chart == built and fb == built_fb


def test_output_pair_motor_matches_references(motor_spec):
    chart, _ = find_output_pair(motor_spec, degree=2)
    fr = motor_spec.frame
    assert equiv(chart.forward[-1], parse(systems.MOTOR_H1, fr))
    assert equiv(chart.forward[0], parse(systems.MOTOR_H2, fr))


@pytest.mark.parametrize("name", ["chained4", "motor"])
def test_output_pair_chart_is_the_lie_chain(name):
    # z = (h2, L_g1 h2, ..., L_g1^(n-2) h2, h1), with L_g1 h1 = 1
    spec = _system(name)
    chart, _ = find_output_pair(spec, degree=2)
    h2, h1 = chart.forward[0], chart.forward[-1]
    chain = [h2]
    for _ in range(spec.n - 2):
        chain.append(lie_derivative_fn(spec.g1, chain[-1]))
    assert chart.forward == (*chain, h1)
    assert to_str(lie_derivative_fn(spec.g1, h1)) == "1"


def test_replay_draws_once_and_repeats():
    drawn = []

    def source():
        for k in range(4):
            drawn.append(k)
            yield k

    rest = source()
    seen = [next(rest)]
    first = _replay(seen, rest)
    assert [next(first), next(first)] == [0, 1]
    assert list(_replay(seen, rest)) == [0, 1, 2, 3]
    assert list(_replay(seen, rest)) == [0, 1, 2, 3]
    assert drawn == [0, 1, 2, 3]


# the printed (h1, h2) of the tree-route search, which the search on
# pairs must reproduce
OUTPUT_PAIRS = {
    "chained4": ("x4", "x1"), "chained5": ("x5", "x1"),
    "chained6": ("x6", "x1"), "chained7": ("x7", "x1"),
    "chained8": ("x8", "x1"),
    "motor": ("L*x2/(M*R)", "(-M*n_p*x2*x3 + J*M*R*x1)/(J*L)"),
    # accepted at the second h2 candidate
    "disguised4": ("x4", "(1/2)*x2^2 + x1"),
}


def _system(name):
    if name.startswith("chained"):
        return systems.chained(int(name[len("chained"):]))
    return getattr(systems, name)()


@pytest.mark.parametrize("name", OUTPUT_PAIRS)
def test_output_pair_golden(name):
    chart, _ = find_output_pair(_system(name), degree=2)
    assert (to_str(chart.forward[-1]), to_str(chart.forward[0])) == \
        OUTPUT_PAIRS[name]


def test_output_pair_search_fails_cleanly():
    with pytest.raises(ChainedError, match="degree"):
        find_output_pair(systems.motor(), degree=1)


@pytest.mark.parametrize("name, message", [
    ("example1", "no h1 with unit pairing at degree 2"),
    # each of 5 h1 candidates is tried with each of 45 h2 candidates
    ("involutive", "no output pair verified at degree 2")])
def test_output_pair_search_errors(name, message):
    with pytest.raises(ChainedError) as err:
        find_output_pair(_system(name), degree=2)
    assert str(err.value) == message


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
    chart, fb = find_output_pair(motor_spec)
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


def test_verify_chained_needs_no_inverse(example1_spec, example1_real):
    chart = example1_real.chart
    blind = dataclasses.replace(chart, inverse=None)
    fr = example1_spec.frame
    one, zero = parse("1", fr), parse("0", fr)
    for fb in (example1_real.feedback,
               FeedbackMatrix(beta=((one, zero), (zero, one)),
                              alpha=example1_real.feedback.alpha)):
        out = verify_chained(blind, fb, example1_spec)
        assert out == verify_chained(chart, fb, example1_spec)
        assert out["mode"] == "symbolic"


def _wrong_betas(beta, fr):
    """The feedback's beta and four wrong ones: identity, columns
    swapped, doubled, second column negated."""
    one, zero = parse("1", fr), parse("0", fr)
    (a, b), (c, d) = beta
    neg = lambda e: normalize(Mul(Const(Fraction(-1)), e))
    dbl = lambda e: normalize(Mul(Const(Fraction(2)), e))
    return {"own": beta,
            "identity": ((one, zero), (zero, one)),
            "swapped": ((b, a), (d, c)),
            "doubled": ((dbl(a), dbl(b)), (dbl(c), dbl(d))),
            "negated": ((a, neg(b)), (c, neg(d)))}


@pytest.mark.parametrize("name", ["example1", "motor", "chained4",
                                  "chained5", "chained6", "disguised4"])
def test_verify_chained_agrees_with_z_route(name):
    # the x-side check and the z-side reference (rewrite through the
    # inverse, compare with the chained pattern) agree on the verdict
    # and on which components mismatch, under right and wrong betas
    if name.startswith("chained"):
        spec = systems.chained(int(name[len("chained"):]))
    else:
        spec = getattr(systems, name)()
    chart_exprs = (systems.example1_chart(spec) if name == "example1"
                   else None)
    real = realize(spec, chart_exprs)
    assert real.chart.inverse is not None
    verdicts = {}
    for label, beta in _wrong_betas(real.feedback.beta, spec.frame).items():
        fb = FeedbackMatrix(beta=beta, alpha=real.feedback.alpha)
        got = verify_chained(real.chart, fb, spec)
        want = chained_reference.verify_chained_z(real.chart, fb, spec)
        assert got["pass"] == want["pass"], label
        assert ({(m["field"], m["component"]) for m in got["mismatches"]}
                == {(m["field"], m["component"])
                    for m in want["mismatches"]}), label
        verdicts[label] = got["pass"]
    assert verdicts["own"]
    assert not any(verdicts[k] for k in ("swapped", "doubled", "negated"))


def test_chart_to_z_requires_inverse(example1_real):
    chart = example1_real.chart
    blind = dataclasses.replace(chart, inverse=None)
    with pytest.raises(ChainedError):
        blind.to_z(parse("x1", chart.x_frame))


def test_forward_values_numeric(example1_spec, example1_real):
    q = example1_spec.frame.point([0.2, -0.1, 0.4, 0.3],
                                  example1_spec.bound_params(0))
    z = example1_real.chart.forward_values(q)
    assert np.allclose(z, [[0.3, 0.2 ** 2 - 0.1, 0.4, 0.2]])


def test_build_chart_identity_for_chained(chained4_real):
    chart = chained4_real.chart
    for fwd, x in zip(chart.forward, chart.x_frame.states):
        assert is_zero(Sub(fwd, Sym(x)))
    one = Const(Fraction(1))
    assert [normalize(b) for row in chained4_real.feedback.beta
            for b in row] == [one, Const(Fraction(0)),
                              Const(Fraction(0)), one]
