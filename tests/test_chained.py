import dataclasses
import pytest
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
import hypothesis.strategies as st

from flatcheck import symx
from flatcheck.symx import (ZERO, Add, Call, Const, Div, Frame, Mul, Sub, Sym,
                            diff, is_zero, normalize, parse, subst, to_str)
from flatcheck.diffgeo import VectorField, basis_vector, lie_bracket
from flatcheck.flags import SystemSpec
from flatcheck.chained import (ChainedError, FeedbackMatrix,
                               _ansatz_gradient, _combine, _identity_rows,
                               _monomials, _replay, build_chart, control_pair,
                               find_output_pair, verify_chained)

import chained_reference
import symx_reference
import systems
from conftest import realize
from symx_reference import equiv


def test_output_pair_chained_is_identity_candidates(chained4_spec):
    pair, chart, fb = find_output_pair(chained4_spec, degree=2)
    fr = chained4_spec.frame
    assert is_zero(Sub(pair.h2, parse("x1", fr)))
    assert is_zero(Sub(pair.h1, parse("x4", fr)))
    # the chart and feedback returned are the ones built from the pair
    built, built_fb = build_chart(pair, chained4_spec)
    assert chart == built and fb == built_fb


def test_output_pair_motor_matches_references(motor_spec):
    pair, _, _ = find_output_pair(motor_spec, degree=2)
    fr = motor_spec.frame
    assert equiv(pair.h1, parse(systems.MOTOR_H1, fr))
    assert equiv(pair.h2, parse(systems.MOTOR_H2, fr))


_coeff = st.recursive(
    st.one_of(st.integers(-2, 2).map(lambda k: Const(Fraction(k))),
              st.sampled_from([Sym("x1"), Sym("x2"), Sym("p"),
                               Call("sin", Sym("x1"))])),
    lambda s: st.tuples(s, s).flatmap(lambda t: st.sampled_from(
        [Add(*t), Sub(*t), Mul(*t),
         Div(t[0], Add(Mul(t[1], t[1]), Const(Fraction(1))))])),
    max_leaves=4)


@given(st.lists(_coeff, min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_identity_rows_match_tree_route(parts):
    # e = A0*c0_ + A1*c1_ + A2*c2_ + B, affine in the unknowns, with a
    # parameter, a sin atom and denominators in the coefficients. The
    # rows [A | -b] built on pairs are, as trees, the tree route's rows
    # with -b appended, and each pair is the one its tree converts in as
    unknowns = ["c0_", "c1_", "c2_"]
    e = parts[3]
    for u, a in zip(unknowns, parts):
        e = Add(e, Mul(a, Sym(u)))
    atoms = {}
    num, _ = symx._canon(*symx._ratform(e, atoms))
    rows = _identity_rows(num, unknowns, ("x1", "x2"))
    got = [[symx._pair_to_expr(*p, atoms) for p in row] for row in rows]
    want = [row + [normalize(Mul(Const(Fraction(-1)), rhs))] for row, rhs
            in symx_reference.identity_rows(e, unknowns, ("x1", "x2"))]
    assert got == want
    for row, trees in zip(rows, got):
        for p, tree in zip(row, trees):
            assert symx._canon(*symx._ratform(tree, {})) == p


def _spec_fields(spec):
    return spec.frame, (spec.g1, spec.g2, lie_bracket(spec.g1, spec.g2))


def _denominator_fields():
    # components sharing a denominator, a parameter and a kernel: the
    # sum must still cross-multiply by every denominator
    fr = Frame("x", ("x1", "x2", "x3"), ("p",))
    fields = [("x1/(1 + x2^2)", "x2/(1 + x2^2)", "p/x3"),
              ("0", "sin(x1)/(1 + x2^2)", "1/(p*x3)")]
    return fr, [VectorField(fr, tuple(parse(c, fr) for c in comps))
                for comps in fields]


@pytest.mark.parametrize("build", [
    lambda: _spec_fields(systems.chained(5)),
    lambda: _spec_fields(systems.motor()),
    lambda: _spec_fields(systems.involutive()), _denominator_fields],
    ids=["chained5", "motor", "involutive", "denominators"])
def test_pairings_match_tree_route(build):
    # <dh, X> for the ansatz h, built on pairs, is the pair of the tree
    # sum ZERO + dh/dx_1*X_1 + ... that normalize would read
    frame, fields = build()
    states = frame.states
    monos = _monomials(states, 2)
    names = [f"c{k}_" for k in range(len(monos))]
    ansatz = ZERO
    for nm, mono in zip(names, monos):
        term = Sym(nm)
        for x, k in mono:
            term = Mul(term, Sym(x) ** k)
        ansatz = Add(ansatz, term)
    grads = _ansatz_gradient(names, monos, states)
    for x, grad in zip(states, grads):
        assert (grad, symx._P_ONE) == symx._canon(
            *symx._ratform(diff(ansatz, x), {}))
    for vf in fields:
        tree = ZERO
        for x, comp in zip(states, vf.components):
            tree = Add(tree, Mul(normalize(diff(ansatz, x)), comp))
        atoms = {}
        got = _combine(grads, [symx._ratform(c, atoms)
                               for c in vf.components])
        assert got == symx._ratform(tree, {})


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
}


@pytest.mark.parametrize("name", OUTPUT_PAIRS)
def test_output_pair_golden(name):
    spec = (systems.motor() if name == "motor"
            else systems.chained(int(name[len("chained"):])))
    pair, _, _ = find_output_pair(spec, degree=2)
    assert (to_str(pair.h1), to_str(pair.h2)) == OUTPUT_PAIRS[name]


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
    _, chart, fb = find_output_pair(motor_spec)
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
