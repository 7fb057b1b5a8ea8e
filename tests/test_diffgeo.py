import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from fractions import Fraction

from flatcheck.symx import (Add, Const, Frame, Mul, Sub, is_zero, normalize,
                            parse)
from flatcheck.diffgeo import (ChartError, OneForm, VectorField, basis_vector,
                               exterior_derivative_fn,
                               exterior_derivative_1form, interior_product,
                               lie_bracket, lie_derivative_fn,
                               lie_derivative_1form, wedge)

import systems

FR3 = Frame("x", ("x1", "x2", "x3"), ())


def P(s, fr=FR3):
    return parse(s, fr)


def VF(*comps, fr=FR3):
    return VectorField(fr, tuple(P(c, fr) for c in comps))


def _vf_zero(X):
    return X.is_zero()


def test_coordinate_fields_commute():
    for i in range(3):
        for j in range(3):
            assert _vf_zero(lie_bracket(basis_vector(FR3, i),
                                        basis_vector(FR3, j)))


def test_bracket_antisymmetry():
    X = VF("x2", "x1*x3", "1")
    Y = VF("x3^2", "x1", "x2")
    assert _vf_zero(lie_bracket(X, Y) + lie_bracket(Y, X))


def test_bracket_jacobi_identity():
    X = VF("x2", "x1", "0")
    Y = VF("x3", "0", "x1^2")
    Z = VF("1", "x1*x2", "x3")
    total = (lie_bracket(X, lie_bracket(Y, Z))
             + lie_bracket(Y, lie_bracket(Z, X))
             + lie_bracket(Z, lie_bracket(X, Y)))
    assert _vf_zero(total)


@given(st.lists(st.integers(-3, 3), min_size=6, max_size=6))
@settings(max_examples=30, deadline=None)
def test_bracket_of_constant_fields_vanishes(cs):
    X = VectorField(FR3, tuple(Const(Fraction(c)) for c in cs[:3]))
    Y = VectorField(FR3, tuple(Const(Fraction(c)) for c in cs[3:]))
    assert _vf_zero(lie_bracket(X, Y))


def test_reference_brackets():
    spec = systems.example1()
    fr = spec.frame
    g3 = lie_bracket(spec.g1, spec.g2)
    g4 = lie_bracket(spec.g1, g3)
    for got, want in zip(g3.components, systems.E1_G3):
        assert is_zero(Sub(got, parse(want, fr)))
    for got, want in zip(g4.components, systems.E1_G4):
        assert is_zero(Sub(got, parse(want, fr)))
    assert _vf_zero(lie_bracket(spec.g2, g3))


def test_lie_derivative_fn_leibniz():
    X = VF("x2", "sin(x1)", "x3")
    f, g = P("x1*x3"), P("x2^2 + 1")
    lhs = lie_derivative_fn(X, Mul(f, g))
    rhs = Add(Mul(lie_derivative_fn(X, f), g),
              Mul(f, lie_derivative_fn(X, g)))
    assert is_zero(Sub(lhs, rhs))


def test_exterior_derivative_of_function():
    w = exterior_derivative_fn(P("x1^2*x3"), FR3)
    want = ("2*x1*x3", "0", "x1^2")
    for got, s in zip(w.coefficients, want):
        assert is_zero(Sub(got, P(s)))


def test_d_squared_is_zero():
    dh = exterior_derivative_fn(P("x1*x2^2 + sin(x3)"), FR3)
    ddh = exterior_derivative_1form(dh)
    assert ddh.is_zero()


def test_wedge_antisymmetry():
    a = OneForm(FR3, (P("x2"), P("1"), P("0")))
    b = OneForm(FR3, (P("0"), P("x3"), P("x1")))
    ab, ba = wedge(a, b), wedge(b, a)
    for i in range(3):
        for j in range(i + 1, 3):
            assert is_zero(Add(ab.coefficient(i, j), ba.coefficient(i, j)))


def test_interior_product_of_wedge():
    X = VF("x3", "1", "x1*x2")
    a = OneForm(FR3, (P("x2"), P("0"), P("1")))
    b = OneForm(FR3, (P("0"), P("x1"), P("x3")))
    got = interior_product(X, wedge(a, b))
    # i_X(a ^ b) = <a,X> b - <b,X> a
    ax = normalize(Add(Add(Mul(a.coefficients[0], X.components[0]),
                           Mul(a.coefficients[1], X.components[1])),
                       Mul(a.coefficients[2], X.components[2])))
    bx = normalize(Add(Add(Mul(b.coefficients[0], X.components[0]),
                           Mul(b.coefficients[1], X.components[1])),
                       Mul(b.coefficients[2], X.components[2])))
    for i in range(3):
        want = Sub(Mul(ax, b.coefficients[i]), Mul(bx, a.coefficients[i]))
        assert is_zero(Sub(got.coefficients[i], want))


def test_cartan_formula_for_1forms():
    # two independent code paths: L_X w versus i_X dw + d<w,X>
    X = VF("x2^2", "x1", "x3*x1")
    w = OneForm(FR3, (P("x3"), P("x1*x2"), P("1")))
    lhs = lie_derivative_1form(X, w)
    pairing = P("0")
    for c, v in zip(w.coefficients, X.components):
        pairing = Add(pairing, Mul(c, v))
    rhs = interior_product(X, exterior_derivative_1form(w))
    dpair = exterior_derivative_fn(pairing, FR3)
    for i in range(3):
        want = Add(rhs.coefficients[i], dpair.coefficients[i])
        assert is_zero(Sub(lhs.coefficients[i], want))



def test_lie_derivative_1form_with_given_differential():
    X = VF("x2^2", "x1", "x3*x1")
    w = OneForm(FR3, (P("x3/(1 + x1^2)"), P("x1*x2"), P("1")))
    assert lie_derivative_1form(X, w, exterior_derivative_1form(w)) == \
        lie_derivative_1form(X, w)


def coordinate_differential(frame, i):
    """The coordinate one-form dx_i."""
    return OneForm(frame, tuple(P("1") if j == i else P("0")
                                for j in range(frame.n)))


def test_coordinate_differential_pairs_with_basis():
    w = coordinate_differential(FR3, 1)
    for i in range(3):
        v = interior_product(basis_vector(FR3, i), w)
        assert is_zero(Sub(v, P("1") if i == 1 else P("0")))


def test_mixed_frames_rejected():
    other = Frame("y", ("y1", "y2", "y3"), ())
    X = VF("1", "0", "0")
    Y = VectorField(other, tuple(parse(s, other) for s in ("1", "0", "0")))
    with pytest.raises(ChartError):
        lie_bracket(X, Y)
