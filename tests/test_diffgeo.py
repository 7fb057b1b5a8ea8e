import copy
from functools import reduce

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from fractions import Fraction

from flatcheck import symx
from flatcheck.symx import (Add, Call, Const, Div, EvalError, Frame, Mul,
                            ONE_E, Points, Sub, Sym, ZERO, is_zero, normalize,
                            parse, pow_expr, to_str)
from flatcheck.diffgeo import (ChartError, OneForm, TwoForm, VectorField,
                               basis_vector, exterior_derivative_fn,
                               exterior_derivative_1form, interior_product,
                               lie_bracket, lie_derivative_fn,
                               lie_derivative_1form, values_in_point_order,
                               wedge)
from flatcheck.harness import _total_derivative

import diffgeo_reference as ref
import systems
from symx_reference import same_tree

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


def test_bracket_is_remembered_by_identity():
    X = VF("x2", "x1*x3", "1")
    Y = VF("x3^2", "x1", "x2")
    first = lie_bracket(X, Y)
    assert lie_bracket(X, Y) is first
    # an equal but distinct Y gets its own, equal bracket, and a
    # different field never gets Y's entry
    twin = VF("x3^2", "x1", "x2")
    assert twin == Y and twin is not Y
    again = lie_bracket(X, twin)
    assert again is not first and again == first
    Z = VF("x1", "0", "x2^2")
    other = lie_bracket(X, Z)
    assert other is not first and other != first
    assert lie_bracket(X, Y) is first and lie_bracket(X, Z) is other
    # the memo is X's: [Y, X] is built on Y
    assert lie_bracket(Y, X) is not first
    # an entry is served only to the very field it was built for, even
    # one filed under another field's id
    X._brackets[id(twin)] = (Y, first)
    assert lie_bracket(X, twin) is not first


def _stored(exprs):
    return [e._pair for e in exprs]


def test_operations_leave_stored_pairs_as_they_were():
    # stored pairs share their dicts, so an operation that mutated the
    # pair of an input would corrupt every normal form sharing it
    X = VectorField(FR3, tuple(normalize(P(c)) for c in
                               ("x2/(x1^2 + 1)", "x1*x3 - 1", "x2^2")))
    Y = VectorField(FR3, tuple(normalize(P(c)) for c in
                               ("x3 - x1", "(x1 + x2)^2", "x1*x2")))
    h = normalize(P("x1*x2^2/(x3^2 + 1) + x3"))
    inputs = [*X.components, *Y.components, h]
    assert all(p is not None for p in _stored(inputs))
    before = copy.deepcopy(_stored(inputs))
    lie_bracket(X, Y)
    lie_bracket(Y, X)
    lie_derivative_fn(X, h)
    lie_derivative_fn(Y, h)
    _total_derivative(h, dict(zip(FR3.states, X.components)))
    assert _stored(inputs) == before
    # again on results, whose pairs may share dicts with the inputs'
    B = lie_bracket(Y, Y.scale(normalize(P("x1 + 1"))))
    L = lie_derivative_fn(Y, h)
    shared = [*B.components, L, *inputs]
    before = copy.deepcopy(_stored(shared))
    lie_bracket(B, Y)
    lie_derivative_fn(B, L)
    _total_derivative(L, dict(zip(FR3.states, B.components)))
    assert _stored(shared) == before


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
    assert ddh.coefficients == {}


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


# --- folds on pairs against the tree reference --------------------------------

def _same(got, want):
    """Structurally equal, printed alike, with the same stored pair."""
    assert same_tree(got, want)
    assert to_str(got) == to_str(want)
    if want._pair is None:
        assert got._pair is None
    else:
        assert got._pair[:2] == want._pair[:2]
        assert set(got._pair[2]) == set(want._pair[2])


def _same_all(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _same(g, w)


def _same_two_forms(got, want):
    assert list(got.coefficients) == list(want.coefficients)
    _same_all(list(got.coefficients.values()),
              list(want.coefficients.values()))


def _check_against_reference(X, Y, h, c):
    """Every operation folded on pairs, against its tree reference."""
    w1 = OneForm(FR3, X.components)
    w2 = OneForm(FR3, Y.components)
    _same_all(lie_bracket(X, Y).components,
              ref.lie_bracket(X, Y).components)
    _same(lie_derivative_fn(X, h), ref.lie_derivative_fn(X, h))
    _same_all(exterior_derivative_fn(h, FR3).coefficients,
              ref.exterior_derivative_fn(h, FR3).coefficients)
    d1 = exterior_derivative_1form(w1)
    _same_two_forms(d1, ref.exterior_derivative_1form(w1))
    _same_two_forms(wedge(w1, w2), ref.wedge(w1, w2))
    _same(interior_product(X, w2), ref.interior_product(X, w2))
    # a raw two-form too: coefficients with no stored pair, and one
    # that is zero without being ZERO
    raw = TwoForm(FR3, {(0, 1): h, (0, 2): Sub(Sym("x1"), Sym("x1")),
                        (1, 2): c})
    for two in (d1, raw):
        _same_all(interior_product(Y, two).coefficients,
                  ref.interior_product(Y, two).coefficients)
        for i in range(3):
            for j in range(3):
                _same(two.coefficient(i, j), ref.coefficient(two, i, j))
    _same_all((X + Y).components, ref.add_fields(X, Y).components)
    _same_all(X.scale(c).components, ref.scale(X, c).components)
    _same_all((w1 + w2).coefficients, ref.add_forms(w1, w2).coefficients)
    for succ in ({"x1": Y.components[0], "x3": c},
                 dict(zip(FR3.states, X.components)), {}):
        _same(_total_derivative(h, succ), ref.total_derivative(h, succ))
    for e in (*X.components, h, lie_derivative_fn(Y, h)):
        assert is_zero(e) == ref.is_zero(e)


_x = [Sym(s) for s in FR3.states]
_coef = st.sampled_from([Fraction(k) for k in (-3, -2, -1, 1, 2, 3)]
                        + [Fraction(1, 2), Fraction(-5, 3)])
_poly_tree = st.lists(
    st.tuples(_coef, st.integers(0, 2), st.integers(0, 1),
              st.integers(0, 1)).map(
        lambda t: Mul(Const(t[0]), reduce(Mul, (
            pow_expr(x, k) for x, k in zip(_x, t[1:]))))),
    min_size=1, max_size=2).map(lambda terms: reduce(Add, terms))
_leaf = st.one_of(st.sampled_from(_x),
                  st.sampled_from([ZERO, ONE_E, Const(Fraction(-2, 3))]))
_rational = st.tuples(_poly_tree, st.sampled_from(
    [P("x1^2 + 1"), P("x2 + 3"), P("2*x1*x3 - 5")])).map(lambda t: Div(*t))
_kernel = st.tuples(st.sampled_from(["sin", "exp"]), _poly_tree,
                    _poly_tree).map(
    lambda t: Add(Mul(Call(t[0], t[1]), t[2]), Sym("x3")))
# each as built, with no stored pair, or as its normal form
_component = st.one_of(_leaf, _poly_tree, _rational, _kernel).flatmap(
    lambda e: st.sampled_from([e, normalize(e)]))
_field = st.tuples(_component, _component, _component).map(
    lambda cs: VectorField(FR3, cs))


@given(_field, _field, _component, _component)
@settings(max_examples=60, deadline=None)
def test_folds_match_tree_reference(X, Y, h, c):
    _check_against_reference(X, Y, h, c)


def test_zero_numerator_over_a_denominator_is_kept():
    # d/dx2 of 1/(x1^2 + 1) is 0 over (x1^2 + 1)^2 unreduced; left out
    # of the sum, the result would have other factors and print
    # differently
    Y = VectorField(FR3, tuple(normalize(P(s)) for s in
                               ("1/(x1^2 + 1)", "x2/(x1^2 + 1)", "x3")))
    h = normalize(P("1/(x1^2 + 1)"))
    for X in (VF("2", "0", "0"), VF("0", "3", "-1"), VF("1", "1", "1")):
        _check_against_reference(X, Y, h, Const(Fraction(5)))
        _check_against_reference(Y, X, h, ZERO)
    # the two zero terms each multiply in (x1^2 + 1)^2; with them left
    # out the denominator would be (x1^2 + 1)^2 alone
    assert to_str(lie_derivative_fn(VF("2", "3", "0"), h)) == (
        "(-4*x1^9 - 16*x1^7 - 24*x1^5 - 16*x1^3 - 4*x1)/(x1^12 + 6*x1^10"
        " + 15*x1^8 + 20*x1^6 + 15*x1^4 + 6*x1^2 + 1)")


def test_fold_atoms_may_exceed_the_walks():
    # x3 drops out of every derivative of h, so a walk of the raw diff
    # trees never meets it; the fold takes h's atoms
    X = VF("x1^2", "0", "0")
    h = normalize(P("x1*x2 + x3"))
    got = lie_derivative_fn(X, h)
    assert set(got._pair[2]) == {"x1", "x2", "x3"}
    tree = ZERO
    for xj, a in zip(FR3.states, X.components):
        tree = Add(tree, Mul(a, symx.diff(h, xj)))
    assert set(normalize(tree)._pair[2]) == {"x1", "x2"}
    _check_against_reference(X, VF("x2", "0", "x1"), h, ONE_E)


def test_components_with_no_stored_pair_match_reference():
    X = VF("x1*x2 + 3", "x2/(x1 + 2)", "x3^2 - x1")
    Y = VF("x2", "(x1 + x3)^2", "1/(x2^2 + 1)")
    assert all(x._pair is None for x in (*X.components, *Y.components))
    _check_against_reference(X, Y, P("x1*x2/(x3^2 + 1)"), P("x2 - 1"))


@pytest.mark.parametrize("normal", [False, True])
def test_kernel_atoms_fall_back_to_the_walk(normal):
    wrap = normalize if normal else (lambda e: e)
    X = VectorField(FR3, tuple(wrap(P(s)) for s in
                               ("sin(x1)*x2", "x3/(x1^2 + 1)", "exp(x2)")))
    Y = VectorField(FR3, tuple(wrap(P(s)) for s in
                               ("x2", "cos(x3) + x1", "x1*x2")))
    h = wrap(P("x2*exp(x3) - sin(x1)/(x2^2 + 1)"))
    _check_against_reference(X, Y, h, wrap(P("sqrt(x1^2 + 1)")))


def test_folds_on_normal_forms_build_no_tree(monkeypatch):
    # the point of the folds: normal forms with no kernel atom enter
    # with their stored pairs and nothing is normalized or
    # differentiated as a tree
    def refuse(*args):
        raise AssertionError("tree built")

    X = VectorField(FR3, tuple(normalize(P(s)) for s in
                               ("x2/(x1^2 + 1)", "x1*x3 - 1", "x2^2")))
    Y = VectorField(FR3, (Sym("x3"), ONE_E, normalize(P("x1*x2 + x3"))))
    h = normalize(P("x1*x2^2/(x3^2 + 1) + x3"))
    q = normalize(P("x1^2/(x2 + 1)"))
    monkeypatch.setattr(symx, "normalize", refuse)
    monkeypatch.setattr(symx, "diff", refuse)
    w = exterior_derivative_fn(h, FR3)
    lie_derivative_1form(X, w + OneForm(FR3, X.components))
    lie_bracket(X, Y)
    lie_derivative_fn(Y, h)
    _total_derivative(h, dict(zip(FR3.states, Y.components)))
    wedge(w, w)
    B = X.scale(h) + lie_bracket(X, Y)
    # the zero test reads a stored pair
    assert all(b._pair is not None for b in B.components)
    assert not B.is_zero()
    # a vanishing derivative folds to ZERO itself, zero over a
    # denominator included
    assert symx.fold([(1, None, q, "x3"), (-1, h, q, "x3")]) is ZERO


def test_values_in_point_order_evaluates_each_object_once(monkeypatch):
    w = OneForm(FR3, (P("1/x1"), P("x2"), ONE_E))
    v = VF("x1", "1/(x2 - 1)", "0")
    pts = Points(FR3, ((1.0, 2.0, 0.0), (2.0, 0.0, 0.0),
                       (0.0, 3.0, 0.0), (1.0, 1.0, 0.0)))
    calls = []
    for cls in (OneForm, VectorField):
        def counting(self, points, real=cls.values):
            calls.append(self)
            return real(self, points)

        monkeypatch.setattr(cls, "values", counting)

    def outcome(vals, first):
        return [a.tolist() for a in vals], first[:2], str(first[2])

    for objs in ([w, v], [v, w, v], [v]):
        # twins of the objects keep nothing yet
        fresh = [VectorField(o.frame, o.components)
                 if isinstance(o, VectorField)
                 else OneForm(o.frame, o.coefficients) for o in objs]
        want = outcome(*values_in_point_order(fresh, pts))
        assert outcome(*values_in_point_order(objs, pts)) == want
    # w fails at x1 = 0 (row 2), v at x2 = 1 (row 3)
    assert want[1] == (3, 0)
    assert outcome(*values_in_point_order([v, w], pts))[1] == (2, 1)
    # the twins evaluated 2 + 3 + 1 objects, the kept objects 2
    assert len(calls) == 6 + 2


def test_cached_values_keep_an_eval_error():
    v = VF("x1", "1/(x2 - 1)", "0")
    pts = Points(FR3, ((1.0, 2.0, 0.0), (2.0, 0.0, 0.0),
                       (1.0, 1.0, 0.0), (3.0, 3.0, 0.0)))
    with pytest.raises(EvalError) as first:
        v.cached_values(pts)
    # a selection of every point: the same error, not evaluated
    with pytest.raises(EvalError) as again:
        v.cached_values(pts[[0, 1, 2, 3]])
    assert again.value is first.value
    assert again.value.row == 2 and str(again.value) == str(first.value)
    assert again.value.done.tolist() == v.values(pts[:2]).tolist()
    assert not again.value.done.flags.writeable


def test_cached_values_are_read_only():
    w = TwoForm(FR3, {(0, 1): P("x1*x3"), (1, 2): P("x2 + 1")})
    pts = Points(FR3, ((1.0, 2.0, 3.0), (2.0, 0.0, 1.0)))
    vals = w.cached_values(pts)
    assert w.cached_values(pts[:]) is vals
    assert vals.tolist() == [[3.0, 3.0], [2.0, 1.0]]
    with pytest.raises(ValueError, match="read-only"):
        vals[0, 0] = 0.0
    # values itself evaluates on every call, into a new writable array
    fresh = w.values(pts)
    assert fresh is not vals and fresh.flags.writeable
    # other points are another entry
    assert w.cached_values(pts[:1]).tolist() == [[3.0, 3.0]]


def test_selecting_every_point_gives_the_same_set():
    v = VF("x1", "x2 + 1", "x3")
    pts = Points(FR3, ((1.0, 2.0, 3.0), (2.0, 0.0, 1.0), (0.5, 0.5, 0.5)))
    vals = v.cached_values(pts)
    for every in (pts[:], pts[0:3], pts[:100], pts[[0, 1, 2]], pts[range(3)]):
        assert every is pts
        # so the kept values are found again
        assert v.cached_values(every) is vals


def test_dropping_a_point_gives_a_new_set():
    v = VF("x1", "x2 + 1", "x3")
    pts = Points(FR3, ((1.0, 2.0, 3.0), (2.0, 0.0, 1.0), (0.5, 0.5, 0.5)),
                 {"a": 2.0})
    vals = v.cached_values(pts)
    for fewer, rows in ((pts[:2], [0, 1]), (pts[1:], [1, 2]),
                        (pts[[0, 2]], [0, 2]), (pts[[2, 1, 0]], [2, 1, 0]),
                        (pts[:0], [])):
        assert fewer is not pts
        assert fewer.coords == tuple(pts.coords[i] for i in rows)
        assert fewer.frame is pts.frame and fewer.params is pts.params
        got = v.cached_values(fewer)
        assert got is not vals and got.tolist() == vals[rows].tolist()


def test_a_point_is_a_one_row_set():
    q = FR3.point([1, 2.5, -3], {"a": 1})
    assert len(q) == 1 and q.coords == ((1.0, 2.5, -3.0),)
    assert all(type(c) is float for c in q.coords[0])
    assert q.env(0) == {"x1": 1.0, "x2": 2.5, "x3": -3.0, "a": 1}
    with pytest.raises(ValueError, match="2 coordinates"):
        Points(FR3, ((1.0, 2.0, 3.0), (1.0, 2.0)))
