import dataclasses
import functools
import math
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from flatcheck import symx
from flatcheck.cli import main
from flatcheck.chained import _monomials
from flatcheck.diffgeo import (OneForm, VectorField,
                               exterior_derivative_1form, lie_bracket)
from flatcheck.symx import (Add, Call, Const, Div, EvalError, Frame, Mul,
                            ParseError, PivotError, Pow, Sub, Sym, SymxError,
                            ZERO, _canon, _ratform, compile_fn, compile_fns,
                            diff, eval_at, fold, free_symbols, is_zero,
                            linear_decompose, normalize, nullspace_exprs,
                            parse, polynomial_terms, pow_expr, rref_exprs,
                            solve_affine_exprs, subst, to_str)

import symx_reference
import systems
from conftest import SPEC_DIR
from symx_reference import UnsampleableDomainError, equiv

FR = Frame("x", ("x1", "x2", "x3"), ())


def P(s):
    return parse(s, FR)


# --- parsing ----------------------------------------------------------------

def test_parse_precedence_and_unary():
    assert is_zero(Sub(P("2 + 3*4"), P("14")))
    assert is_zero(Sub(P("-x1^2"), P("-(x1^2)")))
    assert is_zero(Sub(P("2^3^2"), P("512")))
    assert is_zero(Sub(P("x1 - x2 - x3"), P("(x1 - x2) - x3")))
    assert is_zero(Sub(P("6/3/2"), P("1")))


def test_parse_fraction_constants_exact():
    e = normalize(P("1/3 + 1/6"))
    assert e == Const(Fraction(1, 2))


@pytest.mark.parametrize("text,offset", [
    ("x1 + ", 5),
    ("x1 $ x2", 3),
    ("(x1", 3),
    ("x1 + )", 5),
    ("x9", 0),
])
def test_parse_error_offsets(text, offset):
    with pytest.raises(ParseError) as ei:
        P(text)
    assert ei.value.offset == offset


def test_frame_rejects_undeclared():
    with pytest.raises(SymxError, match="y1"):
        FR.parse("x1 + y1")


def test_point_env_binds_params():
    fr = Frame("m", ("x1",), ("J",))
    q = fr.point([2.0], {"J": 0.5})
    assert eval_at(parse("J*x1^2", fr), q) == pytest.approx(2.0)


# --- normalize --------------------------------------------------------------

def test_normalize_cancels_constant_ratio():
    assert normalize(P("(2*x1^2 + 2)/(x1^2 + 1)")) == Const(Fraction(2))
    assert normalize(P("(x1^2 + x2)/(x1^2 + x2)")) == Const(Fraction(1))


def test_normalize_monomial_content():
    assert is_zero(Sub(normalize(P("x1^3/x1")), P("x1^2")))


def test_normalize_expands_products():
    assert is_zero(Sub(P("(x1 + x2)^2"), P("x1^2 + 2*x1*x2 + x2^2")))


def test_is_zero_requires_exact():
    assert not is_zero(Sub(P("x1"), P("x1 + 1/1000000")))


def test_kernels_are_opaque_but_keyed_by_argument():
    assert is_zero(Sub(P("sin(x1 + x2)"), P("sin(x2 + x1)")))
    assert not is_zero(Sub(P("sin(x1)"), P("sin(x2)")))


_leaf = st.one_of(
    st.integers(-4, 4).map(lambda k: Const(Fraction(k))),
    st.sampled_from([Sym("x1"), Sym("x2")]),
)


def _combine(children):
    a, b = children
    return st.sampled_from([Add(a, b), Sub(a, b), Mul(a, b),
                            Div(a, Add(Mul(b, b), Const(Fraction(1))))])


_expr = st.recursive(_leaf,
                     lambda s: st.tuples(s, s).flatmap(_combine),
                     max_leaves=12)


@given(_expr)
@settings(max_examples=80, deadline=None)
def test_normalize_idempotent(e):
    n1 = normalize(e)
    assert normalize(n1) == n1


@given(_expr, st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=80, deadline=None)
def test_normalize_preserves_values(e, a, b):
    env = {"x1": a, "x2": b}
    try:
        before = eval_at(e, env)
    except EvalError:
        return
    after = eval_at(normalize(e), env)
    assert after == pytest.approx(before, rel=1e-9, abs=1e-9)


@given(_expr)
@settings(max_examples=80, deadline=None)
def test_to_str_reparses_to_same_function(e):
    back = parse(to_str(e), Frame("x", ("x1", "x2"), ()))
    assert is_zero(Sub(e, back))


@given(_expr)
@settings(max_examples=80, deadline=None)
def test_normalize_matches_reference_product(e):
    assert normalize(e) == symx_reference.normalize(e)


_small = st.recursive(_leaf, lambda s: st.tuples(s, s).flatmap(_combine),
                      max_leaves=3)


@st.composite
def _long_sum(draw):
    """A chain of 20-40 terms: products, quotients, negative powers, sin
    and exp. At most three quotients, so that the product of their
    denominators stays small enough to test quickly."""
    acc, quotients = None, 0
    for _ in range(draw(st.integers(20, 40))):
        a, b = draw(_small), draw(_small)
        kind = draw(st.sampled_from(["poly", "div", "pow", "sin", "exp"]))
        if kind in ("div", "pow"):
            quotients += 1
            if quotients > 3:
                kind = "poly"
        if kind == "poly":
            t = Mul(a, b)
        elif kind == "div":
            t = Div(a, Add(Mul(b, b), Const(Fraction(1))))
        elif kind == "pow":
            t = Pow(Add(Mul(b, b), Const(Fraction(2))), -draw(st.integers(1, 2)))
        elif kind == "sin":
            t = Mul(a, Call("sin", b))
        else:
            t = Call("exp", Add(a, b))
        acc = t if acc is None else draw(st.sampled_from([Add, Sub]))(acc, t)
    return acc


@given(_long_sum())
@settings(max_examples=20, deadline=None)
def test_normalize_of_long_sums_matches_reference_product(e):
    assert symx_reference.same_tree(normalize(e),
                                     symx_reference.normalize(e))


# --- coefficients: ints where integral ----------------------------------------

_mixed_coef = st.one_of(st.integers(-3, 3).filter(bool),
                        st.sampled_from([Fraction(1, 2), Fraction(-1, 2),
                                         Fraction(2, 3), Fraction(3, 2),
                                         Fraction(-5, 4),
                                         Fraction(10) ** 30 / 3]))
_mixed_poly = st.dictionaries(
    st.sampled_from([(), (("x1", 1),), (("x2", 1),), (("x1", 2),),
                     (("x1", 1), ("x2", 1))]), _mixed_coef, max_size=4)
_mixed_pair = st.tuples(_mixed_poly, _mixed_poly.filter(bool))


def _tidy(*polys):
    """Every coefficient an int, or a Fraction whose denominator is
    not 1; never a float."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for p in polys for c in p.values())


@given(_mixed_pair, _mixed_pair)
@settings(max_examples=300, deadline=None)
@example(({(): Fraction(1, 2)}, {(): 1}), ({(): 2}, {(): Fraction(3, 2)}))
@example(({(): Fraction(1, 2)}, {(): 1}), ({(): Fraction(1, 2)}, {(): 1}))
def test_int_coefficients_match_the_fraction_reference(a, b):
    ref = symx_reference
    results = [(symx._p_mul(a[0], b[0]), ref.p_mul(a[0], b[0])),
               (symx._add(a, b), ref.add(a, b)),
               (symx._sub(a, b), ref.sub(a, b)),
               (symx._canon(*a), ref.canon(*a)),
               (symx._canon(*symx._mul(a, b)), ref.canon(*ref.mul(a, b)))]
    if b[0]:
        results.append((symx._div(a, b), ref.div(a, b)))
        results.append((symx._canon(*symx._div(a, b)),
                        ref.canon(*ref.div(a, b))))
    else:
        with pytest.raises(SymxError):
            symx._div(a, b)
    for got, want in results:
        assert got == want
        assert _tidy(*(got if isinstance(got, tuple) else (got,)))


_mono = st.dictionaries(
    st.sampled_from(["cos(x2)", "sin(x1)", "x1", "x10", "x2", "x3"]),
    st.integers(1, 4)).map(lambda d: tuple(sorted(d.items())))


@given(_mono, _mono)
@settings(max_examples=300, deadline=None)
@example((), ())
@example((("x1", 1),), ())
@example((("x1", 1),), (("x1", 2),))
@example((("x1", 1), ("x3", 2)), (("x10", 1), ("x2", 1)))
@example((("sin(x1)", 1), ("x2", 1)), (("x1", 3), ("x2", 1), ("x3", 1)))
def test_mono_mul_merge_is_the_dict_product(m1, m2):
    # shared, disjoint and empty monomials alike
    got = symx._mono_mul(m1, m2)
    assert type(got) is tuple
    assert got == symx_reference.mono_mul(m1, m2)
    assert got == symx._mono_mul(m2, m1)


def test_every_stored_pair_has_int_coefficients(monkeypatch, tmp_path):
    # every pair a tree stores comes from _canon (_from_pair), and the
    # derivative pairs folded into them from _pair_diff; both are looked
    # up in symx when called
    pairs = []
    for name in ("_canon", "_pair_diff"):
        def recording(*args, real=getattr(symx, name)):
            out = real(*args)
            if out is not None:
                pairs.append(out)
            return out

        monkeypatch.setattr(symx, name, recording)
    specs = [SPEC_DIR / f"{s}.spec" for s in ("example1", "motor", "chained4")]
    specs.append(SPEC_DIR.parent / "tests" / "cubic4.spec")
    for spec in specs:
        for command in ("check", "transform"):
            main([command, str(spec), "--json", str(tmp_path / "r.json")])
    assert len(pairs) > 1000
    assert all(_tidy(*pair) for pair in pairs)


# --- differentiation --------------------------------------------------------

def test_diff_product_rule():
    d = diff(P("x1*sin(x1)"), "x1")
    assert is_zero(Sub(d, P("sin(x1) + x1*cos(x1)")))


def test_diff_chain_rule_sqrt():
    d = diff(P("sqrt(1 + x1^2)"), "x1")
    assert equiv(d, P("x1/sqrt(1 + x1^2)"))


def test_diff_quotient_matches_finite_difference():
    e = P("(x1^2 + x2)/(x2^2 + 1)")
    d = diff(e, "x2")
    h = 1e-6
    env = {"x1": 0.7, "x2": -0.3}
    fd = (eval_at(e, {**env, "x2": env["x2"] + h})
          - eval_at(e, {**env, "x2": env["x2"] - h})) / (2 * h)
    assert eval_at(d, env) == pytest.approx(fd, rel=1e-8)


def test_diff_of_exp_kernel():
    assert is_zero(Sub(diff(P("exp(2*x1)"), "x1"), P("2*exp(2*x1)")))


# --- stored pairs ------------------------------------------------------------

_coef = st.sampled_from([Fraction(k) for k in (-3, -2, -1, 1, 2, 3)]
                        + [Fraction(1, 2), Fraction(-5, 3)])
_poly = st.lists(st.tuples(_coef, st.integers(0, 2), st.integers(0, 2),
                           st.integers(0, 1)), min_size=1, max_size=4).map(
    lambda terms: sum((Mul(Const(c), Mul(Pow(Sym("x1"), i),
                                         Mul(Pow(Sym("x2"), j),
                                             Pow(Sym("x3"), k))))
                       for c, i, j, k in terms), ZERO))


def _bare(e):
    """A structurally equal tree with no stored pair: every non-leaf
    node is built anew."""
    bare = subst(e, {})
    assert bare == e and bare._pair is None
    return bare


def _walked(e):
    return _ratform(_bare(e), {})


def _assert_folds_diff(got, h, v):
    # got, the fold of the derivative term de/dv of h, is normalize's
    # tree of diff's, and stores the pair walking diff's tree gives
    raw = diff(_bare(h), v)
    want = normalize(raw)
    assert got == want and to_str(got) == to_str(want)
    if isinstance(got, (Const, Sym)):
        assert got._pair is None
    else:
        assert got._pair[:2] == _canon(*_walked(raw))


def _assert_diff_pairs_exact(h):
    # h is a normal form; so are the folds of its first and second
    # derivatives
    for v in FR.states:
        d = fold([(1, None, h, v)])
        _assert_folds_diff(d, h, v)
        for w in FR.states:
            _assert_folds_diff(fold([(1, None, d, w)]), d, w)


@given(_poly, _poly, st.booleans())
@settings(max_examples=60, deadline=None)
@example(P("x1^2 + x2"), P("3*x2^2 + 2"), False)   # den != 1, not monic
@example(P("x1^2*x3 - x1"), P("1"), False)          # polynomial
def test_diff_pair_is_the_walk_of_its_tree(a, b, polynomial):
    polynomial = polynomial or normalize(b) == ZERO
    h = normalize(a if polynomial else Div(a, b))
    if isinstance(h, (Const, Sym)):
        assert h._pair is None
        return
    assert h._pair[:2] == _walked(h)
    _assert_diff_pairs_exact(h)


@pytest.mark.parametrize("text", ["sin(x1)*x2 + x3/(x1^2 + 1)",
                                  "x2*exp(x3) - x1"])
def test_diff_of_kernel_normal_form_stores_no_pair(text):
    h = normalize(P(text))
    assert h._pair is not None
    for v in FR.states:
        d = diff(h, v)
        assert d._pair is None
        assert to_str(normalize(d)) == to_str(normalize(diff(_bare(h), v)))


def test_ratform_reads_a_stored_pair_without_walking():
    h = normalize(P("(x1 + x2)^2/(x3 + 1)"))
    atoms = {}
    num, den = _ratform(h, atoms)
    assert num is h._pair[0] and den is h._pair[1]
    assert set(atoms) == {"x1", "x2", "x3"}


# --- substitution and evaluation ---------------------------------------------

def test_subst_and_free_symbols():
    e = subst(P("x1 + x2^2"), {"x2": P("x1 + 1")})
    assert is_zero(Sub(e, P("x1 + (x1 + 1)^2")))
    assert free_symbols(e) == {"x1"}


def test_eval_at_division_by_zero():
    with pytest.raises(EvalError):
        eval_at(P("1/x1"), {"x1": 0.0, "x2": 0.0, "x3": 0.0})


def test_compile_fn_vectorizes():
    f = compile_fn(P("x1^2 + x2"), ("x1", "x2"))
    out = f([np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.5])])
    assert np.allclose(out, [1.5, 4.5, 9.5])


def test_compile_fn_binds_consts():
    fr = Frame("m", ("x1",), ("J",))
    f = compile_fn(parse("J*x1", fr), ("x1",), {"J": 3.0})
    assert f([2.0]) == pytest.approx(6.0)


@given(st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=50, deadline=None)
def test_compile_fn_matches_eval_at(a, b):
    e = P("sin(x1)*x2 + exp(x2/4) - x1^3/(x2^2 + 1)")
    f = compile_fn(e, ("x1", "x2"))
    assert f([a, b]) == pytest.approx(eval_at(e, {"x1": a, "x2": b}),
                                      rel=1e-12, abs=1e-12)


def test_compile_fns_matches_compile_fn_per_output():
    exprs = [P("sin(x1)*x2 + exp(x2/4)"), P("x1^3/(x2^2 + 1)"), P("2")]
    order = ("x1", "x2")
    f = compile_fns(exprs, order)
    cols = [np.linspace(-2.0, 2.0, 7), np.linspace(0.5, 1.5, 7)]
    for got, e in zip(f(cols), exprs):
        assert np.array_equal(got, compile_fn(e, order)(cols))
    point = (0.3, -1.7)
    vals = f(point)
    assert vals == tuple(compile_fn(e, order)(point) for e in exprs)
    # numpy's kernels, handed back as plain floats for plain floats
    assert type(vals[0]) is float and vals[0] == float(
        np.sin(np.float64(0.3)) * -1.7 + np.exp(np.float64(-1.7 / 4)))


def test_compile_fns_lets_bind_in_order():
    lets = [("w", P("x1*x2")), ("w2", Sym("w") * Sym("w") + P("x3"))]
    f = compile_fns([Sym("w2") - Sym("w"), Sym("w")], ("x1", "x2", "x3"),
                    lets=lets)
    assert f((2.0, 3.0, 1.0)) == (31.0, 6.0)
    with pytest.raises(ValueError, match="already bound"):
        compile_fns([P("x1")], ("x1",), lets=[("x1", P("2"))])
    with pytest.raises(EvalError, match="unbound symbol 'w'"):
        compile_fns([Sym("w")], ("x1",), lets=[("v", Sym("w"))])


def test_compile_fn_parenthesizes_negative_consts():
    # -0.5 ** 2 would parse as -(0.5 ** 2)
    f = compile_fn(Pow(Sym("a"), 2), ("x1",), {"a": -0.5})
    assert f([1.0]) == 0.25


# --- the evaluation contract -------------------------------------------------

_num = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3),
                     Fraction(-7, 2), Fraction(10) ** 30]),
    st.integers(-5, 5).map(Fraction))


def _rational(kernels):
    leaf = st.one_of(_num.map(Const), st.sampled_from([Sym("x1"), Sym("x2")]))

    def grow(s):
        return st.one_of(
            st.tuples(st.sampled_from([Add, Sub, Mul, Div]), s, s).map(
                lambda t: t[0](t[1], t[2])),
            st.tuples(s, st.integers(-3, 4)).map(lambda t: Pow(*t)),
            *([st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt"]),
                         s).map(lambda t: Call(*t))] if kernels else []))

    return st.recursive(leaf, grow, max_leaves=10)


_value = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(-3, 3),
                   st.sampled_from([0.0, -0.0, 1e200, -1e-200, 710.0]))


@given(_rational(kernels=True))
@settings(max_examples=200, deadline=None)
def test_ratform_of_normal_form_is_the_canonical_pair(e):
    # the pair invariant the exact elimination rests on
    try:
        want = _canon(*_ratform(e, {}))
    except SymxError:
        return
    assert _ratform(normalize(e), {}) == want


@given(_rational(kernels=True), st.booleans(),
       st.sampled_from(["x1", "x2", "x3"]))
@settings(max_examples=150, deadline=None)
@example(P("x1"), False, "x1")
@example(P("2/3"), False, "x1")
@example(P("1/(x1^2 + 1)"), True, "x2")
@example(P("sin(x1)*x2"), True, "x1")
def test_dpair_is_the_walk_of_diffs_tree(e, normal, v):
    # with or without a stored pair, a kernel atom or none, and on
    # the leaves it answers directly
    try:
        e = normalize(e) if normal else e
        want_atoms = {}
        want = _ratform(diff(e, v), want_atoms)
    except SymxError:
        return
    atoms = {}
    assert symx._dpair(e, v, atoms) == want
    # the walk's atoms, or all of e's stored atoms where its pair gives
    # the derivative's; either names every atom of the pair
    assert set(atoms) == set(symx_reference.fold_atoms([(1, None, e, v)]))
    used = {a for poly in want for mono in poly for a, _ in mono}
    assert set(want_atoms) >= used and set(atoms) >= set(want_atoms)


# operands of a fold: built trees with rational and kernel atoms, and
# parsed ones; each as it is or as its normal form
_operand = st.tuples(st.one_of(
    _rational(kernels=True),
    st.sampled_from([P("sin(x1)*x2 + x3/(x1^2 + 1)"), P("x2*exp(x3) - x1"),
                     P("(x1 + x2)^2/(3*x3^2 + 2)"), P("x1*x2^2 - 1/2")])),
    st.booleans())
_fold_term = st.tuples(st.sampled_from([1, -1]), st.none() | _operand,
                       _operand, st.none() | st.sampled_from(FR.states))


@given(st.lists(_fold_term, max_size=4))
@settings(max_examples=200, deadline=None)
@example([(1, (P("1/(x1^2 + 1)"), True), (P("x1/(x2 + 1)"), True), "x3")])
@example([(-1, None, (P("sin(x1)*x2"), True), "x1"),
          (1, (P("x3"), False), (P("1/(x2 + 1)"), True), None)])
def test_fold_is_normalize_of_the_tree_its_terms_spell(drawn):
    try:
        terms = [(sign, None if a is None else normalize(a[0]) if a[1]
                  else a[0], normalize(e[0]) if e[1] else e[0], v)
                 for sign, a, e, v in drawn]
    except SymxError:
        return
    tree = ZERO
    for sign, a, e, v in terms:
        t = e if v is None else diff(e, v)
        t = t if a is None else Mul(a, t)
        tree = Add(tree, t) if sign > 0 else Sub(tree, t)
    try:
        want = normalize(tree)
    except SymxError:
        with pytest.raises(SymxError):
            fold(terms)
        return
    got = fold(terms)
    assert symx_reference.same_tree(got, want)
    assert to_str(got) == to_str(want)
    if isinstance(got, (Const, Sym, Call)):
        assert got._pair is None
    else:
        # the pair of the tree walked with no stored pair inside
        assert got._pair[:2] == _canon(*_walked(tree))
        # a fresh atoms dict naming exactly the operands' atoms, which
        # name every atom of the pair
        assert set(got._pair[2]) == set(symx_reference.fold_atoms(terms))
        used = {a for poly in got._pair[:2] for mono in poly for a, _ in mono}
        assert used <= set(got._pair[2])
        assert got._pair[0]  # a stored pair is never zero
        assert all(got._pair[2] is not x._pair[2]
                   for _, a, e, _ in terms for x in (a, e)
                   if x is not None and x._pair is not None)


# the operand kinds the zero-term skip of fold tells apart: constants
# and symbols, stored pairs with a unit denominator (the last has x2
# among its atoms but not in its pair), with a non-unit one, and with
# kernel atoms, and a raw tree
_SKIP_OPERANDS = [
    ZERO, P("3/2"), P("x1"), P("x3"),
    normalize(P("x1*x2 - x3^2")), normalize(P("2*x1^2")),
    fold([(1, None, normalize(P("x1*x2 + x1*x3 + x3")), "x3")]),
    normalize(P("x1/(x2^2 + 1)")), normalize(P("(x1 + 1)/(3*x3)")),
    normalize(P("sin(x1)*x2 + x3")), normalize(P("exp(x2) - x1")),
    P("x1*x3 - x3*x1")]
# coefficients: none, zeros over the unit and over a non-unit, nonzero
_SKIP_COEFS = [None, ZERO, P("x2 - x2"), P("0/(x1 + 2)"), P("2"),
               normalize(P("x2^2 + x1")), normalize(P("1/(x3^2 + 1)"))]
_skip_term = st.tuples(st.sampled_from([1, -1]),
                       st.sampled_from(_SKIP_COEFS),
                       st.sampled_from(_SKIP_OPERANDS),
                       st.sampled_from([None, "x1", "x2", "x3"]))


@given(st.lists(_skip_term, min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
@example([(1, ZERO, normalize(P("x1/(x2^2 + 1)")), "x3")])
@example([(-1, P("0/(x1 + 2)"), P("x1"), "x1"),
          (1, None, normalize(P("sin(x1)*x2 + x3")), "x2")])
@example([(1, None, normalize(P("2*x1^2")), "x1"),
          (-1, ZERO, normalize(P("x1*x2 - x3^2")), "x2")])
def test_fold_skips_zero_terms_exactly(terms):
    # terms whose pair is ({}, 1) are left out before they are formed;
    # the fold is still the reference's, tree, pair and atoms alike
    want_tree, want_pair, want_atoms = symx_reference.fold(terms)
    got = fold(terms)
    assert symx_reference.same_tree(got, want_tree)
    assert to_str(got) == to_str(want_tree)
    if isinstance(got, (Const, Sym, Call)):
        assert got._pair is None
    else:
        assert got._pair[:2] == want_pair
        assert set(got._pair[2]) == set(want_atoms)


def test_fold_computes_no_derivative_it_skips(monkeypatch):
    calls = []
    real = symx._dpair

    def counting(e, v, atoms):
        calls.append((e, v))
        return real(e, v, atoms)

    monkeypatch.setattr(symx, "_dpair", counting)
    unit = normalize(P("x1*x2 - x3^2"))
    rational = normalize(P("x1/(x2^2 + 1)"))
    kernel = normalize(P("sin(x1)*x2 + x3"))
    # a zero coefficient, or a zero derivative, over unit denominators
    for term in [(1, ZERO, unit, "x1"), (1, ZERO, P("x1"), "x1"),
                 (-1, P("x2 - x2"), P("5"), "x2"), (1, None, unit, "y"),
                 (1, P("x3"), P("x1"), "x2"), (1, None, P("7"), "x1")]:
        assert fold([term]) is ZERO
    assert calls == []
    # a zero over a non-unit denominator is still formed: it multiplies
    # the sum's denominator
    assert fold([(1, None, rational, "x3")]) is ZERO
    assert calls == [(rational, "x3")]
    # so are a zero coefficient over a non-unit denominator, and the
    # derivatives of trees with a kernel atom
    fold([(1, P("0/(x1 + 2)"), unit, "x1"), (1, ZERO, kernel, "x1")])
    assert calls[1:] == [(unit, "x1"), (kernel, "x1")]


def test_is_zero_reads_a_stored_pair(monkeypatch):
    # a normal-form zero, a derivative fold's included, is the ZERO
    # constant, so every stored pair is nonzero
    zero = fold([(1, None, normalize(P("x1^2/(x2 + 1)")), "x3")])
    one = normalize(P("x1/(x2 + 1)"))
    assert zero is ZERO and is_zero(zero)
    assert one._pair[0]

    def refuse(e):
        raise AssertionError("normalized")

    monkeypatch.setattr(symx, "normalize", refuse)
    assert not is_zero(one)


def _same_or_both_fail(e, env, fns):
    try:
        want = symx_reference.eval_at(e, env, fns)
    except EvalError:
        with pytest.raises(EvalError):
            eval_at(e, env)
        return
    assert eval_at(e, env).hex() == want.hex()


@given(_rational(kernels=False), _value, _value)
@settings(max_examples=300, deadline=None)
def test_eval_at_matches_tree_walker_bit_for_bit(e, a, b):
    _same_or_both_fail(e, {"x1": a, "x2": b}, symx_reference.MATH_FNS)


@given(_rational(kernels=True), _value, _value)
@settings(max_examples=300, deadline=None)
def test_eval_at_kernels_are_numpys(e, a, b):
    _same_or_both_fail(e, {"x1": a, "x2": b}, symx_reference.NUMPY_FNS)


@pytest.mark.parametrize("text, x1", [("1/x1", 0.0), ("x1^-2", 0.0),
                                      ("sqrt(x1)", -1.0),
                                      ("exp(x1)", 1000.0),
                                      ("x1^2", 1e200)])
def test_eval_errors_raise_eval_error_silently(text, x1):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalError):
            eval_at(P(text), {"x1": x1})
        with pytest.raises(EvalError) as info:
            _X1.evaluator([P("x1"), P(text)])([[0.5], [x1]], {})
        assert info.value.row == 1
        assert info.value.done.tolist() == [[0.5, eval_at(P(text),
                                                          {"x1": 0.5})]]


def _point_by_point(exprs, order, rows, consts=None):
    """Per row, its values or the EvalError message, evaluated alone."""
    out = []
    for row in rows:
        try:
            out.append(symx_reference.evaluate_point(exprs, order, row,
                                                     consts))
        except EvalError as exc:
            out.append(str(exc))
    return out


def _hexes(rows):
    return [[float(x).hex() for x in row] for row in rows]


def _assert_batch_contract(evaluate, rows, want, width):
    """evaluate(rows) against the per-row results want: equal values
    bit for bit, or the first failing row with its message and the
    rows before it; resuming after each failure gives every other
    row's values."""
    failing = [i for i, w in enumerate(want) if isinstance(w, str)]
    if failing:
        first = failing[0]
        with pytest.raises(EvalError) as info:
            evaluate(rows)
        assert info.value.row == first
        assert str(info.value) == want[first]
        assert info.value.done.shape == (first, width)
        assert _hexes(info.value.done) == _hexes(want[:first])
    else:
        got = evaluate(rows)
        assert got.shape == (len(rows), width)
        assert _hexes(got) == _hexes(want)
    kept, vals = symx.evaluable_rows(evaluate, rows)
    assert kept == [i for i in range(len(rows)) if i not in failing]
    assert vals.shape == (len(kept), width)
    assert _hexes(vals) == _hexes([want[i] for i in kept])


_PFR = Frame("x", ("x1", "x2"), ("a",))
# a as a state: its value in each row
_AFR = Frame("x", ("x1", "x2", "a"))
_X1 = Frame("x", ("x1",))


def _unbound(fn):
    """A Frame.evaluator function as a function of its rows alone."""
    return lambda rows: fn(rows, {})

_batch_tree = st.recursive(
    st.one_of(_num.map(Const), st.sampled_from([Sym("x1"), Sym("x2"),
                                                Sym("a")])),
    lambda s: st.one_of(
        st.tuples(st.sampled_from([Add, Sub, Mul, Div]), s, s).map(
            lambda t: t[0](t[1], t[2])),
        st.tuples(s, st.integers(-3, 4)).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt"]), s).map(
            lambda t: Call(*t))),
    max_leaves=10)


@given(st.lists(_batch_tree, min_size=1, max_size=3),
       st.sampled_from([0, 1, 2, 7]).flatmap(lambda k: st.lists(
           st.tuples(_value, _value), min_size=k, max_size=k)),
       _value)
@settings(max_examples=300, deadline=None)
def test_batch_matches_point_by_point(exprs, coords, a):
    # Frame.evaluator with the parameter as a state, its value in each
    # row, and with it bound once for the batch
    order = ("x1", "x2", "a")
    rows = [(x1, x2, a) for x1, x2 in coords]
    want = _point_by_point(exprs, order, rows)
    _assert_batch_contract(_unbound(_AFR.evaluator(exprs)), rows, want,
                           len(exprs))
    fn = _PFR.evaluator(exprs)
    _assert_batch_contract(lambda c: fn(c, {"a": a}), coords, want,
                           len(exprs))
    _assert_batch_contract(lambda c: fn(np.array(c).reshape(-1, 2),
                                        {"a": a}), coords, want, len(exprs))


@pytest.mark.parametrize("text, bad, message", [
    ("1/x1", 0.0, "float division by zero"),
    ("x1^4", 1e100, "(34, 'Numerical result out of range')"),
    ("sqrt(x1)", -1.0, "invalid value encountered in sqrt"),
    ("x1*x1", 1e200, "non-finite value"),
])
def test_batch_failure_kinds(text, bad, message):
    # the failing row sits between good rows; the rows after it come
    # out the same when a caller resumes
    fn = _unbound(_X1.evaluator([P("x1 + 1"), P(text)]))
    rows = [[0.5], [2.0], [bad], [3.0], [bad], [0.25]]
    want = _point_by_point([P("x1 + 1"), P(text)], ("x1",), rows)
    assert want[2] == want[4] == message
    _assert_batch_contract(fn, rows, want, 2)
    assert symx.evaluable_rows(fn, rows)[0] == [0, 1, 3, 5]


def test_batch_non_finite_row_before_a_raising_row_comes_first():
    # row 1 gives inf without raising; row 2 raises; row 1 fails first
    exprs = [P("x1*x1"), P("1/x1")]
    rows = [[1.0], [1e200], [0.0], [2.0]]
    want = _point_by_point(exprs, ("x1",), rows)
    assert want[1:3] == ["non-finite value", "float division by zero"]
    _assert_batch_contract(_unbound(_X1.evaluator(exprs)), rows, want, 2)


def test_batch_of_no_rows_and_of_no_expressions():
    assert _X1.evaluator([P("1/x1")])([], {}).shape == (0, 1)
    assert _X1.evaluator([])([[1.0], [2.0]], {}).shape == (2, 0)
    fn = _PFR.evaluator([parse("a*x1", _PFR)])
    assert fn([], {}).shape == (0, 1)  # nothing to bind for no rows
    with pytest.raises(EvalError, match="unbound symbol 'a'") as info:
        fn([(1.0, 2.0)], {})
    assert info.value.row == 0


def test_eval_at_deep_sum_matches_tree_walker():
    # 300 nested sums: deeper than CPython's 200 nested parentheses
    e = Sym("x1")
    for k in range(300):
        e = Add(e, Mul(Const(Fraction(1, k + 2)), Sym("x2")))
    env = {"x1": 0.1, "x2": -0.7}
    assert eval_at(e, env) == symx_reference.eval_at(e, env)
    assert compile_fn(e, ("x1", "x2"))([0.1, -0.7]) == eval_at(e, env)


# --- equivalence ------------------------------------------------------------

def test_equiv_exact_for_rational_pairs():
    assert equiv(P("x1^2 - x2^2"), P("(x1 - x2)*(x1 + x2)"))
    # exact route: a 1e-12 offset is NOT equivalent, no tolerance window
    assert not equiv(P("x1"), P("x1 + 1/1000000000000"))


def test_equiv_samples_kernel_pairs():
    assert equiv(P("sin(2*x1)"), P("2*sin(x1)*cos(x1)"), trials=100)
    assert not equiv(P("sin(x1)"), P("cos(x1)"))


def test_equiv_unsampleable_domain():
    with pytest.raises(UnsampleableDomainError):
        equiv(P("sqrt(x1 - 10)"), P("sqrt(x1 - 10) + 1"), trials=10)


# --- linear algebra over expressions -----------------------------------------

def test_rref_detects_symbolic_rank_drop():
    rows, pivots = rref_exprs([[P("1"), P("x1")],
                               [P("x1"), P("x1^2")]],
                              ref_env={"x1": 0.7})
    assert pivots == [0]
    assert all(is_zero(e) for e in rows[1])


def test_nullspace_annihilates():
    mat = [[P("1"), P("x1"), P("0")],
           [P("0"), P("x2^2 + 1"), P("1")]]
    basis = nullspace_exprs(mat, ref_env={"x1": 0.3, "x2": 0.5})
    assert len(basis) == 1
    v = basis[0]
    for row in mat:
        acc = ZERO
        for a, b in zip(row, v):
            acc = Add(acc, Mul(a, b))
        assert is_zero(acc)


def test_solve_affine_substitutes_back():
    mat = [[P("2"), P("0")], [P("0"), P("x2^2 + 1")]]
    rhs = [P("x1"), P("1")]
    part, null = solve_affine_exprs(mat, rhs, ref_env={"x1": 1.0, "x2": 0.0})
    assert null == []
    for row, b in zip(mat, rhs):
        acc = ZERO
        for a, w in zip(row, part):
            acc = Add(acc, Mul(a, w))
        assert is_zero(Sub(acc, b))


def test_solve_affine_inconsistent_returns_none():
    mat = [[P("1"), P("0")], [P("1"), P("0")]]
    rhs = [P("1"), P("2")]
    assert solve_affine_exprs(mat, rhs, ref_env={"x1": 0.0, "x2": 0.0}) is None


def test_pivot_error_when_reference_degenerate():
    with pytest.raises(PivotError):
        rref_exprs([[P("x1")]], ref_env={"x1": 0.0})


def test_pivot_skips_entry_failing_at_reference():
    # 1/x1 cannot be evaluated at x1 = 0, so the x2 row is the pivot
    rows, pivots = rref_exprs([[P("1/x1")], [P("x2")]],
                              ref_env={"x1": 0.0, "x2": 2.0})
    assert pivots == [0] and rows[0][0] == P("x2")


def test_pivot_on_constant_column_compiles_nothing(monkeypatch):
    def no_compiling(*args, **kwargs):
        raise AssertionError("a constant column was compiled")

    matrix = [[P("1"), P("2")], [P("-3"), P("1/2")]]
    want = symx_reference.rref_exprs(matrix, {"x1": 0.5})
    monkeypatch.setattr(symx, "_generate", no_compiling)
    assert rref_exprs(matrix, {"x1": 0.5}) == want
    # -3 has the larger magnitude, so its row was the first pivot row
    # (picking the 1 would have left 13/2 here)
    assert want[0][0][0] == Const(Fraction(39, 2))


def test_pivot_on_oversized_constant_overflows():
    with pytest.raises(OverflowError):
        rref_exprs([[Const(Fraction(10) ** 400)]], ref_env={"x1": 0.0})


# --- elimination on pairs against the tree route -------------------------------

_la_leaf = st.one_of(
    st.integers(-2, 2).map(lambda k: Const(Fraction(k))),
    st.sampled_from([Sym("x1"), Sym("x2"), Sym("p"), Call("sin", Sym("x1"))]))


def _la_combine(children):
    a, b = children
    return st.sampled_from([Add(a, b), Sub(a, b), Mul(a, b),
                            Div(a, Add(Mul(b, b), Const(Fraction(1)))),
                            Div(a, Sym("x1"))])


_la_entry = st.recursive(_la_leaf,
                         lambda s: st.tuples(s, s).flatmap(_la_combine),
                         max_leaves=3)


@st.composite
def _la_system(draw):
    """A 1-2 by 1-3 system (A, b); sometimes with one more row, k times
    the first, so that A is rank-deficient, and its b entry either k
    times the first (consistent) or that plus 1 (inconsistent)."""
    nrows, ncols = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    matrix = [[draw(_la_entry) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [draw(_la_entry) for _ in range(nrows)]
    if draw(st.booleans()):
        k = draw(_la_entry)
        matrix.append([Mul(k, x) for x in matrix[0]])
        rhs.append(draw(st.sampled_from(
            [Mul(k, rhs[0]), Add(Mul(k, rhs[0]), Const(Fraction(1)))])))
    return matrix, rhs


# None picks the first nonzero candidate; zeros make pivots vanish and
# x1 = 0 makes the 1/x1 entries fail at the reference point
_la_env = st.one_of(
    st.none(),
    st.fixed_dictionaries({"x1": st.sampled_from([0.0, 0.5, -1.25]),
                           "x2": st.sampled_from([0.0, 2.0]),
                           "p": st.sampled_from([0.0, 1.5])}))

_SIN_P = [[Call("sin", Sym("x1")), Sym("p")],
          [Mul(Const(Fraction(2)), Call("sin", Sym("x1"))),
           Mul(Const(Fraction(2)), Sym("p"))]]
_LA_ENV = {"x1": 0.5, "x2": 2.0, "p": 1.5}


def _same_outcome(lib, ref):
    try:
        want = ref()
    except PivotError:
        with pytest.raises(PivotError):
            lib()
        return
    assert lib() == want


@given(_la_system(), _la_env)
@example((_SIN_P, [Sym("x2"), Const(Fraction(1))]), _LA_ENV)
@example(([[Sym("x1")]], [Sym("x2")]), {"x1": 0.0, "x2": 0.0, "p": 0.0})
@settings(max_examples=150, deadline=None)
def test_rref_matches_tree_route(system, env):
    matrix, _ = system
    _same_outcome(lambda: rref_exprs(matrix, env),
                  lambda: symx_reference.rref_exprs(matrix, env))


@given(_la_system(), _la_env)
@example((_SIN_P, [Sym("x2"), Const(Fraction(1))]), _LA_ENV)
@settings(max_examples=150, deadline=None)
def test_nullspace_matches_tree_route(system, env):
    matrix, _ = system
    _same_outcome(lambda: nullspace_exprs(matrix, env),
                  lambda: symx_reference.nullspace_exprs(matrix, env))


@given(_la_system(), _la_env)
@example((_SIN_P, [Sym("x2"), Mul(Const(Fraction(2)), Sym("x2"))]), _LA_ENV)
@example((_SIN_P, [Sym("x2"), Const(Fraction(1))]), _LA_ENV)
@settings(max_examples=150, deadline=None)
def test_solve_affine_matches_tree_route(system, env):
    matrix, rhs = system
    _same_outcome(lambda: solve_affine_exprs(matrix, rhs, env),
                  lambda: symx_reference.solve_affine_exprs(matrix, rhs, env))


def test_linear_decompose():
    fr = Frame("w", ("x1", "u1", "u2"), ())
    e = parse("(x1^2 + 1)*u1 - 3*u2 + sin(x1)", fr)
    coeffs, rest = linear_decompose(e, ("u1", "u2"))
    assert is_zero(Sub(coeffs["u1"], parse("x1^2 + 1", fr)))
    assert is_zero(Sub(coeffs["u2"], parse("-3", fr)))
    assert is_zero(Sub(rest, parse("sin(x1)", fr)))
    with pytest.raises(SymxError):
        linear_decompose(parse("u1^2", fr), ("u1",))


def test_linear_decompose_kernel_over_a_polynomial():
    # the kernel's argument has a non-monomial denominator, which must
    # not come back as a factor over both the coefficient and the rest
    fr = Frame("w", ("x1", "x2", "c0_"), ())
    e = parse("sin(x1/(x2 + 1))*c0_ + x1", fr)
    coeffs, rest = linear_decompose(e, ["c0_"])
    assert to_str(coeffs["c0_"]) == "sin(x1/(x2 + 1))"
    assert to_str(rest) == "x1"


@pytest.mark.parametrize("text", [
    "x1/u1 + u2", "(x1 + 1)/(u1 + 1)", "u1*u2 + x1", "x1*u1^3",
    "sin(u1) + x1*u2", "u1*exp(x1 + u2)"])
def test_linear_decompose_rejects_non_affine(text):
    fr = Frame("w", ("x1", "u1", "u2"), ())
    with pytest.raises(SymxError, match="not affine"):
        linear_decompose(parse(text, fr), ("u1", "u2"))


def test_linear_decompose_ignores_cancelled_kernels():
    fr = Frame("w", ("x1", "u1"), ())
    coeffs, rest = linear_decompose(parse("sin(u1) - sin(u1) + x1*u1", fr),
                                    ("u1",))
    assert coeffs == {"u1": parse("x1", fr)}
    assert rest == ZERO


def test_polynomial_terms_groups_by_monomial():
    terms = polynomial_terms(P("3*x1^2*x2 + x1*x3 + 5"), ("x1",))
    keys = set(terms)
    assert (("x1", 2),) in keys and (("x1", 1),) in keys and () in keys
    assert is_zero(Sub(terms[(("x1", 2),)], P("3*x2")))
    assert is_zero(Sub(terms[()], P("5")))


# --- the ansatz on pairs against the tree route --------------------------------

_ansatz_coeff = st.recursive(
    st.one_of(st.integers(-2, 2).map(lambda k: Const(Fraction(k))),
              st.sampled_from([Sym("x1"), Sym("x2"), Sym("p"),
                               Call("sin", Sym("x1"))])),
    lambda s: st.tuples(s, s).flatmap(lambda t: st.sampled_from(
        [Add(*t), Sub(*t), Mul(*t),
         Div(t[0], Add(Mul(t[1], t[1]), Const(Fraction(1))))])),
    max_leaves=4)


def _ansatz_tree(ansatz, monos):
    """The tree ZERO + c_0*m_0 + c_1*m_1 + ... of the ansatz."""
    h = ZERO
    for c, mono in zip(ansatz._unknowns, monos):
        term = Sym(c)
        for x, k in mono:
            term = Mul(term, Sym(x) ** k)
        h = Add(h, term)
    return h


def _pairing_tree(h, states, components):
    """The tree ZERO + dh/dx_1*X_1 + ... of <dh, X>."""
    tree = ZERO
    for x, comp in zip(states, components):
        tree = Add(tree, Mul(normalize(diff(h, x)), comp))
    return tree


def _rows_match_tree_route(ansatz, rows, e, states):
    # the rows [A | -b] built on pairs are, as trees, the tree route's
    # rows of e with -b appended, and each pair is the one its tree
    # converts in as
    got = [[symx._pair_to_expr(*p, ansatz._atoms) for p in row]
           for row in rows]
    want = [row + [normalize(Mul(Const(Fraction(-1)), rhs))] for row, rhs
            in symx_reference.identity_rows(e, ansatz._unknowns, states)]
    assert got == want
    for row, trees in zip(rows, got):
        for p, tree in zip(row, trees):
            assert symx._canon(*symx._ratform(tree, {})) == p


@given(st.lists(_ansatz_coeff, min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_ansatz_rows_match_tree_route(parts):
    # <dh, X> = value for h = c0*x1 + c1*x2 + c2*x3, X = parts[:3] and
    # value = parts[3]: affine in the unknowns, with a parameter, a sin
    # atom and denominators in the coefficients
    states = ("x1", "x2", "x3")
    monos = [((x, 1),) for x in states]
    ansatz = symx.Ansatz(monos, states)
    e = Sub(_pairing_tree(_ansatz_tree(ansatz, monos), states, parts[:3]),
            parts[3])
    _rows_match_tree_route(ansatz, ansatz.rows(parts[:3], parts[3]), e,
                           states)


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
def test_ansatz_pairings_match_tree_route(build):
    # the gradient of the ansatz h and <dh, X>, built on pairs, are the
    # pairs of the trees diff(h, x) and ZERO + dh/dx_1*X_1 + ... that
    # normalize would read, and the rows of <dh, X> = 0 and of
    # <dh, X> = 1 are the tree route's
    frame, fields = build()
    states = frame.states
    monos = _monomials(states, 2)
    ansatz = symx.Ansatz(monos, states)
    h = _ansatz_tree(ansatz, monos)
    for x, grad in zip(states, ansatz._grads):
        assert (grad, symx._P_ONE) == symx._canon(
            *symx._ratform(diff(h, x), {}))
    for vf in fields:
        tree = _pairing_tree(h, states, vf.components)
        got = ansatz._sum(ansatz._grads, [symx._ratform(c, {})
                                          for c in vf.components])
        assert got == symx._ratform(tree, {})
        for value in (0, 1):
            _rows_match_tree_route(ansatz, ansatz.rows(vf.components, value),
                                   Sub(tree, Const(Fraction(value))), states)


def test_ansatz_expr_is_normalize_of_the_sum():
    # h for one coefficient vector, and for the entrywise sum of two, is
    # normalize of the tree ZERO + a_0*m_0 + ..., each a_k the sum's tree
    spec = systems.motor()
    states = spec.frame.states
    monos = _monomials(states, 2)
    ansatz = symx.Ansatz(monos, states)
    delta_rows = ansatz.rows(spec.g2.components)
    part, _ = ansatz.solve(delta_rows + ansatz.rows(spec.g1.components, 1),
                           None)
    _, null = ansatz.solve(delta_rows, None)
    assert len(null) == 3
    for vectors in ((part,), (null[2],), (null[0], null[2]), (part, null[1])):
        coeffs = [normalize(functools.reduce(
            Add, [symx._pair_to_expr(*v[k], ansatz._atoms) for v in vectors]))
            for k in range(len(monos))]
        tree = ZERO
        for a, mono in zip(coeffs, monos):
            tree = Add(tree, Mul(a, symx._poly_to_expr({mono: 1}, {
                x: Sym(x) for x in states})))
        assert ansatz.expr(*vectors) == normalize(tree)


# --- every normal form symx returns carries its pair ---------------------------

def _carries_its_pair(e):
    """e carries the pair a walk of its tree gives: none for an atom or
    a constant, else a stored pair equal to _canon of the walk of a
    pair-less copy, with atoms naming every atom it uses."""
    if isinstance(e, (Const, Sym, Call)):
        assert e._pair is None
        return
    assert e._pair is not None
    num, den, atoms = e._pair
    copy = subst(e, {})  # the same tree, built anew with no pair
    assert copy._pair is None
    assert (num, den) == _canon(*_ratform(copy, {}))
    assert {a for p in (num, den) for m in p for a, _ in m} <= set(atoms)


@given(_la_system(), _la_env)
@example((_SIN_P, [Sym("x2"), Const(Fraction(1))]), _LA_ENV)
@settings(max_examples=100, deadline=None)
def test_linear_algebra_results_carry_their_pairs(system, env):
    matrix, rhs = system

    def solved():
        sol = solve_affine_exprs(matrix, rhs, env)
        return [] if sol is None else [sol[0], *sol[1]]

    for solve in (lambda: rref_exprs(matrix, env)[0],
                  lambda: nullspace_exprs(matrix, env), solved):
        try:
            vectors = solve()
        except PivotError:
            continue
        for x in (x for v in vectors for x in v):
            _carries_its_pair(x)


@given(st.lists(_la_entry, min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_decompositions_carry_their_pairs(parts):
    # a, b and c hold x1, x2, p and sin(x1), with denominators in x1 and
    # x2: a*u1 + b*u2 + c is affine in u1 and u2, and a*x3^2 + b*x3 + c
    # has no x3 in a denominator
    a, b, c = parts
    u1, u2, x3 = Sym("u1"), Sym("u2"), Sym("x3")
    try:
        coeffs, rest = linear_decompose(
            Add(Add(Mul(a, u1), Mul(b, u2)), c), ["u1", "u2"])
        terms = polynomial_terms(
            Add(Add(Mul(a, Pow(x3, 2)), Mul(b, x3)), c), ["x3"])
    except SymxError:  # a division by an identically zero entry
        return
    for x in [*coeffs.values(), rest, *terms.values()]:
        _carries_its_pair(x)


def test_ansatz_candidates_carry_their_pairs():
    spec = systems.motor()
    states = spec.frame.states
    ansatz = symx.Ansatz(_monomials(states, 2), states)
    delta_rows = ansatz.rows(spec.g2.components)
    part, _ = ansatz.solve(delta_rows + ansatz.rows(spec.g1.components, 1),
                           None)
    _, null = ansatz.solve(delta_rows, None)
    for vectors in ((part,), (null[2],), (null[0], null[2]), (part, null[1])):
        _carries_its_pair(ansatz.expr(*vectors))


@pytest.mark.parametrize("matrix", [
    [[ZERO, P("x1"), P("x2")], [ZERO, P("2*x1"), P("2*x2")]],
    [[P("x1 - x1"), ZERO]],
    [[P("x2"), P("1/x1"), P("sin(x1)")], [P("x1*x2"), P("1"), ZERO]],
    _SIN_P],
    ids=["zero-column", "zero-matrix", "rational", "kernel"])
def test_nullspace_is_the_tree_routes_on_degenerate_systems(matrix):
    # the zero column b = 0 adds takes no pivot, whatever the reference
    # point
    for env in (None, {"x1": 0.5, "x2": 2.0, "p": 1.5}):
        assert (nullspace_exprs(matrix, env)
                == symx_reference.nullspace_exprs(matrix, env))


def _old_sub(a, b):
    """_sub's pair as a rule of its own: a - b cross-multiplied, with
    a zero operand returned as it is (b negated)."""
    (pa, qa), (pb, qb) = a, b
    if not pb and symx._is_one(qb):
        return a
    if not pa and symx._is_one(qa):
        return symx._p_neg(pb), qb
    return (symx._p_add(symx._p_mul(pa, qb),
                        symx._p_neg(symx._p_mul(pb, qa))),
            symx._p_mul(qa, qb))


@given(_la_entry, _la_entry)
@example(ZERO, P("x1/(x1^2 + 1)"))
@example(P("x2 + 1"), ZERO)
@settings(max_examples=200, deadline=None)
def test_sub_gives_the_old_rules_pair(a, b):
    try:
        pa, pb = _ratform(a, {}), _ratform(b, {})
    except SymxError:
        return
    got, want = symx._sub(pa, pb), _old_sub(pa, pb)
    assert [list(p.items()) for p in got] == [list(p.items()) for p in want]


def test_exterior_derivative_of_an_annihilator_needs_no_diff(monkeypatch):
    # a null vector of a polynomial system carries its pair, so d of the
    # one-form it spells folds on pairs alone
    def refuse(e, v):
        raise AssertionError("diff called")

    matrix = [[P("x2"), P("-x1"), P("x1*x3")], [P("1"), P("x3^2"), P("x2")]]
    basis = nullspace_exprs(matrix, {"x1": 0.5, "x2": 2.0, "x3": -1.0})
    assert len(basis) == 1
    monkeypatch.setattr(symx, "diff", refuse)
    dw = exterior_derivative_1form(OneForm(FR, tuple(basis[0])))
    assert not all(is_zero(c) for c in dw.coefficients.values())


def test_pow_expr_negative_power():
    e = pow_expr(P("x1 + 1"), -2)
    assert equiv(e, P("1/(x1 + 1)^2"))


def test_to_str_printer_golden():
    assert to_str(normalize(P("1/(2*x1)"))) == "(1/2)/x1"
    assert to_str(normalize(P("(x1 + 1)^2"))) == "x1^2 + 2*x1 + 1"


# --- equality and hashing ----------------------------------------------------

def _fields_key(e):
    """Class name and fields, nodes by their own keys: what structural
    equality compares, by recursion (for small trees)."""
    return (type(e).__name__,) + tuple(
        _fields_key(v) if isinstance(v, symx.Expr) else v
        for v in (getattr(e, f.name) for f in dataclasses.fields(e)))


_eq_leaf = st.sampled_from([Sym("x1"), Sym("x2"), Const(Fraction(1)),
                            Const(Fraction(-1, 2))])
_eq_tree = st.recursive(
    _eq_leaf,
    lambda s: st.one_of(
        st.tuples(st.sampled_from([Add, Sub, Mul, Div]), s, s).map(
            lambda t: t[0](t[1], t[2])),
        st.tuples(s, st.integers(2, 3)).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(["sin", "exp"]), s).map(
            lambda t: Call(*t))),
    max_leaves=6)


@given(_eq_tree, _eq_tree)
@settings(max_examples=300, deadline=None)
@example(Div(Sym("x1"), Sub(Sym("x1"), Sym("x1"))), Sym("x1"))
def test_equality_is_same_class_same_fields(a, b):
    assert (a == b) == (_fields_key(a) == _fields_key(b))
    assert (a != b) == (not a == b)
    copy = subst(a, {})  # the same tree, built anew
    assert copy == a and hash(copy) == hash(a)
    if a == b:
        assert hash(a) == hash(b)
    # the stored pair takes no part
    try:
        n = normalize(a)
    except SymxError:  # a division by zero
        return
    assert n == subst(n, {}) and hash(n) == hash(subst(n, {}))


def test_equality_other_types():
    assert Sym("x1") != "x1" and Const(Fraction(1)) != 1
    assert Add(Sym("x1"), Sym("x2")) != Sub(Sym("x1"), Sym("x2"))
    assert Call("sin", Sym("x1")) != Call("cos", Sym("x1"))
    assert Pow(Sym("x1"), 2) != Pow(Sym("x1"), 3)


def _balanced_sum(terms):
    while len(terms) > 1:
        terms = [Add(*terms[i:i + 2]) if i + 1 < len(terms) else terms[i]
                 for i in range(0, len(terms), 2)]
    return terms[0]


def test_long_normal_forms_compare_and_hash():
    x1, x2 = Sym("x1"), Sym("x2")
    terms = [Mul(Pow(x1, i + 1), Pow(x2, j + 1))
             for i in range(100) for j in range(100)]
    a = normalize(_balanced_sum(terms))
    b = normalize(_balanced_sum(terms[::-1]))
    fewer = normalize(_balanced_sum(terms[1:]))
    depth, n = 0, a
    while isinstance(n, Add):
        depth, n = depth + 1, n.a
    assert depth == 9999 > sys.getrecursionlimit()
    assert a is not b and a == b and not a != b
    assert a != fewer and fewer != a
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1 and b in {a} and fewer not in {a}
    frame = Frame("f", ("x1", "x2"))
    form, same = OneForm(frame, (a, ZERO)), OneForm(frame, (b, ZERO))
    assert form == same and hash(form) == hash(same)
    assert {form: 1}[same] == 1


# --- compile scope -----------------------------------------------------------

@pytest.fixture
def compiled(monkeypatch):
    """The sources symx compiles, in order."""
    sources = []

    def counting_exec(src, scope):
        sources.append(src)
        exec(src, scope)  # noqa: S102
    monkeypatch.setattr(symx, "exec", counting_exec, raising=False)
    return sources


def test_compile_scope_compiles_each_source_once(compiled):
    e = P("x1*x2 + 1")
    with symx.compile_scope():
        f = compile_fn(e, ("x1", "x2"))
        # names enter the source by position, so these are the same source
        assert compile_fn(P("x2*x3 + 1"), ("x2", "x3")) is f
        assert len(compiled) == 1 and f((2.0, 3.0)) == 7.0
        assert compile_fn(e, ("x1", "x2"), {"x3": 1.0}) is f
        assert compile_fn(e, ("x1",), {"x2": 2.0}) is not f
    assert compile_fn(e, ("x1", "x2")) is not f  # no scope: compiled anew
    assert len(compiled) == 3
    # the pivot search's one-row evaluation compiles in the scope too
    env = {"x1": 2.0, "x2": 3.0}
    with symx.compile_scope():
        ev = symx._values_at([e], env)
        again = symx._values_at([e], env)
    assert len(compiled) == 4
    assert np.array_equal(ev, again) and ev.tolist() == [7.0]


def test_nested_compile_scope_reuses_the_outer_one(compiled):
    e = P("x1*x2 + 1")
    with symx.compile_scope():
        f = compile_fn(e, ("x1", "x2"))
        with symx.compile_scope():
            assert compile_fn(e, ("x1", "x2")) is f
            g = compile_fn(e, ("x1",), {"x2": 2.0})
        # the inner exit kept what was compiled in it
        assert compile_fn(e, ("x1",), {"x2": 2.0}) is g
        # an elimination opens a scope of its own, inside this one
        x1 = P("x1")
        rref_exprs([[x1, ZERO], [ZERO, x1]], {"x1": 0.5})
        rref_exprs([[x1, ZERO], [ZERO, x1]], {"x1": 0.5})
        assert len(compiled) == 3
    # the outermost exit emptied it
    assert symx._compiled.get(None) is None
    assert compile_fn(e, ("x1", "x2")) is not f and len(compiled) == 4


def test_compile_scope_belongs_to_its_thread(compiled):
    e = P("x1 + 1")
    with symx.compile_scope():
        f = compile_fn(e, ("x1",))
        other = []
        t = threading.Thread(
            target=lambda: other.append(compile_fn(e, ("x1",))))
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
        # the thread opened no scope, so it compiled its own
        assert other[0] is not f and compile_fn(e, ("x1",)) is f
    assert len(compiled) == 2


def test_elimination_compiles_each_pivot_search_once(compiled):
    # column 1's one candidate is column 0's again: one compiled loop
    x1 = P("x1")
    rows, pivots = rref_exprs([[x1, ZERO], [ZERO, x1]], {"x1": 0.5})
    assert pivots == [0, 1] and len(compiled) == 1
    rref_exprs([[x1, ZERO], [ZERO, x1]], {"x1": 0.5})
    assert len(compiled) == 2  # the memo ended with the elimination
