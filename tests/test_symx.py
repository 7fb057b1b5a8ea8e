import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from flatcheck.symx import (Add, Call, Const, Div, EvalError, Frame, Mul,
                            ParseError, PivotError, Pow, Sub, Sym, SymxError,
                            ZERO, compile_fn, compile_fns, diff, eval_at,
                            evaluator, free_symbols, is_zero,
                            linear_decompose, normalize, nullspace_exprs,
                            parse, polynomial_terms, pow_expr, rref_exprs,
                            solve_affine_exprs, subst, to_str)

import symx_reference
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


def _same_tree(a, b) -> bool:
    """Structural equality without recursion: a normal form of a long
    sum can be a chain deeper than the recursion limit."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, (Add, Sub, Mul, Div)):
            stack += [(x.a, y.a), (x.b, y.b)]
        elif isinstance(x, Pow):
            if x.exp != y.exp:
                return False
            stack.append((x.base, y.base))
        elif isinstance(x, Call):
            if x.fn != y.fn:
                return False
            stack.append((x.arg, y.arg))
        elif x != y:
            return False
    return True


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
    assert _same_tree(normalize(e), symx_reference.normalize(e))


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
        with pytest.raises(EvalError):
            evaluator([P("x1"), P(text)], ("x1",))([x1])


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


def test_linear_decompose():
    fr = Frame("w", ("x1", "u1", "u2"), ())
    e = parse("(x1^2 + 1)*u1 - 3*u2 + sin(x1)", fr)
    coeffs, rest = linear_decompose(e, ("u1", "u2"))
    assert is_zero(Sub(coeffs["u1"], parse("x1^2 + 1", fr)))
    assert is_zero(Sub(coeffs["u2"], parse("-3", fr)))
    assert is_zero(Sub(rest, parse("sin(x1)", fr)))
    with pytest.raises(SymxError):
        linear_decompose(parse("u1^2", fr), ("u1",))


def test_polynomial_terms_groups_by_monomial():
    terms = polynomial_terms(P("3*x1^2*x2 + x1*x3 + 5"), ("x1",))
    keys = set(terms)
    assert (("x1", 2),) in keys and (("x1", 1),) in keys and () in keys
    assert is_zero(Sub(terms[(("x1", 2),)], P("3*x2")))
    assert is_zero(Sub(terms[()], P("5")))


def test_pow_expr_negative_power():
    e = pow_expr(P("x1 + 1"), -2)
    assert equiv(e, P("1/(x1 + 1)^2"))


def test_to_str_printer_golden():
    assert to_str(normalize(P("1/(2*x1)"))) == "(1/2)/x1"
    assert to_str(normalize(P("(x1 + 1)^2"))) == "x1^2 + 2*x1 + 1"
