"""Test-side companions of flatcheck.symx.

Reference implementations that tests compare the library against:

- the polynomial product that multiplies every pair of terms, even when
  one operand is the unit polynomial, and the normalize built on it,
  kept to show that the unit-operand shortcut in `symx._p_mul` changes
  no normal form;
- the recursive tree walker that evaluated expressions before every
  evaluation went through generated code, kept to show that the
  generated code computes the same floats and raises EvalError at the
  same points. Its kernels are math's by default; `NUMPY_FNS` gives it
  numpy's, which the library uses.

And `equiv`, a probabilistic equivalence test only tests use.
"""

import math
from fractions import Fraction

import numpy as np

from flatcheck.symx import (Add, Call, Const, Div, EvalError, FUNCTIONS, Mul,
                            Pow, Sub, Sym, SymxError, ZERO, _P_ONE,
                            _cancel_content, _constant_ratio, _mono_key,
                            _mono_mul, _p_add, _p_neg, _p_scale,
                            _poly_to_expr, eval_at as lib_eval_at,
                            free_symbols, is_zero, to_str)


def p_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            nc = out.get(m, Fraction(0)) + c1 * c2
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def p_pow(p, k):
    out = dict(_P_ONE)
    base = p
    while k:
        if k & 1:
            out = p_mul(out, base)
        base = p_mul(base, base) if k > 1 else base
        k >>= 1
    return out


def ratform(e, atoms):
    if isinstance(e, Const):
        return ({(): e.value} if e.value else {}), dict(_P_ONE)
    if isinstance(e, Sym):
        atoms.setdefault(e.name, e)
        return {((e.name, 1),): Fraction(1)}, dict(_P_ONE)
    if isinstance(e, Add):
        pa, qa = ratform(e.a, atoms)
        pb, qb = ratform(e.b, atoms)
        return _p_add(p_mul(pa, qb), p_mul(pb, qa)), p_mul(qa, qb)
    if isinstance(e, Sub):
        pa, qa = ratform(e.a, atoms)
        pb, qb = ratform(e.b, atoms)
        return _p_add(p_mul(pa, qb), _p_neg(p_mul(pb, qa))), p_mul(qa, qb)
    if isinstance(e, Mul):
        pa, qa = ratform(e.a, atoms)
        pb, qb = ratform(e.b, atoms)
        return p_mul(pa, pb), p_mul(qa, qb)
    if isinstance(e, Div):
        pa, qa = ratform(e.a, atoms)
        pb, qb = ratform(e.b, atoms)
        if not pb:
            raise SymxError("division by an identically zero expression")
        return p_mul(pa, qb), p_mul(qa, pb)
    if isinstance(e, Pow):
        p, q = ratform(e.base, atoms)
        k = e.exp
        if k >= 0:
            return p_pow(p, k), p_pow(q, k)
        if not p:
            raise SymxError("division by an identically zero expression")
        return p_pow(q, -k), p_pow(p, -k)
    if isinstance(e, Call):
        if e.fn not in FUNCTIONS:
            raise SymxError(f"unknown function '{e.fn}'")
        arg = normalize(e.arg)
        key = f"{e.fn}({to_str(arg)})"
        atoms.setdefault(key, Call(e.fn, arg))
        return {((key, 1),): Fraction(1)}, dict(_P_ONE)
    raise TypeError(f"not an Expr: {e!r}")


def normalize(e):
    atoms = {}
    num, den = ratform(e, atoms)
    if not num:
        return ZERO
    num, den = _cancel_content(num, den)
    ratio = _constant_ratio(num, den)
    if ratio is not None:
        return Const(ratio)
    lead = max(den, key=_mono_key)
    lc = den[lead]
    if lc != 1:
        num = _p_scale(num, 1 / lc)
        den = _p_scale(den, 1 / lc)
    num_e = _poly_to_expr(num, atoms)
    if den == _P_ONE:
        return num_e
    return Div(num_e, _poly_to_expr(den, atoms))


# --- the tree walker ---------------------------------------------------------

MATH_FNS = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
            "sqrt": math.sqrt}


def _numpy_fn(ufunc):
    def fn(x):
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            try:
                return float(ufunc(x))
            except FloatingPointError as exc:
                raise ValueError(str(exc)) from None
    return fn


NUMPY_FNS = {name: _numpy_fn(getattr(np, name)) for name in FUNCTIONS}


def eval_raw(e, env, fns=MATH_FNS):
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound symbol '{e.name}'") from None
    if isinstance(e, Add):
        return eval_raw(e.a, env, fns) + eval_raw(e.b, env, fns)
    if isinstance(e, Sub):
        return eval_raw(e.a, env, fns) - eval_raw(e.b, env, fns)
    if isinstance(e, Mul):
        return eval_raw(e.a, env, fns) * eval_raw(e.b, env, fns)
    if isinstance(e, Div):
        den = eval_raw(e.b, env, fns)
        try:
            return eval_raw(e.a, env, fns) / den
        except ZeroDivisionError:
            raise EvalError("division by zero") from None
    if isinstance(e, Pow):
        try:
            return eval_raw(e.base, env, fns) ** e.exp
        except (ZeroDivisionError, OverflowError) as exc:
            raise EvalError(str(exc)) from None
    if isinstance(e, Call):
        x = eval_raw(e.arg, env, fns)
        try:
            return fns[e.fn](x)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"{e.fn}: {exc}") from None
    raise TypeError(f"not an Expr: {e!r}")


def eval_at(e, env, fns=MATH_FNS):
    """Evaluate by walking the tree; EvalError as in symx.eval_at."""
    val = eval_raw(e, env, fns)
    if not math.isfinite(val):
        raise EvalError("non-finite value")
    return val


# --- equivalence ---------------------------------------------------------------

class UnsampleableDomainError(SymxError):
    """Every sampled point was rejected during equivalence testing."""


def has_kernels(e):
    if isinstance(e, Call):
        return True
    if isinstance(e, (Add, Sub, Mul, Div)):
        return has_kernels(e.a) or has_kernels(e.b)
    if isinstance(e, Pow):
        return has_kernels(e.base)
    return False


def equiv(a, b, trials=50, seed=0, tol=1e-9):
    """Decide whether two expressions agree as functions.

    Purely rational pairs are decided exactly by the normal form of the
    difference. Pairs involving transcendental kernels fall back to
    sampling: true iff |a-b| <= tol*(1+|a|) at `trials` accepted random
    points, drawn uniformly from [-2, 2] per symbol with a generator
    seeded by `seed`; points where either side fails to evaluate are
    rejected and resampled.
    """
    if is_zero(Sub(a, b)):
        return True
    if not (has_kernels(a) or has_kernels(b)):
        return False
    syms = sorted(free_symbols(a) | free_symbols(b))
    rng = np.random.default_rng(seed)
    accepted = 0
    attempts = 0
    limit = max(50 * trials, 100)
    while accepted < trials:
        attempts += 1
        if attempts > limit:
            raise UnsampleableDomainError(
                f"rejected {attempts} sample points; domain looks empty")
        env = {s: float(rng.uniform(-2.0, 2.0)) for s in syms}
        try:
            va = lib_eval_at(a, env)
            vb = lib_eval_at(b, env)
        except EvalError:
            continue
        if not abs(va - vb) <= tol * (1.0 + abs(va)):
            return False
        accepted += 1
    return True
