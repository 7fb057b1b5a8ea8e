"""Reference normal form: the polynomial product that multiplies every
pair of terms, even when one operand is the unit polynomial, and the
normalize built on it.

Kept to show that the unit-operand shortcut in `symx._p_mul` changes
no normal form. Everything except the product and the walk over the
tree is the library's own.
"""

from fractions import Fraction

from flatcheck.symx import (Add, Call, Const, Div, FUNCTIONS, Mul, Pow, Sub,
                            Sym, SymxError, ZERO, _P_ONE, _cancel_content,
                            _constant_ratio, _mono_key, _mono_mul, _p_add,
                            _p_neg, _p_scale, _poly_to_expr, to_str)


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
