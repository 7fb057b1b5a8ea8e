"""Symbolic expression engine for control-system analysis.

Immutable expression trees over declared state variables and parameters,
with exact rational constants. Provides parsing from a small infix
grammar, exact differentiation, an expanded rational normal form that
decides zero for polynomial and rational expressions, numeric
evaluation, and seeded probabilistic equivalence testing.

The normal form keeps a single numerator and denominator, each an
expanded multivariate polynomial with monomials in a fixed graded
order and a monic denominator. Transcendental subexpressions (sin,
cos, exp, sqrt) are treated as opaque atoms keyed by their normalized
argument, so zero recognition is exact precisely on the rational part
of the algebra; equivalence involving transcendentals falls back to
seeded sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "sqrt")


class SymxError(Exception):
    """Base error for the symbolic layer."""


class ParseError(SymxError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(SymxError):
    """Numeric evaluation failed: unbound symbol, division by zero or
    a domain/overflow error."""


class UnsampleableDomainError(SymxError):
    """Every sampled point was rejected during equivalence testing."""


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

class Expr:
    """Base class of immutable expression nodes.

    Nodes support the usual arithmetic operators; ints and Fractions
    are coerced to exact constants. Floats are rejected on purpose,
    exact rationals keep the normal form decidable (floats appear only
    at evaluation time).
    """

    __slots__ = ()

    def __add__(self, other):
        return Add(self, _coerce(other))

    def __radd__(self, other):
        return Add(_coerce(other), self)

    def __sub__(self, other):
        return Sub(self, _coerce(other))

    def __rsub__(self, other):
        return Sub(_coerce(other), self)

    def __mul__(self, other):
        return Mul(self, _coerce(other))

    def __rmul__(self, other):
        return Mul(_coerce(other), self)

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be an int")
        return pow_expr(self, k)

    def __neg__(self):
        return Mul(Const(Fraction(-1)), self)

    def __str__(self):
        return to_str(self)


@dataclass(frozen=True, repr=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Sym(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exp: int


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


ZERO = Const(Fraction(0))
ONE_E = Const(Fraction(1))


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Const(Fraction(v))
    raise TypeError(f"cannot use {type(v).__name__} in an expression; "
                    "use int or Fraction (floats only at eval time)")


def pow_expr(base: Expr, k: int) -> Expr:
    """Integer power with the conventions used by the normal form:
    k=0 gives 1, k=1 gives the base, k<0 becomes a reciprocal."""
    if k == 0:
        return ONE_E
    if k == 1:
        return base
    if k < 0:
        return Div(ONE_E, Pow(base, -k))
    return Pow(base, k)


def free_symbols(e: Expr) -> frozenset[str]:
    out: set[str] = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, Sym):
            out.add(n.name)
        elif isinstance(n, (Add, Sub, Mul, Div)):
            stack.append(n.a)
            stack.append(n.b)
        elif isinstance(n, Pow):
            stack.append(n.base)
        elif isinstance(n, Call):
            stack.append(n.arg)
    return frozenset(out)


def subst(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace symbols by expressions. The result is not normalized."""
    if isinstance(e, Sym):
        return mapping.get(e.name, e)
    if isinstance(e, Const):
        return e
    if isinstance(e, (Add, Sub, Mul, Div)):
        return type(e)(subst(e.a, mapping), subst(e.b, mapping))
    if isinstance(e, Pow):
        return Pow(subst(e.base, mapping), e.exp)
    if isinstance(e, Call):
        return Call(e.fn, subst(e.arg, mapping))
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Frames and points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """A named chart: ordered state symbols plus parameter symbols.

    Serves as the symbol table for parsing and as the chart id carried
    by points, vector fields and forms, so that objects from different
    coordinate systems cannot be mixed silently.
    """

    name: str
    states: tuple[str, ...]
    params: tuple[str, ...] = ()

    def __post_init__(self):
        names = self.states + self.params
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol in frame")
        clash = set(names) & set(FUNCTIONS)
        if clash:
            raise ValueError(f"symbols shadow function names: {sorted(clash)}")

    @property
    def n(self) -> int:
        return len(self.states)

    def declared(self) -> frozenset[str]:
        return frozenset(self.states) | frozenset(self.params)

    def parse(self, text: str) -> Expr:
        return parse(text, self)

    def validate(self, e: Expr) -> None:
        undeclared = free_symbols(e) - self.declared()
        if undeclared:
            raise SymxError(f"undeclared symbols in frame '{self.name}': "
                            f"{sorted(undeclared)}")

    def point(self, coords: Sequence[float],
              params: Mapping[str, float] | None = None) -> "Point":
        return Point(self, tuple(float(c) for c in coords),
                     dict(params or {}))


@dataclass(frozen=True, eq=False)
class Point:
    """Coordinate values in a frame plus parameter bindings."""

    frame: Frame
    coords: tuple[float, ...]
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.coords) != self.frame.n:
            raise ValueError(f"point has {len(self.coords)} coordinates, "
                             f"frame '{self.frame.name}' has {self.frame.n}")

    @property
    def chart(self) -> str:
        return self.frame.name

    def env(self) -> dict[str, float]:
        e = dict(zip(self.frame.states, self.coords))
        e.update(self.params)
        return e


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^(),":
            toks.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, frame: Frame):
        self.text = text
        self.frame = frame
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, got {t[1]!r}", t[2])
        return t

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expr:
        k, _, _ = self.peek()
        if k == "-":
            self.next()
            return Mul(Const(Fraction(-1)), self.factor())
        if k == "+":
            self.next()
            return self.factor()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            k = self.int_exponent()
            return pow_expr(base, k)
        return base

    def int_exponent(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        t = self.next()
        if t[0] != "num" or "." in t[1]:
            raise ParseError("exponent must be an integer literal", t[2])
        k = sign * int(t[1])
        if self.peek()[0] == "^":
            self.next()
            k2 = self.int_exponent()
            if k2 < 0:
                raise ParseError("negative exponent tower", t[2])
            k = k ** k2
        return k

    def atom(self) -> Expr:
        kind, val, off = self.next()
        if kind == "num":
            return Const(Fraction(val))
        if kind == "ident":
            if self.peek()[0] == "(":
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function '{val}'", off)
                self.next()
                arg = self.expr()
                self.expect(")")
                return Call(val, arg)
            if val not in self.frame.declared():
                raise ParseError(f"undeclared identifier '{val}'", off)
            return Sym(val)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def parse(text: str, frame: Frame) -> Expr:
    """Parse an infix expression over the frame's declared symbols.

    Grammar: identifiers [A-Za-z_][A-Za-z0-9_]*; operators + - * / ^
    with standard precedence; ^ is right-associative and takes an
    integer literal exponent; unary function calls sin, cos, exp,
    sqrt; decimal and rational literals; parentheses. Whitespace is
    insignificant. Errors carry the 0-based offset of the offending
    token.
    """
    p = _Parser(text, frame)
    e = p.expr()
    t = p.peek()
    if t[0] != "end":
        raise ParseError(f"unexpected token {t[1]!r}", t[2])
    return e


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def diff(e: Expr, v: str) -> Expr:
    """Exact partial derivative with respect to the symbol v.

    The result is a raw tree; callers normalize when a canonical form
    is needed.
    """
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Sym):
        return ONE_E if e.name == v else ZERO
    if isinstance(e, Add):
        return Add(diff(e.a, v), diff(e.b, v))
    if isinstance(e, Sub):
        return Sub(diff(e.a, v), diff(e.b, v))
    if isinstance(e, Mul):
        return Add(Mul(diff(e.a, v), e.b), Mul(e.a, diff(e.b, v)))
    if isinstance(e, Div):
        num = Sub(Mul(diff(e.a, v), e.b), Mul(e.a, diff(e.b, v)))
        return Div(num, Pow(e.b, 2))
    if isinstance(e, Pow):
        dbase = diff(e.base, v)
        return Mul(Mul(Const(Fraction(e.exp)), pow_expr(e.base, e.exp - 1)), dbase)
    if isinstance(e, Call):
        darg = diff(e.arg, v)
        if e.fn == "sin":
            outer = Call("cos", e.arg)
        elif e.fn == "cos":
            outer = Mul(Const(Fraction(-1)), Call("sin", e.arg))
        elif e.fn == "exp":
            outer = Call("exp", e.arg)
        elif e.fn == "sqrt":
            outer = Div(ONE_E, Mul(Const(Fraction(2)), Call("sqrt", e.arg)))
        else:
            raise SymxError(f"unknown function '{e.fn}'")
        return Mul(outer, darg)
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Normal form
#
# A polynomial is a dict {monomial: Fraction} where a monomial is a
# sorted tuple of (atom key, exponent) pairs; the empty tuple is the
# constant monomial. Atom keys are symbol names or rendered kernel
# strings like "sin(x1)" whose arguments are already canonical.
#
# _ratform cross-multiplies by the denominators in every Add, Sub, Mul
# and Div, and almost every denominator is the unit polynomial. _p_mul
# returns the other operand as it is when one operand is the unit (the
# same polynomial, since c*1 == c and m*() == m), so those products cost
# nothing. The helpers never mutate their arguments, which is what makes
# sharing the operand safe.
# ---------------------------------------------------------------------------

Mono = tuple[tuple[str, int], ...]
Poly = dict[Mono, Fraction]

_P_ONE: Poly = {(): Fraction(1)}


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    d = dict(m1)
    for a, k in m2:
        d[a] = d.get(a, 0) + k
    return tuple(sorted(d.items()))


def _mono_key(m: Mono):
    return (sum(k for _, k in m), m)


def _p_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        nc = out.get(m, Fraction(0)) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def _p_neg(p: Poly) -> Poly:
    return {m: -c for m, c in p.items()}


def _p_mul(p: Poly, q: Poly) -> Poly:
    if len(q) == 1 and q.get(()) == 1:
        return p
    if len(p) == 1 and p.get(()) == 1:
        return q
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            nc = out.get(m, Fraction(0)) + c1 * c2
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def _p_scale(p: Poly, c: Fraction) -> Poly:
    if not c:
        return {}
    return {m: v * c for m, v in p.items()}


def _p_pow(p: Poly, k: int) -> Poly:
    out = dict(_P_ONE)
    base = p
    while k:
        if k & 1:
            out = _p_mul(out, base)
        base = _p_mul(base, base) if k > 1 else base
        k >>= 1
    return out


def _ratform(e: Expr, atoms: dict[str, Expr]) -> tuple[Poly, Poly]:
    if isinstance(e, Const):
        return ({(): e.value} if e.value else {}), dict(_P_ONE)
    if isinstance(e, Sym):
        atoms.setdefault(e.name, e)
        return {((e.name, 1),): Fraction(1)}, dict(_P_ONE)
    if isinstance(e, Add):
        pa, qa = _ratform(e.a, atoms)
        pb, qb = _ratform(e.b, atoms)
        return _p_add(_p_mul(pa, qb), _p_mul(pb, qa)), _p_mul(qa, qb)
    if isinstance(e, Sub):
        pa, qa = _ratform(e.a, atoms)
        pb, qb = _ratform(e.b, atoms)
        return _p_add(_p_mul(pa, qb), _p_neg(_p_mul(pb, qa))), _p_mul(qa, qb)
    if isinstance(e, Mul):
        pa, qa = _ratform(e.a, atoms)
        pb, qb = _ratform(e.b, atoms)
        return _p_mul(pa, pb), _p_mul(qa, qb)
    if isinstance(e, Div):
        pa, qa = _ratform(e.a, atoms)
        pb, qb = _ratform(e.b, atoms)
        if not pb:
            raise SymxError("division by an identically zero expression")
        return _p_mul(pa, qb), _p_mul(qa, pb)
    if isinstance(e, Pow):
        p, q = _ratform(e.base, atoms)
        k = e.exp
        if k >= 0:
            return _p_pow(p, k), _p_pow(q, k)
        if not p:
            raise SymxError("division by an identically zero expression")
        return _p_pow(q, -k), _p_pow(p, -k)
    if isinstance(e, Call):
        if e.fn not in FUNCTIONS:
            raise SymxError(f"unknown function '{e.fn}'")
        arg = normalize(e.arg)
        key = f"{e.fn}({to_str(arg)})"
        atoms.setdefault(key, Call(e.fn, arg))
        return {((key, 1),): Fraction(1)}, dict(_P_ONE)
    raise TypeError(f"not an Expr: {e!r}")


def _content(p: Poly) -> dict[str, int]:
    it = iter(p)
    first = next(it, None)
    if first is None:
        return {}
    mins = dict(first)
    for mono in it:
        d = dict(mono)
        for a in list(mins):
            k = d.get(a, 0)
            if k < mins[a]:
                if k == 0:
                    del mins[a]
                else:
                    mins[a] = k
        if not mins:
            break
    return mins


def _cancel_content(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Divide out the monomial content shared by numerator and
    denominator. Keeps repeated arithmetic from accumulating common
    monomial factors; full polynomial gcd is intentionally not done."""
    cn, cd = _content(num), _content(den)
    shared = {a: min(k, cd[a]) for a, k in cn.items() if a in cd}
    if not shared:
        return num, den

    def strip(p: Poly) -> Poly:
        out: Poly = {}
        for mono, c in p.items():
            d = dict(mono)
            for a, k in shared.items():
                d[a] -= k
                if not d[a]:
                    del d[a]
            out[tuple(sorted(d.items()))] = c
        return out

    return strip(num), strip(den)


def _constant_ratio(num: Poly, den: Poly) -> Fraction | None:
    """Return c when num == c * den termwise, else None. Cheap stand-in
    for the p/p reductions a full gcd would give."""
    if len(num) != len(den):
        return None
    ratio: Fraction | None = None
    for mono, c in num.items():
        d = den.get(mono)
        if d is None:
            return None
        if ratio is None:
            ratio = c / d
        elif c != ratio * d:
            return None
    return ratio


def _poly_to_expr(p: Poly, atoms: dict[str, Expr]) -> Expr:
    if not p:
        return ZERO
    terms = sorted(p.items(), key=lambda t: _mono_key(t[0]), reverse=True)
    acc: Expr | None = None
    for mono, coef in terms:
        factors = []
        for key, k in mono:
            a = atoms[key]
            factors.append(Pow(a, k) if k > 1 else a)
        mag = abs(coef)
        if not factors:
            t: Expr = Const(mag)
        else:
            t = factors[0]
            for f in factors[1:]:
                t = Mul(t, f)
            if mag != 1:
                t = Mul(Const(mag), t)
        if acc is None:
            if coef < 0:
                t = Const(coef) if not factors else Mul(Const(Fraction(-1)), t)
            acc = t
        else:
            acc = Sub(acc, t) if coef < 0 else Add(acc, t)
    return acc


def normalize(e: Expr) -> Expr:
    """Expanded rational normal form.

    Returns a structurally canonical tree num/den where both parts are
    expanded polynomials over symbol and kernel atoms, the denominator
    is monic in the graded monomial order, and a zero numerator yields
    the constant 0. Idempotent: normalize(normalize(e)) equals
    normalize(e) structurally.
    """
    atoms: dict[str, Expr] = {}
    num, den = _ratform(e, atoms)
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


def is_zero(e: Expr) -> bool:
    """Exact zero test on the rational normal form."""
    return normalize(e) == ZERO


def has_kernels(e: Expr) -> bool:
    if isinstance(e, Call):
        return True
    if isinstance(e, (Add, Sub, Mul, Div)):
        return has_kernels(e.a) or has_kernels(e.b)
    if isinstance(e, Pow):
        return has_kernels(e.base)
    return False


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_MATH_FN = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
            "sqrt": math.sqrt}


def _eval_raw(e: Expr, env: Mapping[str, float]) -> float:
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound symbol '{e.name}'") from None
    if isinstance(e, Add):
        return _eval_raw(e.a, env) + _eval_raw(e.b, env)
    if isinstance(e, Sub):
        return _eval_raw(e.a, env) - _eval_raw(e.b, env)
    if isinstance(e, Mul):
        return _eval_raw(e.a, env) * _eval_raw(e.b, env)
    if isinstance(e, Div):
        den = _eval_raw(e.b, env)
        try:
            return _eval_raw(e.a, env) / den
        except ZeroDivisionError:
            raise EvalError("division by zero") from None
    if isinstance(e, Pow):
        try:
            return _eval_raw(e.base, env) ** e.exp
        except (ZeroDivisionError, OverflowError) as exc:
            raise EvalError(str(exc)) from None
    if isinstance(e, Call):
        x = _eval_raw(e.arg, env)
        try:
            return _MATH_FN[e.fn](x)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"{e.fn}: {exc}") from None
    raise TypeError(f"not an Expr: {e!r}")


def eval_at(e: Expr, at: "Point | Mapping[str, float]") -> float:
    """Evaluate at a point (or a plain symbol-to-value mapping).

    Deterministic for fixed bindings. Division by zero, domain errors
    and non-finite results raise EvalError instead of leaking NaN.
    """
    env = at.env() if isinstance(at, Point) else at
    val = _eval_raw(e, env)
    if not math.isfinite(val):
        raise EvalError("non-finite value")
    return val


def _kernel(ufunc) -> Callable:
    """A numpy function that returns a Python float for a Python float,
    so scalar generated code stays on plain floats; the value is
    numpy's either way."""
    def kernel(x):
        r = ufunc(x)
        return float(r) if type(x) is float else r
    return kernel


_KERNELS = {f"_{name}": _kernel(getattr(np, name)) for name in FUNCTIONS}


def _generate(exprs: Sequence[Expr], order: Sequence[str],
              consts: Mapping[str, float] | None,
              lets: Sequence[tuple[str, Expr]], single: bool) -> Callable:
    consts = dict(consts or {})
    args = [f"_v{i}" for i in range(len(order))]
    names = dict(zip(order, args))

    def emit(n: Expr) -> str:
        if isinstance(n, Const):
            v = n.value
            if v.denominator == 1:
                return f"({v.numerator})" if v < 0 else str(v.numerator)
            return f"({v.numerator}/{v.denominator})"
        if isinstance(n, Sym):
            if n.name in names:
                return names[n.name]
            if n.name in consts:
                return repr(float(consts[n.name]))
            raise EvalError(f"unbound symbol '{n.name}' in compile_fn")
        if isinstance(n, Add):
            return f"({emit(n.a)} + {emit(n.b)})"
        if isinstance(n, Sub):
            return f"({emit(n.a)} - {emit(n.b)})"
        if isinstance(n, Mul):
            return f"({emit(n.a)} * {emit(n.b)})"
        if isinstance(n, Div):
            return f"({emit(n.a)} / {emit(n.b)})"
        if isinstance(n, Pow):
            return f"({emit(n.base)} ** {n.exp})"
        if isinstance(n, Call):
            return f"_{n.fn}({emit(n.arg)})"
        raise TypeError(f"not an Expr: {n!r}")

    lines = ["def _fn(v):"]
    if args:
        lines.append(f"    {', '.join(args)}, = v")
    for j, (name, e) in enumerate(lets):
        if name in names:
            raise ValueError(f"let name '{name}' is already bound")
        lines.append(f"    _l{j} = {emit(e)}")
        names[name] = f"_l{j}"
    outs = [emit(e) for e in exprs]
    lines.append(f"    return {outs[0]}" if single
                 else f"    return ({''.join(o + ', ' for o in outs)})")
    scope = dict(_KERNELS)
    exec("\n".join(lines), scope)  # noqa: S102 (generated from trusted trees)
    # popped, so that the function and its globals form no reference cycle
    return scope.pop("_fn")


def compile_fns(exprs: Sequence[Expr], order: Sequence[str],
                consts: Mapping[str, float] | None = None,
                lets: Sequence[tuple[str, Expr]] = ()) -> Callable:
    """Compile several expressions into one function for hot loops.

    The function takes v, one value per name in order, and returns the
    tuple of the expressions' values. lets are (name, expression)
    bindings evaluated once, in sequence, before the outputs; each may
    use order, consts and the lets before it, and the outputs may use
    them all. consts are inlined numerically. Every operation is
    emitted in tree order with Python operators and numpy's scalar
    functions, so the function maps over arrays elementwise and, on
    scalars, gives the same floats as evaluating each tree on its own.
    No zero-division guard: callers check finiteness of the results.
    """
    return _generate(exprs, order, consts, lets, single=False)


def compile_fn(e: Expr, order: Sequence[str],
               consts: Mapping[str, float] | None = None) -> Callable:
    """The one-expression case of compile_fns: returns the value, not
    a tuple."""
    return _generate((e,), order, consts, (), single=True)


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

def equiv(a: Expr, b: Expr, trials: int = 50, seed: int = 0,
          tol: float = 1e-9) -> bool:
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
            va = eval_at(a, env)
            vb = eval_at(b, env)
        except EvalError:
            continue
        if not abs(va - vb) <= tol * (1.0 + abs(va)):
            return False
        accepted += 1
    return True


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

_BIN = {Add: (" + ", 1, 1, 1), Sub: (" - ", 1, 1, 2),
        Mul: ("*", 2, 2, 2), Div: ("/", 2, 2, 3)}


def _fmt(e: Expr, ctx: int) -> str:
    if isinstance(e, Const):
        v = e.value
        s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        if (v < 0 or v.denominator != 1) and ctx > 1:
            return f"({s})"
        return s
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({_fmt(e.arg, 0)})"
    if isinstance(e, Pow):
        return f"{_fmt(e.base, 4)}^{e.exp}"
    if isinstance(e, Mul) and e.a == Const(Fraction(-1)):
        s = "-" + _fmt(e.b, 2)
        return f"({s})" if ctx > 1 else s
    if isinstance(e, (Add, Sub, Mul, Div)):
        op, prec, lp, rp = _BIN[type(e)]
        s = f"{_fmt(e.a, lp)}{op}{_fmt(e.b, rp)}"
        return f"({s})" if ctx > prec else s
    raise TypeError(f"not an Expr: {e!r}")


def to_str(e: Expr) -> str:
    """Deterministic infix rendering, re-parseable under the grammar."""
    return _fmt(e, 0)


# ---------------------------------------------------------------------------
# Linear algebra over the rational-function field
#
# Entries are Exprs; elimination is fraction-free (each update is
# pivot*row - entry*pivot_row, normalized), so polynomial entries stay
# polynomial. Pivots must be symbolically nonzero and are picked by
# largest magnitude at a numeric reference environment when one is
# given, matching the convention used for annihilator construction.
# ---------------------------------------------------------------------------

class PivotError(SymxError):
    """No usable pivot: entries vanish symbolically or at the
    reference point."""


def _pivot_row(rows, col, start, ref_env, tol=1e-12):
    best, best_mag = None, 0.0
    seen_nonzero = False
    for i in range(start, len(rows)):
        entry = rows[i][col]
        if entry == ZERO:
            continue
        seen_nonzero = True
        if ref_env is None:
            return i
        try:
            mag = abs(eval_at(entry, ref_env))
        except EvalError:
            mag = 0.0
        if mag > best_mag:
            best, best_mag = i, mag
    if seen_nonzero and (best is None or best_mag <= tol):
        raise PivotError(f"pivot in column {col} vanishes at the reference point")
    return best


def rref_exprs(matrix: Sequence[Sequence[Expr]],
               ref_env: Mapping[str, float] | None = None
               ) -> tuple[list[list[Expr]], list[int]]:
    """Fraction-free reduced row echelon form over the expression field.

    Returns the reduced rows (pivot entries not rescaled to 1) and the
    pivot column indices.
    """
    rows = [[normalize(x) for x in row] for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        i = _pivot_row(rows, c, r, ref_env)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        piv = rows[r][c]
        for i in range(len(rows)):
            if i == r or rows[i][c] == ZERO:
                continue
            e = rows[i][c]
            rows[i] = [normalize(Sub(Mul(piv, rows[i][j]), Mul(e, rows[r][j])))
                       for j in range(ncols)]
        pivots.append(c)
        r += 1
    return rows, pivots


def nullspace_exprs(matrix: Sequence[Sequence[Expr]],
                    ref_env: Mapping[str, float] | None = None
                    ) -> list[list[Expr]]:
    """Basis of the right nullspace, one vector per free column.

    The free coordinate of each basis vector is 1; the others are
    rational functions, normalized.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref_exprs(matrix, ref_env)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v: list[Expr] = [ZERO] * ncols
        v[fc] = ONE_E
        for r, pc in enumerate(pivots):
            v[pc] = normalize(Div(Mul(Const(Fraction(-1)), rows[r][fc]),
                                  rows[r][pc]))
        basis.append(v)
    return basis


def solve_affine_exprs(matrix: Sequence[Sequence[Expr]],
                       rhs: Sequence[Expr],
                       ref_env: Mapping[str, float] | None = None
                       ) -> tuple[list[Expr], list[list[Expr]]] | None:
    """Solve A x = b over the expression field.

    Returns (particular solution with free coordinates set to 0,
    nullspace basis of A), or None when the system is inconsistent.
    """
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    aug = [list(row) + [Mul(Const(Fraction(-1)), rhs[i])]
           for i, row in enumerate(matrix)]
    rows, pivots = rref_exprs(aug, ref_env)
    if ncols in pivots:
        return None
    part: list[Expr] = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        part[pc] = normalize(Div(Mul(Const(Fraction(-1)), rows[r][ncols]),
                                 rows[r][pc]))
    return part, nullspace_exprs(matrix, ref_env)


def linear_decompose(e: Expr, unknowns: Sequence[str]
                     ) -> tuple[dict[str, Expr], Expr]:
    """Write e as sum(c_u * u) + r with c_u and r free of the unknowns.

    Raises SymxError if e is not affine in the unknowns.
    """
    coeffs: dict[str, Expr] = {}
    uset = set(unknowns)
    for u in unknowns:
        c = normalize(diff(e, u))
        if free_symbols(c) & uset:
            raise SymxError(f"expression is not affine in '{u}'")
        if c != ZERO:
            coeffs[u] = c
    rest = e
    for u, c in coeffs.items():
        rest = Sub(rest, Mul(c, Sym(u)))
    rest = normalize(rest)
    if free_symbols(rest) & uset:
        raise SymxError("expression is not affine in the unknowns")
    return coeffs, rest


def polynomial_terms(e: Expr, split_on: Iterable[str]
                     ) -> dict[Mono, Expr]:
    """Group a polynomial expression by monomials in the given symbols.

    The expression must normalize to a polynomial whose denominator is
    free of the split symbols. Returns {monomial in split symbols:
    coefficient Expr over the remaining atoms}, with monomials as
    sorted (name, exponent) tuples.
    """
    split = set(split_on)
    atoms: dict[str, Expr] = {}
    num, den = _ratform(e, atoms)
    for m in den:
        if any(a in split for a, _ in m):
            raise SymxError("denominator involves split symbols")
    den_e = _poly_to_expr(den, atoms) if den != _P_ONE else None
    groups: dict[Mono, Poly] = {}
    for mono, coef in num.items():
        key = tuple((a, k) for a, k in mono if a in split)
        rest = tuple((a, k) for a, k in mono if a not in split)
        g = groups.setdefault(key, {})
        g[rest] = g.get(rest, Fraction(0)) + coef
    out: dict[Mono, Expr] = {}
    for key, poly in groups.items():
        poly = {m: c for m, c in poly.items() if c}
        if not poly:
            continue
        ce = _poly_to_expr(poly, atoms)
        if den_e is not None:
            ce = normalize(Div(ce, den_e))
        out[key] = ce
    return out
