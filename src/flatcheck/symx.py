"""Symbolic expression engine for control-system analysis.

Immutable expression trees over declared state variables and parameters,
with exact rational constants. Provides parsing from a small infix
grammar, exact differentiation, an expanded rational normal form that
decides zero for polynomial and rational expressions, and numeric
evaluation.

The normal form keeps a single numerator and denominator, each an
expanded multivariate polynomial with monomials in a fixed graded
order and a monic denominator. Transcendental subexpressions (sin,
cos, exp, sqrt) are treated as opaque atoms keyed by their normalized
argument, so zero recognition is exact precisely on the rational part
of the algebra.

Numeric evaluation has one path: trees are compiled to Python source
(compile_fns, compile_fn) that computes in floats with Python's
operators and numpy's sin, cos, exp and sqrt. Frame.evaluator compiles
it as one loop over a batch of points of a chart, one row each, on
Python floats, under one error contract: division by zero, overflow,
domain errors and non-finite values raise EvalError naming the first
failing row. A single point is a one-row batch; eval_at is that case
for one expression.

Caching follows one rule: an object keeps what it evaluates (diffgeo's
fields and forms keep their values per point set), and a command keeps
what it compiles. Generated functions are kept by source for one
compile_scope(), which a command (cli.run), an elimination and a
reconstruction open; an inner entry reuses the open scope, so each
distinct source compiles once in it, and nothing is kept once the
outermost scope closes.

Linear algebra over the rational-function field eliminates on the
normal form's (numerator, denominator) polynomial pairs, and every
entry equals normalize of the tree the update stands for.
rref_exprs, nullspace_exprs and solve_affine_exprs take and return
trees: each entry is converted in once and each result out once.
Ansatz solves for the coefficients of h = sum(c_k * m_k), over given
state monomials, that make <dh, X> equal a given value identically in
the states (chained's output-pair search): it builds and solves those
conditions on pairs, and returns only trees.

Every normal form this module returns (from normalize, fold, the
linear algebra, linear_decompose, polynomial_terms and Ansatz.expr)
leaves through one exit, _from_pair, and carries its pair, so a later
fold or diff of it reads the pair instead of walking the tree again.
Trees without a pair come only from the parser, subst, diff and the
operators.

Only this module handles pairs: every other module reaches the normal
form through trees and the public functions (normalize, fold, the
linear algebra and Ansatz), and imports neither an underscore name nor
the pair types Poly, Pair and Mono.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
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
    a domain/overflow error. From a batch (Frame.evaluator), row is
    the index of the first failing row and done the values of the rows
    before it; both are None otherwise."""

    def __init__(self, message: str, row: int | None = None,
                 done: "np.ndarray | None" = None):
        super().__init__(message)
        self.row = row
        self.done = done


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

    # (num, den, atoms) of a tree built by normalize or diff; see the
    # "Normal form" notes below
    _pair = None

    # a node's fields: the one that is not a node, if any, and the
    # child nodes
    _scalar: str | None = None
    _children: tuple[str, ...] = ()

    def __str__(self):
        return to_str(self)

    # Equality is structural: same class, same fields (the stored pair
    # takes no part). It and the hash walk the tree with a stack, not
    # by recursion, so a normal form of a long sum, a chain deeper
    # than the recursion limit, compares and hashes too.

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            if x is y:
                continue
            cls = type(x)
            if type(y) is not cls:
                return False
            dx, dy = x.__dict__, y.__dict__
            if cls._scalar is not None and dx[cls._scalar] != dy[cls._scalar]:
                return False
            stack += [(dx[k], dy[k]) for k in cls._children]
        return True

    def __hash__(self):
        """Each node keeps its hash once computed (as _hash)."""
        stack = [self]
        while stack:
            n = stack[-1]
            d = n.__dict__
            if "_hash" in d:
                stack.pop()
                continue
            cls = type(n)
            kids = [d[k] for k in cls._children]
            todo = [k for k in kids if "_hash" not in k.__dict__]
            if todo:
                stack += todo
                continue
            stack.pop()
            object.__setattr__(n, "_hash", hash((
                cls.__name__, d.get(cls._scalar),
                *[k.__dict__["_hash"] for k in kids])))
        return self.__dict__["_hash"]


# eq=False: the nodes take Expr's equality and hash
@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: Fraction
    _scalar = "value"

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True, eq=False)
class Sym(Expr):
    name: str
    _scalar = "name"


@dataclass(frozen=True, eq=False)
class Add(Expr):
    a: Expr
    b: Expr
    _children = ("a", "b")


@dataclass(frozen=True, eq=False)
class Sub(Expr):
    a: Expr
    b: Expr
    _children = ("a", "b")


@dataclass(frozen=True, eq=False)
class Mul(Expr):
    a: Expr
    b: Expr
    _children = ("a", "b")


@dataclass(frozen=True, eq=False)
class Div(Expr):
    a: Expr
    b: Expr
    _children = ("a", "b")


@dataclass(frozen=True, eq=False)
class Pow(Expr):
    base: Expr
    exp: int
    _scalar = "exp"
    _children = ("base",)


@dataclass(frozen=True, eq=False)
class Call(Expr):
    fn: str
    arg: Expr
    _scalar = "fn"
    _children = ("arg",)


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

    def point(self, coords: Sequence[float],
              params: Mapping[str, float] | None = None) -> "Point":
        return Point(self, tuple(float(c) for c in coords),
                     dict(params or {}))

    def evaluator(self, exprs: Sequence[Expr]
                  ) -> Callable[[np.ndarray | list, Mapping[str, float]],
                                np.ndarray]:
        """compile_fns for evaluation at a batch of points of this
        chart, under the error contract.

        The function takes the state coordinates of the points, one row
        each (a float array, or a list of rows of Python floats as
        point_rows gives), and the parameter bindings they share, and
        returns the (points, expressions) array of the values. Only the
        parameters the expressions use must be bound; a missing one
        fails the first row. One generated loop evaluates every row on
        Python floats in tree order, so each value is the float
        evaluating that row alone gives; a single point is a one-row
        batch, and a parameter gives the floats its value inlined as a
        literal would.

        The contract: the first failing row raises EvalError, for a
        division by zero, an overflow, a kernel's domain error (sqrt of
        a negative, say) or a non-finite value; numpy's kernels raise
        instead of warning, so nothing reaches stderr. The error's row
        is that row's index and its done the values of the rows before
        it, so a caller that skips failures resumes at the row after it
        (evaluable_rows).
        """
        used = frozenset().union(*map(free_symbols, exprs))
        params = tuple(p for p in self.params if p in used)
        fn, kernels = _generate(exprs, self.states + params, None, (),
                                False, carry=0)
        width = len(exprs)

        def evaluate(coords, bindings: Mapping[str, float]) -> np.ndarray:
            rows = (coords.tolist() if isinstance(coords, np.ndarray)
                    else coords)
            if params and rows:
                try:
                    values = tuple(float(bindings[p]) for p in params)
                except KeyError as exc:
                    raise EvalError(f"unbound symbol '{exc.args[0]}'", 0,
                                    np.empty((0, width))) from None
                rows = [(*r, *values) for r in rows]
            return _run_batch(fn, kernels, rows, width)

        return evaluate


def point_rows(points: Sequence["Point"]
               ) -> tuple[list[tuple[float, ...]], Mapping[str, float]]:
    """The coordinates of points, one tuple each, and the parameter
    bindings they all share: the arguments of a Frame.evaluator
    function. Points that bind different parameter values raise
    ValueError."""
    if not points:
        return [], {}
    params = points[0].params
    for q in points:
        if q.params is not params and q.params != params:
            raise ValueError("points in one batch bind different "
                             "parameter values")
    return [q.coords for q in points], params


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

    The result is a raw tree with no stored pair; fold gives the normal
    form of a derivative, without building this tree for a normal form
    with no kernel atom.
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
# A polynomial is a dict {monomial: coefficient} where a monomial is a
# sorted tuple of (atom key, exponent) pairs; the empty tuple is the
# constant monomial. Atom keys are symbol names or rendered kernel
# strings like "sin(x1)" whose arguments are already canonical.
#
# A coefficient is a Python int when it is integral, and a Fraction
# only when its denominator is not 1, so almost all of the arithmetic
# below runs on ints, in C. Every helper keeps that: a sum, product or
# scaling that a Fraction went into is turned back into its int when
# integral (_coef). int / int is a float, so every division of
# coefficients goes through Fraction (_canon, _constant_ratio). Trees
# never see the difference: Const holds a Fraction either way.
#
# _ratform cross-multiplies by the denominators in every Add, Sub, Mul
# and Div (the rules _add, _sub, _mul, _div), and almost every
# denominator is the unit polynomial. _p_mul returns the other operand
# as it is when one operand is the unit (the same polynomial, since
# c*1 == c and m*() == m), and _add and _sub do so for a zero ({}, 1),
# so those cost nothing. fold goes further: a term whose pair is known
# to be ({}, 1) before it is formed (a zero coefficient or operand, all
# denominators units; see fold) is never multiplied out, and a zero
# derivative of a constant, a symbol or a polynomial stored pair is
# not even computed. The helpers never mutate their arguments, which
# is what makes sharing safe.
#
# A normal form this module returns carries the pair it was built from,
# as (num, den, atoms) in its private _pair, atoms naming every atom
# the pair uses (and possibly more); _from_pair, the one exit, stores
# it. The invariant: a stored pair is exactly what _ratform
# computes by walking the tree, up to the order of the dict entries,
# which nothing reads. A stored pair is never zero: a zero normal form
# is the constant ZERO, which carries none. _ratform returns the pair
# instead of walking, so normal forms are not expanded again each time
# they enter a sum or product. Leaves carry none, and stored pairs
# share their dicts with each other and with _ratform's results, so no
# helper may mutate a pair it is given.
#
# So normalize of arithmetic on normal forms needs no tree: fold
# applies the rules to the operands' pairs and builds only the
# result's tree. The elimination below, linear_decompose,
# polynomial_terms and Ansatz work on pairs the same way, and their
# results leave through _from_pair too.
# ---------------------------------------------------------------------------

Mono = tuple[tuple[str, int], ...]
Poly = dict[Mono, int | Fraction]  # see the "Normal form" notes
Pair = tuple[Poly, Poly]  # numerator, denominator

_P_ONE: Poly = {(): 1}
_ZERO_PAIR: Pair = ({}, _P_ONE)
_ONE_PAIR: Pair = (_P_ONE, _P_ONE)


def _coef(c: int | Fraction) -> int | Fraction:
    """c as a coefficient: its int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    """The product of two monomials: a merge of the sorted tuples, with
    the exponents of a shared atom added; an empty operand returns the
    other."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i1, i2 = iter(m1), iter(m2)
    x, y = next(i1), next(i2)
    while True:
        a, b = x[0], y[0]
        if a == b:
            out.append((a, x[1] + y[1]))
            x, y = next(i1, None), next(i2, None)
            if x is None or y is None:
                break
        elif a < b:
            out.append(x)
            x = next(i1, None)
            if x is None:
                break
        else:
            out.append(y)
            y = next(i2, None)
            if y is None:
                break
    if x is not None:
        out.append(x)
        out += i1
    if y is not None:
        out.append(y)
        out += i2
    return tuple(out)


def _mono_key(m: Mono):
    return (sum(k for _, k in m), m)


def _p_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        nc = out.get(m)
        nc = c if nc is None else nc + c
        if type(nc) is Fraction:
            nc = _coef(nc)
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def _p_neg(p: Poly) -> Poly:
    return {m: -c for m, c in p.items()}


def _p_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return {}
    if len(q) == 1 and q.get(()) == 1:
        return p
    if len(p) == 1 and p.get(()) == 1:
        return q
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            nc = out.get(m)
            nc = c1 * c2 if nc is None else nc + c1 * c2
            if type(nc) is Fraction:
                nc = _coef(nc)
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def _p_scale(p: Poly, c: int | Fraction) -> Poly:
    if not c:
        return {}
    return {m: _coef(v * c) for m, v in p.items()}


def _p_diff(p: Poly, v: str) -> Poly:
    """d/dv of p; distinct monomials stay distinct, so no two terms
    meet."""
    out: Poly = {}
    for m, c in p.items():
        for i, (a, k) in enumerate(m):
            if a == v:
                rest = ((v, k - 1),) if k > 1 else ()
                out[m[:i] + rest + m[i + 1:]] = _coef(c * k)
                break
    return out


def _p_pow(p: Poly, k: int) -> Poly:
    out = _P_ONE
    base = p
    while k:
        if k & 1:
            out = _p_mul(out, base)
        base = _p_mul(base, base) if k > 1 else base
        k >>= 1
    return out


def _add(a: Pair, b: Pair) -> Pair:
    (pa, qa), (pb, qb) = a, b
    if not pb and _is_one(qb):
        return a
    if not pa and _is_one(qa):
        return b
    return _p_add(_p_mul(pa, qb), _p_mul(pb, qa)), _p_mul(qa, qb)


def _sub(a: Pair, b: Pair) -> Pair:
    return _add(a, (_p_neg(b[0]), b[1]))


def _mul(a: Pair, b: Pair) -> Pair:
    return _p_mul(a[0], b[0]), _p_mul(a[1], b[1])


def _div(a: Pair, b: Pair) -> Pair:
    (pa, qa), (pb, qb) = a, b
    if not pb:
        raise SymxError("division by an identically zero expression")
    return _p_mul(pa, qb), _p_mul(qa, pb)


_RULES = {Add: _add, Sub: _sub, Mul: _mul, Div: _div}


def _ratform(e: Expr, atoms: dict[str, Expr]) -> Pair:
    if isinstance(e, Const):
        return ({(): _coef(e.value)} if e.value else {}), _P_ONE
    if isinstance(e, Sym):
        atoms.setdefault(e.name, e)
        return {((e.name, 1),): 1}, _P_ONE
    stored = getattr(e, "_pair", None)  # TypeError below for a non-Expr
    if stored is not None:
        num, den, used = stored
        for key, a in used.items():
            atoms.setdefault(key, a)
        return num, den
    rule = _RULES.get(type(e))
    if rule is not None:
        return rule(_ratform(e.a, atoms), _ratform(e.b, atoms))
    if isinstance(e, Pow):
        p, q = _ratform(e.base, atoms)
        pair = _p_pow(p, abs(e.exp)), _p_pow(q, abs(e.exp))
        return pair if e.exp >= 0 else _div(_ONE_PAIR, pair)
    if isinstance(e, Call):
        if e.fn not in FUNCTIONS:
            raise SymxError(f"unknown function '{e.fn}'")
        arg = normalize(e.arg)
        key = f"{e.fn}({to_str(arg)})"
        atoms.setdefault(key, Call(e.fn, arg))
        return {((key, 1),): 1}, _P_ONE
    raise TypeError(f"not an Expr: {e!r}")


def _pair_diff(e: Expr, v: str) -> Pair | None:
    """The pair _ratform gives walking diff(e, v), from e's stored pair
    (N, D): (dN, 1) when D is 1, else (dN*D - N*dD, D^2), unreduced as
    the walk leaves it (normalize's trees and their derivatives are a
    polynomial tree or one Div of two); None when e has no pair or a
    kernel atom."""
    if e._pair is None or any(isinstance(a, Call)
                              for a in e._pair[2].values()):
        return None
    num, den, _ = e._pair
    dnum = _p_diff(num, v)
    if _is_one(den):
        return dnum, _P_ONE
    return (_p_add(_p_mul(dnum, den), _p_neg(_p_mul(num, _p_diff(den, v)))),
            _p_mul(den, den))


def _dpair(e: Expr, v: str, atoms: dict[str, Expr]) -> Pair:
    """_ratform(diff(e, v), atoms), without building diff's tree for a
    constant, a symbol, or when _pair_diff gives the pair; then it adds
    all of e's stored atoms, a superset of those the walk would add."""
    if isinstance(e, (Const, Sym)):
        return _ONE_PAIR if getattr(e, "name", None) == v else _ZERO_PAIR
    pair = _pair_diff(e, v)
    if pair is None:
        return _ratform(diff(e, v), atoms)
    for key, a in e._pair[2].items():
        atoms.setdefault(key, a)
    return pair


def _dzero(e: Expr, v: str, atoms: dict[str, Expr]) -> bool | None:
    """Whether _dpair(e, v, atoms) is ({}, 1), when its denominator is
    known to be the unit without computing it: for a constant, a
    symbol, or a stored pair with a unit denominator and no kernel
    atom (a zero then when v is none of its atoms). It adds the atoms
    _dpair adds; None, adding none, for any other e."""
    if isinstance(e, Const):
        return True
    if isinstance(e, Sym):
        return e.name != v
    stored = e._pair
    if (stored is None or not _is_one(stored[1])
            or any(isinstance(a, Call) for a in stored[2].values())):
        return None
    for key, a in stored[2].items():
        atoms.setdefault(key, a)
    return v not in stored[2]


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


def _constant_ratio(num: Poly, den: Poly) -> int | Fraction | None:
    """Return c when num == c * den termwise, else None. Cheap stand-in
    for the p/p reductions a full gcd would give. The terms are
    compared by cross-multiplication, so ints stay ints."""
    if len(num) != len(den):
        return None
    first = None
    for mono, c in num.items():
        d = den.get(mono)
        if d is None:
            return None
        if first is None:
            first = c, d
        elif c * first[1] != first[0] * d:
            return None
    return None if first is None else _coef(Fraction(first[0]) / first[1])


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


def _is_one(p: Poly) -> bool:
    return len(p) == 1 and p.get(()) == 1


def _canon(num: Poly, den: Poly) -> Pair:
    """The pair behind normalize's tree: zero as ({}, 1), the shared
    monomial content divided out, a constant quotient as (c, 1),
    otherwise a monic denominator. A pair with a unit denominator is
    already all of that. Zero and unit denominators come back as the
    shared _ZERO_PAIR and _P_ONE, so a large sparse matrix of pairs
    holds no copy of either."""
    if not num:
        return _ZERO_PAIR
    if _is_one(den):
        return num, _P_ONE
    num, den = _cancel_content(num, den)
    ratio = _constant_ratio(num, den)
    if ratio is not None:
        return {(): ratio}, _P_ONE
    lc = den[max(den, key=_mono_key)]
    if lc != 1:
        inv = Fraction(1) / lc
        num = _p_scale(num, inv)
        den = _p_scale(den, inv)
    return num, den


def _pair_to_expr(num: Poly, den: Poly, atoms: dict[str, Expr]) -> Expr:
    """The tree of a pair from _canon."""
    num_e = _poly_to_expr(num, atoms)
    if _is_one(den):
        return num_e
    return Div(num_e, _poly_to_expr(den, atoms))


def _from_pair(pair: Pair, atoms: dict[str, Expr]) -> Expr:
    """normalize's tree, and its stored pair, for a pair _ratform would
    give over atoms: the one exit of every normal form this module
    returns."""
    num, den = _canon(*pair)
    out = _pair_to_expr(num, den, atoms)
    if not isinstance(out, (Const, Sym, Call)):
        object.__setattr__(out, "_pair", (num, den, atoms))
    return out


def normalize(e: Expr) -> Expr:
    """Expanded rational normal form.

    Returns a structurally canonical tree num/den where both parts are
    expanded polynomials over symbol and kernel atoms, the denominator
    is monic in the graded monomial order, and a zero numerator yields
    the constant 0. Idempotent: normalize(normalize(e)) equals
    normalize(e) structurally. The tree carries its pair (see the
    "Normal form" notes), unless it is a single atom or constant.
    """
    atoms: dict[str, Expr] = {}
    return _from_pair(_ratform(e, atoms), atoms)


def fold(terms: Iterable[tuple[int, Expr | None, Expr, str | None]]
         ) -> Expr:
    """normalize(ZERO ± t1 ± t2 ...), tree and stored pair alike,
    folded on pairs: no tree of the sum is built, nor of a derivative
    of a normal form with no kernel atom (_dpair).

    Each term (sign, a, e, v) is sign * a * de/dv, as the tree
    Mul(a, diff(e, v)); a is None for no coefficient, v None for no
    derivative, and a sign > 0 adds the term, any other subtracts it.
    The rules, which make the result exactly normalize's:
    - fold left from ZERO in the given order, as `acc = acc ± term`
      builds the sum, with each operand's _ratform pair (_dpair for a
      derivative) taken in the order _ratform walks the tree;
    - leave a term out only when its pair is exactly ({}, 1): a zero
      over D still multiplies the sum's denominator by D. It is known
      to be, without multiplying, when the coefficient's and the
      operand's denominators are units and one of the two numerators
      is empty; for a derivative, that is known without computing it
      when e is a constant, a symbol, or a stored pair with a unit
      denominator and no kernel atom (_dzero). A term left out still
      adds the atoms its operands' pairs would;
    - use a fresh atoms dict, as normalize does, so that no kernel
      atom of another result sends this one's derivatives down the
      walk;
    - finish with _from_pair (a zero numerator gives ZERO).
    """
    atoms: dict[str, Expr] = {}
    acc = _ZERO_PAIR
    for sign, a, e, v in terms:
        c = None if a is None else _ratform(a, atoms)
        pair = _ratform(e, atoms) if v is None else None
        if c is None or _is_one(c[1]):
            if pair is None:
                zero = _dzero(e, v, atoms)
            else:
                zero = not pair[0] if _is_one(pair[1]) else None
            if zero is not None and (zero or c is not None and not c[0]):
                continue
        if pair is None:
            pair = _dpair(e, v, atoms)
        if c is not None:
            pair = _mul(c, pair)
        acc = _add(acc, pair) if sign > 0 else _sub(acc, pair)
    return _from_pair(acc, atoms)


def is_zero(e: Expr) -> bool:
    """Exact zero test on the rational normal form; a tree that carries
    a stored pair is a nonzero normal form, not normalized again."""
    return getattr(e, "_pair", None) is None and normalize(e) == ZERO


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _kernel(ufunc) -> Callable:
    """A numpy function that returns a Python float for a Python float,
    so scalar generated code stays on plain floats; the value is
    numpy's either way."""
    def kernel(x):
        r = ufunc(x)
        return float(r) if type(x) is float else r
    return kernel


_KERNELS = {f"_{name}": _kernel(getattr(np, name)) for name in FUNCTIONS}

_OPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}

# Deepest nesting in one generated expression; a deeper subexpression
# is bound to a local first. CPython rejects more than 200 nested
# parentheses, and its compiler recurses once per nesting level.
_MAX_NEST = 50


def _literal(x: float) -> str:
    return f"({x!r})" if x < 0 else repr(x)


# generated source -> (function, calls a kernel), for the compile_scope()
# open in this context (thread or task); unset outside one
_compiled: ContextVar[dict] = ContextVar("_compiled")


@contextmanager
def compile_scope():
    """Within the block (or the call, as a decorator), a source already
    compiled is not compiled again: _generate returns the function it
    made for it. An entry inside an open scope reuses that scope, and
    the outermost exit drops it, so no function outlives the work that
    opened it (a command, an elimination, a reconstruction). Outside a
    scope every call compiles. A scope belongs to the thread or task
    that opened it."""
    token = _compiled.set(_compiled.get({}))
    try:
        yield
    finally:
        _compiled.reset(token)


def _generate(exprs: Sequence[Expr], order: Sequence[str],
              consts: Mapping[str, float] | None,
              lets: Sequence[tuple[str, Expr]], single: bool,
              carry: int | None = None) -> tuple[Callable, bool]:
    """The generated function, and whether it calls a kernel; with
    carry, the loop form of compile_fns (carry = 0: fn(rows, out),
    nothing carried). Inside compile_scope() each distinct source
    compiles once."""
    consts = dict(consts or {})
    args = [f"_v{i}" for i in range(len(order))]
    names = dict(zip(order, args))
    ind = "    "
    if carry is not None:
        rows, carried = args[:len(args) - carry], args[len(args) - carry:]
        lines = (["def _fn(rows, y, out):", f"{ind}{', '.join(carried)}, = y"]
                 if carry else ["def _fn(rows, out):"])
        lines.append(f"{ind}for {''.join(a + ', ' for a in rows) or '_'} "
                     "in rows:")
        ind += "    "
    else:
        lines = ["def _fn(v):"]
        if args:
            lines.append(f"{ind}{', '.join(args)}, = v")
    kernels = False

    def emit(n: Expr) -> tuple[str, int]:
        nonlocal kernels
        if isinstance(n, Const):
            return _literal(float(n.value)), 0
        if isinstance(n, Sym):
            if n.name in names:
                return names[n.name], 0
            if n.name in consts:
                return _literal(float(consts[n.name])), 0
            raise EvalError(f"unbound symbol '{n.name}' in compile_fn")
        if isinstance(n, Pow):
            base, depth = emit(n.base)
            text = f"({base} ** {n.exp})"
        elif isinstance(n, Call):
            kernels = True
            arg, depth = emit(n.arg)
            text = f"_{n.fn}({arg})"
        elif type(n) in _OPS:
            (a, da), (b, db) = emit(n.a), emit(n.b)
            text, depth = f"({a} {_OPS[type(n)]} {b})", max(da, db)
        else:
            raise TypeError(f"not an Expr: {n!r}")
        if depth + 1 < _MAX_NEST:
            return text, depth + 1
        tmp = f"_t{len(lines)}"
        lines.append(f"{ind}{tmp} = {text}")
        return tmp, 0

    for j, (name, e) in enumerate(lets):
        if name in names:
            raise ValueError(f"let name '{name}' is already bound")
        lines.append(f"{ind}_l{j} = {emit(e)[0]}")
        names[name] = f"_l{j}"
    outs = [emit(e)[0] for e in exprs]
    tup = f"({''.join(o + ', ' for o in outs)})"
    if carry:
        # every output is computed before the carried names change
        targets = carried + ["_"] * (len(exprs) - carry)
        lines += [f"{ind}{', '.join(targets)}, = _o = {tup}",
                  f"{ind}out.append(_o)"]
    elif carry is not None:
        lines.append(f"{ind}out.append({tup})")
    else:
        lines.append(f"{ind}return {outs[0] if single else tup}")
    src = "\n".join(lines)
    kept = _compiled.get({})
    if src not in kept:
        scope = dict(_KERNELS)
        exec(src, scope)  # noqa: S102 (generated from trusted trees)
        # popped, so that the function and its globals form no cycle
        kept[src] = scope.pop("_fn"), kernels
    return kept[src]


def compile_fns(exprs: Sequence[Expr], order: Sequence[str],
                consts: Mapping[str, float] | None = None,
                lets: Sequence[tuple[str, Expr]] = (),
                carry: int = 0) -> Callable:
    """Compile several expressions into one function for hot loops.

    The function takes v, one value per name in order, and returns the
    tuple of the expressions' values. lets are (name, expression)
    bindings evaluated once, in sequence, before the outputs; each may
    use order, consts and the lets before it, and the outputs may use
    them all. consts are inlined numerically. Every operation is
    emitted in tree order with Python operators and numpy's scalar
    functions, so the function maps over arrays elementwise and, on
    scalars, gives the same floats as evaluating each tree on its own.
    It has no error contract of its own: on Python floats a division by
    zero raises ZeroDivisionError, on arrays it gives inf or nan.
    Frame.evaluator adds the contract.

    With carry = c > 0 it is a loop instead: fn(rows, y, out), where y
    gives the last c names of order and each row of rows the others.
    For each row in turn it appends the tuple of the outputs to out
    and carries their first c values on as y, so one call steps a
    recurrence over many rows with its state in local variables. An
    exception leaves out holding the rows finished before it.
    """
    return _generate(exprs, order, consts, lets, False, carry or None)[0]


def compile_fn(e: Expr, order: Sequence[str],
               consts: Mapping[str, float] | None = None) -> Callable:
    """The one-expression case of compile_fns: returns the value, not
    a tuple. Inside compile_scope() a call whose generated source was
    compiled before returns that function."""
    return _generate((e,), order, consts, (), True)[0]


def _run_batch(fn: Callable, kernels: bool, rows: list,
               width: int) -> np.ndarray:
    """One call of a carry-0 loop over rows of Python floats, under
    Frame.evaluator's contract."""
    out: list[tuple[float, ...]] = []
    error = None
    try:
        if kernels:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                fn(rows, out)
        else:
            fn(rows, out)
    except (ZeroDivisionError, OverflowError, FloatingPointError) as exc:
        error = str(exc)  # the row len(out) raised it
    vals = np.fromiter(itertools.chain.from_iterable(out), float,
                       len(out) * width).reshape(len(out), width)
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():  # an earlier row gave inf or nan
        row = int(np.argmin(finite))
        raise EvalError("non-finite value", row, vals[:row])
    if error is not None:
        raise EvalError(error, len(out), vals)
    return vals


def evaluable_rows(evaluate: Callable[[Sequence], np.ndarray],
                   rows: Sequence) -> tuple[list[int], np.ndarray]:
    """A batch function under Frame.evaluator's contract over rows,
    resuming after each failing row: the indices of the rows that
    evaluate, and their values."""
    kept, parts, start = [], [], 0
    while True:
        try:
            parts.append(evaluate(rows[start:]))
        except EvalError as exc:
            if exc.row is None:
                raise
            parts.append(exc.done)
            kept.extend(range(start, start + exc.row))
            start += exc.row + 1
        else:
            kept.extend(range(start, len(rows)))
            return kept, np.concatenate(parts)


def eval_at(e: Expr, at: "Point | Mapping[str, float]") -> float:
    """Evaluate one expression at a point (or a plain symbol-to-value
    mapping): the one-expression, one-row case of Frame.evaluator, for
    one-off sites. Deterministic for fixed bindings; errors as in
    Frame.evaluator, and an unbound symbol raises EvalError too.
    """
    env = at.env() if isinstance(at, Point) else at
    return float(_values_at((e,), env)[0])


def _values_at(exprs: Sequence[Expr], env: Mapping[str, float]
               ) -> np.ndarray:
    """The values of exprs at one symbol-to-value mapping: a one-row
    batch under Frame.evaluator's contract, its names in env's order."""
    fn, kernels = _generate(exprs, tuple(env), None, (), False, 0)
    row = np.asarray([list(env.values())], dtype=float).tolist()
    return _run_batch(fn, kernels, row, len(exprs))[0]


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
# Entries are (num, den) Poly pairs inside. The tree interface
# (rref_exprs, solve_affine_exprs, and nullspace_exprs, which is
# solve_affine_exprs for b = 0) converts each entry once on the way in,
# by _ratform and _canon, into the pair behind its normal form, and
# each result once on the way out, through _from_pair, so it keeps its
# pair. Ansatz builds its rows as pairs and enters _solve_affine_pairs
# with them, and its callers hold the rows and solutions without
# looking inside; no pair leaves this module but as a tree's stored
# pair. Either way trees are built inside only for the pivot candidates
# of a column that must be evaluated, and for the results.
#
# Elimination is fraction-free: row i becomes piv*row_i - e*pivot_row,
# e being row i's entry in the pivot column, so polynomial entries stay
# polynomial. Each new entry is the pair _ratform gives for the tree
# Sub(Mul(piv, a), Mul(e, b)) over the normal forms of its operands,
# (pn*an*ed*bd - en*bn*pd*ad, pd*ad*ed*bd), put through _canon; so it
# is the pair of normalize of that tree. normalize has no gcd and is
# not canonical, so a different but equal fraction (dropping pd*ad when
# a is zero, say) would print differently; the only short cut taken is
# that an entry with a and b both zero stays zero. Solution entries
# follow Div(Mul(Const(-1), x), p) the same way, and a null basis
# vector's free coordinate is the pair of 1.
#
# Pivots must be symbolically nonzero and are picked by largest
# magnitude at a numeric reference environment when one is given,
# matching the convention used for annihilator construction. A pivot
# choice and an update in column j read only the pivot column and
# column j, so eliminating [A | -b] also eliminates A: its first
# columns are A's reduced rows.
# ---------------------------------------------------------------------------

class PivotError(SymxError):
    """No usable pivot: entries vanish symbolically or at the
    reference point."""


# a pivot whose magnitude at the reference point is at most this
# counts as vanishing there
PIVOT_TOL = 1e-12


def _pairs_in(matrix: Sequence[Sequence[Expr]],
              atoms: dict[str, Expr]) -> list[list[Pair]]:
    return [[_canon(*_ratform(x, atoms)) for x in row] for row in matrix]


def _pivot_row(rows: list[list[Pair]], col: int, start: int, ref_env,
               atoms: dict[str, Expr]):
    cands = [i for i in range(start, len(rows)) if rows[i][col][0]]
    if not cands or ref_env is None:
        return cands[0] if cands else None
    pairs = [rows[i][col] for i in cands]
    if all(_is_one(den) and () in num and len(num) == 1
           for num, den in pairs):
        # constants: the floats the generated literals would hold
        mags = [abs(float(num[()])) for num, _ in pairs]
    else:
        entries = [_from_pair(p, atoms) for p in pairs]
        try:
            mags = np.abs(_values_at(entries, ref_env)).tolist()
        except EvalError:
            # an entry that fails at the reference point counts as zero
            mags = []
            for entry in entries:
                try:
                    mags.append(abs(eval_at(entry, ref_env)))
                except EvalError:
                    mags.append(0.0)
    best, best_mag = None, 0.0
    for i, mag in zip(cands, mags):
        if mag > best_mag:
            best, best_mag = i, mag
    if best is None or best_mag <= PIVOT_TOL:
        raise PivotError(f"pivot in column {col} vanishes at the reference point")
    return best


def _update(piv: Pair, e: Pair, a: Pair, b: Pair) -> Pair:
    """The pair of normalize(Sub(Mul(piv, a), Mul(e, b)))."""
    if not a[0] and not b[0]:
        return _ZERO_PAIR
    return _canon(*_sub(_mul(piv, a), _mul(e, b)))


@compile_scope()
def _eliminate(rows: list[list[Pair]], ref_env,
               atoms: dict[str, Expr]) -> list[int]:
    """Reduce rows in place; returns the pivot columns. A later pivot
    search can meet the candidate entries of an earlier one again, so
    the elimination is one compile_scope()."""
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0])):
        if r >= len(rows):
            break
        i = _pivot_row(rows, c, r, ref_env, atoms)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        piv = prow[c]
        for i, row in enumerate(rows):
            if i == r or not row[c][0]:
                continue
            e = row[c]
            rows[i] = [_update(piv, e, a, b) for a, b in zip(row, prow)]
        pivots.append(c)
        r += 1
    return pivots


def _solution_pair(x: Pair, p: Pair) -> Pair:
    """The pair of normalize(Div(Mul(Const(-1), x), p))."""
    return _canon(*_div((_p_neg(x[0]), x[1]), p))


def _null_pairs(rows: list[list[Pair]], pivots: list[int],
                ncols: int) -> list[list[Pair]]:
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [_ZERO_PAIR] * ncols
        v[fc] = _ONE_PAIR
        for r, pc in enumerate(pivots):
            v[pc] = _solution_pair(rows[r][fc], rows[r][pc])
        basis.append(v)
    return basis


def _exprs(pairs: Sequence[Pair], atoms: dict[str, Expr]) -> list[Expr]:
    return [_from_pair(x, atoms) for x in pairs]


def rref_exprs(matrix: Sequence[Sequence[Expr]],
               ref_env: Mapping[str, float] | None = None
               ) -> tuple[list[list[Expr]], list[int]]:
    """Fraction-free reduced row echelon form over the expression field.

    Returns the reduced rows (pivot entries not rescaled to 1), each
    entry normalized, and the pivot column indices.
    """
    atoms: dict[str, Expr] = {}
    rows = _pairs_in(matrix, atoms)
    if not rows:
        return [], []
    pivots = _eliminate(rows, ref_env, atoms)
    return [_exprs(row, atoms) for row in rows], pivots


def nullspace_exprs(matrix: Sequence[Sequence[Expr]],
                    ref_env: Mapping[str, float] | None = None
                    ) -> list[list[Expr]]:
    """Basis of the right nullspace, one vector per free column.

    The free coordinate of each basis vector is 1; the others are
    rational functions, normalized. It is solve_affine_exprs's basis
    for b = 0: no pivot search finds a candidate in the zero column, so
    the elimination takes A's pivots.
    """
    return solve_affine_exprs(matrix, [ZERO] * len(matrix), ref_env)[1]


def _solve_affine_pairs(rows: Sequence[list[Pair]], ncols: int,
                        ref_env: Mapping[str, float] | None,
                        atoms: dict[str, Expr]
                        ) -> tuple[list[Pair], list[list[Pair]]] | None:
    """solve_affine_exprs on pairs: rows are [A | -b], ncols + 1 pairs
    each, every one as _canon gives it, over atoms (which must name
    every atom in them). rows itself is left as it is.

    Returns the pairs of the particular solution, free coordinates 0,
    and of the nullspace basis of A, or None when the system is
    inconsistent. With no rows, that is 0 and the unit vectors.
    """
    rows = list(rows)
    pivots = _eliminate(rows, ref_env, atoms) if rows else []
    if ncols in pivots:
        return None
    part = [_ZERO_PAIR] * ncols
    for r, pc in enumerate(pivots):
        part[pc] = _solution_pair(rows[r][ncols], rows[r][pc])
    return part, _null_pairs(rows, pivots, ncols)


def solve_affine_exprs(matrix: Sequence[Sequence[Expr]],
                       rhs: Sequence[Expr],
                       ref_env: Mapping[str, float] | None = None
                       ) -> tuple[list[Expr], list[list[Expr]]] | None:
    """Solve A x = b over the expression field.

    Returns (particular solution with free coordinates set to 0,
    nullspace basis of A), or None when the system is inconsistent.
    One elimination of [A | -b] gives both.
    """
    if not matrix:
        return [], []
    atoms: dict[str, Expr] = {}
    rows = _pairs_in([list(row) + [Mul(Const(Fraction(-1)), rhs[i])]
                      for i, row in enumerate(matrix)], atoms)
    sol = _solve_affine_pairs(rows, len(matrix[0]), ref_env, atoms)
    if sol is None:
        return None
    part, null = sol
    return _exprs(part, atoms), [_exprs(v, atoms) for v in null]


def linear_decompose(e: Expr, unknowns: Sequence[str]
                     ) -> tuple[dict[str, Expr], Expr]:
    """Write e as sum(c_u * u) + r with c_u and r free of the unknowns.

    c_u and r are read off the pair behind normalize(e): its numerator's
    terms grouped by their monomial in the unknowns, each group over
    the common denominator. Raises SymxError if e is not affine in the
    unknowns: an unknown in the denominator, in a term of degree 2 or
    more, or inside a kernel's argument.
    """
    uset = set(unknowns)
    atoms: dict[str, Expr] = {}
    num, den = _canon(*_ratform(e, atoms))
    kernels = {key for key, a in atoms.items()
               if isinstance(a, Call) and free_symbols(a) & uset}
    split = uset | kernels
    if any(a in split for mono in den for a, _ in mono):
        raise SymxError("expression is not affine in the unknowns")
    groups = _split_terms(num, split)
    for key in groups:
        if key and (len(key) > 1 or key[0][0] in kernels or key[0][1] > 1):
            raise SymxError("expression is not affine in the unknowns")
    coeffs = {u: _from_pair((groups[((u, 1),)], den), atoms)
              for u in unknowns if ((u, 1),) in groups}
    rest = _from_pair((groups.get((), {}), den), atoms)
    return coeffs, rest


def _split_terms(num: Poly, split: set[str]) -> dict[Mono, Poly]:
    """num grouped by its monomials in the split atoms: {monomial in
    split: coefficient polynomial over the other atoms}."""
    groups: dict[Mono, Poly] = {}
    for mono, coef in num.items():
        key = tuple((a, k) for a, k in mono if a in split)
        rest = tuple((a, k) for a, k in mono if a not in split)
        groups.setdefault(key, {})[rest] = coef
    return groups


def _identity_rows(num: Poly, unknowns: list[str],
                   states: tuple[str, ...]) -> list[list[Pair]]:
    """Rows [A | -b] forcing num = 0 identically in the states.

    num must be affine in the unknowns. It is split by monomials in the
    states and the unknowns, and each state monomial contributes the
    row that makes its coefficient vanish: the unknowns' coefficients
    against the terms free of them (-b, since A x + (-b) = 0). The
    rows come in the graded order of their state monomials.
    """
    index = {u: k for k, u in enumerate(unknowns)}
    rows: dict[Mono, list[Pair]] = {}
    for mono, coeff in _split_terms(num, {*states, *unknowns}).items():
        key = tuple((a, k) for a, k in mono if a not in index)
        row = rows.setdefault(key, [_ZERO_PAIR] * (len(unknowns) + 1))
        linear = [(a, k) for a, k in mono if a in index]
        if not linear:
            row[-1] = (coeff, _P_ONE)
        elif len(linear) == 1 and linear[0][1] == 1:
            row[index[linear[0][0]]] = (coeff, _P_ONE)
        else:
            raise SymxError("expression is not affine in the unknowns")
    return [rows[key] for key in sorted(rows, key=_mono_key)]


def polynomial_terms(e: Expr, split_on: Iterable[str]
                     ) -> dict[Mono, Expr]:
    """Group a polynomial expression by monomials in the given symbols.

    The expression's denominator must be free of the split symbols.
    Returns {monomial in split symbols: coefficient Expr over the
    remaining atoms}, with monomials as sorted (name, exponent) tuples;
    each coefficient is the normal form of its numerator terms over the
    denominator, as linear_decompose reads them.
    """
    split = set(split_on)
    atoms: dict[str, Expr] = {}
    num, den = _ratform(e, atoms)
    for m in den:
        if any(a in split for a, _ in m):
            raise SymxError("denominator involves split symbols")
    return {key: _from_pair((poly, den), atoms)
            for key, poly in _split_terms(num, split).items()}


# ---------------------------------------------------------------------------
# Undetermined coefficients
#
# An Ansatz solves linear conditions on h = sum(c_k * m_k), for
# monomials m_k in the states, identically in the states, with the c_k
# in the field of the other atoms (parameters and kernels). It works on
# pairs, as the elimination above does, and no caller sees one: each
# pair is the one _canon(*_ratform(tree)) gives for the tree that
# builds the same sum out of Add and Mul nodes, left-nested from ZERO:
# the ansatz, its gradient, the pairings <dh, X> and the candidates h.
# So every h it returns is the tree normalize would give, with its
# pair. The unknowns are the atoms @c0, @c1, ..., names the parser
# cannot produce, so they meet no declared name.
# ---------------------------------------------------------------------------

class Ansatz:
    """h = sum(c_k * m_k) with unknown coefficients c_k, for monomials
    m_k in the states, each a sorted tuple of (state, exponent) pairs.

    rows gives the linear conditions on the c_k for one identity, solve
    solves a list of them and expr gives h for a solution. Rows and
    coefficient vectors are opaque: lists to concatenate, pick from and
    hand back.
    """

    def __init__(self, monomials: Sequence[Mono], states: Sequence[str]):
        self._states = tuple(states)
        self._unknowns = [f"@c{k}" for k in range(len(monomials))]
        self._monomials = [{m: 1} for m in monomials]
        h = {_mono_mul(((c, 1),), m): 1
             for c, m in zip(self._unknowns, monomials)}
        self._grads = [_p_diff(h, x) for x in self._states]
        self._atoms: dict[str, Expr] = {x: Sym(x) for x in self._states}

    @staticmethod
    def _sum(polys: Sequence[Poly], pairs: Sequence[Pair]) -> Pair:
        """ZERO + p_0*q_0 + p_1*q_1 + ..., for polynomials p_k."""
        acc = _ZERO_PAIR
        for p, q in zip(polys, pairs):
            acc = _add(acc, _mul((p, _P_ONE), q))
        return acc

    def rows(self, components: Sequence[Expr], value=0) -> list[list[Pair]]:
        """The conditions for <dh, X> = value identically in the
        states, where X has these components and value is an Expr or a
        number."""
        pairs = [_ratform(c, self._atoms) for c in components]
        pair = self._sum(self._grads, pairs)
        if value:
            pair = _sub(pair, _ratform(_coerce(value), self._atoms))
        return _identity_rows(_canon(*pair)[0], self._unknowns, self._states)

    def solve(self, rows: Sequence[list[Pair]],
              ref_env: Mapping[str, float] | None
              ) -> tuple[list[Pair], list[list[Pair]]] | None:
        """The particular coefficient vector (free coordinates 0) and
        the null vectors of the rows, with pivots picked at ref_env;
        None when the rows are inconsistent."""
        return _solve_affine_pairs(rows, len(self._unknowns), ref_env,
                                   self._atoms)

    def expr(self, *vectors: list[Pair]) -> Expr:
        """normalize's tree of h for the entrywise sum of the
        coefficient vectors; ZERO when that h vanishes."""
        coeffs = vectors[0]
        for v in vectors[1:]:
            coeffs = [_canon(*_add(a, b)) for a, b in zip(coeffs, v)]
        # a copy: rows() adds to self._atoms, and a stored dict stays as
        # it was stored
        return _from_pair(self._sum(self._monomials, coeffs),
                          dict(self._atoms))
