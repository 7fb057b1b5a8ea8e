"""Test-side companions of flatcheck.symx.

Reference implementations that tests compare the library against:

- the polynomial arithmetic with every coefficient a Fraction, whose
  product multiplies every pair of terms, even when one operand is the
  unit polynomial, and multiplies monomials through a dict and a sort,
  and the normalize built on it, kept to show that neither the
  unit-operand shortcut in `symx._p_mul`, nor its int coefficients,
  nor `symx._mono_mul`'s merge change a normal form;
- the recursive tree walker that evaluated expressions before every
  evaluation went through generated code, kept to show that the
  generated code computes the same floats and raises EvalError at the
  same points. Its kernels are math's by default; `NUMPY_FNS` gives it
  numpy's, which the library uses;
- the tree route of the exact linear algebra, which normalized an
  expression tree for every entry update and solved A x = b by
  eliminating [A | -b] and then A again, and the identity rows of the
  output-pair search built with polynomial_terms and linear_decompose,
  kept to show that elimination on (num, den) pairs returns the same
  trees and raises PivotError on the same inputs.

And checks only tests use: `equiv`, a probabilistic equivalence test,
`same_tree`, structural equality without recursion, `fold_atoms`, the
atoms a fold's stored pair names, and `fold`, what `symx.fold` gives
by building the tree its terms spell and normalizing it here.
"""

import math
from fractions import Fraction

import numpy as np

from flatcheck.symx import (Add, Call, Const, Div, EvalError, FUNCTIONS, Mul,
                            ONE_E, PivotError, Pow, Sub, Sym, SymxError,
                            ZERO, _cancel_content, _mono_key, _poly_to_expr,
                            _ratform, compile_fns, diff,
                            eval_at as lib_eval_at, free_symbols, is_zero,
                            linear_decompose, polynomial_terms, to_str)


ONE = {(): Fraction(1)}


def frac(p):
    """p with every coefficient a Fraction."""
    return {m: Fraction(c) for m, c in p.items()}


def mono_mul(m1, m2):
    """The product of two monomials, through a dict and a sort."""
    d = dict(m1)
    for a, k in m2:
        d[a] = d.get(a, 0) + k
    return tuple(sorted(d.items()))


def p_add(p, q):
    out = frac(p)
    for m, c in q.items():
        nc = out.get(m, Fraction(0)) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def p_neg(p):
    return {m: -Fraction(c) for m, c in p.items()}


def p_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            nc = out.get(m, Fraction(0)) + Fraction(c1) * c2
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def p_pow(p, k):
    out = dict(ONE)
    base = p
    while k:
        if k & 1:
            out = p_mul(out, base)
        base = p_mul(base, base) if k > 1 else base
        k >>= 1
    return out


def p_scale(p, c):
    return {m: Fraction(v) * c for m, v in p.items()} if c else {}


def constant_ratio(num, den):
    if len(num) != len(den):
        return None
    ratio = None
    for mono, c in num.items():
        d = den.get(mono)
        if d is None:
            return None
        if ratio is None:
            ratio = Fraction(c) / d
        elif c != ratio * d:
            return None
    return ratio


def add(a, b):
    (pa, qa), (pb, qb) = a, b
    return p_add(p_mul(pa, qb), p_mul(pb, qa)), p_mul(qa, qb)


def sub(a, b):
    (pa, qa), (pb, qb) = a, b
    return p_add(p_mul(pa, qb), p_neg(p_mul(pb, qa))), p_mul(qa, qb)


def mul(a, b):
    return p_mul(a[0], b[0]), p_mul(a[1], b[1])


def div(a, b):
    (pa, qa), (pb, qb) = a, b
    if not pb:
        raise SymxError("division by an identically zero expression")
    return p_mul(pa, qb), p_mul(qa, pb)


def canon(num, den):
    """The pair behind normalize's tree, every step on Fractions."""
    if not num:
        return {}, dict(ONE)
    num, den = _cancel_content(frac(num), frac(den))
    ratio = constant_ratio(num, den)
    if ratio is not None:
        return {(): ratio}, dict(ONE)
    lc = den[max(den, key=_mono_key)]
    if lc != 1:
        num = p_scale(num, 1 / lc)
        den = p_scale(den, 1 / lc)
    return num, den


_RULES = {Add: add, Sub: sub, Mul: mul, Div: div}


def ratform(e, atoms):
    if isinstance(e, Const):
        return ({(): e.value} if e.value else {}), dict(ONE)
    if isinstance(e, Sym):
        atoms.setdefault(e.name, e)
        return {((e.name, 1),): Fraction(1)}, dict(ONE)
    if type(e) in _RULES:
        return _RULES[type(e)](ratform(e.a, atoms), ratform(e.b, atoms))
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
        return {((key, 1),): Fraction(1)}, dict(ONE)
    raise TypeError(f"not an Expr: {e!r}")


def normalize(e):
    atoms = {}
    num, den = canon(*ratform(e, atoms))
    num_e = _poly_to_expr(num, atoms)
    if den == ONE:
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


def evaluate_point(exprs, order, row, consts=None):
    """The values at one point under the evaluation contract, computed
    the way symx evaluated before it took batches: one plain compile_fns
    call on the row as Python floats, numpy's kernels raising, then the
    finiteness check."""
    fn = compile_fns(exprs, order, consts)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            out = fn(tuple(map(float, row)))
    except (ZeroDivisionError, OverflowError, FloatingPointError) as exc:
        raise EvalError(str(exc)) from None
    if not all(map(math.isfinite, out)):
        raise EvalError("non-finite value")
    return out


def eval_at(e, env, fns=MATH_FNS):
    """Evaluate by walking the tree; EvalError as in symx.eval_at."""
    val = eval_raw(e, env, fns)
    if not math.isfinite(val):
        raise EvalError("non-finite value")
    return val


# --- the tree route of the linear algebra --------------------------------------

def pivot_row(rows, col, start, ref_env, tol=1e-12):
    cands = [i for i in range(start, len(rows)) if rows[i][col] != ZERO]
    if not cands or ref_env is None:
        return cands[0] if cands else None
    entries = [rows[i][col] for i in cands]
    try:
        mags = [abs(x) for x in evaluate_point(entries, tuple(ref_env),
                                               ref_env.values())]
    except EvalError:
        mags = []
        for entry in entries:
            try:
                mags.append(abs(lib_eval_at(entry, ref_env)))
            except EvalError:
                mags.append(0.0)
    best, best_mag = None, 0.0
    for i, mag in zip(cands, mags):
        if mag > best_mag:
            best, best_mag = i, mag
    if best is None or best_mag <= tol:
        raise PivotError(f"pivot in column {col} vanishes at the reference point")
    return best


def rref_exprs(matrix, ref_env=None):
    rows = [[normalize(x) for x in row] for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        i = pivot_row(rows, c, r, ref_env)
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


def nullspace_exprs(matrix, ref_env=None):
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref_exprs(matrix, ref_env)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        v = [ZERO] * ncols
        v[fc] = ONE_E
        for r, pc in enumerate(pivots):
            v[pc] = normalize(Div(Mul(Const(Fraction(-1)), rows[r][fc]),
                                  rows[r][pc]))
        basis.append(v)
    return basis


def solve_affine_exprs(matrix, rhs, ref_env=None):
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    aug = [list(row) + [Mul(Const(Fraction(-1)), rhs[i])]
           for i, row in enumerate(matrix)]
    rows, pivots = rref_exprs(aug, ref_env)
    if ncols in pivots:
        return None
    part = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        part[pc] = normalize(Div(Mul(Const(Fraction(-1)), rows[r][ncols]),
                                 rows[r][pc]))
    return part, nullspace_exprs(matrix, ref_env)


def identity_rows(e, unknowns, states):
    """symx._identity_rows by way of polynomial_terms and
    linear_decompose on the normalized numerator's tree."""
    num = normalize(e)
    if isinstance(num, Div):
        num = num.a
    rows = []
    for _, coeff in sorted(polynomial_terms(num, states).items(),
                           key=lambda kv: (sum(x for _, x in kv[0]), kv[0])):
        cmap, rest = linear_decompose(coeff, unknowns)
        row = [cmap.get(u, ZERO) for u in unknowns]
        rows.append((row, normalize(Mul(Const(Fraction(-1)), rest))))
    return rows


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


def same_tree(a, b) -> bool:
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


def fold_atoms(terms) -> dict:
    """The atoms symx.fold(terms) stores: exactly those of its operands.
    For each term (sign, a, e, v), the atoms _ratform reads off a, and
    off e when v is None; for a derivative, none for a constant or a
    symbol, all of e's stored atoms when e's pair has no kernel atom
    (the derivative's pair is taken from it), and otherwise those of
    the walk of diff(e, v)'s tree. A walk of the raw diff trees can
    find fewer: an atom that drops out of every derivative."""
    atoms = {}
    for _, a, e, v in terms:
        if a is not None:
            _ratform(a, atoms)
        if v is None:
            _ratform(e, atoms)
        elif isinstance(e, (Const, Sym)):
            continue
        elif e._pair is not None and not any(
                isinstance(x, Call) for x in e._pair[2].values()):
            atoms.update(e._pair[2])
        else:
            _ratform(diff(e, v), atoms)
    return atoms


def fold(terms):
    """(tree, pair, atoms) of symx.fold(terms): normalize of the tree
    the terms spell, every term in it, the canonical pair of that tree's
    walk, and fold_atoms(terms)."""
    terms = list(terms)
    tree = ZERO
    for sign, a, e, v in terms:
        t = e if v is None else diff(e, v)
        t = t if a is None else Mul(a, t)
        tree = Add(tree, t) if sign > 0 else Sub(tree, t)
    return normalize(tree), canon(*ratform(tree, {})), fold_atoms(terms)
