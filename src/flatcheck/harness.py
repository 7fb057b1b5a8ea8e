"""Numeric validation layer.

Everything here treats the symbolic pipeline as a black box and checks
it with arithmetic: finite-difference bracket stencils, twin closed-
loop integrations in x- and z-coordinates, and reconstruction of the
full state and input history from the flat output alone.

Fixed-step RK4 throughout; no adaptive solver, so runs are bit-
reproducible. Every integration does the float operations of the
textbook step on component arrays, in their order, on the stage trees
of one construction: the feedback u = alpha + beta v, every right-hand-
side row and, in z, the regularity r_i. The input v does not depend on
the state, so it is evaluated once at the grid's stage times and
passed in.

A run whose rows read each other, directly or through u, without a
cycle (both runs of every chained system) is integrated column by
column: state by state, each read before it is needed, over a block of
grid rows at a time. A state's k1..k4 are numpy expressions in the
columns of the states it reads, and its history is the running sum of
its increments (np.add.accumulate, which adds in sequence). Every value
is the step loop's: + - * / are IEEE on arrays as on floats, and
numpy's sin, cos, exp and sqrt give an array the bits they give each
float (tests/test_array_floats.py guards both). A run with a cycle (a
state that reads itself, as in example1 and motor) cannot be summed
over time, and a run with a power takes the loop too, since numpy's
array ** does not always round as Python's float ** does. The loop
takes a block of RK4 steps per generated call, with the state in local
variables, on plain floats, unrolled over the components.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .symx import (ZERO, EvalError, Add, Call, Div, Expr, Frame, Mul, Points,
                   Pow, Sub, Sym, compile_fn, compile_fns, compile_scope,
                   fold, free_symbols, linear_decompose, normalize, parse,
                   subst)
from .diffgeo import VectorField
from .chained import Chart
from .flags import SampleBox  # noqa: F401  (re-exported)
from .triangular import TriangularRealization

DEFAULT_REG_THRESHOLD = 1e-3
DEFAULT_FD_STEP = 1e-5

T_FRAME = Frame("time", ("t",), ())


class HarnessError(Exception):
    """Numeric validation failure (not a verdict: a broken run)."""


class RegularityError(HarnessError):
    """|r_i| dipped below the safety threshold during a run."""

    def __init__(self, msg: str, t: float, index: int):
        super().__init__(msg)
        self.t = t
        self.index = index


@dataclass(frozen=True)
class VSignal:
    """External input v(t) = (v1, v2) as expressions in t.

    Symbolic in t so that exact time derivatives of any order are one
    diff away; reconstruction quality then measures the method, not a
    numeric differentiator.
    """

    v1: Expr
    v2: Expr

    @classmethod
    def from_strings(cls, s1: str, s2: str) -> "VSignal":
        return cls(parse(s1, T_FRAME), parse(s2, T_FRAME))

    def jets(self, which: int, depth: int) -> list[Expr]:
        """d^k v_which / dt^k for k = 0..depth, each normalized.

        Each order is folded from the normal form of the one before, so
        each step's input stays small: a raw diff tree grows about
        tenfold per order.
        """
        out = [normalize((self.v1, self.v2)[which - 1])]
        for _ in range(depth):
            out.append(fold(((1, None, out[-1], "t"),)))
        return out


# steps of one generated call in _loop_blocks, whose rows it holds as
# Python floats at once: bounds the memory of a long stepped run
_BLOCK = 256


@dataclass
class Trajectory:
    """Time grid plus state/input histories in both coordinate systems."""

    t: np.ndarray
    z: np.ndarray
    x: np.ndarray
    v: np.ndarray
    u: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.z.shape[1]

    def to_csv(self, path: str) -> None:
        n = self.n
        header = (["t"] + [f"z{i}" for i in range(1, n + 1)]
                  + [f"x{i}" for i in range(1, n + 1)] + ["v1", "v2", "u1", "u2"])
        cols = (self.t, self.z, self.x, self.v, self.u)
        rows = max(1, _CSV_CELLS // len(header))
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\r\n").encode("ascii"))
            for start in range(0, len(self.t), rows):
                fh.write(_csv_rows(np.column_stack(
                    [c[start:start + rows] for c in cols])))


# --- the CSV cells: '%.17g' in numpy blocks ---------------------------

# cells formatted per numpy block in Trajectory.to_csv, _CELL bytes
# each: bounds the memory of writing a long run
_CSV_CELLS = 4096
# the widest '%.17g' field, -d.ddddddddddddddde-308, and a CRLF
_CELL = 26
# 10^k for k = 0..21, exact doubles, and their Veltkamp halves
_POW10 = np.array([float(10 ** k) for k in range(22)])
# the ASCII digits of 0..9999 as four bytes, read as one uint32, and
# the trailing zeros of each (4 for 0); 16-bit, so that building them
# leaves no large temporaries behind in the heap
_DIGITS4 = (np.arange(10000, dtype=np.uint16)[:, None]
            // np.array([1000, 100, 10, 1], np.uint16) % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_ZEROS4 = (np.arange(10000, dtype=np.uint16)[:, None]
           % np.array([10, 100, 1000, 10000], np.uint16)
           == 0).sum(1, dtype=np.uint8)
# _PREFIX[k] selects the first k bytes of a cell
_PREFIX = np.arange(_CELL) < np.arange(_CELL + 1)[:, None]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = hi + lo, each half with at most 26
    significant bits, so that products of halves are exact."""
    c = 134217729.0 * a                 # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a: np.ndarray, k: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's two-product: p + err is exactly a * 10^k, p the
    rounded product (no overflow or underflow on the range taken)."""
    p = a * _POW10[k]
    ah, al = _split(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _below(p: np.ndarray, err: np.ndarray, bound: float) -> np.ndarray:
    """p + err < bound, exactly, for a double bound and p = fl(p + err)."""
    return (p < bound) | ((p == bound) & (err < 0))


def _exponent_step(p: np.ndarray, err: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 where p + err, exactly, is below, in or above
    [10^16, 10^17)."""
    return (~_below(p, err, 1e17)).astype(np.intp) - _below(p, err, 1e16)


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exponent e and 17 significant digits d of each a in
    [1e-4, 1e17), as '%.17g' rounds them: d = round-half-even(a *
    10^(16-e)) in [10^16, 10^17). e is 17, so that '%' writes the cell,
    where d would carry to 10^17 or the exponent check fails; neither
    happens on this range, but no digit rests on that."""
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    p, err = _times_pow10(a, 16 - e)
    # log10 rounds: move e one step where a * 10^(16-e) is outside
    # [10^16, 10^17), and give up where it still is
    step = _exponent_step(p, err)
    fix = np.flatnonzero(step)
    if fix.size:
        e[fix] += step[fix]
        p[fix], err[fix] = _times_pow10(a[fix], np.clip(16 - e[fix], 0, 21))
        lost = fix[_exponent_step(p[fix], err[fix]) != 0]
        e[lost], p[lost] = 17, 1e16
    # p >= 2^53 is an even integer, so rounding err rounds p + err
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    e[d == 10 ** 17] = 17
    return e, d


def _csv_rows(block: np.ndarray) -> bytes:
    """The CSV rows of a 2-D block: each cell as '%.17g' % float(cell)
    writes it, commas between cells, CRLF after each row.

    Cells with 1e-4 <= |x| < 1e17 whose 17 digits keep them below 1e17
    are laid out here: the digits come from _decimal, and each group of
    one exponent and sign is written with slice copies into its rows
    after a stable sort on that key. Zeros are '0' and '-0'. Every
    other cell (smaller, larger, inf, nan) goes through one '%' call."""
    cols = block.shape[1]
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    a = np.abs(x)
    neg = np.signbit(x)
    out = np.empty((x.size, _CELL), np.uint8)
    length = np.empty(x.size, np.intp)
    done = np.zeros(x.size, bool)

    fast = np.flatnonzero((a >= 1e-4) & (a < 1e17))
    e, d = _decimal(a[fast])
    kept = e <= 16
    fast, e, d = fast[kept], e[kept], d[kept]
    done[fast] = True
    lead, rest = np.divmod(d, 10 ** 16)
    upper, lower = np.divmod(rest, 10 ** 8)
    quads = np.empty((fast.size, 4), np.int64)
    quads[:, 0], quads[:, 1] = np.divmod(upper, 10 ** 4)
    quads[:, 2], quads[:, 3] = np.divmod(lower, 10 ** 4)
    digits = np.empty((fast.size, 17), np.uint8)
    digits[:, 0] = lead + ord("0")
    digits[:, 1:] = np.take(_DIGITS4, quads).view(np.uint8)
    # significant digits: 17 less the trailing zeros of the quads
    z, zero = np.take(_ZEROS4, quads), quads == 0
    sig = 17 - (z[:, 3] + zero[:, 3] * (z[:, 2] + zero[:, 2]
                                        * (z[:, 1] + zero[:, 1] * z[:, 0])))
    sign = neg[fast]
    length[fast] = sign + np.where(e < 0, 1 - e + sig,
                                   np.where(sig <= e + 1, e + 1, sig + 1))
    key = ((e + 4) * 2 + sign).astype(np.uint8)
    order = np.argsort(key, kind="stable")
    digits = np.take(digits, order, axis=0)
    text = np.empty((fast.size, _CELL), np.uint8)
    start = 0
    for g, count in enumerate(np.bincount(key, minlength=42).tolist()):
        if not count:
            continue
        stop = start + count
        k, s = divmod(g, 2)
        k -= 4
        t, dg = text[start:stop], digits[start:stop]
        t[:, 0] = ord("-")          # a digit overwrites it when s = 0
        if k < 0:                   # 0.000ddd
            t[:, s:s + 1 - k] = ord("0")
            t[:, s + 1] = ord(".")
            t[:, s + 1 - k:s + 18 - k] = dg
        else:                       # ddd.ddd, the point cut off at 16
            t[:, s:s + k + 1] = dg[:, :k + 1]
            t[:, s + k + 1] = ord(".")
            t[:, s + k + 2:s + 18] = dg[:, k + 1:]
        start = stop
    # each row as one void item, which numpy copies whole
    cell = np.dtype((np.void, _CELL))
    out.view(cell)[fast[order], 0] = text.view(cell)[:, 0]

    zeros = np.flatnonzero(a == 0)
    done[zeros] = True
    out[zeros, 0] = np.where(neg[zeros], ord("-"), ord("0"))
    out[zeros, 1] = ord("0")
    length[zeros] = 1 + neg[zeros]

    rest_i = np.flatnonzero(~done)
    if rest_i.size:
        s = "%-24.17g" * rest_i.size % tuple(x[rest_i].tolist())
        fields = np.frombuffer(s.encode("ascii"), np.uint8).reshape(-1, 24)
        out[rest_i, :24] = fields
        length[rest_i] = (fields != ord(" ")).sum(1)

    ends = np.arange(cols - 1, x.size, cols)
    out[np.arange(x.size), length] = ord(",")
    out[ends, length[ends]] = ord("\r")
    out[ends, length[ends] + 1] = ord("\n")
    length += 1
    length[ends] += 1
    return out[np.take(_PREFIX, length, axis=0)].tobytes()


class Stencil:
    """A point set and the central-difference stencil around it.

    shifted holds 2n point sets: for each coordinate j in turn, the
    rows q + h e_j and the rows q - h e_j over the rows q of points,
    with their bindings. Fields keep their values per point set
    (cached_values), so the brackets taken on one Stencil evaluate each
    field at the points and on each shifted set once.
    """

    def __init__(self, points: Points, h: float = DEFAULT_FD_STEP):
        self.points, self.h = points, h
        base = np.array(points.coords, dtype=float)
        # base + (-h e_j) is base - h e_j: a float subtraction adds the
        # negation. With no points base has shape (0,), and no stencil
        self.shifted = [Points(points.frame,
                               tuple(map(tuple, (base + e).tolist())),
                               points.params)
                        for d in np.eye(base.shape[-1]) * h for e in (d, -d)]

    def bracket(self, X: VectorField, Y: VectorField) -> np.ndarray:
        """fd_bracket(X, Y) at the points, on this stencil."""
        if X.frame is not Y.frame and X.frame.name != Y.frame.name:
            raise HarnessError("bracket operands live in different charts")
        if not self.points:
            return np.zeros((0, X.frame.n))
        m = len(self.shifted)
        # J_Y, X, J_X, Y: the order a failure at one point ranks in
        calls = ([(Y, q) for q in self.shifted] + [(X, self.points)]
                 + [(X, q) for q in self.shifted] + [(Y, self.points)])
        vals, first = [], None  # first: (row, at, error) of the earliest
        for F, points in calls:
            try:
                vals.append(F.cached_values(points))
            except EvalError as exc:  # the first row at which F fails here
                if first is None or exc.row < first[0]:
                    first = (exc.row, points.coords[exc.row], exc)
        if first is not None:
            _, at, exc = first
            raise HarnessError(f"evaluation failure in the stencil at {at}: "
                               f"{exc}") from exc
        JY, JX = (np.stack([(p - q) / (2 * self.h)
                            for p, q in zip(cols[::2], cols[1::2])], axis=2)
                  for cols in (vals[:m], vals[m + 1:-1]))
        return (np.matmul(JY, vals[m][:, :, None])
                - np.matmul(JX, vals[-1][:, :, None]))[:, :, 0]


def fd_bracket(X: VectorField, Y: VectorField, points: Points,
               h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference [X, Y] at each point: row p is
    J_Y(q_p) X(q_p) - J_X(q_p) Y(q_p), as a (points, n) array.

    Each field's values come from one batched call over the point set,
    and each Jacobian column from two, over the shifted sets
    base + h e_j and base - h e_j; the fields keep them per set, and
    brackets taken on one Stencil share them. The HarnessError raised
    is the stencil failure that the point-by-point order meets first:
    points in turn, and at each J_Y column by column, X, J_X, Y.
    """
    return Stencil(points, h).bracket(X, Y)


# Names the generated closed-loop code binds; none is a spec identifier.
_H, _HALF, _SIXTH = Sym("@h"), Sym("@h/2"), Sym("@h/6")
_V1, _V2, _U1, _U2 = Sym("@v1"), Sym("@v2"), Sym("@u1"), Sym("@u2")
# the state-independent arguments of a step, in the order _stages gives
# them: h, then v1 and v2 at t, t + h/2 and t + h (RK4 stages 0, 1, 3)
_STAGE_ARGS = (_H.name, "@v1.0", "@v2.0", "@v1.1", "@v2.1", "@v1.3", "@v2.3")

# grid rows per block of a run integrated column by column: bounds its
# columns as _BLOCK bounds the rows of a stepped run
_COLUMN_BLOCK = 4096


@dataclass(frozen=True)
class _Rk4:
    """The trees of one classic RK4 step of dy/dt = rows, which both
    ways of integrating a run (_integrate) evaluate.

    binds are (name, expression) pairs, each in the names before it, the
    states and _STAGE_ARGS: the stage values of the states and of the
    lets, and the k of each row at each stage. incs[i] is the increment
    of state i and starts the start expressions at (t, y). The float
    operations are those of the textbook step on component arrays,

        k1 = f(t, y)                  k2 = f(t + h/2, y + (h/2) k1)
        k3 = f(t + h/2, y + (h/2) k2)  k4 = f(t + h, y + h k3)
        y(t + h) = y + (h/6) (((k1 + 2 k2) + 2 k3) + k4),

    in that order, so a run gives the same floats bit for bit. Stages 2
    and 3 share their time and with it the values of v. order is
    _column_order of the run.
    """

    states: tuple[str, ...]
    binds: tuple[tuple[str, Expr], ...]
    incs: tuple[Expr, ...]
    starts: tuple[Expr, ...]
    order: tuple[int, ...] | None


def _rk4(states: Sequence[str], lets: Sequence[tuple[str, Expr]],
         rows: Sequence[Expr], starts: Sequence[Expr]) -> _Rk4:
    """The RK4 trees of dy/dt = rows. rows are expressions in the
    states, the inputs "@v1", "@v2" at the stage time, and the names
    lets binds, in order, before them; starts are expressions in the
    same names."""
    binds: list[tuple[str, Expr]] = [(_HALF.name, _H / 2)]
    ks: list[list[Expr]] = []
    env: dict[str, Expr] = {}
    # (whether v takes new values, coefficient of the last k or None)
    for s, (fresh, coef) in enumerate(((True, None), (True, _HALF),
                                       (False, _HALF), (True, _H))):
        if fresh:
            env[_V1.name], env[_V2.name] = Sym(f"@v1.{s}"), Sym(f"@v2.{s}")
        for i, y in enumerate(states):
            if coef is None:
                env[y] = Sym(y)
            else:
                binds.append((f"{y}.{s}", Sym(y) + coef * ks[-1][i]))
                env[y] = Sym(f"{y}.{s}")
        for name, e in lets:
            binds.append((f"{name}.{s}", subst(e, env)))
            env[name] = Sym(f"{name}.{s}")
        if s == 0:
            at_start = tuple(subst(e, env) for e in starts)
        ks.append([])
        for i, row in enumerate(rows):
            binds.append((f"@k{s}.{i}", subst(row, env)))
            ks[-1].append(Sym(f"@k{s}.{i}"))
    binds.append((_SIXTH.name, _H / 6))
    k1, k2, k3, k4 = ks
    incs = tuple(_SIXTH * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
                 for i in range(len(states)))
    return _Rk4(tuple(states), tuple(binds), incs, at_start,
                _column_order(states, lets, rows, starts))


def _column_order(states: Sequence[str], lets: Sequence[tuple[str, Expr]],
                  rows: Sequence[Expr], starts: Sequence[Expr]
                  ) -> tuple[int, ...] | None:
    """An order of the states in which each row reads, directly or
    through the lets, only states before it; None when the rows read
    each other in a cycle (a state that reads itself, say), or when a
    row, let or start has a power, which numpy's array ** does not
    always round as Python's float ** does."""
    if _has_power(*rows, *(e for _, e in lets), *starts):
        return None
    index = {y: i for i, y in enumerate(states)}
    via: dict[str, set[int]] = {}  # the states each let reads

    def reads(e: Expr) -> set[int]:
        out: set[int] = set()
        for s in free_symbols(e):
            out |= {index[s]} if s in index else via.get(s, set())
        return out

    for name, e in lets:
        via[name] = reads(e)
    need = [reads(row) for row in rows]
    order: list[int] = []
    while len(order) < len(states):
        ready = [i for i in range(len(states))
                 if i not in order and need[i].issubset(order)]
        if not ready:
            return None
        order += ready
    return tuple(order)


def _rk4_step(run: _Rk4, params: dict[str, float]) -> Callable:
    """The steps of run as one generated loop, unrolled over the
    components: compile_fns' loop form fn(stages, y, out). For each
    row of stages, the row _stages gives for a step (h, then v1 and v2
    at t, at t + h/2 and at t + h), it appends (*y(t + h), *starts at
    (t, y)) to out and steps on from y(t + h). The steps do not
    evaluate v themselves."""
    outs = [Sym(y) + d for y, d in zip(run.states, run.incs)]
    return compile_fns(outs + list(run.starts), _STAGE_ARGS + run.states,
                       params, run.binds, carry=len(run.states))


def _numpy_call(fn: Callable, args: tuple) -> tuple:
    """fn(args) on Python floats, which raise on a division by zero or
    an overflowing power where numpy scalars give inf or nan; such a
    call is redone on numpy scalars, so it returns what numpy would."""
    try:
        return fn(args)
    except (ZeroDivisionError, OverflowError):
        return fn(tuple(map(np.float64, args)))


def _has_power(*exprs: Expr) -> bool:
    stack = list(exprs)
    while stack:
        n = stack.pop()
        if isinstance(n, Pow):
            return True
        if isinstance(n, (Add, Sub, Mul, Div)):
            stack += (n.a, n.b)
        elif isinstance(n, Call):
            stack.append(n.arg)
    return False


def _stages(v: VSignal, t: np.ndarray) -> np.ndarray:
    """The state-independent arguments of every RK4 step over the grid
    t, one row per step: h = t[k+1] - t[k], then v1 and v2 at t[k],
    t[k] + h/2 and t[k] + h. These are the floats the textbook step
    computes, so no value changes by moving v out of the step. A last
    row, with h = 0, is for the zero-length step from the last node.
    Columns 1 and 2 are v(t[k]) as the steps get it.

    v is evaluated over the whole grid in one vectorised call per stage
    time. That gives the scalar floats only because numpy's array
    kernels (sin, cos, exp, sqrt, ...) give the same bits as on one
    float. Its array ** does not always give the bits of Python's float
    **, so a signal with a power is evaluated one stage time at a time
    instead.
    """
    fn = compile_fns((v.v1, v.v2), ("t",))
    vectorised = not _has_power(v.v1, v.v2)
    h = np.append(np.diff(t), 0.0)
    cols = [h]
    with np.errstate(all="ignore"):
        for ts in (t, t + h / 2, t + h):
            if vectorised:
                cols += [np.broadcast_to(c, ts.shape) for c in fn([ts])]
            else:
                cols += zip(*(_numpy_call(fn, (s,)) for s in ts.tolist()))
    return np.column_stack(cols)


def _loop_blocks(run: _Rk4, params: dict[str, float], stages: np.ndarray,
                 y0: Sequence[float], t: np.ndarray):
    """Steps run over the grid t with the loop _rk4_step gives, one
    generated call per block of _BLOCK steps, and yields (start, block)
    for each: block row k holds y(t + h) and the starts of the step from
    node start + k.

    A step that raises ZeroDivisionError or OverflowError on Python
    floats is rerun alone on numpy scalars, which give inf or nan
    instead, and the block goes on after it.
    """
    step = _rk4_step(run, params)
    n = len(y0)
    out = [tuple(y0)]
    for start in range(0, len(t), _BLOCK):
        rows = stages[start:start + _BLOCK].tolist()
        # out[0] is the row before the block, so out[-1][:n] is the
        # state the next step starts from
        out = [out[-1]]
        while len(out) <= len(rows):
            try:
                step(rows[len(out) - 1:], out[-1][:n], out)
            except (ZeroDivisionError, OverflowError):
                step([tuple(map(np.float64, rows[len(out) - 1]))],
                     tuple(map(np.float64, out[-1][:n])), out)
        width = len(out[1])
        yield start, np.fromiter(itertools.chain.from_iterable(out[1:]),
                                 float, (len(out) - 1) * width
                                 ).reshape(-1, width)


def _column_plan(run: _Rk4, params: dict[str, float]) -> list[tuple]:
    """The calls of a column-wise run, one per state in run.order, then
    one for the starts: (fn, inputs, names, i). fn, compiled once in
    array mode, maps the columns of the names inputs to the columns of
    the binds names, which no call before computed, then to those of
    state i's increment or, where i is None, of the starts."""
    uses = {name: free_symbols(e) for name, e in run.binds}
    known = set(_STAGE_ARGS)
    plan = []
    for i, outs in ([(i, [run.incs[i]]) for i in run.order]
                    + [(None, list(run.starts))]):
        used = set().union(*map(free_symbols, outs))
        stack = list(used)
        need: set[str] = set()
        while stack:
            s = stack.pop()
            if s in uses and s not in known | need:
                need.add(s)
                used |= uses[s]
                stack += uses[s]
        lets = [(name, e) for name, e in run.binds if name in need]
        inputs = sorted(used & known)
        plan.append((compile_fns([Sym(name) for name, _ in lets] + outs,
                                 inputs, params, lets),
                     inputs, [name for name, _ in lets], i))
        known |= need
        if i is not None:
            known.add(run.states[i])
    return plan


def _column_blocks(run: _Rk4, params: dict[str, float], stages: np.ndarray,
                   y0: Sequence[float], t: np.ndarray):
    """_loop_blocks' blocks for a run with a column order, in blocks of
    _COLUMN_BLOCK grid rows: each state is integrated over the whole
    block before the states that read it.

    Its k1..k4 come from the columns of the stage values it reads, by
    the trees the loop evaluates, and its history is the running sum
    of its increments from the state carried into the block, by
    np.add.accumulate, which adds in the loop's sequence. + - * / are
    IEEE on arrays as on floats, and numpy's kernels give an array the
    bits they give each float, so every value is the loop's; where the
    loop reruns a step on numpy scalars, the arrays give its inf or nan
    directly.
    """
    plan = _column_plan(run, params)
    y = list(y0)
    after: list = [None] * len(y)
    for start in range(0, len(t), _COLUMN_BLOCK):
        rows = stages[start:start + _COLUMN_BLOCK]
        shape = rows.shape[:1]
        cols = dict(zip(_STAGE_ARGS, np.ascontiguousarray(rows.T)))
        for fn, inputs, names, i in plan:
            vals = [c if np.shape(c) == shape else np.broadcast_to(c, shape)
                    for c in fn([cols[a] for a in inputs])]
            cols.update(zip(names, vals))
            if i is None:
                starts = vals[len(names):]
            else:
                acc = np.add.accumulate(np.concatenate(([y[i]], vals[-1])))
                # the nodes of the block, then the state after each step
                cols[run.states[i]], after[i] = acc[:-1], acc[1:]
                y[i] = acc[-1]
        yield start, np.column_stack(after + starts)


def _integrate(run: _Rk4, params: dict[str, float], stages: np.ndarray,
               y0: Sequence[float], t: np.ndarray, reg_threshold: float = 0.0
               ) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 of run over the grid t, on the rows of _stages:
    column by column (_column_blocks) when run has a column order,
    stepped (_loop_blocks) otherwise, with the same floats either way.

    Each block is checked in node order: at node k, a start value of
    the step from k (an r_i, in the z-run) with absolute value below
    reg_threshold raises RegularityError, then a non-finite y[k+1]
    raises HarnessError. Returns the state history and, one row per
    node, the start values; the last node's come from a zero-length
    step.
    """
    n = len(y0)
    last = len(t) - 1
    blocks = []
    integrate = _loop_blocks if run.order is None else _column_blocks
    # divergence surfaces as the non-finite check, not as numpy warnings
    with np.errstate(all="ignore"):
        for start, block in integrate(run, params, stages, y0, t):
            low = np.abs(block[:, n:]) < reg_threshold
            bad = ~np.isfinite(block[:, :n]).all(axis=1)
            bad[last - start:] = False
            flagged = np.flatnonzero(low.any(axis=1) | bad)
            if flagged.size:
                k = int(flagged[0])
                if low[k].any():
                    i = int(np.argmax(low[k]))
                    tk = float(t[start + k])
                    raise RegularityError(
                        f"regularity |r_{i + 1}| = {abs(block[k, n + i]):.3e}"
                        f" < {reg_threshold} at t = {tk:.6g}",
                        t=tk, index=i + 1)
                raise HarnessError(
                    f"non-finite state at t = {t[start + k + 1]:.6g}")
            blocks.append(block)
    hist = np.concatenate(blocks)
    # copied, so that the extras do not keep the states' rows alive
    return (np.vstack([np.asarray(y0, dtype=float), hist[:last, :n]]),
            hist[:, n:].copy())


def _grid(T: float, dt: float) -> np.ndarray:
    steps = int(round(T / dt))
    if steps < 1 or abs(steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"horizon {T} is not a multiple of dt {dt}")
    return np.linspace(0.0, T, steps + 1)


def _bound_all_params(real: TriangularRealization,
                      extra: dict[str, float]) -> dict[str, float]:
    params = dict(real.system.param_values)
    params.update(extra)
    missing = set(real.chart.x_frame.params) - set(params)
    if missing:
        raise HarnessError(f"unbound parameters: {sorted(missing)}")
    return params


def _inputs(real: TriangularRealization) -> list[Expr]:
    """u = alpha + beta v as expressions in the x-states, "@v1" and
    "@v2", each summed as (alpha_j + beta_j1 v1) + beta_j2 v2."""
    fb = real.feedback
    return [a + b1 * _V1 + b2 * _V2
            for a, (b1, b2) in zip(fb.alpha, fb.beta)]


def _columns(fn: Callable, cols: list[np.ndarray]) -> np.ndarray:
    """One call of a compile_fns function over columns, as a matrix."""
    npts = cols[0].shape
    return np.column_stack([np.broadcast_to(c, npts) for c in fn(cols)])


def _x_from_z(chart: Chart, z: np.ndarray,
              params: dict[str, float]) -> np.ndarray:
    """Map a z-history through the inverse chart."""
    fn = compile_fns(chart.inverse, chart.z_frame.states, params)
    return _columns(fn, [z[:, j] for j in range(z.shape[1])])


def simulate(real: TriangularRealization, z0: Points, v: VSignal,
             T: float, dt: float,
             reg_threshold: float = DEFAULT_REG_THRESHOLD) -> Trajectory:
    """Integrate the closed loop twice from z0, a one-row point set of
    the z-chart: the triangular z-dynamics, and the original x-dynamics
    under u = alpha + beta v from the matched initial state. Both
    histories land in the returned Trajectory, so any disagreement
    through the chart is visible to the caller.

    Aborts with RegularityError the moment any |r_i| at a grid node
    drops below reg_threshold: past that point reconstruction from the
    flat output is ill-posed, so the run would not mean anything.

    Each run is integrated column by column when its rows read each
    other without a cycle and nothing in it is a power, and step by
    step otherwise; the trajectory, its failures and their messages
    are the same floats and words either way.
    """
    if real.phis is None:
        raise HarnessError("simulate needs z-coordinate drift rows "
                           "(chart has no symbolic inverse)")
    n = real.n
    chart = real.chart
    params = _bound_all_params(real, dict(z0.params))
    (start,) = z0.coords
    zs = chart.z_frame.states

    rows_z = [real.phis[i] + Sym(zs[i + 1]) * _V1 for i in range(n - 2)]
    # each step returns the r_i at its start
    regs = [subst(r, {"v1": _V1}) for r in real.regularity]
    run_z = _rk4(zs, (), rows_z + [_V2, _V1], regs)

    t = _grid(T, dt)
    stages = _stages(v, t)
    ztraj, rvals = _integrate(run_z, params, stages, start, t,
                              reg_threshold)
    # the least |r_i| over the nodes, where it is not nan
    min_reg = np.fmin.reduce(np.abs(rvals), axis=None, initial=math.inf)

    to_x = chart.z_frame.evaluator(chart.inverse)
    x0 = to_x(z0.coords, params)[0].tolist()

    sys_ = real.system
    xs = chart.x_frame.states
    rows_x = [f + g1 * _U1 + g2 * _U2 for f, g1, g2 in
              zip(sys_.f.components, sys_.g1.components, sys_.g2.components)]
    # each step returns u at its start, the zero-length one u at the end
    run_x = _rk4(xs, tuple(zip((_U1.name, _U2.name), _inputs(real))),
                 rows_x, (_U1, _U2))
    xtraj, uvals = _integrate(run_x, params, stages, x0, t)

    return Trajectory(t=t, z=ztraj, x=xtraj, v=stages[:, 1:3].copy(),
                      u=uvals, meta={"min_abs_regularity": float(min_reg),
                                     "dt": dt, "horizon": T})


# --- flat-output reconstruction -------------------------------------

def _jet_name(base: str, order: int) -> str:
    """The name of base's jet of that order. It ends in '.', which no
    identifier holds and which sorts below every identifier character,
    so it meets no parameter name and orders against them as base
    does."""
    return f"{base}_d{order}."


def _total_derivative(e: Expr, succ: dict[str, Expr]) -> Expr:
    """The fold of the terms succ[s] * de/ds over e's symbols s in
    succ, sorted: normalize of their sum, 0 when there are none."""
    return fold((1, succ[s], e, s)
                for s in sorted(free_symbols(e).intersection(succ)))


@dataclass(frozen=True)
class FlatSignal:
    """Sampled flat output with derivative stacks.

    y1_jets[:, m] holds d^m y1 / dt^m on the grid; likewise y2. State
    reconstruction at level i consumes y1 up to order n-i and v1 =
    dy2/dt up to order n-1-i, so full input recovery needs both stacks
    up to order n-1.
    """

    t: np.ndarray
    y1_jets: np.ndarray
    y2_jets: np.ndarray

    @classmethod
    def from_trajectory(cls, real: TriangularRealization, traj: Trajectory,
                        v: VSignal) -> "FlatSignal":
        """Exact derivatives along a simulated run, obtained by
        differentiating the closed-loop dynamics symbolically rather
        than the sampled curve numerically."""
        if real.phis is None:
            raise HarnessError("reconstruction needs z-coordinate drift rows")
        n = real.n
        depth = n - 1
        zs = real.chart.z_frame.states
        params = _bound_all_params(real, {})

        vnames = [[_jet_name(f"v{j}", k) for k in range(depth + 1)]
                  for j in (1, 2)]
        succ: dict[str, Expr] = {}
        v1_0, v2_0 = Sym(vnames[0][0]), Sym(vnames[1][0])
        for i in range(n):
            if i < n - 2:
                rhs = normalize(real.phis[i] + Sym(zs[i + 1]) * v1_0)
            elif i == n - 2:
                rhs = v2_0
            else:
                rhs = v1_0
            succ[zs[i]] = rhs
        for j in (0, 1):
            for k in range(depth):
                succ[vnames[j][k]] = Sym(vnames[j][k + 1])

        order = list(zs) + vnames[0] + vnames[1]
        # order 0 is the v the run was integrated with; the derivatives
        # come from the jets of the signal's expressions
        vfn = compile_fns(v.jets(1, depth)[1:] + v.jets(2, depth)[1:],
                          ("t",))
        vjets = _columns(vfn, [traj.t])

        cols = [traj.z[:, i] for i in range(n)]
        for j in (0, 1):
            cols += [traj.v[:, j]] + [vjets[:, j * depth + k]
                                      for k in range(depth)]

        jets = {}
        for name, base in (("y1", zs[0]), ("y2", zs[n - 1])):
            orders: list[Expr] = [Sym(base)]
            for _ in range(depth):
                orders.append(_total_derivative(orders[-1], succ))
            stack = np.empty((len(traj.t), depth + 1))
            for m, col in enumerate(compile_fns(orders, order, params)(cols)):
                stack[:, m] = np.broadcast_to(col, traj.t.shape)
            jets[name] = stack
        return cls(t=traj.t.copy(), y1_jets=jets["y1"], y2_jets=jets["y2"])


def _newton_grid(F, dF, known_cols: list[np.ndarray], npts: int,
                 level: int, t: np.ndarray) -> np.ndarray:
    """Vectorized safeguarded Newton for the order-0 cascade equation.

    Starts from w = 0 everywhere and iterates w -= F/F'. Samples that
    fail to converge (stalled, NaN, near-zero slope mid-iteration)
    fall back to bisection on an expanding bracket; a sample with no
    bracket is a hard error naming time and level. The regularity
    check happens at the solution, where F' is r_i.
    """
    w = np.zeros(npts)
    for _ in range(80):
        fv = np.broadcast_to(F([w] + known_cols), (npts,))
        dv = np.broadcast_to(dF([w] + known_cols), (npts,))
        with np.errstate(all="ignore"):
            step = np.where(np.abs(dv) > 1e-300, fv / dv, 0.0)
        step = np.where(np.isfinite(step), step, 0.0)
        w = w - step
        if np.max(np.abs(step)) < 1e-14 * (1 + np.max(np.abs(w))):
            break
    fv = np.broadcast_to(F([w] + known_cols), (npts,))
    ok = np.abs(fv) <= 1e-9 * (1 + np.abs(w))
    for j in np.nonzero(~ok)[0]:
        cols_j = [np.array([c[j]]) for c in known_cols]

        def scalar(wj: float) -> float:
            return float(np.asarray(F([np.array([wj])] + cols_j)).reshape(-1)[0])

        w[j] = _bisect_expanding(scalar, 0.0, level, float(t[j]))

    dv = np.broadcast_to(dF([w] + known_cols), (npts,))
    j = int(np.argmin(np.abs(dv)))
    if abs(dv[j]) < DEFAULT_REG_THRESHOLD:
        raise RegularityError(
            f"regularity |r_{level}| = {abs(dv[j]):.3e} < "
            f"{DEFAULT_REG_THRESHOLD} at t = {t[j]:.6g}",
            t=float(t[j]), index=level)
    return w


def _bisect_expanding(fn, center: float, level: int, tj: float) -> float:
    width = 1e-6
    a = b = center
    fa = fb = math.nan
    for _ in range(120):
        a, b = center - width, center + width
        fa, fb = fn(a), fn(b)
        if math.isfinite(fa) and math.isfinite(fb) and fa * fb <= 0:
            break
        width *= 2
    else:
        raise HarnessError(
            f"root-finder failure at t = {tj:.6g}, level {level}: no sign "
            f"change in [{a:.3e}, {b:.3e}]")
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = fn(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
        if abs(b - a) < 1e-15 * (1 + abs(m)):
            break
    return 0.5 * (a + b)


@compile_scope()
def reconstruct(real: TriangularRealization, flat: FlatSignal) -> Trajectory:
    """Recover the full state and inputs from the flat output alone.

    z_1 = y1 and z_n = y2 seed the cascade; level i then solves
    dz_i/dt = phi_i(z_1..z_{i+1}, z_n) + z_{i+1} v1 for z_{i+1}
    (safeguarded Newton at order 0, a linear solve with coefficient
    r_i for each higher derivative order), ending with v2 = dz_{n-1}.
    Raises RegularityError where some |r_i| is below
    DEFAULT_REG_THRESHOLD. The x/u history comes through the inverse
    chart, which exists whenever the z-drift rows do. Levels and
    derivative orders repeat functions (a constant coefficient, say),
    so the call is one compile_scope().
    """
    if real.phis is None:
        raise HarnessError("reconstruction needs z-coordinate drift rows")
    n = real.n
    depth_y = n - 1
    if flat.y1_jets.shape[1] < depth_y + 1 or flat.y2_jets.shape[1] < depth_y + 1:
        raise HarnessError(
            f"flat signal needs derivative stacks up to order {depth_y}")
    chart = real.chart
    zs = chart.z_frame.states
    params = _bound_all_params(real, {})
    t = flat.t
    npts = len(t)

    # jets[name][m] is the m-th derivative column of that variable
    jets: dict[str, list[np.ndarray]] = {
        zs[0]: [flat.y1_jets[:, m] for m in range(depth_y + 1)],
        zs[n - 1]: [flat.y2_jets[:, m] for m in range(depth_y + 1)],
        "v1": [flat.y2_jets[:, m + 1] for m in range(depth_y)],
    }

    for i in range(1, n - 1):      # level i solves for z_{i+1}
        need = n - 1 - i           # highest derivative order required
        # the unknown's jets have base w; until renamed to its order-0
        # jet it is "w.", with _jet_name's suffix, so no parameter is it
        w = "w"
        unknown = Sym(w + ".")
        base_syms = [zs[j] for j in range(i)] + [zs[n - 1], "v1"]
        rhs = normalize(subst(real.phis[i - 1], {zs[i]: unknown})
                        + unknown * Sym("v1"))

        # rewrite base symbols at jet order 0, set up the successor map
        # and each jet's (base, order)
        ren = {s: Sym(_jet_name(s, 0)) for s in base_syms}
        ren[unknown.name] = Sym(_jet_name(w, 0))
        e = normalize(subst(rhs, ren))
        succ, jet_of = {}, {}
        for s in base_syms + [w]:
            for k in range(need + 2):
                succ[_jet_name(s, k)] = Sym(_jet_name(s, k + 1))
                jet_of[_jet_name(s, k)] = s, k

        w_jets: list[np.ndarray] = []
        for m in range(need + 1):
            known = sorted(free_symbols(e) - set(params)
                           - {_jet_name(w, m)})
            cols = [(w_jets if base == w else jets[base])[k]
                    for base, k in map(jet_of.__getitem__, known)]
            order = [_jet_name(w, m)] + known
            if m == 0:
                target = jets[zs[i - 1]][1]
                Ffn = compile_fn(e, order, params)
                dFfn = compile_fn(fold(((1, None, e, _jet_name(w, 0)),)),
                                  order, params)

                def F(vcols, _f=Ffn, _tg=target):
                    return _f(vcols) - _tg

                w_jets.append(_newton_grid(F, dFfn, cols, npts, i, t))
            else:
                coeffs, rest = _affine_split(e, _jet_name(w, m))
                cfn = compile_fn(coeffs, order, params)
                rfn = compile_fn(rest, order, params)
                zero = np.zeros(npts)
                cval = cfn([zero] + cols)
                rval = rfn([zero] + cols)
                target = jets[zs[i - 1]][m + 1]
                cval = np.broadcast_to(cval, (npts,))
                j = int(np.argmin(np.abs(cval)))
                if abs(cval[j]) < DEFAULT_REG_THRESHOLD:
                    raise RegularityError(
                        f"regularity |r_{i}| = {abs(cval[j]):.3e} < "
                        f"{DEFAULT_REG_THRESHOLD} at t = {t[j]:.6g}",
                        t=float(t[j]), index=i)
                w_jets.append((target - rval) / cval)
            if m < need:
                e = _total_derivative(e, succ)
        jets[zs[i]] = w_jets

    z = np.column_stack([jets[zs[i]][0] for i in range(n)])
    v = np.column_stack([jets["v1"][0], jets[zs[n - 2]][1]])

    x = _x_from_z(chart, z, params)
    xs = chart.x_frame.states
    fn = compile_fns(_inputs(real), xs + (_V1.name, _V2.name), params)
    u = _columns(fn, [x[:, j] for j in range(n)] + [v[:, 0], v[:, 1]])

    return Trajectory(t=t.copy(), z=z, x=x, v=v, u=u,
                      meta={"reconstructed": True})


def _affine_split(e: Expr, sym: str) -> tuple[Expr, Expr]:
    """e = coeff*sym + rest with rest free of sym (sym enters jets
    linearly at top order, so this never loses anything)."""
    coeff_map, rest = linear_decompose(e, [sym])
    return coeff_map.get(sym, ZERO), rest
