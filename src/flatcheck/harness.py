"""Numeric validation layer.

Everything here treats the symbolic pipeline as a black box and checks
it with arithmetic: finite-difference bracket stencils, twin closed-
loop integrations in x- and z-coordinates, and reconstruction of the
full state and input history from the flat output alone.

Fixed-step RK4 throughout; no adaptive solver, so runs are bit-
reproducible. Each integration runs on generated code: one function
per RK4 step that evaluates v(t), the feedback u = alpha + beta v and
every right-hand-side row on plain floats, unrolled over the
components, with the float operations of the textbook step on
component arrays in their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .symx import (
    ZERO,
    EvalError,
    Expr,
    Frame,
    Point,
    Sym,
    compile_fn,
    compile_fns,
    diff,
    evaluator,
    free_symbols,
    linear_decompose,
    normalize,
    parse,
    subst,
)
from .diffgeo import VectorField
from .chained import Chart
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
class SampleBox:
    """Seeded uniform sampler over a coordinate box: `count` points,
    deterministic for a fixed seed."""

    bounds: tuple[tuple[float, float], ...]
    count: int
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sample count must be positive")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"empty box interval [{lo}, {hi}]")

    def points(self, frame: Frame,
               params: dict[str, float] | None = None) -> list[Point]:
        if len(self.bounds) != frame.n:
            raise ValueError("box dimension does not match the frame")
        rng = np.random.default_rng(self.seed)
        return [frame.point([float(rng.uniform(lo, hi))
                             for lo, hi in self.bounds], params)
                for _ in range(self.count)]


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

        Normalizing after every diff keeps each step's input small: an
        unnormalized tree grows about tenfold per order.
        """
        out = [normalize((self.v1, self.v2)[which - 1])]
        for _ in range(depth):
            out.append(normalize(diff(out[-1], "t")))
        return out

    def derivative(self, which: int, order: int) -> Expr:
        return self.jets(which, order)[order]

    def values(self, t: np.ndarray) -> np.ndarray:
        fn = compile_fns((self.v1, self.v2), ("t",))
        return _columns(fn, [np.asarray(t, dtype=float)])


# rows of a history held as Python floats at once, in _integrate and
# Trajectory.to_csv: bounds the memory of a long run
_BLOCK = 256


@dataclass
class Trajectory:
    """Time grid plus state/input histories in both coordinate systems.

    x and u may be None when the chart has no usable inverse; CSV
    export requires the full record.
    """

    t: np.ndarray
    z: np.ndarray
    x: np.ndarray | None
    v: np.ndarray
    u: np.ndarray | None
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.z.shape[1]

    def to_csv(self, path: str) -> None:
        if self.x is None or self.u is None:
            raise HarnessError("trajectory lacks x/u data for CSV export")
        n = self.n
        header = (["t"] + [f"z{i}" for i in range(1, n + 1)]
                  + [f"x{i}" for i in range(1, n + 1)] + ["v1", "v2", "u1", "u2"])
        # the bytes csv.writer gives for these fields: no quoting, CRLF
        line = ",".join(["%.17g"] * len(header)) + "\r\n"
        cols = (self.t, self.z, self.x, self.v, self.u)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, len(self.t), _BLOCK):
                block = np.column_stack([c[start:start + _BLOCK]
                                         for c in cols]).tolist()
                fh.writelines(line % tuple(row) for row in block)


def fd_bracket(X: VectorField, Y: VectorField, q: Point,
               h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference [X, Y](q) = J_Y(q) X(q) - J_X(q) Y(q)."""
    if X.frame is not Y.frame and X.frame.name != Y.frame.name:
        raise HarnessError("bracket operands live in different charts")
    n = X.frame.n
    base = np.asarray(q.coords, dtype=float)

    def vals(F: VectorField, coords: np.ndarray) -> np.ndarray:
        at = coords.tolist()
        try:
            return np.array(F.evaluator(at, q.params))
        except EvalError as exc:
            raise HarnessError(
                f"evaluation failure in the stencil at {tuple(at)}: "
                f"{exc}") from exc

    def jac(F: VectorField) -> np.ndarray:
        J = np.empty((n, n))
        for j in range(n):
            step = np.zeros(n)
            step[j] = h
            J[:, j] = (vals(F, base + step) - vals(F, base - step)) / (2 * h)
        return J

    return jac(Y) @ vals(X, base) - jac(X) @ vals(Y, base)


# Names the generated closed-loop code binds; none is a spec identifier.
_T, _H, _HALF, _SIXTH = Sym("@t"), Sym("@h"), Sym("@h/2"), Sym("@h/6")
_V1, _V2, _U1, _U2 = Sym("@v1"), Sym("@v2"), Sym("@u1"), Sym("@u2")


def _rk4_step(states: Sequence[str], v: VSignal,
              lets: Sequence[tuple[str, Expr]], rows: Sequence[Expr],
              params: dict[str, float]) -> Callable:
    """One classic RK4 step of dy/dt = rows as a single generated
    function, unrolled over the components.

    rows are expressions in the states, the inputs "@v1", "@v2" at the
    stage time, and the names lets binds, in order, before them. The
    step maps (t, h, *y) to (*y(t + h), *lets at (t, y)). Its float
    operations are those of the textbook step on component arrays,

        k1 = f(t, y)                  k2 = f(t + h/2, y + (h/2) k1)
        k3 = f(t + h/2, y + (h/2) k2)  k4 = f(t + h, y + h k3)
        y(t + h) = y + (h/6) (((k1 + 2 k2) + 2 k3) + k4),

    in that order, so a run gives the same floats bit for bit. Stages 2
    and 3 share their time and with it the values of v.
    """
    binds: list[tuple[str, Expr]] = [(_HALF.name, _H / 2)]
    ks: list[list[Expr]] = []
    env: dict[str, Expr] = {}
    # (stage time, or None to reuse the last; coefficient of the last k)
    for s, (ts, coef) in enumerate(((_T, None), (_T + _HALF, _HALF),
                                    (None, _HALF), (_T + _H, _H))):
        if ts is not None:
            for sym, e in ((_V1, v.v1), (_V2, v.v2)):
                binds.append((f"{sym.name}.{s}", subst(e, {"t": ts})))
                env[sym.name] = Sym(f"{sym.name}.{s}")
        for i, y in enumerate(states):
            if coef is None:
                env[y] = Sym(y)
            else:
                binds.append((f"{y}.{s}", Sym(y) + coef * ks[-1][i]))
                env[y] = Sym(f"{y}.{s}")
        for name, e in lets:
            binds.append((f"{name}.{s}", subst(e, env)))
            env[name] = Sym(f"{name}.{s}")
        ks.append([])
        for i, row in enumerate(rows):
            binds.append((f"@k{s}.{i}", subst(row, env)))
            ks[-1].append(Sym(f"@k{s}.{i}"))
    binds.append((_SIXTH.name, _H / 6))
    k1, k2, k3, k4 = ks
    outs = [Sym(y) + _SIXTH * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
            for i, y in enumerate(states)]
    outs += [Sym(f"{name}.0") for name, _ in lets]
    return compile_fns(outs, (_T.name, _H.name) + tuple(states), params,
                       binds)


def _numpy_call(fn: Callable, args: tuple) -> tuple:
    """fn(args) on Python floats, which raise on a division by zero or
    an overflowing power where numpy scalars give inf or nan; such a
    call is redone on numpy scalars, so it returns what numpy would."""
    try:
        return fn(args)
    except (ZeroDivisionError, OverflowError):
        return fn(tuple(map(np.float64, args)))


def _integrate(step: Callable, y0: Sequence[float], t: np.ndarray,
               on_node: Callable[[float, tuple], None] | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 over the grid t with a step from _rk4_step.

    Returns the state history and, one row per step, the extra values
    the step returns after the state.
    """
    n = len(y0)
    grid = t.tolist()
    y = tuple(y0)
    blocks, rows = [], []
    # divergence surfaces as the non-finite check, not as numpy warnings
    with np.errstate(all="ignore"):
        if on_node is not None:
            on_node(grid[0], y)
        for k in range(len(grid) - 1):
            tk = grid[k]
            out = _numpy_call(step, (tk, grid[k + 1] - tk) + y)
            y = out[:n]
            if not all(map(math.isfinite, y)):
                raise HarnessError(f"non-finite state at t = {t[k + 1]:.6g}")
            rows.append(out)
            if len(rows) == _BLOCK:
                blocks.append(np.array(rows, dtype=float))
                rows = []
            if on_node is not None:
                on_node(grid[k + 1], y)
    if rows:
        blocks.append(np.array(rows, dtype=float))
    hist = np.concatenate(blocks)
    return np.vstack([np.asarray(y0, dtype=float), hist[:, :n]]), hist[:, n:]


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


def simulate(real: TriangularRealization, z0: Point, v: VSignal,
             T: float, dt: float,
             reg_threshold: float = DEFAULT_REG_THRESHOLD) -> Trajectory:
    """Integrate the closed loop twice: the triangular z-dynamics, and
    the original x-dynamics under u = alpha + beta v from the matched
    initial state. Both histories land in the returned Trajectory, so
    any disagreement through the chart is visible to the caller.

    Aborts with RegularityError the moment any |r_i| at a grid node
    drops below reg_threshold: past that point reconstruction from the
    flat output is ill-posed, so the run would not mean anything.
    """
    if real.phis is None:
        raise HarnessError("simulate needs z-coordinate drift rows "
                           "(chart has no symbolic inverse)")
    n = real.n
    chart = real.chart
    params = _bound_all_params(real, dict(z0.params))
    zs = chart.z_frame.states

    rows_z = [real.phis[i] + Sym(zs[i + 1]) * _V1 for i in range(n - 2)]
    step_z = _rk4_step(zs, v, (), rows_z + [_V2, _V1], params)
    reg = compile_fns(real.regularity, (_T.name,) + zs, params,
                      (("v1", subst(v.v1, {"t": _T})),))
    min_reg = math.inf

    def monitor(tk: float, z: tuple) -> None:
        nonlocal min_reg
        for i, r in enumerate(_numpy_call(reg, (tk,) + z)):
            val = abs(r)
            min_reg = min(min_reg, val)
            if val < reg_threshold:
                raise RegularityError(
                    f"regularity |r_{i + 1}| = {val:.3e} < {reg_threshold} "
                    f"at t = {tk:.6g}", t=tk, index=i + 1)

    t = _grid(T, dt)
    ztraj, _ = _integrate(step_z, z0.coords, t, on_node=monitor)

    x0 = evaluator(chart.inverse, zs, params)(z0.coords)

    sys_ = real.system
    xs = chart.x_frame.states
    rows_x = [f + g1 * _U1 + g2 * _U2 for f, g1, g2 in
              zip(sys_.f.components, sys_.g1.components, sys_.g2.components)]
    step_x = _rk4_step(xs, v, tuple(zip((_U1.name, _U2.name), _inputs(real))),
                       rows_x, params)
    xtraj, uhist = _integrate(step_x, x0, t)
    # each step returns u at its start; a zero-length step from the last
    # node gives u there
    with np.errstate(all="ignore"):
        u_end = _numpy_call(step_x, (float(t[-1]), 0.0)
                            + tuple(xtraj[-1].tolist()))[n:]
    uvals = np.vstack([uhist, np.asarray(u_end, dtype=float)])

    return Trajectory(t=t, z=ztraj, x=xtraj, v=v.values(t), u=uvals,
                      meta={"min_abs_regularity": float(min_reg),
                            "dt": dt, "horizon": T})


# --- flat-output reconstruction -------------------------------------

def _jet_name(base: str, order: int) -> str:
    return f"{base}_d{order}"


def _total_derivative(e: Expr, succ: dict[str, Expr]) -> Expr:
    acc: Expr | None = None
    for s in sorted(free_symbols(e)):
        if s not in succ:
            continue
        term = diff(e, s) * succ[s]
        acc = term if acc is None else acc + term
    return normalize(acc) if acc is not None else ZERO


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
        vfn = compile_fns(v.jets(1, depth) + v.jets(2, depth), ("t",))
        vjets = _columns(vfn, [traj.t])

        cols = [traj.z[:, i] for i in range(n)]
        cols += [vjets[:, k] for k in range(2 * depth + 2)]

        jets = {}
        for name, base in (("y1", zs[0]), ("y2", zs[n - 1])):
            stack = np.empty((len(traj.t), depth + 1))
            e: Expr = Sym(base)
            for m in range(depth + 1):
                fn = compile_fn(e, order, params)
                stack[:, m] = np.broadcast_to(fn(cols), traj.t.shape)
                if m < depth:
                    e = _total_derivative(e, succ)
            jets[name] = stack
        return cls(t=traj.t.copy(), y1_jets=jets["y1"], y2_jets=jets["y2"])

    @classmethod
    def from_samples(cls, t: np.ndarray, y1: np.ndarray, y2: np.ndarray,
                     depth: int) -> "FlatSignal":
        """Spline-differentiated stacks for external data. Documented
        lower-accuracy path: noise amplifies with each order."""
        from scipy.interpolate import make_interp_spline

        t = np.asarray(t, dtype=float)
        k = min(max(depth + 2, 3), 7)
        stacks = []
        for y in (y1, y2):
            spl = make_interp_spline(t, np.asarray(y, dtype=float), k=k)
            stacks.append(np.column_stack(
                [spl.derivative(m)(t) if m else spl(t)
                 for m in range(depth + 1)]))
        return cls(t=t, y1_jets=stacks[0], y2_jets=stacks[1])


def _newton_grid(F, dF, known_cols: list[np.ndarray], npts: int,
                 level: int, t: np.ndarray,
                 reg_threshold: float) -> np.ndarray:
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
    if abs(dv[j]) < reg_threshold:
        raise RegularityError(
            f"regularity |r_{level}| = {abs(dv[j]):.3e} < {reg_threshold} "
            f"at t = {t[j]:.6g}", t=float(t[j]), index=level)
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


def reconstruct(real: TriangularRealization, flat: FlatSignal,
                reg_threshold: float = DEFAULT_REG_THRESHOLD) -> Trajectory:
    """Recover the full state and inputs from the flat output alone.

    z_1 = y1 and z_n = y2 seed the cascade; level i then solves
    dz_i/dt = phi_i(z_1..z_{i+1}, z_n) + z_{i+1} v1 for z_{i+1}
    (safeguarded Newton at order 0, a linear solve with coefficient
    r_i for each higher derivative order), ending with v2 = dz_{n-1}.
    The x/u history is attached when the chart inverts symbolically.
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
        w = "w"
        base_syms = [zs[j] for j in range(i)] + [zs[n - 1], "v1"]
        rhs = normalize(
            subst(real.phis[i - 1], {zs[i]: Sym(w)}) + Sym(w) * Sym("v1"))

        # rewrite base symbols at jet order 0, set up the successor map
        ren = {s: Sym(_jet_name(s, 0)) for s in base_syms + [w]}
        e = subst(rhs, ren)
        succ = {}
        for s in base_syms + [w]:
            for k in range(need + 2):
                succ[_jet_name(s, k)] = Sym(_jet_name(s, k + 1))

        w_jets: list[np.ndarray] = []
        for m in range(need + 1):
            known = sorted(free_symbols(e) - set(params)
                           - {_jet_name(w, m)})
            cols = []
            for s in known:
                base, _, ord_s = s.rpartition("_d")
                k = int(ord_s)
                col = (w_jets[k] if base == w
                       else jets[base][k])
                cols.append(col)
            order = [_jet_name(w, m)] + known
            if m == 0:
                target = jets[zs[i - 1]][1]
                Ffn = compile_fn(normalize(e), order, params)
                dFfn = compile_fn(normalize(diff(e, _jet_name(w, 0))),
                                  order, params)

                def F(vcols, _f=Ffn, _tg=target):
                    return _f(vcols) - _tg

                w_jets.append(_newton_grid(F, dFfn, cols, npts, i, t,
                                           reg_threshold))
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
                if abs(cval[j]) < reg_threshold:
                    raise RegularityError(
                        f"regularity |r_{i}| = {abs(cval[j]):.3e} < "
                        f"{reg_threshold} at t = {t[j]:.6g}",
                        t=float(t[j]), index=i)
                w_jets.append((target - rval) / cval)
            if m < need:
                e = _total_derivative(e, succ)
        jets[zs[i]] = w_jets

    z = np.column_stack([jets[zs[i]][0] for i in range(n)])
    v = np.column_stack([jets["v1"][0], jets[zs[n - 2]][1]])

    x = u = None
    if chart.inverse is not None:
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
