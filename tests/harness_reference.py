"""Reference implementations the generated harness code is checked
against: closed-loop stepping with numpy component arrays and one
compiled lambda per expression, the csv.writer trajectory export,
flat-output jets with each v(t) derivative taken from scratch, the
bracket oracle with every case computing its own stencils, one point
at a time, and the stencil's shifted points built one point object
per row.

simulate here performs the same float operations, in the same order,
as flatcheck.harness.simulate, so the two must agree bit for bit;
flat_signal likewise agrees with FlatSignal.from_trajectory.
"""

import csv
import math

import numpy as np

from flatcheck.diffgeo import lie_bracket
from flatcheck.harness import (DEFAULT_FD_STEP, FlatSignal, HarnessError,
                               RegularityError, Trajectory,
                               _bound_all_params, _grid, _jet_name,
                               _total_derivative)
from flatcheck.symx import (EvalError, Points, Sym, compile_fn, diff, eval_at,
                            normalize)

from conftest import each_point


def rk4(rhs, y0, t, on_node=None):
    y = np.asarray(y0, dtype=float)
    out = np.empty((len(t), len(y)))
    out[0] = y
    if on_node is not None:
        on_node(0, float(t[0]), y)
    for k in range(len(t) - 1):
        tk, h = float(t[k]), float(t[k + 1] - t[k])
        with np.errstate(all="ignore"):
            k1 = rhs(tk, y)
            k2 = rhs(tk + h / 2, y + h / 2 * k1)
            k3 = rhs(tk + h / 2, y + h / 2 * k2)
            k4 = rhs(tk + h, y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise HarnessError(f"non-finite state at t = {t[k + 1]:.6g}")
        out[k + 1] = y
        if on_node is not None:
            on_node(k + 1, float(t[k + 1]), y)
    return out


def simulate(real, z0, v, T, dt, reg_threshold=1e-3):
    n = real.n
    chart = real.chart
    params = _bound_all_params(real, dict(z0.params))
    zs = chart.z_frame.states

    phi_fns = [compile_fn(p, zs, params) for p in real.phis]
    reg_fns = [compile_fn(r, zs + ("v1",), params) for r in real.regularity]
    v1_fn = compile_fn(v.v1, ("t",))
    v2_fn = compile_fn(v.v2, ("t",))

    def rhs_z(tk, z):
        v1, v2 = v1_fn([tk]), v2_fn([tk])
        dz = np.empty(n)
        for i in range(n - 2):
            dz[i] = phi_fns[i](z) + z[i + 1] * v1
        dz[n - 2] = v2
        dz[n - 1] = v1
        return dz

    min_reg = math.inf

    def monitor(_k, tk, z):
        nonlocal min_reg
        v1 = v1_fn([tk])
        for i, rf in enumerate(reg_fns):
            val = abs(rf(list(z) + [v1]))
            min_reg = min(min_reg, val)
            if val < reg_threshold:
                raise RegularityError(
                    f"regularity |r_{i + 1}| = {val:.3e} < {reg_threshold} "
                    f"at t = {tk:.6g}", t=tk, index=i + 1)

    t = _grid(T, dt)
    ztraj = rk4(rhs_z, list(z0.coords[0]), t, on_node=monitor)

    env = dict(zip(zs, z0.coords[0]))
    env.update(params)
    x0 = [eval_at(c, env) for c in chart.inverse]

    sys_ = real.system
    xs = chart.x_frame.states
    f_fns = [compile_fn(c, xs, params) for c in sys_.f.components]
    g1_fns = [compile_fn(c, xs, params) for c in sys_.g1.components]
    g2_fns = [compile_fn(c, xs, params) for c in sys_.g2.components]
    a_fns = [compile_fn(a, xs, params) for a in real.feedback.alpha]
    b_fns = [[compile_fn(b, xs, params) for b in row]
             for row in real.feedback.beta]

    def inputs(tk, x):
        v1, v2 = v1_fn([tk]), v2_fn([tk])
        return np.array([
            a_fns[0](x) + b_fns[0][0](x) * v1 + b_fns[0][1](x) * v2,
            a_fns[1](x) + b_fns[1][0](x) * v1 + b_fns[1][1](x) * v2,
        ])

    def rhs_x(tk, x):
        u1, u2 = inputs(tk, x)
        return np.array([f_fns[i](x) + g1_fns[i](x) * u1 + g2_fns[i](x) * u2
                         for i in range(n)])

    xtraj = rk4(rhs_x, x0, t)
    # v at each node on one float, as the step got it
    vvals = np.array([[v1_fn([tk]), v2_fn([tk])] for tk in t.tolist()])
    uvals = np.array([inputs(float(t[k]), xtraj[k]) for k in range(len(t))])
    return Trajectory(t=t, z=ztraj, x=xtraj, v=vvals, u=uvals,
                      meta={"min_abs_regularity": float(min_reg),
                            "dt": dt, "horizon": T})


def write_csv(traj, path):
    n = traj.n
    header = (["t"] + [f"z{i}" for i in range(1, n + 1)]
              + [f"x{i}" for i in range(1, n + 1)] + ["v1", "v2", "u1", "u2"])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k in range(len(traj.t)):
            row = ([traj.t[k]] + list(traj.z[k]) + list(traj.x[k])
                   + list(traj.v[k]) + list(traj.u[k]))
            w.writerow([f"{val:.17g}" for val in row])


def v_derivative(v, which, order):
    """d^order v_which / dt^order: order raw diffs, one normalize."""
    e = (v.v1, v.v2)[which - 1]
    for _ in range(order):
        e = diff(e, "t")
    return normalize(e)


def flat_signal(real, traj, v):
    n = real.n
    depth = n - 1
    zs = real.chart.z_frame.states
    params = _bound_all_params(real, {})

    vnames = [[_jet_name(f"v{j}", k) for k in range(depth + 1)]
              for j in (1, 2)]
    succ = {}
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
    vjets = np.empty((len(traj.t), 2, depth + 1))
    for j in (1, 2):
        vjets[:, j - 1, 0] = traj.v[:, j - 1]  # v as it was integrated
        for k in range(1, depth + 1):
            fn = compile_fn(v_derivative(v, j, k), ("t",))
            vjets[:, j - 1, k] = np.broadcast_to(fn([traj.t]), traj.t.shape)

    cols = [traj.z[:, i] for i in range(n)]
    cols += [vjets[:, 0, k] for k in range(depth + 1)]
    cols += [vjets[:, 1, k] for k in range(depth + 1)]

    jets = {}
    for name, base in (("y1", zs[0]), ("y2", zs[n - 1])):
        stack = np.empty((len(traj.t), depth + 1))
        e = Sym(base)
        for m in range(depth + 1):
            fn = compile_fn(e, order, params)
            stack[:, m] = np.broadcast_to(fn(cols), traj.t.shape)
            if m < depth:
                e = _total_derivative(e, succ)
        jets[name] = stack
    return FlatSignal(t=traj.t.copy(), y1_jets=jets["y1"],
                      y2_jets=jets["y2"])


def fd_bracket(X, Y, q, h=DEFAULT_FD_STEP):
    """Central-difference [X, Y](q) = J_Y(q) X(q) - J_X(q) Y(q) at the
    one point of q, every field evaluated as a one-row batch, in the
    order J_Y, X, J_X, Y and the stencil of J column by column."""
    if X.frame is not Y.frame and X.frame.name != Y.frame.name:
        raise HarnessError("bracket operands live in different charts")
    n = X.frame.n
    base = np.asarray(q.coords[0], dtype=float)

    def vals(F, coords):
        at = coords.tolist()
        try:
            return F.frame.evaluator(F.components)([at], q.params)[0]
        except EvalError as exc:
            raise HarnessError(
                f"evaluation failure in the stencil at {tuple(at)}: "
                f"{exc}") from exc

    def jac(F):
        J = np.empty((n, n))
        for j in range(n):
            step = np.zeros(n)
            step[j] = h
            J[:, j] = (vals(F, base + step) - vals(F, base - step)) / (2 * h)
        return J

    return jac(Y) @ vals(X, base) - jac(X) @ vals(Y, base)


def bracket_errors(spec, points):
    """max_rel_error of the bracket oracle's three cases, in its
    case-major order, with no memo: each case evaluates its own
    Jacobians and base values at every point, one point at a time."""
    b1 = lie_bracket(spec.g1, spec.g2)
    cases = ((spec.g1, spec.g2, b1), (spec.g1, b1, lie_bracket(spec.g1, b1)),
             (spec.g2, b1, lie_bracket(spec.g2, b1)))
    out = []
    for X, Y, B in cases:
        m = 0.0
        for q in each_point(points):
            fd = fd_bracket(X, Y, q)
            exact = B.values(q)[0]
            scale = max(1.0, float(np.max(np.abs(exact))))
            m = max(m, float(np.max(np.abs(fd - exact))) / scale)
        out.append(m)
    return out


def bracket_section(spec, points, tol):
    """The report's "brackets" section, from bracket_errors."""
    errs = bracket_errors(spec, points)
    labels = ("[g1,g2]", "[g1,[g1,g2]]", "[g2,[g1,g2]]")
    return {"pass": max(errs) <= tol, "max_rel_error": max(errs),
            "points_checked": len(points),
            "per_bracket": [{"bracket": b, "max_rel_error": m}
                            for b, m in zip(labels, errs)]}


def stencil_points(points, h=DEFAULT_FD_STEP):
    """The shifted points of harness.Stencil(points, h), one object per
    row: for each coordinate j in turn, a one-row set for each q + h e_j
    and then for each q - h e_j, over the rows q of points."""
    rows = each_point(points)
    base = np.array([q.coords[0] for q in rows], dtype=float)
    return [[Points(q.frame, (tuple(c),), q.params)
             for q, c in zip(rows, (base + e).tolist())]
            for d in np.eye(base.shape[-1]) * h for e in (d, -d)]
