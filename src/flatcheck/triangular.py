"""Drift-cancelling feedback and the triangular normal form.

Once a chained chart and input transform are in hand, the remaining
work is affine: pick alpha so the transformed drift loses its top two
z-components, read off the surviving drift rows phi_i, and certify
that each phi_i only involves the coordinates the triangular shape
permits (z_1..z_{i+1} and z_n). The flat output and its regularity
conditions fall out of the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .symx import (
    Const,
    EvalError,
    Expr,
    Frame,
    Point,
    Sym,
    diff,
    free_symbols,
    is_zero,
    normalize,
    subst,
    to_str,
)
from .diffgeo import VectorField, lie_derivative_fn
from .flags import SystemSpec, _reference_points
from .chained import Chart, ChainedError, FeedbackMatrix

DEFAULT_DEP_TOL = 1e-8


class TriangularError(Exception):
    """Extraction failed: the closed loop is not in triangular form."""


@dataclass(frozen=True)
class TriangularRealization:
    """The closed-loop system in z-coordinates.

    phis holds the drift rows 1..n-2 as z-expressions when the chart
    admits a symbolic inverse, else None (the x-coordinate forms in
    phis_x are always present). regularity[i] is the expression
    v1 + dphi_{i+1}/dz_{i+2} over reg_frame, whose nonvanishing keeps
    the flat-output jet map invertible.
    """

    system: SystemSpec
    chart: Chart
    feedback: FeedbackMatrix
    phis: tuple[Expr, ...] | None
    phis_x: tuple[Expr, ...]
    reg_frame: Frame | None
    regularity: tuple[Expr, ...] | None
    dependence_mode: str

    @property
    def n(self) -> int:
        return len(self.chart.forward)

    @property
    def flat_indices(self) -> tuple[int, int]:
        return (1, self.n)

    def closed_loop_drift(self) -> tuple[Expr, ...] | None:
        """Drift rows in z: (phi_1, ..., phi_{n-2}, 0, 0)."""
        if self.phis is None:
            return None
        zero = Const(Fraction(0))
        return self.phis + (zero, zero)


def drift_components(spec: SystemSpec, chart: Chart) -> tuple[Expr, Expr]:
    """abar = -(<dz_n, f>, <dz_{n-1}, f>), the drift seen by the top
    two z-rows before any input change."""
    n = spec.n
    neg = Const(Fraction(-1))
    return tuple(normalize(neg * lie_derivative_fn(spec.f, chart.forward[i]))
                 for i in (n - 1, n - 2))


def drift_feedback(spec: SystemSpec, chart: Chart,
                   fb: FeedbackMatrix) -> FeedbackMatrix:
    """Fill in alpha so that u = alpha + beta v cancels the drift in
    the top two z-rows; beta maps abar back through the input change."""
    abar = drift_components(spec, chart)
    b = fb.beta
    alpha = tuple(normalize(b[r][0] * abar[0] + b[r][1] * abar[1])
                  for r in range(2))
    return FeedbackMatrix(beta=b, alpha=(alpha[0], alpha[1]))


def _hat_drift(spec: SystemSpec, fb: FeedbackMatrix) -> VectorField:
    a1, a2 = fb.alpha
    comps = tuple(
        normalize(spec.f.components[i]
                  + a1 * spec.g1.components[i]
                  + a2 * spec.g2.components[i])
        for i in range(spec.n))
    return VectorField(spec.frame, comps)


def _witness(e: Expr, points: list[Point]) -> tuple[Point, float]:
    """Sample point where |e| (an x-expression) is largest."""
    best, best_val = points[0], 0.0
    fn = points[0].frame.evaluator((e,))
    for q in points:
        try:
            v = abs(fn(q.coords, q.params)[0])
        except EvalError:
            continue
        if v > best_val:
            best, best_val = q, v
    return best, best_val


def _forbidden_pairs(n: int) -> list[tuple[int, int]]:
    # 1-based: phi_i with i <= n-3 must not see z_j for i+2 <= j <= n-1
    return [(i, j) for i in range(1, n - 2) for j in range(i + 2, n)]


def _check_dependence_symbolic(phis: tuple[Expr, ...], chart: Chart,
                               points: list[Point]) -> None:
    n = len(chart.forward)
    zs = chart.z_frame.states
    for i, j in _forbidden_pairs(n):
        d = normalize(diff(phis[i - 1], zs[j - 1]))
        if is_zero(d):
            continue
        q, val = _witness(subst(d, dict(zip(zs, chart.forward))), points)
        raise TriangularError(
            f"triangular structure violated: dphi_{i}/dz_{j} = "
            f"{to_str(d)} != 0 (|value| = {val:.3e} at x = "
            f"{tuple(round(c, 4) for c in q.coords)})")


def _check_dependence_numeric(phis_x: tuple[Expr, ...], chart: Chart,
                              points: list[Point], tol: float) -> None:
    """Gradient projection: grad_z phi = J^{-T} grad_x (phi o chart),
    checked pointwise since there is nothing symbolic to differentiate
    against."""
    n = len(chart.forward)
    states = chart.x_frame.states
    pairs = _forbidden_pairs(n)
    rows = sorted({i for i, _ in pairs})  # the phi rows the pairs name
    # one function for the chart Jacobian, then each row's gradient
    fn = chart.x_frame.evaluator(
        [diff(c, s) for c in chart.forward for s in states]
        + [diff(phis_x[i - 1], s) for i in rows for s in states])
    for q in points:
        vals = np.array(fn(q.coords, q.params)).reshape(-1, n)
        Jt = vals[:n].T
        gzs = {i: np.linalg.solve(Jt, vals[n + r])
               for r, i in enumerate(rows)}
        for i, j in pairs:
            gz = gzs[i]
            scale = 1.0 + float(np.linalg.norm(gz))
            if abs(gz[j - 1]) > tol * scale:
                raise TriangularError(
                    f"triangular structure violated: dphi_{i}/dz_{j} = "
                    f"{gz[j - 1]:.3e} at x = "
                    f"{tuple(round(c, 4) for c in q.coords)}")


def _reg_frame(chart: Chart) -> Frame:
    zf = chart.z_frame
    if "v1" in zf.declared():
        raise TriangularError("symbol v1 already taken in the z-frame")
    return Frame(zf.name + "_reg", zf.states + ("v1",), zf.params)


def extract_triangular(spec: SystemSpec, chart: Chart,
                       fb: FeedbackMatrix,
                       dep_tol: float = DEFAULT_DEP_TOL,
                       seed: int = 7) -> TriangularRealization:
    """Build the closed-loop drift and certify the triangular shape.

    The two cancellation identities L_fhat z_n = L_fhat z_{n-1} = 0
    are checked exactly in x-coordinates, so they need no inverse
    chart. The dependence check runs symbolically when the inverse is
    available and by numeric gradient projection otherwise. A failure
    names the violating entry and a witness point: it means the
    geometric conditions did not actually hold on the working region.
    """
    n = spec.n
    fhat = _hat_drift(spec, fb)
    points = _reference_points(spec, seed=seed, count=25)
    for label, idx in (("n", n - 1), ("n-1", n - 2)):
        e = normalize(lie_derivative_fn(fhat, chart.forward[idx]))
        if not is_zero(e):
            q, val = _witness(e, points)
            raise TriangularError(
                f"drift cancellation failed in row {label}: "
                f"<dz_{label}, fhat> = {to_str(e)} "
                f"(|value| = {val:.3e} at x = "
                f"{tuple(round(c, 4) for c in q.coords)})")

    phis_x = tuple(normalize(lie_derivative_fn(fhat, chart.forward[i]))
                   for i in range(n - 2))

    if chart.inverse is not None:
        phis = tuple(chart.to_z(p) for p in phis_x)
        _check_dependence_symbolic(phis, chart, points)
        mode = "symbolic"
        rf = _reg_frame(chart)
        v1 = Sym("v1")
        zs = chart.z_frame.states
        regularity = tuple(
            normalize(v1 + diff(phis[i], zs[i + 1])) for i in range(n - 2))
    else:
        phis = None
        _check_dependence_numeric(phis_x, chart, points, dep_tol)
        mode = "numeric"
        rf = None
        regularity = None

    return TriangularRealization(system=spec, chart=chart, feedback=fb,
                                 phis=phis, phis_x=phis_x, reg_frame=rf,
                                 regularity=regularity,
                                 dependence_mode=mode)


def _param_scan(real: TriangularRealization) -> dict[str, list[str]]:
    params = set(real.chart.x_frame.params)

    def used(exprs) -> list[str]:
        seen: set[str] = set()
        for e in exprs:
            seen |= free_symbols(e) & params
        return sorted(seen)

    fb = real.feedback
    return {
        "chart": used(real.chart.forward),
        "beta": used(fb.beta[0] + fb.beta[1]),
        "alpha": used(fb.alpha),
        "phi": used(real.phis if real.phis is not None else real.phis_x),
    }


def flat_output(real: TriangularRealization) -> dict:
    """Report the flat output y = (z_1, z_n) and where it is valid.

    Regularity conditions come out twice: over (z, v1), and with the
    state rewritten through the chart when a symbolic inverse exists.
    In the second form only the state changes coordinates; the input
    slot is still the first transformed input, written u1 because the
    closed loop treats the drift-cancelled system as the plant. The
    parameter scan records which model parameters each synthesized
    object actually involves.
    """
    chart = real.chart
    n = real.n
    y = (chart.forward[0], chart.forward[n - 1])

    regularity_x = None
    frame_x_u = None
    if real.regularity is not None:
        xf = chart.x_frame
        for name in ("u1", "u2"):
            if name in xf.declared():
                raise TriangularError(f"symbol {name} already taken "
                                      "in the x-frame")
        frame_x_u = Frame(xf.name + "_u", xf.states + ("u1", "u2"), xf.params)
        u1 = Sym("u1")
        fwd_map = dict(zip(chart.z_frame.states, chart.forward))
        zs = chart.z_frame.states
        regularity_x = tuple(
            normalize(u1 + subst(diff(real.phis[i], zs[i + 1]), fwd_map))
            for i in range(n - 2))

    return {
        "y": y,
        "flat_indices": real.flat_indices,
        "regularity_z": real.regularity,
        "reg_frame_z": real.reg_frame,
        "regularity_x": regularity_x,
        "reg_frame_x": frame_x_u,
        "parameter_dependence": _param_scan(real),
    }
