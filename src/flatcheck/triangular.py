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

from .symx import (ONE_E, ZERO, Const, Expr, Frame, Points, Sym,
                   evaluable_rows, fold, free_symbols, is_zero, normalize,
                   rref_exprs, to_str)
from .diffgeo import VectorField, lie_derivative_fn
from .flags import SystemSpec, _reference_points
from .chained import Chart, FeedbackMatrix


class TriangularError(Exception):
    """Extraction failed: the closed loop is not in triangular form."""


@dataclass(frozen=True)
class TriangularRealization:
    """The closed-loop system, certified in triangular form.

    phis_x holds the drift rows phi_1..phi_{n-2} in x-coordinates and
    dphis_x[i] the x-expression of dphi_{i+1}/dz_{i+2}; both are always
    present. phis (the same rows as z-expressions) and regularity[i] =
    v1 + dphi_{i+1}/dz_{i+2} over reg_frame, whose nonvanishing keeps
    the flat-output jet map invertible, serve presentation and
    simulation only: phis, reg_frame and regularity are None exactly
    when chart.inverse is None.
    """

    system: SystemSpec
    chart: Chart
    feedback: FeedbackMatrix
    phis: tuple[Expr, ...] | None
    phis_x: tuple[Expr, ...]
    dphis_x: tuple[Expr, ...]
    reg_frame: Frame | None
    regularity: tuple[Expr, ...] | None

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


def _witness(e: Expr, points: Points) -> tuple[tuple[float, ...], float]:
    """The coordinates of the sample point where |e| (an x-expression)
    is largest, and |e| there."""
    fn = points.frame.evaluator((e,))
    kept, vals = evaluable_rows(lambda rows: fn(rows, points.params),
                                points.coords)
    best, best_val = points.coords[0], 0.0
    for i, v in zip(kept, np.abs(vals[:, 0]).tolist()):
        if v > best_val:
            best, best_val = points.coords[i], v
    return best, best_val


def _forbidden_pairs(n: int) -> list[tuple[int, int]]:
    # 1-based: phi_i with i <= n-3 must not see z_j for i+2 <= j <= n-1
    return [(i, j) for i in range(1, n - 2) for j in range(i + 2, n)]


def _coordinate_fields(chart: Chart) -> list[list[Expr]]:
    """The coordinate fields d/dz_j, j = 2..n-1, as x-components.

    They are columns 2..n-1 of J^{-1}, J = d(chart.forward)/dx, read
    off one exact elimination of [J | e_2 ... e_{n-1}] whose pivots are
    the first symbolically nonzero entries. build_chart refused any
    chart whose J is singular at a sample point, so J is invertible
    over the expression field and the pivot of row k is in column k.
    """
    states = chart.x_frame.states
    n = len(states)
    aug = [[fold(((1, None, z, s),)) for s in states]
           + [ONE_E if r == j else ZERO for j in range(1, n - 1)]
           for r, z in enumerate(chart.forward)]
    rows, _ = rref_exprs(aug)
    # row k reads p_k * (J^{-1} e_j)_k = rows[k][n + j - 2], p_k unscaled
    return [[normalize(rows[k][n + c] / rows[k][k]) for k in range(n)]
            for c in range(n - 2)]


def _z_derivatives(phis_x: tuple[Expr, ...], chart: Chart
                   ) -> dict[tuple[int, int], Expr]:
    """dphi_i/dz_j as x-expressions, 1-based, for i + 1 <= j <= n - 1:
    the forbidden pairs and the regularity terms dphi_i/dz_{i+1}. Each
    is the x-gradient of phi_i applied to the coordinate field d/dz_j."""
    states = chart.x_frame.states
    n = len(states)
    fields = _coordinate_fields(chart)
    out = {}
    for i, phi in enumerate(phis_x, start=1):
        grad = [fold(((1, None, phi, s),)) for s in states]
        for j in range(i + 1, n):
            out[i, j] = fold((1, g, c, None)
                             for g, c in zip(grad, fields[j - 2]) if c != ZERO)
    return out


def _reg_frame(chart: Chart) -> Frame:
    zf = chart.z_frame
    if "v1" in zf.declared():
        raise TriangularError("symbol v1 already taken in the z-frame")
    return Frame(zf.name + "_reg", zf.states + ("v1",), zf.params)


def extract_triangular(spec: SystemSpec, chart: Chart,
                       fb: FeedbackMatrix,
                       seed: int = 7) -> TriangularRealization:
    """Build the closed-loop drift and certify the triangular shape.

    Every decision is exact and made in x-coordinates, so none needs
    the inverse chart: the two cancellation identities
    L_fhat z_n = L_fhat z_{n-1} = 0, and the dependence condition,
    where dphi_i/dz_j is the derivative of phi_i along the coordinate
    field d/dz_j. The same derivatives give the x-regularity terms. A
    failure names the violating entry and a witness point: it means the
    geometric conditions did not actually hold on the working region.
    The inverse, when the chart has one, only rewrites the drift rows
    and the regularity terms in z.
    """
    n = spec.n
    fhat = _hat_drift(spec, fb)
    points = _reference_points(spec, seed=seed, count=25)
    for label, idx in (("n", n - 1), ("n-1", n - 2)):
        e = lie_derivative_fn(fhat, chart.forward[idx])
        if not is_zero(e):
            q, val = _witness(e, points)
            raise TriangularError(
                f"drift cancellation failed in row {label}: "
                f"<dz_{label}, fhat> = {to_str(e)} "
                f"(|value| = {val:.3e} at x = "
                f"{tuple(round(c, 4) for c in q)})")

    phis_x = tuple(lie_derivative_fn(fhat, chart.forward[i])
                   for i in range(n - 2))
    ds = _z_derivatives(phis_x, chart)
    for i, j in _forbidden_pairs(n):
        d = ds[i, j]
        if not is_zero(d):
            q, val = _witness(d, points)
            raise TriangularError(
                f"triangular structure violated: dphi_{i}/dz_{j} = "
                f"{to_str(d)} != 0 (|value| = {val:.3e} at x = "
                f"{tuple(round(c, 4) for c in q)})")
    dphis_x = tuple(ds[i, i + 1] for i in range(1, n - 1))

    phis = rf = regularity = None
    if chart.inverse is not None:
        phis = tuple(chart.to_z(p) for p in phis_x)
        rf = _reg_frame(chart)
        v1 = Sym("v1")
        zs = chart.z_frame.states
        regularity = tuple(
            fold(((1, None, v1, None), (1, None, phis[i], zs[i + 1])))
            for i in range(n - 2))

    return TriangularRealization(system=spec, chart=chart, feedback=fb,
                                 phis=phis, phis_x=phis_x, dphis_x=dphis_x,
                                 reg_frame=rf, regularity=regularity)


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

    Regularity conditions come out twice: over (z, v1) when the chart
    has a symbolic inverse, and always with the state in x-coordinates.
    In the second form only the state changes coordinates; the input
    slot is still the first transformed input, written u1 because the
    closed loop treats the drift-cancelled system as the plant. The
    parameter scan records which model parameters each synthesized
    object actually involves.
    """
    chart = real.chart
    n = real.n
    y = (chart.forward[0], chart.forward[n - 1])

    xf = chart.x_frame
    for name in ("u1", "u2"):
        if name in xf.declared():
            raise TriangularError(f"symbol {name} already taken "
                                  "in the x-frame")
    frame_x_u = Frame(xf.name + "_u", xf.states + ("u1", "u2"), xf.params)
    u1 = Sym("u1")
    regularity_x = tuple(normalize(u1 + d) for d in real.dphis_x)

    return {
        "y": y,
        "flat_indices": real.flat_indices,
        "regularity_z": real.regularity,
        "reg_frame_z": real.reg_frame,
        "regularity_x": regularity_x,
        "reg_frame_x": frame_x_u,
        "parameter_dependence": _param_scan(real),
    }
