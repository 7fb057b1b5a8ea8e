"""Chart and feedback construction for the chained control structure.

Finds output functions h1, h2 with L_{g1}h1 = 1, dh1 killing
Delta_1 = {g2, ad_{g1}g2, ..., ad_{g1}^{n-2}g2} and dh2 killing
Delta_2 (same list up to ad^{n-3}), builds the chart
z = (h2, L_{g1}h2, ..., L_{g1}^{n-2}h2, h1) and the feedback matrix
beta that turns (g1, g2) into the chained pair
  ghat1 = (z2, ..., z_{n-1}, 0, 1),  ghat2 = (0, ..., 0, 1, 0).

The search is an undetermined-coefficient ansatz over polynomial
monomials solved as a linear system over the parameter field; every
candidate is accepted only after the chained structure is re-verified
on the transformed fields, so the Delta recipe never has to be trusted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .diffgeo import VectorField, lie_bracket, lie_derivative_fn
from .flags import SystemSpec, _reference_points
from .symx import (Const, Div, Expr, Frame, Mul, Point, Sub, Sym, SymxError,
                   ZERO, ONE_E, diff, free_symbols, linear_decompose,
                   normalize, polynomial_terms, solve_affine_exprs, subst)

JACOBIAN_TOL = 1e-8


class ChainedError(SymxError):
    """Chart or output-pair construction failed."""


@dataclass(frozen=True)
class OutputPair:
    """Solved output functions with their ansatz metadata."""

    h1: Expr
    h2: Expr
    degree: int
    monomials: tuple[str, ...]


@dataclass(frozen=True)
class Chart:
    """Forward chart z = phi(x), with inverse when solvable in sequence."""

    name: str
    x_frame: Frame
    z_frame: Frame
    forward: tuple[Expr, ...]
    inverse: tuple[Expr, ...] | None
    jacobian_dets: tuple[float, ...]

    def to_z(self, e: Expr) -> Expr:
        """Rewrite an x-expression in z-coordinates (needs the inverse)."""
        if self.inverse is None:
            raise ChainedError("chart has no symbolic inverse")
        mapping = dict(zip(self.x_frame.states, self.inverse))
        return normalize(subst(e, mapping))

    @cached_property
    def _forward_fn(self):
        return self.x_frame.evaluator(self.forward)

    def forward_values(self, q: Point) -> np.ndarray:
        if q.frame != self.x_frame:
            raise ChainedError(f"point in chart '{q.frame.name}', chart "
                               f"maps from '{self.x_frame.name}'")
        return np.array(self._forward_fn(q.coords, q.params))


@dataclass(frozen=True)
class FeedbackMatrix:
    """Static feedback u = alpha + beta v, entries in x-coordinates."""

    beta: tuple[tuple[Expr, Expr], tuple[Expr, Expr]]
    alpha: tuple[Expr, Expr]


def control_pair(spec: SystemSpec, fb: FeedbackMatrix
                 ) -> tuple[VectorField, VectorField]:
    """The transformed fields ghat_i; column i of beta weights (g1, g2)."""
    b = fb.beta
    g1h = spec.g1.scale(b[0][0]) + spec.g2.scale(b[1][0])
    g2h = spec.g1.scale(b[0][1]) + spec.g2.scale(b[1][1])
    return g1h, g2h


def _delta_chains(spec: SystemSpec) -> tuple[list[VectorField], list[VectorField]]:
    ads = [spec.g2]
    for _ in range(spec.n - 2):
        ads.append(lie_bracket(spec.g1, ads[-1]))
    return ads, ads[:-1]


def _monomials(states: tuple[str, ...], degree: int) -> list[tuple[tuple[str, int], ...]]:
    out = []
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(states, d):
            mono: dict[str, int] = {}
            for s in combo:
                mono[s] = mono.get(s, 0) + 1
            out.append(tuple(sorted(mono.items())))
    return out


def _mono_expr(mono) -> Expr:
    e: Expr | None = None
    for name, k in mono:
        factor = Sym(name) ** k
        e = factor if e is None else Mul(e, factor)
    return e if e is not None else ONE_E


def _identity_rows(e: Expr, unknowns: list[str], states) -> list[tuple[list[Expr], Expr]]:
    """Rows (coefficients over the unknowns, rhs) forcing e = 0 identically.

    e must be affine in the unknowns; its normalized numerator is split
    by state monomials and each coefficient contributes one row over
    the parameter field.
    """
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


def _ansatz_names(frame: Frame, count: int) -> list[str]:
    taken = frame.declared()
    names, i = [], 0
    while len(names) < count:
        cand = f"c{i}_"
        if cand not in taken:
            names.append(cand)
        i += 1
    return names


def _min_term(e: Expr, states) -> tuple[tuple, Expr]:
    terms = polynomial_terms(e, states)
    key = min(terms, key=lambda m: (sum(k for _, k in m), m))
    return key, terms[key]


def _solve_identity(eq_rows: list[list[tuple[list[Expr], Expr]]],
                    unknowns: list[str],
                    ref_env) -> tuple[list[Expr], list[list[Expr]]] | None:
    """Solve the stacked _identity_rows of several equations."""
    rows = [row for rows_e in eq_rows for row, _ in rows_e]
    rhs = [r for rows_e in eq_rows for _, r in rows_e]
    if not rows:
        basis = []
        for i in range(len(unknowns)):
            v: list[Expr] = [ZERO] * len(unknowns)
            v[i] = ONE_E
            basis.append(v)
        return [ZERO] * len(unknowns), basis
    return solve_affine_exprs(rows, rhs, ref_env)


def find_output_pair(spec: SystemSpec, degree: int = 2,
                     ref_points: list[Point] | None = None) -> OutputPair:
    """Search for (h1, h2) by undetermined coefficients up to degree.

    Candidates are tried in a deterministic order and each one must
    pass build_chart + verify_chained before being returned. Raises
    ChainedError when no candidate at this degree verifies.
    """
    if ref_points is None:
        ref_points = _reference_points(spec)
    frame = spec.frame
    states = frame.states
    delta1, delta2 = _delta_chains(spec)
    monos = _monomials(states, degree)
    names = _ansatz_names(frame, len(monos))
    ansatz = ZERO
    for nm, mono in zip(names, monos):
        ansatz = ansatz + Sym(nm) * _mono_expr(mono)
    denv = ref_points[0].env()
    grads = [normalize(diff(ansatz, x)) for x in states]

    def pair_with(vf: VectorField) -> Expr:
        acc: Expr = ZERO
        for c, comp in zip(grads, vf.components):
            acc = acc + c * comp
        return acc

    # h1: <dh1, X> = 0 on Delta_1 and L_{g1}h1 = 1; Delta_2 is a
    # prefix of Delta_1, so its rows are shared
    delta_rows = [_identity_rows(pair_with(X), names, states)
                  for X in delta1]
    unit_rows = _identity_rows(pair_with(spec.g1) - ONE_E, names, states)
    sol1 = _solve_identity(delta_rows + [unit_rows], names, denv)
    if sol1 is None:
        raise ChainedError(f"no h1 with unit pairing at degree {degree}")
    part1, null1 = sol1
    h1_cands = [_assemble(names, monos, part1)]
    for vec in null1[:4]:
        h1_cands.append(_assemble(
            names, monos, [normalize(a + b) for a, b in zip(part1, vec)]))
    h1_cands = [h for h in h1_cands if h != ZERO]
    if not h1_cands:
        raise ChainedError(f"h1 solution space trivial at degree {degree}")

    # h2: <dh2, X> = 0 on Delta_2, any nonzero solution
    sol2 = _solve_identity(delta_rows[:len(delta2)], names, denv)
    part2, null2 = sol2 if sol2 is not None else ([], [])
    h2_cands = [_assemble(names, monos, vec) for vec in null2]
    for i in range(len(null2)):
        for j in range(i + 1, len(null2)):
            h2_cands.append(_assemble(
                names, monos,
                [normalize(a + b) for a, b in zip(null2[i], null2[j])]))
    h2_cands = [h for h in h2_cands if h != ZERO][:60]
    if not h2_cands:
        raise ChainedError(
            f"output constraint system forces dh2 = 0 at degree {degree}")

    for h1 in h1_cands:
        _, k1 = _min_term(h1, states)
        for h2 in h2_cands:
            _, k2 = _min_term(h2, states)
            scale = normalize(Div(ONE_E, Mul(k1, k2)))
            pair = OutputPair(h1, normalize(Mul(scale, h2)), degree,
                              tuple(str(_mono_expr(m)) for m in monos))
            try:
                chart, fb = build_chart(pair, spec, ref_points)
                verified = verify_chained(chart, fb, spec, ref_points)["pass"]
            except ChainedError:
                continue
            if verified:
                return pair
    raise ChainedError(f"no output pair verified at degree {degree}")


def _assemble(names, monos, coeffs) -> Expr:
    acc: Expr = ZERO
    for nm, mono, c in zip(names, monos, coeffs):
        if c == ZERO:
            continue
        acc = acc + c * _mono_expr(mono)
    return normalize(acc)


def _z_frame(frame: Frame) -> Frame:
    return Frame(f"{frame.name}_chained",
                 tuple(f"z{i}" for i in range(1, frame.n + 1)),
                 frame.params)


def _invert_sequential(forward: tuple[Expr, ...], x_frame: Frame,
                       z_frame: Frame) -> tuple[Expr, ...] | None:
    """Solve z_i = phi_i(x) for x one variable at a time.

    Succeeds when some order of the equations introduces exactly one
    still-unknown state each, affinely. Returns None otherwise.
    """
    solved: dict[str, Expr] = {}
    remaining = set(x_frame.states)
    used = [False] * len(forward)
    progress = True
    while remaining and progress:
        progress = False
        for i, phi in enumerate(forward):
            if used[i]:
                continue
            e = normalize(subst(phi, solved))
            unknown = sorted(free_symbols(e) & remaining)
            if len(unknown) != 1:
                continue
            xj = unknown[0]
            try:
                cmap, rest = linear_decompose(e, [xj])
            except SymxError:
                continue
            coeff = cmap.get(xj, ZERO)
            if coeff == ZERO:
                continue
            solved[xj] = normalize(Div(Sub(Sym(z_frame.states[i]), rest),
                                       coeff))
            remaining.discard(xj)
            used[i] = True
            progress = True
    if remaining:
        return None
    return tuple(solved[x] for x in x_frame.states)


def build_chart(source: "OutputPair | Chart | tuple[Expr, ...]",
                spec: SystemSpec,
                ref_points: list[Point] | None = None
                ) -> tuple[Chart, FeedbackMatrix]:
    """Chart from an output pair (or user-supplied forward map) plus
    the feedback matrix that normalizes the last two coordinate rates.

    beta is the inverse of the pairing N = [[L_{g1}z_n, L_{g2}z_n],
    [L_{g1}z_{n-1}, L_{g2}z_{n-1}]], so that <dz_n, ghat1> = 1,
    <dz_{n-1}, ghat2> = 1 and the cross pairings vanish.
    """
    if ref_points is None:
        ref_points = _reference_points(spec)
    frame = spec.frame
    n = frame.n
    if isinstance(source, OutputPair):
        zs = [normalize(source.h2)]
        for _ in range(n - 2):
            zs.append(lie_derivative_fn(spec.g1, zs[-1]))
        zs.append(normalize(source.h1))
        forward = tuple(zs)
    elif isinstance(source, Chart):
        forward = source.forward
    else:
        forward = tuple(normalize(e) for e in source)
    if len(forward) != n:
        raise ChainedError(f"chart has {len(forward)} components, need {n}")

    jac = frame.evaluator([diff(zi, xj) for zi in forward
                           for xj in frame.states])
    dets = [float(np.linalg.det(np.reshape(jac(q.coords, q.params), (n, n))))
            for q in ref_points]
    if all(abs(d) <= JACOBIAN_TOL for d in dets):
        raise ChainedError("chart Jacobian singular at all reference points")
    if any(abs(d) <= JACOBIAN_TOL for d in dets):
        raise ChainedError("chart Jacobian singular at a reference point")

    zf = _z_frame(frame)
    inverse = _invert_sequential(forward, frame, zf)
    chart = Chart("chained", frame, zf, forward, inverse, tuple(dets))

    pairing = [[lie_derivative_fn(g, h) for g in (spec.g1, spec.g2)]
               for h in (forward[n - 1], forward[n - 2])]
    det = normalize(pairing[0][0] * pairing[1][1]
                    - pairing[0][1] * pairing[1][0])
    if det == ZERO:
        raise ChainedError("feedback pairing determinant identically zero")
    beta = ((normalize(Div(pairing[1][1], det)),
             normalize(Div(Mul(Const(Fraction(-1)), pairing[0][1]), det))),
            (normalize(Div(Mul(Const(Fraction(-1)), pairing[1][0]), det)),
             normalize(Div(pairing[0][0], det))))
    return chart, FeedbackMatrix(beta, (ZERO, ZERO))


def verify_chained(chart: Chart, fb: FeedbackMatrix, spec: SystemSpec,
                   sample_points: list[Point] | None = None,
                   tol: float = 1e-8) -> dict:
    """Push the transformed fields through the chart and compare with
    the chained pattern; symbolic when the inverse chart exists,
    else numeric at sample points."""
    n = spec.n
    zf = chart.z_frame
    g1h, g2h = control_pair(spec, fb)
    z_syms = [Sym(s) for s in zf.states]
    target1 = list(z_syms[1:n - 1]) + [ZERO, ONE_E]
    target2 = [ZERO] * (n - 2) + [ONE_E, ZERO]
    push1 = [lie_derivative_fn(g1h, zi) for zi in chart.forward]
    push2 = [lie_derivative_fn(g2h, zi) for zi in chart.forward]

    mismatches = []
    if chart.inverse is not None:
        for i in range(n):
            got1 = chart.to_z(push1[i])
            got2 = chart.to_z(push2[i])
            if normalize(Sub(got1, target1[i])) != ZERO:
                mismatches.append({"field": "g1hat", "component": i,
                                   "got": str(got1), "want": str(target1[i])})
            if normalize(Sub(got2, target2[i])) != ZERO:
                mismatches.append({"field": "g2hat", "component": i,
                                   "got": str(got2), "want": str(target2[i])})
        return {"pass": not mismatches, "mode": "symbolic",
                "mismatches": mismatches}

    if sample_points is None:
        sample_points = _reference_points(spec)
    pushes = chart.x_frame.evaluator(push1 + push2)
    targets = zf.evaluator(target1 + target2)
    checked = 0
    for q in sample_points:
        try:
            got = pushes(q.coords, q.params)
            want = targets(chart.forward_values(q), q.params)
        except SymxError:
            continue
        for i in range(n):
            for k, nm in ((i, "g1hat"), (n + i, "g2hat")):
                if abs(got[k] - want[k]) > tol * (1.0 + abs(want[k])):
                    mismatches.append(
                        {"field": nm, "component": i,
                         "at": [float(c) for c in q.coords],
                         "got": got[k], "want": want[k]})
        checked += 1
    if checked == 0:
        raise ChainedError("numeric verification inconclusive: "
                           "all sample points rejected")
    return {"pass": not mismatches, "mode": "numeric",
            "points_checked": checked, "mismatches": mismatches}
