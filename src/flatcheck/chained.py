"""Chart and feedback construction for the chained control structure.

Finds output functions h1, h2 with L_{g1}h1 = 1, dh1 killing
Delta_1 = {g2, ad_{g1}g2, ..., ad_{g1}^{n-2}g2} and dh2 killing
Delta_2 (same list up to ad^{n-3}), builds the chart
z = (h2, L_{g1}h2, ..., L_{g1}^{n-2}h2, h1) and the feedback matrix
beta that turns (g1, g2) into the chained pair
  ghat1 = (z2, ..., z_{n-1}, 0, 1),  ghat2 = (0, ..., 0, 1, 0).
build_chart takes the forward map as a tuple, whether a user chart or
the chain of a found pair; the search returns the chart, whose first
component is h2 and last is h1.

The search is an undetermined-coefficient ansatz over polynomial
monomials solved as a linear system over the parameter field. symx's
Ansatz builds and solves that system and gives each candidate h as a
normal-form tree; this module handles no (num, den) pair. Every
candidate is accepted only after the chained structure is re-verified
on the transformed fields, so the Delta recipe never has to be trusted. That
check is exact and runs in x-coordinates: the chained pattern is
pushed through the chart, so it needs no inverse chart.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .diffgeo import VectorField, lie_bracket, lie_derivative_fn
from .flags import SystemSpec, _reference_points
from .symx import (Ansatz, Const, Div, Expr, Frame, Mul, Point, Sub, Sym,
                   SymxError, ZERO, ONE_E, diff, free_symbols,
                   linear_decompose, normalize, point_rows,
                   polynomial_terms, subst)

JACOBIAN_TOL = 1e-8


class ChainedError(SymxError):
    """Chart or output-pair construction failed."""


@dataclass(frozen=True)
class Chart:
    """Forward chart z = phi(x), with inverse when solvable in sequence."""

    x_frame: Frame
    z_frame: Frame
    forward: tuple[Expr, ...]
    inverse: tuple[Expr, ...] | None

    def to_z(self, e: Expr) -> Expr:
        """Rewrite an x-expression in z-coordinates (needs the inverse)."""
        if self.inverse is None:
            raise ChainedError("chart has no symbolic inverse")
        mapping = dict(zip(self.x_frame.states, self.inverse))
        return normalize(subst(e, mapping))

    def forward_values(self, q: Point) -> np.ndarray:
        if q.frame != self.x_frame:
            raise ChainedError(f"point in chart '{q.frame.name}', chart "
                               f"maps from '{self.x_frame.name}'")
        evaluate = self.x_frame.evaluator(self.forward)
        return evaluate([q.coords], q.params)[0]


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


def _monomials(states: tuple[str, ...], degree: int
               ) -> list[tuple[tuple[str, int], ...]]:
    out = []
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(states, d):
            mono: dict[str, int] = {}
            for s in combo:
                mono[s] = mono.get(s, 0) + 1
            out.append(tuple(sorted(mono.items())))
    return out


def _min_term(e: Expr, states) -> tuple[tuple, Expr]:
    terms = polynomial_terms(e, states)
    key = min(terms, key=lambda m: (sum(k for _, k in m), m))
    return key, terms[key]


def _replay(seen: list, rest: Iterator) -> Iterator:
    """seen, then what is left of rest, kept in seen as it is drawn:
    every pass yields the same items, and rest is drawn at most once."""
    yield from seen
    for item in rest:
        seen.append(item)
        yield item


def find_output_pair(spec: SystemSpec, degree: int = 2
                     ) -> tuple[Chart, FeedbackMatrix]:
    """Search for (h1, h2) by undetermined coefficients up to degree.

    Candidates are tried in a deterministic order; each pair gives the
    chart z = (h2, L_g1 h2, ..., L_g1^(n-2) h2, h1), which must pass
    build_chart + verify_chained. The first that does is returned with
    the feedback it was verified with, so h2 is chart.forward[0] and h1
    chart.forward[-1]. Candidates are built as the search reaches them.
    Raises ChainedError when no candidate at this degree verifies.
    """
    ref_points = _reference_points(spec)
    states = spec.frame.states
    delta1, delta2 = _delta_chains(spec)
    ansatz = Ansatz(_monomials(states, degree), states)
    denv = ref_points[0].env()

    def candidates(vector_sums) -> Iterator[Expr]:
        for vectors in vector_sums:
            h = ansatz.expr(*vectors)
            if h != ZERO:
                yield h

    # h1: <dh1, X> = 0 on Delta_1 and L_{g1}h1 = 1; Delta_2 is a
    # prefix of Delta_1, so its rows are shared
    delta_rows = [ansatz.rows(X.components) for X in delta1]
    unit_rows = ansatz.rows(spec.g1.components, 1)
    sol1 = ansatz.solve([r for rs in delta_rows + [unit_rows] for r in rs],
                        denv)
    if sol1 is None:
        raise ChainedError(f"no h1 with unit pairing at degree {degree}")
    part1, null1 = sol1
    h1_rest = candidates(itertools.chain(
        [(part1,)], ((part1, vec) for vec in null1[:4])))
    h1_seen = list(itertools.islice(h1_rest, 1))
    if not h1_seen:
        raise ChainedError(f"h1 solution space trivial at degree {degree}")

    # h2: <dh2, X> = 0 on Delta_2, any nonzero solution
    sol2 = ansatz.solve([r for rs in delta_rows[:len(delta2)] for r in rs],
                        denv)
    null2 = sol2[1] if sol2 is not None else []
    h2_rest = itertools.islice(candidates(itertools.chain(
        itertools.combinations(null2, 1),
        itertools.combinations(null2, 2))), 60)
    h2_seen = list(itertools.islice(h2_rest, 1))
    if not h2_seen:
        raise ChainedError(
            f"output constraint system forces dh2 = 0 at degree {degree}")

    for h1 in _replay(h1_seen, h1_rest):
        _, k1 = _min_term(h1, states)
        for h2 in _replay(h2_seen, h2_rest):
            _, k2 = _min_term(h2, states)
            scale = normalize(Div(ONE_E, Mul(k1, k2)))
            zs = [normalize(Mul(scale, h2))]
            for _ in range(spec.n - 2):
                zs.append(lie_derivative_fn(spec.g1, zs[-1]))
            try:
                chart, fb = build_chart((*zs, h1), spec, ref_points)
            except ChainedError:
                continue
            if verify_chained(chart, fb, spec)["pass"]:
                return chart, fb
    raise ChainedError(f"no output pair verified at degree {degree}")


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


def build_chart(source: tuple[Expr, ...], spec: SystemSpec,
                ref_points: list[Point] | None = None
                ) -> tuple[Chart, FeedbackMatrix]:
    """Chart from a forward map z = phi(x) (a user chart, or the chain
    of an output pair) plus the feedback matrix that normalizes the
    last two coordinate rates.

    beta is the inverse of the pairing N = [[L_{g1}z_n, L_{g2}z_n],
    [L_{g1}z_{n-1}, L_{g2}z_{n-1}]], so that <dz_n, ghat1> = 1,
    <dz_{n-1}, ghat2> = 1 and the cross pairings vanish.
    """
    if ref_points is None:
        ref_points = _reference_points(spec)
    frame = spec.frame
    n = frame.n
    forward = tuple(normalize(e) for e in source)
    if len(forward) != n:
        raise ChainedError(f"chart has {len(forward)} components, need {n}")

    jac = frame.evaluator([diff(zi, xj) for zi in forward
                           for xj in frame.states])
    dets = np.linalg.det(jac(*point_rows(ref_points)).reshape(
        -1, n, n)).tolist()
    if all(abs(d) <= JACOBIAN_TOL for d in dets):
        raise ChainedError("chart Jacobian singular at all reference points")
    if any(abs(d) <= JACOBIAN_TOL for d in dets):
        raise ChainedError("chart Jacobian singular at a reference point")

    zf = _z_frame(frame)
    inverse = _invert_sequential(forward, frame, zf)
    chart = Chart(frame, zf, forward, inverse)

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


def verify_chained(chart: Chart, fb: FeedbackMatrix,
                   spec: SystemSpec) -> dict:
    """Check the transformed fields against the chained pattern pushed
    through the chart, exactly and in x-coordinates, so no inverse
    chart is needed: <dz_i, ghat1> must be z_{i+1} (the x-expression
    chart.forward[i]) for i <= n-2, then 0 and 1, and <dz_i, ghat2>
    must be 0, except 1 at i = n-1 (1-based)."""
    n = spec.n
    g1h, g2h = control_pair(spec, fb)
    wants = ((g1h, "g1hat", list(chart.forward[1:n - 1]) + [ZERO, ONE_E]),
             (g2h, "g2hat", [ZERO] * (n - 2) + [ONE_E, ZERO]))
    mismatches = []
    for i, zi in enumerate(chart.forward):
        for g, name, want in wants:
            got = lie_derivative_fn(g, zi)
            if normalize(Sub(got, want[i])) != ZERO:
                mismatches.append({"field": name, "component": i,
                                   "got": str(got), "want": str(want[i])})
    return {"pass": not mismatches, "mode": "symbolic",
            "mismatches": mismatches}
