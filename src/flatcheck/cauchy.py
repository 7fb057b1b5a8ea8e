"""Annihilators of the derived flag and the drift containment test.

For the derived flag level G_k (valid levels 1 <= k <= n-3) this
module computes the codistribution of one-forms annihilating it by
symbolic elimination, the pointwise Cauchy characteristic space
  A_q = {X : <lam^i, X> = 0 and i_X d(lam^i) in span{lam^j} at q},
its annihilator C_q (the retracting space), and the containment
L_f(lam^i)|_q in C_q that the flatness test requires.

The exterior derivatives d(lam^i) and the Lie derivatives L_f(lam^i)
are symbolic. Consecutive levels share most of their generators, so
one check builds one form per distinct generator tree, with its d and
L_f, and evaluates each of them once, in one batch over all points.
A_q and C_q are numeric: each level takes one stacked pass over all
points, each linear-algebra step one LAPACK call. The containment
check tries an exact route first:
when the sampled C_q all equal the span of a fixed subset of
coordinate differentials, membership reduces to symbolic vanishing of
the complementary coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffgeo import (OneForm, TwoForm, exterior_derivative_1form,
                      lie_derivative_1form, values_in_point_order)
from .flags import FlagTable, SystemSpec, _ranks
from .symx import Point, SymxError, is_zero, nullspace_exprs

DEFAULT_PROJ_TOL = 1e-8


class AnnihilatorError(SymxError):
    """The requested annihilator cannot be built at this level."""


@dataclass(frozen=True)
class Codistribution:
    """Symbolic generators of (G_k)^perp.

    differentials[i] is d(generators[i]).
    """

    generators: tuple[OneForm, ...]
    differentials: tuple[TwoForm, ...]

    @property
    def frame(self):
        return self.generators[0].frame


@dataclass
class CharacteristicSpaces:
    """Pointwise bases of A (vectors) and C (covectors) at one point."""

    a_basis: np.ndarray  # dim_A x n, rows are tangent vectors
    c_basis: np.ndarray  # dim_C x n, rows are covectors

    @property
    def dim_a(self) -> int:
        return self.a_basis.shape[0]

    @property
    def dim_c(self) -> int:
        return self.c_basis.shape[0]


def span_residual(v: np.ndarray, basis: np.ndarray) -> float:
    """Relative least-squares residual of v against the row span."""
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return 0.0
    if basis.size == 0:
        return 1.0
    coef, *_ = np.linalg.lstsq(basis.T, v, rcond=None)
    return float(np.linalg.norm(v - basis.T @ coef)) / nv


def _nullspaces(stack: np.ndarray, tol: float) -> list[np.ndarray]:
    """Numeric nullspace basis (rows) of every matrix in a
    (points, rows, n) stack, by one SVD call; an empty matrix gives the
    identity. With at least n rows the reduced SVD already has the
    whole n x n Vt, and its s and Vt are the full SVD's bit for bit
    (tests/test_stacked_lapack.py); with fewer rows only the full SVD
    has the nullspace rows of Vt."""
    _, s, vt = np.linalg.svd(
        stack, full_matrices=stack.shape[1] < stack.shape[2])
    ranks = np.sum(s > tol * s[:, :1], axis=1)
    return [v[r:] for v, r in zip(vt, ranks)]


def annihilator(table: FlagTable, k: int, ref_points: list[Point],
                forms: dict[OneForm, tuple[OneForm, TwoForm]] | None = None,
                memo: dict | None = None) -> Codistribution:
    """Symbolic one-forms spanning the annihilator of G_k.

    Valid levels are 1 <= k <= n-3 (the drift test's range). Pivots of
    the symbolic elimination are chosen by magnitude at the first
    reference point; dim G_k = 2+k is required at the reference points,
    ranked with the tolerance the table was built with. forms, when
    given, maps each generator tree met before (structural equality) to
    the OneForm and d built for it then, which are reused; new trees
    are added. memo is values_in_point_order's, for ref_points, so a
    field that several levels share is evaluated there once.
    """
    spec = table.spec
    n = spec.n
    if not 1 <= k <= n - 3:
        raise AnnihilatorError(
            f"level {k} outside the valid range 1..{n - 3} for n={n}")
    gens = table.levels[k].g_generators
    vals, first = values_in_point_order([v for _, v in gens], ref_points,
                                        memo)
    # the rank check at each point before the failing one comes first
    ranked = len(ref_points) if first is None else first[0]
    ranks = _ranks(np.stack([v[:ranked] for v in vals], axis=1),
                   table.rank_tol)
    low = np.flatnonzero(ranks != 2 + k)
    if low.size:
        raise AnnihilatorError(
            f"rank of G_{k} is not {2 + k} at reference point "
            f"{tuple(ref_points[low[0]].coords)}")
    if first is not None:
        raise first[2]
    rows = [list(v.components) for _, v in gens]
    basis = nullspace_exprs(rows, ref_points[0].env())
    if len(basis) != n - 2 - k:
        raise AnnihilatorError(
            f"expected {n - 2 - k} annihilator generators, got {len(basis)}")
    if forms is None:
        forms = {}
    pairs = []
    for b in basis:
        w = OneForm(spec.frame, tuple(b))
        pair = forms.get(w)
        if pair is None:
            pair = forms[w] = (w, exterior_derivative_1form(w))
        pairs.append(pair)
    generators, differentials = zip(*pairs)
    return Codistribution(generators, differentials)


def cauchy_space(cod: Codistribution, points: list[Point],
                 tol: float = DEFAULT_PROJ_TOL,
                 memo: dict | None = None) -> list[CharacteristicSpaces]:
    """A and C at each point, by one stacked pass over all points.

    A is the nullspace of [generator values; projected i_X d(lam)
    rows]; C is the annihilator of A. The first error in point order
    raises: an evaluation error, or dependent generators at a point.
    memo is values_in_point_order's, for these points.
    """
    n = cod.frame.n
    m = len(cod.generators)
    vals, first = values_in_point_order(
        cod.generators + cod.differentials, points, memo)
    # at each point the generators come first, then their rank check,
    # then the differentials
    ranked = len(points) if first is None else first[0] + (first[1] >= m)
    omega = np.stack([v[:ranked] for v in vals[:m]], axis=1)
    dependent = np.flatnonzero(_ranks(omega, tol) != m)
    if dependent.size:
        raise AnnihilatorError(
            "annihilator generators dependent at "
            f"{tuple(points[dependent[0]].coords)}")
    if first is not None:
        raise first[2]
    # d(lam^i) as antisymmetric n x n matrices
    dlam = np.zeros((len(points), m, n, n))
    for i, (dw, dv) in enumerate(zip(cod.differentials, vals[m:])):
        if dw.coefficients:
            r, c = zip(*dw.coefficients)
            dlam[:, i, r, c] = dv
            dlam[:, i, c, r] = np.negative(dv)
    # projector onto the orthogonal complement of span{lam^i_q}
    omega_t = omega.swapaxes(1, 2)
    proj = np.eye(n) - omega_t @ np.linalg.pinv(omega_t)
    # rows X with (X^T dmat) P = 0, i.e. (P dmat^T) X = 0
    rows = (proj[:, None] @ dlam.swapaxes(2, 3)).reshape(len(points), -1, n)
    a_bases = _nullspaces(np.concatenate([omega, rows], axis=1), tol)
    # C: one more stacked SVD per dim A among the points
    c_bases: dict[int, np.ndarray] = {}
    for dim in {len(a) for a in a_bases}:
        idx = [p for p, a in enumerate(a_bases) if len(a) == dim]
        c_bases.update(zip(idx, _nullspaces(
            np.stack([a_bases[p] for p in idx]), tol)))
    return [CharacteristicSpaces(a, c_bases[p])
            for p, a in enumerate(a_bases)]


def _constant_coordinate_pattern(spaces: list[CharacteristicSpaces]
                                 ) -> list[int] | None:
    """Indices S when every C_q equals span{dx_j : j in S}, else None."""
    if len({sp.dim_c for sp in spaces}) != 1:
        return None
    b = np.stack([sp.c_basis for sp in spaces]).swapaxes(1, 2)
    proj = b @ np.linalg.pinv(b)
    keep = np.diagonal(proj, axis1=1, axis2=2) > 0.5
    model = keep[:, :, None] * np.eye(proj.shape[1])
    if np.any(np.max(np.abs(proj - model), axis=(1, 2)) > 1e-6) \
            or np.any(keep != keep[0]):
        return None
    return [int(j) for j in np.flatnonzero(keep[0])]


def check_condition2(spec: SystemSpec, table: FlagTable,
                     points: list[Point],
                     tol: float = DEFAULT_PROJ_TOL) -> dict:
    """Containment of L_f(lam) in the retracting space, per level.

    Verdict is "vacuous" when n <= 3 (the level range 1..n-3 is
    empty). Each level reports the exact symbolic route when the
    retracting spaces form a constant coordinate coframe, and numeric
    projection residuals otherwise; failures are report content.
    A generator tree that several levels share is built once, with its
    d and L_f, and each of them is evaluated once; so is each G_k
    field at the reference points.
    """
    n = spec.n
    if n <= 3:
        return {"verdict": "vacuous", "levels": [],
                "reason": f"no levels in range 1..{n - 3}"}
    forms: dict[OneForm, tuple[OneForm, TwoForm]] = {}
    lie: dict[int, OneForm] = {}  # id of a form in forms -> L_f of it
    memo: dict = {}
    ref_memo: dict = {}  # memo's twin for points[:5]
    levels = []
    all_pass = True
    for k in range(1, n - 2):
        cod = annihilator(table, k, points[:5], forms, ref_memo)
        for w, dw in zip(cod.generators, cod.differentials):
            if id(w) not in lie:
                lie[id(w)] = lie_derivative_1form(spec.f, w, dw)
        lf = [lie[id(w)] for w in cod.generators]
        spaces = cauchy_space(cod, points, tol, memo)
        entry: dict = {"k": k,
                       "dim_A": spaces[0].dim_a, "dim_C": spaces[0].dim_c,
                       "generators": [[str(c) for c in w.coefficients]
                                      for w in cod.generators]}
        pattern = _constant_coordinate_pattern(spaces)
        symbolic_ok = None
        if pattern is not None:
            complement = [j for j in range(n) if j not in pattern]
            symbolic_ok = all(is_zero(w.coefficients[j])
                              for w in lf for j in complement)
            entry["coordinate_coframe"] = pattern
        if symbolic_ok:
            entry["method"] = "symbolic"
            entry["pass"] = True
            entry["max_residual"] = 0.0
            entry["residuals"] = [0.0] * len(points)
        else:
            lf_vals, first = values_in_point_order(lf, points, memo)
            if first is not None:
                raise first[2]
            residuals = [max([0.0] + [span_residual(v[p], sp_q.c_basis)
                                      for v in lf_vals])
                         for p, sp_q in enumerate(spaces)]
            entry["method"] = "numeric"
            entry["residuals"] = residuals
            entry["max_residual"] = max(residuals)
            entry["pass"] = all(r <= tol for r in residuals)
        all_pass = all_pass and entry["pass"]
        levels.append(entry)
    return {"verdict": "pass" if all_pass else "fail", "levels": levels}
