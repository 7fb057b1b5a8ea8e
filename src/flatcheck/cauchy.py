"""Annihilators of the derived flag and the drift containment test.

For the derived flag level G_k (valid levels 1 <= k <= n-3) this
module computes the one-forms lam^i annihilating it by symbolic
elimination, each with d(lam^i) as a (form, d) pair, the pointwise
Cauchy characteristic space
  A_q = {X : <lam^i, X> = 0 and i_X d(lam^i) in span{lam^j} at q},
its annihilator C_q (the retracting space), and the containment
L_f(lam^i)|_q in C_q that the flatness test requires.

The exterior derivatives d(lam^i) and the Lie derivatives L_f(lam^i)
are symbolic. Consecutive levels share most of their generators, so
one check builds one form per distinct generator tree, with its d and
L_f, and evaluates each of them once, in one batch over all points.
A_q and C_q are numeric: each level takes one stacked pass over all
points and two SVDs, of the generator values (their rank check and
the projector P) and of [lam; P d(lam)^T]. That SVD's stacked Vt and
the rank r at each point are the result: the first r rows of Vt are
an orthonormal C_q, the other n - r an orthonormal A_q. The
containment check tries an exact route first: when the sampled C_q
all equal the span of a fixed subset of coordinate differentials,
membership reduces to symbolic vanishing of the complementary
coefficients.
"""

from __future__ import annotations

import numpy as np

from .diffgeo import (OneForm, TwoForm, exterior_derivative_1form,
                      lie_derivative_1form, values_in_point_order)
from .flags import FlagTable, SystemSpec, _ranks
from .symx import Point, SymxError, is_zero, nullspace_exprs

DEFAULT_PROJ_TOL = 1e-8


class AnnihilatorError(SymxError):
    """The requested annihilator cannot be built at this level."""


def annihilator(table: FlagTable, k: int, ref_points: list[Point],
                forms: dict[OneForm, tuple[OneForm, TwoForm]] | None = None
                ) -> list[tuple[OneForm, TwoForm]]:
    """Symbolic one-forms spanning the annihilator of G_k, each with
    its exterior derivative: a list of (lam^i, d(lam^i)) pairs.

    Valid levels are 1 <= k <= n-3 (the drift test's range). Pivots of
    the symbolic elimination are chosen by magnitude at the first
    reference point; dim G_k = 2+k is required at the reference points,
    ranked with the tolerance the table was built with. forms, when
    given, maps each generator tree met before (structural equality) to
    the OneForm and d built for it then, which are reused; new trees
    are added. A field that several levels share keeps its values at
    ref_points, so it is evaluated there once.
    """
    spec = table.spec
    n = spec.n
    if not 1 <= k <= n - 3:
        raise AnnihilatorError(
            f"level {k} outside the valid range 1..{n - 3} for n={n}")
    gens = table.levels[k].g_generators
    vals, first = values_in_point_order([v for _, v in gens], ref_points)
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
    return pairs


def cauchy_space(pairs: list[tuple[OneForm, TwoForm]], points: list[Point],
                 tol: float = DEFAULT_PROJ_TOL
                 ) -> tuple[np.ndarray, np.ndarray]:
    """A and C at each point, by one stacked pass over all points.

    Returns the (points, n, n) Vt of the SVD of [generator values;
    projected i_X d(lam) rows] and the rank r of that stack at each
    point: at point p, vt[p, r:] is an orthonormal basis of A (its
    nullspace, rows are tangent vectors) and vt[p, :r] one of C, the
    annihilator of A (rows are covectors). So dim A is n - r and dim C
    is r. The first error in point order raises: an evaluation error,
    or dependent generators at a point. A form that an earlier call
    met keeps its values at these points, so it is evaluated once.
    """
    generators, differentials = zip(*pairs)
    n = generators[0].frame.n
    m = len(pairs)
    vals, first = values_in_point_order(generators + differentials, points)
    # at each point the generators come first, then their rank check,
    # then the differentials
    ranked = len(points) if first is None else first[0] + (first[1] >= m)
    omega = np.stack([v[:ranked] for v in vals[:m]], axis=1)
    # the rows of w span span{lam^i_q} orthonormally
    _, s, w = np.linalg.svd(omega, full_matrices=False)
    dependent = np.flatnonzero(np.sum(s > tol * s[:, :1], axis=1) != m)
    if dependent.size:
        raise AnnihilatorError(
            "annihilator generators dependent at "
            f"{tuple(points[dependent[0]].coords)}")
    if first is not None:
        raise first[2]
    # d(lam^i) as antisymmetric n x n matrices
    dlam = np.zeros((len(points), m, n, n))
    for i, (dw, dv) in enumerate(zip(differentials, vals[m:])):
        if dw.coefficients:
            r, c = zip(*dw.coefficients)
            dlam[:, i, r, c] = dv
            dlam[:, i, c, r] = np.negative(dv)
    # projector onto the orthogonal complement of span{lam^i_q}
    proj = np.eye(n) - w.swapaxes(1, 2) @ w
    # rows X with (X^T dmat) P = 0, i.e. (P dmat^T) X = 0
    rows = (proj[:, None] @ dlam.swapaxes(2, 3)).reshape(len(points), -1, n)
    stack = np.concatenate([omega, rows], axis=1)
    # with at least n rows the reduced SVD already has the whole n x n
    # Vt; with fewer only the full SVD has its nullspace rows
    _, s, vt = np.linalg.svd(stack, full_matrices=stack.shape[1] < n)
    return vt, np.sum(s > tol * s[:, :1], axis=1)


def _constant_coordinate_pattern(vt: np.ndarray, ranks: np.ndarray
                                 ) -> list[int] | None:
    """Indices S when every C_q (cauchy_space's vt[p, :r]) equals
    span{dx_j : j in S}, else None."""
    if np.any(ranks != ranks[0]):
        return None
    b = vt[:, :ranks[0]]
    proj = b.swapaxes(1, 2) @ b  # the rows of b are orthonormal
    keep = np.diagonal(proj, axis1=1, axis2=2) > 0.5
    model = keep[:, :, None] * np.eye(proj.shape[1])
    if np.any(np.max(np.abs(proj - model), axis=(1, 2)) > 1e-6) \
            or np.any(keep != keep[0]):
        return None
    return [int(j) for j in np.flatnonzero(keep[0])]


def _residuals(values: list[np.ndarray], vt: np.ndarray,
               ranks: np.ndarray) -> list[float]:
    """Per point, the largest |v - (v C^T) C| / |v| over the forms'
    values v (0.0 for v = 0, 1.0 for an empty C), in one stacked pass,
    with each orthonormal C (cauchy_space's vt[p, :r]) padded to n rows
    by zero rows."""
    v = np.stack(values)
    c = np.where(np.arange(vt.shape[1])[:, None] < ranks[:, None, None],
                 vt, 0.0)
    off = v - ((v[:, :, None] @ c.swapaxes(1, 2)) @ c)[:, :, 0]
    nv = np.linalg.norm(v, axis=2)
    rel = np.divide(np.linalg.norm(off, axis=2), nv,
                    out=np.zeros_like(nv), where=nv != 0.0)
    rel[(nv != 0.0) & (ranks == 0)] = 1.0
    return rel.max(axis=0, initial=0.0).tolist()


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
    levels = []
    all_pass = True
    for k in range(1, n - 2):
        pairs = annihilator(table, k, points[:5], forms)
        for w, dw in pairs:
            if id(w) not in lie:
                lie[id(w)] = lie_derivative_1form(spec.f, w, dw)
        lf = [lie[id(w)] for w, _ in pairs]
        vt, ranks = cauchy_space(pairs, points, tol)
        r = int(ranks[0])
        entry: dict = {"k": k, "dim_A": n - r, "dim_C": r,
                       "generators": [[str(c) for c in w.coefficients]
                                      for w, _ in pairs]}
        pattern = _constant_coordinate_pattern(vt, ranks)
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
            lf_vals, first = values_in_point_order(lf, points)
            if first is not None:
                raise first[2]
            residuals = _residuals(lf_vals, vt, ranks)
            entry["method"] = "numeric"
            entry["residuals"] = residuals
            entry["max_residual"] = max(residuals)
            entry["pass"] = all(r <= tol for r in residuals)
        all_pass = all_pass and entry["pass"]
        levels.append(entry)
    return {"verdict": "pass" if all_pass else "fail", "levels": levels}
