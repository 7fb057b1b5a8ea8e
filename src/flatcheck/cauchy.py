"""Annihilators of the derived flag and the drift containment test.

For the derived flag level G_k (valid levels 1 <= k <= n-3) this
module computes the codistribution of one-forms annihilating it by
symbolic elimination, the pointwise Cauchy characteristic space
  A_q = {X : <lam^i, X> = 0 and i_X d(lam^i) in span{lam^j} at q},
its annihilator C_q (the retracting space), and the containment
L_f(lam^i)|_q in C_q that the flatness test requires.

The exterior derivatives d(lam^i) are symbolic and built once per
level, with the annihilator; A_q and C_q are numeric (per point) and
only evaluate them. The containment check tries an exact route first:
when the sampled C_q all equal the span of a fixed subset of
coordinate differentials, membership reduces to symbolic vanishing of
the complementary coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffgeo import (OneForm, TwoForm, exterior_derivative_1form,
                      lie_derivative_1form)
from .flags import FlagTable, SystemSpec, _rank
from .symx import Point, SymxError, ZERO, normalize, nullspace_exprs

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


def _nullspace_numeric(mat: np.ndarray, n: int, tol: float) -> np.ndarray:
    if mat.size == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(mat)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0.0 else 0
    return vt[rank:]


def annihilator(table: FlagTable, k: int,
                ref_points: list[Point]) -> Codistribution:
    """Symbolic one-forms spanning the annihilator of G_k.

    Valid levels are 1 <= k <= n-3 (the drift test's range). Pivots of
    the symbolic elimination are chosen by magnitude at the first
    reference point; dim G_k = 2+k is required at the reference points,
    ranked with the tolerance the table was built with.
    """
    spec = table.spec
    n = spec.n
    if not 1 <= k <= n - 3:
        raise AnnihilatorError(
            f"level {k} outside the valid range 1..{n - 3} for n={n}")
    gens = table.levels[k].g_generators
    for q in ref_points:
        mat = np.array([v.values(q) for _, v in gens])
        if _rank(mat, table.rank_tol) != 2 + k:
            raise AnnihilatorError(
                f"rank of G_{k} is not {2 + k} at reference point "
                f"{tuple(q.coords)}")
    rows = [list(v.components) for _, v in gens]
    basis = nullspace_exprs(rows, ref_points[0].env())
    if len(basis) != n - 2 - k:
        raise AnnihilatorError(
            f"expected {n - 2 - k} annihilator generators, got {len(basis)}")
    forms = tuple(OneForm(spec.frame, tuple(b)) for b in basis)
    return Codistribution(
        forms, tuple(exterior_derivative_1form(w) for w in forms))


def cauchy_space(cod: Codistribution, q: Point,
                 tol: float = DEFAULT_PROJ_TOL) -> CharacteristicSpaces:
    """A and C at one point, by stacked numeric linear algebra.

    A is the nullspace of [generator values; projected i_X d(lam)
    rows]; C is the annihilator of A.
    """
    n = cod.frame.n
    omega = np.array([w.values(q) for w in cod.generators])
    m = omega.shape[0]
    if _rank(omega, tol) != m:
        raise AnnihilatorError(
            f"annihilator generators dependent at {tuple(q.coords)}")
    # projector onto the orthogonal complement of span{lam^i_q}
    proj = np.eye(n) - omega.T @ np.linalg.pinv(omega.T)
    # rows X with (X^T dmat) P = 0, i.e. (P dmat^T) X = 0
    blocks = [omega] + [proj @ dw.values(q).T for dw in cod.differentials]
    a_basis = _nullspace_numeric(np.vstack(blocks), n, tol)
    c_basis = _nullspace_numeric(a_basis, n, tol)
    return CharacteristicSpaces(a_basis, c_basis)


def _constant_coordinate_pattern(spaces: list[CharacteristicSpaces],
                                 tol: float) -> list[int] | None:
    """Indices S when every C_q equals span{dx_j : j in S}, else None."""
    pattern: list[int] | None = None
    for sp in spaces:
        b = sp.c_basis
        proj = b.T @ np.linalg.pinv(b.T)
        diag = np.diagonal(proj)
        s = [j for j in range(proj.shape[0]) if diag[j] > 0.5]
        model = np.zeros_like(proj)
        for j in s:
            model[j, j] = 1.0
        if np.max(np.abs(proj - model)) > 1e-6:
            return None
        if pattern is None:
            pattern = s
        elif pattern != s:
            return None
    return pattern


def check_condition2(spec: SystemSpec, table: FlagTable,
                     points: list[Point],
                     tol: float = DEFAULT_PROJ_TOL) -> dict:
    """Containment of L_f(lam) in the retracting space, per level.

    Verdict is "vacuous" when n <= 3 (the level range 1..n-3 is
    empty). Each level reports the exact symbolic route when the
    retracting spaces form a constant coordinate coframe, and numeric
    projection residuals otherwise; failures are report content.
    """
    n = spec.n
    if n <= 3:
        return {"verdict": "vacuous", "levels": [],
                "reason": f"no levels in range 1..{n - 3}"}
    levels = []
    all_pass = True
    for k in range(1, n - 2):
        cod = annihilator(table, k, points[:5])
        lf = [lie_derivative_1form(spec.f, w, dw)
              for w, dw in zip(cod.generators, cod.differentials)]
        spaces = [cauchy_space(cod, q, tol) for q in points]
        entry: dict = {"k": k,
                       "dim_A": spaces[0].dim_a, "dim_C": spaces[0].dim_c,
                       "generators": [[str(c) for c in w.coefficients]
                                      for w in cod.generators]}
        pattern = _constant_coordinate_pattern(spaces, tol)
        symbolic_ok = None
        if pattern is not None:
            complement = [j for j in range(n) if j not in pattern]
            symbolic_ok = all(
                normalize(w.coefficients[j]) == ZERO
                for w in lf for j in complement)
            entry["coordinate_coframe"] = pattern
        if symbolic_ok:
            entry["method"] = "symbolic"
            entry["pass"] = True
            entry["max_residual"] = 0.0
            entry["residuals"] = [0.0] * len(points)
        else:
            residuals = []
            for sp_q, q in zip(spaces, points):
                worst = 0.0
                for w in lf:
                    worst = max(worst, span_residual(w.values(q),
                                                     sp_q.c_basis))
                residuals.append(worst)
            entry["method"] = "numeric"
            entry["residuals"] = residuals
            entry["max_residual"] = max(residuals)
            entry["pass"] = all(r <= tol for r in residuals)
        all_pass = all_pass and entry["pass"]
        levels.append(entry)
    return {"verdict": "pass" if all_pass else "fail", "levels": levels}
