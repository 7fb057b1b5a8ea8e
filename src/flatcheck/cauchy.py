"""Annihilators of the derived flag and the drift containment test.

For the derived flag level G_k (valid levels 1 <= k <= n-3) this
module computes the codistribution of one-forms annihilating it by
symbolic elimination, the pointwise Cauchy characteristic space
  A_q = {X : <lam^i, X> = 0 and i_X d(lam^i) in span{lam^j} at q},
its annihilator C_q (the retracting space), and the containment
L_f(lam^i)|_q in C_q that the flatness test requires.

The exterior derivatives d(lam^i) are symbolic and built once per
level, with the annihilator; A_q and C_q are numeric and only evaluate
them, each in one batch over a block of points, before each
linear-algebra step runs as one LAPACK call over the block. The
containment check tries an exact route first:
when the sampled C_q all equal the span of a fixed subset of
coordinate differentials, membership reduces to symbolic vanishing of
the complementary coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffgeo import (OneForm, TwoForm, exterior_derivative_1form,
                      lie_derivative_1form, values_in_point_order)
from .flags import FlagTable, SystemSpec, _rank, _ranks
from .symx import Point, SymxError, is_zero, nullspace_exprs

DEFAULT_PROJ_TOL = 1e-8
# Points per stacked call in cauchy_space: bounds the full SVD factors
# held at once.
_BLOCK = 32


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
    (points, rows, n) stack, by one full SVD call; an empty matrix
    gives the identity."""
    _, s, vt = np.linalg.svd(stack)
    ranks = np.sum(s > tol * s[:, :1], axis=1)
    return [v[r:] for v, r in zip(vt, ranks)]


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
    vals, first = values_in_point_order([v for _, v in gens], ref_points)
    # the rank check at each point before the failing one comes first
    ranked = len(ref_points) if first is None else first[0]
    for p in range(ranked):
        mat = np.array([v[p] for v in vals])
        if _rank(mat, table.rank_tol) != 2 + k:
            raise AnnihilatorError(
                f"rank of G_{k} is not {2 + k} at reference point "
                f"{tuple(ref_points[p].coords)}")
    if first is not None:
        raise first[2]
    rows = [list(v.components) for _, v in gens]
    basis = nullspace_exprs(rows, ref_points[0].env())
    if len(basis) != n - 2 - k:
        raise AnnihilatorError(
            f"expected {n - 2 - k} annihilator generators, got {len(basis)}")
    forms = tuple(OneForm(spec.frame, tuple(b)) for b in basis)
    return Codistribution(
        forms, tuple(exterior_derivative_1form(w) for w in forms))


def cauchy_space(cod: Codistribution, points: list[Point],
                 tol: float = DEFAULT_PROJ_TOL) -> list[CharacteristicSpaces]:
    """A and C at each point, by stacked numeric linear algebra.

    A is the nullspace of [generator values; projected i_X d(lam)
    rows]; C is the annihilator of A. The first error in point order
    raises: an evaluation error, or dependent generators at a point.
    """
    spaces: list[CharacteristicSpaces] = []
    for start in range(0, len(points), _BLOCK):
        spaces += _cauchy_block(cod, points[start:start + _BLOCK], tol)
    return spaces


def _cauchy_block(cod: Codistribution, points: list[Point],
                  tol: float) -> list[CharacteristicSpaces]:
    n = cod.frame.n
    m = len(cod.generators)
    vals, first = values_in_point_order(
        cod.generators + cod.differentials, points)
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
    # C: one more stacked SVD per dim A among the block's points
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
        spaces = cauchy_space(cod, points, tol)
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
            lf_vals, first = values_in_point_order(lf, points)
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
