"""Reference condition 2: every level builds and evaluates its own
forms, and A and C are computed in blocks of 32 points, each step one
full SVD per block.

Kept to show that `flatcheck.cauchy`, which runs one stacked pass per
level and builds and evaluates each distinct generator once per
check, gives the same bases bit for bit, the same reports and the
same first error.
"""

import numpy as np

from flatcheck.cauchy import (AnnihilatorError, CharacteristicSpaces,
                              DEFAULT_PROJ_TOL, _constant_coordinate_pattern,
                              annihilator, span_residual)
from flatcheck.diffgeo import lie_derivative_1form, values_in_point_order
from flatcheck.flags import _ranks
from flatcheck.symx import is_zero

BLOCK = 32


def _nullspaces(stack, tol):
    """Nullspace basis (rows) of every matrix in a (points, rows, n)
    stack, by one full SVD call; an empty matrix gives the identity."""
    _, s, vt = np.linalg.svd(stack)
    ranks = np.sum(s > tol * s[:, :1], axis=1)
    return [v[r:] for v, r in zip(vt, ranks)]


def cauchy_space(cod, points, tol=DEFAULT_PROJ_TOL):
    """A and C at each point, a block of points at a time."""
    spaces = []
    for start in range(0, len(points), BLOCK):
        spaces += _cauchy_block(cod, points[start:start + BLOCK], tol)
    return spaces


def _cauchy_block(cod, points, tol):
    n = cod.frame.n
    m = len(cod.generators)
    vals, first = values_in_point_order(
        cod.generators + cod.differentials, points)
    ranked = len(points) if first is None else first[0] + (first[1] >= m)
    omega = np.stack([v[:ranked] for v in vals[:m]], axis=1)
    dependent = np.flatnonzero(_ranks(omega, tol) != m)
    if dependent.size:
        raise AnnihilatorError(
            "annihilator generators dependent at "
            f"{tuple(points[dependent[0]].coords)}")
    if first is not None:
        raise first[2]
    dlam = np.zeros((len(points), m, n, n))
    for i, (dw, dv) in enumerate(zip(cod.differentials, vals[m:])):
        if dw.coefficients:
            r, c = zip(*dw.coefficients)
            dlam[:, i, r, c] = dv
            dlam[:, i, c, r] = np.negative(dv)
    omega_t = omega.swapaxes(1, 2)
    proj = np.eye(n) - omega_t @ np.linalg.pinv(omega_t)
    rows = (proj[:, None] @ dlam.swapaxes(2, 3)).reshape(len(points), -1, n)
    a_bases = _nullspaces(np.concatenate([omega, rows], axis=1), tol)
    c_bases = {}
    for dim in {len(a) for a in a_bases}:
        idx = [p for p, a in enumerate(a_bases) if len(a) == dim]
        c_bases.update(zip(idx, _nullspaces(
            np.stack([a_bases[p] for p in idx]), tol)))
    return [CharacteristicSpaces(a, c_bases[p])
            for p, a in enumerate(a_bases)]


def check_condition2(spec, table, points, tol=DEFAULT_PROJ_TOL):
    """flatcheck.cauchy.check_condition2 with each level's forms built
    and evaluated afresh."""
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
        entry = {"k": k, "dim_A": spaces[0].dim_a, "dim_C": spaces[0].dim_c,
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
