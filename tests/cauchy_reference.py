"""Reference condition 2: every level builds and evaluates its own
forms, and A and C are computed in blocks of 32 points.

`cauchy_space` and `check_condition2` take the two SVDs per level of
`flatcheck.cauchy` one block at a time, and the residuals one block at
a time. Kept to show that `flatcheck.cauchy`, which runs one stacked
pass per level and builds and evaluates each distinct generator once
per check, gives the same bases bit for bit, the same reports and the
same first error. Here A and C are kept per point, as an (A, C) pair
of row bases; `flatcheck.cauchy.cauchy_space` returns them stacked, as
one Vt per point and the rank r that splits it (C is vt[p, :r] and A
vt[p, r:]). `stacked` turns the pairs into that form.

`two_step_cauchy_space` is the construction `flatcheck.cauchy` used
before: a rank SVD and a pinv of the generator values, the full SVD of
[lam; P dlam^T] for A, and one more SVD for C as the nullspace of A.
Kept to show that the two SVDs give the same spaces. `span_residual`
is the least-squares residual that the numeric route used, one point
and one form at a time.
"""

import numpy as np

from flatcheck.cauchy import (AnnihilatorError, DEFAULT_PROJ_TOL,
                              _constant_coordinate_pattern, annihilator)
from flatcheck.diffgeo import lie_derivative_1form, values_in_point_order
from flatcheck.flags import _ranks
from flatcheck.symx import is_zero

BLOCK = 32


def span_residual(v, basis):
    """Relative least-squares residual of v against the row span."""
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return 0.0
    if basis.size == 0:
        return 1.0
    coef, *_ = np.linalg.lstsq(basis.T, v, rcond=None)
    return float(np.linalg.norm(v - basis.T @ coef)) / nv


def _blocks(points):
    return [points[start:start + BLOCK]
            for start in range(0, len(points), BLOCK)]


def stacked(spaces):
    """Per-point (A, C) pairs as cauchy_space's (vt, ranks): at each
    point the rows of C, then those of A, and the count of C's rows."""
    vt = np.stack([np.vstack([c, a]) for a, c in spaces])
    return vt, np.array([len(c) for _, c in spaces])


def _omega(pairs, points):
    """The values of the generators and differentials, the generator
    values stacked up to the first error's rank check, and that
    error."""
    m = len(pairs)
    vals, first = values_in_point_order(
        [w for w, _ in pairs] + [d for _, d in pairs], points)
    ranked = len(points) if first is None else first[0] + (first[1] >= m)
    return vals, np.stack([v[:ranked] for v in vals[:m]], axis=1), first


def _raise_first(points, dependent, first):
    """Dependent generators at a point come before an evaluation error
    at a later point."""
    if dependent.size:
        raise AnnihilatorError(
            "annihilator generators dependent at "
            f"{points.coords[dependent[0]]}")
    if first is not None:
        raise first[2]


def _dlam(pairs, vals, count):
    """d(lam^i) as antisymmetric n x n matrices."""
    n = pairs[0][0].frame.n
    m = len(pairs)
    dlam = np.zeros((count, m, n, n))
    for i, ((_, dw), dv) in enumerate(zip(pairs, vals[m:])):
        if dw.coefficients:
            r, c = zip(*dw.coefficients)
            dlam[:, i, r, c] = dv
            dlam[:, i, c, r] = np.negative(dv)
    return dlam


def cauchy_space(pairs, points, tol=DEFAULT_PROJ_TOL):
    """(A, C) at each point by the two SVDs, a block at a time."""
    spaces = []
    for block in _blocks(points):
        spaces += _two_svd_block(pairs, block, tol)
    return spaces


def _two_svd_block(pairs, points, tol):
    n = pairs[0][0].frame.n
    m = len(pairs)
    vals, omega, first = _omega(pairs, points)
    _, s, w = np.linalg.svd(omega, full_matrices=False)
    _raise_first(points, np.flatnonzero(
        np.sum(s > tol * s[:, :1], axis=1) != m), first)
    dlam = _dlam(pairs, vals, len(points))
    proj = np.eye(n) - w.swapaxes(1, 2) @ w
    rows = (proj[:, None] @ dlam.swapaxes(2, 3)).reshape(len(points), -1, n)
    stack = np.concatenate([omega, rows], axis=1)
    _, s, vt = np.linalg.svd(stack, full_matrices=stack.shape[1] < n)
    ranks = np.sum(s > tol * s[:, :1], axis=1)
    return [(v[r:], v[:r]) for v, r in zip(vt, ranks)]


def _nullspaces(stack, tol):
    """Nullspace basis (rows) of every matrix in a (points, rows, n)
    stack, by one full SVD call; an empty matrix gives the identity."""
    _, s, vt = np.linalg.svd(stack)
    ranks = np.sum(s > tol * s[:, :1], axis=1)
    return [v[r:] for v, r in zip(vt, ranks)]


def two_step_cauchy_space(pairs, points, tol=DEFAULT_PROJ_TOL):
    """(A, C) at each point by the earlier construction, a block at a
    time."""
    spaces = []
    for block in _blocks(points):
        spaces += _two_step_block(pairs, block, tol)
    return spaces


def _two_step_block(pairs, points, tol):
    n = pairs[0][0].frame.n
    m = len(pairs)
    vals, omega, first = _omega(pairs, points)
    _raise_first(points, np.flatnonzero(_ranks(omega, tol) != m), first)
    dlam = _dlam(pairs, vals, len(points))
    omega_t = omega.swapaxes(1, 2)
    proj = np.eye(n) - omega_t @ np.linalg.pinv(omega_t)
    rows = (proj[:, None] @ dlam.swapaxes(2, 3)).reshape(len(points), -1, n)
    a_bases = _nullspaces(np.concatenate([omega, rows], axis=1), tol)
    c_bases = {}
    for dim in {len(a) for a in a_bases}:
        idx = [p for p, a in enumerate(a_bases) if len(a) == dim]
        c_bases.update(zip(idx, _nullspaces(
            np.stack([a_bases[p] for p in idx]), tol)))
    return [(a, c_bases[p]) for p, a in enumerate(a_bases)]


def residuals(values, spaces):
    """Per point, the largest relative residual of the values against
    C, a block of points at a time, for (A, C) pairs: |v - (v C^T) C| /
    |v| with C padded to n zero rows, 0.0 for v = 0, 1.0 for an empty
    C."""
    out = []
    for start in range(0, len(spaces), BLOCK):
        sps = spaces[start:start + BLOCK]
        v = np.stack([val[start:start + BLOCK] for val in values])
        n = v.shape[2]
        c = np.zeros((len(sps), n, n))
        for p, (_, basis) in enumerate(sps):
            c[p, :len(basis)] = basis
        off = v - ((v[:, :, None] @ c.swapaxes(1, 2)) @ c)[:, :, 0]
        nv = np.linalg.norm(v, axis=2)
        res = np.linalg.norm(off, axis=2)
        for p, (_, basis) in enumerate(sps):
            per = [0.0]
            for g in range(len(values)):
                if nv[g, p] == 0.0:
                    per.append(0.0)
                elif len(basis) == 0:
                    per.append(1.0)
                else:
                    per.append(float(res[g, p] / nv[g, p]))
            out.append(max(per))
    return out


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
        pairs = annihilator(table, k, points[:5])
        lf = [lie_derivative_1form(spec.f, w, dw) for w, dw in pairs]
        spaces = cauchy_space(pairs, points, tol)
        entry = {"k": k, "dim_A": len(spaces[0][0]),
                 "dim_C": len(spaces[0][1]),
                 "generators": [[str(c) for c in w.coefficients]
                                for w, _ in pairs]}
        pattern = _constant_coordinate_pattern(*stacked(spaces))
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
            res = residuals(lf_vals, spaces)
            entry["method"] = "numeric"
            entry["residuals"] = res
            entry["max_residual"] = max(res)
            entry["pass"] = all(r <= tol for r in res)
        all_pass = all_pass and entry["pass"]
        levels.append(entry)
    return {"verdict": "pass" if all_pass else "fail", "levels": levels}
