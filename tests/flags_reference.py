"""Reference flag construction: every left-normed bracket word as a P
word, and each Q word bracketed on its own.

Kept to show that the Lyndon P words of `flatcheck.flags` span the
same F_k and leave G_k as it was. `feedback_flags` lives here because
only tests use it. `reference_points` is the scalar draw the reference
points came from before `flatcheck.flags` drew them through SampleBox.
"""

import numpy as np

from flatcheck import flags
from flatcheck.diffgeo import VectorField, lie_bracket
from flatcheck.flags import (DEFAULT_RANK_TOL, FlagTable, LevelRecord,
                             SystemSpec, _reference_points)
from flatcheck.symx import Points, SymxError, ZERO, normalize

from conftest import each_point


def rank(mat: np.ndarray, tol: float) -> int:
    """Numeric rank of one matrix, by its own SVD: the count of singular
    values above tol times the largest, as flags._ranks counts them."""
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(s > tol * s[:1]))


def reference_points(spec: SystemSpec, seed: int = 7,
                     count: int = 5) -> Points:
    """flags._reference_points by one scalar rng.uniform(lo, hi) per
    coordinate, point by point."""
    rng = np.random.default_rng(seed)
    params = spec.bound_params(seed)
    box = spec.sample_box()
    return Points(spec.frame, tuple(
        tuple(float(rng.uniform(lo, hi)) for lo, hi in box)
        for _ in range(count)), params)


def compute_flags(spec: SystemSpec, rank_tol: float = DEFAULT_RANK_TOL,
                  seed: int = 7) -> FlagTable:
    """Generator tables of F_k and G_k for 0 <= k <= n-2.

    P words are generated exhaustively (their count doubles per level
    by construction); Q words are generated from the retained pool
    only, one bracket per unordered pair touching the newest level.
    Identically zero generators never enter the span lists.
    """
    frame = spec.frame
    depth = frame.n - 2
    refs = _reference_points(spec, seed)

    base = [("g1", spec.g1), ("g2", spec.g2)]

    def values(vf: VectorField) -> list[np.ndarray]:
        return [vf.values(q)[0] for q in each_point(refs)]

    # Lie flag: left-iterated bracket words, kept unpruned.
    p_level = list(base)
    f_cum: list[tuple[str, VectorField]] = [
        (w, v) for w, v in base if not v.is_zero()]
    levels = [LevelRecord(list(f_cum), [], len(base), len(base), [])]

    # Derived flag pool: retained representatives with their level tags.
    pool: list[tuple[str, VectorField, int]] = [
        (w, v, 0) for w, v in base if not v.is_zero()]
    pool_vals: list[list[np.ndarray]] = [values(v) for _, v, _ in pool]
    g_cum = [(w, v) for w, v, _ in pool]

    for k in range(1, depth + 1):
        new_p = []
        for yw, yv in base:
            for w, v in p_level:
                new_p.append((f"[{yw},{w}]", lie_bracket(yv, v)))
        p_count = len(new_p)
        p_level = new_p
        f_cum = f_cum + [(w, v) for w, v in new_p if not v.is_zero()]

        candidates = []
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                if max(pool[i][2], pool[j][2]) == k - 1:
                    candidates.append((i, j))
        q_count = len(candidates)
        dropped: list[str] = []
        for i, j in candidates:
            wi, vi, _ = pool[i]
            wj, vj, _ = pool[j]
            word = f"[{wi},{wj}]"
            br = lie_bracket(vi, vj)
            if br.is_zero():
                dropped.append(word)
                continue
            br_vals = values(br)
            adds_rank = False
            for r in range(len(refs)):
                cur = np.array([pv[r] for pv in pool_vals])
                cand = np.vstack([cur, br_vals[r]])
                if rank(cand, rank_tol) > rank(cur, rank_tol):
                    adds_rank = True
                    break
            if adds_rank:
                pool.append((word, br, k))
                pool_vals.append(br_vals)
            else:
                dropped.append(word)
        g_cum = [(w, v) for w, v, _ in pool]
        levels.append(LevelRecord(list(f_cum), list(g_cum), p_count,
                                  q_count, dropped))

    # Level 0 shares the G generator list with the pool's level-0 slice.
    levels[0].g_generators = [(w, v) for w, v, lv in pool if lv == 0]
    return FlagTable(spec, levels, rank_tol)


def dims_at(table: FlagTable, q: Points,
            tol: float = DEFAULT_RANK_TOL) -> tuple[list[int], list[int]]:
    """Numeric ranks of the F_k and G_k generator matrices at q, a
    one-row point set."""
    dims_f, dims_g = [], []
    for rec in table.levels:
        fm = np.array([v.values(q)[0] for _, v in rec.f_generators])
        gm = np.array([v.values(q)[0] for _, v in rec.g_generators])
        dims_f.append(rank(fm, tol))
        dims_g.append(rank(gm, tol))
    return dims_f, dims_g


def feedback_flags(spec: SystemSpec, beta) -> FlagTable:
    """Flags of the feedback-transformed control pair.

    beta is a 2x2 matrix of Exprs; row i gives the coefficients of the
    transformed field beta[i][0]*g1 + beta[i][1]*g2. Its determinant
    must not vanish identically.
    """
    det = normalize(beta[0][0] * beta[1][1] - beta[0][1] * beta[1][0])
    if det == ZERO:
        raise SymxError("feedback matrix determinant is identically zero")
    gt1 = spec.g1.scale(beta[0][0]) + spec.g2.scale(beta[0][1])
    gt2 = spec.g1.scale(beta[1][0]) + spec.g2.scale(beta[1][1])
    new_spec = SystemSpec(spec.frame, spec.f, gt1, gt2,
                          param_values=dict(spec.param_values),
                          box=spec.box)
    return flags.compute_flags(new_spec)
