"""Lie flag and derived flag of a two-input control-affine system.

Builds the nested generator families
  P_0 = Q_0 = {g1, g2},
  P_{k+1} = brackets [Y, W] with Y in P_0 and W in P_k,
  Q_{k+1} = brackets of pairs from the union of Q_0..Q_k,
spans F_k = span(P_0 + ... + P_k), G_k = G_{k-1} + span(Q_k), and
checks the rank condition dim F_k(q) = dim G_k(q) = 2 + k at points.

Q_k grows combinatorially, so after each level the Q generators that
are pointwise dependent on the retained ones (at a seeded reference
point set) are dropped from the working pool; their bracket words are
still recorded for reports. Brackets [Y,Y] and mirrored pairs are not
recomputed: they contribute nothing new to the span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .diffgeo import VectorField, lie_bracket
from .symx import Const, Expr, Frame, Mul, Point, SymxError, ZERO, normalize

DEFAULT_RANK_TOL = 1e-9


@dataclass
class SystemSpec:
    """A two-input control-affine system dx/dt = f + g1 u1 + g2 u2."""

    frame: Frame
    f: VectorField
    g1: VectorField
    g2: VectorField
    param_values: dict[str, float] = field(default_factory=dict)
    chart_exprs: tuple[Expr, ...] | None = None
    beta_exprs: tuple[tuple[Expr, Expr], tuple[Expr, Expr]] | None = None
    h1: Expr | None = None
    h2: Expr | None = None
    box: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.frame.n < 2:
            raise ValueError("need at least two states")
        for vf in (self.f, self.g1, self.g2):
            if vf.frame != self.frame:
                raise ValueError("f, g1, g2 must share the system chart")
        if self.g1.is_zero() and self.g2.is_zero():
            raise ValueError("g1 and g2 are both identically zero")
        if self.box is not None:
            for lo, hi in self.box:
                if not lo < hi:
                    raise ValueError(f"empty box interval [{lo}, {hi}]")

    @property
    def n(self) -> int:
        return self.frame.n

    def sample_box(self) -> tuple[tuple[float, float], ...]:
        return self.box if self.box is not None else ((-1.0, 1.0),) * self.n

    def bound_params(self, seed: int = 0) -> dict[str, float]:
        """Numeric parameter bindings; unbound symbols get seeded values."""
        missing = [p for p in self.frame.params if p not in self.param_values]
        out = dict(self.param_values)
        if missing:
            rng = np.random.default_rng(seed)
            for p in missing:
                out[p] = float(rng.uniform(0.5, 1.5))
        return out

    def point(self, coords, seed: int = 0) -> Point:
        return self.frame.point(coords, self.bound_params(seed))


@dataclass
class LevelRecord:
    """Generators present at one flag level (cumulative)."""

    f_generators: list[tuple[str, VectorField]]
    g_generators: list[tuple[str, VectorField]]
    p_word_count: int
    q_word_count: int
    q_dropped_words: list[str]


@dataclass
class FlagTable:
    """Flag generators up to level n-2."""

    spec: SystemSpec
    levels: list[LevelRecord]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def _rank(mat: np.ndarray, tol: float) -> int:
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def _reference_points(spec: SystemSpec, seed: int = 7,
                      count: int = 5) -> list[Point]:
    rng = np.random.default_rng(seed)
    params = spec.bound_params(seed)
    box = spec.sample_box()
    pts = []
    for _ in range(count):
        coords = [float(rng.uniform(lo, hi)) for lo, hi in box]
        pts.append(spec.frame.point(coords, params))
    return pts


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
        return [vf.values(q) for q in refs]

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
                if _rank(cand, rank_tol) > _rank(cur, rank_tol):
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
    return FlagTable(spec, levels)


def dims_at(table: FlagTable, q: Point,
            tol: float = DEFAULT_RANK_TOL) -> tuple[list[int], list[int]]:
    """Numeric ranks of the F_k and G_k generator matrices at q."""
    dims_f, dims_g = [], []
    for rec in table.levels:
        fm = np.array([v.values(q) for _, v in rec.f_generators])
        gm = np.array([v.values(q) for _, v in rec.g_generators])
        dims_f.append(_rank(fm, tol))
        dims_g.append(_rank(gm, tol))
    return dims_f, dims_g


def check_condition1(spec: SystemSpec, points: list[Point],
                     tol: float = DEFAULT_RANK_TOL,
                     table: FlagTable | None = None) -> dict:
    """Rank condition dim F_k(q) = dim G_k(q) = 2 + k at every point.

    Failures are report content, not exceptions.
    """
    if not points:
        raise ValueError("need at least one point")
    if table is None:
        table = compute_flags(spec, rank_tol=tol)
    expected = [2 + k for k in range(len(table.levels))]
    per_point = []
    first_failure = None
    for idx, q in enumerate(points):
        df, dg = dims_at(table, q, tol)
        ok = df == expected and dg == expected
        per_point.append({"coords": [float(c) for c in q.coords],
                          "dim_F": df, "dim_G": dg, "pass": ok})
        if not ok and first_failure is None:
            bad_k = next(k for k in range(len(expected))
                         if df[k] != expected[k] or dg[k] != expected[k])
            first_failure = {"point_index": idx, "level": bad_k,
                             "dim_F": df[bad_k], "dim_G": dg[bad_k],
                             "expected": expected[bad_k]}
    return {"pass": first_failure is None, "expected": expected,
            "points_checked": len(points), "per_point": per_point,
            "first_failure": first_failure}


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
    return compute_flags(new_spec)
