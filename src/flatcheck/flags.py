"""Lie flag and derived flag of a two-input control-affine system.

Builds the nested generator families
  P_0 = Q_0 = {g1, g2},
  P_k = the Lyndon brackets of length k+1 in g1, g2,
  Q_{k+1} = brackets of pairs from the union of Q_0..Q_k,
spans F_k = span(P_0 + ... + P_k), G_k = G_{k-1} + span(Q_k), and
checks the rank condition dim F_k(q) = dim G_k(q) = 2 + k at points.

F_k is meant as the span of all brackets of length <= k+1. The
Lyndon brackets of length m are a basis of the degree-m part of the
free Lie algebra on two letters, so every other bracket of length m
(in particular every iterated [Y, W] with Y in P_0) is an integer
combination of them; bracketing vector fields is linear over
constants, so the span is the same with 2, 1, 2, 3, 6, 9, 18, ...
words per level instead of 2^(k+1).

Q_k grows combinatorially, so after each level the Q generators that
are pointwise dependent on the retained ones (at a seeded reference
point set) are dropped from the working pool; their bracket words are
still recorded for reports. Brackets [Y,Y] and mirrored pairs are not
recomputed: they contribute nothing new to the span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diffgeo import VectorField, lie_bracket, values_in_point_order
from .symx import Expr, Frame, Points

DEFAULT_RANK_TOL = 1e-9


def check_box_interval(lo: float, hi: float) -> None:
    """Raise ValueError unless [lo, hi] can be sampled: a finite width,
    so finite bounds, and lo < hi."""
    if not math.isfinite(hi - lo):  # also an infinite bound
        raise ValueError(f"box interval [{lo}, {hi}] is not of finite width")
    if not lo < hi:
        raise ValueError(f"empty box interval [{lo}, {hi}]")


@dataclass(frozen=True)
class SampleBox:
    """Seeded uniform sampler over a coordinate box: `count` points,
    deterministic for a fixed seed."""

    bounds: tuple[tuple[float, float], ...]
    count: int
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sample count must be positive")
        for lo, hi in self.bounds:
            check_box_interval(lo, hi)

    def points(self, frame: Frame,
               params: dict[str, float] | None = None) -> Points:
        """The points as one set, drawn in one call: row by row, the
        same floats as one scalar draw per coordinate."""
        if len(self.bounds) != frame.n:
            raise ValueError("box dimension does not match the frame")
        lows, highs = np.array(self.bounds, dtype=float).reshape(-1, 2).T
        rows = np.random.default_rng(self.seed).uniform(
            lows, highs, size=(self.count, frame.n))
        return Points(frame, tuple(map(tuple, rows.tolist())),
                      dict(params or {}))


class SpecFieldError(ValueError):
    """A SystemSpec field breaks an invariant; field names the spec
    file key it comes from ("n", "g2" or "box")."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


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
    box: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.frame.n < 2:
            raise SpecFieldError("n", "need at least two states")
        for vf in (self.f, self.g1, self.g2):
            if vf.frame != self.frame:
                raise ValueError("f, g1, g2 must share the system chart")
        if self.g1.is_zero() and self.g2.is_zero():
            raise SpecFieldError("g2", "g1 and g2 are both identically zero")
        for lo, hi in self.box or ():
            try:
                check_box_interval(lo, hi)
            except ValueError as exc:
                raise SpecFieldError("box", str(exc)) from None

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
    """Flag generators up to level n-2, and the rank tolerance that
    pruned them (ranks over the table's generators use it too)."""

    spec: SystemSpec
    levels: list[LevelRecord]
    rank_tol: float

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def _ranks(stack: np.ndarray, tol: float) -> np.ndarray:
    """Numeric rank of every matrix in a (points, rows, n) stack, by one
    SVD call: the count of singular values above tol times the largest
    (0 for a zero or empty matrix)."""
    s = np.linalg.svd(stack, compute_uv=False)
    return np.sum(s > tol * s[:, :1], axis=1)


def _reference_points(spec: SystemSpec, seed: int = 7,
                      count: int = 5) -> Points:
    return SampleBox(spec.sample_box(), count, seed).points(
        spec.frame, spec.bound_params(seed))


def _lyndon(length: int) -> list[str]:
    """Lyndon words of the given length over "12", in lexicographic
    order, by Duval's generation of all Lyndon words up to a length."""
    out = []
    w = [0]
    while w:
        if len(w) == length:
            out.append("".join("12"[c] for c in w))
        m = len(w)
        while len(w) < length:
            w.append(w[-m])
        while w and w[-1] == 1:
            w.pop()
        if w:
            w[-1] += 1
    return out


def compute_flags(spec: SystemSpec, rank_tol: float = DEFAULT_RANK_TOL,
                  seed: int = 7) -> FlagTable:
    """Generator tables of F_k and G_k for 0 <= k <= n-2.

    The P words of level k are the Lyndon words of length k+1 over
    {g1, g2}, each bracketed by its standard factorization (the right
    factor is the longest proper Lyndon suffix). Q words are generated
    from the retained pool only, one bracket per unordered pair
    touching the newest level. Every bracket word is built once: P and
    Q share one word -> field map, and a word with a zero factor is
    zero without bracketing. Identically zero generators never enter
    the span lists.
    """
    frame = spec.frame
    depth = frame.n - 2
    refs = _reference_points(spec, seed)

    base = [("g1", spec.g1), ("g2", spec.g2)]

    # bracket word -> its field, None when identically zero
    fields: dict[str, VectorField | None] = {
        w: None if v.is_zero() else v for w, v in base}

    def bracket(a: str, b: str) -> tuple[str, VectorField | None]:
        word = f"[{a},{b}]"
        if word not in fields:
            va, vb = fields[a], fields[b]
            br = None if va is None or vb is None else lie_bracket(va, vb)
            fields[word] = None if br is None or br.is_zero() else br
        return word, fields[word]

    # Lie flag: Lyndon letters ("112") -> bracket word ("[g1,[g1,g2]]")
    lyndon = {"1": "g1", "2": "g2"}
    f_cum: list[tuple[str, VectorField]] = [
        (w, v) for w, v in base if fields[w] is not None]
    levels = [LevelRecord(list(f_cum), [], len(base), len(base), [])]

    # Derived flag pool: retained representatives with their level tags.
    pool: list[tuple[str, VectorField, int]] = [(w, v, 0) for w, v in f_cum]
    # (points, pool, n) values and ranks; a candidate raising one is kept
    pool_vals = np.stack([v.values(refs) for _, v, _ in pool], axis=1)
    pool_ranks = _ranks(pool_vals, rank_tol)
    g_cum = [(w, v) for w, v, _ in pool]

    for k in range(1, depth + 1):
        words = _lyndon(k + 1)
        for lw in words:
            cut = next(i for i in range(1, len(lw)) if lw[i:] in lyndon)
            word, v = bracket(lyndon[lw[:cut]], lyndon[lw[cut:]])
            lyndon[lw] = word
            if v is not None:
                f_cum.append((word, v))

        candidates = [(i, j) for i in range(len(pool))
                      for j in range(i + 1, len(pool))
                      if max(pool[i][2], pool[j][2]) == k - 1]
        q_count = len(candidates)
        dropped: list[str] = []
        for i, j in candidates:
            word, br = bracket(pool[i][0], pool[j][0])
            if br is None:
                dropped.append(word)
                continue
            cand_vals = np.concatenate(
                [pool_vals, br.values(refs)[:, None]], axis=1)
            cand_ranks = _ranks(cand_vals, rank_tol)
            if (cand_ranks > pool_ranks).any():
                pool.append((word, br, k))
                pool_vals, pool_ranks = cand_vals, cand_ranks
            else:
                dropped.append(word)
        g_cum = [(w, v) for w, v, _ in pool]
        levels.append(LevelRecord(list(f_cum), list(g_cum), len(words),
                                  q_count, dropped))

    # Level 0 shares the G generator list with the pool's level-0 slice.
    levels[0].g_generators = [(w, v) for w, v, lv in pool if lv == 0]
    return FlagTable(spec, levels, rank_tol)


def dims_at(table: FlagTable, points: Points
            ) -> list[tuple[list[int], list[int]]]:
    """Numeric ranks (dim F_k, dim G_k) of the generator matrices at
    each point, with the table's rank tolerance.

    The levels are cumulative and share generators (g1, g2 and [g1,g2]
    sit in both flags), so each distinct bracket word is evaluated once,
    over all points in one batch; the evaluation error raised is the
    first one point by point, in level order at each point. Each
    distinct word list is then ranked over all points with one SVD
    call: where F_k and G_k have the same words, as they mostly do when
    condition 1 holds, they share it.
    """
    fields: dict[str, VectorField] = {}
    for rec in table.levels:
        for w, v in rec.f_generators + rec.g_generators:
            fields.setdefault(w, v)
    batches, first = values_in_point_order(list(fields.values()), points)
    if first is not None:
        raise first[2]
    vals = dict(zip(fields, batches))
    memo: dict[tuple[str, ...], list[int]] = {}

    def ranks(gens: list[tuple[str, VectorField]]) -> list[int]:
        words = tuple(w for w, _ in gens)
        if words not in memo:
            memo[words] = _ranks(np.stack([vals[w] for w in words], axis=1),
                                 table.rank_tol).tolist()
        return memo[words]

    dims = [(ranks(rec.f_generators), ranks(rec.g_generators))
            for rec in table.levels]
    return [([f[p] for f, _ in dims], [g[p] for _, g in dims])
            for p in range(len(points))]


def check_condition1(spec: SystemSpec, points: Points,
                     table: FlagTable | None = None) -> dict:
    """Rank condition dim F_k(q) = dim G_k(q) = 2 + k at every point.

    The ranks come from one dims_at call over all points, with the
    table's rank tolerance (compute_flags' default without a table).
    Failures are report content, not exceptions.
    """
    if not points:
        raise ValueError("need at least one point")
    if table is None:
        table = compute_flags(spec)
    expected = [2 + k for k in range(len(table.levels))]
    per_point = []
    first_failure = None
    for idx, (q, (df, dg)) in enumerate(zip(points.coords,
                                            dims_at(table, points))):
        ok = df == expected and dg == expected
        per_point.append({"coords": list(q),
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
