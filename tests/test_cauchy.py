import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flatcheck.cauchy
import flatcheck.diffgeo
from flatcheck.symx import EvalError, eval_at
from flatcheck.cauchy import (AnnihilatorError, _constant_coordinate_pattern,
                              _residuals, annihilator, cauchy_space,
                              check_condition2)
from flatcheck.diffgeo import (OneForm, TwoForm, VectorField,
                               exterior_derivative_1form, lie_derivative_1form)
from flatcheck.flags import _ranks, compute_flags

import cauchy_reference
import flags_reference
import systems
from cauchy_reference import span_residual, stacked


def _points(spec, count, seed=9):
    rng = np.random.default_rng(seed)
    params = spec.bound_params(seed)
    return [spec.frame.point(
        [float(rng.uniform(lo, hi)) for lo, hi in spec.sample_box()], params)
        for _ in range(count)]


def _reference_cauchy_space(pairs, q, tol=1e-8):
    """(A, C) at one point, each step its own LAPACK call, with d(lam)
    rebuilt from the generators rather than taken from the pairs: an
    orthonormal basis W of span{lam} from the SVD of the generator
    values, then the SVD of [lam; (I - W^T W) dlam^T], whose Vt holds C
    in its first rank rows and A in the rest."""
    generators = [w for w, _ in pairs]
    n = generators[0].frame.n
    omega = np.array([w.values([q])[0] for w in generators])
    assert flags_reference.rank(omega, tol) == omega.shape[0]
    _, _, w = np.linalg.svd(omega, full_matrices=False)
    proj = np.eye(n) - w.T @ w
    blocks = [omega]
    for lam in generators:
        dw = exterior_derivative_1form(lam)
        dmat = np.zeros((n, n))
        for (i, j), c in dw.coefficients.items():
            val = eval_at(c, q)
            dmat[i, j] = val
            dmat[j, i] = -val
        blocks.append(proj @ dmat.T)
    stack = np.vstack(blocks)
    _, s, vt = np.linalg.svd(stack, full_matrices=stack.shape[0] < n)
    rank = int(np.sum(s > tol * s[0]))
    return vt[rank:], vt[:rank]


def test_span_residual_basics():
    basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert span_residual(np.array([0.3, -2.0, 0.0]), basis) < 1e-15
    assert span_residual(np.array([0.0, 0.0, 1.0]), basis) == pytest.approx(1.0)
    assert span_residual(np.zeros(3), basis) == 0.0


def test_annihilator_kills_the_flag():
    spec = systems.chained(5)
    table = compute_flags(spec)
    pts = _points(spec, 6)
    for k in range(1, spec.n - 2):
        pairs = annihilator(table, k, pts[:3])
        assert len(pairs) == spec.n - 2 - k
        for q in pts:
            for w, _ in pairs:
                wv = np.array([eval_at(c, q) for c in w.coefficients])
                for _, vf in table.levels[k].g_generators:
                    assert abs(wv @ vf.values([q])[0]) < 1e-9


def test_annihilator_ranks_with_the_table_tolerance(monkeypatch):
    spec = systems.chained(5)
    table = compute_flags(spec, rank_tol=1e-6)
    calls = []

    def spy(stack, tol):
        calls.append((stack.shape, tol))
        return _ranks(stack, tol)

    monkeypatch.setattr(flatcheck.cauchy, "_ranks", spy)
    annihilator(table, 1, _points(spec, 3))
    # one call over the (points, generators, n) stack of G_1
    assert calls == [((3, 3, spec.n), 1e-6)]


@pytest.mark.parametrize("case", [
    # (points where G_1 loses rank, point where a generator fails to
    # evaluate, the point whose error wins, which error)
    ((1, 2), None, 1, "rank"),
    ((2,), 1, 1, "eval"),
    ((1,), 1, 1, "eval"),
    ((0, 3), 2, 0, "rank"),
])
def test_annihilator_raises_at_the_first_failing_reference_point(
        monkeypatch, case):
    low, bad, first, kind = case
    spec = systems.chained(5)
    table = compute_flags(spec)
    pts = _points(spec, 4)

    def ranks(stack, tol):
        out = _ranks(stack, tol)
        out[[p for p in low if p < len(out)]] = 0
        return out

    real = VectorField.values

    def values(self, points):
        out = real(self, points)
        if bad is not None and len(points) > bad:
            raise EvalError(f"field fails at point {bad}", bad, out[:bad])
        return out

    monkeypatch.setattr(flatcheck.cauchy, "_ranks", ranks)
    monkeypatch.setattr(VectorField, "values", values)
    if kind == "rank":
        err = AnnihilatorError
        msg = (f"rank of G_1 is not 3 at reference point "
               f"{tuple(pts[first].coords)}")
    else:
        err, msg = EvalError, f"field fails at point {first}"
    with pytest.raises(err) as info:
        annihilator(table, 1, pts)
    assert str(info.value) == msg


def test_annihilator_rejects_out_of_range_level():
    spec = systems.chained(4)
    table = compute_flags(spec)
    pts = _points(spec, 2)
    with pytest.raises(AnnihilatorError, match="range"):
        annihilator(table, 2, pts)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_characteristic_space_dims_and_span(n):
    spec = systems.chained(n)
    table = compute_flags(spec)
    pts = _points(spec, 8)
    for k in range(1, n - 2):
        pairs = annihilator(table, k, pts[:3])
        # C should be spanned by the first n-1-k coordinate covectors
        # plus the last one
        keep = list(range(n - 1 - k)) + [n - 1]
        vt, ranks = cauchy_space(pairs, pts)
        assert vt.shape == (len(pts), n, n) and ranks.shape == (len(pts),)
        for v, r in zip(vt, ranks):
            assert n - r == k  # dim A
            assert r == n - k  # dim C
            for i in keep:
                e = np.zeros(n)
                e[i] = 1.0
                assert span_residual(e, v[:r]) <= 1e-10


_CAUCHY_SYSTEMS = {
    "example1": systems.example1,
    "chained6": lambda: systems.chained(6),
    "chained8": lambda: systems.chained(8),
    "perturbed_example1": systems.perturbed_example1,
}


@pytest.mark.parametrize("name", sorted(_CAUCHY_SYSTEMS))
def test_cauchy_space_matches_reference(name):
    spec = _CAUCHY_SYSTEMS[name]()
    table = compute_flags(spec)
    pts = _points(spec, 69)
    for k in range(1, spec.n - 2):
        pairs = annihilator(table, k, pts[:5])
        assert [d for _, d in pairs] == [
            exterior_derivative_1form(w) for w, _ in pairs]
        vt, ranks = cauchy_space(pairs, pts)
        assert len(vt) == len(ranks) == len(pts)
        for p, q in enumerate(pts):
            a, c = _reference_cauchy_space(pairs, q)
            r = ranks[p]
            assert np.array_equal(vt[p, r:], a)
            assert np.array_equal(vt[p, :r], c)


def test_cauchy_space_reuses_the_differentials(monkeypatch):
    spec = systems.chained(5)
    table = compute_flags(spec)
    pts = _points(spec, 4)
    levels = [annihilator(table, k, pts[:3]) for k in range(1, spec.n - 2)]
    calls = []

    def counting(w):
        calls.append(w)
        return exterior_derivative_1form(w)

    monkeypatch.setattr(flatcheck.cauchy, "exterior_derivative_1form",
                        counting)
    monkeypatch.setattr(flatcheck.diffgeo, "exterior_derivative_1form",
                        counting)
    batches = []
    values = TwoForm.values

    def counting_values(self, points):
        batches.append((id(self), len(points)))
        return values(self, points)

    monkeypatch.setattr(TwoForm, "values", counting_values)
    for pairs in levels:
        cauchy_space(pairs, pts)
    assert calls == []
    # each differential is evaluated in one batch over all points
    assert batches == [(id(dw), len(pts)) for pairs in levels
                       for _, dw in pairs]
    # the counter does see annihilator build them, one per generator
    pairs = annihilator(table, 1, pts[:3])
    assert len(calls) == len(pairs) == spec.n - 3


def test_condition2_example1_passes(example1_spec):
    table = compute_flags(example1_spec)
    res = check_condition2(example1_spec, table, _points(example1_spec, 10))
    assert res["verdict"] == "pass"
    assert len(res["levels"]) == 1
    assert res["levels"][0]["k"] == 1


def test_condition2_motor_vacuous(motor_spec):
    table = compute_flags(motor_spec)
    res = check_condition2(motor_spec, table, _points(motor_spec, 4))
    assert res["verdict"] == "vacuous"
    assert res["levels"] == []
    assert "1..0" in res["reason"]


def test_condition2_perturbed_drift_fails():
    spec = systems.perturbed_example1()
    table = compute_flags(spec)
    res = check_condition2(spec, table, _points(spec, 10))
    assert res["verdict"] == "fail"
    lv = res["levels"][0]
    assert lv["max_residual"] > 1e-3


@pytest.mark.parametrize("name", ["example1", "chained6", "chained8"])
def test_condition2_builds_each_differential_once(monkeypatch, name):
    spec = (systems.example1() if name == "example1"
            else systems.chained(int(name[len("chained"):])))
    table = compute_flags(spec)
    pts = _points(spec, 6)
    want = check_condition2(spec, table, pts)
    distinct = {w for k in range(1, spec.n - 2)
                for w, _ in annihilator(table, k, pts[:5])}
    calls, lie_calls, batches = [], [], []

    def counting(w):
        calls.append(w)
        return exterior_derivative_1form(w)

    def counting_lie(f, w, dw=None):
        lie_calls.append(w)
        return lie_derivative_1form(f, w, dw)

    monkeypatch.setattr(flatcheck.cauchy, "exterior_derivative_1form",
                        counting)
    monkeypatch.setattr(flatcheck.diffgeo, "exterior_derivative_1form",
                        counting)
    monkeypatch.setattr(flatcheck.cauchy, "lie_derivative_1form",
                        counting_lie)
    for cls in (OneForm, TwoForm):
        def counting_values(self, points, real=cls.values):
            batches.append(self)
            return real(self, points)

        monkeypatch.setattr(cls, "values", counting_values)
    assert check_condition2(spec, table, pts) == want
    # one d(lam) and one L_f lam per distinct generator tree, over all
    # levels, each evaluated at most once
    assert len(calls) == len(lie_calls) == len(distinct)
    assert set(calls) == set(lie_calls) == distinct
    assert len({id(b) for b in batches}) == len(batches)
    if name == "chained8":
        # levels 2..5 only repeat level 1's five generators
        assert len(distinct) == 5


@pytest.mark.parametrize("name", ["example1", "chained6", "chained8"])
def test_condition2_evaluates_each_flag_field_once(monkeypatch, name):
    spec = (systems.example1() if name == "example1"
            else systems.chained(int(name[len("chained"):])))
    table = compute_flags(spec)
    pts = _points(spec, 6)
    # at points of their own: the fields keep their values per points
    want = check_condition2(spec, table, _points(spec, 6))
    calls = []
    real = VectorField.values

    def counting(self, points):
        calls.append((id(self), len(points)))
        return real(self, points)

    monkeypatch.setattr(VectorField, "values", counting)
    assert check_condition2(spec, table, pts) == want
    # one batch at the five reference points per distinct G_k field,
    # though level k holds every field of level k-1
    fields = {id(v) for k in range(1, spec.n - 2)
              for _, v in table.levels[k].g_generators}
    assert sorted(calls) == sorted((f, 5) for f in fields)
    if name == "chained8":
        assert len(fields) == 7


def _pattern_reference(spaces):
    """_constant_coordinate_pattern one point at a time, over (A, C)
    pairs."""
    pattern = None
    for _, b in spaces:
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


@pytest.mark.parametrize("name", sorted(_CAUCHY_SYSTEMS))
def test_constant_coordinate_pattern_matches_reference(name):
    spec = _CAUCHY_SYSTEMS[name]()
    table = compute_flags(spec)
    pts = _points(spec, 20)
    for k in range(1, spec.n - 2):
        vt, ranks = cauchy_space(annihilator(table, k, pts[:5]), pts)
        got = _constant_coordinate_pattern(vt, ranks)
        assert got == _pattern_reference(
            [(v[r:], v[:r]) for v, r in zip(vt, ranks)])
        assert got is None or all(type(j) is int for j in got)
    n = spec.n
    keep = list(range(n - 2)) + [n - 1]
    coords = (np.eye(n)[[n - 2]], np.eye(n)[keep])
    assert _constant_coordinate_pattern(*stacked([coords] * 3)) == keep
    rotated = np.eye(n)[keep]
    rotated[0] = (rotated[0] + np.eye(n)[n - 2]) / np.sqrt(2.0)
    tilted = (np.eye(n)[[n - 2]], rotated)
    assert _constant_coordinate_pattern(*stacked([coords, tilted])) is None


def test_constant_coordinate_pattern_needs_one_dimension():
    n = 4
    two = (np.eye(n)[[2, 3]], np.eye(n)[[0, 1]])
    three = (np.eye(n)[[3]], np.eye(n)[[0, 1, 2]])
    assert _constant_coordinate_pattern(*stacked([two, two])) == [0, 1]
    assert _constant_coordinate_pattern(*stacked([two, three])) is None


def _failing_at(monkeypatch, pts, dependent=(), bad_eval=(), bad_d=()):
    """Generator values vanish at the points indexed by dependent, and
    a generator or differential batch raises EvalError at the first of
    its points indexed by bad_eval or bad_d, with that row and the
    values of the rows before it."""
    where = {pts[i].coords: i for i in range(len(pts))}

    def failing(cls, bad, what, zeroed=()):
        real = cls.values

        def fake_values(self, points):
            out = real(self, points)
            for row, q in enumerate(points):
                idx = where.get(q.coords)
                if idx in bad:
                    raise EvalError(f"{what} fails at point {idx}", row,
                                    out[:row])
                if idx in zeroed:
                    out[row] *= 0.0
            return out

        monkeypatch.setattr(cls, "values", fake_values)

    failing(OneForm, bad_eval, "generator", dependent)
    failing(TwoForm, bad_d, "differential")


@pytest.mark.parametrize("case", [
    # (dependent points, generator-error points, differential-error
    # points, the point whose error wins, which error)
    ((2,), (4,), (), 2, "dependent"),
    ((4,), (2,), (), 2, "generator"),
    ((4,), (), (2,), 2, "differential"),
    # at one point the rank check comes before the differentials
    ((3,), (), (3,), 3, "dependent"),
    # late points: the reference's blocks of 32 put these in its second
    ((40,), (), (36,), 36, "differential"),
    ((36,), (40,), (), 36, "dependent"),
])
def test_condition2_first_error_in_point_order_wins(monkeypatch, case):
    dependent, bad_eval, bad_d, first, kind = case
    spec = systems.chained(6)
    table = compute_flags(spec)
    pts = _points(spec, 45)
    _failing_at(monkeypatch, pts, dependent, bad_eval, bad_d)
    if kind == "dependent":
        err = AnnihilatorError
        msg = f"annihilator generators dependent at {tuple(pts[first].coords)}"
    else:
        err = EvalError
        msg = f"{kind} fails at point {first}"
    with pytest.raises(err) as info:
        check_condition2(spec, table, pts)
    assert str(info.value) == msg


@pytest.mark.parametrize("where", ["generator", "differential"])
def test_condition2_shared_form_error_matches_reference(monkeypatch, where):
    # a generator tree of both level 1 and level 2 fails at one point,
    # and a level-1-only form at a later one
    spec = systems.chained(6)
    table = compute_flags(spec)
    pts = _points(spec, 45)
    level1, level2 = ([w for w, _ in annihilator(table, k, pts[:5])]
                      for k in (1, 2))
    shared = next(w for w in level1 if w in level2)
    alone = next(w for w in level1 if w not in level2)
    bad = [(shared, 30), (alone, 31)]
    if where == "differential":
        bad = [(exterior_derivative_1form(w), p) for w, p in bad]
    where_at = {q.coords: i for i, q in enumerate(pts)}
    cls = OneForm if where == "generator" else TwoForm
    real = cls.values

    def fake_values(self, points):
        out = real(self, points)
        fail = next((p for form, p in bad if form == self), None)
        for row, q in enumerate(points):
            if where_at.get(q.coords) == fail:
                raise EvalError(f"{where} fails at point {fail}", row,
                                out[:row])
        return out

    monkeypatch.setattr(cls, "values", fake_values)
    errors = []
    for check in (check_condition2, cauchy_reference.check_condition2):
        with pytest.raises(EvalError) as info:
            check(spec, table, pts)
        errors.append(str(info.value))
    assert errors == [f"{where} fails at point 30"] * 2


@pytest.mark.parametrize("name", sorted(_CAUCHY_SYSTEMS))
def test_condition2_matches_the_blocked_reference(name):
    spec = _CAUCHY_SYSTEMS[name]()
    table = compute_flags(spec)
    # more points than the reference's blocks of 32, so it crosses two
    # block boundaries
    pts = _points(spec, 69)
    for k in range(1, spec.n - 2):
        pairs = annihilator(table, k, pts[:5])
        vt, ranks = cauchy_space(pairs, pts)
        want = cauchy_reference.cauchy_space(pairs, pts)
        assert len(vt) == len(ranks) == len(want) == len(pts)
        for v, r, (a, c) in zip(vt, ranks, want):
            assert np.array_equal(v[r:], a)
            assert np.array_equal(v[:r], c)
    assert check_condition2(spec, table, pts) == \
        cauchy_reference.check_condition2(spec, table, pts)


def _projector(basis):
    """Orthogonal projector onto the row span of basis."""
    return basis.T @ np.linalg.pinv(basis.T)


@pytest.mark.parametrize("name", sorted(_CAUCHY_SYSTEMS))
def test_two_svds_span_the_two_step_spaces(name):
    # A and C from one SVD are rotated bases of the spaces that the
    # earlier construction (pinv projector, A from a full SVD, C as the
    # nullspace of A) gave
    spec = _CAUCHY_SYSTEMS[name]()
    table = compute_flags(spec)
    pts = _points(spec, 69)
    for k in range(1, spec.n - 2):
        pairs = annihilator(table, k, pts[:5])
        vt, ranks = cauchy_space(pairs, pts)
        want = cauchy_reference.two_step_cauchy_space(pairs, pts)
        for v, r, (ref_a, ref_c) in zip(vt, ranks, want, strict=True):
            assert (len(v) - r, r) == (len(ref_a), len(ref_c))
            for a, b in ((v[r:], ref_a), (v[:r], ref_c)):
                assert np.max(np.abs(_projector(a) - _projector(b)),
                              initial=0.0) <= 1e-10


@pytest.mark.parametrize("name", sorted(_CAUCHY_SYSTEMS))
def test_characteristic_bases_are_orthonormal(name):
    spec = _CAUCHY_SYSTEMS[name]()
    table = compute_flags(spec)
    pts = _points(spec, 40)
    n = spec.n
    for k in range(1, n - 2):
        vt, ranks = cauchy_space(annihilator(table, k, pts[:5]), pts)
        assert vt.shape[1:] == (n, n)
        for v, r in zip(vt, ranks):
            c, a = v[:r], v[r:]
            assert np.max(np.abs(c @ c.T - np.eye(r)),
                          initial=0.0) <= 1e-12
            assert np.max(np.abs(a @ a.T - np.eye(n - r)),
                          initial=0.0) <= 1e-12
            assert np.max(np.abs(a @ c.T), initial=0.0) <= 1e-12


@st.composite
def _residual_cases(draw):
    """Values of a few forms at a few points, and an orthonormal C of
    any dimension 0..n at each point, with its complement A, as (A, C)
    pairs; the values are zero, in C, near C or anywhere, at several
    scales."""
    n = draw(st.integers(2, 8))
    count = draw(st.integers(1, 5))
    forms = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spaces = []
    for _ in range(count):
        dim = draw(st.integers(0, n))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spaces.append((q.T[dim:], q.T[:dim]))
    values = np.zeros((forms, count, n))
    for g in range(forms):
        for p, (_, c) in enumerate(spaces):
            kind = draw(st.sampled_from(["zero", "in", "near", "any"]))
            scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
            if kind == "any":
                values[g, p] = scale * rng.standard_normal(n)
            elif kind != "zero":
                values[g, p] = scale * (rng.standard_normal(len(c)) @ c)
                if kind == "near":
                    values[g, p] += scale * 1e-9 * rng.standard_normal(n)
    return list(values), spaces


@settings(max_examples=300, deadline=None)
@given(_residual_cases())
def test_batched_residuals_match_least_squares(case):
    values, spaces = case
    got = _residuals(values, *stacked(spaces))
    want = [max([0.0] + [span_residual(v[p], c) for v in values])
            for p, (_, c) in enumerate(spaces)]
    assert all(type(r) is float for r in got)
    assert len(got) == len(want)
    for p, (r, ref) in enumerate(zip(got, want)):
        assert abs(r - ref) <= 1e-12
        if len(spaces[p][1]) == 0 or not any(v[p].any() for v in values):
            assert r == ref  # 1.0 against an empty C, 0.0 for v = 0


@pytest.mark.parametrize("name", sorted(_CAUCHY_SYSTEMS))
def test_condition2_makes_two_svds_per_level(monkeypatch, name):
    spec = _CAUCHY_SYSTEMS[name]()
    table = compute_flags(spec)
    pts = _points(spec, 20)
    want = check_condition2(spec, table, pts)
    calls = []
    for fn in ("svd", "pinv", "lstsq"):
        def spy(*args, real=getattr(np.linalg, fn), fn=fn, **kwargs):
            calls.append((fn, sys._getframe(1).f_globals["__name__"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, fn, spy)
    real_space = flatcheck.cauchy.cauchy_space

    def marking(*args, **kwargs):
        calls.append(("level", None))
        return real_space(*args, **kwargs)

    monkeypatch.setattr(flatcheck.cauchy, "cauchy_space", marking)
    assert check_condition2(spec, table, pts) == want
    per_level = [[]]
    for fn, caller in calls:
        if fn == "level":
            per_level.append([])
        elif caller == "flatcheck.cauchy" or fn != "svd":
            per_level[-1].append(fn)
    # before the first level only annihilator's rank check (in flags)
    assert per_level[0] == []
    assert len(per_level) - 1 == spec.n - 3
    assert per_level[1:] == [["svd", "svd"]] * (spec.n - 3)
