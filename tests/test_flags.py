import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from fractions import Fraction

from flatcheck.symx import Const, EvalError, Frame, Points, SymxError, parse
from flatcheck.diffgeo import VectorField, basis_vector
from flatcheck import diffgeo, flags
from flatcheck.cli import load_spec
from flatcheck.flags import (SystemSpec, _lyndon, check_condition1,
                             compute_flags, dims_at)

import flags_reference
import systems
from conftest import SPEC_DIR, each_point
from flags_reference import feedback_flags


def _points(spec, count, seed=3):
    rng = np.random.default_rng(seed)
    params = spec.bound_params(seed)
    box = spec.sample_box()
    return Points(spec.frame, tuple(
        tuple(float(rng.uniform(lo, hi)) for lo, hi in box)
        for _ in range(count)), params)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_chained_flags_grow_one_per_level(n):
    spec = systems.chained(n)
    res = check_condition1(spec, _points(spec, 5))
    assert res["pass"], res["first_failure"]
    assert res["expected"] == [2 + k for k in range(n - 1)]


def test_example1_condition1_passes(example1_spec):
    res = check_condition1(example1_spec, _points(example1_spec, 20))
    assert res["pass"]
    assert res["points_checked"] == 20


def test_involutive_pair_fails_at_k1_everywhere():
    spec = systems.involutive()
    res = check_condition1(spec, _points(spec, 25))
    assert not res["pass"]
    assert res["first_failure"]["level"] == 1
    for rec in res["per_point"]:
        assert rec["dim_F"][1] == 2 and rec["dim_G"][1] == 2


def test_dims_at_single_point(chained4_spec):
    table = compute_flags(chained4_spec)
    q = chained4_spec.frame.point([0.3, -0.2, 0.5, 0.1],
                                  chained4_spec.bound_params(0))
    assert dims_at(table, q) == [([2, 3, 4], [2, 3, 4])]


def test_flag_table_depth(motor_spec):
    table = compute_flags(motor_spec)
    assert table.depth == motor_spec.n - 2


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3))
@settings(max_examples=20, deadline=None)
def test_constant_feedback_leaves_dims_invariant(a, b, c, d):
    if a * d - b * c == 0:
        return
    spec = systems.chained(4)
    beta = ((Const(Fraction(a)), Const(Fraction(b))),
            (Const(Fraction(c)), Const(Fraction(d))))
    base = compute_flags(spec)
    mixed = feedback_flags(spec, beta)
    pts = _points(spec, 3, seed=11)
    assert dims_at(base, pts) == dims_at(mixed, pts)


def test_feedback_flags_rejects_singular_matrix(chained4_spec):
    one = Const(Fraction(1))
    beta = ((one, one), (one, one))
    with pytest.raises(SymxError, match="determinant"):
        feedback_flags(chained4_spec, beta)


def test_spec_validation_errors():
    fr = Frame("x", ("x1", "x2"), ())
    other = Frame("y", ("y1", "y2"), ())
    zero = VectorField(fr, (Const(Fraction(0)),) * 2)
    e1 = basis_vector(fr, 0)
    with pytest.raises(ValueError, match="chart"):
        SystemSpec(frame=fr, f=zero, g1=e1,
                   g2=basis_vector(other, 1))
    with pytest.raises(ValueError, match="zero"):
        SystemSpec(frame=fr, f=zero, g1=zero, g2=zero)
    with pytest.raises(ValueError, match="box"):
        SystemSpec(frame=fr, f=zero, g1=e1, g2=basis_vector(fr, 1),
                   box=((1.0, -1.0), (0.0, 1.0)))


def test_bound_params_deterministic_and_complete():
    spec = systems.motor(params={"J": 0.1})
    b1, b2 = spec.bound_params(seed=5), spec.bound_params(seed=5)
    assert b1 == b2
    assert b1["J"] == 0.1
    assert set(b1) == set(spec.frame.params)
    assert all(0.5 <= v <= 1.5 for k, v in b1.items() if k != "J")


def test_sample_box_default_unit_cube(example1_spec):
    assert example1_spec.sample_box() == ((-1.0, 1.0),) * 4


def _witt(length: int) -> int:
    """Number of Lyndon words of the given length over two letters."""
    def mobius(d):
        out, m, p = 1, d, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if m > 1 else out
    return sum(mobius(d) * 2 ** (length // d)
               for d in range(1, length + 1) if length % d == 0) // length


@pytest.mark.parametrize("length", range(2, 9))
def test_lyndon_words_match_witt_counts(length):
    words = _lyndon(length)
    assert len(words) == _witt(length)
    assert len(set(words)) == len(words)
    for w in words:
        assert set(w) <= {"1", "2"} and len(w) == length
        assert all(w < w[i:] + w[:i] for i in range(1, length))


def test_p_word_count_is_the_lyndon_count():
    table = compute_flags(systems.chained(8))
    assert [lv.p_word_count for lv in table.levels] == [2, 1, 2, 3, 6, 9, 18]


_FLAG_SYSTEMS = {
    "example1": systems.example1, "motor": systems.motor,
    "chained4": lambda: systems.chained(4),
    "chained5": lambda: systems.chained(5),
    "chained6": lambda: systems.chained(6),
    "chained7": lambda: systems.chained(7),
    "involutive": systems.involutive,
    "perturbed_example1": systems.perturbed_example1,
}


@pytest.mark.parametrize("name", sorted(_FLAG_SYSTEMS))
def test_lyndon_flags_match_left_normed_reference(name):
    spec = _FLAG_SYSTEMS[name]()
    table = compute_flags(spec)
    ref = flags_reference.compute_flags(spec)
    for lv, rv in zip(table.levels, ref.levels, strict=True):
        assert [w for w, _ in lv.g_generators] == \
            [w for w, _ in rv.g_generators]
        assert [v for _, v in lv.g_generators] == \
            [v for _, v in rv.g_generators]
        assert lv.q_word_count == rv.q_word_count
        assert lv.q_dropped_words == rv.q_dropped_words
    pts = _points(spec, 50, seed=17)
    assert dims_at(table, pts) == \
        [flags_reference.dims_at(ref, q) for q in each_point(pts)]


@pytest.mark.parametrize("name", ["example1", "motor", "chained4"])
@pytest.mark.parametrize("seed", [0, 7, 19])
@pytest.mark.parametrize("count", [5, 25])
def test_reference_points_are_the_scalar_draw(name, seed, count):
    # drawn through SampleBox, the floats of one scalar draw per
    # coordinate, with the same bindings
    spec = load_spec(str(SPEC_DIR / f"{name}.spec"))
    got = flags._reference_points(spec, seed=seed, count=count)
    want = flags_reference.reference_points(spec, seed=seed, count=count)
    assert len(got) == count
    assert [[c.hex() for c in q] for q in got.coords] == \
        [[c.hex() for c in q] for q in want.coords]
    assert got.frame is spec.frame and got.params == want.params


def _vanishing_at_first_reference_point():
    """n = 4 system whose bracket [g1,g2] = (0, 0, x1 - r, 0) vanishes
    exactly at the first reference point (x1 = r there) and nowhere
    else among them."""
    fr = Frame("x", ("x1", "x2", "x3", "x4"), ())
    zero = Const(Fraction(0))
    probe = SystemSpec(fr, *[basis_vector(fr, i) for i in range(3)])
    r = Const(Fraction(flags._reference_points(probe).coords[0][0]))
    x1 = parse("x1", fr)
    g2 = VectorField(fr, (zero, parse("1", fr),
                          (x1 - r) * (x1 - r) * Fraction(1, 2), zero))
    return SystemSpec(fr, VectorField(fr, (zero,) * 4), basis_vector(fr, 0),
                      g2)


def test_q_candidate_raising_the_rank_at_one_reference_point_is_kept():
    spec = _vanishing_at_first_reference_point()
    refs = flags._reference_points(spec)
    br = diffgeo.lie_bracket(spec.g1, spec.g2)
    assert br.values(refs)[0].tolist() == [0.0] * 4
    assert np.all(br.values(refs)[1:, 2] != 0.0)
    table = compute_flags(spec)
    ref = flags_reference.compute_flags(spec)
    assert [w for w, _ in table.levels[1].g_generators] == \
        ["g1", "g2", "[g1,g2]"]
    for lv, rv in zip(table.levels, ref.levels, strict=True):
        assert [w for w, _ in lv.g_generators] == \
            [w for w, _ in rv.g_generators]
        assert lv.q_dropped_words == rv.q_dropped_words


@pytest.mark.parametrize("name", ["chained6", "example1", "involutive"])
def test_q_candidates_are_ranked_in_one_stacked_call_each(monkeypatch,
                                                           name):
    # one call for the pool, then one per nonzero candidate over all
    # five reference points (none ranks one point at a time); the
    # pool's ranks are not recomputed
    shapes = []
    real = flags._ranks

    def spy(stack, tol):
        shapes.append(stack.shape)
        return real(stack, tol)

    monkeypatch.setattr(flags, "_ranks", spy)
    table = compute_flags(_FLAG_SYSTEMS[name]())
    levels = table.levels[1:]
    kept = sum(lv.q_word_count - len(lv.q_dropped_words) for lv in levels)
    assert 1 + kept <= len(shapes) <= 1 + sum(lv.q_word_count
                                              for lv in levels)
    assert all(shape[0] == 5 for shape in shapes)
    assert shapes[0][1] == len(table.levels[0].g_generators)


def test_each_bracket_is_built_once(monkeypatch):
    pairs = []
    real = flags.lie_bracket

    def counting(X, Y):
        pairs.append((id(X), id(Y)))
        return real(X, Y)

    monkeypatch.setattr(flags, "lie_bracket", counting)
    table = compute_flags(systems.chained(6))
    assert len(pairs) == len(set(pairs))
    last = table.levels[-1]
    p_fields = dict(last.f_generators)
    q_fields = dict(last.g_generators)
    shared = p_fields.keys() & q_fields.keys()
    assert {"g1", "g2", "[g1,g2]", "[g1,[g1,g2]]"} <= shared
    assert all(p_fields[w] is q_fields[w] for w in shared)


@pytest.mark.parametrize("name", ["example1", "chained8"])
def test_dims_at_evaluates_each_generator_once(monkeypatch, name):
    spec = systems.example1() if name == "example1" else systems.chained(8)
    table = compute_flags(spec)
    calls = []
    real = diffgeo.VectorField.values

    def counting(self, points):
        calls.append((id(self), len(points)))
        return real(self, points)

    monkeypatch.setattr(diffgeo.VectorField, "values", counting)
    points = _points(spec, 3)
    dims_at(table, points)
    words = {w: v for lv in table.levels
             for w, v in lv.f_generators + lv.g_generators}
    # one batch per distinct word, each over every point
    assert sorted(calls) == sorted((id(v), len(points))
                                   for v in words.values())


@pytest.mark.parametrize("name, levels", [("chained6", 5), ("example1", 3)])
def test_dims_at_ranks_each_word_list_once(monkeypatch, name, levels):
    spec = _FLAG_SYSTEMS[name]()
    table = compute_flags(spec)
    # F_k = G_k at every level of both, so the ranks of one SVD call
    # serve both flags
    assert len(table.levels) == levels
    assert all([w for w, _ in lv.f_generators] ==
               [w for w, _ in lv.g_generators] for lv in table.levels)
    stacks = []
    real = flags._ranks

    def spy(stack, tol):
        stacks.append(stack.shape)
        return real(stack, tol)

    monkeypatch.setattr(flags, "_ranks", spy)
    points = _points(spec, 4)
    dims = dims_at(table, points)
    assert len(stacks) == levels
    assert all(df == dg for df, dg in dims)


def test_ranks_of_a_stack():
    full = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    stack = np.stack([np.zeros((2, 3)), full,
                      np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]),
                      np.array([[1.0, 0.0, 0.0], [0.0, 1e-12, 0.0]]),
                      np.array([[1.0, 0.0, 0.0], [0.0, 1e-8, 0.0]])])
    assert flags._ranks(stack, 1e-9).tolist() == [0, 2, 1, 1, 2]
    assert flags._ranks(np.zeros((4, 0, 3)), 1e-9).tolist() == [0] * 4
    assert flags._ranks(full[None], 1e-9).tolist() == [2]
    assert flags._ranks(np.zeros((1, 2, 3)), 1e-9).tolist() == [0]
    # each rank agrees with the one-matrix reference
    assert [flags_reference.rank(m, 1e-9) for m in stack] == [0, 2, 1, 1, 2]


_STACKED_SYSTEMS = {
    "example1": systems.example1, "involutive": systems.involutive,
    **{f"chained{n}": (lambda n=n: systems.chained(n)) for n in range(4, 9)},
}


@pytest.mark.parametrize("name", sorted(_STACKED_SYSTEMS))
def test_stacked_dims_match_per_point_ranks(name):
    spec = _STACKED_SYSTEMS[name]()
    table = compute_flags(spec)
    pts = _points(spec, 40, seed=23)
    got = dims_at(table, pts)
    assert got == [flags_reference.dims_at(table, q) for q in each_point(pts)]
    assert all(type(d) is int for df, dg in got for d in df + dg)


@pytest.mark.parametrize("case", [
    # (level of the word, or the word itself; point index) pairs, and
    # the pair whose error wins: a later-level field failing at an
    # earlier point comes first ...
    ({(3, 2), ("[g1,g2]", 3)}, (3, 2)),
    # ... and at one point the lower level's field comes first
    ({(3, 3), ("[g1,g2]", 3), (4, 5)}, ("[g1,g2]", 3)),
])
def test_dims_at_raises_at_the_first_failing_point(monkeypatch, case):
    spec = systems.chained(6)
    table = compute_flags(spec)
    pts = _points(spec, 8)
    where = {q: i for i, q in enumerate(pts.coords)}
    fields = dict(table.levels[-1].f_generators + table.levels[-1].g_generators)

    def word(key):  # a level's newest F word, or the word given
        return table.levels[key].f_generators[-1][0] \
            if isinstance(key, int) else key

    failing, (first_key, first) = case
    bad = {(id(fields[word(w)]), i) for w, i in failing}
    real = diffgeo.VectorField.values

    def failing_values(self, points):
        # a batch fails at its first bad point, with the rows before it
        out = real(self, points)
        for row, q in enumerate(points.coords):
            if (id(self), where.get(q)) in bad:
                raise EvalError(f"{id(self)} fails at point {where[q]}",
                                row, out[:row])
        return out

    monkeypatch.setattr(diffgeo.VectorField, "values", failing_values)
    with pytest.raises(EvalError) as want:
        for q in each_point(pts):
            flags_reference.dims_at(table, q)
    with pytest.raises(EvalError) as got:
        dims_at(table, pts)
    assert str(got.value) == str(want.value)
    assert str(got.value) == \
        f"{id(fields[word(first_key)])} fails at point {first}"
    with pytest.raises(EvalError) as c1:
        check_condition1(spec, pts, table=table)
    assert str(c1.value) == str(want.value)
