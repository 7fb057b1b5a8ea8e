import dataclasses
import json
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatcheck.symx import (EvalError, Frame, Points, compile_fn, normalize,
                            parse)
from flatcheck.diffgeo import VectorField, lie_bracket
from flatcheck import harness
from flatcheck.harness import (FlatSignal, HarnessError, RegularityError,
                               SampleBox, T_FRAME, Trajectory, VSignal,
                               _BLOCK, _COLUMN_BLOCK, _CSV_CELLS, _csv_rows,
                               _grid, _newton_grid, _stages, fd_bracket,
                               reconstruct, simulate)
from flatcheck.cli import _bracket_oracle, load_spec, main
from flatcheck.triangular import extract_triangular

import harness_reference
import systems
from conftest import SPEC_DIR, each_point, realize


def test_fd_bracket_second_order_convergence():
    from flatcheck.symx import eval_at
    # polynomial slices of degree <= 2 difference exactly, so use
    # transcendental components to see the h^2 truncation error
    fr = Frame("x", ("x1", "x2"), ())
    P = lambda s: parse(s, fr)
    X = VectorField(fr, (P("sin(x2)"), P("exp(x1)")))
    Y = VectorField(fr, (P("x2^4"), P("cos(x1*x2)")))
    q = fr.point([0.3, 0.7])
    exact = lie_bracket(X, Y)
    ex_vals = np.array([eval_at(c, q.env(0)) for c in exact.components])
    errs = [np.max(np.abs(fd_bracket(X, Y, q, h=h)[0] - ex_vals))
            for h in (1e-2, 1e-3, 1e-4)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] < 0.05 * errs[0]


def test_fd_bracket_constant_fields_vanish():
    fr = Frame("x", ("x1", "x2"), ())
    P = lambda s: parse(s, fr)
    X = VectorField(fr, (P("2"), P("-1")))
    Y = VectorField(fr, (P("1/3"), P("5")))
    q = fr.point([0.7, -1.2])
    assert np.max(np.abs(fd_bracket(X, Y, q))) < 1e-12


def test_fd_bracket_rejects_mixed_frames():
    fr1 = Frame("x", ("x1", "x2"), ())
    fr2 = Frame("q", ("q1", "q2"), ())
    X = VectorField(fr1, (parse("x2", fr1), parse("0", fr1)))
    Y = VectorField(fr2, (parse("0", fr2), parse("q1", fr2)))
    with pytest.raises(HarnessError, match="different charts"):
        fd_bracket(X, Y, fr1.point([1.0, 1.0]))


def test_fd_bracket_reports_stencil_failure():
    fr = Frame("x", ("x1", "x2"), ())
    X = VectorField(fr, (parse("sqrt(x1)", fr), parse("0", fr)))
    Y = VectorField(fr, (parse("0", fr), parse("x1", fr)))
    with pytest.raises(HarnessError, match="stencil"):
        fd_bracket(X, Y, fr.point([1e-12, 0.0]))

    # Over several points the error is the one the per-point loop meets
    # first: points in turn, at each J_Y, X, J_X, Y. A later stage at an
    # earlier point wins (J_X's stencil at the first point, x1 - h < 0,
    # before X itself at the second), and at one point the earlier
    # stage wins (X at x1 = -1 before J_X's stencil there).
    # A later Jacobian column can fail at an earlier point: with
    # X = (sqrt(x1) + sqrt(x2), 0), column 2's stencil fails at the
    # first point and column 1's only at the second.
    X2 = VectorField(fr, (parse("sqrt(x1) + sqrt(x2)", fr), parse("0", fr)))
    for F, coords, at in (
            (X, ([1e-6, 0.0], [-1.0, 0.0]), "(-9e-06, 0.0)"),
            (X, ([0.5, 0.0], [-1.0, 0.0]), "(-1.0, 0.0)"),
            (X2, ([0.5, 1e-6], [1e-6, 0.5]), "(0.5, -9e-06)")):
        pts = Points(fr, tuple(map(tuple, coords)))
        with pytest.raises(HarnessError) as ref:
            for q in each_point(pts):
                harness_reference.fd_bracket(F, Y, q)
        with pytest.raises(HarnessError) as got:
            fd_bracket(F, Y, pts)
        assert str(got.value) == str(ref.value)
        assert f"stencil at {at}:" in str(got.value)

    # The oracle keeps each point's stencils across its three cases, and
    # must still fail on the evaluation the per-case loop fails on. Here
    # [g1, g2] = (0, x2/(2 sqrt(x1))) fails in the stencil of the first
    # point, x1 = h - h = 0, but only the second case computes it there;
    # the first case fails earlier, on g2 in the second point's stencil,
    # x1 = h/2 - h < 0.
    g1 = VectorField(fr, (parse("1", fr), parse("0", fr)))
    g2 = VectorField(fr, (parse("0", fr), parse("x2*sqrt(x1)", fr)))
    spec = types.SimpleNamespace(g1=g1, g2=g2)
    points = Points(fr, ((1e-5, 1.0), (5e-6, 1.0)))
    second = r"stencil at \(-5e-06, 1.0\)"
    with pytest.raises(HarnessError, match=second) as ref:
        harness_reference.bracket_errors(spec, points)
    with pytest.raises(HarnessError) as got:
        _bracket_oracle(spec, points)
    assert str(got.value) == str(ref.value)


def test_bracket_oracle_exact_bracket_failure_in_point_order():
    # [g1, g2] = (0, x1/sqrt(x1^2 + x2^2)) fails at the origin, where
    # every stencil evaluates, and g2's stencil fails at p1 (x2 - h <
    # -1). The oracle must raise what the per-point loop meets first:
    # at each point the stencils, then the exact bracket.
    fr = Frame("x", ("x1", "x2"), ())
    g1 = VectorField(fr, (parse("1", fr), parse("0", fr)))
    g2 = VectorField(fr, (parse("0", fr),
                          parse("sqrt(x1^2 + x2^2) + sqrt(x2 + 1)", fr)))
    spec = types.SimpleNamespace(g1=g1, g2=g2)
    p0, p1 = (0.0, 0.0), (0.5, -1.0 + 1e-6)
    for rows, kind in (((p0, p1), EvalError), ((p1, p0), HarnessError)):
        points = Points(fr, rows)
        with pytest.raises(kind) as ref:
            harness_reference.bracket_errors(spec, points)
        with pytest.raises(kind) as got:
            _bracket_oracle(spec, points)
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("count", [0, 1, 100])
def test_stencil_shifts_the_floats_of_the_per_row_stencil(n, count):
    # the 2n shifted sets hold, bit for bit, the rows of the stencil
    # built one point object per row, with the points' frame and
    # bindings
    fr = Frame("x", tuple(f"x{i}" for i in range(1, n + 1)), ("a",))
    bounds = tuple((-10.0 ** (j % 3), 10.0 ** (j % 4)) for j in range(n))
    pts = SampleBox(bounds, max(count, 1), seed=n).points(fr, {"a": 0.5})
    pts = pts[:count]
    got = harness.Stencil(pts).shifted
    want = harness_reference.stencil_points(pts)
    assert len(got) == len(want) == (2 * n if count else 0)
    assert [[[c.hex() for c in row] for row in s.coords] for s in got] == \
        [[[c.hex() for c in q.coords[0]] for q in rows] for rows in want]
    assert all(s.frame is fr and s.params is pts.params for s in got)


def test_sample_box_deterministic_and_rejecting():
    fr = Frame("x", ("x1", "x2"), ())
    box = SampleBox(bounds=((-1.0, 1.0), (0.0, 2.0)), count=20, seed=3)
    a = box.points(fr)
    b = box.points(fr)
    assert a.coords == b.coords
    assert len(a) == 20
    assert all(-1 <= p[0] <= 1 and 0 <= p[1] <= 2 for p in a.coords)
    other = SampleBox(bounds=box.bounds, count=20, seed=4).points(fr)
    assert other.coords != a.coords


def test_sample_box_draws_one_scalar_per_coordinate():
    # one vectorised draw gives, row by row, the floats of one scalar
    # rng.uniform(lo, hi) per coordinate, on mixed boxes
    fr = Frame("x", ("x1", "x2", "x3"), ("a",))
    for seed in range(50):
        spans = np.random.default_rng(1000 + seed).uniform(-50, 50, (3, 2))
        bounds = tuple((float(min(r)), float(max(r))) for r in spans)
        bounds = bounds[:2] + ((1e-3, 1e3),)
        rng = np.random.default_rng(seed)
        want = [tuple(float(rng.uniform(lo, hi)) for lo, hi in bounds)
                for _ in range(40)]
        pts = SampleBox(bounds, 40, seed=seed).points(fr, {"a": 2.0})
        assert list(pts.coords) == want
        assert all(type(c) is float for q in pts.coords for c in q)
        assert pts.params == {"a": 2.0} and pts.frame is fr


def test_sample_box_validation():
    with pytest.raises(ValueError, match="positive"):
        SampleBox(bounds=((-1.0, 1.0),), count=0)
    with pytest.raises(ValueError, match="empty box"):
        SampleBox(bounds=((1.0, 1.0),), count=5)
    fr = Frame("x", ("x1", "x2"), ())
    with pytest.raises(ValueError, match="dimension"):
        SampleBox(bounds=((-1.0, 1.0),), count=5).points(fr)


def test_vsignal_exact_derivatives():
    v = VSignal.from_strings("sin(2*t)", "t^2")
    ts = np.linspace(0.0, 2.0, 50)
    d1 = compile_fn(v.jets(1, 1)[1], ("t",))([ts])
    assert np.allclose(d1, 2 * np.cos(2 * ts), atol=1e-12)
    d2 = compile_fn(v.jets(2, 2)[2], ("t",))([ts])
    assert np.allclose(np.broadcast_to(d2, ts.shape), 2.0)


@pytest.mark.parametrize("which, closed_form", [
    (1, "1024*sin(2*t)"), (2, "sin(t)/2")])
def test_vsignal_high_order_derivative(which, closed_form):
    # raw diff trees grow about tenfold per order, so order 12 is only
    # reachable when every step is normalized
    v = VSignal.from_strings("1 + sin(2*t)/4", "sin(t)/2")
    got = v.jets(which, 12)[12]
    assert got == normalize(parse(closed_form, T_FRAME))


@pytest.mark.parametrize("s", ["1 + sin(2*t)/4", "sin(t)/2", "t^3 - t",
                               "1/(1 + t^2)", "exp(t)/(1 + t)", "1", "0"])
def test_vsignal_jets_match_single_normalize(s):
    v = VSignal.from_strings(s, "0")
    jets = v.jets(1, 4)
    assert len(jets) == 5
    for k, e in enumerate(jets):
        assert e == harness_reference.v_derivative(v, 1, k)


def test_simulate_grid_must_divide(chained4_real):
    z0 = chained4_real.chart.z_frame.point([0.0, 0.0, 0.0, 0.0])
    v = VSignal.from_strings("1", "0")
    with pytest.raises(ValueError, match="multiple"):
        simulate(chained4_real, z0, v, T=1.0, dt=0.3)


def test_simulate_chained_known_solution(chained4_real):
    z0 = chained4_real.chart.z_frame.point([0.0, 0.0, 0.0, 0.0])
    v = VSignal.from_strings("1", "sin(t)")
    traj = simulate(chained4_real, z0, v, T=1.0, dt=1e-3)
    assert abs(traj.z[-1, 3] - 1.0) < 1e-12
    assert abs(traj.z[-1, 2] - (1 - np.cos(1.0))) < 1e-8
    # identity chart: the x-route integrates the same vector field
    assert np.max(np.abs(traj.x - traj.z)) < 1e-12


def test_simulate_routes_agree_through_chart(example1_real):
    zf = example1_real.chart.z_frame
    v = VSignal.from_strings("1", "0")
    traj = simulate(example1_real, zf.point([0.1, 0.1, 0.0, 0.1]), v,
                    T=1.0, dt=1e-3)
    xs = example1_real.chart.x_frame.states
    xcols = [traj.x[:, j] for j in range(4)]
    fwd = np.column_stack(
        [np.broadcast_to(compile_fn(c, xs)(xcols), traj.t.shape)
         for c in example1_real.chart.forward])
    assert np.max(np.abs(fwd - traj.z)) < 1e-6


def test_simulate_stops_at_regularity_loss(example1_real):
    zf = example1_real.chart.z_frame
    v = VSignal.from_strings("cos(3*t)", "0")
    run = dict(z0=zf.point([0.1, 0.1, 0.0, 0.1]), v=v, T=1.0, dt=1e-3,
               reg_threshold=0.05)
    with pytest.raises(RegularityError) as exc:
        simulate(example1_real, **run)
    assert 0.4 < exc.value.t < 0.6
    assert exc.value.index in (1, 2)
    with pytest.raises(RegularityError) as ref:
        harness_reference.simulate(example1_real, **run)
    assert (exc.value.t, exc.value.index) == (ref.value.t, ref.value.index)


@pytest.fixture(scope="module")
def chained6_real():
    return realize(systems.chained(6))


@pytest.fixture(scope="module")
def chained8_real():
    return realize(systems.chained(8))


# chained4 with an acyclic drift that has a kernel and a division, and
# no power in its rows or regularity: both runs go column by column
KERNEL4_DRIFT = "x2*sin(x4)/exp(x4)"


@pytest.fixture(scope="module")
def kernel4_real():
    return _drift_real(KERNEL4_DRIFT)


REFERENCE_Z0 = {"example1": [0.1, 0.1, 0.0, 0.1], "motor": [0.2, 0.1, 0.05],
                "chained4": [0.1, 0.2, 0.3, 0.4],
                "chained6": [0.1, 0.2, 0.3, 0.4, -0.1, 0.2],
                "chained8": [0.1, 0.2, 0.3, 0.4, -0.1, 0.2, -0.3, 0.5],
                "kernel4": [0.1, 0.2, 0.3, 0.4]}


def _spy_paths(monkeypatch) -> list:
    """The column orders the dispatcher gives, one per closed-loop run
    from here on (None: the run is stepped)."""
    seen = []
    decide = harness._column_order

    def spy(*args):
        seen.append(decide(*args))
        return seen[-1]
    monkeypatch.setattr(harness, "_column_order", spy)
    return seen


def _force_loop(monkeypatch):
    monkeypatch.setattr(harness, "_column_order", lambda *args: None)


@pytest.mark.parametrize("name, column_wise", [
    ("chained4", True), ("example1", False), ("motor", False)])
def test_bundled_spec_integration_paths(monkeypatch, name, column_wise):
    # chained4's rows form a cascade; example1's z1' = z1*z4 + z2*v1 and
    # motor's rows read their own states
    spec = load_spec(str(SPEC_DIR / f"{name}.spec"))
    real = realize(spec, spec.chart_exprs)
    paths = _spy_paths(monkeypatch)
    simulate(real, real.chart.z_frame.point(REFERENCE_Z0[name]),
             VSignal.from_strings("1 + sin(2*t)/4", "sin(t)/2"),
             T=0.1, dt=1e-2)
    assert [p is not None for p in paths] == [column_wise] * 2


@pytest.mark.parametrize("name, steps", [
    *(pytest.param(name, 1000, id=name) for name in REFERENCE_Z0),
    # one block of _BLOCK steps, then a block with only the zero-length
    # step from the last node, or with one step before it
    *(pytest.param(name, steps, id=f"{name}-{steps}")
      for name in ("example1", "motor") for steps in (255, 256, 257))])
def test_simulate_matches_reference_stepping(request, name, steps):
    # the generated steps do the reference's float operations in its
    # order, so the runs agree bit for bit, not just closely
    real = request.getfixturevalue(f"{name}_real")
    v = VSignal.from_strings("1 + sin(2*t)/4", "sin(t)/2")
    z0 = real.chart.z_frame.point(REFERENCE_Z0[name])
    got = simulate(real, z0, v, T=1.0, dt=1 / steps)
    want = harness_reference.simulate(real, z0, v, T=1.0, dt=1 / steps)
    assert len(got.t) == steps + 1
    for f in ("t", "z", "x", "v", "u"):
        assert np.array_equal(getattr(got, f), getattr(want, f)), f
    assert got.meta == want.meta


# the default input of every bundled spec, a signal with each kernel,
# and one with powers, which numpy's array ** does not always round as
# Python's float ** does
STAGE_SIGNALS = [("1 + sin(2*t)/4", "sin(t)/2"),
                 ("exp(-t)*cos(3*t)", "sqrt(1 + t)*sin(t) - 1/(2 + t)"),
                 ("1 + t^3/2", "sin(t)^2 - t^2")]


@pytest.mark.parametrize("s1, s2", STAGE_SIGNALS)
def test_stage_values_match_scalar_evaluation(s1, s2):
    # v is evaluated outside the RK4 step, a block of steps at a time;
    # the step must get the floats it computed itself on one time: h,
    # then v at t_k, t_k + h/2 and t_k + h, and for the zero-length
    # step from the last node, h = 0
    v = VSignal.from_strings(s1, s2)
    t = _grid(1.0, 1e-4)
    grid = t.tolist()
    fns = [compile_fn(e, ("t",)) for e in (v.v1, v.v2)]
    want = []
    for k, tk in enumerate(grid):
        h = grid[k + 1] - tk if k + 1 < len(grid) else 0.0
        want.append([h] + [fn([s]) for s in (tk, tk + h / 2, tk + h)
                           for fn in fns])
    got = list(_stages(v, t))
    assert len(got) == len(grid)
    assert np.array_equal(np.array(got).view(np.uint64),
                          np.array(want).view(np.uint64))


def test_csv_inputs_are_the_integrated_inputs(tmp_path, chained4_real):
    # the v1/v2 columns hold v as the RK4 steps got it, on one float per
    # node; numpy's array ** would round some of these powers otherwise
    s1, s2 = "1 + t^2/4 - t^3/8 + t^5/7", "sin(t)^2/2 + t^3/3"
    v = VSignal.from_strings(s1, s2)
    z0 = chained4_real.chart.z_frame.point([0.1, 0.2, 0.3, 0.4])
    traj = simulate(chained4_real, z0, v, T=1.0, dt=1e-4)
    path = tmp_path / "run.csv"
    traj.to_csv(str(path))
    lines = path.read_text().splitlines()
    cols = lines[0].split(",")
    got = np.array([[float(row.split(",")[cols.index(c)]) for c in
                     ("v1", "v2")] for row in lines[1:]])
    fns = [compile_fn(e, ("t",)) for e in (v.v1, v.v2)]
    want = np.array([[fn([tk]) for fn in fns] for tk in traj.t.tolist()])
    assert got.shape == (10001, 2)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(traj.v.view(np.uint64), want.view(np.uint64))


def _drift_real(drift):
    """chained4 with the drift x1' = drift, in the identity chart: z = x,
    phi_1 = drift and r_1 = v1 + d(drift)/dx2."""
    base = systems.chained(4)
    fr = base.frame
    f = VectorField(fr, (parse(drift, fr),) + base.f.components[1:])
    spec = dataclasses.replace(base, f=f)
    return realize(spec, tuple(parse(s, fr) for s in fr.states))


def _same_failure(real, z0, v, **run):
    """simulate fails as the reference does: type, message, t, index."""
    z0 = real.chart.z_frame.point(z0)
    # the reference checks |r_i| outside numpy's errstate
    with pytest.raises(HarnessError) as ref, np.errstate(all="ignore"):
        harness_reference.simulate(real, z0, v, **run)
    with pytest.raises(HarnessError) as got:
        simulate(real, z0, v, **run)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)
    assert (getattr(got.value, "t", None), getattr(got.value, "index", None)) \
        == (getattr(ref.value, "t", None), getattr(ref.value, "index", None))
    return ref.value


@pytest.mark.parametrize("drift, z1", [("x1^2", 1.0), ("1/x1", 0.0)])
def test_simulate_finite_time_escape(drift, z1):
    # z1' = z1^2 + z2 escapes before t = 1; z1' = 1/z1 starts at a pole.
    # Python floats raise OverflowError and ZeroDivisionError on these
    # where numpy returns inf, and neither may leak out of simulate.
    exc = _same_failure(_drift_real(drift), [z1, 0.0, 0.0, 0.0],
                        VSignal.from_strings("1", "0"), T=2.0, dt=1e-2)
    assert str(exc).startswith("non-finite state at t = ")


_DYADIC = 2 ** -8  # RK4 steps z' = 1 and z' = 3 exactly with this dt

# z1' = exp(z1) escapes at t = 1 from z1 = 0 and the state is first
# non-finite at node 1001, with no exception on the way; while z2 = 0,
# |r_1| = |1 - z4|. Every failing node below is mid-block, and the
# last three runs put a regularity drop in the same block.
MID_BLOCK_FAILURES = {
    # k4 of the step from node 299 divides by z4 = 0 and y[300] is inf
    "zero-division": ("1/x4", [0, 0, 0, -300 * _DYADIC], _DYADIC, 1e-3,
                      HarnessError, 300),
    "regularity": ("exp(x1) - x2*x4", [-5, 0, 0, 0], 1e-3, 1e-3,
                   RegularityError, 1000),
    "non-finite": ("exp(x1) - x2*x4", [0, 0, 0, -5], 1e-3, 1e-3,
                   HarnessError, 1001),
    "regularity-before-non-finite": ("exp(x1) - x2*x4", [0, 0, 0, 0],
                                     1e-3, 3e-3, RegularityError, 998),
    # |r_1| at node 1000 is checked before y[1001], from the same step
    "regularity-at-the-step-to-non-finite": (
        "exp(x1) - x2*x4", [0, 0, 0, 0], 1e-3, 5e-4, RegularityError, 1000),
    # y[1001] is checked before |r_1| at node 1001
    "non-finite-before-regularity": (
        "exp(x1) - x2*x4", [0, 0, 0, -1e-3], 1e-3, 5e-4, HarnessError, 1001),
}


@pytest.mark.parametrize("name", ["chained8", "kernel4"])
@pytest.mark.parametrize("steps", [_COLUMN_BLOCK - 1, _COLUMN_BLOCK,
                                   _COLUMN_BLOCK + 1])
def test_column_runs_match_reference_and_loop(request, monkeypatch, name,
                                              steps):
    # one column block, then a block with only the zero-length step
    # from the last node, or with one step before it
    real = request.getfixturevalue(f"{name}_real")
    v = VSignal.from_strings("1 + sin(2*t)/4", "sin(t)/2")
    z0 = real.chart.z_frame.point(REFERENCE_Z0[name])
    paths = _spy_paths(monkeypatch)
    got = simulate(real, z0, v, T=1.0, dt=1 / steps)
    assert [p is not None for p in paths] == [True, True]
    want = harness_reference.simulate(real, z0, v, T=1.0, dt=1 / steps)
    _force_loop(monkeypatch)
    loop = simulate(real, z0, v, T=1.0, dt=1 / steps)
    assert len(got.t) == steps + 1
    for f in ("t", "z", "x", "v", "u"):
        assert np.array_equal(getattr(got, f), getattr(want, f)), f
        assert np.array_equal(getattr(got, f), getattr(loop, f)), f
    assert got.meta == want.meta == loop.meta


@pytest.mark.parametrize("case", MID_BLOCK_FAILURES)
def test_simulate_mid_block_failure_matches_reference(case):
    drift, z0, dt, threshold, kind, node = MID_BLOCK_FAILURES[case]
    exc = _same_failure(_drift_real(drift), z0,
                        VSignal.from_strings("1", "0"), T=2.0, dt=dt,
                        reg_threshold=threshold)
    t = _grid(2.0, dt)
    assert type(exc) is kind
    if kind is RegularityError:
        assert exc.t == t[node]
    else:
        assert str(exc) == f"non-finite state at t = {t[node]:.6g}"
        node -= 1  # made by the step from the node before
    assert node % _BLOCK != 0


# Failures of runs integrated column by column, with v = (1, 0) and
# dt = _DYADIC, so z4 = z4(0) + t exactly. The first and the last are
# in the second column block.
ACYCLIC_FAILURES = {
    # r_1 = v1 + z4 = (k - 4500) dt at node k
    "regularity": ("x2*x4", [0, 0, 0, -1 - 4500 * _DYADIC], 20.0,
                   RegularityError, 4500),
    # the step from node 4296 is the first to take exp past 709.78, at
    # its second stage, z4 = 693 + 4296.5 dt, and y[4297] is inf; the
    # 1/8 keeps the sum of the k's finite until then
    "non-finite-exp": ("exp(x4)/8", [0, 0, 0, 693], 20.0, HarnessError,
                       4297),
    # k4 of the step from node 299 is sin(0)/0: on floats it raises, the
    # loop reruns the step on numpy scalars, and y[300] is nan
    "zero-over-zero": ("sin(x4)/x4", [0, 0, 0, -300 * _DYADIC], 2.0,
                       HarnessError, 300),
}


@pytest.mark.parametrize("case", ACYCLIC_FAILURES)
def test_column_run_failure_matches_reference_and_loop(monkeypatch, case):
    drift, z0, T, kind, node = ACYCLIC_FAILURES[case]
    real = _drift_real(drift)
    v = VSignal.from_strings("1", "0")
    paths = _spy_paths(monkeypatch)
    exc = _same_failure(real, z0, v, T=T, dt=_DYADIC)
    assert paths[0] is not None  # the z-run, which failed
    t = _grid(T, _DYADIC)
    assert type(exc) is kind
    if kind is RegularityError:
        assert exc.t == t[node]
    else:
        assert str(exc) == f"non-finite state at t = {t[node]:.6g}"
    _force_loop(monkeypatch)
    _same_failure(real, z0, v, T=T, dt=_DYADIC)


def test_simulate_zero_division_mid_block_goes_on():
    # phi_1 = |z2|, so r_1 = v1 + z2/sqrt(z2^2) is 0/0 where z2 = 0, at
    # node 300 only. That step is rerun on numpy scalars, r_1 = nan is
    # not a drop, and the run goes on as the reference's does.
    real = _drift_real("sqrt(x2^2)")
    z0 = real.chart.z_frame.point([0.0, -900 * _DYADIC, 1.0, 0.0])
    v = VSignal.from_strings("3", "0")
    got = simulate(real, z0, v, T=2.0, dt=_DYADIC)
    with np.errstate(all="ignore"):
        want = harness_reference.simulate(real, z0, v, T=2.0, dt=_DYADIC)
    assert np.flatnonzero(got.z[:, 1] == 0).tolist() == [300]
    for f in ("t", "z", "x", "v", "u"):
        assert np.array_equal(getattr(got, f), getattr(want, f)), f
    assert got.meta == want.meta


def test_simulate_needs_symbolic_route(example1_spec, example1_real):
    chart = example1_real.chart
    blind = dataclasses.replace(chart, inverse=None)
    real = extract_triangular(example1_spec, blind, example1_real.feedback)
    v = VSignal.from_strings("1", "0")
    with pytest.raises(HarnessError, match="drift rows"):
        simulate(real, blind.z_frame.point([0.1, 0.1, 0.0, 0.1]), v,
                 T=0.1, dt=1e-2)


def test_simulate_motor_requires_param_values(motor_real):
    bare = dataclasses.replace(motor_real, system=systems.motor({}))
    z0 = motor_real.chart.z_frame.point([0.1, 0.1, 0.1])
    with pytest.raises(HarnessError, match="unbound parameters"):
        simulate(bare, z0, VSignal.from_strings("1", "0"),
                 T=0.1, dt=1e-2)


def test_trajectory_csv_round_trip(tmp_path, chained4_real):
    z0 = chained4_real.chart.z_frame.point([0.1, 0.2, 0.3, 0.4])
    v = VSignal.from_strings("1", "sin(t)")
    traj = simulate(chained4_real, z0, v, T=0.1, dt=1e-2)
    path = tmp_path / "run.csv"
    traj.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,z1,z2,z3,z4,x1,x2,x3,x4,v1,v2,u1,u2"
    assert len(lines) == len(traj.t) + 1
    last = [float(s) for s in lines[-1].split(",")]
    assert last[0] == traj.t[-1]
    assert np.allclose(last[1:5], traj.z[-1])



def test_trajectory_csv_bytes_match_csv_writer(tmp_path, motor_real):
    z0 = motor_real.chart.z_frame.point([0.2, 0.1, 0.05])
    v = VSignal.from_strings("1 + sin(2*t)/4", "sin(t)/2")
    runs = [simulate(motor_real, z0, v, T=0.5, dt=1e-2)]
    # formatting corner cases: signed zero, non-finite values, extremes
    # and an integer-valued input column
    odd = np.array([[-0.0, np.nan, np.inf],
                    [-np.inf, 1e-310, 1.7976931348623157e308],
                    [1 / 3, -2.5e-17, 12345678.9]])
    runs.append(Trajectory(t=np.array([0.0, 0.5, 1.0]), z=odd, x=-odd,
                           v=np.array([[1, 0], [2, -3], [0, 7]]),
                           u=odd[:, :2]))
    # nine columns: two full blocks of rows and a ragged one, with
    # cells of every exponent from 1e-9 to 1e20 and of both signs
    rng = np.random.default_rng(0)
    rows = 2 * (_CSV_CELLS // 9) + 3
    scale = 10.0 ** rng.integers(-9, 21, size=(rows, 2))
    runs.append(Trajectory(t=np.linspace(0.0, 1.0, rows),
                           z=rng.normal(size=(rows, 2)),
                           x=rng.normal(size=(rows, 2)) * 1e9,
                           v=rng.normal(size=(rows, 2)) * scale,
                           u=rng.normal(size=(rows, 2)) * 1e-9))
    # the edge cells (an even number), two per row, over two blocks
    edges = _csv_edge_cells()
    rows = len(edges) // 2
    runs.append(Trajectory(t=np.arange(rows), z=edges.reshape(rows, 2),
                           x=-edges.reshape(rows, 2)[::-1],
                           v=np.zeros((rows, 2)), u=np.ones((rows, 2))))
    for k, traj in enumerate(runs):
        path, ref = tmp_path / f"run{k}.csv", tmp_path / f"ref{k}.csv"
        traj.to_csv(str(path))
        harness_reference.write_csv(traj, str(ref))
        assert path.read_bytes() == ref.read_bytes()


def _csv_edge_cells() -> np.ndarray:
    """Cells where a decimal formatter can go wrong: signed zeros,
    non-finite values, subnormals and the ends of the doubles, powers
    of ten with their neighbours, 17-digit ties, and the ends of the
    range laid out in numpy."""
    cells = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
             2.2250738585072014e-308, 1.7976931348623157e308]
    for k in range(-10, 23):
        p = float(f"1e{k}")
        cells += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    # k + 1/4 and k + 3/4 for k in [2^50, 2^51): their 17th digit is a
    # tie (10k + 2.5, 10k + 7.5), which rounds to even
    k = np.random.default_rng(3).integers(2 ** 50, 2 ** 51, size=200)
    cells += (k + 0.25).tolist() + (k + 0.75).tolist()
    cells += [2.0 ** 50 + 0.25, 2.0 ** 51 - 0.25]
    below = np.nextafter(1e-4, 0.0)
    cells += [below, np.nextafter(below, 0.0), 9.9999999999999995e-5,
              1e17 - 16, 1e17 - 32, 99999999999999992.0,
              9.9999999999999999e16, 1.0000000000000001e17]
    cells = np.array(cells)
    return np.concatenate([cells, -cells])


def _percent_rows(block: np.ndarray) -> bytes:
    """The rows '%.17g' writes for a 2-D block, one conversion per
    cell of float(cell)."""
    rows, cols = block.shape
    line = ",".join(["%.17g"] * cols) + "\r\n"
    cells = tuple(map(float, block.ravel().tolist()))
    return (line * rows % cells).encode("ascii")


@pytest.mark.parametrize("cols", [1, 3, 13])
def test_csv_rows_write_the_edge_cells_as_percent_g(cols):
    cells = _csv_edge_cells()
    cells = cells[:len(cells) // cols * cols].reshape(-1, cols)
    assert _csv_rows(cells) == _percent_rows(cells)
    # an integer-dtype block is written as its floats
    ints = np.array([[0, -1, 7], [2 ** 53 + 1, -(2 ** 62), 10 ** 17]])
    assert _csv_rows(ints) == _percent_rows(ints)


@given(st.lists(st.floats(), min_size=1, max_size=40))
@settings(max_examples=500, deadline=None)
def test_csv_rows_match_percent_g(cells):
    block = np.array([cells])
    assert _csv_rows(block) == _percent_rows(block)


def test_csv_rows_match_percent_g_in_bulk():
    # 1M seeded doubles: random bit patterns (every exponent) and
    # normals scaled across the range laid out in numpy
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 64, size=500_000, dtype=np.uint64)
    scaled = (rng.normal(size=500_000)
              * 10.0 ** rng.integers(-6, 19, size=500_000))
    cells = np.concatenate([bits.view(np.float64), scaled])
    for block in np.split(cells.reshape(-1, 16), 250):
        assert _csv_rows(block) == _percent_rows(block)


def test_flat_signal_matches_trajectory(chained4_real, example1_real):
    # the jets' order 0 is the run's z, and dz_n/dt is the v1 the run
    # was integrated with, bit for bit; the normal form of 1 + t/3,
    # (1/3)*t + 1, rounds differently at some grid points
    for real, z0, v1 in ((chained4_real, [0.1, 0.2, 0.3, 0.4],
                          "1 + sin(2*t)/4"),
                         (example1_real, [0.1, 0.1, 0.0, 0.1], "1 + t/3")):
        v = VSignal.from_strings(v1, "sin(t)/2")
        traj = simulate(real, real.chart.z_frame.point(z0), v, T=1.0,
                        dt=1e-3)
        flat = FlatSignal.from_trajectory(real, traj, v)
        assert np.array_equal(flat.y1_jets[:, 0], traj.z[:, 0])
        assert np.array_equal(flat.y2_jets[:, 0], traj.z[:, 3])
        assert np.array_equal(flat.y2_jets[:, 1], traj.v[:, 0])
        assert np.array_equal(reconstruct(real, flat).v[:, 0], traj.v[:, 0])


@pytest.mark.parametrize("name, v1, v2", [
    ("example1", "1 + sin(2*t)/4", "sin(t)/2"),
    ("chained4", "1 + sin(2*t)/4", "sin(t)/2"),
    ("chained6", "1 + sin(2*t)/4", "sin(t)/2"),
    # integer jets: v1^2 exceeds int64, so the jets must be floats
    ("chained4", "4000000000", "0")])
def test_flat_signal_matches_reference_jets(request, name, v1, v2):
    real = request.getfixturevalue(f"{name}_real")
    z0 = real.chart.z_frame.point(REFERENCE_Z0[name])
    v = VSignal.from_strings(v1, v2)
    traj = simulate(real, z0, v, T=0.5, dt=1e-2)
    got = FlatSignal.from_trajectory(real, traj, v)
    want = harness_reference.flat_signal(real, traj, v)
    for f in ("t", "y1_jets", "y2_jets"):
        assert np.array_equal(getattr(got, f), getattr(want, f)), f


def test_newton_grid_falls_back_to_bisection():
    # Newton from 0 on w^3 - 2w + 2 cycles 0 -> 1 -> 0, so the root
    # comes from the bisection on an expanding bracket
    F = lambda cols: cols[0] ** 3 - 2 * cols[0] + 2
    dF = lambda cols: 3 * cols[0] ** 2 - 2
    w = _newton_grid(F, dF, [], 1, 1, np.array([0.0]))
    assert w[0] == pytest.approx(-1.7692923542386314, abs=1e-12)
    assert abs(F([w])[0]) < 1e-9


def _round_trip(real, z0_coords, v, T=1.0, dt=1e-2):
    z0 = real.chart.z_frame.point(z0_coords)
    traj = simulate(real, z0, v, T=T, dt=dt)
    flat = FlatSignal.from_trajectory(real, traj, v)
    back = reconstruct(real, flat)
    return traj, back


def test_reconstruct_round_trip_same_run(chained4_real, example1_real):
    v = VSignal.from_strings("1 + sin(2*t)/4", "sin(t)/2")
    for real, z0 in ((chained4_real, [0.1, 0.2, 0.3, 0.4]),
                     (example1_real, [0.1, 0.1, 0.0, 0.1])):
        traj, back = _round_trip(real, z0, v)
        for a, b in ((traj.z, back.z), (traj.x, back.x),
                     (traj.v, back.v), (traj.u, back.u)):
            assert np.max(np.abs(a - b)) < 1e-9


def test_reconstruct_compiles_each_function_once(chained6_real,
                                                 monkeypatch):
    from flatcheck import symx
    v = VSignal.from_strings("1 + sin(2*t)/4", "sin(t)/2")
    z0 = chained6_real.chart.z_frame.point(REFERENCE_Z0["chained6"])
    traj = simulate(chained6_real, z0, v, T=0.1, dt=1e-2)
    flat = FlatSignal.from_trajectory(chained6_real, traj, v)
    sources = []

    def counting_exec(src, scope):
        sources.append(src)
        exec(src, scope)  # noqa: S102
    monkeypatch.setattr(symx, "exec", counting_exec, raising=False)
    back = reconstruct(chained6_real, flat)
    # a constant coefficient recurs across levels and orders
    assert len(sources) == len(set(sources))
    assert np.max(np.abs(back.z - traj.z)) < 1e-9


def test_reconstruct_requires_full_stacks(chained4_real):
    t = np.linspace(0.0, 1.0, 11)
    shallow = FlatSignal(t=t, y1_jets=np.zeros((11, 2)),
                         y2_jets=np.zeros((11, 2)))
    with pytest.raises(HarnessError, match="order 3"):
        reconstruct(chained4_real, shallow)


def test_reconstruct_root_finder_failure(chained4_real):
    t = np.linspace(0.0, 1.0, 11)
    y1 = np.column_stack([t, np.ones(11), np.zeros(11), np.zeros(11)])
    y2 = np.zeros((11, 4))
    flat = FlatSignal(t=t, y1_jets=y1, y2_jets=y2)
    with pytest.raises(HarnessError, match="no sign change"):
        reconstruct(chained4_real, flat)


def test_reconstruct_regularity_guard(chained4_real):
    t = np.linspace(0.0, 1.0, 11)
    eps = 1e-4
    ramp = np.column_stack([eps * t, np.full(11, eps),
                            np.zeros(11), np.zeros(11)])
    flat = FlatSignal(t=t, y1_jets=ramp, y2_jets=ramp.copy())
    with pytest.raises(RegularityError) as exc:
        reconstruct(chained4_real, flat)
    assert exc.value.index == 1


COLLISION_SPEC = """\
n = 4
states = x1 x2 x3 x4
params = {p}
param_values = {p}=0.5
f = {p}*x1*x4, 0, 0, 0
g1 = x2, x3, 0, 1
g2 = 0, 0, 1, 0
box = -1 1, -1 1, -1 1, -1 1
z0 = 0.1, 0.2, 0.3, 0.4
v1 = 1 + sin(2*t)/4
v2 = sin(t)/2
"""


def test_reconstruct_names_meet_no_parameter(tmp_path):
    # a parameter spelled like reconstruct's unknown ("w") or like a jet
    # of reconstruct or from_trajectory ("v1_d0", "z1_d0") is neither
    # merged with nor shadowed by it; "k" is the plain case
    for p in ("w", "v1_d0", "z1_d0", "k"):
        spec, report = tmp_path / f"{p}.spec", tmp_path / f"{p}.json"
        spec.write_text(COLLISION_SPEC.format(p=p))
        assert main(["verify", str(spec), "--json", str(report)]) == 0, p
        rt = json.loads(report.read_text())["verification"]["round_trip"]
        assert rt["pass"] and rt["max_rel_overall"] < 1e-12, (p, rt)
