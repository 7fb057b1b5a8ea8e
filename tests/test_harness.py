import dataclasses

import numpy as np
import pytest

from flatcheck.symx import Frame, compile_fn, normalize, parse
from flatcheck.diffgeo import VectorField, lie_bracket
from flatcheck.harness import (FlatSignal, HarnessError, RegularityError,
                               SampleBox, T_FRAME, Trajectory, VSignal,
                               fd_bracket, reconstruct, simulate)
from flatcheck.triangular import extract_triangular
from flatcheck.chained import Chart

import harness_reference
import systems
from conftest import realize


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
    ex_vals = np.array([eval_at(c, q) for c in exact.components])
    errs = [np.max(np.abs(fd_bracket(X, Y, q, h=h) - ex_vals))
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


def test_sample_box_deterministic_and_rejecting():
    fr = Frame("x", ("x1", "x2"), ())
    box = SampleBox(bounds=((-1.0, 1.0), (0.0, 2.0)), count=20, seed=3)
    a = box.points(fr)
    b = box.points(fr)
    assert [p.coords for p in a] == [p.coords for p in b]
    assert len(a) == 20
    assert all(-1 <= p.coords[0] <= 1 and 0 <= p.coords[1] <= 2 for p in a)
    other = SampleBox(bounds=box.bounds, count=20, seed=4).points(fr)
    assert [p.coords for p in other] != [p.coords for p in a]


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
    d1 = compile_fn(v.derivative(1, 1), ("t",))([ts])
    assert np.allclose(d1, 2 * np.cos(2 * ts), atol=1e-12)
    d2 = compile_fn(v.derivative(2, 2), ("t",))([ts])
    assert np.allclose(np.broadcast_to(d2, ts.shape), 2.0)
    vals = VSignal.from_strings("1", "t").values(ts)
    assert vals.shape == (50, 2)
    assert np.allclose(vals[:, 0], 1.0) and np.allclose(vals[:, 1], ts)


@pytest.mark.parametrize("which, closed_form", [
    (1, "1024*sin(2*t)"), (2, "sin(t)/2")])
def test_vsignal_high_order_derivative(which, closed_form):
    # raw diff trees grow about tenfold per order, so order 12 is only
    # reachable when every step is normalized
    v = VSignal.from_strings("1 + sin(2*t)/4", "sin(t)/2")
    got = v.derivative(which, 12)
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


REFERENCE_Z0 = {"example1": [0.1, 0.1, 0.0, 0.1], "motor": [0.2, 0.1, 0.05],
                "chained4": [0.1, 0.2, 0.3, 0.4],
                "chained6": [0.1, 0.2, 0.3, 0.4, -0.1, 0.2]}


@pytest.mark.parametrize("name", REFERENCE_Z0)
def test_simulate_matches_reference_stepping(request, name):
    # the generated steps do the reference's float operations in its
    # order, so the runs agree bit for bit, not just closely
    real = request.getfixturevalue(f"{name}_real")
    v = VSignal.from_strings("1 + sin(2*t)/4", "sin(t)/2")
    z0 = real.chart.z_frame.point(REFERENCE_Z0[name])
    got = simulate(real, z0, v, T=1.0, dt=1e-3)
    want = harness_reference.simulate(real, z0, v, T=1.0, dt=1e-3)
    for f in ("t", "z", "x", "v", "u"):
        assert np.array_equal(getattr(got, f), getattr(want, f)), f
    assert got.meta == want.meta


@pytest.mark.parametrize("drift, z1", [("x1^2", 1.0), ("1/x1", 0.0)])
def test_simulate_finite_time_escape(drift, z1):
    # z1' = z1^2 + z2 escapes before t = 1; z1' = 1/z1 starts at a pole.
    # Python floats raise OverflowError and ZeroDivisionError on these
    # where numpy returns inf, and neither may leak out of simulate.
    base = systems.chained(4)
    fr = base.frame
    f = VectorField(fr, (parse(drift, fr),) + base.f.components[1:])
    spec = dataclasses.replace(base, f=f)
    real = realize(spec, tuple(parse(s, fr) for s in fr.states))
    z0 = real.chart.z_frame.point([z1, 0.0, 0.0, 0.0])
    v = VSignal.from_strings("1", "0")
    with pytest.raises(HarnessError, match="non-finite state at t = "):
        simulate(real, z0, v, T=2.0, dt=1e-2)


def test_simulate_needs_symbolic_route(example1_spec, example1_real):
    chart = example1_real.chart
    blind = Chart(name=chart.name, x_frame=chart.x_frame,
                  z_frame=chart.z_frame, forward=chart.forward,
                  inverse=None, jacobian_dets=chart.jacobian_dets)
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

    bare = Trajectory(t=traj.t, z=traj.z, x=None, v=traj.v, u=None)
    with pytest.raises(HarnessError, match="lacks x/u"):
        bare.to_csv(str(tmp_path / "bare.csv"))



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
    for k, traj in enumerate(runs):
        path, ref = tmp_path / f"run{k}.csv", tmp_path / f"ref{k}.csv"
        traj.to_csv(str(path))
        harness_reference.write_csv(traj, str(ref))
        assert path.read_bytes() == ref.read_bytes()


def test_flat_signal_matches_trajectory(chained4_real):
    z0 = chained4_real.chart.z_frame.point([0.1, 0.2, 0.3, 0.4])
    v = VSignal.from_strings("1 + sin(2*t)/4", "sin(t)/2")
    traj = simulate(chained4_real, z0, v, T=1.0, dt=1e-2)
    flat = FlatSignal.from_trajectory(chained4_real, traj, v)
    assert np.allclose(flat.y1_jets[:, 0], traj.z[:, 0], atol=1e-12)
    assert np.allclose(flat.y2_jets[:, 0], traj.z[:, 3], atol=1e-12)
    # dz4/dt = v1 exactly
    assert np.allclose(flat.y2_jets[:, 1], traj.v[:, 0], atol=1e-12)


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


def test_flat_signal_from_samples_spline():
    t = np.linspace(0.0, 1.0, 201)
    flat = FlatSignal.from_samples(t, np.sin(t), np.cos(t), depth=3)
    mid = (t > 0.2) & (t < 0.8)
    refs = [np.sin(t), np.cos(t), -np.sin(t), -np.cos(t)]
    for m, ref in enumerate(refs):
        err = np.max(np.abs(flat.y1_jets[mid, m] - ref[mid]))
        assert err < (1e-6 if m < 2 else 1e-2)


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
