import numpy as np
import pytest

import flatcheck.cauchy
import flatcheck.diffgeo
from flatcheck.symx import eval_at
from flatcheck.cauchy import (AnnihilatorError, CharacteristicSpaces,
                              _nullspace_numeric, annihilator, cauchy_space,
                              check_condition2, span_residual)
from flatcheck.diffgeo import exterior_derivative_1form
from flatcheck.flags import _rank, compute_flags

import systems


def _points(spec, count, seed=9):
    rng = np.random.default_rng(seed)
    params = spec.bound_params(seed)
    return [spec.frame.point(
        [float(rng.uniform(lo, hi)) for lo, hi in spec.sample_box()], params)
        for _ in range(count)]


def _reference_cauchy_space(cod, q, tol=1e-8):
    """cauchy_space with d(lam) rebuilt from the generators at each
    point, the way it was computed before the codistribution carried
    its differentials."""
    n = cod.frame.n
    omega = np.array([w.values(q) for w in cod.generators])
    assert _rank(omega, tol) == omega.shape[0]
    proj = np.eye(n) - omega.T @ np.linalg.pinv(omega.T)
    blocks = [omega]
    for w in cod.generators:
        dw = exterior_derivative_1form(w)
        dmat = np.zeros((n, n))
        for (i, j), c in dw.coefficients.items():
            val = eval_at(c, q)
            dmat[i, j] = val
            dmat[j, i] = -val
        blocks.append(proj @ dmat.T)
    a_basis = _nullspace_numeric(np.vstack(blocks), n, tol)
    c_basis = _nullspace_numeric(a_basis, n, tol)
    return CharacteristicSpaces(a_basis, c_basis)


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
        cod = annihilator(table, k, pts[:3])
        assert len(cod.generators) == spec.n - 2 - k
        for q in pts:
            for w in cod.generators:
                wv = np.array([eval_at(c, q) for c in w.coefficients])
                for _, vf in table.levels[k].g_generators:
                    assert abs(wv @ vf.values(q)) < 1e-9


def test_annihilator_ranks_with_the_table_tolerance(monkeypatch):
    spec = systems.chained(5)
    table = compute_flags(spec, rank_tol=1e-6)
    tols = []

    def spy(mat, tol):
        tols.append(tol)
        return _rank(mat, tol)

    monkeypatch.setattr(flatcheck.cauchy, "_rank", spy)
    annihilator(table, 1, _points(spec, 3))
    assert tols == [1e-6] * 3


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
        cod = annihilator(table, k, pts[:3])
        # C should be spanned by the first n-1-k coordinate covectors
        # plus the last one
        keep = list(range(n - 1 - k)) + [n - 1]
        for q in pts:
            sp = cauchy_space(cod, q)
            assert sp.dim_a == k
            assert sp.dim_c == n - k
            for i in keep:
                e = np.zeros(n)
                e[i] = 1.0
                assert span_residual(e, sp.c_basis) <= 1e-10


@pytest.mark.parametrize("name", ["example1", "chained6"])
def test_cauchy_space_matches_reference(name, example1_spec):
    spec = example1_spec if name == "example1" else systems.chained(6)
    table = compute_flags(spec)
    pts = _points(spec, 12)
    for k in range(1, spec.n - 2):
        cod = annihilator(table, k, pts[:5])
        assert cod.differentials == tuple(
            exterior_derivative_1form(w) for w in cod.generators)
        for q in pts:
            got = cauchy_space(cod, q)
            want = _reference_cauchy_space(cod, q)
            assert np.array_equal(got.a_basis, want.a_basis)
            assert np.array_equal(got.c_basis, want.c_basis)


def test_cauchy_space_reuses_the_differentials(monkeypatch):
    spec = systems.chained(5)
    table = compute_flags(spec)
    pts = _points(spec, 4)
    cods = [annihilator(table, k, pts[:3]) for k in range(1, spec.n - 2)]
    calls = []

    def counting(w):
        calls.append(w)
        return exterior_derivative_1form(w)

    monkeypatch.setattr(flatcheck.cauchy, "exterior_derivative_1form",
                        counting)
    monkeypatch.setattr(flatcheck.diffgeo, "exterior_derivative_1form",
                        counting)
    for cod in cods:
        for q in pts:
            cauchy_space(cod, q)
    assert calls == []
    # the counter does see annihilator build them, one per generator
    cod = annihilator(table, 1, pts[:3])
    assert len(calls) == len(cod.generators) == spec.n - 3


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


@pytest.mark.parametrize("name", ["example1", "chained6"])
def test_condition2_builds_each_differential_once(monkeypatch, name):
    spec = systems.example1() if name == "example1" else systems.chained(6)
    table = compute_flags(spec)
    pts = _points(spec, 6)
    want = check_condition2(spec, table, pts)
    calls = []

    def counting(w):
        calls.append(w)
        return exterior_derivative_1form(w)

    monkeypatch.setattr(flatcheck.cauchy, "exterior_derivative_1form",
                        counting)
    monkeypatch.setattr(flatcheck.diffgeo, "exterior_derivative_1form",
                        counting)
    assert check_condition2(spec, table, pts) == want
    # one d(lam) per annihilator generator, over all levels
    assert len(calls) == sum(spec.n - 2 - k for k in range(1, spec.n - 2))
