"""Platform guard for the stacked linear algebra of flags and cauchy.

Both flatness conditions run one numpy.linalg call over a stack of
points where a per-point loop would run one call per point, and the
reports must not change by a bit. That holds only while numpy's
stacked svd and matmul give each matrix exactly what the call on that
matrix alone gives, also for the reduced SVD of the wide generator
stacks in cauchy, and while the reduced SVD that cauchy uses for
stacks of at least n rows gives the full SVD's s and Vt. The stacked
pinv, which cauchy used for its projectors before it took them from
the SVDs, is still checked the same way.
Should a numpy or LAPACK build break this, these tests fail instead
of reports drifting silently.
"""

import numpy as np
import pytest

# (points, rows, n): generator rows of F_k/G_k and lam, the stacked
# [lam; P dlam^T] of cauchy_space up to n = 8 (5 + 5*8 = 45 rows), the
# A and C bases, and the Q pool plus a candidate at the five reference
# points of compute_flags.
SHAPES = [(100, 2, 4), (100, 9, 6), (100, 42, 8), (40, 3, 6), (100, 1, 8),
          (100, 5, 8), (100, 45, 8), (100, 27, 6), (100, 2, 8), (100, 7, 8),
          (5, 3, 4), (5, 7, 8)]


def _stack(shape, seed):
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(shape)
    # rank-deficient members, as flags and cauchy see them
    out[::3, -1] = out[::3, 0] * 0.5
    return out


@pytest.mark.parametrize("shape", SHAPES)
def test_stacked_svd_matches_per_matrix(shape):
    stack = _stack(shape, 1)
    s_only = np.linalg.svd(stack, compute_uv=False)
    u, s, vt = np.linalg.svd(stack)
    for p, mat in enumerate(stack):
        assert np.array_equal(s_only[p], np.linalg.svd(mat, compute_uv=False))
        u1, s1, vt1 = np.linalg.svd(mat)
        assert np.array_equal(u[p], u1)
        assert np.array_equal(s[p], s1)
        assert np.array_equal(vt[p], vt1)


# [lam; P dlam^T] of cauchy_space for m = 1..n-3 generators, n = 4..8
LAM_SHAPES = [(100, m * (n + 1), n) for n in range(4, 9)
              for m in range(1, n - 2)]


# the generator values lam of cauchy_space: m = 1..n-3 rows, n = 4..8
OMEGA_SHAPES = [(p, m, n) for n in range(4, 9) for m in range(1, n - 2)
                for p in (5, 100)]


@pytest.mark.parametrize("shape", sorted(
    {s for s in SHAPES if s[1] < s[2]} | set(OMEGA_SHAPES)))
def test_stacked_reduced_svd_of_wide_stacks_matches_per_matrix(shape):
    stack = _stack(shape, 5)
    u, s, vt = np.linalg.svd(stack, full_matrices=False)
    assert vt.shape == shape
    for p, mat in enumerate(stack):
        u1, s1, vt1 = np.linalg.svd(mat, full_matrices=False)
        assert np.array_equal(u[p], u1)
        assert np.array_equal(s[p], s1)
        assert np.array_equal(vt[p], vt1)


@pytest.mark.parametrize("shape", sorted(
    {s for s in SHAPES if s[1] >= s[2]} | set(LAM_SHAPES)))
def test_reduced_svd_matches_full_svd(shape):
    # cauchy's nullspaces of stacks with at least n rows use the
    # reduced SVD, whose Vt is then the whole n x n Vt
    stack = _stack(shape, 4)
    _, s_full, vt_full = np.linalg.svd(stack)
    _, s, vt = np.linalg.svd(stack, full_matrices=False)
    assert np.array_equal(s, s_full)
    assert np.array_equal(vt, vt_full)


@pytest.mark.parametrize("shape", SHAPES)
def test_stacked_pinv_and_matmul_match_per_matrix(shape):
    # transposed like omega.T and c_basis.T in the earlier cauchy
    stack = _stack(shape, 2).swapaxes(1, 2)
    pinv = np.linalg.pinv(stack)
    proj = stack @ pinv
    n = stack.shape[1]
    sq = _stack((len(stack), 3, n, n), 3)
    moved = proj[:, None] @ sq.swapaxes(2, 3)
    for p, mat in enumerate(stack):
        assert np.array_equal(pinv[p], np.linalg.pinv(mat))
        assert np.array_equal(proj[p], mat @ np.linalg.pinv(mat))
        for i in range(3):
            assert np.array_equal(moved[p, i], proj[p] @ sq[p, i].T)


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_residual_matmul_matches_per_vector(n):
    # the (forms, points, 1, n) values against the (points, n, n)
    # zero-padded C bases of cauchy's numeric residuals
    v = _stack((3, 40, n), 6)
    c = _stack((40, n, n), 7)
    c[::4, n // 2:] = 0.0
    coef = v[:, :, None] @ c.swapaxes(1, 2)
    back = coef @ c
    for g in range(3):
        for p in range(40):
            assert np.array_equal(coef[g, p, 0], v[g, p] @ c[p].T)
            assert np.array_equal(back[g, p, 0], coef[g, p, 0] @ c[p])
