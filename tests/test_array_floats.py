"""Platform guard for the column-wise closed-loop integration of harness.

A closed-loop run whose rows read each other without a cycle is
integrated a block of grid rows at a time on numpy arrays, where the
step loop takes one RK4 step at a time on floats, and trajectories,
reports and CSVs must not change by a bit. That holds only while
np.add.accumulate over float64 adds in sequence, as the loop's running
y + increment does; while numpy's sin, cos, exp and sqrt give an array
the bits they give each float on its own, on the arrays the
integration makes (the stage values of v rely on this too); and while
+ - * / on arrays give what numpy scalars give, inf and nan included,
as the loop's rerun of a step that divided by zero on floats does.
Should a numpy build break this, these tests fail instead of
trajectories drifting silently.
"""

import numpy as np
import pytest

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
           1.7976931348623157e308, -1e-300, 1.0, -1.0]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _mixed(size, seed, special=True):
    """Normals spread over magnitudes 1e-20..1e20, with the special
    values scattered among them."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 21, size)
    if special:
        at = rng.choice(size, size=min(size, 3 * len(SPECIAL)), replace=False)
        out[at] = np.resize(SPECIAL, len(at))
    return out


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 64, 257, 4097])
@pytest.mark.parametrize("special", [False, True])
def test_accumulate_is_the_sequential_sum(size, special):
    # the first entry plays the state carried into a block, the others
    # the increments of the steps
    for seed in range(5):
        x = _mixed(size, seed, special)
        want, acc = [], None
        for v in x.tolist():
            acc = v if acc is None else acc + v
            want.append(acc)
        with np.errstate(all="ignore"):
            got = np.add.accumulate(x)
        assert np.array_equal(_bits(got), _bits(want))


def test_accumulate_keeps_signed_zeros_and_non_finite_values():
    x = np.array([-0.0, -0.0, 0.0, -0.0, 1e308, 1e308, -np.inf, 1.0,
                  np.nan, 2.0])
    with np.errstate(all="ignore"):
        got = np.add.accumulate(x)
    want, acc = [], None
    for v in x.tolist():
        acc = v if acc is None else acc + v
        want.append(acc)
    assert np.array_equal(_bits(got), _bits(want))
    assert np.signbit(got[1]) and not np.signbit(got[2])


def _kernel_inputs():
    rng = np.random.default_rng(11)
    return np.concatenate([
        rng.uniform(-10, 10, 4000), rng.standard_normal(2000) * 1e3,
        rng.uniform(700, 720, 200), rng.uniform(-750, -700, 200),
        rng.uniform(-1e-300, 1e-300, 200), _mixed(1000, 12),
        np.array([1e5, 1e22, 1e300, np.pi, -np.pi / 2] + SPECIAL)])


@pytest.mark.parametrize("name", ["sin", "cos", "exp", "sqrt"])
def test_kernels_give_an_array_the_bits_of_each_float(name):
    # on the arrays the integration makes: contiguous, a column of a
    # matrix and a constant broadcast along a block. (On a reversed
    # array, which it never makes, exp gives other bits for about 4% of
    # these inputs on numpy 2.4 with AVX-512.)
    fn = getattr(np, name)
    x = _kernel_inputs()
    strided = np.empty((len(x), 3))
    strided[:, 1] = x
    with np.errstate(all="ignore"):
        want = [fn(v) for v in x.tolist()]
        for arr in (x, strided[:, 1]):
            assert np.array_equal(_bits(fn(arr)), _bits(want))
        # a few rows at a time, as the tail of a block
        for n in (1, 3, 5, 9):
            assert np.array_equal(_bits(fn(x[:n])), _bits(want[:n]))
        for v, w in zip(x[::10].tolist(), want[::10]):
            assert np.array_equal(_bits(fn(np.broadcast_to(v, (5,)))),
                                  _bits([w] * 5))


@pytest.mark.parametrize("op", ["add", "subtract", "multiply", "divide"])
def test_arithmetic_gives_an_array_the_bits_of_numpy_scalars(op):
    fn = getattr(np, op)
    a, b = _mixed(3000, 21), _mixed(3000, 22)
    b[::7] = 0.0
    b[3::7] = -0.0
    a[::11] = 0.0
    with np.errstate(all="ignore"):
        want = [fn(np.float64(p), np.float64(q))
                for p, q in zip(a.tolist(), b.tolist())]
        assert np.array_equal(_bits(fn(a, b)), _bits(want))
