"""Property-based invariants over randomized inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from orliczmax.covering import RectFamily, select_scattered, verify_scattered
from orliczmax.grid import GridFunction, Rect, luxemburg_batch
from orliczmax.maximal import (multilinear_maximal, multilinear_orlicz_maximal, orlicz_maximal,
                               strong_maximal)
from orliczmax.young import Power, PowerLog, complementary, inverse

PHI = PowerLog(2.0, 1.0)
PHIBAR = complementary(PHI)

finite = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(s=finite, t=finite)
def test_young_inequality_pointwise(s, t):
    lhs = s * t
    rhs = PHI.eval(np.array([t]))[0] + PHIBAR.eval(np.array([s]))[0]
    assert lhs <= rhs * (1 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(y=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
       r=st.floats(min_value=1.1, max_value=4.0, allow_nan=False))
def test_power_inverse_is_exact_root(y, r):
    t = float(np.asarray(inverse(Power(r), np.array([y])))[0])
    assert t**r == np.float64(y) or abs(t**r - y) / y < 1e-9


@settings(max_examples=40, deadline=None)
@given(c=st.floats(min_value=0.25, max_value=8.0, allow_nan=False),
       seed=st.integers(min_value=0, max_value=2**16))
def test_luxemburg_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.1, 5.0, size=(3, 16))
    base = luxemburg_batch(rows, PHI)
    scaled = luxemburg_batch(c * rows, PHI)
    assert np.allclose(scaled, c * base, rtol=5e-9)


rect_strategy = st.tuples(st.integers(0, 10), st.integers(0, 10),
                          st.integers(1, 6), st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(raw=st.lists(rect_strategy, min_size=1, max_size=20),
       alpha=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
def test_selection_always_verifies(raw, alpha):
    shape = (16, 16)
    rects = tuple(Rect((a, b), (a + w, b + h)) for a, b, w, h in raw)
    fam = RectFamily(shape, rects)
    rep = verify_scattered(fam, select_scattered(fam, alpha))
    assert rep["ok"]
    assert rep["kept"] >= 1  # the first member is always admitted


def _grid(vals):
    return GridFunction(vals.shape, (0.0,) * vals.ndim, (0.5,) * vals.ndim, vals)


grid_shapes = st.sampled_from([(7,), (4, 5), (6, 3), (3, 3, 2)])


@settings(max_examples=40, deadline=None)
@given(shape=grid_shapes, seed=st.integers(min_value=0, max_value=2**16),
       k=st.sampled_from([-600, -40, -1, 1, 9, 600, 1020]))
def test_average_maximal_is_power_of_two_homogeneous(shape, seed, k):
    # 2**1020 pushes the summed-area table into its overflow scaling
    rng = np.random.default_rng(seed)
    f = _grid(rng.uniform(0.1, 4.0, size=shape) * (rng.random(shape) < 0.8))
    g = _grid(rng.uniform(0.1, 4.0, size=shape))
    scaled = f.with_values(np.ldexp(f.values, k))
    assert np.array_equal(strong_maximal(scaled).field.values,
                          np.ldexp(strong_maximal(f).field.values, k))
    assert np.array_equal(multilinear_maximal([scaled, g]).field.values,
                          np.ldexp(multilinear_maximal([f, g]).field.values, k))


@settings(max_examples=15, deadline=None)
@given(shape=st.sampled_from([(7,), (4, 5), (3, 3, 2)]),
       seed=st.integers(min_value=0, max_value=2**16))
def test_maximal_operators_are_monotone_in_f(shape, seed):
    rng = np.random.default_rng(seed)
    f = _grid(np.exp(rng.normal(size=shape)) * (rng.random(shape) < 0.7))
    g = f.with_values(f.values + np.exp(rng.normal(size=shape)) * (rng.random(shape) < 0.5))
    h = _grid(np.exp(rng.normal(size=shape)))
    # box sums round against the grid total, norms within the solver's tol
    atol = 1e-12 * g.values.sum()
    hmax = h.values.max()
    pairs = [
        (strong_maximal(f), strong_maximal(g), 0.0, atol),
        (multilinear_maximal([f, h]), multilinear_maximal([g, h]), 0.0, atol * hmax),
        (orlicz_maximal(f, PHI), orlicz_maximal(g, PHI), 4e-9, atol),
        (multilinear_orlicz_maximal([h, f], [PHI, PHI]),
         multilinear_orlicz_maximal([h, g], [PHI, PHI]), 4e-9, atol * hmax),
    ]
    for small, large, rtol, tol in pairs:
        assert np.all(small.field.values <= large.field.values * (1 + rtol) + tol)
