"""Maximal operators over rectangle bases."""

import numpy as np
import pytest

from orliczmax.errors import BudgetExceeded, GeometryMismatch
from orliczmax.grid import GridFunction, Rect, rect_average, SummedAreaTable
from orliczmax.maximal import (CUBES, DYADIC, Basis, indicator_far_field,
                               multilinear_maximal, multilinear_orlicz_maximal,
                               orlicz_maximal, strong_maximal)
from orliczmax.young import Power, PowerLog, PowerLogLog


def grid(vals, spacing=0.5):
    vals = np.asarray(vals, dtype=float)
    return GridFunction(vals.shape, (0.0,) * vals.ndim, (spacing,) * vals.ndim, vals)


def rand_grid(shape, seed, spacing=0.5):
    rng = np.random.default_rng(seed)
    return grid(np.exp(rng.normal(size=shape)), spacing)


def brute_strong(f):
    """Direct sup of rectangle means; small grids only."""
    sat = SummedAreaTable(f)
    out = np.zeros(f.shape)
    n0, n1 = f.shape
    for a0 in range(n0):
        for b0 in range(a0 + 1, n0 + 1):
            for a1 in range(n1):
                for b1 in range(a1 + 1, n1 + 1):
                    m = rect_average(sat, Rect((a0, a1), (b0, b1)))
                    sl = (slice(a0, b0), slice(a1, b1))
                    np.maximum(out[sl], m, out=out[sl])
    return out


def test_constant_is_fixed_point():
    f = grid(np.full((12, 9), 3.25))
    m = strong_maximal(f).field.values
    assert np.array_equal(m, f.values)


def test_dominates_input():
    f = rand_grid((14, 11), seed=0)
    m = strong_maximal(f).field.values
    assert np.all(m >= f.values * (1 - 1e-12))


def test_matches_brute_force():
    f = rand_grid((7, 6), seed=1)
    m = strong_maximal(f).field.values
    assert np.array_equal(m, brute_strong(f))


def test_jobs_do_not_change_result():
    f = rand_grid((16, 16), seed=2)
    a = strong_maximal(f, jobs=1).field.values
    b = strong_maximal(f, jobs=4).field.values
    assert np.array_equal(a, b)


def test_budget_enforced():
    f = rand_grid((16, 16), seed=3)
    with pytest.raises(BudgetExceeded):
        strong_maximal(f, budget=100)


def test_cube_basis_is_dominated_by_rectangles():
    f = rand_grid((12, 12), seed=4)
    mr = strong_maximal(f).field.values
    mc = strong_maximal(f, Basis(CUBES)).field.values
    assert np.all(mc <= mr * (1 + 1e-12))
    assert np.all(mc >= f.values * (1 - 1e-12))


def test_dyadic_basis_is_dominated_by_rectangles():
    f = rand_grid((16, 16), seed=5)
    md = strong_maximal(f, Basis(DYADIC)).field.values
    mr = strong_maximal(f).field.values
    assert np.all(md <= mr * (1 + 1e-12))


def test_side_limits_respected():
    f = rand_grid((10, 10), seed=6)
    m_small = strong_maximal(f, Basis(max_side=2)).field.values
    m_all = strong_maximal(f).field.values
    assert np.all(m_small <= m_all * (1 + 1e-12))
    # max_side=1 leaves only the single-cell rectangle; the running-sum
    # table reconstructs the cell value to rounding only
    m_one = strong_maximal(f, Basis(max_side=1)).field.values
    assert np.allclose(m_one, f.values, rtol=1e-12)


def test_three_dimensional_grid():
    rng = np.random.default_rng(7)
    f = GridFunction((5, 4, 3), (0.0,) * 3, (1.0,) * 3,
                     rng.uniform(0.1, 2.0, size=(5, 4, 3)))
    m = strong_maximal(f).field.values
    assert np.all(m >= f.values * (1 - 1e-12))
    assert m.max() <= f.values.max() * (1 + 1e-12)


def test_orlicz_average_dispatch():
    # phi(t) = t makes the Luxemburg norm the rectangle mean
    f = rand_grid((10, 10), seed=8)
    mo = orlicz_maximal(f, Power(1.0)).field.values
    ms = strong_maximal(f).field.values
    assert np.array_equal(mo, ms)


def test_orlicz_power_closed_form_matches_bisection():
    f = rand_grid((12, 12), seed=9)
    fast = orlicz_maximal(f, Power(2.0)).field.values
    slow = orlicz_maximal(f, Power(2.0, domain_cap=1e9)).field.values
    rel = np.abs(fast - slow) / np.abs(slow)
    assert rel.max() < 5e-9
    prov = orlicz_maximal(f, Power(2.0)).provenance
    assert prov["dispatch"] == "power_mean"


def test_orlicz_prune_is_exact():
    f = rand_grid((12, 12), seed=10)
    phi = PowerLog(2.0, 1.0)
    on = orlicz_maximal(f, phi, prune=True).field.values
    off = orlicz_maximal(f, phi, prune=False).field.values
    assert np.array_equal(on, off)


def step_grid(shape, seed):
    """Zero except 30% of cells, which hold 1, 2 or 3."""
    rng = np.random.default_rng(seed)
    vals = np.where(rng.random(shape) < 0.3, rng.integers(1, 4, size=shape), 0)
    return grid(vals.astype(float))


def test_orlicz_prune_is_exact_on_step_grids():
    # step grids make the indicator bound tight and leave many members
    # with equal norms, where a skip decision sits right at the margin
    phis = [PowerLog(1.8, 1.0), PowerLog(2.0, 1.5), PowerLogLog(2.0, 2.0, 1.5)]
    for seed in range(40):
        shape = tuple(int(x) for x in np.random.default_rng([seed, 1]).integers(4, 10, size=2))
        f = step_grid(shape, seed)
        for phi in phis:
            on = orlicz_maximal(f, phi, prune=True).field.values
            off = orlicz_maximal(f, phi, prune=False).field.values
            assert np.array_equal(on, off), (seed, phi)


def test_orlicz_prune_is_exact_on_zero_heavy_and_constant_grids():
    rng = np.random.default_rng(19)
    vals = np.exp(rng.normal(size=(9, 8))) * (rng.random((9, 8)) < 0.5)
    phi = PowerLog(1.8, 1.0)
    for f in (grid(vals), grid(np.full((7, 6), 2.5))):
        on = orlicz_maximal(f, phi, prune=True).field.values
        off = orlicz_maximal(f, phi, prune=False).field.values
        assert np.array_equal(on, off)


def test_orlicz_dominates_scaled_input():
    f = rand_grid((10, 10), seed=11)
    phi = PowerLog(1.8, 1.0)
    m = orlicz_maximal(f, phi).field.values
    # single cell norm: ||c chi||_phi = c / phiinv(1)
    from orliczmax.young import inverse

    floor = f.values / float(np.asarray(inverse(phi, np.array([1.0])))[0])
    assert np.all(m >= floor * (1 - 1e-9))


def test_multilinear_constant_product():
    f = grid(np.full((8, 8), 2.0))
    g = grid(np.full((8, 8), 3.0))
    m = multilinear_maximal([f, g]).field.values
    assert np.allclose(m, 6.0)


def test_multilinear_dominated_by_product_of_singles():
    f = rand_grid((9, 9), seed=12)
    g = rand_grid((9, 9), seed=13)
    m = multilinear_maximal([f, g]).field.values
    bound = strong_maximal(f).field.values * strong_maximal(g).field.values
    assert np.all(m <= bound * (1 + 1e-12))


def test_multilinear_geometry_checked():
    f = rand_grid((8, 8), seed=14)
    g = rand_grid((8, 9), seed=15)
    with pytest.raises(GeometryMismatch):
        multilinear_maximal([f, g])


def test_multilinear_orlicz_average_dispatch():
    f = rand_grid((8, 8), seed=16)
    g = rand_grid((8, 8), seed=17)
    mo = multilinear_orlicz_maximal([f, g], [Power(1.0), Power(1.0)]).field.values
    mm = multilinear_maximal([f, g]).field.values
    assert np.array_equal(mo, mm)


def test_indicator_far_field_formula():
    # best rectangle through y containing the unit box spans [0, y] per axis
    ys = np.array([[2.0, 3.0], [4.0, 1.6]])
    vals = indicator_far_field(ys)
    assert np.allclose(vals, 1.0 / (ys[:, 0] * ys[:, 1]))


def test_input_digest_covers_geometry():
    vals = np.arange(36.0)
    a = strong_maximal(grid(vals.reshape(4, 9))).provenance["inputs"]
    b = strong_maximal(grid(vals.reshape(6, 6))).provenance["inputs"]
    c = strong_maximal(grid(vals.reshape(6, 6), spacing=0.25)).provenance["inputs"]
    assert len({a, b, c}) == 3


def test_provenance_present():
    f = rand_grid((8, 8), seed=18)
    prov = strong_maximal(f).provenance
    assert prov["operator"] == "strong_maximal"
    assert prov["grid_shape"] == [8, 8]
    assert prov["rect_count"] > 0
