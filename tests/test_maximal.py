"""Maximal operators over rectangle bases."""

import itertools
import tracemalloc

import numpy as np
import pytest

from orliczmax import grid as gridmod, maximal
from orliczmax.errors import BudgetExceeded, GeometryMismatch
from orliczmax.grid import (GridFunction, Rect, SummedAreaTable, luxemburg_batch, luxemburg_norm,
                            rect_average)
from orliczmax.maximal import (CUBES, DYADIC, Basis, _window_extreme, indicator_far_field,
                               multilinear_maximal, multilinear_orlicz_maximal,
                               orlicz_maximal, strong_maximal)
from orliczmax.young import Power, PowerLog, PowerLogLog, complementary


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


def use_cores(monkeypatch, cores):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def force_threads(monkeypatch, cores):
    """Sweep every 2-D and 3-D grid, however small, on up to cores threads."""
    use_cores(monkeypatch, cores)
    monkeypatch.setattr(maximal, "_THREAD_MIN_CELLS", 1)


def test_thread_count_does_not_change_result(monkeypatch):
    f = rand_grid((16, 16), seed=2)
    g = rand_grid((16, 16), seed=3)
    fields = []
    for cores in (1, 4):
        force_threads(monkeypatch, cores)
        fields.append((strong_maximal(f).field.values,
                       multilinear_maximal([f, g]).field.values))
    for a, b in zip(*fields):
        assert np.array_equal(a, b)


def test_sweep_threads_follow_grid_size_and_cores(monkeypatch):
    use_cores(monkeypatch, 3)
    assert maximal._THREAD_MIN_CELLS == 2000
    assert maximal._sweep_threads((44, 45), 44) == 1    # 1,980 cells: serial
    assert maximal._sweep_threads((45, 45), 45) == 3    # above: min(cores, firsts)
    assert maximal._sweep_threads((1, 4000), 1) == 1
    assert maximal._sweep_threads((2, 1000), 2) == 2
    assert maximal._sweep_threads((13, 13, 13), 13) == 3


def test_sweep_threads_fall_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 5)
    assert maximal._sweep_threads((64, 64), 64) == 5
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert maximal._sweep_threads((64, 64), 64) == 1


def test_one_dimensional_sweep_holds_one_row_at_a_time():
    # every 1-D member is an interval, so the sweep takes the per-shape
    # pass; the pair DP built an (n+1)^2 matrix, about 280 MiB here
    f = rand_grid((3000,), seed=12)
    tracemalloc.start()
    try:
        strong_maximal(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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


def brute_field(fs, basis, member_value):
    """Per-cell max of member_value(rect) over the basis members covering the cell."""
    shape = fs[0].shape
    out = np.zeros(shape)
    for sides in basis.shapes(shape):
        for lo in itertools.product(*(range(e - s + 1) for e, s in zip(shape, sides))):
            rect = Rect(lo, tuple(a + s for a, s in zip(lo, sides)))
            np.maximum(out[rect.slices], member_value(rect), out=out[rect.slices])
    return out


def brute_average(fs, basis):
    """Sup over members of the product of rect_average, in input order."""
    sats = [SummedAreaTable(f) for f in fs]

    def value(rect):
        v = rect_average(sats[0], rect)
        for sat in sats[1:]:
            v = v * rect_average(sat, rect)
        return v

    return brute_field(fs, basis, value)


def brute_norms(fs, phis, basis):
    """Sup over members of the product of per-rectangle Luxemburg norms."""
    def value(rect):
        v = luxemburg_norm(fs[0], rect, phis[0])
        for f, phi in zip(fs[1:], phis[1:]):
            v = v * luxemburg_norm(f, rect, phi)
        return v

    return brute_field(fs, basis, value)


def max_rel_diff(got, want):
    assert np.array_equal(got == 0, want == 0)
    live = want != 0
    return float(np.max(np.abs(got[live] - want[live]) / want[live], initial=0.0))


BRUTE_BASES = [Basis(), Basis(CUBES), Basis(DYADIC), Basis(min_side=3, max_side=6)]
BRUTE_BASIS_IDS = ["rect", "cubes", "dyadic", "sides3to6"]


@pytest.mark.parametrize("cores", [1, 3])
@pytest.mark.parametrize("basis", BRUTE_BASES, ids=BRUTE_BASIS_IDS)
@pytest.mark.parametrize("shape", [(9,), (1, 8), (8, 1), (5, 4, 3)], ids=str)
def test_average_sweeps_equal_rect_average_loops(shape, basis, cores, monkeypatch):
    force_threads(monkeypatch, cores)
    f = rand_grid(shape, seed=20)
    g = rand_grid(shape, seed=21)
    strong = strong_maximal(f, basis).field.values
    assert np.array_equal(strong, brute_average([f], basis))
    pair = multilinear_maximal([f, g], basis).field.values
    assert np.array_equal(pair, brute_average([f, g], basis))
    # a field's memory order fixes the summation order of norm_lp over it
    assert strong.flags.c_contiguous and pair.flags.c_contiguous


@pytest.mark.parametrize("cores", [1, 3])
def test_average_sweep_is_exact_across_dp_blocks(monkeypatch, cores):
    # 100 pair cells per block, shared by the threads, splits every batch
    # into uneven blocks of rows
    force_threads(monkeypatch, cores)
    monkeypatch.setattr(maximal, "_DP_BLOCK", 100)
    monkeypatch.setattr(maximal, "_DP_MIN_LINES", 1)
    for shape in [(7, 6), (5, 4, 3)]:
        f = rand_grid(shape, seed=30)
        g = rand_grid(shape, seed=31)
        assert np.array_equal(strong_maximal(f).field.values, brute_average([f], Basis()))
        assert np.array_equal(multilinear_maximal([f, g]).field.values,
                              brute_average([f, g], Basis()))


@pytest.mark.parametrize("shape, basis", [
    ((6, 5), Basis(CUBES)),
    ((6, 5), Basis(DYADIC)),
    ((6, 5), Basis(max_side=3)),
    ((9,), Basis()),
    ((4, 3, 2), Basis()),
], ids=["cubes", "dyadic", "max_side3", "1d", "3d"])
def test_orlicz_sweeps_match_brute_force_norms(shape, basis):
    f = rand_grid(shape, seed=22)
    g = step_grid(shape, seed=23)
    phi, psi = PowerLog(1.8, 1.0), PowerLogLog(2.0, 1.5, 1.5)
    one = orlicz_maximal(f, phi, basis).field.values
    assert max_rel_diff(one, brute_norms([f], [phi], basis)) <= 2e-9
    two = multilinear_orlicz_maximal([f, g], [phi, psi], basis).field.values
    assert max_rel_diff(two, brute_norms([f, g], [phi, psi], basis)) <= 2e-9


def test_multilinear_power_mean_dispatch_matches_solver():
    f = rand_grid((8, 8), seed=24)
    g = rand_grid((8, 8), seed=25)
    mf = multilinear_orlicz_maximal([f, g], [Power(2.0), Power(2.0)])
    assert mf.provenance["dispatch"] == "power_mean"
    capped = Power(2.0, domain_cap=1e300)
    slow = multilinear_orlicz_maximal([f, g], [capped, capped]).field.values
    assert max_rel_diff(mf.field.values, slow) < 5e-9
    # unequal exponents have no closed form for the product: solved
    mixed = multilinear_orlicz_maximal([f, g], [Power(2.0), Power(3.0)])
    assert "dispatch" not in mixed.provenance


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_power_dispatch_at_extreme_scales_matches_solver(scale):
    f = rand_grid((5, 5), seed=26)
    f = f.with_values(f.values * scale)
    fast = orlicz_maximal(f, Power(2.0)).field.values
    slow = orlicz_maximal(f, Power(2.0, domain_cap=1e300)).field.values
    assert max_rel_diff(fast, slow) <= 5e-9


def test_power_dispatch_scales_by_powers_of_two_exactly():
    f = rand_grid((9, 7), seed=27)
    small = orlicz_maximal(f.with_values(f.values * 2.0**-31), Power(1.5)).field.values
    assert np.array_equal(small, orlicz_maximal(f, Power(1.5)).field.values * 2.0**-31)


@pytest.mark.parametrize("cover", [False, True], ids=["position", "cover"])
@pytest.mark.parametrize("take_min", [False, True], ids=["max", "min"])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_window_extreme_matches_direct_windows(axis, take_min, cover):
    # one decimal leaves ties between neighbours
    a = np.round(np.random.default_rng(29).normal(size=(5, 4, 6)), 1)
    n = a.shape[axis]
    pick = np.min if take_min else np.max
    for s in range(1, n + 3 if cover else n + 1):
        if cover:  # cell x is covered by the positions in (x - s, x]
            spans = [range(max(0, x - s + 1), min(n, x + 1)) for x in range(n + s - 1)]
        else:
            spans = [range(i, i + s) for i in range(n - s + 1)]
        want = np.stack([pick(np.take(a, list(idx), axis=axis), axis=axis) for idx in spans],
                        axis=axis)
        got = _window_extreme(a, s, axis, take_min=take_min, cover=cover)
        assert np.array_equal(got, want), s
        assert got.flags.c_contiguous, s


def batch_field(fs, phis, basis):
    """Sup over members of the product of norms, one unhinted luxemburg_batch per shape."""
    shape = fs[0].shape
    out = np.zeros(shape)
    for sides in basis.shapes(shape):
        grid_pos = tuple(e - s + 1 for e, s in zip(shape, sides))
        value = None
        for f, phi in zip(fs, phis):
            rows = np.lib.stride_tricks.sliding_window_view(f.values, sides)
            norms = luxemburg_batch(rows.reshape(-1, int(np.prod(sides))), phi)
            value = norms if value is None else value * norms
        for k, lo in enumerate(itertools.product(*(range(p) for p in grid_pos))):
            sl = tuple(slice(a, a + s) for a, s in zip(lo, sides))
            np.maximum(out[sl], value[k], out=out[sl])
    return out


def live_members(fs, basis):
    """Members on which every function is positive somewhere."""
    shape = fs[0].shape
    total = 0
    for sides in basis.shapes(shape):
        live = True
        for f in fs:
            win = np.lib.stride_tricks.sliding_window_view(f.values, sides)
            live = live & (win.max(axis=tuple(range(-len(sides), 0))) > 0)
        total += int(np.sum(live))
    return total


def assert_prune_exact(fs, phis, basis=Basis()):
    """Pruned field equals the unpruned one bit for bit; the counters add up."""
    on = maximal._orlicz_field(fs, phis, basis, maximal.DEFAULT_BUDGET, 1e-9, True)
    off = maximal._orlicz_field(fs, phis, basis, maximal.DEFAULT_BUDGET, 1e-9, False)
    assert np.array_equal(on.field.values, off.field.values)
    if "dispatch" not in on.provenance:
        live = live_members(fs, basis)
        assert on.provenance["rects_solved"] + on.provenance["pruned"] == live
        assert off.provenance["rects_solved"] == live and off.provenance["pruned"] == 0
        assert on.provenance["ladder_rungs"] == off.provenance["ladder_rungs"]
    return on


ORLICZ_SHAPES = [(9,), (5, 4), (3, 3, 2)]


@pytest.mark.parametrize("basis", BRUTE_BASES[:3], ids=BRUTE_BASIS_IDS[:3])
@pytest.mark.parametrize("shape", ORLICZ_SHAPES, ids=str)
def test_orlicz_sweeps_match_batch_brute_force_for_every_solver_phi(solver_phi, shape, basis):
    f = rand_grid(shape, seed=40)
    g = step_grid(shape, seed=41)
    one = orlicz_maximal(f, solver_phi, basis)
    assert max_rel_diff(one.field.values, batch_field([f], [solver_phi], basis)) <= 2e-9
    assert np.array_equal(one.field.values,
                          orlicz_maximal(f, solver_phi, basis, prune=False).field.values)
    two = multilinear_orlicz_maximal([f, g], [solver_phi, solver_phi], basis)
    assert max_rel_diff(two.field.values,
                        batch_field([f, g], [solver_phi, solver_phi], basis)) <= 2e-9
    assert np.array_equal(two.field.values,
                          assert_prune_exact([f, g], [solver_phi, solver_phi], basis).field.values)


@pytest.mark.parametrize("case", ["tiny", "huge", "range_1e300", "spike", "zero", "constant"])
def test_orlicz_prune_is_exact_on_adversarial_grids(case):
    rng = np.random.default_rng(42)
    vals = np.exp(rng.normal(size=(7, 6)))
    if case == "tiny":
        vals *= 1e-150
    elif case == "huge":
        vals *= 1e150
    elif case == "range_1e300":
        vals = 10.0 ** rng.uniform(-150, 150, size=(7, 6))
    elif case == "spike":
        vals = np.zeros((7, 6))
        vals[3, 2] = 5.0
    elif case == "zero":
        vals = np.zeros((7, 6))
    elif case == "constant":
        vals = np.full((7, 6), 2.5)
    f = grid(vals)
    g = rand_grid((7, 6), seed=43)
    phi, psi = PowerLog(1.8, 1.0), PowerLogLog(2.0, 1.5, 1.5)
    one = assert_prune_exact([f], [phi])
    two = assert_prune_exact([f, g], [phi, psi])
    assert np.array_equal(two.field.values,
                          multilinear_orlicz_maximal([f, g], [phi, psi]).field.values)
    if case == "zero":
        assert not one.field.values.any() and one.provenance["rects_solved"] == 0
        return
    assert max_rel_diff(one.field.values, batch_field([f], [phi], Basis())) <= 2e-9
    assert max_rel_diff(two.field.values, batch_field([f, g], [phi, psi], Basis())) <= 2e-9
    if case == "range_1e300":
        # the rung cap widens the ratio of f's ladder in the multilinear
        # field, which starts at the least positive value (no Jensen start)
        rungs = [maximal._ladder(h, p, 42, 0.0).rungs for h, p in ((f, phi), (g, psi))]
        assert rungs[0] == maximal._MAX_RUNGS
        assert two.provenance["ladder_rungs"] == sum(rungs)


def test_capped_power_on_more_cells_than_phi_reaches_at_its_cap():
    # Phi^{-1}(y) is the cap for every y >= Phi(cap) = 100 < 11 * 10 cells
    f = rand_grid((11, 10), seed=49)
    phi = Power(2.0, domain_cap=10.0)
    one = assert_prune_exact([f], [phi])
    assert max_rel_diff(one.field.values, batch_field([f], [phi], Basis())) <= 2e-9


def test_orlicz_ladder_leaves_few_members_to_solve():
    f = rand_grid((12, 12), seed=44)
    prov = orlicz_maximal(f, PowerLog(1.8, 1.0)).provenance
    assert prov["rects_solved"] + prov["pruned"] == prov["rect_count"]
    assert prov["rects_solved"] <= prov["rect_count"] // 10


def test_orlicz_sweep_is_exact_across_search_and_solve_blocks(monkeypatch):
    f = rand_grid((6, 5), seed=45)
    g = step_grid((6, 5), seed=46)
    phis = [PowerLog(1.8, 1.0), PowerLogLog(2.0, 1.5, 1.5)]
    want = [orlicz_maximal(f, phis[0]).field.values,
            multilinear_orlicz_maximal([f, g], phis).field.values]
    # blocks of one shape each, and one solve run per row
    monkeypatch.setattr(maximal, "_SEARCH_BLOCK", 1)
    monkeypatch.setattr(gridmod, "_RUN_CELLS", 1)
    assert np.array_equal(orlicz_maximal(f, phis[0]).field.values, want[0])
    assert np.array_equal(multilinear_orlicz_maximal([f, g], phis).field.values, want[1])


@pytest.mark.parametrize("run_cells", [gridmod._RUN_CELLS, 64])
def test_orlicz_prune_is_exact_when_a_solve_chunk_mixes_cell_counts(monkeypatch, run_cells):
    f = rand_grid((6, 5), seed=47)
    g = step_grid((6, 5), seed=48)
    phis = [PowerLog(1.8, 1.0), PowerLogLog(2.0, 1.5, 1.5)]
    want = [orlicz_maximal(f, phis[0]).field.values,
            multilinear_orlicz_maximal([f, g], phis).field.values]
    lengths = []

    def recording(rows, *args, **kwargs):
        lengths.append({np.shape(m)[1] for m in rows})
        return luxemburg_batch(rows, *args, **kwargs)

    monkeypatch.setattr(gridmod, "luxemburg_batch", recording)
    monkeypatch.setattr(gridmod, "_RUN_CELLS", run_cells)
    assert np.array_equal(assert_prune_exact([f], phis[:1]).field.values, want[0])
    assert np.array_equal(assert_prune_exact([f, g], phis).field.values, want[1])
    assert max(len(s) for s in lengths) > 1
    if run_cells > 64:  # one call per function and field
        assert len(lengths) == 2 * (1 + 2)


def assert_level_sets(f, phi, basis):
    """{M_Phi f > lam} = {M_S[Phi(f / lam)] > 1} at 12 levels strictly inside
    the field's range, on every cell outside a relative band of 1e-7 around lam."""
    field = orlicz_maximal(f, phi, basis).field.values
    assert field.min() > 0  # f > 0, so every member has a positive norm
    cells = f.values.size
    for lam in np.geomspace(field.min(), field.max(), 14)[1:-1]:
        # Phi is +inf past a cap or a complement's slope; capped at 4 * cells,
        # the grid stays finite and any mean over such a cell stays above 1
        g = np.minimum(phi.eval((f.values / lam).ravel()), 4.0 * cells).reshape(f.shape)
        over = strong_maximal(f.with_values(g), basis).field.values > 1.0
        off_band = np.abs(field / lam - 1.0) > 1e-7
        assert np.array_equal((field > lam)[off_band], over[off_band]), lam


@pytest.mark.parametrize("basis", BRUTE_BASES[:3], ids=BRUTE_BASIS_IDS[:3])
def test_orlicz_field_level_sets_are_strong_level_sets(solver_phi, basis):
    # M_Phi f(x) > lam exactly when some R containing x has mean_R Phi(f /
    # lam) > 1: an oracle past brute-force sizes that needs no ladder
    assert_level_sets(rand_grid((32, 32), seed=50), solver_phi, basis)


@pytest.mark.parametrize("phi", [PowerLog(1.8, 1.0), complementary(Power(1.5))],
                         ids=["power_log", "complement"])
def test_orlicz_field_level_sets_at_48_squared(phi):
    assert_level_sets(rand_grid((48, 48), seed=51), phi, Basis())


@pytest.mark.parametrize("shape, c", [((128, 128), (37, 90)), ((24, 24, 24), (5, 17, 11)),
                                      ((300,), (211,))], ids=["128^2", "24^3", "300"])
def test_strong_maximal_of_a_spike_is_exact(shape, c):
    # every box sum of h * delta_c is h or 0, so the best member containing
    # x is the smallest one that also contains c, in either basis
    h = 3.7
    vals = np.zeros(shape)
    vals[c] = h
    f = grid(vals)
    dist = np.meshgrid(*[np.abs(np.arange(n) - ci) + 1 for n, ci in zip(shape, c)],
                       indexing="ij")
    assert np.array_equal(strong_maximal(f).field.values, h / np.prod(dist, axis=0))
    assert np.array_equal(strong_maximal(f, Basis(CUBES)).field.values,
                          h / np.max(dist, axis=0) ** len(shape))


def test_jensen_start_leaves_few_members_to_solve_past_a_subnormal_cell():
    # one cell of 1e-320 stretches a ladder that starts at the least
    # positive value down to it: 1,024 rungs and 145 of 150 members
    # solved, against 29 without that cell
    rng = np.random.default_rng(1)
    vals = np.exp(rng.normal(size=(5, 4)))
    vals[0, 0] = 1e-320
    f = grid(vals)
    phi = PowerLog(1.8, 1.0)
    one = assert_prune_exact([f], [phi])
    assert one.provenance["rect_count"] == 150
    assert one.provenance["rects_solved"] <= 40
    assert one.provenance["ladder_rungs"] < maximal._MAX_RUNGS
    assert max_rel_diff(one.field.values, batch_field([f], [phi], Basis())) <= 2e-9


def test_strong_maximal_near_the_top_of_the_float_range():
    f = grid(np.full((8, 8), 1e307))
    m = strong_maximal(f).field.values
    assert np.all(np.isfinite(m))
    assert np.allclose(m, 1e307, rtol=1e-14, atol=0.0)
    g = rand_grid((6, 5), seed=47)
    g = g.with_values(g.values * 1e306)
    for fs in ([g], [g, rand_grid((6, 5), seed=48)]):
        got = multilinear_maximal(fs).field.values
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, brute_average(fs, Basis()))
        assert np.array_equal(multilinear_maximal(fs, Basis(CUBES)).field.values,
                              brute_average(fs, Basis(CUBES)))


@pytest.mark.parametrize("case", ["zero", "constant", "spike"])
@pytest.mark.parametrize("basis", BRUTE_BASES, ids=BRUTE_BASIS_IDS)
def test_average_sweeps_equal_rect_average_loops_on_flat_grids(basis, case):
    vals = np.zeros((7, 6)) if case != "constant" else np.full((7, 6), 0.3)
    if case == "spike":
        vals[4, 1] = 7.0
    f, g = grid(vals), rand_grid((7, 6), seed=50)
    assert np.array_equal(strong_maximal(f, basis).field.values, brute_average([f], basis))
    assert np.array_equal(multilinear_maximal([g, f], basis).field.values,
                          brute_average([g, f], basis))
