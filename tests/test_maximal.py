"""Maximal operators over rectangle bases."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from orliczmax import grid as gridmod, maximal
from orliczmax.errors import BudgetExceeded, GeometryMismatch, NoBracket, NonFinite
from orliczmax.grid import (GridFunction, Rect, SummedAreaTable, luxemburg_batch, luxemburg_norm,
                            rect_average)
from orliczmax.maximal import (CUBES, DYADIC, Basis, _window_extreme, indicator_far_field,
                               multilinear_maximal, multilinear_orlicz_maximal,
                               orlicz_maximal, strong_maximal)
from orliczmax.verify import ProbeSuite
from orliczmax.young import (Power, PowerLog, PowerLogLog, Tabulated, _power_form, complementary,
                             inverse)


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


def test_every_orlicz_provenance_but_the_exact_average_records_tol():
    # tol decides whether the power_mean guard admits an input (1e-13
    # sends this grid to the ladder), so that dispatch records it too
    f = rand_grid((24, 24), seed=1)
    spike = np.zeros((6, 6))
    spike[2, 3] = 1.5
    calls = [(f, Power(1.0), 1e-9), (f, Power(2.0), 1e-9), (f, Power(2.0), 1e-13),
             (grid(spike), PowerLog(1.8, 1.0), 1e-9),
             (grid(np.zeros((4, 4))), PowerLog(1.8, 1.0), 1e-9)]
    provs = [orlicz_maximal(g, phi, tol=tol).provenance for g, phi, tol in calls]
    provs.append(multilinear_orlicz_maximal([f, f], [Power(2.0)] * 2, tol=1e-8).provenance)
    tols = [tol for _, _, tol in calls] + [1e-8]
    assert [p.get("dispatch") for p in provs] == ["average", "power_mean", None, "two_valued",
                                                  None, "power_mean"]
    assert "tol" not in provs[0]
    assert [p["tol"] for p in provs[1:]] == tols[1:]


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


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), 1.0], ids=str)
def test_orlicz_maximal_rejects_a_tol_outside_zero_one(tol):
    # a negative or NaN tol would turn the skip rule's widen factor
    # negative or NaN, prune every member and return an all-zero field
    f, g = rand_grid((6, 6), seed=80), rand_grid((6, 6), seed=81)
    for phi in (PowerLog(1.8, 1.0), Power(2.0)):
        for prune in (True, False):
            with pytest.raises(ValueError, match="tol"):
                orlicz_maximal(f, phi, tol=tol, prune=prune)
        with pytest.raises(ValueError, match="tol"):
            multilinear_orlicz_maximal([f, g], [phi, phi], tol=tol)


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


def test_indicator_far_field_off_the_far_region():
    # inside the box the sup is 1; on an axis through y < 0 the best side
    # is [y, 1], through y > 1 it is [0, y]; far points keep their bits
    near = np.array([[0.5, 0.5], [-1.0, 2.0], [0.5, 4.0]])
    far = np.array([[2.0, 3.0], [4.0, 1.6]])
    phi = PowerLog(1.8, 1.0)
    assert indicator_far_field(near).tolist() == [1.0, 0.25, 0.25]
    assert np.array_equal(indicator_far_field(near, phi),
                          1.0 / inverse(phi, np.array([1.0, 4.0, 4.0])))
    assert np.array_equal(indicator_far_field(far), 1.0 / np.prod(far, axis=-1))
    assert np.array_equal(indicator_far_field(far, phi), 1.0 / inverse(phi, np.prod(far, axis=-1)))


def test_indicator_far_field_past_a_cap_is_one_over_the_cap():
    # P = 400 > Phi(10) = 100, so Phi^{-1}(P) is the cap 10, solved as
    # Phi^{-1}(100) to the solver's tol; inside the cap the values keep
    # their bits
    phi = Power(2.0, domain_cap=10.0)
    inside = np.array([[2.0, 3.0], [0.5, 4.0], [5.0, 20.0]])
    far = indicator_far_field([20.0, 20.0], phi)
    assert far.tolist() == [pytest.approx(0.1, rel=1e-9)]
    assert np.array_equal(far, 1.0 / inverse(phi, np.array([100.0])))
    assert np.array_equal(indicator_far_field(inside, phi),
                          1.0 / inverse(phi, np.array([6.0, 4.0, 100.0])))


def test_ladder_range_is_solved_once_per_young_function_and_shape(monkeypatch):
    calls = []

    def counting(*args, real=maximal.inverse):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(maximal, "inverse", counting)
    maximal._ladder_range.cache_clear()
    f = rand_grid((7, 6), seed=51)
    first = orlicz_maximal(f, PowerLog(1.8, 1.0))
    assert calls
    calls.clear()
    again = orlicz_maximal(rand_grid((7, 6), seed=52), PowerLog(1.8, 1.0))
    second = orlicz_maximal(f, PowerLog(1.8, 1.0))
    assert calls == []
    assert again.field.values.shape == (7, 6)
    assert second.field.values.tobytes() == first.field.values.tobytes()
    assert second.provenance == first.provenance


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
@pytest.mark.parametrize("shape", [(9,), (40,), (1, 8), (8, 1), (12, 11), (5, 4, 3)], ids=str)
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


@pytest.mark.parametrize("basis", [Basis(), Basis(DYADIC), Basis(min_side=2), Basis(max_side=3)],
                         ids=["rect", "dyadic", "min_side2", "max_side3"])
@pytest.mark.parametrize("cores", [1, 3])
def test_average_sweep_is_exact_across_dp_blocks(monkeypatch, cores, basis):
    # 100 pair cells per block, shared by the threads, splits every batch
    # into uneven blocks of rows and every run of leading sides into one
    # side per run; the restricted bases mask pairs inside the blocks
    force_threads(monkeypatch, cores)
    monkeypatch.setattr(maximal, "_DP_BLOCK", 100)
    for shape in [(7, 6), (5, 4, 3)]:
        f = rand_grid(shape, seed=30)
        g = rand_grid(shape, seed=31)
        assert np.array_equal(strong_maximal(f, basis).field.values, brute_average([f], basis))
        assert np.array_equal(multilinear_maximal([f, g], basis).field.values,
                              brute_average([f, g], basis))


@pytest.mark.parametrize("batch_cells", [maximal._BATCH_CELLS, 40])
@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("basis", [Basis(), Basis(CUBES), Basis(DYADIC)],
                         ids=["rect", "cubes", "dyadic"])
@pytest.mark.parametrize("shape", [(13,), (6, 6), (7, 5), (4, 3, 5)], ids=str)
def test_batched_groups_equal_per_group_sweeps(shape, basis, cores, batch_cells, monkeypatch):
    # one group near the top of the float range, whose tables are scaled
    # against overflow, among unscaled ones; 40 table cells per batch
    # splits the groups into batches of one to three
    force_threads(monkeypatch, cores)
    monkeypatch.setattr(maximal, "_BATCH_CELLS", batch_cells)
    fs = [rand_grid(shape, seed=80 + k) for k in range(6)]
    fs[2] = fs[2].with_values(fs[2].values * 1e307)
    fs[5] = fs[5].with_values(fs[5].values * 1e-9)  # keeps fs[2]'s products finite
    assert SummedAreaTable(fs[2]).exponent > 0
    for groups in ([[f] for f in fs], [fs[0:2], [fs[2], fs[5]], fs[3:5]]):
        got = maximal._average_sweep(groups, basis)
        assert len(got) == len(groups)
        for fields, g in zip(got, groups):
            want = maximal._average_sweep([g], basis)[0]
            assert fields.tobytes() == want.tobytes()
            ref = (strong_maximal(g[0], basis) if len(g) == 1
                   else multilinear_maximal(g, basis)).field.values
            assert fields.tobytes() == ref.tobytes()


def dp_reference(slabs, pref, sides):
    """_dp_last_axis by a plain double loop over the (lo, hi) pairs."""
    batch, size = slabs[0].shape
    out = np.full((batch, size - 1), -np.inf)
    for lo in range(size):
        for hi in range(lo + 1, size):
            if hi - lo not in sides:
                continue
            scale = pref * float(hi - lo)
            v = (slabs[0][:, hi] - slabs[0][:, lo]) / scale
            for t in slabs[1:]:
                v = v * ((t[:, hi] - t[:, lo]) / scale)
            np.maximum(out[:, lo:hi], v[:, None], out=out[:, lo:hi])
    return out


DP_BASES = [Basis(), Basis(DYADIC), Basis(min_side=3), Basis(max_side=2)]


@pytest.mark.parametrize("block", [maximal._DP_BLOCK, 1])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("basis", DP_BASES, ids=["rect", "dyadic", "min_side3", "max_side2"])
def test_dp_last_axis_matches_a_pair_loop(basis, m, block):
    # prefix lengths 2..40 take in every 2**k and 2**k +- 1; the rows'
    # divisors differ within a block (in the order a run of sides gives
    # them, and shuffled) or are one for the whole call
    rng = np.random.default_rng(70)
    corner = set()
    for size in range(2, 41):
        sides = basis.side_choices(size - 1)
        plan = maximal._dp_plan(size, tuple(sides))
        corner.update(st.corner for st in plan)
        batch = 7
        slabs = [np.cumsum(np.exp(rng.normal(size=(batch, size))), axis=1) - 3.0
                 for _ in range(m)]
        for pref in (np.repeat([1.0, 2.0, 6.0], [3, 3, 1]), rng.integers(1, 9, batch) * 1.0,
                     np.full(batch, 12.0)):
            got = maximal._dp_last_axis(slabs, pref, plan, block)
            assert got.flags.c_contiguous
            assert np.array_equal(got, dp_reference(slabs, pref, sides)), (size, pref)
    # both aggregations, 2-D running maxima and row/column maxima, ran
    assert corner == {True, False}


@pytest.mark.parametrize("basis", DP_BASES, ids=["rect", "dyadic", "min_side3", "max_side2"])
def test_dp_plan_unmasks_each_admissible_pair_once(basis):
    for size in range(2, 41):
        sides = basis.side_choices(size - 1)
        pairs = []
        for st in maximal._dp_plan(size, tuple(sides)):
            lo, hi = np.broadcast_arrays(st.lo, st.hi)
            keep = np.ones(lo.shape, dtype=bool) if st.bad is None else ~st.bad.reshape(lo.shape)
            assert np.array_equal(st.d.reshape(lo.shape), hi - lo) and np.all(st.d >= 1)
            pairs += zip(lo[keep].tolist(), hi[keep].tolist())
        want = [(lo, lo + s) for s in sides for lo in range(size - s)]
        assert len(pairs) == len(set(pairs))
        assert sorted(pairs) == sorted(want)


def test_dp_levels_form_about_half_the_pair_matrix():
    for size, cells in [(97, 4865), (257, 33665)]:
        plan = maximal._dp_plan(size, tuple(range(1, size)))
        assert sum(st.d.size for st in plan) == cells
        assert cells < 0.52 * size * size


@pytest.mark.parametrize("shape, bound", [((12, 12), 2), ((16, 16, 16), 40)], ids=str)
def test_average_sweep_makes_a_few_dp_calls_per_leading_side_run(monkeypatch, shape, bound):
    calls = []
    real = maximal._dp_last_axis

    def counting(*args):
        calls.append(args[0][0].shape[0])
        return real(*args)

    monkeypatch.setattr(maximal, "_dp_last_axis", counting)
    for cores in (1, 2):
        use_cores(monkeypatch, cores)
        calls.clear()
        strong_maximal(rand_grid(shape, seed=45))
        # one call per side of the axis before the last made 12 and 256
        # (16 x 16); runs of sides stacked into one batch make 1 and 19
        # on one core, and 1 and 35 on two, whose threads halve the block
        assert len(calls) <= bound


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


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_power_conjugate_takes_the_closed_form(r):
    # complementary(Power(r)) is c t^q, q = r / (r - 1), c = (r - 1) r^-q
    q = r / (r - 1.0)
    c = (r - 1.0) * r ** -q
    f = rand_grid((6, 5), seed=70)
    phi = complementary(Power(r))
    mf = orlicz_maximal(f, phi)
    assert mf.provenance["dispatch"] == "power_mean"
    exact = c ** (1.0 / q) * brute_average([f.with_values(f.values ** q)], Basis()) ** (1.0 / q)
    assert max_rel_diff(mf.field.values, exact) <= 1e-12
    # the solver on the numeric table, which lies below c t^q by at most
    # 2.3e-9 (r = 1.5) to 1.2e-8 (r = 3) relative: the solver's tol plus
    # that error through the 1/q power
    s = np.geomspace(1e-6, 1e6, 4001)
    table = float(np.max(np.abs(phi.eval(s) / (c * s ** q) - 1.0)))
    bound = 1e-9 + table / q + 1e-12
    assert max_rel_diff(mf.field.values, batch_field([f], [phi], Basis())) <= bound
    assert np.array_equal(mf.field.values, orlicz_maximal(f, phi, prune=False).field.values)
    doubled = orlicz_maximal(f.with_values(2.0 * f.values), phi).field.values
    assert np.array_equal(doubled, 2.0 * mf.field.values)


def test_bilinear_power_and_power_conjugate_take_the_power_mean():
    f, g = rand_grid((6, 5), seed=71), rand_grid((6, 5), seed=72)
    phis = [Power(3.0), complementary(Power(1.5))]  # both exponents are 3
    mf = multilinear_orlicz_maximal([f, g], phis)
    assert mf.provenance["dispatch"] == "power_mean"
    assert max_rel_diff(mf.field.values, batch_field([f, g], phis, Basis())) <= 2e-9


@pytest.mark.parametrize("r, shape, seed", [(1.01, (40,), 75), (1.01, (12, 12), 75),
                                             (1.2, (40,), 3)], ids=["q101_1d", "q101_2d", "q6_1d"])
def test_power_form_whose_rounding_could_pass_tol_takes_the_ladder(r, shape, seed):
    # under a local basis the small boxes far from the maximum hold sums of
    # f^q far below the prefix sums' rounding: with q = 101 they underflow
    # to 0, and with q = 6 this draw's power mean is off by 1.6e-8
    rng = np.random.default_rng(seed)
    f = grid(np.exp(rng.normal(size=shape)))
    phi, basis = complementary(Power(r)), Basis(max_side=3)
    mf = orlicz_maximal(f, phi, basis)
    assert "dispatch" not in mf.provenance
    assert max_rel_diff(mf.field.values, batch_field([f], [phi], basis)) <= 1e-9
    # every member of the full basis reaches a box near the maximum
    assert orlicz_maximal(f, phi).provenance["dispatch"] == "power_mean"


@pytest.mark.parametrize("cover", [False, True], ids=["position", "cover"])
@pytest.mark.parametrize("take_min", [False, True], ids=["max", "min"])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_window_extreme_matches_direct_windows(axis, take_min, cover):
    # one decimal leaves ties between neighbours; the 37-cell axis takes
    # windows of 2**k and 2**k +- 1 cells up to k = 5
    rng = np.random.default_rng(29)
    for a in (np.round(rng.normal(size=(5, 4, 6)), 1), np.round(rng.normal(size=(3, 37, 2)), 1)):
        n = a.shape[axis]
        pick = np.min if take_min else np.max
        for s in range(1, n + 3 if cover else n + 1):
            if cover:  # cell x is covered by the positions in (x - s, x]
                spans = [range(max(0, x - s + 1), min(n, x + 1)) for x in range(n + s - 1)]
            else:
                spans = [range(i, i + s) for i in range(n - s + 1)]
            want = np.stack([pick(np.take(a, list(idx), axis=axis), axis=axis)
                             for idx in spans], axis=axis)
            got = _window_extreme(a, s, axis, take_min=take_min, cover=cover)
            assert np.array_equal(got, want), (a.shape, s)
            assert got.flags.c_contiguous, (a.shape, s)


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


def two_valued_grid(shape, seed, c=2.5):
    rng = np.random.default_rng(seed)
    vals = (rng.random(shape) < 0.3) * c
    vals.flat[0] = c
    return grid(vals)


@pytest.mark.parametrize("basis", BRUTE_BASES[:3], ids=BRUTE_BASIS_IDS[:3])
@pytest.mark.parametrize("shape", ORLICZ_SHAPES, ids=str)
def test_two_valued_fields_match_batch_brute_force_for_every_solver_phi(solver_phi, shape,
                                                                         basis):
    f = two_valued_grid(shape, seed=73)
    mf = assert_prune_exact([f], [solver_phi], basis)
    # a power or the conjugate of one still takes the power mean first
    want = "power_mean" if _power_form(solver_phi) else "two_valued"
    assert mf.provenance["dispatch"] == want
    assert max_rel_diff(mf.field.values, batch_field([f], [solver_phi], basis)) <= 1e-9


@pytest.mark.parametrize("basis", BRUTE_BASES[:3], ids=BRUTE_BASIS_IDS[:3])
@pytest.mark.parametrize("shape", [(13,), (7, 6), (4, 3, 3)], ids=str)
def test_two_valued_field_is_never_below_the_exact_norm(shape, basis):
    # Phi = t^2 up to a cap of 3: the exact norm of c chi_E on R is
    # max(c sqrt(a), c / 3), a = |E cap R| / |R|; compared in exact rationals
    c = Fraction(2.5)
    f = two_valued_grid(shape, seed=74, c=float(c))
    mf = orlicz_maximal(f, Power(2.0, domain_cap=3.0), basis)
    assert mf.provenance["dispatch"] == "two_valued"
    inside = (f.values > 0).astype(int)
    best = np.full(shape, Fraction(0), dtype=object)
    for sides in basis.shapes(shape):
        for lo in itertools.product(*(range(e - s + 1) for e, s in zip(shape, sides))):
            sl = tuple(slice(a, a + s) for a, s in zip(lo, sides))
            a = Fraction(int(inside[sl].sum()), int(np.prod(sides)))
            best[sl] = np.maximum(best[sl], a)
    for got, a in zip(mf.field.values.ravel(), best.ravel()):
        if a == 0:
            assert got == 0.0
        else:
            assert Fraction(got) >= c / 3 and Fraction(got) ** 2 >= c * c * a, (got, a)


def test_two_valued_field_past_the_float_range_raises_nobracket_as_the_solver_does():
    # Phi > 1 for every t > 0: no lam makes Phi(c / lam) <= 1 on the spike
    vals = np.zeros((3, 3))
    vals[1, 1] = 1.0
    with pytest.raises(NoBracket):
        orlicz_maximal(grid(vals), Tabulated([(1e-300, 2.0), (1.0, 3.0)]))


def test_indicator_draw_skips_the_ladder(monkeypatch):
    ladders = []
    monkeypatch.setattr(maximal, "_ladder", lambda *args: ladders.append(args))
    f = ProbeSuite(seed=0, resolutions=(64,)).functions(64)[0][1]
    for phi in (PowerLog(1.8, 1.0), complementary(PowerLog(2.0, 1.0))):
        assert orlicz_maximal(f, phi).provenance["dispatch"] == "two_valued"
    assert ladders == []


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


def shape_runs(sides):
    """(sides, i, j) for each run [i, j) of equal consecutive rows of sides."""
    cuts = [0, *(np.flatnonzero(np.any(sides[1:] != sides[:-1], axis=1)) + 1), len(sides)]
    return [(tuple(sides[i].tolist()), i, j) for i, j in zip(cuts, cuts[1:]) if i < j]


def fold_reference(shape, lo, sides, value):
    """The per-shape fold: one plane of positions and one cover pass per shape."""
    out = np.zeros(shape)
    for s, i, j in shape_runs(sides):
        plane = np.zeros(gridmod._position_grid(shape, s))
        plane[tuple(lo[i:j].T)] = value[i:j]
        np.maximum(out, maximal._window_extremes(plane, s, cover=True), out=out)
    return out


def floor_reference(lb, lo, sides):
    """The per-shape floor: each member's min of lb, from one window-min plane per shape."""
    return np.concatenate([np.empty(0)] + [
        maximal._window_extremes(lb, s, take_min=True)[tuple(lo[i:j].T)]
        for s, i, j in shape_runs(sides)])


def member_windows(shape, lo, sides):
    """_windows of members given by low corners and sides, each of a shape
    of its own (counts of ones)."""
    base = lo @ gridmod._strides(np.add(shape, 1))
    return maximal._windows(shape, base, sides, np.ones(len(lo), dtype=np.intp))


def fed_in_calls(out, lb, lo, sides, value, step):
    """The members through _fold into out and _floor of lb, in calls of step
    members; returns the floors."""
    floors = [np.empty(0)]
    for a in range(0, len(lo), step):
        windows = member_windows(lb.shape, lo[a:a + step], sides[a:a + step])
        maximal._fold(out, value[a:a + step], windows)
        floors.append(maximal._floor(lb, windows))
    return np.concatenate(floors)


@pytest.mark.parametrize("subset", ["all", "random", "empty"])
@pytest.mark.parametrize("basis", BRUTE_BASES[:3], ids=BRUTE_BASIS_IDS[:3])
@pytest.mark.parametrize("shape", [(9,), (40,), (9, 8), (5, 4, 3)], ids=str)
def test_fold_and_floor_tables_equal_per_shape_passes(shape, basis, subset):
    rng = np.random.default_rng(60)
    lo, sides = gridmod._members(shape, list(basis.shapes(shape)))
    keep = {"all": np.ones(len(lo), bool), "random": rng.random(len(lo)) < 0.3,
            "empty": np.zeros(len(lo), bool)}[subset]
    lo, sides = lo[keep], sides[keep]
    # one decimal leaves ties, and a third of the values are 0
    value = np.round(rng.random(len(lo)), 1) * (rng.random(len(lo)) < 0.67)
    lb = np.round(rng.random(shape), 1) * (rng.random(shape) < 0.67)
    want_field, want_floor = fold_reference(shape, lo, sides, value), floor_reference(lb, lo, sides)
    # all in one call (several runs per call), then in calls of 7 members,
    # which cut runs mid-way
    for step in (max(len(lo), 1), 7):
        out = np.zeros(shape)
        floors = fed_in_calls(out, lb, lo, sides, value, step)
        assert np.array_equal(out, want_field), step
        assert np.array_equal(floors, want_floor), step


def alternating_levels(sides):
    """An order of the members in which neighbours' levels floor(log2 s)
    on the first axis alternate in parity while both parities last."""
    level = np.frexp(sides[:, 0])[1]
    odd, even = np.flatnonzero(level % 2), np.flatnonzero(level % 2 == 0)
    both = min(len(odd), len(even))
    return np.concatenate([np.stack([odd[:both], even[:both]], axis=1).ravel(),
                           odd[both:], even[both:]])


@pytest.mark.parametrize("order", ["shuffled", "alternating"])
@pytest.mark.parametrize("basis", BRUTE_BASES[:3], ids=BRUTE_BASIS_IDS[:3])
@pytest.mark.parametrize("shape", [(9,), (40,), (9, 8), (5, 4, 3), (6, 7, 5)], ids=str)
def test_fold_and_floor_tables_do_not_lean_on_member_order(shape, basis, order):
    # the tables group members by the levels of their leading sides; the
    # groups must come out right whatever order the members come in
    rng = np.random.default_rng(66)
    lo, sides = gridmod._members(shape, list(basis.shapes(shape)))
    perm = rng.permutation(len(lo)) if order == "shuffled" else alternating_levels(sides)
    lo, sides = lo[perm], sides[perm]
    if order == "alternating":
        flips = np.frexp(sides[:-1, 0])[1] % 2 != np.frexp(sides[1:, 0])[1] % 2
        assert flips.mean() > 0.5
    value = np.round(rng.random(len(lo)), 1) * (rng.random(len(lo)) < 0.67)
    lb = np.round(rng.random(shape), 1) * (rng.random(shape) < 0.67)
    want_field, want_floor = fold_reference(shape, lo, sides, value), floor_reference(lb, lo, sides)
    for step in (len(lo), 7):
        out = np.zeros(shape)
        floors = fed_in_calls(out, lb, lo, sides, value, step)
        assert np.array_equal(out, want_field), step
        assert np.array_equal(floors, want_floor), step


@pytest.mark.parametrize("shape", [(40,), (9, 8), (6, 7, 5)], ids=str)
def test_block_windows_equal_those_of_its_members(shape, monkeypatch):
    # a block computes each shape's offsets once; they must be the
    # per-member windows, in blocks that cut the shapes into several
    monkeypatch.setattr(maximal, "_SEARCH_BLOCK", 50)
    blocks = list(maximal._blocks(shape, list(Basis().shapes(shape))))
    assert len(blocks) > 1
    for blk in blocks:
        idx, key = member_windows(shape, blk.lo, blk.sides)
        assert np.array_equal(blk.windows[0], idx) and np.array_equal(blk.windows[1], key)
        assert np.array_equal(idx[:, 0] % np.prod(np.add(shape, 1)), blk.base)


@pytest.mark.parametrize("shape", [(9, 8), (5, 4, 3)], ids=str)
def test_orlicz_sweep_is_exact_when_search_blocks_cut_leading_runs(shape, monkeypatch):
    f = rand_grid(shape, seed=61)
    g = step_grid(shape, seed=62)
    phis = [PowerLog(1.8, 1.0), PowerLogLog(2.0, 1.5, 1.5)]
    want = [orlicz_maximal(f, phis[0]).field.values,
            multilinear_orlicz_maximal([f, g], phis).field.values]
    # blocks of whole shapes of at most 7 members: runs of leading sides
    # span many blocks, so each run is folded and floored in pieces
    monkeypatch.setattr(maximal, "_SEARCH_BLOCK", 7)
    assert np.array_equal(orlicz_maximal(f, phis[0]).field.values, want[0])
    assert np.array_equal(multilinear_orlicz_maximal([f, g], phis).field.values, want[1])


def test_orlicz_sweep_makes_a_few_window_passes_per_leading_run(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return _window_extreme(*args, **kwargs)

    monkeypatch.setattr(maximal, "_window_extreme", counting)
    orlicz_maximal(rand_grid((12, 12), seed=44), PowerLog(1.8, 1.0))
    # 4 level groups of leading sides (floor(log2 s0) = 0..3): one pass
    # each to fold LB, to build the floors in the search and to fold the
    # field, plus 12 (one per s0) in the average sweep behind the ladder's
    # Jensen start, 24 in all (the trims skip the last block, here every
    # member); per-shape passes made 766, one pass per run of s0 made 48
    assert len(calls) <= 5 * 12


def two_pass_counts(fs, phis, basis, tol=1e-9):
    """rects_solved and pruned by the two-pass rule: LB folded from the L
    of every member first, then every live member tested against its floor
    of that LB, with the per-shape fold and floor written above."""
    shape = fs[0].shape
    shapes = list(basis.shapes(shape))
    n_max = max(int(np.prod(s)) for s in shapes)
    least = float(strong_maximal(fs[0], basis).field.values.min()) if len(fs) == 1 else 0.0
    ladders = [maximal._ladder(f, phi, n_max, least) for f, phi in zip(fs, phis)]
    blocks = list(maximal._blocks(shape, shapes))
    lo = np.concatenate([blk.lo for blk in blocks])
    sides = np.concatenate([blk.sides for blk in blocks])
    lower, upper = (np.concatenate([np.prod([maximal._brackets(lad, blk)[i] for lad in ladders],
                                            axis=0) for blk in blocks]) for i in (0, 1))
    lb = fold_reference(shape, lo, sides, lower)
    # a member is live when every f_j is positive somewhere on it
    live = np.logical_and.reduce([floor_reference(-np.sign(f.values), lo, sides) < 0 for f in fs])
    solved = live & (upper * (1.0 + 4.0 * tol) ** len(fs) >= floor_reference(lb, lo, sides))
    return int(solved.sum()), int(live.sum() - solved.sum())


@pytest.mark.parametrize("block", [maximal._SEARCH_BLOCK, 7])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("basis", BRUTE_BASES[:3], ids=BRUTE_BASIS_IDS[:3])
@pytest.mark.parametrize("shape", [(40,), (9, 8), (5, 4, 3)], ids=str)
def test_orlicz_candidates_match_a_two_pass_reference(shape, basis, m, block, monkeypatch):
    # the sweep floors each block against a partial LB and trims against
    # the final one: the candidates must be those of LB built in full first
    monkeypatch.setattr(maximal, "_SEARCH_BLOCK", block)
    fs = [rand_grid(shape, seed=64), step_grid(shape, seed=65)][:m]
    phis = [PowerLog(1.8, 1.0), PowerLogLog(2.0, 1.5, 1.5)][:m]
    prov = maximal._orlicz_field(fs, phis, basis, maximal.DEFAULT_BUDGET, 1e-9, True).provenance
    solved, pruned = two_pass_counts(fs, phis, basis)
    assert (prov["rects_solved"], prov["pruned"]) == (solved, pruned)
    assert pruned > 0


def test_orlicz_walk_holds_at_most_twice_the_last_trim_plus_a_block(monkeypatch):
    # on a nearly two-valued input the floors stay low until late blocks,
    # so the walk keeps far more members than it solves; the kept members
    # are trimmed each time they double, not only once the walk ends (the
    # third box a hair above 1 keeps the input off the two-valued dispatch)
    vals = np.zeros((24, 24))
    for box, v in zip([np.s_[2:9, 3:15], np.s_[10:22, 1:6], np.s_[14:20, 12:23]],
                      [1.0, 1.0, 1.0 + 2.0**-20]):
        vals[box] = v
    monkeypatch.setattr(maximal, "_SEARCH_BLOCK", 256)
    shapes = list(Basis().shapes(vals.shape))
    block = max(len(blk.lo) for blk in maximal._blocks(vals.shape, shapes))
    trims = []
    real_trimmed = maximal._trimmed

    def counting_trimmed(kept, lb):
        held = sum(len(chunk[0]) for chunk in kept)
        out = real_trimmed(kept, lb)
        trims.append((held, len(out[0])))
        return out

    monkeypatch.setattr(maximal, "_trimmed", counting_trimmed)
    prov = orlicz_maximal(grid(vals), PowerLog(1.8, 1.0)).provenance
    assert trims[-1][1] == prov["rects_solved"]
    survivors = 0
    for held, left in trims:
        assert held <= 2 * survivors + block, (held, survivors, block)
        survivors = left
    # the trims before the last drop members the partial floors let by
    assert sum(held - left for held, left in trims[:-1]) > 0


@pytest.mark.parametrize("case", ["lognormal_12x12", "bilinear_9x8"])
def test_orlicz_sweep_searches_the_brackets_once_per_block(case, monkeypatch):
    if case == "lognormal_12x12":
        fs, phis = [rand_grid((12, 12), seed=44)], [PowerLog(1.8, 1.0)]
    else:
        fs = [rand_grid((9, 8), seed=61), step_grid((9, 8), seed=62)]
        phis = [PowerLog(1.8, 1.0), PowerLogLog(2.0, 1.5, 1.5)]
        monkeypatch.setattr(maximal, "_SEARCH_BLOCK", 7)
    shape = fs[0].shape
    blocks = len(list(maximal._blocks(shape, list(Basis().shapes(shape)))))
    searches = []
    real_brackets = maximal._brackets

    def counting_brackets(*args):
        searches.append(len(args[1].lo))
        return real_brackets(*args)

    monkeypatch.setattr(maximal, "_brackets", counting_brackets)
    maximal._orlicz_field(fs, phis, Basis(), maximal.DEFAULT_BUDGET, 1e-9, True)
    # one search per block and function, whether the grid is one block
    # (6,084 members) or many; a search for LB and another for U made twice
    # as many
    assert (blocks == 1) == (len(fs) == 1)
    assert len(searches) == len(fs) * blocks


@pytest.mark.parametrize("shape", [(3000,), (128, 128)], ids=str)
def test_fold_and_floor_tables_hold_levels_not_pair_planes(shape):
    rng = np.random.default_rng(63)
    n = shape[-1]
    lead = [(s,) for s in range(1, shape[0] + 1)] if len(shape) == 2 else [()]
    lo, sides = [], []
    for s in lead:  # 300 members of every run, in run order
        last = rng.integers(1, n + 1, size=300)
        pos = [rng.integers(0, e - x + 1, size=300) for e, x in zip(shape[:-1], s)]
        lo.append(np.stack(pos + [rng.integers(0, n - last + 1)], axis=1))
        sides.append(np.column_stack([np.full((300, len(s)), s, dtype=np.intp), last]))
    lo, sides = np.concatenate(lo).astype(np.intp), np.concatenate(sides).astype(np.intp)
    value, lb = rng.random(len(lo)), rng.random(shape)
    out = np.zeros(shape)
    tracemalloc.start()
    try:
        fed_in_calls(out, lb, lo, sides, value, 1 << 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one table of levels x leading positions x n floats at a time, plus
    # the members' floors; a (n+1)^2 pair plane per leading position would
    # take 72 MB at 3,000 cells and 17 MB per run at 128^2
    positions = int(np.prod(shape[:-1]))  # leading positions of the widest run
    table = 8 * n.bit_length() * positions * n
    bound = 3 * table + 16 * len(lo)
    assert bound < 8 * (n + 1) ** 2 * positions
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("run_cells", [gridmod._RUN_CELLS, 64])
def test_orlicz_prune_is_exact_when_a_solve_chunk_mixes_cell_counts(monkeypatch, run_cells):
    f = rand_grid((6, 5), seed=47)
    g = step_grid((6, 5), seed=48)
    phis = [PowerLog(1.8, 1.0), PowerLogLog(2.0, 1.5, 1.5)]
    want = [orlicz_maximal(f, phis[0]).field.values,
            multilinear_orlicz_maximal([f, g], phis).field.values]
    lengths = []

    def recording(rows, *args, **kwargs):
        lengths.append(set(rows.lengths.tolist()))
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


@pytest.mark.parametrize("phi", [PowerLog(1.8, 1.0), complementary(Power(1.5)),
                                 complementary(PowerLog(2.0, 1.0))],
                         ids=["power_log", "complement", "complement_log"])
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


def test_overflowing_orlicz_product_raises_at_the_first_block(monkeypatch):
    # prod L = inf in the first block proves the field is not finite: no
    # later block is searched and no member is solved
    calls = {"_brackets": 0, "_box_norms": 0}
    for name in calls:
        def counting(*args, real=getattr(maximal, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(maximal, name, counting)
    fs = [rand_grid((24, 24), seed=1), rand_grid((24, 24), seed=2)]
    phis = [PowerLog(1.8, 1.0)] * 2
    assert len(list(maximal._blocks((24, 24), list(Basis().shapes((24, 24)))))) > 1
    with pytest.raises(NonFinite, match="overflows the float range"):
        multilinear_orlicz_maximal([f.with_values(f.values * 1e200) for f in fs], phis)
    assert calls == {"_brackets": 2, "_box_norms": 0}
    multilinear_orlicz_maximal(fs, phis)  # unscaled, the candidates are solved
    assert calls["_box_norms"] == 2


@pytest.mark.parametrize("cores", [1, 3])
def test_overflowing_products_raise_nonfinite(monkeypatch, cores):
    # each average or norm is 1e200, their product is past the float range
    force_threads(monkeypatch, cores)
    small, large = grid(np.full((6, 6), 1e200)), grid(np.full((48, 48), 1e200))
    for basis in (Basis(), Basis(CUBES)):
        for f in (small, large):
            with pytest.raises(NonFinite):
                multilinear_maximal([f, f], basis)
            with pytest.raises(NonFinite):
                multilinear_orlicz_maximal([f, f], [Power(2.0)] * 2, basis)
        with pytest.raises(NonFinite):
            multilinear_orlicz_maximal([small, small], [PowerLog(1.8, 1.0)] * 2, basis)
    # one factor below 1 keeps the product in range
    tame = grid(np.full((6, 6), 1e-150))
    assert np.allclose(multilinear_maximal([small, tame]).field.values, 1e50)
