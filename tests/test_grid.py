"""Grid container, rectangle sums, Luxemburg norms, file round trips."""

import numpy as np
import pytest
from conftest import SOLVER_IDS, SOLVER_PHIS

from orliczmax import grid
from orliczmax.errors import DimensionError, EmptyRect, GeometryMismatch, NoBracket
from orliczmax.grid import (GridFunction, Rect, RowBlocks, SummedAreaTable, luxemburg_batch,
                            luxemburg_norm, norm_lp, read_grid, rect_average,
                            write_grid)
from orliczmax.maximal import Basis
from orliczmax.weights import RectFamilySpec
from orliczmax.young import Power, PowerLog, Tabulated, YoungFunction, complementary


def grid2(vals, spacing=0.5):
    vals = np.asarray(vals, dtype=float)
    return GridFunction(vals.shape, (0.0,) * vals.ndim, (spacing,) * vals.ndim, vals)


def test_values_clamped_and_readonly():
    f = grid2([[1.0, -2.0], [0.5, 3.0]])
    assert f.values[0, 1] == 0.0
    with pytest.raises(ValueError):
        f.values[0, 0] = 9.0


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        grid2([[1.0, np.nan]])


def test_dimension_limits():
    with pytest.raises(DimensionError):
        GridFunction((2, 2, 2, 2), (0,) * 4, (1,) * 4, np.ones((2, 2, 2, 2)))


def test_geometry_mismatch():
    with pytest.raises(GeometryMismatch):
        GridFunction((2, 2), (0.0,), (1.0, 1.0), np.ones((2, 2)))


def test_sample_and_centers():
    f = GridFunction.sample(lambda x, y: x + y, (4, 4), (0.0, 0.0), (0.5, 0.5))
    assert f.values[0, 0] == pytest.approx(0.5)
    assert f.values[3, 3] == pytest.approx(3.5)


def test_indicator_box():
    f = GridFunction.indicator_box((8, 8), (0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (5.0, 5.0))
    assert f.values.sum() == 9.0


def test_rect_basics():
    r = Rect((1, 2), (4, 5))
    assert r.ncells == 9
    assert r.sides() == (3, 3)
    assert r.contains_cell((2, 3))
    assert not r.contains_cell((0, 0))


def test_empty_rect_rejected():
    with pytest.raises(EmptyRect):
        Rect((2, 2), (2, 5))


def test_rect_average_matches_direct_mean():
    rng = np.random.default_rng(1)
    f = grid2(rng.uniform(0.1, 5.0, size=(10, 7)))
    sat = SummedAreaTable(f)
    r = Rect((2, 1), (9, 6))
    direct = float(f.values[2:9, 1:6].mean())
    assert rect_average(sat, r) == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize("shape", [(23,), (9, 11), (5, 6, 7)], ids=str)
@pytest.mark.parametrize("scale", [1.0, 1e307], ids=["plain", "near_max"])
def test_averages_match_rect_average_bit_for_bit(shape, scale):
    # the vector gather must difference in rect_sum's order; lognormal values
    # make the rounding of each order differ
    rng = np.random.default_rng(len(shape))
    vals = rng.lognormal(0.0, 2.0, size=shape)
    sat = SummedAreaTable(grid2(vals / vals.max() * scale))
    assert (sat.exponent > 0) == (scale > 1.0)
    lo = np.array([rng.integers(0, n, size=3000) for n in shape]).T
    sides = np.array([rng.integers(1, n - a + 1) for n, a in zip(shape, lo.T)]).T
    got = sat.averages(lo, sides)
    want = [rect_average(sat, Rect(a, a + s)) for a, s in zip(lo, sides)]
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("lo, sides, error", [
    ([[0, 3]], [[1, 3]], GeometryMismatch),  # past the last column
    ([[3, 0]], [[2, 1]], GeometryMismatch),  # past the last row
    ([[-1, 0]], [[2, 2]], EmptyRect),
    ([[0, 0]], [[2, 0]], EmptyRect),
    ([[0, 0, 0]], [[1, 1, 1]], GeometryMismatch),
    ([0, 0], [1, 1], GeometryMismatch),
], ids=["cols", "rows", "negative", "empty", "dim", "flat"])
def test_averages_reject_boxes_outside_grid(lo, sides, error):
    sat = SummedAreaTable(grid2(np.arange(1.0, 17.0).reshape(4, 4)))
    with pytest.raises(error):
        sat.averages(np.array(lo), np.array(sides))


def test_luxemburg_power_closed_form():
    # mean phi(f/lam) = 1 solves to the r-mean for phi(t) = t^r
    rng = np.random.default_rng(2)
    f = grid2(rng.uniform(0.5, 2.0, size=(6, 6)))
    r = Rect((0, 0), (6, 6))
    got = luxemburg_norm(f, r, Power(2.0))
    want = float(np.sqrt((f.values**2).mean()))
    assert got == pytest.approx(want, rel=1e-8)


def test_luxemburg_zero_function_is_zero():
    f = grid2(np.zeros((4, 4)))
    assert luxemburg_norm(f, Rect((0, 0), (4, 4)), Power(2.0)) == 0.0


def test_luxemburg_scaling():
    rng = np.random.default_rng(3)
    f = grid2(rng.uniform(0.2, 3.0, size=(5, 5)))
    r = Rect((1, 1), (4, 5))
    a = luxemburg_norm(f, r, PowerLog(2.0, 1.0))
    b = luxemburg_norm(f.with_values(2.0 * f.values), r, PowerLog(2.0, 1.0))
    assert b == pytest.approx(2.0 * a, rel=1e-8)


def test_luxemburg_batch_matches_singles():
    rng = np.random.default_rng(4)
    rows = rng.uniform(0.0, 4.0, size=(8, 12))
    phi = PowerLog(1.8, 1.0)
    batch = luxemburg_batch(rows, phi)
    f = grid2(rows, spacing=1.0)
    for i in range(rows.shape[0]):
        single = luxemburg_norm(f, Rect((i, 0), (i + 1, 12)), phi)
        assert batch[i] == pytest.approx(single, rel=1e-9)


@pytest.mark.parametrize("phi", [PowerLog(1.8, 1.0), complementary(Power(1.5))])
def test_luxemburg_batch_row_does_not_depend_on_batch(phi):
    rng = np.random.default_rng(6)
    # rows of very different scale and spread converge after different
    # numbers of bisection steps
    rows = rng.uniform(0.0, 4.0, size=(10, 9)) * np.geomspace(1e-3, 1e3, 10)[:, None]
    rows[3] = 0.0
    rows[4, 1:] = 0.0
    m = rows.max(axis=1)
    lo, hi = m / 9.0, m * 4.0
    batch = luxemburg_batch(rows, phi)
    hinted = luxemburg_batch(rows, phi, lo_hint=lo, hi_hint=hi)
    for i in range(rows.shape[0]):
        assert batch[i] == luxemburg_batch(rows[i:i + 1], phi)[0]
        assert hinted[i] == luxemburg_batch(rows[i:i + 1], phi, lo_hint=lo[i:i + 1],
                                            hi_hint=hi[i:i + 1])[0]


def mixed_matrices(rng):
    """Matrices of 1 to 300 cells per row, with zero rows and extreme scales."""
    mats = []
    for length in (1, 2, 3, 7, 8, 9, 17, 64, 129, 300):
        rows = np.exp(rng.normal(size=(4, length))) * np.geomspace(1e-3, 1e3, 4)[:, None]
        rows[1] = 0.0
        rows[2, ::2] = 0.0
        mats.append(rows)
    mats[3][0] *= 1e-150
    mats[-2][3] *= 1e150
    return mats


def check_mixed_rows(phi, run_cells, monkeypatch):
    """A batch of mixed_matrices cut into runs of run_cells equals single-row solves."""
    monkeypatch.setattr(grid, "_RUN_CELLS", run_cells)
    runs = []
    solve_rows = grid._solve_rows

    def recording(cells, lengths, *args):
        runs.append(lengths.tolist())
        return solve_rows(cells, lengths, *args)

    monkeypatch.setattr(grid, "_solve_rows", recording)
    rng = np.random.default_rng(7)
    mats = mixed_matrices(rng)
    rows = [row[None] for m in mats for row in m]
    m = np.array([row.max() for row in rows])
    lo, hi = m / 9.0, m * 4.0
    batch = luxemburg_batch(RowBlocks(mats), phi)
    assert batch.shape == (len(rows),)
    # consecutive runs of the nonzero rows, each as long as the bound allows
    expected, run = [], []
    for row in rows:
        if row.max() > 0:
            if run and sum(run) + row.size > run_cells:
                expected.append(run)
                run = []
            run.append(row.size)
    assert runs == expected + [run]
    hinted = luxemburg_batch(mats, phi, lo_hint=lo, hi_hint=hi)
    for i, row in enumerate(rows):
        assert batch[i] == luxemburg_batch(row, phi)[0]
        assert hinted[i] == luxemburg_batch(row, phi, lo_hint=lo[i:i + 1],
                                            hi_hint=hi[i:i + 1])[0]
    # one matrix is the same path as a sequence of one
    assert np.array_equal(luxemburg_batch(mats[-1], phi),
                          luxemburg_batch([mats[-1]], phi))


def test_luxemburg_batch_of_mixed_row_lengths_equals_single_rows(solver_phi, monkeypatch):
    check_mixed_rows(solver_phi, grid._RUN_CELLS, monkeypatch)


def test_luxemburg_batch_runs_of_whole_rows_equal_single_rows(solver_phi, monkeypatch):
    # at 50 cells a run the batch is cut into many runs, and the 64-, 129-
    # and 300-cell rows each go alone; no norm may move by a bit
    check_mixed_rows(solver_phi, 50, monkeypatch)


@pytest.mark.parametrize("shape", [(9, 7), (5, 4, 3)], ids=str)
def test_box_norms_equal_single_row_solves_in_input_order(solver_phi, shape, monkeypatch):
    # a stratified draw mixes shapes in random order; at 50 cells a run,
    # runs end inside a shape and a run can hold two shapes
    monkeypatch.setattr(grid, "_RUN_CELLS", 50)
    batch, calls = grid.luxemburg_batch, []

    def recording(rows, *args):
        calls.append([np.shape(m) for m in rows])
        return batch(rows, *args)

    monkeypatch.setattr(grid, "luxemburg_batch", recording)
    rng = np.random.default_rng(11)
    values = np.exp(2.0 * rng.normal(size=shape))
    values[..., 0] = 0.0  # boxes on the first layer only have all-zero rows
    lo, sides = RectFamilySpec(mode="stratified", count=200, seed=3)._draw(shape, Basis())
    rows = [values[tuple(map(slice, a, b))].reshape(1, -1)
            for a, b in zip(lo.tolist(), (lo + sides).tolist())]
    top = np.array([row.max() for row in rows])
    # hints on either side of the norm, some of them wrong
    lo_hint = top * rng.uniform(1e-3, 2.0, size=top.size)
    hi_hint = top * rng.uniform(0.5, 1e3, size=top.size)
    plain = grid._box_norms(values, lo, sides, solver_phi)
    hinted = grid._box_norms(values, lo, sides, solver_phi, 1e-9, lo_hint, hi_hint)
    for i, row in enumerate(rows):
        assert plain[i] == batch(row, solver_phi)[0]
        assert hinted[i] == batch(row, solver_phi, lo_hint=lo_hint[i:i + 1],
                                  hi_hint=hi_hint[i:i + 1])[0]
    # every run within 50 cells or one row, some with two shapes, and some
    # shape with more than 50 cells in all, so cut between runs
    assert all(sum(r * c for r, c in call) <= 50 or call == [(1, call[0][1])]
               for call in calls)
    assert any(len(call) > 1 for call in calls)
    kinds, counts = np.unique(sides, axis=0, return_counts=True)
    assert np.any(counts * np.prod(kinds, axis=1) > 50)


def test_box_norms_of_no_boxes_call_no_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the solver was called")

    monkeypatch.setattr(grid, "luxemburg_batch", refuse)
    none = np.zeros((0, 2), dtype=np.intp)
    out = grid._box_norms(np.ones((4, 3)), none, none, PowerLog(1.8, 1.0))
    assert out.shape == (0,) and out.dtype == float
    monkeypatch.undo()
    with pytest.raises(ValueError):
        luxemburg_batch([], PowerLog(1.8, 1.0))


def test_row_blocks_report_rows_and_cells_as_a_matrix_does():
    mats = mixed_matrices(np.random.default_rng(7))
    rows, per_row = np.shape(RowBlocks(mats))
    assert rows == 4 * len(mats)
    assert rows * per_row == pytest.approx(sum(m.size for m in mats), rel=1e-15)


def test_luxemburg_hint_past_the_float_range_of_a_tiny_row():
    # scaled with the row into [1/2, 1), a hint of 1e10 above a row of
    # 1e-300 overflows; the solver walks down from the largest float instead
    phi, tol = PowerLog(1.8, 1.0), 1e-9
    rows = np.array([[1e-300, 0.0], [3e-301, 1e-300]])
    lam = luxemburg_batch(rows, phi, tol=tol, lo_hint=np.full(2, 1e10),
                          hi_hint=np.full(2, 2e10))
    assert np.all(phi_mean(phi, rows, lam) <= 1.0)
    assert np.all(phi_mean(phi, rows, lam * (1.0 - tol)) > 1.0)


def solver_rows():
    """Lognormal rows plus a row with zeros, single spikes and extreme scales."""
    rng = np.random.default_rng(8)
    rows = np.exp(rng.normal(size=(12, 20)))
    rows[0, 5:] = 0.0
    rows[1] = 0.0
    rows[1, 7] = 3.0
    rows[2] = 0.0
    rows[2, 0] = 1e-3
    rows[3] *= 1e-150
    rows[4] *= 1e150
    return rows


@pytest.mark.parametrize("phi", [PowerLog(2.0, 1.0), complementary(Power(1.5))])
def test_luxemburg_power_of_two_scaling_is_exact(phi):
    rng = np.random.default_rng(10)
    rows = rng.uniform(0.2, 5.0, size=(50, 12))
    base = luxemburg_batch(rows, phi)
    for c in (4.0, 0.03125, 1024.0):
        assert np.array_equal(luxemburg_batch(c * rows, phi), c * base)


def phi_mean(phi, rows, lam):
    return np.mean(phi.eval(rows / lam[:, None]), axis=1)


# norms far outside the start bracket [m * 1e-14, m * 1e3]: past a jump to
# +inf at 1e70 times the row maximum, and inside a zero stretch below 1e100
FAR_PHIS = [Power(2.0, domain_cap=1e-70),
            Tabulated([(1e100, 0.0), (2e100, 1.0), (4e100, 4.0)])]


@pytest.mark.parametrize("phi", SOLVER_PHIS + FAR_PHIS,
                         ids=SOLVER_IDS + ["cap_1e-70", "zero_below_1e100"])
def test_luxemburg_returns_certified_upper_end(phi):
    # G <= 1 at the returned lam, and G > 1 a relative tol below it
    tol = 1e-9
    for rows in (solver_rows(), np.array([[1.0, 0.5]])):
        lam = luxemburg_batch(rows, phi, tol=tol)
        assert np.all(lam > 0)
        assert np.all(phi_mean(phi, rows, lam) <= 1.0)
        assert np.all(phi_mean(phi, rows, lam * (1.0 - tol)) > 1.0)


def test_luxemburg_bracket_search_stops_only_at_the_float_range():
    # G > 1 up to the largest float: no finite norm
    with pytest.raises(NoBracket):
        luxemburg_batch(np.array([[1.0, 0.5]]), Tabulated([(1e-300, 2.0), (1.0, 3.0)]))
    # G = 0 down to the smallest float: the norm is 0
    vanishing = Tabulated([(1.0, 0.0), (2.0, 0.0)])
    assert np.array_equal(luxemburg_batch(solver_rows(), vanishing), np.zeros(12))


class CountingPhi(YoungFunction):
    """Counts the evaluations of a wrapped Young function."""

    def __init__(self, base):
        self.base = base
        self.domain_cap = base.domain_cap
        self.calls = 0

    def eval(self, t):
        self.calls += 1
        return self.base.eval(t)


def test_unhinted_luxemburg_row_takes_few_phi_means(solver_phi):
    # a single row makes each Phi evaluation one Phi-mean; fixed bisection
    # took 44-45 from the unhinted bracket
    rng = np.random.default_rng(9)
    for _ in range(20):
        counting = CountingPhi(solver_phi)
        luxemburg_batch(np.exp(rng.normal(size=(1, 30))), counting)
        assert counting.calls <= 16


def test_norm_lp_and_weight():
    f = grid2(np.full((4, 4), 2.0), spacing=0.5)
    # integral of 2^2 over a 2x2 box is 16 cells * 0.25 area * 4
    assert norm_lp(f, 2.0) == pytest.approx(np.sqrt(16.0))
    w = f.with_values(np.full((4, 4), 3.0))
    assert norm_lp(f, 2.0, weight=w) == pytest.approx(np.sqrt(48.0))


def test_grid_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    f = GridFunction((5, 3), (-1.0, 2.0), (0.25, 0.125),
                     rng.uniform(0.0, 7.0, size=(5, 3)))
    path = tmp_path / "f.grid"
    write_grid(f, str(path))
    g = read_grid(str(path))
    assert g.shape == f.shape
    assert g.origin == f.origin
    assert g.spacing == f.spacing
    assert np.array_equal(g.values, f.values)


def test_grid_file_header_is_json_line(tmp_path):
    f = grid2(np.ones((2, 2)))
    path = tmp_path / "h.grid"
    write_grid(f, str(path))
    import json

    with open(path) as fh:
        head = json.loads(fh.readline())
    assert head["dim"] == 2
    assert head["shape"] == [2, 2]


def test_read_grid_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text('{"dim": 2, "shape": [2], "origin": [0], "spacing": [1]}\n1 2\n')
    with pytest.raises((ValueError, GeometryMismatch)):
        read_grid(str(path))


def test_sat_scales_only_when_the_running_total_would_overflow():
    vals = np.random.default_rng(3).uniform(0.5, 2.0, size=(8, 8))
    plain = SummedAreaTable(grid2(vals))
    assert plain.exponent == 0
    assert np.array_equal(plain.table[1:, 1:], np.cumsum(np.cumsum(vals, axis=0), axis=1))
    sat = SummedAreaTable(grid2(vals * 2.0**1020))
    assert sat.exponent > 0
    for r in (Rect((0, 0), (8, 8)), Rect((2, 3), (5, 4)), Rect((7, 7), (8, 8))):
        # the scaling is a power of two, so it commutes with the average exactly
        assert rect_average(sat, r) == rect_average(plain, r) * 2.0**1020
    # a sum past the float range is inf, its mean is not
    ones = SummedAreaTable(grid2(np.full((8, 8), 1e307)))
    assert ones.rect_sum(Rect((0, 0), (8, 8))) == np.inf
    assert rect_average(ones, Rect((0, 0), (8, 8))) == pytest.approx(1e307, rel=1e-15)
