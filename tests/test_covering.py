"""Scattered-subfamily selection and exponential overlap accounting."""

import math

import numpy as np
import pytest

from orliczmax.covering import (RectFamily, cf_overlap_check, choose_cf_subfamily,
                                largest_passing_delta, select_scattered,
                                verify_scattered, weight_growth_check,
                                weight_growth_sweep)
from orliczmax.errors import DimensionError, GeometryMismatch
from orliczmax.grid import GridFunction, Rect


def fam(shape, boxes, weight=None):
    return RectFamily(tuple(shape), tuple(Rect(tuple(a), tuple(b)) for a, b in boxes),
                      weight=weight)


def test_disjoint_family_keeps_everything():
    f = fam((12, 12), [((0, 0), (4, 4)), ((5, 5), (9, 9)), ((0, 8), (3, 12))])
    sel = select_scattered(f, 0.25)
    assert sel.kept == (0, 1, 2)
    assert verify_scattered(f, sel)["ok"]


def test_duplicates_keep_first_only():
    box = ((2, 2), (8, 8))
    f = fam((12, 12), [box, box, box])
    sel = select_scattered(f, 0.5)
    assert sel.kept == (0,)


def test_alpha_one_keeps_everything():
    f = fam((10, 10), [((0, 0), (6, 6)), ((1, 1), (7, 7)), ((2, 2), (8, 8))])
    assert select_scattered(f, 1.0).kept == (0, 1, 2)


def test_alpha_zero_requires_disjoint():
    f = fam((10, 10), [((0, 0), (6, 6)), ((5, 5), (9, 9)), ((6, 0), (9, 4))])
    sel = select_scattered(f, 0.0)
    # second overlaps the first in one cell, third is disjoint from the first
    assert sel.kept == (0, 2)


def test_kept_fraction_bound_holds():
    rng = np.random.default_rng(6)
    boxes = []
    for _ in range(40):
        lo = rng.integers(0, 24, size=2)
        hi = [int(rng.integers(l + 1, 33)) for l in lo]
        boxes.append((tuple(int(x) for x in lo), tuple(hi)))
    f = fam((32, 32), boxes)
    for alpha in (0.25, 0.5, 0.75):
        rep = verify_scattered(f, select_scattered(f, alpha))
        assert rep["ok"], rep
        assert rep["worst_fraction"] <= alpha + 1e-12


def test_selection_order_not_monotone_in_alpha():
    # a looser alpha can admit an early set that then blocks a later one,
    # so kept(alpha) need not grow with alpha
    f = fam((20, 20), [((0, 0), (10, 10)), ((0, 6), (10, 16)), ((0, 9), (10, 19))])
    assert select_scattered(f, 0.25).kept == (0, 2)
    assert select_scattered(f, 0.5).kept == (0, 1)


def test_family_bounds_checked():
    with pytest.raises(GeometryMismatch):
        fam((8, 8), [((0, 0), (9, 4))])


def test_growth_sweep_bracket():
    rng = np.random.default_rng(7)
    boxes = []
    for _ in range(25):
        lo = rng.integers(0, 12, size=2)
        hi = [int(rng.integers(l + 1, 17)) for l in lo]
        boxes.append((tuple(int(x) for x in lo), tuple(hi)))
    w = GridFunction((16, 16), (0.0, 0.0), (0.5, 0.5),
                     rng.uniform(0.2, 4.0, size=(16, 16)))
    f = fam((16, 16), boxes, weight=w)
    sel = select_scattered(f, 0.5)
    rep = weight_growth_sweep(f, sel, w)
    # trimming drops kept-covered cells from the tail, so the two-piece
    # bracket is a genuine cover of the union mass
    assert rep["implied_constant"] <= 1.0 + 1e-12


def growth_case(seed, n=18):
    rng = np.random.default_rng(seed)
    boxes = []
    for _ in range(n):
        lo = rng.integers(0, 10, size=2)
        hi = [int(rng.integers(l + 1, 13)) for l in lo]
        boxes.append((tuple(int(x) for x in lo), tuple(hi)))
    w = GridFunction((12, 12), (0.0, 0.0), (0.25, 0.25),
                     np.exp(rng.normal(size=(12, 12))))
    f = fam((12, 12), boxes, weight=w)
    return f, select_scattered(f, 0.4), w


@pytest.mark.parametrize("seed", [9, 10])
def test_growth_check_matches_masks_built_from_scratch(seed):
    f, sel, w = growth_case(seed)
    kept = set(sel.kept)

    def mass(mask):
        return float(w.values[mask].sum()) * w.cell_volume

    for i, j in [(0, 1), (0, len(f)), (3, 11), (7, 8), (5, len(f))]:
        full, prefix, tail, covered = (np.zeros(f.shape, dtype=bool) for _ in range(4))
        for k, r in enumerate(f.rects[:j]):
            full[r.slices] = True
            if k < i:
                prefix[r.slices] = True
            m = np.zeros(f.shape, dtype=bool)
            m[r.slices] = True
            if k in kept:
                covered |= m
            else:
                m &= ~covered
            if k >= i:
                tail |= m
        rep = weight_growth_check(f, sel, w, i, j)
        assert (rep["lhs"], rep["prefix_mass"], rep["trimmed_tail_mass"]) == (
            mass(full), mass(prefix), mass(tail))
        assert rep["implied_constant"] == rep["lhs"] / rep["bracket"]


@pytest.mark.parametrize("seed", [9, 10])
def test_growth_sweep_is_first_maximum_of_check_loop(seed):
    f, sel, w = growth_case(seed)
    best = {"implied_constant": -np.inf}
    for j in range(1, len(f) + 1):
        for i in range(j):
            rep = weight_growth_check(f, sel, w, i, j)
            if rep["implied_constant"] > best["implied_constant"]:
                best = rep
    assert weight_growth_sweep(f, sel, w) == best


def test_growth_rejects_weight_on_another_grid():
    f, sel, _ = growth_case(9)
    other = GridFunction((12, 13), (0.0, 0.0), (0.25, 0.25), np.ones((12, 13)))
    with pytest.raises(GeometryMismatch):
        weight_growth_sweep(f, sel, other)
    with pytest.raises(GeometryMismatch):
        weight_growth_check(f, sel, other, 0, 1)


def test_single_rect_delta_threshold_is_log_two():
    # one rectangle has overlap count 1, so the test reads e^delta <= 2
    f = fam((16, 16), [((2, 3), (10, 12))])
    d = largest_passing_delta(f, [0], 2)
    assert d == pytest.approx(math.log(2.0), abs=1e-6)
    assert cf_overlap_check(f, [0], math.log(2.0) - 1e-9, 2)["ok"]
    assert not cf_overlap_check(f, [0], math.log(2.0) + 1e-9, 2)["ok"]


def test_overlap_check_reports_counts():
    f = fam((10, 10), [((0, 0), (6, 6)), ((3, 3), (9, 9)), ((4, 4), (8, 8))])
    rep = cf_overlap_check(f, [0, 1, 2], 0.05, 2)
    assert rep["max_overlap"] == 3


def test_dimension_guard():
    f = fam((10,), [((0,), (5,))])
    with pytest.raises(DimensionError):
        cf_overlap_check(f, [0], 0.1, 1)


def test_choose_subfamily_indices_refer_to_original():
    rng = np.random.default_rng(8)
    boxes = []
    for _ in range(30):
        lo = rng.integers(0, 20, size=2)
        hi = [int(rng.integers(l + 1, 25)) for l in lo]
        boxes.append((tuple(int(x) for x in lo), tuple(hi)))
    f = fam((24, 24), boxes)
    sub = choose_cf_subfamily(f)
    assert all(0 <= i < len(f) for i in sub)
    assert len(set(sub)) == len(sub)
    d = largest_passing_delta(f, sub, 2)
    assert d > 0.0
