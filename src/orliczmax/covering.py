"""Scattered-family selection and exponential-overlap checks for rectangles.

The selection pass walks an ordered family once and keeps a rectangle when
the part already covered by kept predecessors is at most an alpha fraction
of it. Kept sets are never modified, so every verification can recompute
the overlap counts from scratch on an occupancy grid of integer cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GeometryMismatch
from .grid import GridFunction, Rect
from .young import _plain

__all__ = [
    "RectFamily",
    "ScatterSelection",
    "select_scattered",
    "verify_scattered",
    "weight_growth_check",
    "weight_growth_sweep",
    "cf_overlap_check",
    "choose_cf_subfamily",
    "largest_passing_delta",
]

# bisection range and relative tolerance of largest_passing_delta
_DELTA_LO = 1e-6
_DELTA_HI = 64.0
_DELTA_TOL = 1e-6


@dataclass(frozen=True)
class RectFamily:
    """An ordered list of index rectangles on a fixed grid shape.

    Order matters: the selection greedily scans in the given order, which
    callers usually arrange by decreasing size. An optional weight shares
    the grid.
    """

    shape: tuple[int, ...]
    rects: tuple[Rect, ...]
    weight: GridFunction | None = None

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in self.shape)
        rects = tuple(self.rects)
        for r in rects:
            r.check_within(shape)
        if self.weight is not None and self.weight.shape != shape:
            raise GeometryMismatch("weight shape does not match family shape")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rects", rects)

    def __len__(self) -> int:
        return len(self.rects)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def by_decreasing_measure(self) -> list[int]:
        """Indices ordered by decreasing cell count, stable within ties."""
        return sorted(range(len(self.rects)), key=lambda i: -self.rects[i].ncells)

    def to_dict(self) -> dict:
        # the weight grid stays out of the JSON form
        return {"shape": list(self.shape), "rects": _plain(self.rects)}


@dataclass(frozen=True)
class ScatterSelection:
    """Kept indices (strictly increasing) of a greedy scattered pass."""

    kept: tuple[int, ...]
    alpha: float

    def __post_init__(self) -> None:
        kept = tuple(int(i) for i in self.kept)
        if any(b <= a for a, b in zip(kept, kept[1:])):
            raise ValueError("kept indices must be strictly increasing")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        object.__setattr__(self, "kept", kept)

    to_dict = _plain


def select_scattered(family: RectFamily, alpha: float) -> ScatterSelection:
    """Greedy one-pass selection keeping rects with small covered fraction.

    Rect i is kept when |R_i intersect union(kept before i)| <= alpha |R_i|,
    with exact integer cell counts. Keeping a rect marks its cells.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    occupied = np.zeros(family.shape, dtype=bool)
    kept = []
    for i, r in enumerate(family.rects):
        inter = int(np.count_nonzero(occupied[r.slices]))
        if inter <= alpha * r.ncells:
            kept.append(i)
            occupied[r.slices] = True
    return ScatterSelection(tuple(kept), alpha)


def verify_scattered(family: RectFamily, selection: ScatterSelection) -> dict:
    """Recompute every kept rect's covered fraction from scratch.

    Returns a report with the worst fraction over kept members; ok means
    every kept rect saw at most alpha of itself covered by earlier kept
    rects, the defining property of the greedy pass.
    """
    occupied = np.zeros(family.shape, dtype=bool)
    worst = 0.0
    worst_index = None
    rows = []
    for i in selection.kept:
        r = family.rects[i]
        frac = int(np.count_nonzero(occupied[r.slices])) / r.ncells
        rows.append({"index": i, "covered_fraction": frac})
        if frac > worst:
            worst, worst_index = frac, i
        occupied[r.slices] = True
    return {
        "ok": worst <= selection.alpha,
        "alpha": selection.alpha,
        "worst_fraction": worst,
        "worst_index": worst_index,
        "kept": len(selection.kept),
        "total": len(family),
        "rows": rows,
    }


def _growth_reports(family: RectFamily, selection: ScatterSelection, w: GridFunction, js):
    """weight_growth_check's report on every pair i < j, j in js, in (j, i) order.

    The trimmed masks (kept rects whole, dropped ones without the cells kept
    predecessors cover) and the masses of the prefix unions are built in
    one pass; the tails of one j are unions grown from i = j-1 down, the
    same masks a single check needs and so the same sums.
    """
    if w.shape != family.shape:
        raise GeometryMismatch("weight shape does not match family shape")

    def mass(mask: np.ndarray) -> float:
        return float(w.values[mask].sum()) * w.cell_volume

    kept = set(selection.kept)
    covered = np.zeros(family.shape, dtype=bool)
    union = np.zeros(family.shape, dtype=bool)
    masks, prefix = [], [mass(union)]
    for k, r in enumerate(family.rects):
        m = np.zeros(family.shape, dtype=bool)
        m[r.slices] = True
        if k in kept:
            covered |= m
        else:
            m &= ~covered
        masks.append(m)
        union[r.slices] = True
        prefix.append(mass(union))
    for j in js:
        tail = np.zeros(family.shape, dtype=bool)
        tails = []
        for m in reversed(masks[:j]):
            tail |= m
            tails.append(mass(tail))
        for i, part_tail in enumerate(reversed(tails)):
            lhs, bracket = prefix[j], prefix[i] + part_tail
            if bracket > 0.0:
                implied = lhs / bracket
            else:
                implied = 1.0 if lhs == 0.0 else np.inf
            yield {"i": i, "j": j, "lhs": lhs, "prefix_mass": prefix[i],
                   "trimmed_tail_mass": part_tail, "bracket": bracket,
                   "implied_constant": implied}


def weight_growth_check(family: RectFamily, selection: ScatterSelection,
                        w: GridFunction, i: int, j: int) -> dict:
    """Compare w(union of all first j rects) against a two-part bracket.

    The bracket is w(union of first i rects) plus w(union of the trimmed
    rects i..j-1), where trimming removes from dropped rects the cells kept
    predecessors already cover. Reports the implied constant
    lhs / bracket; nothing is asserted. Since the trimmed tails still
    cover everything the prefix misses, subadditivity forces the implied
    constant to at most 1 for exact unions.
    """
    if not (0 <= i < j <= len(family)):
        raise ValueError("need 0 <= i < j <= len(family)")
    return list(_growth_reports(family, selection, w, [j]))[i]


def weight_growth_sweep(family: RectFamily, selection: ScatterSelection,
                        w: GridFunction) -> dict:
    """Max implied constant of weight_growth_check over all pairs i < j."""
    best = {"implied_constant": -np.inf}
    for rep in _growth_reports(family, selection, w, range(1, len(family) + 1)):
        if rep["implied_constant"] > best["implied_constant"]:
            best = rep
    return best


def cf_overlap_check(family: RectFamily, subset: list[int] | tuple[int, ...],
                     delta: float, n: int) -> dict:
    """Exponential overlap test: mean of exp((delta N)^{1/(n-1)}) vs 2.

    N is the overlap count of the chosen rects; the test integrates over
    their union and passes when the integral is at most twice the union
    measure. Only meaningful for n >= 2; a single rect passes exactly when
    delta <= log(2)^{n-1}.
    """
    if n < 2:
        raise DimensionError("overlap exponent needs n >= 2")
    if n != family.ndim:
        raise DimensionError(f"n={n} does not match family dimension {family.ndim}")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    subset = [int(i) for i in subset]
    if not subset:
        raise ValueError("subset must be nonempty")
    counts = np.zeros(family.shape, dtype=np.int64)
    for i in subset:
        counts[family.rects[i].slices] += 1
    union = counts > 0
    ncover = int(np.count_nonzero(union))
    integral = float(np.exp((delta * counts[union]) ** (1.0 / (n - 1.0))).sum())
    ratio = integral / (2.0 * ncover)
    return {
        "delta": delta,
        "n": n,
        "subset_size": len(subset),
        "union_cells": ncover,
        "max_overlap": int(counts.max()),
        "integral_over_bound": ratio,
        "ok": ratio <= 1.0,
    }


def choose_cf_subfamily(family: RectFamily, alpha: float = 0.5) -> list[int]:
    """Default subfamily heuristic: scattered pass in decreasing-size order.

    Returns kept indices of the original family, in the visiting order.
    """
    order = family.by_decreasing_measure()
    reordered = RectFamily(family.shape, tuple(family.rects[i] for i in order))
    sel = select_scattered(reordered, alpha)
    return [order[k] for k in sel.kept]


def largest_passing_delta(family: RectFamily, subset: list[int] | tuple[int, ...],
                          n: int) -> float:
    """Largest delta for which cf_overlap_check passes, by bisection.

    The integrand is increasing in delta, so pass/fail is monotone. Returns
    0.0 when even _DELTA_LO fails. _DELTA_HI always fails: every covered
    cell has N >= 1, so the integrand is at least exp(64**(1/(n-1))) > 2.
    """
    if not cf_overlap_check(family, subset, _DELTA_LO, n)["ok"]:
        return 0.0
    lo, hi = _DELTA_LO, _DELTA_HI
    while hi - lo > _DELTA_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if cf_overlap_check(family, subset, mid, n)["ok"]:
            lo = mid
        else:
            hi = mid
    return lo


def _covering_report(family: RectFamily, alpha: float, delta: float,
                     weight: GridFunction | None) -> dict:
    """The scattered selection at alpha and its verification, the weight's
    growth sweep unless weight is None, and from two dimensions on the
    default CF subfamily, its overlap check at delta and its largest
    passing delta."""
    sel = select_scattered(family, alpha)
    out = {"selection": sel.to_dict(), "verification": verify_scattered(family, sel)}
    if weight is not None:
        out["growth"] = weight_growth_sweep(family, sel, weight)
    if family.ndim >= 2:
        sub = choose_cf_subfamily(family)
        out["cf_subfamily"] = sub
        out["cf_check"] = cf_overlap_check(family, sub, delta, family.ndim)
        out["largest_delta"] = largest_passing_delta(family, sub, family.ndim)
    return out
