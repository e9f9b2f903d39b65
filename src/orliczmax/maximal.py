"""Maximal operators over rectangle bases on grids.

Every operator here is a pointwise supremum over the members of a
rectangle basis containing the evaluation cell: of plain averages
(strong_maximal), of Luxemburg norms (orlicz_maximal), or of products of
either across several functions (the multilinear variants).

The enumeration is exhaustive by shape: for each admissible side-length
vector the quantity for all positions of that shape comes from the shared
summed-area table in one vectorized pass, and the per-cell supremum is
folded in through a separable padded sliding-window maximum. Differencing
the table axis by axis in the fixed canonical order keeps every average
bit-identical to rect_average on the same rectangle, which is what the
brute-force comparisons rely on.

The work is proportional to the number of basis members, so that count is
the budget currency; exceeding the cap raises BudgetExceeded before any
sweep starts.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BudgetExceeded, GeometryMismatch
from .grid import GridFunction, SummedAreaTable, luxemburg_batch
from .young import Power, YoungFunction, inverse, young_to_json

__all__ = [
    "RECTANGLES",
    "CUBES",
    "DYADIC",
    "DEFAULT_BUDGET",
    "Basis",
    "MaximalField",
    "strong_maximal",
    "orlicz_maximal",
    "multilinear_maximal",
    "multilinear_orlicz_maximal",
    "indicator_far_field",
]

RECTANGLES = "rectangles"
CUBES = "cubes"
DYADIC = "dyadic"
_KINDS = (RECTANGLES, CUBES, DYADIC)

DEFAULT_BUDGET = 2_000_000_000


@dataclass(frozen=True)
class Basis:
    """Which axis-parallel boxes the supremum ranges over.

    rectangles: every side-length combination; cubes: equal side counts on
    all axes; dyadic: side counts restricted to powers of two (positions
    stay unrestricted, so the dyadic family is a subset of rectangles and
    its maximal function is a pointwise lower bound for the exhaustive
    one). min_side/max_side clip the admissible side counts in cells.
    """

    kind: str = RECTANGLES
    min_side: int = 1
    max_side: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"basis kind must be one of {_KINDS}, got {self.kind!r}")
        if self.min_side < 1:
            raise ValueError("min_side must be at least 1")
        if self.max_side is not None and self.max_side < self.min_side:
            raise ValueError("max_side must be >= min_side")

    def side_choices(self, extent: int) -> list[int]:
        hi = extent if self.max_side is None else min(extent, self.max_side)
        sides = range(self.min_side, hi + 1)
        if self.kind == DYADIC:
            return [s for s in sides if s & (s - 1) == 0]
        return list(sides)

    def shapes(self, grid_shape: tuple[int, ...]):
        """Admissible side-length vectors, smallest first."""
        if self.kind == CUBES:
            for s in self.side_choices(min(grid_shape)):
                yield (s,) * len(grid_shape)
        else:
            yield from iter_product(*(self.side_choices(e) for e in grid_shape))

    def rect_count(self, grid_shape: tuple[int, ...]) -> int:
        if self.kind == CUBES:
            total = 0
            for s in self.side_choices(min(grid_shape)):
                npos = 1
                for e in grid_shape:
                    npos *= e - s + 1
                total += npos
            return total
        # positions factor across axes for uncoupled side choices
        total = 1
        for e in grid_shape:
            total *= sum(e - s + 1 for s in self.side_choices(e))
        return total

    def to_dict(self) -> dict:
        return {"kind": self.kind, "min_side": self.min_side, "max_side": self.max_side}


@dataclass(frozen=True)
class MaximalField:
    """A grid of pointwise suprema plus a record of how it was computed."""

    field: GridFunction
    provenance: dict

    def __post_init__(self) -> None:
        if not isinstance(self.field, GridFunction):
            raise TypeError("field must be a GridFunction")


def _window_sums(table: np.ndarray, sides: tuple[int, ...]) -> np.ndarray:
    """Rectangle sums for every position of one shape.

    Same operand pairs and differencing order as SummedAreaTable.rect_sum,
    so each entry is bit-identical to the scalar path.
    """
    a = table
    for ax, s in enumerate(sides):
        hi = [slice(None)] * a.ndim
        lo = [slice(None)] * a.ndim
        hi[ax] = slice(s, None)
        lo[ax] = slice(None, -s)
        a = a[tuple(hi)] - a[tuple(lo)]
    return a


def _cover_max(plane: np.ndarray, sides: tuple[int, ...]) -> np.ndarray:
    """Per-cell max over the positions whose rectangle covers the cell.

    plane is indexed by position (anchor corner); a cell x is covered by
    anchors in (x - side, x], so a sliding max over a zero-padded plane
    recovers the per-cell value. Zero padding is safe: all folded
    quantities are nonnegative.
    """
    a = plane
    for ax, s in enumerate(sides):
        if s > 1:
            pad = [(0, 0)] * a.ndim
            pad[ax] = (s - 1, s - 1)
            a = np.pad(a, pad, constant_values=0.0)
        a = sliding_window_view(a, s, axis=ax).max(axis=-1)
    return a


def _position_extreme(values: np.ndarray, sides: tuple[int, ...], take_min: bool) -> np.ndarray:
    """Window min/max of the grid values at every position of one shape."""
    a = values
    for ax, s in enumerate(sides):
        w = sliding_window_view(a, s, axis=ax)
        a = w.min(axis=-1) if take_min else w.max(axis=-1)
    return a


def _input_digest(*fs: GridFunction) -> str:
    h = hashlib.sha1()
    for f in fs:
        h.update(repr((f.shape, f.origin, f.spacing)).encode())
        h.update(f.values.tobytes())
    return h.hexdigest()[:12]


def _check_budget(basis: Basis, shape: tuple[int, ...], budget: int) -> int:
    count = basis.rect_count(shape)
    if count > budget:
        raise BudgetExceeded(
            f"{count} basis rectangles exceed the budget of {budget}; "
            "shrink the grid, restrict sides, or use the dyadic basis"
        )
    return count


def _chunked(seq: list, parts: int) -> list[list]:
    parts = max(1, min(parts, len(seq)))
    return [seq[i::parts] for i in range(parts)]


def _cover_axis0(a: np.ndarray, w: int) -> np.ndarray:
    """Expand position maxima to cell maxima along axis 0.

    a[i] belongs to the member anchored at i with side w, which covers
    cells i .. i+w-1, so cell r takes the max of a over the w-window
    ending at r. Computed as a block prefix/suffix max filter: O(1) work
    per element independent of w.
    """
    if w == 1:
        return a
    npos = a.shape[0]
    n = npos + 2 * (w - 1)
    blocks = -(-n // w)
    rest = a.shape[1:]
    p = np.full((blocks * w,) + rest, -np.inf)
    p[w - 1:w - 1 + npos] = a
    b = p.reshape(blocks, w, *rest)
    f = np.maximum.accumulate(b, axis=1).reshape(blocks * w, *rest)
    g = np.maximum.accumulate(b[:, ::-1], axis=1)[:, ::-1].reshape(blocks * w, *rest)
    return np.maximum(g[:n - w + 1], f[w - 1:n])


def _bad_pairs(size_plus1: int, allowed: list[int]) -> np.ndarray:
    """Mask of (lo, hi) index pairs whose side count is not admissible."""
    d = np.arange(size_plus1)[None, :] - np.arange(size_plus1)[:, None]
    return ~(np.isin(d, allowed) & (d > 0))


def _dp_last_axis(slabs: list[np.ndarray], pref: int, dmat: np.ndarray,
                  bad: np.ndarray) -> np.ndarray:
    """Per-cell maxima over all (lo, hi) choices of the last table axis.

    slabs[j] holds, for each position along the leading batch axis, the
    partially differenced table of function j (shape (npos, s+1)). The
    average over the pair (lo, hi) is (slab[hi] - slab[lo]) / (pref * d),
    matching rect_sum's nested differencing and rect_average's division
    bit for bit; products across functions multiply in input order. The
    two max-accumulations turn the pair matrix into corner maxima, whose
    (x, x+1) diagonal is the best member containing cell x.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        v = slabs[0][:, None, :] - slabs[0][:, :, None]
        v /= pref * dmat
        for t in slabs[1:]:
            w = t[:, None, :] - t[:, :, None]
            w /= pref * dmat
            v *= w
    v[:, bad] = -np.inf
    np.maximum.accumulate(v, axis=1, out=v)
    r = v[:, :, ::-1]
    np.maximum.accumulate(r, axis=2, out=r)
    s = v.shape[1] - 1
    ar = np.arange(s)
    return v[:, ar, ar + 1]


def _dp_plane(tables: list[np.ndarray], pref: int,
              side_lists: list[list[int]]) -> np.ndarray:
    """Cell maxima for rank-2 tables: loop the first axis side, DP the last."""
    s2p = tables[0].shape[1]
    dmat = (np.arange(s2p)[None, :] - np.arange(s2p)[:, None]).astype(float)
    bad = _bad_pairs(s2p, side_lists[1])
    out = np.full((tables[0].shape[0] - 1, s2p - 1), -np.inf)
    for d in side_lists[0]:
        slabs = [t[d:] - t[:-d] for t in tables]
        u = _dp_last_axis(slabs, pref * d, dmat, bad)
        np.maximum(out, _cover_axis0(u, d), out=out)
    return out


def _average_sweep(fs: list[GridFunction], basis: Basis, jobs: int) -> np.ndarray:
    """Sup over basis members of the product of per-function averages.

    Cube bases couple the sides, so they go through one vectorized pass
    per side count; the uncoupled bases run the corner-DP sweep, whose
    outermost side loop is the parallel partition when jobs > 1. Cells
    covered by no admissible member report 0 (empty supremum).
    """
    shape = fs[0].shape
    tables = [SummedAreaTable(f).table for f in fs]

    if basis.kind == CUBES:
        out = np.zeros(shape)
        for sides in basis.shapes(shape):
            ncells = 1
            for s in sides:
                ncells *= s
            plane = _window_sums(tables[0], sides) / ncells
            for t in tables[1:]:
                plane = plane * (_window_sums(t, sides) / ncells)
            np.maximum(out, _cover_max(plane, sides), out=out)
        return out

    side_lists = [basis.side_choices(e) for e in shape]
    if any(not lst for lst in side_lists):
        return np.zeros(shape)

    if len(shape) == 1:
        u = _dp_last_axis([t[None, :] for t in tables], 1,
                          (np.arange(shape[0] + 1)[None, :]
                           - np.arange(shape[0] + 1)[:, None]).astype(float),
                          _bad_pairs(shape[0] + 1, side_lists[0]))
        return np.maximum(u[0], 0.0)

    def run_d1(d1: int) -> np.ndarray:
        slabs = [t[d1:] - t[:-d1] for t in tables]
        if len(shape) == 2:
            u = _dp_last_axis(slabs, d1, dmat, bad)
        else:
            u = np.stack([
                _dp_plane([s[i] for s in slabs], d1, side_lists[1:])
                for i in range(slabs[0].shape[0])
            ])
        return _cover_axis0(u, d1)

    if len(shape) == 2:
        s2p = shape[1] + 1
        dmat = (np.arange(s2p)[None, :] - np.arange(s2p)[:, None]).astype(float)
        bad = _bad_pairs(s2p, side_lists[1])

    d1s = side_lists[0]
    if jobs <= 1 or len(d1s) < 2:
        planes = map(run_d1, d1s)
    else:
        chunks = _chunked(d1s, jobs)

        def run_chunk(ds: list[int]) -> np.ndarray:
            local = np.full(shape, -np.inf)
            for d in ds:
                np.maximum(local, run_d1(d), out=local)
            return local

        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            planes = list(pool.map(run_chunk, chunks))
    out = np.full(shape, -np.inf)
    for p in planes:
        np.maximum(out, p, out=out)
    return np.maximum(out, 0.0)


def strong_maximal(f: GridFunction, basis: Basis = Basis(),
                   budget: int = DEFAULT_BUDGET, jobs: int = 1) -> MaximalField:
    """Pointwise sup of rectangle averages over basis members containing x.

    Admits the single-cell rectangle (when min_side is 1), so the output
    dominates the input pointwise.
    """
    count = _check_budget(basis, f.shape, budget)
    out = _average_sweep([f], basis, jobs)
    return MaximalField(
        field=f.with_values(out),
        provenance={
            "operator": "strong_maximal",
            "basis": basis.to_dict(),
            "grid_shape": list(f.shape),
            "rect_count": count,
            "inputs": _input_digest(f),
        },
    )


def multilinear_maximal(fs: list[GridFunction], basis: Basis = Basis(),
                        budget: int = DEFAULT_BUDGET, jobs: int = 1) -> MaximalField:
    """Sup over basis members of the product of the m averages."""
    if not fs:
        raise ValueError("need at least one function")
    base = fs[0]
    for g in fs[1:]:
        if not base.same_geometry(g):
            raise GeometryMismatch("multilinear inputs must share grid geometry")
    count = _check_budget(basis, base.shape, budget)
    out = _average_sweep(list(fs), basis, jobs)
    return MaximalField(
        field=base.with_values(out),
        provenance={
            "operator": "multilinear_maximal",
            "m": len(fs),
            "basis": basis.to_dict(),
            "grid_shape": list(base.shape),
            "rect_count": count,
            "inputs": _input_digest(*fs),
        },
    )


def _inverse_tables(supp_table: np.ndarray, phi: YoungFunction,
                    shapes: list[tuple[int, ...]]) -> dict[int, np.ndarray]:
    """Phi^{-1}(ncells / supp) for every (ncells, supp) pair a sweep uses.

    A member with ncells cells, supp of them nonzero, has the indicator
    bounds max/inv(ncells) <= norm <= max/inv(ncells/supp); supp counts as
    1 where the function vanishes. table[ncells][supp] holds the inverse
    at ncells/supp for every pair some position of some shape has, plus
    supp = 1 for the lower bound; other entries are NaN. The pairs come
    from the whole sweep, whether pruning is on or not, and are solved in
    one vectorized inverse call, so every lookup sees the same value in
    either mode.
    """
    used: dict[int, np.ndarray] = {}
    for sides in shapes:
        ncells = math.prod(sides)
        if ncells not in used:
            used[ncells] = np.zeros(ncells + 1, dtype=bool)
            used[ncells][1] = True
        supp = np.maximum(_window_sums(supp_table, sides), 1.0)
        used[ncells][supp.astype(np.intp)] = True
    if not used:
        return {}
    pairs = [(n, np.flatnonzero(mask)) for n, mask in used.items()]
    vals = inverse(phi, np.concatenate([n / ks for n, ks in pairs]))
    tables = {}
    start = 0
    for n, ks in pairs:
        tables[n] = np.full(n + 1, np.nan)
        tables[n][ks] = vals[start:start + ks.size]
        start += ks.size
    return tables


def _window_max_and_support(values: np.ndarray, supp_table: np.ndarray,
                            sides: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Window max of the values and the nonzero count, at least 1, at every
    position of one shape; the prune bound and the norm hints share them."""
    maxv = _position_extreme(values, sides, take_min=False)
    supp = np.maximum(_window_sums(supp_table, sides), 1.0).astype(np.intp)
    return maxv, supp


def _norm_planes(values: np.ndarray, maxv: np.ndarray, supp: np.ndarray,
                 phi: YoungFunction, inv: np.ndarray, sides: tuple[int, ...],
                 tol: float, skip: np.ndarray | None) -> np.ndarray:
    """Luxemburg norms of one function at every position of one shape.

    maxv and supp come from _window_max_and_support. Positions flagged in
    skip (and positions where the function vanishes on the rectangle) are
    left at 0. The solver's start brackets come from the two-sided
    indicator bounds max/inv(cells) <= norm <= max/inv(cells/supp), both
    certified, so the hint never changes the limit; inv is the sweep's
    table for this cell count from _inverse_tables, indexed by supp.
    """
    live = maxv > 0
    if skip is not None:
        live &= ~skip
    plane = np.zeros(maxv.shape)
    if not np.any(live):
        return plane
    m = maxv[live]
    lo = m / inv[1]
    hi = m / inv[supp[live]]
    rows = sliding_window_view(values, sides)[live].reshape(-1, math.prod(sides))
    plane[live] = luxemburg_batch(rows, phi, tol=tol, lo_hint=lo, hi_hint=hi)
    return plane


def orlicz_maximal(f: GridFunction, phi: YoungFunction, basis: Basis = Basis(),
                   budget: int = DEFAULT_BUDGET, tol: float = 1e-9,
                   prune: bool = True) -> MaximalField:
    """Pointwise sup of Luxemburg norms over basis members containing x.

    Phi(t) = t makes the Luxemburg norm the plain average, so Power(r=1)
    dispatches to strong_maximal and inherits its exact arithmetic.

    All inverse values the sweep needs come from one table, solved in one
    vectorized call before the shape loop (see _inverse_tables).

    Pruning skips a position when its certified upper bound, widened by
    4 * tol, cannot beat the minimum of the running output over the cells
    the rectangle covers. The widening covers a tight bound (an indicator
    window) that rounding makes look infeasible as a hint: the solver then
    widens its bracket and may return its upper end up to tol above the
    bound. Since the output only grows, a skipped rectangle can never
    change the final field. The on/off results agree exactly because nothing else differs
    between the modes: the inverse table is the same, and luxemburg_batch
    stops each row on its own, so a norm does not depend on which other
    rows share its batch.
    """
    if isinstance(phi, Power) and phi.r == 1.0 and phi.domain_cap is None:
        mf = strong_maximal(f, basis, budget=budget)
        prov = dict(mf.provenance)
        prov.update(operator="orlicz_maximal", phi=young_to_json(phi), dispatch="average")
        return MaximalField(field=mf.field, provenance=prov)
    if isinstance(phi, Power) and phi.domain_cap is None:
        # ||f||_{Phi,R} = (mean_R f^r)^{1/r} in closed form, and the outer
        # 1/r power commutes with the sup over members
        mf = strong_maximal(f.with_values(f.values ** phi.r), basis, budget=budget)
        prov = dict(mf.provenance)
        prov.update(operator="orlicz_maximal", phi=young_to_json(phi),
                    dispatch="power_mean", inputs=_input_digest(f))
        return MaximalField(field=f.with_values(mf.field.values ** (1.0 / phi.r)),
                            provenance=prov)

    count = _check_budget(basis, f.shape, budget)
    supp_table = SummedAreaTable(f.with_values((f.values > 0).astype(float))).table
    shapes = list(basis.shapes(f.shape))
    inv_tables = _inverse_tables(supp_table, phi, shapes)
    out = np.zeros(f.shape)
    pruned = 0
    for sides in shapes:
        inv = inv_tables[math.prod(sides)]
        maxv, supp = _window_max_and_support(f.values, supp_table, sides)
        skip = None
        if prune:
            bound = maxv / inv[supp]
            skip = bound * (1.0 + 4.0 * tol) <= _position_extreme(out, sides, take_min=True)
            pruned += int(skip.sum())
        plane = _norm_planes(f.values, maxv, supp, phi, inv, sides, tol, skip)
        np.maximum(out, _cover_max(plane, sides), out=out)
    return MaximalField(
        field=f.with_values(out),
        provenance={
            "operator": "orlicz_maximal",
            "phi": young_to_json(phi),
            "basis": basis.to_dict(),
            "grid_shape": list(f.shape),
            "rect_count": count,
            "pruned": pruned,
            "tol": tol,
            "inputs": _input_digest(f),
        },
    )


def multilinear_orlicz_maximal(fs: list[GridFunction], phis: list[YoungFunction],
                               basis: Basis = Basis(), budget: int = DEFAULT_BUDGET,
                               tol: float = 1e-9) -> MaximalField:
    """Sup over basis members of the product of per-function Luxemburg norms."""
    if not fs or len(fs) != len(phis):
        raise ValueError("need one Young function per input function")
    base = fs[0]
    for g in fs[1:]:
        if not base.same_geometry(g):
            raise GeometryMismatch("multilinear inputs must share grid geometry")
    if all(isinstance(p, Power) and p.r == 1.0 and p.domain_cap is None for p in phis):
        mf = multilinear_maximal(fs, basis, budget=budget)
        prov = dict(mf.provenance)
        prov.update(operator="multilinear_orlicz_maximal", dispatch="average",
                    phis=[young_to_json(p) for p in phis])
        return MaximalField(field=mf.field, provenance=prov)

    count = _check_budget(basis, base.shape, budget)
    supp_tables = [
        SummedAreaTable(f.with_values((f.values > 0).astype(float))).table for f in fs
    ]
    shapes = list(basis.shapes(base.shape))
    inv_tables = [_inverse_tables(st, phi, shapes) for st, phi in zip(supp_tables, phis)]
    out = np.zeros(base.shape)
    for sides in shapes:
        ncells = math.prod(sides)
        plane = None
        for f, st, phi, it in zip(fs, supp_tables, phis, inv_tables):
            maxv, supp = _window_max_and_support(f.values, st, sides)
            norms = _norm_planes(f.values, maxv, supp, phi, it[ncells], sides, tol, None)
            plane = norms if plane is None else plane * norms
        np.maximum(out, _cover_max(plane, sides), out=out)
    return MaximalField(
        field=base.with_values(out),
        provenance={
            "operator": "multilinear_orlicz_maximal",
            "m": len(fs),
            "phis": [young_to_json(p) for p in phis],
            "basis": basis.to_dict(),
            "grid_shape": list(base.shape),
            "rect_count": count,
            "tol": tol,
            "inputs": _input_digest(*fs),
        },
    )


def indicator_far_field(ys: np.ndarray, phi: YoungFunction | None = None) -> np.ndarray:
    """Rectangle-basis field of the unit-box indicator at far points.

    For a point y with every coordinate above 1 the best rectangle is the
    anchored box [0, y_1] x ... x [0, y_n], giving 1/(y_1 ... y_n) for the
    average and 1/Phi^{-1}(y_1 ... y_n) for the Luxemburg norm.
    """
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    prods = np.prod(ys, axis=-1)
    if phi is None:
        return 1.0 / prods
    return 1.0 / inverse(phi, prods)
