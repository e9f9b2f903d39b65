"""Maximal operators over rectangle bases on grids.

Every operator here is a pointwise supremum over the members of a
rectangle basis containing the evaluation cell: of plain averages
(strong_maximal), of Luxemburg norms (orlicz_maximal), or of products of
either across several functions (the multilinear variants). The four
public functions are thin wrappers over one input check, one provenance
builder and two sweeps.

The average sweep (_average_sweep) runs a corner DP over the summed-area
tables: each side of the leading axis is differenced off and its
positions join a batch, recursively, a run of consecutive sides sharing
one batch. The last axis takes its maxima by divide and conquer over the
prefix indices (Bentley's maximum subarray split): each level halves
every segment, a pair (lo, hi) is formed once, at the level whose split
separates lo from hi, and the cells of a segment take prefix maxima over
lo or suffix maxima over hi of that level's crossing pairs, laid out with
the batch rows last so that every numpy pass runs along them. Cube bases
and 1-D grids take one vectorized pass per shape instead. Each average
is the difference of the same table entries, taken axis by axis in the
fixed canonical order, divided once by the same cell count as in
rect_average, and max is exact and independent of order and grouping,
so the field is bit-identical to rect_average maxima over the same
rectangles, which is what the brute-force comparisons rely on.

The Orlicz operators (_orlicz_field) take one average sweep where the
norm has a closed form (_closed_form: a power, the conjugate of one, an
input of values 0 and c). Otherwise the ladder sweep (_ladder_field)
brackets every member's Luxemburg norm from a ladder of summed-area
tables of Phi(f / lam_k), one per rung of a geometric ladder of lam
(Crow, SIGGRAPH 1984, for the tables): G(lam) = mean_R Phi(f / lam) is
one box sum per rung (grid._box_sums, in rect_sum's order), and a rung
certifies a side of the norm only when that sum clears the cell count by
an explicit rounding bound. The brackets give a lower envelope of the
field, every member whose upper bound cannot reach it is skipped, and
the few members left are solved by grid._box_norms, the box-norm gather
the weight constants share. Its per-cell suprema and its per-member
minima of the lower envelope go through range-extreme tables over the
last axis (_fold, _floor), one per group of members whose leading sides
have the same levels floor(log2 s), in any order: each member is the
union of 2**d power-of-two windows (_windows, computed once per search
block), whose starts sit on the ladder's padded strides, and each group
takes one _window_extreme pass of its window sides over the leading axes,
which the average sweep uses alone.

The work is proportional to the number of basis members, so that count is
the budget currency; exceeding the cap raises BudgetExceeded before any
sweep starts.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, product as iter_product
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, GeometryMismatch, NoBracket, NonFinite
from .grid import (_UNIT_ROUNDOFF, GridFunction, SummedAreaTable, _box_index, _box_norms,
                   _box_sums, _members, _position_grid, _runs)
from .young import YoungFunction, _check_tol, _power_form, inverse, young_to_json

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
            return sum(math.prod(e - s + 1 for e in grid_shape)
                       for s in self.side_choices(min(grid_shape)))
        # positions factor across axes for uncoupled side choices
        return math.prod(sum(e - s + 1 for s in self.side_choices(e)) for e in grid_shape)

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


def _window_extreme(a: np.ndarray, s: int, axis: int, take_min: bool = False,
                    cover: bool = False) -> np.ndarray:
    """Max (or min) over every run of s consecutive entries along one axis.

    Without cover, entry i is the extreme of a[i:i+s]: one value per
    position of a member with side s. With cover, a is indexed by position
    and entry x is the extreme over the positions whose member covers cell
    x, those in (x - s, x]; the axis grows by s - 1. The window is split as
    _fold and _floor split a span: extremes over [i, i + 2**j) double up to
    k = floor(log2 s), then join at i and i + s - 2**k. Max and min are
    exact, so the split changes no bit; the result is C-contiguous when a is.
    """
    if s == 1:
        return a
    ufunc, identity = (np.minimum, np.inf) if take_min else (np.maximum, -np.inf)
    lead = (slice(None),) * axis
    if cover:  # s - 1 identities at each end
        edge = np.full(a.shape[:axis] + (s - 1,) + a.shape[axis + 1:], identity)
        a = np.concatenate((edge, a, edge), axis=axis)
    w = 1  # a[i] is the extreme over [i, i + w)
    while w < s:
        h = min(w, s - w)
        a = ufunc(a[lead + (slice(None, -h),)], a[lead + (slice(h, None),)])
        w += h
    return a


def _window_extremes(a: np.ndarray, sides: tuple[int, ...], take_min: bool = False,
                     cover: bool = False) -> np.ndarray:
    """_window_extreme along every axis, for members of one shape.

    With cover, a plane of per-position values becomes the per-cell max
    over the positions whose member covers the cell; without, grid values
    become their min or max over each position's member.
    """
    for ax, s in enumerate(sides):
        a = _window_extreme(a, s, ax, take_min, cover)
    return a


def _input_digest(*fs: GridFunction) -> str:
    h = hashlib.sha1()
    for f in fs:
        h.update(repr((f.shape, f.origin, f.spacing)).encode())
        h.update(f.values.tobytes())
    return h.hexdigest()[:12]


def _checked_inputs(fs: list[GridFunction], basis: Basis, budget: int) -> int:
    """Member count of the basis, after the geometry and budget checks."""
    if not fs:
        raise ValueError("need at least one function")
    for g in fs[1:]:
        if not fs[0].same_geometry(g):
            raise GeometryMismatch("multilinear inputs must share grid geometry")
    count = basis.rect_count(fs[0].shape)
    if count > budget:
        raise BudgetExceeded(
            f"{count} basis rectangles exceed the budget of {budget}; "
            "shrink the grid, restrict sides, or use the dyadic basis"
        )
    return count


_OVERFLOW = "a product of averages or norms overflows the float range"


def _field(fs: list[GridFunction], out: np.ndarray, basis: Basis, count: int,
           **prov) -> MaximalField:
    """The field on the inputs' grid, with the provenance every operator shares."""
    if not np.isfinite(out).all():  # the sweeps let an overflowing product go to inf
        raise NonFinite(_OVERFLOW)
    prov.update(basis=basis.to_dict(), grid_shape=list(fs[0].shape), rect_count=count,
                inputs=_input_digest(*fs))
    return MaximalField(field=fs[0].with_values(out), provenance=prov)


# pair cells (batch rows times one stack's pairs per row) per block of the
# last-axis DP, shared by all threads of a sweep; bounds the DP's buffers
# whatever the batch is, and the pair cells of one run of leading sides
_DP_BLOCK = 1 << 18
# padded pair cells per row a stack of DP levels may hold: a pass over a
# stack costs some twenty numpy calls, about as much as that many pair
# cells on each of a few dozen rows
_DP_STACK = 160
# summed-area-table cells per function that one batched corner sweep
# stacks: bounds the batch's tables and per-side slabs, as _DP_BLOCK bounds
# its pair cells
_BATCH_CELLS = 1 << 18
# grids of fewer cells sweep in the calling thread: on two cores, threads
# break even near 1,200 cells in 2-D (40x40 gains a quarter) and 2,200 in 3-D
_THREAD_MIN_CELLS = 2000


def _sweep_threads(shape: tuple[int, ...], nfirst: int) -> int:
    """Threads for a corner sweep with nfirst sides on its first axis: one per
    usable core, at most one per side."""
    if math.prod(shape) < _THREAD_MIN_CELLS:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cores or 1, nfirst)


class _Stack(NamedTuple):
    """The crossing pairs of one or more consecutive levels of the last-axis DP.

    Every segment [a, b) of prefix indices at a level is split at
    m = ceil((a + b) / 2); its crossing pairs are lo in [a, m) and hi in
    [m, b). A stack holds the segments of its levels side by side, padded
    to L lo slots and H hi slots: lo runs up from a, hi down from b - 1,
    and padding repeats the last slot of each, so d >= 1 on every pair.
    The pairs of a block of rows are laid out (L, H, segments, rows), with
    the rows last, so that numpy's passes run along a long last axis. A
    short stack (corner) takes the 2-D running maxima over the slots and
    its cells read their corners; the others take the row and column
    maxima of each segment, (L + H, segments, rows), and their prefix
    maxima, which is fewer passes once the hi runs are long.
    """

    lo: np.ndarray          # low prefix index per pair, (L, 1, segments)
    hi: np.ndarray          # high prefix index per pair, descending slots, (1, H, segments)
    d: np.ndarray           # hi - lo as floats, (L, H, segments, 1)
    bad: np.ndarray | None  # padding or inadmissible d, shaped as d; None if none
    src: np.ndarray         # (levels, n): each cell's entry per level in a row's maxima
    gap: np.ndarray | None  # cells no pair of the level covers, (levels, n, 1); or None
    corner: bool


def _stack(levels: list[list[tuple[int, int, int]]], admissible: np.ndarray) -> _Stack:
    """The stack of levels, each a list of (a, m, b) splits."""
    a, m, b = np.array([split for level in levels for split in level]).T
    nseg, L, H = len(a), int((m - a).max()), int((b - m).max())
    jl, jh = np.arange(L)[:, None], np.arange(H)[:, None]
    lo = (a + np.minimum(jl, m - a - 1))[:, None]     # (L, 1, segments)
    hi = (b - 1 - np.minimum(jh, b - m - 1))[None]    # (1, H, segments)
    bad = (jl >= m - a)[:, None] | (jh >= b - m)[None] | ~admissible[hi - lo]
    # measured on two cores: the 2-D running maxima are the faster
    # aggregation only on the short hi runs of the bottom levels (8 and 4
    # time alike on 96^2; 8 keeps the faster one on 32^2 and 16^3)
    corner = H <= 8
    # the cells x in [a, m) of a segment take the max over lo <= x, those
    # in [m, b - 1) the max over hi >= x + 1: a corner of the 2-D prefix
    # maxima of the block, or one of the L + H prefix maxima of its row
    # and column maxima
    src = np.full((len(levels), len(admissible) - 1), -1)
    s = 0
    for row, level in zip(src, levels):
        for a_, m_, b_ in level:
            x = np.arange(a_, b_ - 1)
            left, right = x - a_, b_ - 2 - x
            if corner:
                slot = np.where(x < m_, left * H + H - 1, (L - 1) * H + right)
            else:
                slot = np.where(x < m_, left, L + right)
            row[x] = slot * nseg + s
            s += 1
    d, bad, gap = (hi - lo).astype(float)[..., None], bad[..., None], (src < 0)[..., None]
    return _Stack(lo, hi, d, bad if bad.any() else None, np.maximum(src, 0),
                  gap if gap.any() else None, corner)


@functools.lru_cache(maxsize=16)  # a plan holds about 5 (n+1)^2 bytes
def _dp_plan(size: int, sides: tuple[int, ...]) -> tuple[_Stack, ...]:
    """The stacks of the last-axis DP over prefix indices [0, size), for
    members whose last side is in sides, top level first.

    Every admissible pair lo < hi is a crossing pair of exactly one level
    and unmasked there once. From the bottom up, a level joins the stack
    below it while the stack's padding stays within _DP_STACK pair cells
    per row: small grids run one or two stacks, large ones stack only
    their last levels.
    """
    levels = []
    segments = [(0, size)]
    while segments:
        levels.append([(a, (a + b + 1) // 2, b) for a, b in segments])
        segments = [seg for a, m, b in levels[-1] for seg in ((a, m), (m, b))
                    if seg[1] - seg[0] > 1]

    def cells(stack):
        splits = [split for level in stack for split in level]
        return len(splits) * max(m - a for a, m, b in splits) * max(b - m for a, m, b in splits)

    stacks = []
    for level in reversed(levels):
        if stacks and cells([level] + stacks[-1]) <= _DP_STACK:
            stacks[-1].insert(0, level)
        else:
            stacks.append([level])
    admissible = np.zeros(size, dtype=bool)
    admissible[list(sides)] = True
    return tuple(_stack(stack, admissible) for stack in reversed(stacks))


def _dp_last_axis(slabs: list[np.ndarray], pref: np.ndarray, plan: tuple[_Stack, ...],
                  block: int) -> np.ndarray:
    """Per-cell maxima over all admissible (lo, hi) pairs of the last table axis.

    slabs[j] holds, for each row of the batch, the partially differenced
    table of function j (shape (batch, n+1)), and pref[i] the product of
    the sides row i has differenced off. The average over the pair (lo, hi)
    is (slab[hi] - slab[lo]) / (pref * d): rect_sum's nested differencing
    and rect_average's one division on the same operands, so it is
    bit-identical to the scalar path; products across functions multiply
    in input order. The pairs go level by level (_dp_plan), a divide and
    conquer over the prefix indices as in Bentley's maximum subarray (CACM
    27(9), 1984): a crossing pair of segment [a, b) split at m covers the
    cells lo .. hi - 1, so the cells x in [a, m) take the max over
    lo <= x and the cells x in [m, b - 1) the max over hi >= x + 1. Each
    pair is formed once, the n(n+1)/2 of them in place of the (n+1)^2 of
    a pair matrix, and max is exact and order-free, so each cell gets the
    max over the members containing it bit for bit. Rows go through each
    stack in blocks of about block pair cells of that stack, laid out
    (L, H, segments, rows) as _Stack says, and a stack's cells read either
    corners of its 2-D running maxima or prefix maxima of its row and
    column maxima.
    """
    batch, size = slabs[0].shape
    out = np.full((batch, size - 1), -np.inf)  # C order: norm_lp sums a field in memory order
    step = [min(batch, max(1, block // st.d.size)) for st in plan]

    def buffer(width):  # reused by every block of rows of every stack
        return np.empty(max(n * width(st) for n, st in zip(step, plan)))

    # the product's pair cells, the row and column maxima of a stack that
    # is not corner, the other functions' pair cells and the divisors, and
    # the cells' reads
    pairs = buffer(lambda st: st.d.size)
    maxima = buffer(lambda st: 0 if st.corner else sum(st.d.shape[:2]) * st.d.shape[2])
    uniform = pref.min() == pref.max()  # one divisor per stack serves every block
    bufs = [buffer(lambda st: st.d.size) for _ in range(len(slabs) - 1 if uniform else len(slabs))]
    cells = buffer(lambda st: st.src.size)
    for st, rows_per in zip(plan, step):
        scale = pref[0] * st.d if uniform else None
        L, H, nseg = st.d.shape[:3]
        for r in range(0, batch, rows_per):
            rows = slice(r, min(r + rows_per, batch))
            n = rows.stop - r
            shape = (L, H, nseg, n)
            v, *ws = [b[:math.prod(shape)].reshape(shape) for b in (pairs, *bufs)]
            if not uniform:
                scale = np.multiply(pref[rows], st.d, out=ws.pop())
            for t, w in zip(slabs, (v, *ws)):
                t = t[rows].T
                np.subtract(np.take(t, st.hi, 0), np.take(t, st.lo, 0), out=w)
                w /= scale
            for w in ws:
                v *= w
            if st.bad is not None:
                np.copyto(v, -np.inf, where=st.bad)
            if st.corner:
                # running max over the lo slots, then over the hi slots
                for j in range(1, L):
                    np.maximum(v[j], v[j - 1], out=v[j])
                for j in range(1, H):
                    np.maximum(v[:, j], v[:, j - 1], out=v[:, j])
                table = v
            else:
                table = maxima[:(L + H) * nseg * n].reshape(L + H, nseg, n)
                for part, axis in ((table[:L], 1), (table[L:], 0)):
                    v.max(axis=axis, out=part)
                    np.maximum.accumulate(part, axis=0, out=part)
            got = np.take(table.reshape(-1, n), st.src, axis=0,
                          out=cells[:n * st.src.size].reshape(st.src.shape + (n,)))
            if st.gap is not None:
                np.copyto(got, -np.inf, where=st.gap)
            for level in got.transpose(0, 2, 1):
                np.maximum(out[rows], level, out=out[rows])
    return out


def _corner_sweep(tables: list[np.ndarray], side_lists: list[list[int]], pref: np.ndarray,
                  plan: tuple[_Stack, ...], block: int) -> np.ndarray:
    """Per-cell maxima over every member with sides from side_lists, any rank.

    tables[j] is the summed-area table of function j behind a leading batch
    axis, shape (batch, n_1+1, ..., n_k+1), and pref[i] the product of the
    sides batch row i has differenced off; the result has shape
    (batch, n_1, ..., n_k), -inf where no member covers a cell. Each side
    d of the leading axis is differenced off, its positions are folded
    into the batch for the remaining axes, and the per-position maxima are
    expanded back to cells with a cover max. Consecutive sides go in runs
    (grid._runs) of about block pair cells fed to the last-axis DP
    (_dp_last_axis on plan), each run's slabs stacked into one batch, so
    small grids make a few DP calls rather than one per side.
    """
    if len(side_lists) == 1:
        return _dp_last_axis(tables, pref, plan, block)
    batch, size = tables[0].shape[:2]
    rest = tables[0].shape[2:]
    per_row = sum(st.d.size for st in plan) * math.prod(
        sum(e - s for s in lst) for e, lst in zip(rest[:-1], side_lists[1:-1]))
    firsts = side_lists[0]
    out = None
    for a, b in _runs((size - np.array(firsts)) * (batch * per_row), block):
        run = firsts[a:b]
        ends = list(accumulate(batch * (size - d) for d in run))
        spans = [(d, e - batch * (size - d), e) for d, e in zip(run, ends)]
        slabs = [np.empty((ends[-1],) + rest) for _ in tables]
        for t, slab in zip(tables, slabs):
            for d, lo, hi in spans:
                np.subtract(t[:, d:], t[:, :-d], out=slab[lo:hi].reshape(t[:, d:].shape))
        sides = np.array(run)
        u = _corner_sweep(slabs, side_lists[1:],
                          np.repeat(np.outer(sides, pref), np.repeat(size - sides, batch)), plan,
                          block)
        for d, lo, hi in spans:
            w = u[lo:hi].reshape((batch, size - d) + u.shape[1:])
            w = _window_extreme(w, d, 1, cover=True)
            out = w if out is None else np.maximum(out, w, out=out)
    return out


def _scaled_tables(fs: list[GridFunction]) -> tuple[list[np.ndarray], int]:
    """The summed-area tables of fs and the sum of their exponents: averages
    of tables scaled against overflow are scaled back once, at the end, as
    a power of two commutes with the division and the products."""
    sats = [SummedAreaTable(f) for f in fs]
    return [sat.table for sat in sats], sum(sat.exponent for sat in sats)


@np.errstate(over="ignore")  # an overflowing product is inf, which _field rejects
def _average_sweep(groups: list[list[GridFunction]], basis: Basis) -> list[np.ndarray]:
    """Sup over basis members of the product of per-function averages, one
    field per group of m functions; every function of every group on one
    grid shape, every group of the same m.

    Cube bases couple the sides, and in 1-D every member is an interval, so
    both go through one vectorized pass per shape and group, which holds
    one plane at a time. The uncoupled bases in 2-D and 3-D run the corner
    sweep with the groups stacked on its batch axis, _BATCH_CELLS table
    cells at a time, so a family of small grids makes one sweep; the
    last-axis DP is planned once per sweep (_dp_plan, cached per last-axis
    length and admissible sides) and the first side list split across
    threads on grids of at least _THREAD_MIN_CELLS cells (_sweep_threads),
    sharing _DP_BLOCK. Max is exact and every average has its fixed
    operands, so each field depends neither on the other groups nor on
    the thread count, nor on how sides are grouped into runs and rows into
    blocks. Cells covered by no admissible member report 0 (empty
    supremum).
    """
    shape = groups[0][0].shape
    if basis.kind == CUBES or len(shape) == 1:
        outs = []
        for fs in groups:
            tables, scale = _scaled_tables(fs)
            out = np.zeros(shape)
            for sides in basis.shapes(shape):
                ncells = math.prod(sides)
                plane = _window_sums(tables[0], sides) / ncells
                for t in tables[1:]:
                    plane = plane * (_window_sums(t, sides) / ncells)
                np.maximum(out, _window_extremes(plane, sides, cover=True), out=out)
            outs.append(np.ldexp(out, scale) if scale else out)
        return outs

    side_lists = [basis.side_choices(e) for e in shape]
    if any(not lst for lst in side_lists):
        return [np.zeros(shape) for _ in groups]
    plan = _dp_plan(shape[-1] + 1, tuple(side_lists[-1]))
    firsts = side_lists[0]
    threads = _sweep_threads(shape, len(firsts))
    block = _DP_BLOCK // threads

    @np.errstate(over="ignore")  # the caller's errstate does not reach pool threads
    def sweep(tables: list[np.ndarray], sides: list[int]) -> np.ndarray:
        pref = np.ones(len(tables[0]))
        return _corner_sweep(tables, [sides] + side_lists[1:], pref, plan, block)

    per = max(1, _BATCH_CELLS // math.prod(n + 1 for n in shape))  # groups per batch
    outs = []
    for g in range(0, len(groups), per):
        batch, scales = zip(*map(_scaled_tables, groups[g:g + per]))
        tables = [np.stack(ts) if len(ts) > 1 else ts[0][None] for ts in zip(*batch)]
        if threads == 1:
            out = sweep(tables, firsts)
        else:
            chunks = [firsts[i::threads] for i in range(threads)]
            with ThreadPoolExecutor(max_workers=threads) as pool:
                out = np.maximum.reduce(list(pool.map(functools.partial(sweep, tables), chunks)))
        np.maximum(out, 0.0, out=out)
        outs += [np.ldexp(o, scale) if scale else o for o, scale in zip(out, scales)]
    return outs


def strong_maximal(f: GridFunction, basis: Basis = Basis(),
                   budget: int = DEFAULT_BUDGET) -> MaximalField:
    """Pointwise sup of rectangle averages over basis members containing x.

    Admits the single-cell rectangle (when min_side is 1), so the output
    dominates the input pointwise. Large grids sweep on all usable cores,
    with the same bits as on one.
    """
    count = _checked_inputs([f], basis, budget)
    return _field([f], _average_sweep([[f]], basis)[0], basis, count,
                  operator="strong_maximal")


def _strong_fields(fs: list[GridFunction]) -> list[np.ndarray]:
    """strong_maximal(f).field.values for each f of fs, all of one grid
    geometry, from one batched sweep."""
    if not fs:
        return []
    _checked_inputs(fs, Basis(), DEFAULT_BUDGET)
    return _average_sweep([[f] for f in fs], Basis())


def multilinear_maximal(fs: list[GridFunction], basis: Basis = Basis(),
                        budget: int = DEFAULT_BUDGET) -> MaximalField:
    """Sup over basis members of the product of the m averages; threaded as
    strong_maximal."""
    count = _checked_inputs(fs, basis, budget)
    return _field(fs, _average_sweep([fs], basis)[0], basis, count,
                  operator="multilinear_maximal", m=len(fs))


# Consecutive rungs of the lambda ladder differ by _LADDER_RATIO, unless the
# range needs more than _MAX_RUNGS rungs; then the ratio widens instead.
_LADDER_RATIO = 1.01
_MAX_RUNGS = 1024
# Phi values per Phi call while a ladder is built; bounds the temporaries of
# one call (a numeric complement keeps about twenty arrays of that length)
_LADDER_CHUNK = 1 << 13
# members per block of the ladder search (whole shapes, at least one)
_SEARCH_BLOCK = 1 << 15


class _Ladder(NamedTuple):
    """Summed-area tables of min(Phi(f / lam_k), clip) for one function.

    tables[k] is the padded table of rung k, flattened; lam[k + 2] is
    lam_k for k = -2 .. rungs + 1 (the two rungs past each end have no
    table and serve only as solver hints); slack[k] bounds the rounding
    error of one box sum of rung k.
    """

    lam: np.ndarray
    tables: np.ndarray
    slack: np.ndarray

    @property
    def rungs(self) -> int:
        return self.tables.shape[0]


def _capped_inverse(phi: YoungFunction, ys: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """inverse(phi, ys, tol) with ys clamped at Phi(cap): past an explicit
    cap Phi^{-1}(y) is the cap itself, which inverse() refuses."""
    cap = phi.domain_cap
    if cap is not None and np.isfinite(cap):
        ys = np.minimum(ys, phi.eval(float(cap)))
    return inverse(phi, ys, tol)


@functools.lru_cache(maxsize=16)
def _ladder_range(phi: YoungFunction, n_max: int) -> tuple[float, float]:
    """(Phi^{-1}(n_max), Phi^{-1}(1)) for _ladder, solved once per (phi, n_max).

    The frozen dataclass families hash by value, Tabulated and
    NumericComplement by identity.
    """
    t_n, t_1 = _capped_inverse(phi, np.array([float(n_max), 1.0]))
    return float(t_n), float(t_1)


def _ladder(f: GridFunction, phi: YoungFunction, n_max: int, least: float) -> _Ladder:
    """The ladder of one function, for members of at most n_max cells.

    A member R with a positive value has min f+ / Phi^{-1}(n_max) <=
    ||f||_{Phi,R} <= max f / Phi^{-1}(1), where min f+ is the least
    positive value; both inverses come from one call, cached per
    (phi, n_max) (_ladder_range). The rungs are lam_lo * q**k up to
    lam_hi. A positive least, the least M_B f over the grid, raises lam_lo
    to least / (q**2 Phi^{-1}(1)), two rungs of the ratio q below a value
    the field reaches at every cell by Jensen (see _orlicz_field): members
    whose norms sit lower never reach the field, and rungs down there would
    only resolve them. Each rung's Phi values are clipped at 4 * cells, so
    a cell whose Phi is +inf (a cap, a complement past its slope, an
    overflow) alone puts any member above n_R, and every table entry stays
    finite.
    """
    vals = f.values
    positive = vals[vals > 0]
    t_n, t_1 = _ladder_range(phi, n_max)
    log_lo = math.log(positive.min()) - math.log(t_n)
    log_hi = math.log(positive.max()) - math.log(t_1)
    jensen = math.log(least) - math.log(t_1) if least > 0 else -math.inf
    step = math.log(_LADDER_RATIO)
    log_lo = max(log_lo, jensen - 2.0 * step)
    rungs = max(2, math.ceil((log_hi - log_lo) / step) + 1)
    if rungs > _MAX_RUNGS:
        rungs = _MAX_RUNGS
        step = (log_hi - log_lo) / (rungs - 1)
    # a floor above 0 keeps 0 / lam from NaN when the least value is subnormal
    lam = np.maximum(np.exp(log_lo + step * np.arange(-2, rungs + 2)),
                     np.finfo(float).smallest_subnormal)

    d, cells = vals.ndim, vals.size
    tables = np.zeros((rungs,) + tuple(n + 1 for n in vals.shape))
    inner = (slice(1, None),) * d
    per_call = max(1, _LADDER_CHUNK // cells)
    for k in range(0, rungs, per_call):
        ks = slice(k, min(k + per_call, rungs))
        with np.errstate(divide="ignore", over="ignore"):
            t = vals / lam[ks.start + 2:ks.stop + 2].reshape((-1,) + (1,) * d)
        block = np.fmin(phi.eval(t.ravel()), 4.0 * cells).reshape(t.shape)
        for ax in range(1, d + 1):
            np.cumsum(block, axis=ax, out=block)
        tables[(ks,) + inner] = block
    tables = tables.reshape(rungs, -1)
    # A padded sum carries at most (sum of extents) * u * total of error
    # (u = _UNIT_ROUNDOFF), each of the 2**d corners of a box sum one such,
    # and the differences add a few u * total more. The solver sums the
    # same Phi values (at the very same floats f / lam_k) with
    # np.add.reduceat, in some order, which errs by at most (n_R - 1) * u
    # * total <= cells * u * total, and divides by n_R; the factor 2**(d+2)
    # * (cells + 4) covers all of it twice over. max(total, cells) keeps
    # the margin above the rounding of n_R itself.
    slack = 2.0 ** (d + 2) * (cells + 4) * _UNIT_ROUNDOFF * np.maximum(tables[:, -1], float(cells))
    return _Ladder(lam, tables, slack)


def _brackets(lad: _Ladder, blk: _Block):
    """Ladder brackets of one function on a block of members.

    A binary search finds, per member, the first rung k whose box sum S_k
    is at most n_R. Rung k-1 (else k-2) is a certified lower bound L when
    S - slack > n_R there; rung k (else k+1) is a certified upper bound U
    when S + slack <= n_R. Uncertified ends give L = 0 and U = inf. Returns
    L, U and the solver hints: the rungs of L and U, or of k-2 and k+1
    where uncertified.
    """
    rungs = lad.rungs
    width = lad.tables.shape[1]
    flat = lad.tables.reshape(-1)

    def sums(k):
        return _box_sums(flat, k * width + blk.base, blk.steps)

    lo = np.zeros(blk.base.size, dtype=np.intp)
    hi = np.full(blk.base.size, rungs, dtype=np.intp)
    for _ in range(rungs.bit_length()):
        mid = (lo + hi) // 2
        open_ = lo < hi
        over = sums(np.minimum(mid, rungs - 1)) > blk.ncells
        lo = np.where(open_ & over, mid + 1, lo)
        hi = np.where(open_ & ~over, mid, hi)

    def certified(k, above):
        kc = np.clip(k, 0, rungs - 1)
        s, e = sums(kc), lad.slack[kc]
        ok = s - e > blk.ncells if above else s + e <= blk.ncells
        return ok & (k >= 0) & (k < rungs)

    low1, low2 = certified(lo - 1, True), certified(lo - 2, True)
    up1, up2 = certified(lo, False), certified(lo + 1, False)
    lo_hint = lad.lam[np.where(low1, lo - 1, lo - 2) + 2]
    hi_hint = lad.lam[np.where(up1, lo, lo + 1) + 2]
    lower = np.where(low1 | low2, lo_hint, 0.0)
    upper = np.where(up1 | up2, hi_hint, np.inf)
    return lower, upper, lo_hint, hi_hint


class _Block(NamedTuple):
    """Members of whole shapes, shape by shape, positions C-ordered."""

    lo: np.ndarray            # (members, d) low corners
    sides: np.ndarray         # (members, d) sides
    base: np.ndarray          # flat index of the low corner in a padded table
    steps: list[np.ndarray]   # flat offset of the side along each axis
    ncells: np.ndarray        # n_R as floats
    windows: tuple            # the members' (idx, key) of _windows


def _blocks(grid_shape: tuple[int, ...], shapes: list[tuple[int, ...]]):
    """The members of shapes in blocks of about _SEARCH_BLOCK."""
    padded = tuple(n + 1 for n in grid_shape)
    sizes = np.prod(_position_grid(grid_shape, shapes), axis=1)
    for a, b in _runs(sizes, _SEARCH_BLOCK):
        yield _block(grid_shape, padded, shapes[a:b], sizes[a:b])


def _block(grid_shape, padded, shapes, sizes) -> _Block:
    """The _Block of the members of shapes, sizes[j] of shape j; built in a
    call of its own, so the generator above holds no block between yields."""
    shapes = np.array(shapes, dtype=np.intp).reshape(len(shapes), len(grid_shape))
    lo, sides = _members(grid_shape, shapes)
    base, steps = _box_index(padded, lo, sides)
    # a product along a short axis is slow: one per shape, repeated
    return _Block(lo, sides, base, steps, np.repeat(np.prod(shapes, axis=1), sizes).astype(float),
                  _windows(grid_shape, base, shapes, sizes))


# bits per leading level in a _windows key (levels stay below 64)
_KEY_BITS = 6


def _windows(grid_shape: tuple[int, ...], base: np.ndarray, shapes: np.ndarray,
             counts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Where each member's 2**d windows sit in the tables of _fold and _floor.

    A member of sides s has level k_i = floor(log2 s_i) on axis i, and its
    span [l, l + s) there is the union of the windows [l, l + 2**k) and
    [l + s - 2**k, l + s); the member is the union of the 2**d products of
    one window per axis. Its table holds the members of its leading levels
    (key, the levels packed _KEY_BITS apiece) and has shape (levels,
    n_0 + 1, ..., n_last + 1): the ladder's padded strides behind a level
    axis. Returns idx, of shape (members, 2**d), the flat index of each
    window's start at level k_last in that table, and key. base is each
    member's low corner on the padded strides (_Block.base), so a window
    is base plus an offset that depends on the shape alone: shapes is
    (u, d), the sides of counts[j] consecutive members each, or of one
    member each when counts is None. idx[:, 0], the lowest window, is
    base + k_last * (cells of the padded grid).
    """
    d = len(grid_shape)
    padded = np.add(grid_shape, 1)
    strides = np.cumprod((1, *padded[:0:-1].tolist()))[::-1].tolist()
    k = (np.frexp(np.arange(max(grid_shape) + 1))[1] - 1)[shapes]  # floor(log2 s)
    idx = np.empty((len(shapes), 1 << d), dtype=np.intp)
    np.multiply(k[:, -1], int(padded.prod()), out=idx[:, 0])
    if counts is None:
        idx[:, 0] += base
    for i in range(d):  # the windows of axes < i, then each moved up on axis i
        shift = (shapes[:, i] - (1 << k[:, i])) * strides[i]
        np.add(idx[:, :1 << i], shift[:, None], out=idx[:, 1 << i:2 << i])
    key = np.zeros(len(shapes), dtype=np.intp)
    for i in range(d - 1):
        key = key << _KEY_BITS | k[:, i]
    if counts is not None:
        idx, key = np.repeat(idx, counts, axis=0), np.repeat(key, counts)
        idx += base[:, None]
    return idx, key


def _groups(key: np.ndarray, d: int):
    """(leading window sides, members) per group of equal key: the members
    as a slice where key is sorted, as indices otherwise."""
    if key.size == 0:
        return
    order = None
    if np.any(key[1:] < key[:-1]):
        order = np.argsort(key, kind="stable")
        key = key[order]
    cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), key.size]
    for a, b in zip(cuts, cuts[1:]):
        k, mask = int(key[a]), (1 << _KEY_BITS) - 1
        lead = tuple(1 << ((k >> _KEY_BITS * i) & mask) for i in range(d - 2, -1, -1))
        yield lead, slice(a, b) if order is None else order[a:b]


def _member_windows(shape: tuple[int, ...], lo: np.ndarray, sides: np.ndarray):
    """_windows of members given by low corners and sides, one shape each."""
    padded = tuple(n + 1 for n in shape)
    return _windows(shape, lo @ np.cumprod((1,) + padded[:0:-1])[::-1], sides)


def _table(idx: np.ndarray, padded: tuple[int, ...]) -> np.ndarray:
    """Room for the deepest table the windows idx ask for; each group fills its own levels."""
    levels = int(idx[:, 0].max()) // math.prod(padded) + 1 if len(idx) else 0
    return np.empty((levels,) + padded)


def _fold(out: np.ndarray, lo: np.ndarray, sides: np.ndarray, value: np.ndarray,
          windows: tuple | None = None) -> None:
    """Raises each cell of out to value[i] of every member i covering it.

    Per group of members whose leading sides have the same levels
    (_windows; a caller that has them for lo and sides passes them),
    table[k, p, x] is the max of the members put in at the window of
    leading start p and last-axis span [x, x + 2**k), each member in its
    2**d windows. Every level is then pushed down into the two halves of
    its windows, so level 0 holds at (p, x) the max over the members whose
    windows start at p and cover x; one cover pass of the group's
    power-of-two window sides over the leading axes raises out. Max is
    exact, so out is the per-shape window-max fold bit for bit, however
    the members are ordered or split into calls.
    """
    idx, key = _member_windows(out.shape, lo, sides) if windows is None else windows
    n = out.shape[-1]
    padded = tuple(e + 1 for e in out.shape)
    size = math.prod(padded)
    table = _table(idx, padded)
    for lead, members in _groups(key, out.ndim):
        w = idx[members]
        t = table[:int(w[:, 0].max()) // size + 1]
        t.fill(-np.inf)
        flat, v = t.reshape(-1), value[members]
        for col in w.T:
            np.maximum.at(flat, col, v)
        for j in range(len(t) - 1, 0, -1):
            h = 1 << (j - 1)
            np.maximum(t[j - 1], t[j], out=t[j - 1])
            np.maximum(t[j - 1, ..., h:], t[j, ..., :-h], out=t[j - 1, ..., h:])
        starts = t[(0, *(slice(e - s + 1) for e, s in zip(out.shape, lead)), slice(n))]
        np.maximum(out, _window_extremes(starts, lead, cover=True), out=out)


def _floor(lb: np.ndarray, lo: np.ndarray, sides: np.ndarray,
           windows: tuple | None = None) -> np.ndarray:
    """min of lb over each member.

    Per group of members as _fold takes them, the leading-axis window min
    of lb (one _window_extremes pass of the group's power-of-two sides)
    becomes a range-minimum table over the last axis (Bender &
    Farach-Colton, LATIN 2000), laid out as _fold's: table[k, p, x] is the
    min over [x, x + 2**k), built level by level up to the largest level
    the group asks for. A member's floor is the min of its 2**d entries,
    whose windows make up the member: one gather per window column of the
    group. Min is exact, so each floor is the per-shape window min bit for
    bit, however the members are ordered or split into calls.
    """
    idx, key = _member_windows(lb.shape, lo, sides) if windows is None else windows
    padded = tuple(e + 1 for e in lb.shape)
    size = math.prod(padded)
    table = _table(idx, padded)
    out = np.empty(len(idx))
    for lead, members in _groups(key, lb.ndim):
        w = idx[members]
        t = table[:int(w[:, 0].max()) // size + 1]
        t.fill(np.inf)
        mins = _window_extremes(lb, lead, take_min=True)
        t[(0, *(slice(e) for e in mins.shape))] = mins
        for j in range(1, len(t)):
            h = 1 << (j - 1)
            np.minimum(t[j - 1, ..., :-h], t[j - 1, ..., h:], out=t[j, ..., :-h])
        flat = t.reshape(-1)
        v = flat[w[:, 0]]
        for col in w.T[1:]:
            np.minimum(v, flat[col], out=v)
        out[members] = v
    return out


@np.errstate(over="ignore")  # an overflowing product is inf, which _field rejects
def _orlicz_field(fs: list[GridFunction], phis: list[YoungFunction], basis: Basis,
                  budget: int, tol: float, prune: bool, /, **prov) -> MaximalField:
    """Sup over basis members of the product of per-function Luxemburg norms:
    the closed form where the norm has one (_closed_form), else the ladder
    sweep (_ladder_field). Each gives the field and its own provenance
    entries, next to the operator's prov."""
    _check_tol(tol)
    count = _checked_inputs(fs, basis, budget)
    out, how = _closed_form(fs, phis, basis, tol) or _ladder_field(fs, phis, basis, tol, prune)
    return _field(fs, out, basis, count, **prov, **how)


@np.errstate(divide="ignore")  # two_valued: t = 0 gives inf, which raises NoBracket
def _closed_form(fs: list[GridFunction], phis: list[YoungFunction], basis: Basis,
                 tol: float) -> tuple[np.ndarray, dict] | None:
    """The Orlicz field and its dispatch where the norm has a closed form,
    from one average sweep; None where none applies.

    - "average" and "power_mean": every phi_j is c_j t^q with one exponent
      q (young._power_form): an uncapped Power(q), or the conjugate of an
      uncapped Power(r), r > 1, read as (r-1) r^{-q} t^q with q = r/(r-1).
      The norm is c_j^{1/q} (mean_R f^q)^{1/q} and the outer 1/q power
      commutes with the sup, so the field is the average sweep A of the
      g_j = (f_j / 2**e_j)**q to the 1/q, times prod_j c_j^{1/q} and
      2**(sum e_j): q = 1 with every c_j = 1 is the plain average sweep
      of the f_j (dispatch "average", exact), anything else is dispatch
      "power_mean", which records the tol its guard reads. 2**(e_j-1) <=
      max f_j < 2**e_j, so g_j does not overflow and scaling an input by
      a power of two scales the field exactly.
      A guard refuses "power_mean" where the prefix sums' rounding could
      move the field A**(1/q) by more than tol, and the input goes on.
      A box sum taken from prefix sums is a difference of 2**d running
      sums of up to sum g_j, each rounded along a path of at most L = sum
      of the grid's sides additions; err_j = 2**d sqrt(L) u sum g_j (u =
      2**-53) takes their rounding as a random walk. That is not the
      worst case (L u sum g_j per running sum, which would refuse every
      grid from 128^2 on), but it is well above what the sums show: over
      every box of sides 1 to 5 in uniform and lognormal grids of 40 to
      256^2 cells, g = f^2 and f^6, the largest error was 6.7 u sum g,
      against 90 u sum g for err_j at 256^2. Each factor's mean at a
      cell's best member is at least the product A there (the others are
      at most 1), so A >= sum_j err_j / (q tol) keeps the relative error
      of A**(1/q) within tol. A cell that reads 0 is a true 0 when every
      g_j at a positive f_j exceeds err_j (none underflows, and a member
      on which every f_j has mass has a positive computed product). A
      large q (the conjugate of a power near 1), or a local basis far
      from the maximum, fails this.
    - "two_valued": m = 1 and f = c chi_E, c > 0. On a member R,
      ||c chi_E||_{Phi,R} = c / Phi^{-1}(|R| / |E cap R|) (mean_R Phi(c
      chi_E / lam) = Phi(c / lam) |E cap R| / |R|), and Phi^{-1} is
      nondecreasing, so the sup over the members containing x is c /
      Phi^{-1}(1 / a(x)), a = M_B chi_E the average sweep of the
      indicator under the same basis; cells where a = 0 stay 0. Every box
      sum of the indicator is an exact integer, so a(x) is k / n rounded
      once and 1 / a(x) is rounded twice: y two ULPs lower is at most n /
      k. y is clamped at Phi(cap) (_capped_inverse), since Phi^{-1} is
      the cap past it, and inverse solves each distinct y once. It
      returns t with Phi(t) <= y <= n / k, within a factor 1 + tol below
      the exact inverse, and c / t is rounded up one ULP, so the field
      sits on the solver's side of the exact one, within tol of it. A c /
      t past the float range raises NoBracket, as the solver does when no
      lam up to the largest float is feasible.

    None of them prunes, so prune on and off give the same bits.
    """
    forms = [_power_form(p) for p in phis]
    if None not in forms and len({q for q, _ in forms}) == 1:
        q = forms[0][0]
        scale = math.prod(s for _, s in forms)
        if q == 1.0 and scale == 1.0:
            return _average_sweep([fs], basis)[0], dict(dispatch="average")
        es = [int(np.frexp(f.values.max())[1]) for f in fs]
        powered = [f.with_values(np.ldexp(f.values, -e) ** q) for f, e in zip(fs, es)]
        spread = 2.0 ** fs[0].ndim * math.sqrt(sum(fs[0].shape)) * _UNIT_ROUNDOFF
        errs = [spread * float(g.values.sum()) for g in powered]
        swept = _average_sweep([powered], basis)[0]
        live = swept > 0
        refused = (live.any() and swept[live].min() < sum(errs) / (q * tol)
                   or not live.all() and any(np.any(g.values[f.values > 0] <= err)
                                             for g, f, err in zip(powered, fs, errs)))
        if not refused:
            return (np.ldexp(swept ** (1.0 / q) * scale, sum(es)),
                    dict(dispatch="power_mean", tol=tol))
    vals = fs[0].values
    top = vals.max()
    if len(fs) == 1 and top > 0 and np.all((vals == 0) | (vals == top)):
        a = _average_sweep([[fs[0].with_values((vals > 0).astype(float))]], basis)[0]
        hit = a > 0
        y = np.nextafter(np.nextafter(1.0 / a[hit], 0.0), 0.0)
        out = np.zeros(vals.shape)
        out[hit] = np.nextafter(float(top) / _capped_inverse(phis[0], y, tol), np.inf)
        if np.isinf(out).any():
            raise NoBracket("no bracket below the largest float")
        return out, dict(dispatch="two_valued", tol=tol)
    return None


def _ladder_field(fs: list[GridFunction], phis: list[YoungFunction], basis: Basis,
                  tol: float, prune: bool) -> tuple[np.ndarray, dict]:
    """The Orlicz field by the ladder sweep, and its counts, in four steps.

    1. Ladder (_ladder). Per function, summed-area tables of Phi(f/lam_k)
       on a geometric ladder lam_k (ratio 1.01, or wider past _MAX_RUNGS
       rungs) that spans every member's norm, or for m = 1 every norm
       that can reach the field: by Jensen, Phi(mean_R f / N(R)) <=
       mean_R Phi(f / N(R)) <= 1, so N(R) >= mean_R f / Phi^{-1}(1) and
       field(x) >= M_B f(x) / Phi^{-1}(1) >= least / Phi^{-1}(1), least
       the minimum over the grid of the average sweep M_B f under the
       same basis. The ladder then starts two rungs below that value
       (where M_B f is positive everywhere; else, and for m >= 2, at
       min f+ / Phi^{-1}(n_max)). For a member R with n_R
       cells, G(lam) = mean_R Phi(f/lam) is a box sum S_k / n_R, so a
       rung with S_k > n_R lies below the norm and one with S_k <= n_R
       above it; a rung counts only when S_k clears n_R by slack_k, an
       explicit bound on the rounding of the box sum and of the solver's
       own sum of the same Phi values. Memory is the tables, one block
       of members and the candidates, never one entry per member.
    2. Brackets (_brackets). Per block of members, a binary search over
       the rungs gives L_j(R) <= N_j(R) <= U_j(R), where N_j is the norm
       the solver returns: with lo hint L, certified infeasible, and hi
       hint U, certified feasible, the solver's bracket only shrinks.
       Where neither of the two nearest rungs is certified, L = 0 and
       U = inf, and the member stays a candidate. A norm below the first
       rung gets L = 0 and a lo hint perhaps on the wrong side, which
       the solver's bracket search moves down, never above U (a U that
       overflows once scaled with a tiny row lies hundreds of decades
       above that row's norm, so the bracket closes far below it).
    3. Skip rule. LB(x) = max over members R containing x of prod_j
       L_j(R), folded by _fold. R is a candidate when prod_j U_j(R) *
       (1 + 4 tol)**m >= floor(R) = min over x in R of LB(x), read by
       _floor. The members are walked once: per block, the search of
       step 2 gives L and U together, the block's prod L is folded into
       LB, and each member's floor is read from that LB, which holds
       this block and every earlier one; the fold and the floors share
       the block's windows (_windows). The live members whose prod U *
       (1 + 4 tol)**m reaches it are kept with their hints and windows,
       which the trims and the final fold read again. LB only
       grows, so a floor read mid-walk is never above the floor of the
       final LB and the kept members are a superset of the candidates.
       Whenever the kept members have doubled since the last trim, and
       once more when the walk ends, those of earlier blocks are trimmed
       against their floors in the LB of the moment (the last block's
       were just read from it), so the walk holds at most twice the
       members that survived the last trim, plus one block. The trim at
       the end reads the final LB, runs the same comparison on the same
       floats and leaves exactly the candidates. A skipped R has
       prod N(R) <= prod U(R) < min_R LB <= LB(x) <= field(x) at every
       cell x of R (floating products are monotone in each factor), so it
       is never the maximum at any cell it covers and the field does not
       change. The member attaining LB(x) is always a candidate, since
       min_R LB <= LB(x) = prod L <= prod U on it. The Jensen start
       changes only which rungs exist, not this argument.
       A member whose norm lies below the first rung, lam_0 = least /
       (q**2 Phi^{-1}(1)), gets U = lam_0 or lam_1 where certified, both
       below what the field reaches at every cell, so it is skipped
       wherever LB comes within a factor q of the field.
       A block whose prod L holds an inf raises NonFinite at once: the
       member's prod N >= prod L is inf, so the field is not finite.
    4. Solve. Per function, one grid._box_norms call solves every
       candidate with the hints of step 2, and _fold folds the products
       into the field as it folds LB.

    prune=False runs the same path with every live member (every f_j
    positive somewhere on it) as a candidate, and folds no LB. The two
    modes agree bit for bit: each candidate gets the same rows and hints
    in both, and luxemburg_batch stops each row on its own, so a norm does
    not depend on which other rows share its batch. The counts are
    rects_solved (candidates), pruned (live members skipped) and
    ladder_rungs (tables built, over all functions).
    """
    shape = fs[0].shape
    shapes = list(basis.shapes(shape))
    out = np.zeros(shape)
    if not shapes or not all(np.any(f.values > 0) for f in fs):
        return out, dict(pruned=0, rects_solved=0, ladder_rungs=0, tol=tol)
    n_max = max(math.prod(s) for s in shapes)
    least = float(_average_sweep([fs], basis)[0].min()) if len(fs) == 1 else 0.0
    ladders = [_ladder(f, phi, n_max, least) for f, phi in zip(fs, phis)]
    supports = [SummedAreaTable(f.with_values((f.values > 0).astype(float))).table.ravel()
                for f in fs]

    lb = np.zeros(shape)
    widen = (1.0 + 4.0 * tol) ** len(fs)
    # per block, the kept members' low corners, sides, window idx and key
    # (_windows), (members, m) hints and, under prune, prod U * widen
    kept = []
    live = held = since = 0
    for blk in _blocks(shape, shapes):
        brackets = [_brackets(lad, blk) for lad in ladders]
        keep = np.logical_and.reduce([_box_sums(t, blk.base, blk.steps) > 0 for t in supports])
        live += int(keep.sum())
        chunk = [blk.lo, blk.sides, *blk.windows,
                 *(np.stack([b[i] for b in brackets], axis=1) for i in (2, 3))]
        if prune:
            # a member on which some f_j vanishes has S = 0 <= n_R on every
            # rung of that f_j, hence L_j = 0: it adds nothing to LB
            low = math.prod(b[0] for b in brackets)
            if np.isinf(low).any():  # prod N >= prod L = inf: the field is not finite
                raise NonFinite(_OVERFLOW)
            _fold(lb, blk.lo, blk.sides, low, blk.windows)
            chunk.append(math.prod(b[1] for b in brackets) * widen)
            keep &= chunk[-1] >= _floor(lb, blk.lo, blk.sides, blk.windows)
        kept.append([a[keep] for a in chunk])
        held += int(keep.sum())
        del blk, brackets, chunk  # no longer held while the next block is built
        if prune and held > 2 * since:
            # trimmed whenever it has doubled, the superset stays under
            # twice what survives the floors so far, and the trims read
            # under twice as many floors as the walk keeps
            kept = [_trimmed(kept, lb)]
            held = since = len(kept[0][0])
    # under prune LB is final, and the trim leaves exactly the candidates;
    # the walk's chunks go once joined, before the solve
    kept = _trimmed(kept, lb) if prune else list(map(np.concatenate, zip(*kept)))
    lo, sides, idx, key, lo_hint, hi_hint, *_ = kept
    solved = len(lo)
    value = math.prod(_box_norms(f.values, lo, sides, phi, tol, lo_hint[:, j], hi_hint[:, j])
                      for j, (f, phi) in enumerate(zip(fs, phis)))
    _fold(out, lo, sides, value, (idx, key))
    return out, dict(pruned=live - solved, rects_solved=solved,
                     ladder_rungs=sum(lad.rungs for lad in ladders), tol=tol)


def _trimmed(kept: list[list[np.ndarray]], lb: np.ndarray) -> list[np.ndarray]:
    """The kept chunks as one, each chunk but the last (which was kept
    against this lb) first cut to the members whose prod U * widen, its
    last array, reaches their floor in lb."""
    for chunk in kept[:-1]:
        c = chunk[-1] >= _floor(lb, chunk[0], chunk[1], (chunk[2], chunk[3]))
        chunk[:] = [a[c] for a in chunk]
    return list(map(np.concatenate, zip(*kept)))


def orlicz_maximal(f: GridFunction, phi: YoungFunction, basis: Basis = Basis(),
                   budget: int = DEFAULT_BUDGET, tol: float = 1e-9,
                   prune: bool = True) -> MaximalField:
    """Pointwise sup of Luxemburg norms over basis members containing x.

    Where the norm has a closed form, one average sweep answers
    (_closed_form: Power(r=1) runs strong_maximal's sweep with its exact
    arithmetic, dispatch "average"; see there for "power_mean" and
    "two_valued"). Otherwise the ladder sweep runs (_ladder_field), and
    pruning skips members that provably cannot raise the field, so prune
    on and off give the same field bit for bit.
    """
    return _orlicz_field([f], [phi], basis, budget, tol, prune,
                         operator="orlicz_maximal", phi=young_to_json(phi))


def multilinear_orlicz_maximal(fs: list[GridFunction], phis: list[YoungFunction],
                               basis: Basis = Basis(), budget: int = DEFAULT_BUDGET,
                               tol: float = 1e-9) -> MaximalField:
    """Sup over basis members of the product of per-function Luxemburg norms.

    Members whose product provably cannot raise the field are skipped, as
    in orlicz_maximal; the field is the unpruned one bit for bit.
    """
    if not fs or len(fs) != len(phis):
        raise ValueError("need one Young function per input function")
    return _orlicz_field(fs, phis, basis, budget, tol, True,
                         operator="multilinear_orlicz_maximal", m=len(fs),
                         phis=[young_to_json(p) for p in phis])


def indicator_far_field(ys: np.ndarray, phi: YoungFunction | None = None) -> np.ndarray:
    """Rectangle-basis field of the unit-box indicator at points y of R^n.

    A rectangle's average of the indicator is the product over the axes of
    the share of its side inside [0, 1], and the best side through y_i has
    share 1 / max(1, y_i, 1 - y_i): [0, 1] itself, or stretched to reach
    y_i. So the average gives 1/P and the Luxemburg norm 1/Phi^{-1}(P),
    with P = prod_i max(1, y_i, 1 - y_i); at far points (every y_i >= 1)
    P = y_1 ... y_n, the anchored box [0, y_1] x ... x [0, y_n]. Past an
    explicit cap, P > Phi(cap), Phi^{-1}(P) is the cap (_capped_inverse).
    """
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    prods = np.prod(np.maximum(np.maximum(ys, 1.0 - ys), 1.0), axis=-1)
    if phi is None:
        return 1.0 / prods
    return 1.0 / _capped_inverse(phi, prods)
