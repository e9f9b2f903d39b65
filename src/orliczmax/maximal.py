"""Maximal operators over rectangle bases on grids.

Every operator here is a pointwise supremum over the members of a
rectangle basis containing the evaluation cell: of plain averages
(strong_maximal), of Luxemburg norms (orlicz_maximal), or of products of
either across several functions (the multilinear variants). The four
public functions are thin wrappers over one input check, one provenance
builder and two sweeps.

The average sweep (_average_sweep) runs a corner DP over the summed-area
tables: each side of the leading axis is differenced off and its
positions join a batch, recursively, and the last axis takes the maxima
over all (lo, hi) pairs at once; cube bases and 1-D grids take one
vectorized pass per shape instead. Differencing the table axis by axis in
the fixed canonical order keeps every average bit-identical to
rect_average on the same rectangle, which is what the brute-force
comparisons rely on.

The Orlicz sweep (_orlicz_field) brackets every member's Luxemburg norm
from a ladder of summed-area tables of Phi(f / lam_k), one per rung of a
geometric ladder of lam (Crow, SIGGRAPH 1984, for the tables): G(lam) =
mean_R Phi(f / lam) is one box sum per rung (grid._box_sums, in rect_sum's
order), and a rung certifies a side of the norm only when that sum clears
the cell count by an explicit rounding bound. The brackets give a lower
envelope of the field, every member whose upper bound cannot reach it is
skipped, and the few members left are solved by grid._box_norms, the
box-norm gather the weight constants share. Every per-cell supremum and
every window extreme comes from one block prefix/suffix min/max filter
(_window_extreme).

The work is proportional to the number of basis members, so that count is
the budget currency; exceeding the cap raises BudgetExceeded before any
sweep starts.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product as iter_product
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, GeometryMismatch
from .grid import (GridFunction, SummedAreaTable, _box_index, _box_norms, _box_sums, _members,
                   _position_grid, _runs, _shape_runs)
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
    x, those in (x - s, x]; the axis grows by s - 1. Block prefix and
    suffix extremes (van Herk 1992; Gil & Werman 1993) cost O(1) per
    element whatever s is. Max and min are exact, so the result does not
    depend on the method; it is C-contiguous when a is.
    """
    if s == 1:
        return a
    n = a.shape[axis]
    off = s - 1 if cover else 0
    length = n + 2 * off
    blocks = -(-length // s)
    ufunc = np.minimum if take_min else np.maximum
    lead = (slice(None),) * axis
    buf = np.full(a.shape[:axis] + (blocks * s,) + a.shape[axis + 1:],
                  np.inf if take_min else -np.inf)
    buf[lead + (slice(off, off + n),)] = a
    split = buf.reshape(a.shape[:axis] + (blocks, s) + a.shape[axis + 1:])
    suffix = np.empty_like(split)
    rev = lead + (slice(None), slice(None, None, -1))
    ufunc.accumulate(split[rev], axis=axis + 1, out=suffix[rev])
    ufunc.accumulate(split, axis=axis + 1, out=split)  # prefix extremes, into buf
    suffix = suffix.reshape(buf.shape)
    return ufunc(suffix[lead + (slice(0, length - s + 1),)],
                 buf[lead + (slice(s - 1, length),)])


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


def _field(fs: list[GridFunction], out: np.ndarray, basis: Basis, count: int,
           **prov) -> MaximalField:
    """The field on the inputs' grid, with the provenance every operator shares."""
    prov.update(basis=basis.to_dict(), grid_shape=list(fs[0].shape), rect_count=count,
                inputs=_input_digest(*fs))
    return MaximalField(field=fs[0].with_values(out), provenance=prov)


# pair cells (batch rows times (n+1)^2) per block of the last-axis DP, shared
# by all threads of a sweep; bounds the DP's buffers whatever the batch is
_DP_BLOCK = 1 << 18
# rows times (n+1) a block takes at least: numpy's accumulate holds the GIL
# over 500 or fewer, and the threads of a sweep would run one at a time
_DP_MIN_LINES = 501
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


def _dp_last_axis(slabs: list[np.ndarray], pref: int, dmat: np.ndarray,
                  bad: np.ndarray, block: int) -> np.ndarray:
    """Per-cell maxima over all (lo, hi) choices of the last table axis.

    slabs[j] holds, for each row of the batch, the partially differenced
    table of function j (shape (batch, n+1)). The average over the pair
    (lo, hi) is (slab[hi] - slab[lo]) / (pref * d), matching rect_sum's
    nested differencing and rect_average's division bit for bit; products
    across functions multiply in input order. Pairs flagged in bad are not
    admissible. The two max-accumulations turn the pair matrix into corner
    maxima, whose (x, x+1) diagonal is the best member containing cell x.
    Rows go through in blocks of block pair cells, or of _DP_MIN_LINES lines.
    """
    batch, size = slabs[0].shape
    out = np.empty((batch, size - 1))  # C order: norm_lp sums a field in memory order
    scale = pref * dmat
    step = max(-(-_DP_MIN_LINES // size), block // (size * size))
    bufs = [np.empty((min(step, batch), size, size)) for _ in slabs]  # reused by every block
    for lo in range(0, batch, step):
        n = min(step, batch - lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            v, *ws = [np.subtract(t[lo:lo + n, None, :], t[lo:lo + n, :, None], out=b[:n])
                      for t, b in zip(slabs, bufs)]
            v /= scale
            for w in ws:
                w /= scale
                v *= w
        np.copyto(v, -np.inf, where=bad)
        np.maximum.accumulate(v, axis=1, out=v)
        r = v[:, :, ::-1]
        np.maximum.accumulate(r, axis=2, out=r)
        out[lo:lo + n] = np.diagonal(v, 1, 1, 2)
    return out


def _corner_sweep(tables: list[np.ndarray], side_lists: list[list[int]], pref: int,
                  dmat: np.ndarray, bad: np.ndarray, block: int) -> np.ndarray:
    """Per-cell maxima over every member with sides from side_lists, any rank.

    tables[j] is the summed-area table of function j behind a leading batch
    axis, shape (batch, n_1+1, ..., n_k+1); the result has shape
    (batch, n_1, ..., n_k), -inf where no member covers a cell. Each side
    d of the leading axis is differenced off, its positions are folded
    into the batch for the remaining axes, and the per-position maxima are
    expanded back to cells with a cover max. The last axis is the pair DP,
    with dmat and bad built once per sweep and block its pair-cell bound;
    pref is the product of the sides already differenced off.
    """
    if len(side_lists) == 1:
        return _dp_last_axis(tables, pref, dmat, bad, block)
    out = None
    for d in side_lists[0]:
        slabs = [t[:, d:] - t[:, :-d] for t in tables]
        batch, npos = slabs[0].shape[:2]
        rest = slabs[0].shape[2:]
        u = _corner_sweep([s.reshape((batch * npos,) + rest) for s in slabs],
                          side_lists[1:], pref * d, dmat, bad, block)
        u = _window_extreme(u.reshape((batch, npos) + u.shape[1:]), d, 1, cover=True)
        out = u if out is None else np.maximum(out, u, out=out)
    return out


def _average_sweep(fs: list[GridFunction], basis: Basis) -> np.ndarray:
    """Sup over basis members of the product of per-function averages.

    Cube bases couple the sides, and in 1-D every member is an interval, so
    both go through one vectorized pass per shape, which holds one plane
    at a time. The uncoupled bases in 2-D and 3-D run the corner sweep,
    whose first side list is split across threads on grids of at least
    _THREAD_MIN_CELLS cells (_sweep_threads), sharing _DP_BLOCK. Max is
    exact and every average has its fixed operands, so
    the field does not depend on the thread count. Cells covered by no
    admissible member report 0 (empty supremum).
    """
    shape = fs[0].shape
    sats = [SummedAreaTable(f) for f in fs]
    tables = [sat.table for sat in sats]
    # averages of tables scaled against overflow are scaled back once, at
    # the end; a power of two commutes with the division and the products
    scale = sum(sat.exponent for sat in sats)

    if basis.kind == CUBES or len(shape) == 1:
        out = np.zeros(shape)
        for sides in basis.shapes(shape):
            ncells = math.prod(sides)
            plane = _window_sums(tables[0], sides) / ncells
            for t in tables[1:]:
                plane = plane * (_window_sums(t, sides) / ncells)
            np.maximum(out, _window_extremes(plane, sides, cover=True), out=out)
        return np.ldexp(out, scale) if scale else out

    side_lists = [basis.side_choices(e) for e in shape]
    if any(not lst for lst in side_lists):
        return np.zeros(shape)
    d = np.arange(shape[-1] + 1)[None, :] - np.arange(shape[-1] + 1)[:, None]
    dmat = d.astype(float)
    admissible = np.zeros(shape[-1] + 1, dtype=bool)
    admissible[side_lists[-1]] = True  # index 0 stays False: d <= 0 is no member
    bad = ~admissible[np.maximum(d, 0)]
    tables = [t[None] for t in tables]
    firsts = side_lists[0]
    threads = _sweep_threads(shape, len(firsts))
    block = _DP_BLOCK // threads

    def sweep(sides: list[int]) -> np.ndarray:
        return _corner_sweep(tables, [sides] + side_lists[1:], 1, dmat, bad, block)

    if threads == 1:
        out = sweep(firsts)
    else:
        chunks = [firsts[i::threads] for i in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            out = np.maximum.reduce(list(pool.map(sweep, chunks)))
    out = np.maximum(out[0], 0.0)
    return np.ldexp(out, scale) if scale else out


def strong_maximal(f: GridFunction, basis: Basis = Basis(),
                   budget: int = DEFAULT_BUDGET) -> MaximalField:
    """Pointwise sup of rectangle averages over basis members containing x.

    Admits the single-cell rectangle (when min_side is 1), so the output
    dominates the input pointwise. Large grids sweep on all usable cores,
    with the same bits as on one.
    """
    count = _checked_inputs([f], basis, budget)
    return _field([f], _average_sweep([f], basis), basis, count,
                  operator="strong_maximal")


def multilinear_maximal(fs: list[GridFunction], basis: Basis = Basis(),
                        budget: int = DEFAULT_BUDGET) -> MaximalField:
    """Sup over basis members of the product of the m averages; threaded as
    strong_maximal."""
    count = _checked_inputs(fs, basis, budget)
    return _field(fs, _average_sweep(fs, basis), basis, count,
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


def _ladder(f: GridFunction, phi: YoungFunction, n_max: int, least: float) -> _Ladder:
    """The ladder of one function, for members of at most n_max cells.

    A member R with a positive value has min f+ / Phi^{-1}(n_max) <=
    ||f||_{Phi,R} <= max f / Phi^{-1}(1), where min f+ is the least
    positive value; both inverses come from one call. The rungs are
    lam_lo * q**k up to lam_hi. A positive least, the least M_B f over the
    grid, raises lam_lo to least / (q**2 Phi^{-1}(1)), two rungs of the
    ratio q below a value the field reaches at every cell by Jensen (see
    _orlicz_field): members whose norms sit lower never reach the field,
    and rungs down there would only resolve them. Each rung's Phi values
    are clipped at 4 * cells, so a cell whose Phi is +inf (a cap, a
    complement past its slope, an overflow) alone puts any member above
    n_R, and every table entry stays finite.
    """
    vals = f.values
    positive = vals[vals > 0]
    ys = np.array([float(n_max), 1.0])
    cap = phi.domain_cap
    if cap is not None and np.isfinite(cap):
        # past the cap Phi^{-1}(y) is the cap itself, which inverse() refuses
        ys = np.minimum(ys, phi.eval(float(cap)))
    t_n, t_1 = inverse(phi, ys)
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
    # A padded sum carries at most (sum of extents) * u * total of error,
    # each of the 2**d corners of a box sum one such, and the differences
    # add a few u * total more. The solver sums the same Phi values
    # (at the very same floats f / lam_k) with np.add.reduceat, in some
    # order, which errs by at most (n_R - 1) * u * total <= cells * u *
    # total, and divides by n_R; the factor 2**(d+2) * (cells + 4) covers
    # all of it twice over. max(total, cells) keeps the margin above the
    # rounding of n_R itself.
    u = 2.0 ** -53
    slack = 2.0 ** (d + 2) * (cells + 4) * u * np.maximum(tables[:, -1], float(cells))
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


def _blocks(grid_shape: tuple[int, ...], shapes: list[tuple[int, ...]]):
    """The members of shapes in blocks of about _SEARCH_BLOCK."""
    padded = tuple(n + 1 for n in grid_shape)
    sizes = [math.prod(_position_grid(grid_shape, sides)) for sides in shapes]
    for a, b in _runs(sizes, _SEARCH_BLOCK):
        lo, sides = _members(grid_shape, shapes[a:b])
        yield _Block(lo, sides, *_box_index(padded, lo, sides),
                     np.prod(sides, axis=1).astype(float))


def _fold(out: np.ndarray, lo: np.ndarray, sides: np.ndarray, value: np.ndarray) -> None:
    """Raise each cell of out to value[i] of every member i covering it, shape by shape."""
    for s, i, j in _shape_runs(sides):
        plane = np.zeros(_position_grid(out.shape, s))
        plane[tuple(lo[i:j].T)] = value[i:j]
        np.maximum(out, _window_extremes(plane, s, cover=True), out=out)


def _orlicz_field(fs: list[GridFunction], phis: list[YoungFunction], basis: Basis,
                  budget: int, tol: float, prune: bool, /, **prov) -> MaximalField:
    """Sup over basis members of the product of per-function Luxemburg norms.

    When every phi is an uncapped Power with one exponent r, the norm is
    (mean_R f^r)^{1/r} in closed form and the outer 1/r power commutes
    with the sup, so the field is the average sweep of the f_j^r to the
    1/r: r = 1 is the plain average sweep (dispatch "average"), any other
    r is dispatch "power_mean". Each f_j is first divided by the power of
    two 2**e_j with 2**(e_j-1) <= max f_j < 2**e_j, and the field is
    multiplied back by 2**(sum e_j), so f^r neither under- nor overflows
    and scaling an input by a power of two scales the field exactly.

    Otherwise the sweep runs in four steps.

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
       L_j(R), folded with _window_extremes. R is a candidate when prod_j
       U_j(R) * (1 + 4 tol)**m >= min over x in R of LB(x). A skipped R
       has prod N(R) <= prod U(R) < min_R LB <= LB(x) <= field(x) at every
       cell x of R (floating products are monotone in each factor), so it
       is never the maximum at any cell it covers and the field does not
       change. The member attaining LB(x) is always a candidate, since
       min_R LB <= LB(x) = prod L <= prod U on it. Building LB needs every
       member's L, so the search runs once for LB and again for U. The
       Jensen start changes only which rungs exist, not this argument.
       A member whose norm lies below the first rung, lam_0 = least /
       (q**2 Phi^{-1}(1)), gets U = lam_0 or lam_1 where certified, both
       below what the field reaches at every cell, so it is skipped
       wherever LB comes within a factor q of the field.
    4. Solve. Per function, one grid._box_norms call solves every
       candidate with the hints of step 2, and the products are folded
       into the field one shape at a time.

    prune=False runs the same path with every live member (every f_j
    positive somewhere on it) as a candidate. The two modes agree bit for
    bit: each candidate gets the same rows and hints in both, and
    luxemburg_batch stops each row on its own, so a norm does not depend
    on which other rows share its batch. Provenance counts rects_solved
    (candidates), pruned (live members skipped) and ladder_rungs (tables
    built, over all functions).
    """
    count = _checked_inputs(fs, basis, budget)
    if (all(isinstance(p, Power) and p.domain_cap is None for p in phis)
            and len({p.r for p in phis}) == 1):
        r = phis[0].r
        if r == 1.0:
            return _field(fs, _average_sweep(fs, basis), basis, count, **prov,
                          dispatch="average")
        es = [int(np.frexp(f.values.max())[1]) for f in fs]
        powered = [f.with_values(np.ldexp(f.values, -e) ** r) for f, e in zip(fs, es)]
        out = np.ldexp(_average_sweep(powered, basis) ** (1.0 / r), sum(es))
        return _field(fs, out, basis, count, **prov, dispatch="power_mean")

    shape = fs[0].shape
    shapes = list(basis.shapes(shape))
    out = np.zeros(shape)
    if not shapes or not all(np.any(f.values > 0) for f in fs):
        return _field(fs, out, basis, count, **prov, pruned=0, rects_solved=0,
                      ladder_rungs=0, tol=tol)
    n_max = max(math.prod(s) for s in shapes)
    least = float(_average_sweep(fs, basis).min()) if len(fs) == 1 else 0.0
    ladders = [_ladder(f, phi, n_max, least) for f, phi in zip(fs, phis)]
    supports = [SummedAreaTable(f.with_values((f.values > 0).astype(float))).table.ravel()
                for f in fs]

    if prune:
        # a member on which some f_j vanishes has S = 0 <= n_R on every rung
        # of that f_j, hence L_j = 0: it adds nothing to LB
        lb = np.zeros(shape)
        for blk in _blocks(shape, shapes):
            _fold(lb, blk.lo, blk.sides, math.prod(_brackets(lad, blk)[0] for lad in ladders))
        widen = (1.0 + 4.0 * tol) ** len(fs)

    # per block, the candidates' low corners, sides and (candidates, m) hints
    candidates = []
    live = solved = 0
    for blk in _blocks(shape, shapes):
        brackets = [_brackets(lad, blk) for lad in ladders]
        cand = np.logical_and.reduce([_box_sums(t, blk.base, blk.steps) > 0 for t in supports])
        live += int(cand.sum())
        if prune:
            floor = np.concatenate([_window_extremes(lb, sides, take_min=True).ravel()
                                    for sides, _, _ in _shape_runs(blk.sides)])
            cand &= math.prod(b[1] for b in brackets) * widen >= floor
        solved += int(cand.sum())
        candidates.append((blk.lo[cand], blk.sides[cand],
                           np.stack([b[2] for b in brackets], axis=1)[cand],
                           np.stack([b[3] for b in brackets], axis=1)[cand]))

    lo, sides, lo_hint, hi_hint = map(np.concatenate, zip(*candidates))
    value = math.prod(_box_norms(f.values, lo, sides, phi, tol, lo_hint[:, j], hi_hint[:, j])
                      for j, (f, phi) in enumerate(zip(fs, phis)))
    _fold(out, lo, sides, value)
    return _field(fs, out, basis, count, **prov, pruned=live - solved,
                  rects_solved=solved, ladder_rungs=sum(lad.rungs for lad in ladders),
                  tol=tol)


def orlicz_maximal(f: GridFunction, phi: YoungFunction, basis: Basis = Basis(),
                   budget: int = DEFAULT_BUDGET, tol: float = 1e-9,
                   prune: bool = True) -> MaximalField:
    """Pointwise sup of Luxemburg norms over basis members containing x.

    Phi(t) = t makes the Luxemburg norm the plain average, so Power(r=1)
    runs the average sweep of strong_maximal and inherits its exact
    arithmetic; other uncapped powers use the closed form. Pruning skips
    members that provably cannot raise the field, so prune on and off
    give the same field bit for bit (see _orlicz_field).
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
