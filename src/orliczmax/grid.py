"""Grids, index rectangles, summed-area tables, and Orlicz norms on rectangles.

A GridFunction samples a nonnegative function at cell centers of a uniform
grid over an axis-parallel box (midpoint convention: sample k on axis d sits
at origin[d] + (k + 1/2) * spacing[d]). Index rectangles are half-open per
axis. All rectangle sums go through the summed-area table with a fixed
first-axis-to-last differencing order so that every code path that averages
the same rectangle produces bit-identical floats: rect_sum and rect_average
are its scalar form. The member layer, which the maximal sweeps and the
weight constants share, is the vector form: boxes are (boxes, d) arrays of
low corners and sides, _members enumerates them shape by shape,
SummedAreaTable.averages reads their means (through the gather _box_sums)
and _box_norms their Luxemburg norms (through luxemburg_batch).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyRect, GeometryMismatch, DimensionError
from .young import YoungFunction, _solve_bracketed

__all__ = [
    "GridFunction",
    "Rect",
    "SummedAreaTable",
    "RowBlocks",
    "rect_average",
    "luxemburg_norm",
    "norm_lp",
    "write_grid",
    "read_grid",
]

_MAX_DIM = 3


@dataclass(frozen=True)
class GridFunction:
    """Nonnegative samples on a uniform grid, dimensions 1 to 3.

    Values are clamped to >= 0 at ingestion; NaN/inf are rejected. The
    stored array is read-only.
    """

    shape: tuple[int, ...]
    origin: tuple[float, ...]
    spacing: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        origin = tuple(float(o) for o in self.origin)
        spacing = tuple(float(h) for h in self.spacing)
        if not (1 <= len(shape) <= _MAX_DIM):
            raise DimensionError(f"dimension {len(shape)} unsupported (1..{_MAX_DIM})")
        if len(origin) != len(shape) or len(spacing) != len(shape):
            raise GeometryMismatch("shape/origin/spacing length mismatch")
        if any(s < 1 for s in shape):
            raise ValueError("all axis sizes must be >= 1")
        if any(not np.isfinite(h) or h <= 0 for h in spacing):
            raise ValueError("spacing must be positive and finite")
        vals = np.asarray(self.values, dtype=float)
        if vals.size != int(np.prod(shape)):
            raise GeometryMismatch(f"expected {int(np.prod(shape))} values, got {vals.size}")
        if np.any(~np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        vals = np.maximum(vals.reshape(shape), 0.0)
        vals.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "values", vals)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_centers(self, d: int) -> np.ndarray:
        return self.origin[d] + (np.arange(self.shape[d]) + 0.5) * self.spacing[d]

    def same_geometry(self, other: "GridFunction") -> bool:
        return (
            self.shape == other.shape
            and self.origin == other.origin
            and self.spacing == other.spacing
        )

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.shape, self.origin, self.spacing, values)

    @staticmethod
    def sample(fn: Callable[..., np.ndarray], shape, origin, spacing) -> "GridFunction":
        """Sample fn(x1, ..., xn) at cell centers (fn must broadcast)."""
        g = GridFunction(tuple(shape), tuple(origin), tuple(spacing),
                         np.zeros(tuple(int(s) for s in shape)))
        axes = np.meshgrid(*[g.axis_centers(d) for d in range(g.ndim)], indexing="ij")
        return g.with_values(np.asarray(fn(*axes), dtype=float))

    @staticmethod
    def indicator_box(shape, origin, spacing, lo: Sequence[float], hi: Sequence[float]) -> "GridFunction":
        """Indicator of an axis box, sampled at cell centers."""
        return GridFunction.sample(lambda *xs: np.logical_and.reduce(
            [(x >= a) & (x <= b) for x, a, b in zip(xs, lo, hi)]), shape, origin, spacing)


@dataclass(frozen=True)
class Rect:
    """Half-open index rectangle: cells lo[d] <= i < hi[d] on each axis."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        lo = tuple(int(a) for a in self.lo)
        hi = tuple(int(b) for b in self.hi)
        if len(lo) != len(hi):
            raise GeometryMismatch("lo/hi length mismatch")
        if any(a < 0 for a in lo) or any(b <= a for a, b in zip(lo, hi)):
            raise EmptyRect(f"empty or negative index range {lo}..{hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def ncells(self) -> int:
        return math.prod(self.sides())

    @property
    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(a, b) for a, b in zip(self.lo, self.hi))

    def sides(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def check_within(self, shape: Sequence[int]) -> None:
        if len(shape) != self.ndim:
            raise GeometryMismatch("rect dimension does not match grid")
        if any(b > s for b, s in zip(self.hi, shape)):
            raise GeometryMismatch(f"rect {self.lo}..{self.hi} exceeds grid shape {tuple(shape)}")

    def contains_cell(self, idx: Sequence[int]) -> bool:
        return all(a <= i < b for a, i, b in zip(self.lo, idx, self.hi))


class SummedAreaTable:
    """Padded cumulative sums; rectangle sums by nested axis differencing.

    table has shape+1 per axis with a zero slab in front, so the sum over a
    half-open rectangle is obtained by differencing axis 0 first, then axis
    1, and so on. That fixed order is the package's canonical averaging
    arithmetic.

    When max * size could reach the top of the float range, the running
    sums would overflow, so the values are first divided by the smallest
    power of two 2**exponent that keeps that bound below 2**1023, and the
    sums and averages are multiplied back. The scaling is exact, and on
    every other input exponent is 0 and the table holds the plain sums.
    """

    def __init__(self, f: GridFunction):
        t = f.values
        top = float(t.max())
        self.exponent = 0
        if top > 0:
            self.exponent = max(0, int(np.frexp(top)[1]) + t.size.bit_length() - 1023)
        if self.exponent:
            t = np.ldexp(t, -self.exponent)
        for ax in range(f.ndim):
            t = np.cumsum(t, axis=ax)
        t = np.pad(t, [(1, 0)] * f.ndim)
        t.setflags(write=False)
        self.table = t
        self.shape = f.shape
        self.cell_volume = f.cell_volume

    def _scaled_sum(self, rect: Rect) -> float:
        rect.check_within(self.shape)
        a = self.table
        for lo, hi in zip(rect.lo, rect.hi):
            a = a[hi] - a[lo]
        return float(a)

    def rect_sum(self, rect: Rect) -> float:
        """Sum over the rectangle; inf when the sum itself exceeds the float range."""
        with np.errstate(over="ignore"):
            return float(np.ldexp(self._scaled_sum(rect), self.exponent))

    def averages(self, lo: np.ndarray, sides: np.ndarray) -> np.ndarray:
        """rect_average of every box lo[i] .. lo[i] + sides[i] within the grid,
        bit for bit; lo and sides are (boxes, d) integer arrays. A box is
        rejected where Rect or check_within would reject it."""
        lo, sides = np.asarray(lo, dtype=np.intp), np.asarray(sides, dtype=np.intp)
        if np.any(lo < 0) or np.any(sides < 1):
            raise EmptyRect("a box has a negative corner or an empty side")
        if (lo.shape != sides.shape or lo.shape[1:] != (len(self.shape),)
                or np.any(lo + sides > self.shape)):
            raise GeometryMismatch(f"boxes {lo.shape} do not lie in grid shape {self.shape}")
        sums = _box_sums(self.table.ravel(), *_box_index(self.table.shape, lo, sides))
        return np.ldexp(sums / np.prod(sides, axis=1), self.exponent)


def _position_grid(grid_shape: tuple[int, ...], sides: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(n - s + 1 for n, s in zip(grid_shape, sides))


def _members(grid_shape: tuple[int, ...],
             shapes: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Low corners and sides of every box of shapes in the grid, as (boxes, d)
    intp arrays: shape by shape, positions C-ordered."""
    lo = [np.indices(_position_grid(grid_shape, s), dtype=np.intp).reshape(len(s), -1).T
          for s in shapes]
    sides = np.repeat(np.array(shapes, dtype=np.intp), [len(a) for a in lo], axis=0)
    return np.concatenate(lo), sides


def _shape_runs(sides: np.ndarray) -> list[tuple[tuple[int, ...], int, int]]:
    """(shape, a, b) for each run [a, b) of equal consecutive rows of (boxes, d) sides."""
    # one comparison per axis: np.any along a short last axis is ten times slower
    changed = np.any([a[1:] != a[:-1] for a in sides.T], axis=0)
    cuts = [0, *(np.flatnonzero(changed) + 1).tolist(), len(sides)]
    return [(tuple(sides[a].tolist()), a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def _box_index(padded: tuple[int, ...], lo: np.ndarray, sides: np.ndarray):
    """_box_sums' idx and steps for (boxes, d) lo and sides in a C-ordered padded table."""
    strides = np.cumprod((1,) + tuple(padded[:0:-1]))[::-1]
    return lo @ strides, list((sides * strides).T)


def _box_sums(flat: np.ndarray, idx: np.ndarray, steps: list[np.ndarray]) -> np.ndarray:
    """Sums over boxes of a flattened padded table, in rect_sum's order.

    idx is the flat index of each box's low corner, steps[i] the flat
    offset of its side along axis i. The last axis is differenced
    outermost, so axis 0 is differenced first: 2**d gathers.
    """
    if not steps:
        return flat[idx]
    return _box_sums(flat, idx + steps[-1], steps[:-1]) - _box_sums(flat, idx, steps[:-1])


def rect_average(sat: SummedAreaTable, rect: Rect) -> float:
    """Mean of the covered samples: rect_sum / cell count.

    Equal to (sum of value * cellvol) / rect volume since the cell volume
    cancels; the division by the integer count is the canonical form. A
    scaled table divides before it scales back, so the mean of values near
    the top of the float range stays finite.
    """
    return float(np.ldexp(sat._scaled_sum(rect) / rect.ncells, sat.exponent))


class RowBlocks(list):
    """Matrices of different row lengths, one batch for luxemburg_batch.

    A list of 2-D matrices whose shape reads (rows, mean cells per row), so
    code that sizes a batch by np.shape (the benchmark's layer counters,
    bench/spans.py) counts its rows and cells as it would a matrix's.
    """

    @property
    def shape(self) -> tuple[int, float]:
        rows = sum(len(a) for a in self)
        return rows, sum(np.size(a) for a in self) / max(rows, 1)


def _matrices(rows) -> list[np.ndarray]:
    """rows as a list of 2-D float matrices: one matrix, or each of a sequence."""
    if isinstance(rows, np.ndarray) or len(rows) == 0 or np.ndim(rows[0]) < 2:
        rows = [rows]
    mats = [np.asarray(m, dtype=float) for m in rows]
    if any(m.ndim != 2 for m in mats):
        raise ValueError("rows must be a 2d matrix or a sequence of 2d matrices")
    return mats


# cells per solver run of luxemburg_batch (whole rows, at least one)
_RUN_CELLS = 1 << 14


def _runs(sizes, limit: int):
    """Consecutive runs [a, b) of items whose sizes add up to at most limit, or one item."""
    ends = np.cumsum(sizes, dtype=np.int64)
    a = 0
    while a < ends.size:
        base = ends[a - 1] if a else 0
        b = max(int(np.searchsorted(ends, base + limit, side="right")), a + 1)
        yield a, b
        a = b


def luxemburg_batch(rows, phi: YoungFunction, tol: float = 1e-9,
                    lo_hint: np.ndarray | None = None,
                    hi_hint: np.ndarray | None = None) -> np.ndarray:
    """Luxemburg norms of the rows of matrices under the normalized mean.

    rows is a 2-D matrix, or a sequence of them of any row lengths (one per
    length, say, as RowBlocks); the norms come back in the concatenated
    row order, and the hints follow that order. Returns per-row
    inf{lam > 0 : G(lam) <= 1}, G(lam) = mean Phi(row / lam); all-zero rows
    give 0. Each row is one problem of young._solve_bracketed on log G over
    log lam, from the start bracket [m * 1e-14, m * 1e3] (m the row
    maximum) or from the optional hints, G(lo) >= 1 >= G(hi) where they
    are right: a hint on the wrong side costs bracket-search steps, and a
    hint that overflows once scaled with its row is taken as the largest
    float. It raises NoBracket when G > 1 up to the largest float and
    gives 0 when G <= 1 down to underflow. The returned value is the
    feasible upper end of a bracket with hi - lo <= tol * hi, so G <= 1
    there and it never undershoots the true norm by more than the bracket
    width. Each row is divided by the power of two 2**e with
    2**(e-1) <= max(row) < 2**e, and its hints with it, and the result is
    multiplied back, so scaling a row by a power of two scales its norm
    exactly.

    The nonzero rows of all matrices, in order, are cut into consecutive
    runs of whole rows of at most _RUN_CELLS cells (a longer row is a run
    of its own), which bounds the working set of a batch of any size. Each
    run is one _solve_bracketed call over its rows laid end to end as
    segments of one flat array: a probe is one Phi call over the cells of
    every open row of the run, and each G is its segment's np.add.reduceat
    sum over its cell count. That sum reads only its own segment, and each
    row stops on its own, so a row's result is the same whichever rows
    share its run or its batch, in whichever matrix.
    """
    mats = _matrices(rows)
    lengths = np.concatenate([np.full(len(a), a.shape[1], dtype=np.intp) for a in mats])
    out = np.zeros(lengths.size)
    vmax = np.concatenate([a.max(axis=1) for a in mats])
    active = vmax > 0
    if not np.any(active):
        return out
    # log-space iterates are not scale-equivariant to the bit; solving the
    # row scaled into [1/2, 1) makes power-of-two scalings exact
    e = np.frexp(vmax[active])[1]
    m = np.ldexp(vmax[active], -e)
    cells = np.concatenate([a.ravel() for a in mats])[np.repeat(active, lengths)]
    lengths = lengths[active]
    with np.errstate(over="ignore"):
        lo = m * 1e-14 if lo_hint is None else np.ldexp(np.asarray(lo_hint, float)[active], -e)
        hi = m * 1e3 if hi_hint is None else np.ldexp(np.asarray(hi_hint, float)[active], -e)
    hi = np.minimum(hi, np.finfo(float).max)
    lo = np.minimum(np.maximum(lo, 1e-300), hi)

    norms = np.empty(lengths.size)
    ends = np.cumsum(lengths)
    for a, b in _runs(lengths, _RUN_CELLS):
        n = lengths[a:b]
        run = np.ldexp(cells[ends[a] - n[0]:ends[b - 1]], -np.repeat(e[a:b], n))
        norms[a:b] = _solve_rows(run, n, lo[a:b], hi[a:b], phi, tol)
    out[active] = np.ldexp(norms, e)
    return out


def _box_norms(values: np.ndarray, lo: np.ndarray, sides: np.ndarray, phi: YoungFunction,
               tol: float = 1e-9, lo_hint: np.ndarray | None = None,
               hi_hint: np.ndarray | None = None) -> np.ndarray:
    """Luxemburg norms of the boxes lo[i] .. lo[i] + sides[i] within values.

    lo, sides and the optional hints are per box, in any order and any mix
    of shapes; a box's cells form its row in C order. The rows are taken
    shape by shape (a stable sort), gathered and solved one run of at most
    _RUN_CELLS cells at a time by luxemburg_batch, whose norms do not depend
    on which rows share a batch, and the norms come back in input order.
    """
    order = np.argsort(np.ravel_multi_index((sides - 1).T, values.shape), kind="stable")
    out = np.empty(len(order))
    for a, b in _runs(np.prod(sides[order], axis=1), _RUN_CELLS):
        run = order[a:b]
        out[run] = luxemburg_batch(
            RowBlocks(sliding_window_view(values, s)[tuple(lo[run[i:j]].T)].reshape(j - i, -1)
                      for s, i, j in _shape_runs(sides[run])),
            phi, tol, None if lo_hint is None else lo_hint[run],
            None if hi_hint is None else hi_hint[run])
    return out


def _solve_rows(cells: np.ndarray, lengths: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                phi: YoungFunction, tol: float) -> np.ndarray:
    """One _solve_bracketed call: the scaled rows laid end to end in cells."""
    starts = np.cumsum(lengths) - lengths
    # the cells of the open rows idx, segment by segment, gathered again
    # only when the solver passes a new idx (when some row has stopped)
    key = open_rows = None

    def probe(idx, lam):
        nonlocal key, open_rows
        if idx is not key:
            n = lengths[idx]
            offsets = np.cumsum(n) - n
            key, open_rows = idx, (n, offsets, cells[np.arange(offsets[-1] + n[-1])
                                                      + np.repeat(starts[idx] - offsets, n)])
        n, offsets, sub = open_rows
        if lam.size > 1:
            lam = np.repeat(lam, n)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            g = np.add.reduceat(phi.eval(sub / lam), offsets) / n
        return g, g <= 1.0

    def log(idx, g):
        with np.errstate(divide="ignore"):
            return np.log(g)

    return _solve_bracketed(lo, hi, probe, log, tol, upper=True)


def luxemburg_norm(f: GridFunction, rect: Rect, phi: YoungFunction,
                   tol: float = 1e-9) -> float:
    """Luxemburg norm of f over a rectangle w.r.t. the normalized mean.

    inf{lam > 0 : (1/|r|) sum_r Phi(f/lam) <= 1}, found by luxemburg_batch
    under its contract: NoBracket when no lam up to the largest float is
    feasible, 0 when every lam down to underflow is, and otherwise the
    certified-feasible upper end of the final bracket, which never
    undershoots the true norm by more than the bracket width.
    """
    rect.check_within(f.shape)
    vals = f.values[rect.slices].reshape(1, -1)
    return float(luxemburg_batch(vals, phi, tol=tol)[0])


def norm_lp(f: GridFunction, p: float, weight: GridFunction | None = None) -> float:
    """(sum f^p * w * cellvol)^(1/p) with the weight optional."""
    if p <= 0:
        raise ValueError("p must be positive")
    arr = f.values**p
    if weight is not None:
        if not f.same_geometry(weight):
            raise GeometryMismatch("weight grid does not match f")
        arr = arr * weight.values
    return float((arr.sum() * f.cell_volume) ** (1.0 / p))


def write_grid(f: GridFunction, path: str) -> None:
    """One-line JSON header, then whitespace-separated row-major values."""
    header = {
        "dim": f.ndim,
        "shape": list(f.shape),
        "origin": list(f.origin),
        "spacing": list(f.spacing),
    }
    flat = f.values.ravel()
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for start in range(0, flat.size, 8):
            fh.write(" ".join(repr(float(v)) for v in flat[start:start + 8]) + "\n")


def read_grid(path: str) -> GridFunction:
    with open(path) as fh:
        header = json.loads(fh.readline())
        body = fh.read()
    vals = np.array([float(tok) for tok in body.split()])
    shape = tuple(int(s) for s in header["shape"])
    if int(header.get("dim", len(shape))) != len(shape):
        raise GeometryMismatch("header dim disagrees with shape")
    return GridFunction(shape, tuple(header["origin"]), tuple(header["spacing"]), vals)
