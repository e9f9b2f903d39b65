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
over all (lo, hi) pairs at once. The Orlicz sweep (_orlicz_field) goes
shape by shape, solving the norms of all positions of one shape in one
vectorized pass. Every per-cell supremum and every window extreme comes
from one block prefix/suffix min/max filter (_window_extreme). Differencing
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


def _cover_max(plane: np.ndarray, sides: tuple[int, ...]) -> np.ndarray:
    """Per-cell max over the positions whose member of one shape covers the cell."""
    for ax, s in enumerate(sides):
        plane = _window_extreme(plane, s, ax, cover=True)
    return plane


def _position_extreme(values: np.ndarray, sides: tuple[int, ...], take_min: bool) -> np.ndarray:
    """Window min/max of the grid values at every position of one shape."""
    for ax, s in enumerate(sides):
        values = _window_extreme(values, s, ax, take_min)
    return values


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


# pair cells (batch rows times (n+1)^2) per block of the last-axis DP; bounds
# the DP's temporaries whatever the batch is
_DP_BLOCK = 1 << 18


def _dp_last_axis(slabs: list[np.ndarray], pref: int, dmat: np.ndarray,
                  bad: np.ndarray) -> np.ndarray:
    """Per-cell maxima over all (lo, hi) choices of the last table axis.

    slabs[j] holds, for each row of the batch, the partially differenced
    table of function j (shape (batch, n+1)). The average over the pair
    (lo, hi) is (slab[hi] - slab[lo]) / (pref * d), matching rect_sum's
    nested differencing and rect_average's division bit for bit; products
    across functions multiply in input order. Pairs flagged in bad are not
    admissible. The two max-accumulations turn the pair matrix into corner
    maxima, whose (x, x+1) diagonal is the best member containing cell x.
    """
    batch, size = slabs[0].shape
    out = np.empty((batch, size - 1))  # C order: norm_lp sums a field in memory order
    scale = pref * dmat
    ar = np.arange(size - 1)
    step = max(1, _DP_BLOCK // (size * size))
    for lo in range(0, batch, step):
        block = [t[lo:lo + step] for t in slabs]
        with np.errstate(divide="ignore", invalid="ignore"):
            v = block[0][:, None, :] - block[0][:, :, None]
            v /= scale
            for t in block[1:]:
                w = t[:, None, :] - t[:, :, None]
                w /= scale
                v *= w
        v[:, bad] = -np.inf
        np.maximum.accumulate(v, axis=1, out=v)
        r = v[:, :, ::-1]
        np.maximum.accumulate(r, axis=2, out=r)
        out[lo:lo + step] = v[:, ar, ar + 1]
    return out


def _corner_sweep(tables: list[np.ndarray], side_lists: list[list[int]], pref: int,
                  dmat: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """Per-cell maxima over every member with sides from side_lists, any rank.

    tables[j] is the summed-area table of function j behind a leading batch
    axis, shape (batch, n_1+1, ..., n_k+1); the result has shape
    (batch, n_1, ..., n_k), -inf where no member covers a cell. Each side
    d of the leading axis is differenced off, its positions are folded
    into the batch for the remaining axes, and the per-position maxima are
    expanded back to cells with a cover max. The last axis is the pair DP,
    with dmat and bad built once per sweep; pref is the product of the
    sides already differenced off.
    """
    if len(side_lists) == 1:
        return _dp_last_axis(tables, pref, dmat, bad)
    out = None
    for d in side_lists[0]:
        slabs = [t[:, d:] - t[:, :-d] for t in tables]
        batch, npos = slabs[0].shape[:2]
        rest = slabs[0].shape[2:]
        u = _corner_sweep([s.reshape((batch * npos,) + rest) for s in slabs],
                          side_lists[1:], pref * d, dmat, bad)
        u = _window_extreme(u.reshape((batch, npos) + u.shape[1:]), d, 1, cover=True)
        out = u if out is None else np.maximum(out, u, out=out)
    return out


def _average_sweep(fs: list[GridFunction], basis: Basis, jobs: int) -> np.ndarray:
    """Sup over basis members of the product of per-function averages.

    Cube bases couple the sides, so they go through one vectorized pass
    per side count; the uncoupled bases run the corner sweep, whose first
    side list is split across jobs threads when jobs > 1. Cells covered by
    no admissible member report 0 (empty supremum).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    shape = fs[0].shape
    tables = [SummedAreaTable(f).table for f in fs]

    if basis.kind == CUBES:
        out = np.zeros(shape)
        for sides in basis.shapes(shape):
            ncells = math.prod(sides)
            plane = _window_sums(tables[0], sides) / ncells
            for t in tables[1:]:
                plane = plane * (_window_sums(t, sides) / ncells)
            np.maximum(out, _cover_max(plane, sides), out=out)
        return out

    side_lists = [basis.side_choices(e) for e in shape]
    if any(not lst for lst in side_lists):
        return np.zeros(shape)
    d = np.arange(shape[-1] + 1)[None, :] - np.arange(shape[-1] + 1)[:, None]
    dmat = d.astype(float)
    admissible = np.zeros(shape[-1] + 1, dtype=bool)
    admissible[side_lists[-1]] = True  # index 0 stays False: d <= 0 is no member
    bad = ~admissible[np.maximum(d, 0)]
    tables = [t[None] for t in tables]

    def sweep(firsts: list[int]) -> np.ndarray:
        return _corner_sweep(tables, [firsts] + side_lists[1:], 1, dmat, bad)

    firsts = side_lists[0]
    # in 1-D the first side list is the pair DP's own, fixed in bad
    parts = min(jobs, len(firsts)) if len(shape) > 1 else 1
    if parts == 1:
        out = sweep(firsts)
    else:
        chunks = [firsts[i::parts] for i in range(parts)]
        with ThreadPoolExecutor(max_workers=parts) as pool:
            out = np.maximum.reduce(list(pool.map(sweep, chunks)))
    return np.maximum(out[0], 0.0)


def strong_maximal(f: GridFunction, basis: Basis = Basis(),
                   budget: int = DEFAULT_BUDGET, jobs: int = 1) -> MaximalField:
    """Pointwise sup of rectangle averages over basis members containing x.

    Admits the single-cell rectangle (when min_side is 1), so the output
    dominates the input pointwise.
    """
    count = _checked_inputs([f], basis, budget)
    return _field([f], _average_sweep([f], basis, jobs), basis, count,
                  operator="strong_maximal")


def multilinear_maximal(fs: list[GridFunction], basis: Basis = Basis(),
                        budget: int = DEFAULT_BUDGET, jobs: int = 1) -> MaximalField:
    """Sup over basis members of the product of the m averages."""
    count = _checked_inputs(fs, basis, budget)
    return _field(fs, _average_sweep(fs, basis, jobs), basis, count,
                  operator="multilinear_maximal", m=len(fs))


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


def _norm_planes(values: np.ndarray, maxv: np.ndarray, supp: np.ndarray,
                 phi: YoungFunction, inv: np.ndarray, sides: tuple[int, ...],
                 tol: float, skip: np.ndarray | None) -> np.ndarray:
    """Luxemburg norms of one function at every position of one shape.

    maxv and supp are the window max and the nonzero count (at least 1)
    at every position, which the prune bound shares. Positions flagged in
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

    Otherwise every norm is solved. All inverse values the sweep needs
    come from one table per function, solved in one vectorized call
    before the shape loop (see _inverse_tables). Pruning skips a position
    when the product of the certified upper bounds, each widened by
    4 * tol, cannot beat the minimum of the running output over the cells
    the rectangle covers. The widening covers a tight bound (an indicator
    window) that rounding makes look infeasible as a hint: the solver then
    widens its bracket and may return its upper end up to tol above the
    bound. Since the output only grows, a skipped rectangle can never
    change the final field. The on/off results agree exactly because
    nothing else differs between the modes: the inverse tables are the
    same, and luxemburg_batch stops each row on its own, so a norm does
    not depend on which other rows share its batch.
    """
    count = _checked_inputs(fs, basis, budget)
    if (all(isinstance(p, Power) and p.domain_cap is None for p in phis)
            and len({p.r for p in phis}) == 1):
        r = phis[0].r
        if r == 1.0:
            return _field(fs, _average_sweep(fs, basis, 1), basis, count, **prov,
                          dispatch="average")
        es = [int(np.frexp(f.values.max())[1]) for f in fs]
        powered = [f.with_values(np.ldexp(f.values, -e) ** r) for f, e in zip(fs, es)]
        out = np.ldexp(_average_sweep(powered, basis, 1) ** (1.0 / r), sum(es))
        return _field(fs, out, basis, count, **prov, dispatch="power_mean")

    shape = fs[0].shape
    supp_tables = [
        SummedAreaTable(f.with_values((f.values > 0).astype(float))).table for f in fs
    ]
    shapes = list(basis.shapes(shape))
    inv_tables = [_inverse_tables(st, phi, shapes) for st, phi in zip(supp_tables, phis)]
    widen = (1.0 + 4.0 * tol) ** len(fs)
    out = np.zeros(shape)
    pruned = 0
    for sides in shapes:
        ncells = math.prod(sides)
        extents = [(_position_extreme(f.values, sides, take_min=False),
                    np.maximum(_window_sums(st, sides), 1.0).astype(np.intp))
                   for f, st in zip(fs, supp_tables)]
        skip = None
        if prune:
            bound = None
            for (maxv, supp), it in zip(extents, inv_tables):
                b = maxv / it[ncells][supp]
                bound = b if bound is None else bound * b
            skip = bound * widen <= _position_extreme(out, sides, take_min=True)
            pruned += int(skip.sum())
        plane = None
        for f, (maxv, supp), phi, it in zip(fs, extents, phis, inv_tables):
            norms = _norm_planes(f.values, maxv, supp, phi, it[ncells], sides, tol, skip)
            plane = norms if plane is None else plane * norms
        np.maximum(out, _cover_max(plane, sides), out=out)
    return _field(fs, out, basis, count, **prov, pruned=pruned, tol=tol)


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
    """Sup over basis members of the product of per-function Luxemburg norms."""
    if not fs or len(fs) != len(phis):
        raise ValueError("need one Young function per input function")
    return _orlicz_field(fs, phis, basis, budget, tol, False,
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
