"""Reference computations made apart from orliczmax, used to check its outputs.

Nothing here imports the package. Rectangle sums come from this module's own
zero-padded prefix sums, Luxemburg norms from its own bisection on the mean
of a Young function written out in closed form.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

EPS = float(np.finfo(float).eps)


def prefix_sums(values: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums on every axis, with a zero slab in front of each."""
    p = np.asarray(values, dtype=float)
    for ax in range(p.ndim):
        p = np.cumsum(p, axis=ax)
    return np.pad(p, [(1, 0)] * p.ndim)


def sum_error_bound(values: np.ndarray) -> float:
    """Bound on the rounding error of any box sum taken from prefix sums.

    Each prefix entry is a sum of at most N terms, so its error is at most
    N * eps * sum(values); a box sum differences 2^d <= 8 such entries, and
    a second independent computation of it can err as much again.
    """
    v = np.asarray(values, dtype=float)
    return 2 * 8 * v.size * EPS * float(v.sum())


def _axis_bounds(i: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper ends of every half-open interval [lo, hi) of [0, n) holding i."""
    return np.arange(i + 1), np.arange(i + 1, n + 1)


def strong_sup(arrays: list[np.ndarray], cell: tuple[int, ...]) -> float:
    """Sup over every box containing `cell` of the product of the arrays' box averages.

    Loops over the lower end on axis 0 and broadcasts over the other ends,
    so memory stays at one slab of boxes at a time.
    """
    tables = [prefix_sums(a) for a in arrays]
    shape = arrays[0].shape
    lo0, hi0 = _axis_bounds(cell[0], shape[0])
    rest = [_axis_bounds(i, n) for i, n in zip(cell[1:], shape[1:])]
    nout = 1 + 2 * len(rest)

    def shaped(arr, pos):
        sh = [1] * nout
        sh[pos] = -1
        return np.asarray(arr).reshape(sh)

    others = [(shaped(lo, 1 + 2 * d), shaped(hi, 2 + 2 * d)) for d, (lo, hi) in enumerate(rest)]
    count_rest = 1
    for lo, hi in others:
        count_rest = count_rest * (hi - lo)
    best = -math.inf
    for a0 in lo0:
        choices = [(np.full([1] * nout, a0), shaped(hi0, 0))] + others
        count = (shaped(hi0, 0) - a0) * count_rest
        prod = None
        for table in tables:
            total = 0.0
            for corner in itertools.product((0, 1), repeat=len(shape)):
                idx = tuple(choices[d][c] for d, c in enumerate(corner))
                sign = -1.0 if (len(shape) - sum(corner)) % 2 else 1.0
                total = total + sign * table[idx]
            avg = total / count
            prod = avg if prod is None else prod * avg
        best = max(best, float(prod.max()))
    return best


class ClosedForm:
    """A Young function given by a formula, with its value Phi^{-1}(1)."""

    def __init__(self, phi, power: tuple[float, float] | None = None):
        self.phi = phi
        # (k, q) when Phi(t) = k t^q, whose Luxemburg norm has a closed form
        self.power = power
        self.inv_one = self._inverse_of_one()

    def _inverse_of_one(self) -> float:
        lo, hi = 0.0, 1.0
        while self.phi(np.array([hi]))[0] <= 1.0:
            lo, hi = hi, 2.0 * hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.phi(np.array([mid]))[0] <= 1.0:
                lo = mid
            else:
                hi = mid
        return hi


def power_log(alpha: float, beta: float) -> ClosedForm:
    return ClosedForm(lambda t: t**alpha * np.log(math.e + t) ** (-beta))


def power_log_log(p: float, gamma: float, log_exp: float) -> ClosedForm:
    def phi(t):
        inner = np.log(math.e + t)
        return t**p * inner ** (-log_exp) * np.log(math.e + inner) ** (-gamma)
    return ClosedForm(phi)


def power_complement(r: float) -> ClosedForm:
    """Legendre conjugate of t^r: Phi*(s) = (r - 1) (s / r)^{r/(r-1)}.

    For r = 1.5 this is 4 s^3 / 27.
    """
    q = r / (r - 1.0)
    k = (r - 1.0) / r**q
    return ClosedForm(lambda s: k * s**q, power=(k, q))


def _boxes_through(values: np.ndarray, cell: tuple[int, ...]):
    """Flattened values of every box containing `cell`, one segment per box."""
    per_axis = [[(lo, hi) for lo in range(i + 1) for hi in range(i + 1, n + 1)]
                for i, n in zip(cell, values.shape)]
    parts, lengths = [], []
    for box in itertools.product(*per_axis):
        block = values[tuple(slice(lo, hi) for lo, hi in box)].ravel()
        parts.append(block)
        lengths.append(block.size)
    return np.concatenate(parts), np.asarray(lengths)


def luxemburg_sup(values: np.ndarray, cell: tuple[int, ...], form: ClosedForm) -> float:
    """Max over boxes containing `cell` of inf{lam : mean Phi(f / lam) <= 1}.

    Bisection on log lam from the certified bracket
    mean / Phi^{-1}(1) <= norm <= max / Phi^{-1}(1) (Jensen below, the
    pointwise bound above); the bracket is at most log(cells) wide, so 60
    halvings leave a relative width far below 1e-12.
    """
    data, lengths = _boxes_through(np.asarray(values, dtype=float), cell)
    seg = np.repeat(np.arange(lengths.size), lengths)
    sums = np.bincount(seg, weights=data, minlength=lengths.size)
    maxes = np.zeros(lengths.size)
    np.maximum.at(maxes, seg, data)
    live = maxes > 0
    if not np.any(live):
        return 0.0
    if form.power is not None:
        k, q = form.power
        mean_q = np.bincount(seg, weights=data**q, minlength=lengths.size) / lengths
        return float(np.max((k * mean_q[live]) ** (1.0 / q)))
    keep = live[seg]
    data, seg = data[keep], seg[keep]
    seg = np.searchsorted(np.flatnonzero(live), seg)
    lengths, sums, maxes = lengths[live], sums[live], maxes[live]
    lo = np.log(sums / lengths / form.inv_one)
    hi = np.log(maxes / form.inv_one)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        mean_phi = np.bincount(seg, weights=form.phi(data / np.exp(mid)[seg]),
                               minlength=lengths.size) / lengths
        feasible = mean_phi <= 1.0
        hi = np.where(feasible, mid, hi)
        lo = np.where(feasible, lo, mid)
    return float(np.max(np.exp(hi)))


def control_increment(lo: float, T: float) -> float:
    """Exact I(2T) - I(T) for I(X) = (integral_lo^X y^-2 dy)^2 = (1/lo - 1/X)^2."""
    return (1.0 / lo - 0.5 / T) ** 2 - (1.0 / lo - 1.0 / T) ** 2


def control_tolerance(lo: float, T: float, mesh_per_decade: int) -> float:
    """Trapezoid error bound for the reported control increment at T.

    The experiment integrates y^-2 with the trapezoid rule on a geometric
    mesh of ratio r; on such a mesh the relative error of the 1-D integral
    is about (r - 1)^2 / 2, so (r - 1)^2 bounds it with room to spare. The
    2-D integral is a square, and the increment a difference of two.
    """
    total = 0.0
    for X in (T, 2.0 * T):
        npts = max(16, int(math.log10(X / lo) * mesh_per_decade))
        r = (X / lo) ** (1.0 / (npts - 1))
        rel = (r - 1.0) ** 2
        total += ((1.0 + rel) ** 2 - 1.0) * (1.0 / lo - 1.0 / X) ** 2
    return total


def scattered_draw(seed: int, shape: tuple[int, ...], count: int) -> list[tuple[tuple, tuple]]:
    """The random rectangle family that `verify --suite covering` draws from its seed.

    Each side is uniform in [1, e // 2] and each anchor uniform among the
    positions that keep the rectangle on the grid, drawn from
    default_rng([seed, 0xC0F]) in axis order.
    """
    rng = np.random.default_rng([seed, 0xC0F])
    out = []
    for _ in range(count):
        lo, hi = [], []
        for e in shape:
            s = int(rng.integers(1, max(2, e // 2 + 1)))
            a = int(rng.integers(0, e - s + 1))
            lo.append(a)
            hi.append(a + s)
        out.append((tuple(lo), tuple(hi)))
    return out


def greedy_violations(shape: tuple[int, ...], rects, kept, alpha: float) -> list[str]:
    """Recheck a greedy scattered selection on an occupancy grid.

    A kept rectangle must have at most alpha of its cells covered by kept
    predecessors; a dropped one must have more, or the pass was not greedy.
    """
    occupied = np.zeros(shape, dtype=bool)
    kept = set(kept)
    problems = []
    for i, (lo, hi) in enumerate(rects):
        sl = tuple(slice(a, b) for a, b in zip(lo, hi))
        ncells = int(np.prod([b - a for a, b in zip(lo, hi)]))
        covered = int(np.count_nonzero(occupied[sl]))
        if i in kept:
            if covered > alpha * ncells:
                problems.append(f"kept rect {i} is {covered}/{ncells} covered, above alpha={alpha}")
            occupied[sl] = True
        elif covered <= alpha * ncells:
            problems.append(f"dropped rect {i} is only {covered}/{ncells} covered")
    return problems
