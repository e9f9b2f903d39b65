"""Weight-condition constants over rectangle and cube families.

Each estimator evaluates its defining quantity on a finite family of
basis members and reports the maximum with a witness. The true condition
constants are suprema over infinitely many rectangles, so every report is
a certified lower bound; the family settings travel inside the report
so the number can be reproduced and the witness re-evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSet, GeometryMismatch
from .grid import (GridFunction, Rect, SummedAreaTable, luxemburg_batch, luxemburg_norm,
                   rect_average)
from .maximal import CUBES, Basis, strong_maximal
from .young import YoungFunction

__all__ = [
    "WeightSystem",
    "RectFamilySpec",
    "SetSamplerSpec",
    "ConditionReport",
    "bump_constant",
    "bump_value",
    "power_bump_constant",
    "power_bump_value",
    "ap_constant",
    "ap_value",
    "sawyer_constant",
    "sawyer_value",
    "condition_A_estimate",
    "condition_A_value",
]

_POSITIVITY_CLAMP = 1e-300


def _positive_values(f: GridFunction, name: str) -> np.ndarray:
    """Weights must be strictly positive; tiny values are clamped, zeros rejected."""
    v = f.values
    if np.any(v <= 0.0):
        raise ValueError(f"{name} must be strictly positive on every cell")
    return np.maximum(v, _POSITIVITY_CLAMP)


@dataclass(frozen=True)
class WeightSystem:
    """A measure weight nu and m component weights with Hoelder exponents.

    Requires 1/p = sum_j 1/p_j to 1e-12 and every p_j in (1, inf).
    """

    nu: GridFunction
    ws: tuple[GridFunction, ...]
    p: float
    ps: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ws", tuple(self.ws))
        object.__setattr__(self, "ps", tuple(float(q) for q in self.ps))
        if len(self.ws) != len(self.ps) or not self.ws:
            raise ValueError("need one exponent per weight")
        for q in self.ps:
            if not (1.0 < q < np.inf):
                raise ValueError("every p_j must lie in (1, inf)")
        if abs(1.0 / self.p - sum(1.0 / q for q in self.ps)) > 1e-12:
            raise ValueError("exponents must satisfy 1/p = sum 1/p_j to 1e-12")
        _positive_values(self.nu, "nu")
        for j, w in enumerate(self.ws):
            if not self.nu.same_geometry(w):
                raise GeometryMismatch("all weights must share grid geometry")
            _positive_values(w, f"w[{j}]")

    @property
    def m(self) -> int:
        return len(self.ws)

    def conjugates(self) -> tuple[float, ...]:
        return tuple(q / (q - 1.0) for q in self.ps)


@dataclass(frozen=True)
class RectFamilySpec:
    """How to draw the finite rectangle family a constant is maximized over.

    mode auto enumerates the whole basis when its size is at most
    exhaustive_limit and otherwise samples: side counts drawn log-uniform
    from the admissible range per axis (one shared draw for cubes),
    positions uniform. Deterministic given the seed.
    """

    mode: str = "auto"
    count: int = 512
    seed: int = 0
    exhaustive_limit: int = 200_000

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "exhaustive", "stratified"):
            raise ValueError("mode must be auto, exhaustive, or stratified")
        if self.count < 1:
            raise ValueError("count must be positive")

    def members(self, shape: tuple[int, ...], basis: Basis = Basis()) -> list[Rect]:
        total = basis.rect_count(shape)
        mode = self.mode
        if mode == "auto":
            mode = "exhaustive" if total <= self.exhaustive_limit else "stratified"
        if mode == "exhaustive":
            rects = []
            for sides in basis.shapes(shape):
                for anchor in np.ndindex(*[e - s + 1 for e, s in zip(shape, sides)]):
                    rects.append(Rect(anchor, tuple(a + s for a, s in zip(anchor, sides))))
            return rects
        rng = np.random.default_rng(self.seed)
        rects = []
        side_lists = [basis.side_choices(e) for e in shape]
        if basis.kind == CUBES:
            side_lists = [basis.side_choices(min(shape))]
        for _ in range(self.count):
            if basis.kind == CUBES:
                s = side_lists[0][_log_uniform_index(rng, len(side_lists[0]))]
                sides = (s,) * len(shape)
            else:
                sides = tuple(lst[_log_uniform_index(rng, len(lst))] for lst in side_lists)
            anchor = tuple(int(rng.integers(0, e - s + 1)) for e, s in zip(shape, sides))
            rects.append(Rect(anchor, tuple(a + s for a, s in zip(anchor, sides))))
        return rects

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "count": self.count,
            "seed": self.seed,
            "exhaustive_limit": self.exhaustive_limit,
        }


def _log_uniform_index(rng: np.random.Generator, n: int) -> int:
    # favors small sides the way dyadic scales do, while reaching every size
    u = rng.uniform(0.0, np.log(n + 1.0))
    return min(n - 1, int(np.exp(u)) - 1)


@dataclass(frozen=True)
class SetSamplerSpec:
    """Random measurable sets as unions of a few rectangles."""

    count: int = 256
    max_rects: int = 8
    seed: int = 0

    def sets(self, shape: tuple[int, ...]) -> list[list[Rect]]:
        rng = np.random.default_rng(self.seed)
        out = []
        for _ in range(self.count):
            k = int(rng.integers(1, self.max_rects + 1))
            rects = []
            for _ in range(k):
                sides = tuple(
                    int(np.clip(np.exp(rng.uniform(0.0, np.log(e + 1.0))), 1, e))
                    for e in shape
                )
                anchor = tuple(int(rng.integers(0, e - s + 1)) for e, s in zip(shape, sides))
                rects.append(Rect(anchor, tuple(a + s for a, s in zip(anchor, sides))))
            out.append(rects)
        return out

    def to_dict(self) -> dict:
        return {"count": self.count, "max_rects": self.max_rects, "seed": self.seed}


@dataclass(frozen=True)
class ConditionReport:
    """Max of a condition quantity over a finite family, with its witness.

    sup_constant is a lower bound for the true supremum; re-evaluating the
    witness through the matching *_value function reproduces it to 1e-12.
    """

    kind: str
    sup_constant: float
    argmax_rect: Rect | None
    samples_evaluated: int
    family: dict
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "sup_constant": self.sup_constant,
            "argmax_rect": None if self.argmax_rect is None
            else {"lo": list(self.argmax_rect.lo), "hi": list(self.argmax_rect.hi)},
            "samples_evaluated": self.samples_evaluated,
            "family": self.family,
            "extra": self.extra,
        }


def _report(kind: str, values: list[float], rects: list[Rect], family: dict,
            extra: dict | None = None) -> ConditionReport:
    arr = np.asarray(values)
    best = int(np.argmax(arr))
    return ConditionReport(
        kind=kind,
        sup_constant=float(arr[best]),
        argmax_rect=rects[best],
        samples_evaluated=len(values),
        family=family,
        extra=extra or {},
    )


def bump_value(u: GridFunction, v: GridFunction, phi: YoungFunction, p: float,
               rect: Rect) -> float:
    """(mean_R u^p)^{1/p} * ||v^{-1}||_{Phi,R} on a single rectangle."""
    sat = SummedAreaTable(u.with_values(u.values**p))
    vinv = v.with_values(1.0 / _positive_values(v, "v"))
    return rect_average(sat, rect) ** (1.0 / p) * luxemburg_norm(vinv, rect, phi)


def bump_constant(u: GridFunction, v: GridFunction, phi: YoungFunction, p: float,
                  family: RectFamilySpec = RectFamilySpec(),
                  basis: Basis = Basis()) -> ConditionReport:
    """Two-weight Orlicz bump constant over a rectangle family.

    Scale invariance: replacing (u, v) by (cu, cv) leaves every member
    value unchanged, since the u-factor gains c and the v^{-1} norm c^{-1}.
    """
    if not u.same_geometry(v):
        raise GeometryMismatch("u and v must share grid geometry")
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    _positive_values(u, "u")
    sat = SummedAreaTable(u.with_values(u.values**p))
    vinv = v.with_values(1.0 / _positive_values(v, "v"))
    rects = family.members(u.shape, basis)
    # one solver call per shape; each row stops on its own, so every norm
    # is bit-identical to bump_value's single-rectangle solve
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i, r in enumerate(rects):
        by_shape.setdefault(r.sides(), []).append(i)
    norms = np.empty(len(rects))
    for members in by_shape.values():
        rows = np.stack([vinv.values[rects[i].slices].ravel() for i in members])
        norms[members] = luxemburg_batch(rows, phi)
    vals = [rect_average(sat, r) ** (1.0 / p) * float(n) for r, n in zip(rects, norms)]
    return _report("bump", vals, rects, {**family.to_dict(), "basis": basis.to_dict()},
                   {"p": p})


def power_bump_value(sys: WeightSystem, r: float, rect: Rect,
                     _sats: tuple[SummedAreaTable, ...] | None = None) -> float:
    """(mean_R nu) * prod_j (mean_R w_j^{(1-p'_j) r})^{p/(p'_j r)}."""
    if _sats is None:
        _sats = _power_bump_tables(sys, r)
    sat_nu, *sat_ws = _sats
    val = rect_average(sat_nu, rect)
    for q_conj, sat in zip(sys.conjugates(), sat_ws):
        val *= rect_average(sat, rect) ** (sys.p / (q_conj * r))
    return val


def _power_bump_tables(sys: WeightSystem, r: float) -> tuple[SummedAreaTable, ...]:
    sats = [SummedAreaTable(sys.nu)]
    for w, q_conj in zip(sys.ws, sys.conjugates()):
        sats.append(SummedAreaTable(w.with_values(w.values ** ((1.0 - q_conj) * r))))
    return tuple(sats)


def power_bump_constant(sys: WeightSystem, r: float,
                        family: RectFamilySpec = RectFamilySpec(),
                        basis: Basis = Basis()) -> ConditionReport:
    """Multilinear power-bump constant; r > 1 strengthens the local norms."""
    if r <= 1.0:
        raise ValueError("r must exceed 1")
    sats = _power_bump_tables(sys, r)
    rects = family.members(sys.nu.shape, basis)
    vals = [power_bump_value(sys, r, rect, _sats=sats) for rect in rects]
    return _report("power_bump", vals, rects,
                   {**family.to_dict(), "basis": basis.to_dict()},
                   {"r": r, "p": sys.p, "ps": list(sys.ps), "m": sys.m})


def ap_value(w: GridFunction, p: float, rect: Rect,
             _sats: tuple[SummedAreaTable, SummedAreaTable] | None = None) -> float:
    """(mean_B w) * (mean_B w^{1-p'})^{p/p'} on a single member.

    Evaluated on w normalized by its global max. The quantity is scale
    invariant, so this changes nothing mathematically, but it makes a
    constant weight produce exactly 1.0: the normalized array is all ones
    and every downstream sum is exact integer arithmetic.
    """
    if _sats is None:
        _sats = _ap_tables(w, p)
    sat_w, sat_dual = _sats
    pc = p / (p - 1.0)
    return rect_average(sat_w, rect) * rect_average(sat_dual, rect) ** (p / pc)


def _ap_tables(w: GridFunction, p: float) -> tuple[SummedAreaTable, SummedAreaTable]:
    vals = _positive_values(w, "w")
    vals = vals / vals.max()
    pc = p / (p - 1.0)
    return (SummedAreaTable(w.with_values(vals)),
            SummedAreaTable(w.with_values(vals ** (1.0 - pc))))


def ap_constant(w: GridFunction, p: float, basis: Basis = Basis(),
                family: RectFamilySpec = RectFamilySpec()) -> ConditionReport:
    """Muckenhoupt-type constant over the chosen basis; always >= 1."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    sats = _ap_tables(w, p)
    rects = family.members(w.shape, basis)
    vals = [ap_value(w, p, rect, _sats=sats) for rect in rects]
    return _report("ap", vals, rects, {**family.to_dict(), "basis": basis.to_dict()},
                   {"p": p})


def sawyer_value(u: GridFunction, v: GridFunction, p: float, cube: Rect,
                 budget: int | None = None) -> float:
    """Test-function ratio for one cube Q.

    g = chi_Q v^{-p'}, M g the cube-basis maximal field; the ratio is
    integral_Q (u * Mg)^p dx over integral_Q v^{-p'} dx.
    """
    pc = p / (p - 1.0)
    dual = 1.0 / _positive_values(v, "v") ** pc
    g_vals = np.zeros(v.shape)
    g_vals[cube.slices] = dual[cube.slices]
    mg = strong_maximal(v.with_values(g_vals), Basis(CUBES)).field.values
    cellvol = v.cell_volume
    num = np.sum((u.values[cube.slices] * mg[cube.slices]) ** p) * cellvol
    den = np.sum(dual[cube.slices]) * cellvol
    return float(num / den)


def sawyer_constant(u: GridFunction, v: GridFunction, p: float,
                    family: RectFamilySpec = RectFamilySpec(count=64)) -> ConditionReport:
    """Sawyer-type test constant over a cube family.

    Homogeneous of degree p in u; the denominator weight v^{-p'}(Q) keeps
    it finite for v large on Q.
    """
    if not u.same_geometry(v):
        raise GeometryMismatch("u and v must share grid geometry")
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    _positive_values(u, "u")
    basis = Basis(CUBES)
    cubes = family.members(u.shape, basis)
    vals = [sawyer_value(u, v, p, q) for q in cubes]
    return _report("sawyer", vals, cubes, {**family.to_dict(), "basis": basis.to_dict()},
                   {"p": p})


def condition_A_value(w: GridFunction, lam: float, rects: list[Rect]) -> float:
    """w-mass ratio of the lambda-superlevel set of M(chi_E) to E, E = union."""
    mask = np.zeros(w.shape, dtype=bool)
    for r in rects:
        mask[r.slices] = True
    wE = float(np.sum(w.values[mask]))
    if wE == 0.0:
        raise DegenerateSet("sampled set carries no weight")
    chi = w.with_values(mask.astype(float))
    m = strong_maximal(chi).field.values
    level = m > lam
    return float(np.sum(w.values[level])) / wE


def condition_A_estimate(w: GridFunction, lam: float,
                         sampler: SetSamplerSpec = SetSamplerSpec()) -> ConditionReport:
    """Empirical lower bound for the superlevel-set control constant c(lambda).

    A best-effort sampler over unions of a few rectangles; the report
    records the sampler so the limitation travels with the number.
    """
    if not (0.0 < lam < 1.0):
        raise ValueError("lambda must lie in (0, 1)")
    _positive_values(w, "w")
    sets = sampler.sets(w.shape)
    vals = [condition_A_value(w, lam, rects) for rects in sets]
    arr = np.asarray(vals)
    best = int(np.argmax(arr))
    witness = [{"lo": list(r.lo), "hi": list(r.hi)} for r in sets[best]]
    return ConditionReport(
        kind="condition_A",
        sup_constant=float(arr[best]),
        argmax_rect=None,
        samples_evaluated=len(vals),
        family=sampler.to_dict(),
        extra={"lambda": lam, "witness_set": witness,
               "note": "finite sampler; lower bound for c(lambda) only"},
    )
