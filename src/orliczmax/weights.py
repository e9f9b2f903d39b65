"""Weight-condition constants over rectangle and cube families.

Each estimator evaluates its defining quantity on a finite family of
basis members and reports the maximum with a witness. The true condition
constants are suprema over infinitely many rectangles, so every report is
a certified lower bound; the family settings travel inside the report
so the number can be reproduced and the witness re-evaluated bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSet, GeometryMismatch
from .grid import GridFunction, Rect, SummedAreaTable, _box_norms, _members
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
        """The family as Rects, in the order the constants evaluate it."""
        lo, sides = self._draw(shape, basis)
        return [Rect(a, b) for a, b in zip(lo.tolist(), (lo + sides).tolist())]

    def _draw(self, shape: tuple[int, ...], basis: Basis) -> tuple[np.ndarray, np.ndarray]:
        """The members' low corners and sides, as (members, d) intp arrays;
        exhaustive mode takes the shapes in basis.shapes order."""
        total = basis.rect_count(shape)
        if total == 0:
            raise ValueError(f"basis {basis.to_dict()} admits no member on grid shape {shape}")
        if self.mode == "exhaustive" or (self.mode == "auto" and total <= self.exhaustive_limit):
            return _members(shape, list(basis.shapes(shape)))
        rng = np.random.default_rng(self.seed)
        lo, sides = [], []
        cubes = basis.kind == CUBES  # one side draw, shared by every axis
        side_lists = ([basis.side_choices(min(shape))] if cubes
                      else [basis.side_choices(e) for e in shape])
        for _ in range(self.count):
            s = tuple(lst[_log_uniform_index(rng, len(lst))] for lst in side_lists)
            if cubes:
                s *= len(shape)
            sides.append(s)
            lo.append([int(rng.integers(0, e - x + 1)) for e, x in zip(shape, s)])
        return np.array(lo, dtype=np.intp), np.array(sides, dtype=np.intp)

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
                sides = tuple(_log_uniform_index(rng, e) + 1 for e in shape)
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
    witness through the matching *_value function reproduces it bit for bit.
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


def _report(kind: str, evaluate, shape: tuple[int, ...], family: RectFamilySpec,
            basis: Basis, extra: dict) -> ConditionReport:
    """The largest of evaluate(lo, sides) over the family's members, with its witness."""
    lo, sides = family._draw(shape, basis)
    values = np.asarray(evaluate(lo, sides))
    best = int(np.argmax(values))
    return ConditionReport(kind, float(values[best]), Rect(lo[best], lo[best] + sides[best]),
                           len(lo), {**family.to_dict(), "basis": basis.to_dict()}, extra)


def _one_row(rect: Rect, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """One member as lo/sides arrays of one row, after checking it lies in the grid."""
    rect.check_within(shape)
    return np.array([rect.lo], dtype=np.intp), np.array([rect.sides()], dtype=np.intp)


def _check_couple(u: GridFunction, v: GridFunction, p: float) -> None:
    """One grid for u and v, p > 1 and u strictly positive."""
    if not u.same_geometry(v):
        raise GeometryMismatch("u and v must share grid geometry")
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    _positive_values(u, "u")


def _bump_values(u: GridFunction, v: GridFunction, phi: YoungFunction, p: float,
                 lo: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """bump_value on every member, the norms of v^{-1} from grid._box_norms."""
    _check_couple(u, v, p)
    out = SummedAreaTable(u.with_values(u.values**p)).averages(lo, sides) ** (1.0 / p)
    return out * _box_norms(1.0 / _positive_values(v, "v"), lo, sides, phi)


def bump_value(u: GridFunction, v: GridFunction, phi: YoungFunction, p: float,
               rect: Rect) -> float:
    """(mean_R u^p)^{1/p} * ||v^{-1}||_{Phi,R} on a single rectangle."""
    return float(_bump_values(u, v, phi, p, *_one_row(rect, u.shape))[0])


def bump_constant(u: GridFunction, v: GridFunction, phi: YoungFunction, p: float,
                  family: RectFamilySpec = RectFamilySpec(),
                  basis: Basis = Basis()) -> ConditionReport:
    """Two-weight Orlicz bump constant over a rectangle family.

    Scale invariance: replacing (u, v) by (cu, cv) leaves every member
    value unchanged, since the u-factor gains c and the v^{-1} norm c^{-1}.
    """
    return _report("bump", lambda lo, sides: _bump_values(u, v, phi, p, lo, sides), u.shape,
                   family, basis, {"p": p})


def _power_bump_values(sys: WeightSystem, r: float, lo: np.ndarray,
                       sides: np.ndarray) -> np.ndarray:
    """power_bump_value on every member."""
    if r <= 1.0:
        raise ValueError("r must exceed 1")
    sats = [SummedAreaTable(sys.nu)] + [
        SummedAreaTable(w.with_values(w.values ** ((1.0 - q_conj) * r)))
        for w, q_conj in zip(sys.ws, sys.conjugates())]
    powers = [sys.p / (q_conj * r) for q_conj in sys.conjugates()]
    means = [sat.averages(lo, sides) for sat in sats]
    return math.prod([means[0]] + [mean ** power for mean, power in zip(means[1:], powers)])


def power_bump_value(sys: WeightSystem, r: float, rect: Rect) -> float:
    """(mean_R nu) * prod_j (mean_R w_j^{(1-p'_j) r})^{p/(p'_j r)}."""
    return float(_power_bump_values(sys, r, *_one_row(rect, sys.nu.shape))[0])


def power_bump_constant(sys: WeightSystem, r: float,
                        family: RectFamilySpec = RectFamilySpec(),
                        basis: Basis = Basis()) -> ConditionReport:
    """Multilinear power-bump constant; r > 1 strengthens the local norms."""
    return _report("power_bump", lambda lo, sides: _power_bump_values(sys, r, lo, sides),
                   sys.nu.shape, family, basis,
                   {"r": r, "p": sys.p, "ps": list(sys.ps), "m": sys.m})


def _ap_values(w: GridFunction, p: float, lo: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """ap_value on every member, evaluated on w divided by its max.

    The quantity is scale invariant, and the division makes a constant
    weight give exactly 1.0: all ones, so every sum is exact.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    vals = _positive_values(w, "w")
    vals = vals / vals.max()
    pc = p / (p - 1.0)
    means = [SummedAreaTable(w.with_values(vals)).averages(lo, sides),
             SummedAreaTable(w.with_values(vals ** (1.0 - pc))).averages(lo, sides)]
    return means[0] * means[1] ** (p / pc)


def ap_value(w: GridFunction, p: float, rect: Rect) -> float:
    """(mean_B w) * (mean_B w^{1-p'})^{p/p'} on a single member."""
    return float(_ap_values(w, p, *_one_row(rect, w.shape))[0])


def ap_constant(w: GridFunction, p: float, basis: Basis = Basis(),
                family: RectFamilySpec = RectFamilySpec()) -> ConditionReport:
    """Muckenhoupt-type constant over the chosen basis; always >= 1."""
    return _report("ap", lambda lo, sides: _ap_values(w, p, lo, sides), w.shape, family,
                   basis, {"p": p})


def _sawyer_values(u: GridFunction, v: GridFunction, p: float, lo: np.ndarray,
                   sides: np.ndarray) -> np.ndarray:
    """sawyer_value on every member, one cube-basis maximal field each."""
    _check_couple(u, v, p)
    pc = p / (p - 1.0)
    dual = 1.0 / _positive_values(v, "v") ** pc
    out = np.empty(len(lo))
    for i, (a, b) in enumerate(zip(lo.tolist(), (lo + sides).tolist())):
        cube = tuple(map(slice, a, b))
        g_vals = np.zeros(v.shape)
        g_vals[cube] = dual[cube]
        mg = strong_maximal(v.with_values(g_vals), Basis(CUBES)).field.values
        num = np.sum((u.values[cube] * mg[cube]) ** p) * v.cell_volume
        den = np.sum(dual[cube]) * v.cell_volume
        out[i] = num / den
    return out


def sawyer_value(u: GridFunction, v: GridFunction, p: float, cube: Rect) -> float:
    """Test-function ratio for one cube Q.

    g = chi_Q v^{-p'}, M g the cube-basis maximal field; the ratio is
    integral_Q (u * Mg)^p dx over integral_Q v^{-p'} dx.
    """
    return float(_sawyer_values(u, v, p, *_one_row(cube, u.shape))[0])


def sawyer_constant(u: GridFunction, v: GridFunction, p: float,
                    family: RectFamilySpec = RectFamilySpec(count=64)) -> ConditionReport:
    """Sawyer-type test constant over a cube family.

    Homogeneous of degree p in u; the denominator weight v^{-p'}(Q) keeps
    it finite for v large on Q.
    """
    return _report("sawyer", lambda lo, sides: _sawyer_values(u, v, p, lo, sides), u.shape,
                   family, Basis(CUBES), {"p": p})


def condition_A_value(w: GridFunction, lam: float, rects: list[Rect]) -> float:
    """w-mass ratio of the lambda-superlevel set of M(chi_E) to E, E = union."""
    mask = np.zeros(w.shape, dtype=bool)
    for r in rects:
        r.check_within(w.shape)
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
