"""Experiment drivers: operator-norm probes, inequality suites, divergence runs.

Every probe reports ratios in norm-quotient form, the p-th root of the
displayed integral quotient. The monotone transform changes no stability
or growth observable, and it is what lets the reduction identities hold
bit for bit: a weight of ones multiplies by exactly 1.0, and the strong
maximal field of a constant grid is exactly that constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bp import classify
from .covering import (RectFamily, cf_overlap_check, choose_cf_subfamily,
                       largest_passing_delta, select_scattered, verify_scattered,
                       weight_growth_sweep)
from .errors import DegenerateSet
from .grid import GridFunction, Rect, RowBlocks, luxemburg_batch, norm_lp
from .maximal import Basis, _strong_fields, orlicz_maximal, strong_maximal
from .weights import SetSamplerSpec, bump_constant, condition_A_estimate
from .young import (Power, PowerLog, YoungFunction, complementary, inverse, tabulate,
                    young_to_json)

__all__ = [
    "ProbeSuite",
    "RatioReport",
    "lp_bound_probe",
    "weighted_transfer_probe",
    "fefferman_stein_probe",
    "two_weight_probe",
    "necessity_construction",
    "holder_orlicz_suite",
    "counterexample_divergence",
    "run_suite",
]


@dataclass(frozen=True)
class ProbeSuite:
    """Deterministic test-function source for the probes.

    Generates indicators, small rectangle unions, smooth bumps, and
    single-cell spikes on [0, extent]^dims at each resolution. The draw
    depends only on (seed, resolution, kind), so any probe rerun is
    bit-identical.
    """

    seed: int = 0
    resolutions: tuple[int, ...] = (8, 16)
    extent: float = 8.0
    dims: int = 2
    per_kind: int = 2
    kinds: tuple[str, ...] = ("indicator", "union", "bump", "spike")

    def grid(self, res: int) -> GridFunction:
        shape = (int(res),) * self.dims
        return GridFunction(shape, (0.0,) * self.dims,
                            (self.extent / res,) * self.dims, np.zeros(shape))

    def functions(self, res: int) -> list[tuple[str, GridFunction]]:
        base = self.grid(res)
        out = []
        for kind in self.kinds:
            rng = np.random.default_rng([self.seed, sum(base.shape), _KIND_TAG[kind]])
            for k in range(self.per_kind):
                out.append((f"{kind}-{k}", base.with_values(_draw(kind, base.shape, rng))))
        return out

    def weight_field(self, res: int, which: int = 0) -> GridFunction:
        """Strictly positive smooth weight, same grid as functions(res)."""
        g = self.grid(res)
        rng = np.random.default_rng([self.seed, res, 0x57, which])
        vals = 0.25 + _draw("bump", g.shape, rng)
        return g.with_values(vals)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "resolutions": list(self.resolutions),
            "extent": self.extent,
            "dims": self.dims,
            "per_kind": self.per_kind,
            "kinds": list(self.kinds),
        }


_KIND_TAG = {"indicator": 1, "union": 2, "bump": 3, "spike": 4}


def _rand_rect(shape, rng) -> Rect:
    lo, hi = [], []
    for e in shape:
        s = int(rng.integers(1, max(2, e // 2 + 1)))
        a = int(rng.integers(0, e - s + 1))
        lo.append(a)
        hi.append(a + s)
    return Rect(tuple(lo), tuple(hi))


def _draw(kind: str, shape, rng) -> np.ndarray:
    vals = np.zeros(shape)
    if kind == "indicator":
        vals[_rand_rect(shape, rng).slices] = 1.0
    elif kind == "union":
        for _ in range(int(rng.integers(2, 5))):
            vals[_rand_rect(shape, rng).slices] = 1.0
    elif kind == "bump":
        axes = np.meshgrid(*[np.linspace(0.0, 1.0, e) for e in shape], indexing="ij")
        for _ in range(2):
            c = rng.uniform(0.2, 0.8, size=len(shape))
            s = rng.uniform(0.08, 0.3)
            r2 = sum((a - ci) ** 2 for a, ci in zip(axes, c))
            vals += rng.uniform(0.5, 2.0) * np.exp(-r2 / (2.0 * s * s))
    elif kind == "spike":
        idx = tuple(int(rng.integers(0, e)) for e in shape)
        vals[idx] = 1.0
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return vals


@dataclass(frozen=True)
class RatioReport:
    """Per-test operator-norm ratios with certificates and a trend summary.

    ratio_form records that entries are norm quotients. trend_factor is
    the sup at the last resolution over the sup at the first; stability
    criteria read it directly, growth criteria expect it to exceed 1.
    """

    probe: str
    rows: tuple[dict, ...]
    sup_ratio: float
    median_ratio: float
    by_resolution: dict
    trend_factor: float
    certificates: dict = field(default_factory=dict)
    expect_unbounded: bool = False
    skipped: int = 0
    ratio_form: str = "norm_quotient"

    def to_dict(self) -> dict:
        return {
            "probe": self.probe,
            "ratio_form": self.ratio_form,
            "rows": list(self.rows),
            "sup_ratio": self.sup_ratio,
            "median_ratio": self.median_ratio,
            "by_resolution": {str(k): v for k, v in self.by_resolution.items()},
            "trend_factor": self.trend_factor,
            "certificates": self.certificates,
            "expect_unbounded": self.expect_unbounded,
            "skipped": self.skipped,
        }


def _make_report(probe: str, rows: list[dict], certificates: dict,
                 expect_unbounded: bool, skipped: int) -> RatioReport:
    ratios = [r["ratio"] for r in rows]
    if any(not np.isfinite(v) or v < 0 for v in ratios):
        raise ValueError("ratios must be finite and nonnegative")
    by_res: dict = {}
    for r in rows:
        key = r["resolution"]
        by_res[key] = max(by_res.get(key, 0.0), r["ratio"])
    res_keys = sorted(by_res)
    trend = by_res[res_keys[-1]] / by_res[res_keys[0]] if len(res_keys) > 1 and by_res[res_keys[0]] > 0 else 1.0
    return RatioReport(
        probe=probe,
        rows=tuple(rows),
        sup_ratio=float(max(ratios)) if ratios else 0.0,
        median_ratio=float(np.median(ratios)) if ratios else 0.0,
        by_resolution=by_res,
        trend_factor=float(trend),
        certificates=certificates,
        expect_unbounded=expect_unbounded,
        skipped=skipped,
    )


def _verdict_cert(phi: YoungFunction, p: float, n: int, mode: str) -> dict:
    v = classify(phi, p, n, mode)
    return {"mode": mode, "label": v.label, "analytic": v.analytic,
            "rho": v.trace.rho, "sigma": v.trace.sigma,
            "phi": young_to_json(phi), "p": p, "n": n}


def lp_bound_probe(phi: YoungFunction, p: float, basis: Basis,
                   suite: ProbeSuite = ProbeSuite()) -> RatioReport:
    """sup over the suite of ||M_phi f||_p / ||f||_p per resolution."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    cert = _verdict_cert(phi, p, suite.dims, "bp_star")
    rows, skipped = [], 0
    for res in suite.resolutions:
        for name, f in suite.functions(res):
            den = norm_lp(f, p)
            if den == 0.0:
                skipped += 1
                continue
            mf = orlicz_maximal(f, phi, basis)
            rows.append({"test": name, "resolution": res,
                         "ratio": norm_lp(mf.field, p) / den})
    return _make_report("lp_bound", rows, {"phi_bp_star": cert},
                        cert["label"] == "Diverges", skipped)


def weighted_transfer_probe(phi: YoungFunction, p: float,
                            suite: ProbeSuite = ProbeSuite()) -> RatioReport:
    """Transfer ratio ||M_R f * (M_phibar u^{1/p})^{-1}||_p / ||f u^{-1/p}||_p.

    The complementary function's membership certificate rides along; pairs
    with a vanishing right side are skipped and counted.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    phibar = complementary(phi)
    cert = _verdict_cert(phibar, p, suite.dims, "bp_star")
    rows, skipped = [], 0
    for res in suite.resolutions:
        live = []  # (name, f, weight index, weight, denominator) of the rows kept
        for k, (name, f) in enumerate(suite.functions(res)):
            u = suite.weight_field(res, which=k % 3)
            den = norm_lp(f, p, weight=u.with_values(1.0 / u.values))
            if den == 0.0:
                skipped += 1
            else:
                live.append((name, f, k % 3, u, den))
        mus: dict[int, np.ndarray] = {}  # M_phibar u^{1/p}, one sweep per weight
        for (name, f, which, u, den), mf in zip(live, _strong_fields([r[1] for r in live])):
            if which not in mus:
                mus[which] = orlicz_maximal(u.with_values(u.values ** (1.0 / p)),
                                            phibar).field.values
            rows.append({"test": name, "resolution": res,
                         "ratio": norm_lp(f.with_values(mf / mus[which]), p) / den})
    return _make_report("weighted_transfer", rows,
                        {"complement_bp_star": cert},
                        cert["label"] == "Diverges", skipped)


def _resample_to(w: GridFunction, template: GridFunction) -> GridFunction:
    """Piecewise-constant resample of w onto the template's grid."""
    if w.shape == template.shape:
        return template.with_values(w.values)
    idx = tuple(
        np.minimum((np.arange(te) * ws) // te, ws - 1)
        for te, ws in zip(template.shape, w.shape)
    )
    return template.with_values(w.values[np.ix_(*idx)])


def fefferman_stein_probe(phi: YoungFunction, p: float, w: GridFunction,
                          lam: float = 0.5,
                          suite: ProbeSuite = ProbeSuite()) -> RatioReport:
    """Weighted ratio ||M_phi f||_{p,w} / ||f||_{p,M_R w} over the suite.

    The weight is resampled piecewise-constant to each probe resolution.
    With w identically one the strong maximal field of the weight is
    exactly one and every row is bit-identical to lp_bound_probe.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    cond = condition_A_estimate(w, lam)
    cert = {
        "condition_A": cond.to_dict(),
        "phi_bp_star": _verdict_cert(phi, p, suite.dims, "bp_star"),
    }
    rows, skipped = [], 0
    for res in suite.resolutions:
        template = suite.grid(res)
        w_res = _resample_to(w, template)
        mw = strong_maximal(w_res).field
        for name, f in suite.functions(res):
            den = norm_lp(f, p, weight=mw)
            if den == 0.0:
                skipped += 1
                continue
            mf = orlicz_maximal(f, phi, Basis())
            rows.append({"test": name, "resolution": res,
                         "ratio": norm_lp(mf.field, p, weight=w_res) / den})
    return _make_report("fefferman_stein", rows, cert,
                        cert["phi_bp_star"]["label"] == "Diverges", skipped)


def two_weight_probe(u: GridFunction, v: GridFunction, phi: YoungFunction,
                     p: float, suite: ProbeSuite = ProbeSuite()) -> RatioReport:
    """Two-weight ratio ||u * M_R f||_p / ||v * f||_p over the suite.

    Certificates: the bump constant of (u, v), a superlevel-set sampler
    report for u^p, and the complementary membership verdict.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    if not u.same_geometry(v):
        raise ValueError("u and v must share grid geometry")
    cert = {"bump": bump_constant(u, v, phi, p).to_dict()}
    try:
        cert["condition_A_u_p"] = condition_A_estimate(
            u.with_values(u.values ** p), 0.5,
            SetSamplerSpec(count=64, seed=suite.seed)).to_dict()
    except (ValueError, DegenerateSet) as e:
        cert["condition_A_u_p"] = {"error": str(e)}
    cert["complement_bp_star"] = _verdict_cert(complementary(phi), p, suite.dims, "bp_star")
    rows, skipped = [], 0
    for res in suite.resolutions:
        template = suite.grid(res)
        u_res = _resample_to(u, template)
        v_res = _resample_to(v, template)
        live = []  # (name, f, denominator) of the rows kept
        for name, f in suite.functions(res):
            den = norm_lp(f.with_values(v_res.values * f.values), p)
            if den == 0.0:
                skipped += 1
            else:
                live.append((name, f, den))
        for (name, f, den), mf in zip(live, _strong_fields([r[1] for r in live])):
            num = norm_lp(f.with_values(u_res.values * mf), p)
            rows.append({"test": name, "resolution": res, "ratio": num / den})
    expect = cert["complement_bp_star"]["label"] == "Diverges"
    return _make_report("two_weight", rows, cert, expect, skipped)


def necessity_construction(g: GridFunction, p: float,
                           phi: YoungFunction) -> tuple[GridFunction, GridFunction]:
    """Weight couple (u, v) = (1 / M_phi(g^{1/p}), g^{-1/p}).

    g is floored at 1e-12 of its max so v stays finite. By construction
    every rectangle R satisfies
    (mean_R u^p)^{1/p} * ||g^{1/p}||_{phi,R} <= 1: the maximal field
    dominates the norm on any rectangle through each of its points, so the
    bump constant of the couple is at most 1 up to solver tolerance.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    top = float(g.values.max())
    if top <= 0.0:
        raise DegenerateSet("g vanishes identically")
    vals = np.maximum(g.values, 1e-12 * top)
    root = g.with_values(vals ** (1.0 / p))
    m = orlicz_maximal(root, phi, Basis()).field.values
    u = g.with_values(1.0 / m)
    v = g.with_values(vals ** (-1.0 / p))
    return u, v


def holder_orlicz_suite(phi: YoungFunction, suite: ProbeSuite = ProbeSuite(),
                        triples: int = 10_000) -> dict:
    """Mean-product bound mean_R(fg) <= 2 ||f||_{phi,R} ||g||_{phibar,R}.

    Random triples come in 40 sizes of ceil(triples / 40) rows each, every
    size with deterministic adversarial rows (co-located spikes, constant
    g). Every size is drawn first, in one fixed rng order, and then all of
    them are solved in one luxemburg_batch call per Young function; the
    solver stops each row on its own, so every norm is the one a per-size
    call gives. The norms come from the same bracketing solver the
    operators use, which only ever overestimates, so a reported violation
    is a real one up to the 1e-7 float guard.
    """
    if triples < 1:
        raise ValueError(f"triples must be a positive count, got {triples}")
    phibar = complementary(phi)
    rng = np.random.default_rng([suite.seed, 0x401D])
    sizes = [int(s) for s in rng.integers(2, 65, size=40)]
    per = -(-triples // len(sizes))
    fmats, gmats = RowBlocks(), RowBlocks()
    for sz in sizes:
        fmat = np.abs(rng.normal(size=(per, sz)))
        gmat = np.abs(rng.normal(size=(per, sz)))
        # adversarial rows: co-located spikes and a constant partner
        fmat[0] = 0.0
        gmat[0] = 0.0
        fmat[0, 0] = 1.0
        gmat[0, 0] = 1.0
        if per > 1:
            gmat[1] = 1.0
        fmats.append(fmat)
        gmats.append(gmat)
    nf = luxemburg_batch(fmats, phi)
    ng = luxemburg_batch(gmats, phibar)
    mean_fg = np.concatenate([np.mean(f * g, axis=1) for f, g in zip(fmats, gmats)])
    denom = 2.0 * nf * ng
    ratio = np.where(denom > 0.0, mean_fg / np.maximum(denom, 1e-300), 0.0)
    worst = float(ratio.max())
    violations = int(np.count_nonzero(ratio > 1.0 + 1e-7))
    total = per * len(sizes)
    return {
        "phi": young_to_json(phi),
        "triples": total,
        "worst_ratio": worst,
        "violations": violations,
        "passed": violations == 0,
    }


def counterexample_divergence(delta: float = 0.5, p: float = 2.0,
                              doublings: tuple[int, ...] = (16, 32, 64, 128),
                              lo: float = 4.0,
                              mesh_per_decade: int = 160) -> dict:
    """Partial-integral growth for the log-damped power function.

    Phi(t) = t^p / log(1+t)^{1+delta} admits the closed far-field
    M_phi(chi_{[0,1]^2})(y) = 1 / Phi^{-1}(y1 y2), so the p-th power
    integrates by quadrature over [lo, T]^2 without any grid. The
    observable is the increment I(2T) - I(T): nondecreasing for the
    damped function, geometrically decaying for the plain average. Each
    partial integral inverts y1 y2 at the pairs i <= j of its mesh and
    mirrors the rest: the product is symmetric to the bit, and inverse
    solves each point on its own, so the quadrature matrix is the one a
    full outer-product inversion gives.
    """
    hi = 2.0 * max(doublings)
    phi = tabulate(lambda t: t ** p / np.log1p(t) ** (1.0 + delta),
                   0.5, max(1e7, hi * hi), points_per_decade=400)

    def partial(young, T: float) -> float:
        npts = max(16, int(math.log10(T / lo) * mesh_per_decade))
        y = np.geomspace(lo, T, npts)
        i, j = np.triu_indices(npts)
        fvals = np.empty((npts, npts))
        fvals[i, j] = fvals[j, i] = inverse(young, y[i] * y[j]) ** (-p)
        wts = np.zeros(npts)
        wts[:-1] += 0.5 * np.diff(y)
        wts[1:] += 0.5 * np.diff(y)
        return float(wts @ fvals @ wts)

    # each cutoff once: consecutive doublings share an end
    cutoffs = sorted({float(c) for T in doublings for c in (T, 2 * T)})
    integrals = [{c: partial(young, c) for c in cutoffs} for young in (phi, Power(1.0))]
    incs, ctrl = ([i[2.0 * T] - i[float(T)] for T in doublings] for i in integrals)
    nondecr = all(b >= a * (1.0 - 1e-9) for a, b in zip(incs, incs[1:]))
    decaying = all(b < a for a, b in zip(ctrl, ctrl[1:]))
    return {
        "delta": delta,
        "p": p,
        "doublings": list(doublings),
        "increments": incs,
        "nondecreasing": nondecr,
        "control_increments": ctrl,
        "control_decreasing": decaying,
        "lo": lo,
        "mesh_per_decade": mesh_per_decade,
    }


def run_suite(name: str, config: dict | None = None) -> dict:
    """Named experiment bundles behind the command-line verify entry."""
    cfg = dict(config or {})
    seed = int(cfg.get("seed", 0))
    p = float(cfg.get("p", 2.0))
    resolutions = tuple(cfg.get("resolutions", (8, 16)))
    if name in ("t2", "t12") and not (resolutions and min(resolutions) > 0):
        raise ValueError(f"suite {name} needs one or more positive resolutions, "
                         f"got {list(resolutions)}")
    suite = ProbeSuite(seed=seed, resolutions=resolutions)
    out: dict = {"suite": name, "config": {**cfg, "seed": seed, "p": p,
                                           "resolutions": list(resolutions)}}
    if name == "t2":
        phi = Power(float(cfg.get("power_r", 1.5)))
        lp = lp_bound_probe(phi, p, Basis(), suite)
        out["lp_bound"] = lp.to_dict()
        out["weighted_transfer"] = weighted_transfer_probe(phi, p, suite).to_dict()
        w = suite.weight_field(resolutions[0])
        out["fefferman_stein"] = fefferman_stein_probe(phi, p, w, 0.5, suite).to_dict()
        ones = suite.grid(resolutions[0]).with_values(
            np.ones((resolutions[0],) * suite.dims))
        fs1 = fefferman_stein_probe(phi, p, ones, 0.5, suite)
        out["reduction_identity"] = {
            "holds": [a["ratio"] for a in fs1.rows] == [b["ratio"] for b in lp.rows],
        }
    elif name == "t12":
        phi = Power(float(cfg.get("power_r", 1.5)))
        res = resolutions[0]
        rng = np.random.default_rng([seed, 0x712])
        g = suite.grid(res).with_values(np.exp(rng.normal(size=(res,) * suite.dims)))
        u, v = necessity_construction(g, p, phi)
        rep = two_weight_probe(u, v, phi, p, suite)
        out["two_weight"] = rep.to_dict()
        out["bump_of_construction"] = rep.certificates["bump"]["sup_constant"]
    elif name == "counterexample":
        out["divergence"] = counterexample_divergence(
            delta=float(cfg.get("delta", 0.5)), p=p)
    elif name == "holder":
        fams = [Power(1.5), Power(2.0), PowerLog(1.8, 1.0)]
        out["families"] = [holder_orlicz_suite(f, suite,
                                               int(cfg.get("triples", 4000)))
                           for f in fams]
        out["passed"] = all(f["passed"] for f in out["families"])
    elif name == "covering":
        rng = np.random.default_rng([seed, 0xC0F])
        shape = (32,) * suite.dims
        rects = []
        for _ in range(int(cfg.get("family_size", 40))):
            rects.append(_rand_rect(shape, rng))
        fam = RectFamily(shape, tuple(rects))
        alpha = float(cfg.get("alpha", 0.5))
        sel = select_scattered(fam, alpha)
        out["selection"] = sel.to_dict()
        out["verification"] = verify_scattered(fam, sel)
        w = suite.weight_field(shape[0])
        out["growth"] = weight_growth_sweep(fam, sel, w)
        sub = choose_cf_subfamily(fam)
        out["cf_check"] = cf_overlap_check(fam, sub, float(cfg.get("delta", 0.1)),
                                           suite.dims)
        out["largest_delta"] = largest_passing_delta(fam, sub, suite.dims)
    else:
        raise ValueError(f"unknown suite {name!r}")
    return out
