"""Acceptance gate: ten end-to-end criteria, one test (= one verdict line) each.

Every test carries its stated numeric tolerance and wall-clock limit; a
criterion that cannot meet its bound fails here rather than being relaxed.
"""

import itertools
import time

import numpy as np

from orliczmax.bp import analytic_verdict, classify
from orliczmax.covering import RectFamily, select_scattered, verify_scattered
from orliczmax.grid import (GridFunction, Rect, SummedAreaTable, luxemburg_batch,
                            rect_average)
from orliczmax.maximal import (Basis, multilinear_maximal, orlicz_maximal,
                               strong_maximal)
from orliczmax.verify import (ProbeSuite, counterexample_divergence,
                              fefferman_stein_probe, holder_orlicz_suite,
                              lp_bound_probe, necessity_construction)
from orliczmax.weights import RectFamilySpec, bump_constant
from orliczmax.young import (Power, PowerLog, PowerLogLog, complementary,
                             inverse, tabulate)


def _grid(vals, spacing=0.5):
    vals = np.asarray(vals, dtype=float)
    return GridFunction(vals.shape, (0.0,) * vals.ndim, (spacing,) * vals.ndim, vals)


def _all_rects(shape):
    spans = [[(a, b) for a in range(n) for b in range(a + 1, n + 1)] for n in shape]
    for combo in itertools.product(*spans):
        yield Rect(tuple(c[0] for c in combo), tuple(c[1] for c in combo))


def test_criterion_01_conjugate_oracle_half_square():
    """Numeric conjugate of a tabulated t^2/2 matches s^2/2 to 1e-6."""
    t0 = time.monotonic()
    tab = tabulate(lambda t: 0.5 * t * t, 1e-14, 1e14, points_per_decade=200)
    phibar = complementary(tab)
    s = np.geomspace(0.01, 100.0, 200)
    want = s * s / 2.0
    rel = np.abs(phibar.eval(s) - want) / want
    elapsed = time.monotonic() - t0
    assert rel.max() <= 1e-6, f"worst rel err {rel.max():.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_inverse_product_sandwich():
    """t <= phiinv(t) * phibarinv(t) <= 2t across families, 1e-6 slack."""
    t0 = time.monotonic()
    families = [Power(1.5), Power(2.0), Power(3.0), PowerLog(2.0, 1.5),
                PowerLogLog(2.0, 1.0), tabulate(lambda t: t * t, 1e-14, 1e14, 200)]
    t = np.geomspace(1e-3, 1e6, 200)
    for phi in families:
        prod = np.asarray(inverse(phi, t)) * np.asarray(inverse(complementary(phi), t))
        assert np.all(prod >= t * (1 - 1e-6)), phi
        assert np.all(prod <= 2 * t * (1 + 1e-6)), phi
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_03_classifier_sweep():
    """30 classifications at p=2, n in {2,3}: all match the closed forms."""
    t0 = time.monotonic()
    base = [Power(1.2), Power(1.5), Power(2.5), Power(3.0),
            PowerLog(2.0, 0.5), PowerLog(2.0, 1.5), PowerLog(2.0, 2.5),
            PowerLog(1.5, 1.0), PowerLog(2.5, 1.0)]
    triples = [(phi, mode, n) for phi in base
               for mode, n in (("bp", 2), ("bp_star", 2), ("bp_star", 3))]
    triples += [(PowerLogLog(2.0, 2.0, 1.5), "bp", 2),
                (PowerLogLog(2.0, 2.0, 1.5), "bp_star", 3),
                (PowerLog(1.8, 1.0), "bp_star", 2)]
    assert len(triples) == 30
    misses = []
    for phi, mode, n in triples:
        got = classify(phi, 2.0, n=n, mode=mode).label
        want = analytic_verdict(phi, 2.0, n, mode)
        if got != want:
            misses.append((str(phi), mode, n, want, got))
    assert not misses, misses
    flagship = PowerLog(2.0, 1.5)
    assert classify(flagship, 2.0, mode="bp").label == "Converges"
    assert classify(flagship, 2.0, n=2, mode="bp_star").label == "Diverges"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_04_far_field_of_unit_box():
    """Strong maximal of the unit-box indicator matches 1/(y1 y2) far out."""
    t0 = time.monotonic()
    h = 1.0 / 16.0
    n = 256  # [-8, 8] at spacing 1/16
    f = GridFunction.indicator_box((n, n), (-8.0, -8.0), (h, h), (0.0, 0.0),
                                   (1.0, 1.0))
    m = strong_maximal(f).field.values
    c = f.axis_centers(0)
    far = c > 1.5
    y1, y2 = np.meshgrid(c[far], c[far], indexing="ij")
    got = m[np.ix_(far, far)]
    want = 1.0 / (y1 * y2)
    rel = np.abs(got - want) / want
    elapsed = time.monotonic() - t0
    assert rel.max() <= 3 * h, f"worst rel err {rel.max():.4f} vs {3 * h}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_05_counterexample_divergence():
    """Far-field mass of the log-damped square grows; the linear control decays."""
    t0 = time.monotonic()
    out = counterexample_divergence(delta=0.5, p=2.0, doublings=(16, 32, 64, 128))
    assert out["nondecreasing"], out["increments"]
    assert out["control_decreasing"], out["control_increments"]
    ctrl = out["control_increments"]
    ratios = [b / a for a, b in zip(ctrl, ctrl[1:])]
    assert all(r <= 0.75 for r in ratios), ratios
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_06_holder_inequality_sweep():
    """10^4 random triples per family: normalized pairing never beats 1."""
    t0 = time.monotonic()
    for phi in (Power(1.5), Power(2.0), PowerLog(1.8, 1.0)):
        out = holder_orlicz_suite(phi, ProbeSuite(seed=11), triples=10_000)
        assert out["violations"] == 0, out
        assert out["worst_ratio"] <= 1.0 + 1e-7
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_07_necessity_construction_bump():
    """The two-weight couple built from any positive g has bump constant ~1."""
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    phi = Power(1.75)
    fam = RectFamilySpec(mode="stratified", count=256, seed=5)
    worst = 0.0
    for _ in range(20):
        g = _grid(np.exp(rng.normal(size=(32, 32))), spacing=0.25)
        u, v = necessity_construction(g, 2.0, phi)
        rep = bump_constant(u, v, phi, 2.0, fam)
        worst = max(worst, rep.sup_constant)
    elapsed = time.monotonic() - t0
    assert worst <= 1.05, f"worst bump {worst:.6f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_08_scattered_selection_sweep():
    """100 random 50-rect families: greedy agrees with a from-scratch set model."""
    t0 = time.monotonic()
    rng = np.random.default_rng(123)
    shape = (24, 24)
    for fam_idx in range(100):
        rects = []
        for _ in range(50):
            lo = [int(rng.integers(0, s - 1)) for s in shape]
            hi = [int(rng.integers(l + 1, min(l + 13, s) + 1))
                  for l, s in zip(lo, shape)]
            rects.append(Rect(tuple(lo), tuple(hi)))
        fam = RectFamily(shape, tuple(rects))
        for alpha in (0.25, 0.5, 0.75):
            sel = select_scattered(fam, alpha)
            rep = verify_scattered(fam, sel)
            assert rep["ok"], (fam_idx, alpha, rep)
            # set-based replay: occupancy counts must match exactly
            occupied: set = set()
            kept = []
            fractions = {}
            for i, r in enumerate(rects):
                cells = set(itertools.product(*[range(a, b)
                                                for a, b in zip(r.lo, r.hi)]))
                inter = len(cells & occupied)
                if inter <= alpha * r.ncells:
                    kept.append(i)
                    fractions[i] = inter / r.ncells
                    occupied |= cells
            assert tuple(kept) == sel.kept, (fam_idx, alpha)
            for row in rep["rows"]:
                assert row["covered_fraction"] == fractions[row["index"]]
    # disjoint families keep everything, duplicate families keep one
    disjoint = RectFamily((12, 12), (Rect((0, 0), (4, 4)), Rect((5, 5), (9, 9)),
                                     Rect((0, 8), (3, 12))))
    assert select_scattered(disjoint, 0.25).kept == (0, 1, 2)
    dup = RectFamily((12, 12), (Rect((2, 2), (8, 8)),) * 3)
    assert select_scattered(dup, 0.5).kept == (0,)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def _brute_orlicz(f, phi):
    """Exhaustive rectangle loop: explicit slices, norms grouped per shape.

    The bisection solver itself is validated against closed forms in the
    unit tests; what this cross-checks is the sweep machinery (window
    extraction, covering, pruning).
    """
    by_sides: dict = {}
    for r in _all_rects(f.shape):
        by_sides.setdefault(r.sides(), []).append(r)
    out = np.zeros(f.shape)
    for rects in by_sides.values():
        rows = np.stack([f.values[r.slices].ravel() for r in rects])
        norms = luxemburg_batch(rows, phi)
        for r, v in zip(rects, norms):
            np.maximum(out[r.slices], v, out=out[r.slices])
    return out


def test_criterion_09_brute_force_cross_validation():
    """DP sweeps equal exhaustive rectangle loops on small grids."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    phi = PowerLog(1.8, 1.0)
    shapes = [tuple(int(x) for x in rng.integers(4, 17, size=2)) for _ in range(25)]
    shapes.append((8, 8, 8))
    for sh in shapes:
        f = _grid(np.exp(rng.normal(size=sh)))
        g = _grid(np.exp(rng.normal(size=sh)))
        satf, satg = SummedAreaTable(f), SummedAreaTable(g)
        bs = np.zeros(sh)
        bm = np.zeros(sh)
        for r in _all_rects(sh):
            sl = r.slices
            np.maximum(bs[sl], rect_average(satf, r), out=bs[sl])
            np.maximum(bm[sl], rect_average(satf, r) * rect_average(satg, r),
                       out=bm[sl])
        assert np.array_equal(strong_maximal(f).field.values, bs), sh
        assert np.array_equal(multilinear_maximal([f, g]).field.values, bm), sh
        bo = _brute_orlicz(f, phi)
        on = orlicz_maximal(f, phi, prune=True).field.values
        off = orlicz_maximal(f, phi, prune=False).field.values
        assert np.array_equal(on, off), sh
        rel = np.abs(on - bo) / bo
        assert rel.max() <= 2e-9, (sh, rel.max())
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_10_weighted_reductions():
    """Constant-weight probes reduce to unweighted ones bit for bit; smooth
    weights with a certified integral condition stay stable across resolution."""
    t0 = time.monotonic()
    suite = ProbeSuite(seed=0, resolutions=(8, 16), per_kind=2)
    phi = Power(1.5)
    ones = suite.grid(8).with_values(np.ones((8, 8)))
    fs1 = fefferman_stein_probe(phi, 2.0, ones, 0.5, suite)
    lp = lp_bound_probe(phi, 2.0, Basis(), suite)
    assert [r["ratio"] for r in fs1.rows] == [r["ratio"] for r in lp.rows]

    w = suite.weight_field(8)
    fs = fefferman_stein_probe(phi, 2.0, w, 0.5, suite)
    assert fs.certificates["phi_bp_star"]["label"] == "Converges"
    # trend_factor is sup(16) / sup(8): one doubling of the resolution
    assert abs(fs.trend_factor - 1.0) < 0.25, fs.by_resolution
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
