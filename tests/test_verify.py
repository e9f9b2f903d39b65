"""End-to-end probe harness: ratio reports, reductions, constructions."""

import math

import numpy as np
import pytest

from orliczmax.errors import DegenerateSet
from orliczmax.grid import GridFunction, luxemburg_batch
from orliczmax.maximal import Basis
from orliczmax.verify import (ProbeSuite, counterexample_divergence,
                              fefferman_stein_probe, holder_orlicz_suite,
                              lp_bound_probe, necessity_construction, run_suite,
                              two_weight_probe)
from orliczmax.weights import RectFamilySpec, bump_constant
from orliczmax.young import Power, PowerLog, complementary, inverse, tabulate

SUITE = ProbeSuite(seed=0, resolutions=(8, 16), per_kind=2)


def test_suite_is_deterministic():
    a = ProbeSuite(seed=0, resolutions=(8,), per_kind=2).functions(8)
    b = ProbeSuite(seed=0, resolutions=(8,), per_kind=2).functions(8)
    for (na, fa), (nb, fb) in zip(a, b):
        assert na == nb
        assert np.array_equal(fa.values, fb.values)
    c = ProbeSuite(seed=1, resolutions=(8,), per_kind=2).functions(8)
    assert any(not np.array_equal(fa.values, fc.values)
               for (_, fa), (_, fc) in zip(a, c))


def test_lp_bound_probe_shape():
    rep = lp_bound_probe(Power(1.5), 2.0, Basis(), SUITE)
    d = rep.to_dict()
    assert d["ratio_form"] == "norm_quotient"
    assert np.isfinite(d["sup_ratio"]) and d["sup_ratio"] > 0
    assert set(d["by_resolution"]) == {"8", "16"} or set(d["by_resolution"]) == {8, 16}
    assert not d["expect_unbounded"]  # r=1.5 < p=2 certifies boundedness


def test_lp_bound_flags_divergent_certificate():
    rep = lp_bound_probe(Power(3.0), 2.0, Basis(), SUITE)
    assert rep.expect_unbounded


def test_unweighted_reduction_identity():
    # constant weight turns the weighted probe into the plain one, and the
    # two pipelines agree to the bit
    res = 8
    ones = SUITE.grid(res).with_values(np.ones((res, res)))
    fs = fefferman_stein_probe(Power(1.5), 2.0, ones, 0.5, SUITE)
    lp = lp_bound_probe(Power(1.5), 2.0, Basis(), SUITE)
    assert [r["ratio"] for r in fs.rows] == [r["ratio"] for r in lp.rows]


def test_necessity_construction_bump_never_exceeds_one():
    rng = np.random.default_rng(9)
    phi = Power(1.75)
    g = GridFunction((16, 16), (0.0, 0.0), (0.5, 0.5),
                     np.exp(rng.normal(size=(16, 16))))
    u, v = necessity_construction(g, 2.0, phi)
    rep = bump_constant(u, v, phi, 2.0,
                        RectFamilySpec(mode="stratified", count=128, seed=1))
    assert rep.sup_constant <= 1.0 + 5e-9


def test_necessity_construction_constant_input():
    phi = PowerLog(1.8, 1.0)
    g = GridFunction((8, 8), (0.0, 0.0), (1.0, 1.0), np.ones((8, 8)))
    u, v = necessity_construction(g, 2.0, phi)
    rep = bump_constant(u, v, phi, 2.0, RectFamilySpec(mode="exhaustive"))
    assert rep.sup_constant == pytest.approx(1.0, abs=5e-9)


def test_necessity_rejects_zero_input():
    g = GridFunction((6, 6), (0.0, 0.0), (1.0, 1.0), np.zeros((6, 6)))
    with pytest.raises(DegenerateSet):
        necessity_construction(g, 2.0, Power(2.0))


def test_two_weight_probe_reports_certificates():
    u = SUITE.weight_field(8, 0)
    v = u.with_values(u.values * 2.0)
    rep = two_weight_probe(u, v, Power(2.0), 2.0,
                           ProbeSuite(seed=0, resolutions=(8,), per_kind=1))
    assert np.isfinite(rep.sup_ratio)
    assert "bump" in rep.certificates


def test_holder_suite_no_violations():
    out = holder_orlicz_suite(Power(2.0), ProbeSuite(seed=2), triples=800)
    assert out["violations"] == 0
    assert out["worst_ratio"] <= 1.0 + 1e-7


@pytest.mark.parametrize("phi", [Power(1.5), PowerLog(1.8, 1.0)], ids=["power", "power_log"])
def test_holder_batch_equals_one_solve_per_size(phi):
    # the per-size loop: draw a size, solve it, fold its ratios
    suite, triples = ProbeSuite(seed=4), 400
    rng = np.random.default_rng([suite.seed, 0x401D])
    sizes = [int(s) for s in rng.integers(2, 65, size=40)]
    per = -(-triples // len(sizes))
    worst, violations, total = 0.0, 0, 0
    for sz in sizes:
        fmat = np.abs(rng.normal(size=(per, sz)))
        gmat = np.abs(rng.normal(size=(per, sz)))
        fmat[0] = 0.0
        gmat[0] = 0.0
        fmat[0, 0] = 1.0
        gmat[0, 0] = 1.0
        gmat[1] = 1.0
        denom = 2.0 * luxemburg_batch(fmat, phi) * luxemburg_batch(gmat, complementary(phi))
        ratio = np.where(denom > 0.0,
                         np.mean(fmat * gmat, axis=1) / np.maximum(denom, 1e-300), 0.0)
        worst = max(worst, float(ratio.max()))
        violations += int(np.count_nonzero(ratio > 1.0 + 1e-7))
        total += per
    out = holder_orlicz_suite(phi, suite, triples)
    assert (out["worst_ratio"], out["violations"], out["triples"]) == (worst, violations, total)


def test_counterexample_fill_equals_full_outer_inversion():
    # the reference inverts every entry of the symmetric y1 y2 matrix
    delta, p, lo, mesh = 0.5, 2.0, 4.0, 40
    doublings = (16, 32, 64, 128)
    phi = tabulate(lambda t: t ** p / np.log1p(t) ** (1.0 + delta),
                   0.5, 1e7, points_per_decade=400)

    def partial(young, T):
        npts = max(16, int(math.log10(T / lo) * mesh))
        y = np.geomspace(lo, T, npts)
        fvals = inverse(young, np.outer(y, y)) ** (-p)
        wts = np.zeros(npts)
        wts[:-1] += 0.5 * np.diff(y)
        wts[1:] += 0.5 * np.diff(y)
        return float(wts @ fvals @ wts)

    incs, ctrl = ([partial(young, 2.0 * T) - partial(young, float(T)) for T in doublings]
                  for young in (phi, Power(1.0)))
    out = counterexample_divergence(delta, p, doublings, lo, mesh_per_decade=mesh)
    assert out["increments"] == incs
    assert out["control_increments"] == ctrl


def test_counterexample_increments():
    out = counterexample_divergence(doublings=(16, 32, 64), mesh_per_decade=80)
    assert out["nondecreasing"]
    assert out["control_decreasing"]
    assert len(out["increments"]) == 3


def test_run_suite_holder_small():
    out = run_suite("holder", {"triples": 300})
    assert out["passed"]
    assert len(out["families"]) == 3


def test_run_suite_unknown():
    with pytest.raises(ValueError):
        run_suite("nope")
