"""Young-function calculus: evaluation, conjugates, inverses, probes."""

import numpy as np
import pytest
from conftest import SOLVER_IDS, SOLVER_PHIS

from orliczmax import young
from orliczmax.errors import InvalidYoungFunction, NoBracket, NonFinite
from orliczmax.young import (_INVERSE_CHUNK, NumericComplement, Power, PowerLog,
                             PowerLogLog, Tabulated, YoungFunction, complementary, inverse,
                             probe_doubling, probe_submultiplicative, tabulate,
                             young_from_json, young_to_json)


def solver_ys(phi):
    """More than one inverse block of y, with a tiny and a huge value."""
    top = 1e300 if phi.domain_cap is None else float(phi.eval(phi.domain_cap))
    rng = np.random.default_rng(7)
    y = np.exp(rng.uniform(np.log(1e-8), np.log(min(top, 1e8)), size=_INVERSE_CHUNK + 9))
    y[[5, _INVERSE_CHUNK - 1, _INVERSE_CHUNK]] = [1e-300, top, 1.0]
    return y


def test_power_eval():
    phi = Power(2.0)
    t = np.array([0.0, 0.5, 1.0, 3.0])
    assert np.allclose(phi.eval(t), t**2)


def test_power_log_eval_matches_formula():
    phi = PowerLog(2.0, 1.5)
    t = np.array([0.5, 1.0, 2.0, 100.0])
    want = t**2 / np.log(np.e + t) ** 1.5
    assert np.allclose(phi.eval(t), want, rtol=1e-12)


def test_power_requires_r_at_least_one():
    with pytest.raises(InvalidYoungFunction):
        Power(0.5)


def test_non_convex_params_rejected():
    with pytest.raises(InvalidYoungFunction):
        PowerLog(2.0, 3.0)
    with pytest.raises(InvalidYoungFunction):
        PowerLogLog(2.0, 4.0, 2.0)
    with pytest.raises(InvalidYoungFunction):
        PowerLogLog(1.5, 1.0, 2.0)


# Phi at +inf of each family: a closed form of inf / inf (PowerLog,
# PowerLogLog) gives NaN, which the evaluation passes through as it is
EVAL_PHIS = [Power(2.0), PowerLog(1.8, 1.0), PowerLogLog(2.0, 1.5, 1.5),
             Tabulated([(0.5, 0.0), (1.0, 0.5), (2.0, 3.0), (8.0, 64.0)]),
             complementary(Power(1.5)), complementary(PowerLog(2.0, 1.0))]
EVAL_IDS = ["power", "power_log", "power_log_log", "tabulated", "complement", "complement_log"]


@pytest.mark.parametrize("phi", EVAL_PHIS, ids=EVAL_IDS)
def test_eval_rejects_nan_and_negatives_and_takes_signed_zero_and_inf(phi):
    # Phi(inf) is inf in every family, also where the raw form reads inf / inf
    for bad in (np.nan, -1.0, -np.inf, -1e-300, np.array([1.0, np.nan]),
                np.array([[2.0, 0.5], [-3.0, 1.0]])):
        with pytest.raises(ValueError, match=r"^Young functions are evaluated on t >= 0$"):
            phi.eval(bad)
    vals = phi.eval(np.array([-0.0, np.inf, 0.0, 2.0]))
    assert np.array_equal(vals[:3], [0.0, np.inf, 0.0])
    assert not np.signbit(vals[[0, 2]]).any()  # -0.0 gives +0.0
    assert vals[3] == phi.eval(2.0) > 0.0
    assert [phi.eval(-0.0), phi.eval(np.inf)] == [0.0, np.inf]
    assert not np.signbit(phi.eval(-0.0))


def test_eval_of_a_vanishing_phi_at_inf_is_its_limit_0():
    # Phi = 0 everywhere: Phi(inf) is 0, so a norm under it is 0 down to
    # underflow (the solver's probes past the float range read Phi(inf))
    vanishing = Tabulated([(1.0, 0.0), (2.0, 0.0)])
    assert np.array_equal(vanishing.eval(np.array([0.0, 1e300, np.inf])), np.zeros(3))


def test_domain_cap_is_infinite_beyond():
    phi = Power(2.0, domain_cap=10.0)
    vals = phi.eval(np.array([5.0, 10.0, 11.0]))
    assert np.isfinite(vals[0])
    assert vals[2] == np.inf


def test_complement_of_square_is_quarter_square():
    # sup_t (st - t^2) = s^2/4
    phibar = complementary(Power(2.0))
    s = np.geomspace(1e-2, 1e3, 50)
    rel = np.abs(phibar.eval(s) - s**2 / 4) / (s**2 / 4)
    assert rel.max() < 2e-6


def test_complement_of_power_r():
    # conjugate of t^r is (r-1) * (s/r)^(r/(r-1))
    for r in (1.5, 3.0):
        phibar = complementary(Power(r))
        s = np.geomspace(1e-2, 1e3, 40)
        want = (r - 1.0) * (s / r) ** (r / (r - 1.0))
        rel = np.abs(phibar.eval(s) - want) / want
        assert rel.max() < 2e-6, (r, rel.max())


# the bases of every complement the solver tests use, a steep and a nearly
# linear power, a capped base, a zero stretch, and two bases whose running
# maximum of the chord slopes has plateaus: a non-convex Tabulated and t
KNOT_BASES = [p.base for p in SOLVER_PHIS if isinstance(p, NumericComplement)] + [
    Power(1.01), Power(3.0), Power(2.0, domain_cap=10.0),
    Tabulated([(0.5, 0.0), (1.0, 0.5), (2.0, 3.0), (8.0, 64.0)]),
    Tabulated([(1.0, 1.0), (2.0, 10.0), (3.0, 11.0), (100.0, 1e4)]),
    Power(1.0)]


@pytest.mark.parametrize("base", KNOT_BASES, ids=lambda b: young_to_json(b)["kind"])
def test_knot_index_equals_searchsorted(base):
    phibar = complementary(base)
    slopes = phibar._slopes
    assert phibar._index is None  # built on the first evaluation
    rng = np.random.default_rng(12)
    tiny = np.finfo(float).smallest_subnormal
    s = np.concatenate([
        slopes, np.nextafter(slopes, 0.0), np.nextafter(slopes, np.inf),
        [0.0, -0.0, tiny, 2 * tiny, 1e-310, np.finfo(float).tiny, np.inf,
         np.finfo(float).max], np.exp(rng.normal(scale=8.0, size=100_000))])
    assert np.array_equal(phibar._knot(s), np.searchsorted(slopes, s, side="left"))
    assert phibar._index is not None


def test_young_inequality():
    # st <= phi(t) + phibar(s) for every pair, by definition of the sup
    rng = np.random.default_rng(0)
    for phi in (Power(2.0), PowerLog(1.8, 1.0), PowerLogLog(2.0, 1.0)):
        phibar = complementary(phi)
        t = np.exp(rng.uniform(-4, 4, size=200))
        s = np.exp(rng.uniform(-4, 4, size=200))
        lhs = s * t
        rhs = phi.eval(t) + phibar.eval(s)
        assert np.all(lhs <= rhs * (1 + 1e-9))


def test_biconjugate_recovers_power():
    bi = complementary(complementary(Power(2.0)))
    t = np.geomspace(0.1, 50.0, 30)
    rel = np.abs(bi.eval(t) - t**2) / t**2
    assert rel.max() < 1e-6


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), 1.0], ids=str)
def test_inverse_rejects_a_tol_outside_zero_one(tol):
    with pytest.raises(ValueError, match="tol"):
        inverse(PowerLog(1.8, 1.0), [0.5, 2.0], tol=tol)


def test_inverse_right_inverse():
    for phi in (Power(2.0), PowerLog(2.0, 1.5), PowerLogLog(1.8, 1.0)):
        y = np.geomspace(1e-6, 1e8, 60)
        t = inverse(phi, y)
        back = phi.eval(np.asarray(t))
        rel = np.abs(back - y) / y
        assert rel.max() < 1e-8, (phi, rel.max())


def test_inverse_product_sandwich():
    # t <= phiinv(t) * phibarinv(t) <= 2t
    t = np.geomspace(1e-3, 1e6, 120)
    for phi in (Power(1.5), Power(2.0), PowerLog(2.0, 1.5)):
        phibar = complementary(phi)
        prod = np.asarray(inverse(phi, t)) * np.asarray(inverse(phibar, t))
        assert np.all(prod >= t * (1 - 1e-6))
        assert np.all(prod <= 2 * t * (1 + 1e-6))


def test_inverse_point_does_not_depend_on_its_vector(solver_phi):
    y = solver_ys(solver_phi)
    t = inverse(solver_phi, y)
    rng = np.random.default_rng(8)
    picks = [0, 5, _INVERSE_CHUNK - 1, _INVERSE_CHUNK, y.size - 1]
    picks += rng.integers(0, y.size, size=20).tolist()
    for i in picks:
        assert t[i] == inverse(solver_phi, y[i:i + 1])[0], (i, y[i])


def test_inverse_of_a_vector_with_repeats_equals_one_call_per_element(solver_phi):
    # each distinct y is solved once and its t copied to every repeat
    rng = np.random.default_rng(9)
    y = rng.choice(solver_ys(solver_phi)[:40], size=200)
    y[[3, 17]] = 0.0
    t = inverse(solver_phi, y)
    assert np.array_equal(t, [inverse(solver_phi, v) for v in y])


def test_inverse_returns_certified_lower_end(solver_phi):
    # Phi(t) <= y at the returned t, and t is within tol of the exact inverse
    y = solver_ys(solver_phi)
    t = inverse(solver_phi, y, tol=1e-10)
    assert np.all(t > 0)
    assert np.all(solver_phi.eval(t) <= y)
    assert np.all(solver_phi.eval(t * (1.0 + 2e-10)) > y)


class RecordingPhi(YoungFunction):
    """Records every point a wrapped Young function is evaluated at."""

    def __init__(self, base):
        self.base = base
        self.domain_cap = base.domain_cap
        self.points = []

    def eval(self, t):
        self.points.append(np.array(t, dtype=float))
        return self.base.eval(t)


def test_bracket_search_squares_its_factor():
    # from t = 1 by factors 2, 4, 16, 256, 65536, 2**32 and then 1e16 until
    # Phi(t) > y, each failed end kept as the other end of the bracket
    phi = RecordingPhi(Power(2.0))
    inverse(phi, 1e100)
    steps = [2.0 ** k for k in (0, 1, 3, 7, 15, 31, 63)] + [2.0 ** 63 * 1e16, 2.0 ** 63 * 1e32]
    assert [float(t[0]) for t in phi.points[:9]] == pytest.approx(steps, rel=1e-15)
    assert steps[-2] < phi.points[9][0] < steps[-1]
    phi.points.clear()
    inverse(phi, 1e-12)
    assert [float(t[0]) for t in phi.points[:6]] == [2.0 ** -k for k in (0, 1, 3, 7, 15, 31)]
    assert 2.0 ** -31 < phi.points[6][0] < 2.0 ** -15


def start_at_one(monkeypatch):
    """Make inverse start every point at [1, 1], as it does without a closed form."""
    monkeypatch.setattr(young, "_closed_inverse", lambda phi, y: None)


def within_tol(a, b, tol=1e-10):
    """Two certified inverses of the same y both lie in (exact / (1 + tol), exact]."""
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(a, b)))


CLOSED_FORM_PHIS = {i: p for i, p in zip(SOLVER_IDS, SOLVER_PHIS)
                    if i in ("power", "tabulated", "capped")}


@pytest.mark.parametrize("phi", CLOSED_FORM_PHIS.values(), ids=CLOSED_FORM_PHIS.keys())
def test_closed_form_start_is_certified_and_within_tol_of_a_start_at_one(phi, monkeypatch):
    y = solver_ys(phi)
    t = inverse(phi, y, tol=1e-10)
    assert np.all(phi.eval(t) <= y)
    assert np.all(phi.eval(t * (1.0 + 2e-10)) > y)
    start_at_one(monkeypatch)
    assert within_tol(t, inverse(phi, y, tol=1e-10))


def damped_power(delta=0.5, p=2.0, hi=256.0):
    """The Young function of verify.counterexample_divergence at its defaults."""
    return tabulate(lambda t: t ** p / np.log1p(t) ** (1.0 + delta), 0.5,
                    max(1e7, hi * hi), points_per_decade=400)


@pytest.mark.parametrize("phi", [Power(1.0), Power(2.5), damped_power()],
                         ids=["power1", "power2.5", "damped"])
def test_closed_form_inverse_evaluates_phi_once_per_block(phi, monkeypatch):
    # y over the counterexample's range, more than one block of distinct values
    calls = []
    raw = type(phi)._raw

    def counting(self, t):
        calls.append(t.size)
        return raw(self, t)

    monkeypatch.setattr(type(phi), "_raw", counting)
    y = np.geomspace(16.0, 256.0 ** 2, _INVERSE_CHUNK + 100)
    t = inverse(phi, y)
    assert len(calls) == 2  # one probe of both bracket ends per block
    assert np.all(phi.eval(t) <= y)


PLATEAU = Tabulated([(1.0, 1.0), (2.0, 4.0), (3.0, 4.0), (4.0, 16.0)])
CAPPED_TABLE = Tabulated([(0.5, 0.25), (1.0, 1.0), (4.0, 16.0)], domain_cap=3.0)


@pytest.mark.parametrize("phi", [Power(2.0), SOLVER_PHIS[2], PLATEAU, CAPPED_TABLE],
                         ids=["power", "tabulated", "plateau", "capped_table"])
def test_closed_form_edge_cases_behave_as_a_start_at_one(phi, monkeypatch):
    tiny = np.finfo(float).smallest_subnormal
    # subnormal y, y below, inside and above the knots (and the cap), on a
    # knot value, and the largest float
    y = np.array([tiny, 7 * tiny, 1e-310, 1e-8, 0.2, 0.7, 1.0, 2.5, 4.0, 8.0, 1e3, 1e300,
                  np.finfo(float).max])
    cap = CAPPED_TABLE.eval(3.0)
    y = y[y <= cap] if phi.domain_cap else y
    # y = inf and y past the cap raise, with a closed form or without
    bad = [np.inf, 2.0 * cap] if phi.domain_cap else [np.inf]
    got = inverse(phi, y)
    assert np.all(phi.eval(got) <= y)
    for closed in (True, False):
        if not closed:
            start_at_one(monkeypatch)
        for b in bad:
            with pytest.raises(NoBracket):
                inverse(phi, b)
    assert within_tol(got, inverse(phi, y))


def test_closed_form_on_a_plateau_returns_its_right_end():
    # Phi = 4 on [2, 3]: sup{t : Phi(t) <= 4} = 3
    t = inverse(PLATEAU, 4.0)
    assert 3.0 / (1.0 + 1e-10) < t <= 3.0
    assert PLATEAU.eval(t) <= 4.0


FLAT_KNOTS = [(1.0, 1.0), (2.0, 10.0), (3.0, 10.0), (4.0, 20.0)]
FLAT_TAIL = [(1.0, 1.0), (2.0, 10.0), (3.0, 10.0)]


@pytest.mark.parametrize("closed", [True, False], ids=["closed_form", "start_at_one"])
def test_inverse_at_a_plateau_value_returns_its_right_end_or_raises_past_a_flat_tail(
        closed, monkeypatch):
    # Phi = 10 on [2, 3] must read exactly 10 there, so sup{t : Phi(t) <= 10}
    # is 3; past a flat last segment Phi stays 10 up to the largest float
    if not closed:
        start_at_one(monkeypatch)
    t = inverse(Tabulated(FLAT_KNOTS), 10.0)
    assert 3.0 / (1.0 + 1e-10) < t <= 3.0
    with pytest.raises(NoBracket):
        inverse(Tabulated(FLAT_TAIL), 10.0)


KNOT_TABLES = {"damped": damped_power(), "tabulated": SOLVER_PHIS[2], "plateau": PLATEAU,
               "flat_knots": Tabulated(FLAT_KNOTS), "flat_tail": Tabulated(FLAT_TAIL)}


@pytest.mark.parametrize("phi", KNOT_TABLES.values(), ids=KNOT_TABLES.keys())
def test_tabulated_reads_its_knot_values(phi):
    t, y = np.array(phi.knots).T
    assert np.array_equal(phi.eval(t), y)


MONOTONE_TABLES = {
    "zero_start": SOLVER_PHIS[2], "plateau": PLATEAU, "flat_tail": KNOT_TABLES["flat_tail"],
    "tiny_knot": Tabulated([(1e-300, 2.0), (1.0, 3.0)]),
    "tiny_values": Tabulated([(1e-300, 1e-300), (2e-300, 1e-299), (1.0, 5.0)]),
    "huge_knots": Tabulated([(1e100, 0.0), (2e100, 1.0), (4e100, 4.0)]),
    # a zero segment whose slope 1e300 / 1e-10 overflows
    "steep_zero": Tabulated([(0.5, 0.0), (0.5 + 1e-10, 1e300), (1.0, 2e300)]),
    "damped": KNOT_TABLES["damped"]}


@pytest.mark.parametrize("phi", MONOTONE_TABLES.values(), ids=MONOTONE_TABLES.keys())
def test_tabulated_never_decreases_across_its_knots(phi):
    t = np.array(phi.knots)[:, 0]
    pts = np.sort(np.concatenate([t, np.nextafter(t, 0.0), np.nextafter(t, np.inf),
                                  np.geomspace(t[0] / 10.0, t[-1] * 10.0, 1000)]))
    assert np.all(np.diff(phi.eval(pts)) >= 0)


@pytest.mark.parametrize("phi, y, tol", [(Power(1.0), 1e-321, 1e-10),
                                         (Power(1.0), 3.5e-323, 1e-10),
                                         (Power(1.5), 2.0, 1e-17)],
                         ids=["subnormal", "deep_subnormal", "tol_below_resolution"])
def test_inverse_stops_once_its_ends_are_adjacent_floats(phi, y, tol, monkeypatch):
    # tol * t underflows or lies below an ulp of t, so only the ends meeting
    # can stop the solve, not the step cap
    calls = []
    raw = Power._raw

    def counting(self, t):
        calls.append(t.size)
        return raw(self, t)

    monkeypatch.setattr(Power, "_raw", counting)
    t = inverse(phi, y, tol=tol)
    assert len(calls) < 50
    assert phi.eval(t) <= y < phi.eval(np.nextafter(t, np.inf))


def test_closed_form_skips_subclasses_and_inexact_families():
    class Sub(Power):
        pass

    assert young._closed_inverse(Sub(2.0), np.array([4.0])) is None
    assert young._closed_inverse(PowerLog(1.8, 1.0), np.array([4.0])) is None
    assert young._closed_inverse(Power(2.0), np.array([4.0]))[0] == 2.0
    assert young._closed_inverse(Power(2.0, domain_cap=10.0), np.array([4.0]))[0] == 2.0


def test_capped_power_inverse_below_the_cap_is_the_uncapped_one(monkeypatch):
    # y up to Phi(cap) = 100, where the closed form meets the cap itself
    y = np.concatenate([[50.0, 3.0], np.geomspace(1e-8, 100.0, 200)])
    calls = []
    raw = Power._raw

    def counting(self, t):
        calls.append(t.size)
        return raw(self, t)

    monkeypatch.setattr(Power, "_raw", counting)
    capped = inverse(Power(2.0, domain_cap=10.0), y[:2])
    assert calls == [1, 4]  # Phi(cap), then one probe of both ends of both brackets
    assert np.array_equal(capped, inverse(Power(2.0), y[:2]))
    assert np.array_equal(inverse(Power(2.0, domain_cap=10.0), y), inverse(Power(2.0), y))


def test_tabulated_interpolates_between_knots():
    knots = [(0.5, 0.25), (1.0, 1.0), (2.0, 4.0), (4.0, 16.0)]
    phi = Tabulated(knots)
    assert phi.eval(np.array([1.0]))[0] == pytest.approx(1.0)
    mid = phi.eval(np.array([1.5]))[0]
    assert 1.0 < mid < 4.0


def test_tabulated_rejects_nonmonotone():
    with pytest.raises(InvalidYoungFunction):
        Tabulated([(0.5, 1.0), (1.0, 0.5), (2.0, 4.0)])


def test_tabulate_helper_matches_target():
    phi = tabulate(lambda t: t**3, 1e-3, 1e3, points_per_decade=300)
    t = np.geomspace(0.01, 100.0, 40)
    rel = np.abs(phi.eval(t) - t**3) / t**3
    assert rel.max() < 1e-4


def test_json_round_trip():
    cases = [Power(2.0), Power(1.5, domain_cap=50.0), PowerLog(2.0, 1.5),
             PowerLogLog(1.8, 1.0), Tabulated([(0.5, 0.3), (1.0, 1.0), (3.0, 9.0)])]
    t = np.array([0.6, 1.0, 2.5])
    for phi in cases:
        phi2 = young_from_json(young_to_json(phi))
        assert np.array_equal(phi.eval(t), phi2.eval(t))


def test_json_round_trip_of_complement():
    phi = complementary(Power(1.5))
    phi2 = young_from_json(young_to_json(phi))
    s = np.geomspace(0.1, 100.0, 20)
    assert np.array_equal(phi.eval(s), phi2.eval(s))


def test_json_accepts_string():
    phi = young_from_json('{"kind": "power", "r": 2.0}')
    assert isinstance(phi, Power)
    assert phi.r == 2.0


def test_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        young_from_json({"kind": "mystery"})


def test_complement_of_steep_base_extends_table():
    # a base far from linear growth needs the adaptive range extension;
    # the conjugate must stay finite at large arguments
    phibar = complementary(Power(1.5))
    v = phibar.eval(np.array([1.5e7]))
    assert np.isfinite(v[0]) and v[0] > 0


def test_probes_pass_for_power():
    assert probe_doubling(Power(2.0)).to_dict()["passed"]
    assert probe_submultiplicative(Power(2.0)).to_dict()["passed"]


def test_probe_reports_carry_witness():
    d = probe_doubling(PowerLog(2.0, 1.5)).to_dict()
    assert "argmax" in d and "max_ratio" in d
