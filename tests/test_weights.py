"""Weight-condition constants: bump, power bump, base ratio, testing, level sets."""

import numpy as np
import pytest

from orliczmax.errors import GeometryMismatch
from orliczmax.grid import GridFunction, Rect, SummedAreaTable
from orliczmax.maximal import CUBES, DYADIC, Basis
from orliczmax.weights import (RectFamilySpec, SetSamplerSpec, WeightSystem,
                               ap_constant, ap_value, bump_constant, bump_value,
                               condition_A_estimate, condition_A_value,
                               power_bump_constant, power_bump_value,
                               sawyer_constant, sawyer_value)
from orliczmax.young import Power, PowerLog, complementary


def grid(vals, spacing=0.5):
    vals = np.asarray(vals, dtype=float)
    return GridFunction(vals.shape, (0.0,) * vals.ndim, (spacing,) * vals.ndim, vals)


def rand_weight(shape, seed, lo=0.2, hi=5.0):
    rng = np.random.default_rng(seed)
    return grid(rng.uniform(lo, hi, size=shape))


FAM = RectFamilySpec(mode="stratified", count=128, seed=0)


def test_family_deterministic():
    a = FAM.members((16, 16))
    b = RectFamilySpec(mode="stratified", count=128, seed=0).members((16, 16))
    assert a == b
    c = RectFamilySpec(mode="stratified", count=128, seed=1).members((16, 16))
    assert a != c


# member counts by hand: n(n+1)/2 anchored intervals per axis for rectangles,
# sum over s of prod(n - s + 1) for cubes, sides 1, 2, 4, 8 only for dyadic
_COUNTS = {
    ("rectangles", (9,)): 45, ("rectangles", (4, 3)): 10 * 6,
    ("rectangles", (3, 4, 5)): 6 * 10 * 15,
    ("cubes", (9,)): 45, ("cubes", (4, 3)): 12 + 6 + 2, ("cubes", (3, 4, 5)): 60 + 24 + 6,
    ("dyadic", (9,)): 9 + 8 + 6 + 2, ("dyadic", (4, 3)): 8 * 5, ("dyadic", (3, 4, 5)): 5 * 8 * 11,
}


@pytest.mark.parametrize("shape", [(9,), (4, 3), (3, 4, 5)], ids=str)
@pytest.mark.parametrize("basis", [Basis(), Basis(CUBES), Basis(DYADIC)], ids=lambda b: b.kind)
def test_exhaustive_family_covers_all(shape, basis):
    # every member once: shape by shape, anchors in np.ndindex order
    want = [Rect(a, tuple(x + s for x, s in zip(a, sides)))
            for sides in basis.shapes(shape)
            for a in np.ndindex(*[e - s + 1 for e, s in zip(shape, sides)])]
    assert RectFamilySpec(mode="exhaustive").members(shape, basis) == want
    assert len(want) == basis.rect_count(shape) == _COUNTS[basis.kind, shape]


def test_bump_scale_invariance_power_of_two_exact():
    u = rand_weight((12, 12), seed=1)
    v = rand_weight((12, 12), seed=2)
    phi = PowerLog(2.0, 1.0)
    base = bump_constant(u, v, phi, 2.0, FAM)
    for c in (4.0, 0.03125):
        scaled = bump_constant(u.with_values(c * u.values),
                               v.with_values(c * v.values), phi, 2.0, FAM)
        assert scaled.sup_constant == base.sup_constant


def test_bump_scale_invariance_generic_near_exact():
    # a non power-of-two factor rounds at ingestion, so only near-exact
    u = rand_weight((12, 12), seed=3)
    v = rand_weight((12, 12), seed=4)
    phi = PowerLog(2.0, 1.0)
    base = bump_constant(u, v, phi, 2.0, FAM)
    scaled = bump_constant(u.with_values(37.25 * u.values),
                           v.with_values(37.25 * v.values), phi, 2.0, FAM)
    assert scaled.sup_constant == pytest.approx(base.sup_constant, rel=1e-13)


def test_bump_witness_reevaluates():
    u = rand_weight((12, 12), seed=5)
    v = rand_weight((12, 12), seed=6)
    phi = Power(2.0)
    rep = bump_constant(u, v, phi, 2.0, FAM)
    assert bump_value(u, v, phi, 2.0, rep.argmax_rect) == rep.sup_constant


def _constant_and_value(kind, shape):
    """The constant over (family, basis) and the value on one member, for one kind."""
    u, v, w = (rand_weight(shape, seed) for seed in (11, 12, 13))
    if kind == "ap":
        return (lambda fam, basis: ap_constant(u, 2.5, basis, fam),
                lambda rect: ap_value(u, 2.5, rect))
    if kind == "power_bump":
        sys = WeightSystem(u, (v, w), 1.5, (3.0, 3.0))
        return (lambda fam, basis: power_bump_constant(sys, 1.25, fam, basis),
                lambda rect: power_bump_value(sys, 1.25, rect))
    phi = PowerLog(2.0, 1.0) if kind == "bump" else complementary(Power(1.5))
    return (lambda fam, basis: bump_constant(u, v, phi, 2.0, fam, basis),
            lambda rect: bump_value(u, v, phi, 2.0, rect))


@pytest.mark.parametrize("kind", ["ap", "power_bump", "bump", "bump_complement"])
@pytest.mark.parametrize("shape", [(13,), (7, 6), (3, 3, 4)])
@pytest.mark.parametrize("basis", [Basis(), Basis(CUBES), Basis(DYADIC)], ids=lambda b: b.kind)
@pytest.mark.parametrize("fam", [RectFamilySpec(mode="exhaustive"), FAM], ids=lambda f: f.mode)
def test_constant_matches_value_loop(kind, shape, basis, fam):
    # the per-shape evaluation must reproduce the per-member values bit for bit
    constant, value = _constant_and_value(kind, shape)
    rep = constant(fam, basis)
    rects = fam.members(shape, basis)
    vals = [value(r) for r in rects]
    best = int(np.argmax(vals))
    assert rep.sup_constant == vals[best] == value(rep.argmax_rect)
    assert rep.argmax_rect == rects[best]
    assert rep.samples_evaluated == len(rects)


W = rand_weight((6, 6), seed=30)
HOLE = W.with_values(np.where(np.arange(36).reshape(6, 6) == 7, 0.0, W.values))
SYS = WeightSystem(W, (W,), 2.0, (2.0,))


@pytest.mark.parametrize("error, constant, value, args", [
    pytest.param(ValueError, ap_constant, ap_value, (W, 1.0), id="ap-p1"),
    pytest.param(ValueError, ap_constant, ap_value, (W, 0.5), id="ap-p0.5"),
    pytest.param(ValueError, ap_constant, ap_value, (HOLE, 2.0), id="ap-zero-cell"),
    pytest.param(ValueError, power_bump_constant, power_bump_value, (SYS, 1.0), id="pb-r1"),
    pytest.param(ValueError, power_bump_constant, power_bump_value, (SYS, 0.5), id="pb-r0.5"),
    pytest.param(ValueError, bump_constant, bump_value, (W, W, Power(2.0), 1.0), id="bump-p1"),
    pytest.param(ValueError, bump_constant, bump_value,
                 (W.with_values(np.zeros((6, 6))), W, Power(2.0), 2.0), id="bump-u-zero"),
    pytest.param(ValueError, bump_constant, bump_value, (W, HOLE, Power(2.0), 2.0),
                 id="bump-v-zero-cell"),
    pytest.param(GeometryMismatch, bump_constant, bump_value,
                 (W, rand_weight((6, 7), seed=31), Power(2.0), 2.0), id="bump-grids"),
])
def test_value_rejects_what_constant_rejects(error, constant, value, args):
    with pytest.raises(error):
        constant(*args, family=FAM)
    with pytest.raises(error):
        value(*args, Rect((1, 1), (3, 4)))


@pytest.mark.parametrize("rect", [Rect((4, 1), (7, 3)), Rect((0,), (2,)),
                                  Rect((0, 0, 0), (1, 1, 1))], ids=str)
def test_value_rejects_rect_outside_grid(rect):
    for value in (lambda: ap_value(W, 2.0, rect),
                  lambda: power_bump_value(SYS, 1.5, rect),
                  lambda: bump_value(W, W, Power(2.0), 2.0, rect),
                  lambda: sawyer_value(W, W, 2.0, rect),
                  lambda: condition_A_value(W, 0.5, [rect])):
        with pytest.raises(GeometryMismatch):
            value()


@pytest.mark.parametrize("mode", ["auto", "exhaustive", "stratified"])
def test_family_of_basis_without_members_names_basis_and_grid(mode):
    w = rand_weight((8, 8), seed=32)
    with pytest.raises(ValueError, match=r"'min_side': 9.*\(8, 8\)"):
        ap_constant(w, 2.0, Basis(min_side=9), RectFamilySpec(mode=mode))


def test_bump_geometry_check():
    u = rand_weight((8, 8), seed=7)
    v = rand_weight((8, 9), seed=8)
    with pytest.raises(GeometryMismatch):
        bump_constant(u, v, Power(2.0), 2.0, FAM)


def test_ap_constant_weight_is_exactly_one():
    w = grid(np.full((16, 16), 3.7))
    rep = ap_constant(w, 2.0, family=RectFamilySpec(mode="stratified", count=64, seed=0))
    assert rep.sup_constant == 1.0


def test_ap_at_least_one():
    w = rand_weight((16, 16), seed=9)
    rep = ap_constant(w, 2.0, family=FAM)
    assert rep.sup_constant >= 1.0


def test_ap_self_dual_at_p_two():
    # swapping w for 1/w swaps the two factors when p = p'
    w = rand_weight((12, 12), seed=10)
    a = ap_constant(w, 2.0, family=FAM).sup_constant
    b = ap_constant(w.with_values(1.0 / w.values), 2.0, family=FAM).sup_constant
    assert a == pytest.approx(b, rel=1e-12)


def test_ap_cube_basis_restricts_family():
    w = rand_weight((12, 12), seed=11)
    rep = ap_constant(w, 2.0, basis=Basis(CUBES), family=FAM)
    assert len(set(rep.argmax_rect.sides())) == 1


def test_weight_system_exponent_identity():
    nu = rand_weight((8, 8), seed=12)
    w1 = rand_weight((8, 8), seed=13)
    w2 = rand_weight((8, 8), seed=14)
    sys = WeightSystem(nu, (w1, w2), 1.5, (3.0, 3.0))
    assert sys.m == 2
    with pytest.raises(ValueError):
        WeightSystem(nu, (w1, w2), 2.0, (3.0, 3.0))


def test_power_bump_single_factor_formula():
    nu = rand_weight((10, 10), seed=15)
    w = rand_weight((10, 10), seed=16)
    sys = WeightSystem(nu, (w,), 2.0, (2.0,))
    r = Rect((2, 3), (7, 9))
    got = power_bump_value(sys, 1.5, r)
    pc = 2.0  # conjugate of p1 = 2
    sl = r.slices
    want = nu.values[sl].mean() * (w.values[sl] ** ((1 - pc) * 1.5)).mean() ** (
        2.0 / (pc * 1.5))
    assert got == pytest.approx(want, rel=1e-12)


def test_power_bump_value_near_float_max():
    # nu summed over the grid passes the float range, so its table is scaled
    nu = rand_weight((8, 8), seed=28, lo=5e306, hi=1e307)
    w = rand_weight((8, 8), seed=29)
    assert SummedAreaTable(nu).exponent > 0
    sys = WeightSystem(nu, (w,), 2.0, (2.0,))
    r = Rect((1, 0), (8, 6))
    sl = r.slices
    mean_nu = np.ldexp(np.ldexp(nu.values[sl], -8).mean(), 8)
    want = mean_nu * (w.values[sl] ** (-1.5)).mean() ** (2.0 / 3.0)
    assert np.isfinite(want)
    assert power_bump_value(sys, 1.5, r) == pytest.approx(want, rel=1e-12)
    rep = power_bump_constant(sys, 1.5, RectFamilySpec(mode="exhaustive"))
    assert power_bump_value(sys, 1.5, rep.argmax_rect) == rep.sup_constant


def test_power_bump_constant_runs_multilinear():
    nu = rand_weight((10, 10), seed=17)
    w1 = rand_weight((10, 10), seed=18)
    w2 = rand_weight((10, 10), seed=19)
    sys = WeightSystem(nu, (w1, w2), 1.5, (3.0, 3.0))
    rep = power_bump_constant(sys, 1.25, FAM)
    assert rep.sup_constant > 0
    assert rep.samples_evaluated == len(FAM.members((10, 10)))


def test_sawyer_homogeneity_in_u():
    u = rand_weight((10, 10), seed=20)
    v = rand_weight((10, 10), seed=21)
    q = Rect((1, 1), (7, 7))
    base = sawyer_value(u, v, 2.0, q)
    tripled = sawyer_value(u.with_values(3.0 * u.values), v, 2.0, q)
    assert tripled == pytest.approx(9.0 * base, rel=1e-12)


def test_sawyer_constant_witness():
    u = rand_weight((10, 10), seed=22)
    v = rand_weight((10, 10), seed=23)
    fam = RectFamilySpec(mode="stratified", count=32, seed=2)
    rep = sawyer_constant(u, v, 2.0, fam)
    q = rep.argmax_rect
    assert sawyer_value(u, v, 2.0, q) == rep.sup_constant
    assert len(set(q.sides())) == 1  # testing condition runs over cubes


def test_condition_a_single_rect_is_at_least_one():
    # the level set of M chi_E at lambda < 1 contains E itself
    w = rand_weight((12, 12), seed=24)
    val = condition_A_value(w, 0.5, [Rect((2, 2), (6, 6))])
    assert val >= 1.0


def test_condition_a_estimate_witness():
    w = rand_weight((12, 12), seed=25)
    rep = condition_A_estimate(w, 0.5, SetSamplerSpec(count=32, seed=3))
    rects = [Rect(tuple(r["lo"]), tuple(r["hi"])) for r in rep.extra["witness_set"]]
    assert condition_A_value(w, 0.5, rects) == rep.sup_constant


def test_condition_a_needs_interior_lambda():
    w = rand_weight((8, 8), seed=26)
    with pytest.raises(ValueError):
        condition_A_estimate(w, 1.5, SetSamplerSpec(count=4, seed=0))


@pytest.mark.parametrize("shape", [(1,), (7,), (16, 16), (3, 40), (5, 4, 3)], ids=str)
def test_set_sampler_draws_the_sides_of_its_log_uniform_formula(shape):
    # the sides were once drawn as clip(exp(U(0, log(e + 1))), 1, e): the
    # same rng calls and the same sets as _log_uniform_index + 1
    for seed in range(5):
        spec = SetSamplerSpec(count=16, max_rects=4, seed=seed)
        rng = np.random.default_rng(seed)
        want = []
        for _ in range(spec.count):
            rects = []
            for _ in range(int(rng.integers(1, spec.max_rects + 1))):
                sides = tuple(int(np.clip(np.exp(rng.uniform(0.0, np.log(e + 1.0))), 1, e))
                              for e in shape)
                lo = tuple(int(rng.integers(0, e - s + 1)) for e, s in zip(shape, sides))
                rects.append(Rect(lo, tuple(a + s for a, s in zip(lo, sides))))
            want.append(rects)
        assert spec.sets(shape) == want, seed
