"""Time two checkouts' maximal sweeps in one process, alternating call by call.

    python3 tools/ab_inprocess.py --parent ../parent --change . --rounds 20

Imports `src/orliczmax` of each checkout under its own package name
(`orliczmax_parent`, `orliczmax_change`), builds each case's inputs once
(lognormal values, exp(N(0, 1)), from a fixed seed, unless the case says
otherwise) and checks both sides' outputs against the relative difference
the case allows: the same bytes where it is 0, else the same zero cells
and at most that difference elsewhere. Then, for every round and every
case, it times one batch of calls on each side; the side that goes first
alternates from round to round, so slow drift of the machine falls on
both alike. A batch repeats the call enough times to take about BATCH_S
on the parent, or SHORT_BATCH_S for a case whose call takes under
SHORT_CALL_S there (a batch of a few milliseconds cannot resolve it), the
same count on both sides. It prints, per case, each side's median and
minimum time per call, the change/parent ratio of the medians and of the
minima, and the rounds the change won; --out also writes them as JSON,
with each case's allowed difference. Standard library and numpy only.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

SIDES = ("parent", "change")
SEED = 1
BATCH_S = 0.02  # wall time of one batch of calls on the parent
SHORT_CALL_S = 1e-3  # calls shorter than this on the parent...
SHORT_BATCH_S = 0.1  # ...take batches of at least this long


def load(checkout: Path, name: str):
    """The checkout's src/orliczmax, imported as the package name."""
    root = checkout / "src" / "orliczmax"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def grids(om, shape: tuple[int, ...], count: int) -> list:
    rng = np.random.default_rng(SEED)
    n = len(shape)
    return [om.GridFunction(shape, (0.0,) * n, (8.0 / max(shape),) * n,
                            np.exp(rng.standard_normal(shape))) for _ in range(count)]


def strong(shape):
    return lambda om: (lambda g=grids(om, shape, 1)[0]: om.strong_maximal(g))


def cubes(shape):
    return lambda om: (lambda g=grids(om, shape, 1)[0], basis=om.Basis(om.CUBES):
                       om.strong_maximal(g, basis))


def bilinear(shape):
    return lambda om: (lambda gs=grids(om, shape, 2): om.multilinear_maximal(gs))


def orlicz(shape):
    return lambda om: (lambda g=grids(om, shape, 1)[0], phi=om.PowerLog(1.8, 1.0):
                       om.orlicz_maximal(g, phi))


def complement(shape):
    return lambda om: (lambda g=grids(om, shape, 1)[0], phi=om.complementary(om.Power(1.5)):
                       om.orlicz_maximal(g, phi))


def indicator(res):
    """The ProbeSuite's first indicator draw (seed 0) under PowerLog(1.8, 1)."""
    return lambda om: (lambda g=om.ProbeSuite(seed=0, resolutions=(res,)).functions(res)[0][1],
                       phi=om.PowerLog(1.8, 1.0): om.orlicz_maximal(g, phi))


def counterexample(om):
    return om.counterexample_divergence


def condition_a(om):
    """condition_A_estimate over 64 sets of a 6x6 weight, as the t12 suite's
    certificate takes it: the constant and its witness set's corners."""
    w = grids(om, (6, 6), 1)[0]
    spec = om.SetSamplerSpec(count=64, seed=SEED)

    def call():
        rep = om.condition_A_estimate(w, 0.5, spec)
        corners = [c for r in rep.extra["witness_set"] for c in r["lo"] + r["hi"]]
        return np.array([rep.sup_constant, *corners], dtype=float)
    return call


def inverse_tabulated(om):
    """inverse of the counterexample suite's table at the 41,905 products
    y_i y_j, i <= j, of its mesh at T = 256."""
    phi = om.tabulate(lambda t: t ** 2 / np.log1p(t) ** 1.5, 0.5, 1e7, points_per_decade=400)
    y = np.geomspace(4.0, 256.0, int(np.log10(256.0 / 4.0) * 160))
    i, j = np.triu_indices(y.size)
    return lambda: om.inverse(phi, y[i] * y[j])


def tabulated_eval(om):
    """Phi of the counterexample suite's table at 200k log-uniform points
    in [0.1, 1e8]."""
    phi = om.tabulate(lambda t: t ** 2 / np.log1p(t) ** 1.5, 0.5, 1e7, points_per_decade=400)
    t = np.exp(np.random.default_rng(SEED).uniform(np.log(0.1), np.log(1e8), 200_000))
    return lambda: phi.eval(t)


def complement_eval(om):
    """NumericComplement.eval of Power(1.5)'s conjugate at 16k lognormal points."""
    phi = om.complementary(om.Power(1.5))
    s = np.exp(np.random.default_rng(SEED).standard_normal(1 << 14))
    return lambda: phi.eval(s)


def holder(om):
    """The holder suite's norms at 4000 triples: 100 rows of |N(0, 1)| draws
    in each of 40 sizes from 2 to 64, f and g apart, and per family one
    luxemburg_batch of the f rows under Phi and one of the g rows under
    its complement."""
    rng = np.random.default_rng(SEED)
    sizes = rng.integers(2, 65, size=40)
    fmats, gmats = ([np.abs(rng.standard_normal((100, n))) for n in sizes] for _ in range(2))
    solves = [(mats, young) for phi in (om.Power(1.5), om.Power(2.0), om.PowerLog(1.8, 1.0))
              for mats, young in ((fmats, phi), (gmats, om.complementary(phi)))]
    return lambda: np.concatenate([om.luxemburg_batch(mats, young) for mats, young in solves])


class Case(NamedTuple):
    build: Callable  # given a package, the call to time, its inputs built once
    rel: float     # relative difference allowed between the two sides' outputs


# A case where one side may solve what the other answers in closed form
# allows a difference: the solver's tol of 1e-9 for an indicator, both
# sides lying within it above the norm; and for the complement of
# Power(1.5), read as c t^3, that tol plus a third of the numeric table's
# error of 2.3e-9. The solver case allows its tol too: a solver that
# certifies G <= 1 on the rounded sum of the Phi values, not the exact
# one, ends some rows on another float of the same bracket; so does the
# holder case, whose power rows one side may start at their closed form.
# An inverse certifies t in (t*/(1 + tol), t*] about the exact t*, so two
# sides that start their brackets apart (one at a closed form) differ by
# at most tol = 1e-10: the inverse case allows that. In the
# counterexample each side's partial integral of t**-p then lies in
# [I*, I* (1 + p tol)), and an increment I(2T) - I(T) moves by at most
# p tol I(2T), which relative to the increment is largest for the
# control at T = 128: I(256) / (I(256) - I(128)) is about
# (1/4 - 1/256)**2 / 0.00191 < 32, so p = 2 gives 2 * 1e-10 * 32.
# Two sides may evaluate a table's Phi by different formulas (a power law
# per piece, or exp of the log-log interpolant), which round apart by up
# to 6.1e-15 relative on the counterexample's table: the tabulated eval
# case allows 1e-14.
# Every other case demands the same bytes.
CASES = {
    "strong 6x6": Case(strong((6, 6)), 0.0),
    "strong 8x8": Case(strong((8, 8)), 0.0),
    "strong 12x12": Case(strong((12, 12)), 0.0),
    "strong 16x16": Case(strong((16, 16)), 0.0),
    "strong 32x32": Case(strong((32, 32)), 0.0),
    "strong 16^3": Case(strong((16, 16, 16)), 0.0),
    "strong 96x96": Case(strong((96, 96)), 0.0),
    "bilinear 64x64": Case(bilinear((64, 64)), 0.0),
    "strong 128x128": Case(strong((128, 128)), 0.0),
    "orlicz 8x8": Case(orlicz((8, 8)), 1e-9),
    "orlicz 12x12": Case(orlicz((12, 12)), 1e-9),
    # the first Orlicz walks past one search block (_SEARCH_BLOCK members)
    "orlicz 32x32": Case(orlicz((32, 32)), 1e-9),
    "orlicz 64x64": Case(orlicz((64, 64)), 1e-9),
    # the per-shape pass: cube bases and 1-D grids
    "cubes 16^3": Case(cubes((16, 16, 16)), 0.0),
    "cubes 24x24": Case(cubes((24, 24)), 0.0),
    "strong 1000": Case(strong((1000,)), 0.0),
    "strong 3000": Case(strong((3000,)), 0.0),
    "complement 8x8": Case(complement((8, 8)), 1e-9 + 2.3e-9 / 3),
    "indicator 64x64": Case(indicator(64), 1e-9),
    "counterexample": Case(counterexample, 2 * 1e-10 * 32),
    "inverse tabulated": Case(inverse_tabulated, 1e-10),
    "tabulated eval": Case(tabulated_eval, 1e-14),
    "condition A 6x6": Case(condition_a, 0.0),
    "complement eval 16k": Case(complement_eval, 0.0),
    "holder": Case(holder, 1e-9),
}


def output(result) -> np.ndarray:
    """The numbers a call returns: an array, a maximal field, or the
    increments of counterexample_divergence."""
    if isinstance(result, np.ndarray):
        return result
    if isinstance(result, dict):
        return np.array(result["increments"] + result["control_increments"])
    return result.field.values


def differs(parent: np.ndarray, change: np.ndarray, rel: float) -> bool:
    if rel == 0.0:
        return parent.tobytes() != change.tobytes()
    if not np.array_equal(parent == 0, change == 0):
        return True
    live = parent != 0
    return bool(np.any(np.abs(change[live] - parent[live]) > rel * np.abs(parent[live])))


def timed(call, reps: int) -> float:
    """Seconds per call over one batch of reps calls."""
    start = time.perf_counter()
    for _ in range(reps):
        call()
    return (time.perf_counter() - start) / reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--rounds", type=int, default=20, help="timed rounds per case")
    ap.add_argument("--cases", nargs="*", choices=sorted(CASES), default=list(CASES),
                    help="cases to run, all by default")
    ap.add_argument("--out", type=Path, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    packages = {side: load(getattr(args, side), f"orliczmax_{side}") for side in SIDES}

    calls, reps = {}, {}
    for case in args.cases:
        calls[case] = {side: CASES[case].build(packages[side]) for side in SIDES}
        outs = {side: output(calls[case][side]()) for side in SIDES}
        if differs(outs["parent"], outs["change"], CASES[case].rel):
            print(f"{case}: the outputs differ by more than {CASES[case].rel:g} relative",
                  file=sys.stderr)
            return 1
        once = timed(calls[case]["parent"], 1)
        reps[case] = max(1, round((SHORT_BATCH_S if once < SHORT_CALL_S else BATCH_S) / once))

    times = {case: {side: [] for side in SIDES} for case in args.cases}
    for r in range(args.rounds):
        for case in args.cases:
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                times[case][side].append(timed(calls[case][side], reps[case]))

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    result = {"rounds": args.rounds, "cores": cores, "python": platform.python_version(),
              "numpy": np.__version__, "seed": SEED, "cases": {}}
    print(f"{'case':<20} {'parent med/min ms':>19} {'change med/min ms':>19} "
          f"{'ratio med':>9} {'ratio min':>9} {'won':>7}")
    for case in args.cases:
        t = times[case]
        med = {side: statistics.median(t[side]) for side in SIDES}
        low = {side: min(t[side]) for side in SIDES}
        won = sum(c < p for p, c in zip(t["parent"], t["change"]))
        result["cases"][case] = {"rel_allowed": CASES[case].rel,
                                 "calls_per_batch": reps[case], "median_s": med, "min_s": low,
                                 "ratio_median": med["change"] / med["parent"],
                                 "ratio_min": low["change"] / low["parent"], "rounds_won": won}
        print(f"{case:<20} {med['parent'] * 1e3:9.3f}/{low['parent'] * 1e3:<9.3f} "
              f"{med['change'] * 1e3:9.3f}/{low['change'] * 1e3:<9.3f} "
              f"{med['change'] / med['parent']:9.3f} {low['change'] / low['parent']:9.3f} "
              f"{won:>3}/{args.rounds}")
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
