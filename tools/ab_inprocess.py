"""Time two checkouts' maximal sweeps in one process, alternating call by call.

    python3 tools/ab_inprocess.py --parent ../parent --change . --rounds 20

Imports `src/orliczmax` of each checkout under its own package name
(`orliczmax_parent`, `orliczmax_change`), builds each case's grids once
(lognormal values, exp(N(0, 1)), from a fixed seed) and checks that both
sides give the same field bytes. Then, for every round and every case, it
times one batch of calls on each side; the side that goes first alternates
from round to round, so slow drift of the machine falls on both alike. A
batch repeats the call enough times to take about BATCH_S on the parent,
the same count on both sides. It prints, per case, each side's
median and minimum time per call, the change/parent ratio of the medians
and of the minima, and the rounds the change won; --out also writes them
as JSON. Standard library and numpy only.
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

import numpy as np

SIDES = ("parent", "change")
SEED = 1
BATCH_S = 0.02  # wall time of one batch of calls on the parent


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


# name -> builder: given a package, the call to time, its inputs built once
CASES = {
    "strong 6x6": strong((6, 6)),
    "strong 8x8": strong((8, 8)),
    "strong 12x12": strong((12, 12)),
    "strong 16x16": strong((16, 16)),
    "strong 32x32": strong((32, 32)),
    "strong 16^3": strong((16, 16, 16)),
    "strong 96x96": strong((96, 96)),
    "bilinear 64x64": bilinear((64, 64)),
    "strong 128x128": strong((128, 128)),
    "orlicz 12x12": orlicz((12, 12)),
    # the per-shape pass: cube bases and 1-D grids
    "cubes 16^3": cubes((16, 16, 16)),
    "cubes 24x24": cubes((24, 24)),
    "strong 1000": strong((1000,)),
    "strong 3000": strong((3000,)),
}


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
        calls[case] = {side: CASES[case](packages[side]) for side in SIDES}
        fields = {side: calls[case][side]().field.values.tobytes() for side in SIDES}
        if fields["parent"] != fields["change"]:
            print(f"{case}: the fields differ", file=sys.stderr)
            return 1
        once = timed(calls[case]["parent"], 1)
        reps[case] = max(1, round(BATCH_S / once))

    times = {case: {side: [] for side in SIDES} for case in args.cases}
    for r in range(args.rounds):
        for case in args.cases:
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                times[case][side].append(timed(calls[case][side], reps[case]))

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    result = {"rounds": args.rounds, "cores": cores, "python": platform.python_version(),
              "numpy": np.__version__, "seed": SEED, "cases": {}}
    print(f"{'case':<16} {'parent med/min ms':>19} {'change med/min ms':>19} "
          f"{'ratio med':>9} {'ratio min':>9} {'won':>7}")
    for case in args.cases:
        t = times[case]
        med = {side: statistics.median(t[side]) for side in SIDES}
        low = {side: min(t[side]) for side in SIDES}
        won = sum(c < p for p, c in zip(t["parent"], t["change"]))
        result["cases"][case] = {"calls_per_batch": reps[case], "median_s": med, "min_s": low,
                                 "ratio_median": med["change"] / med["parent"],
                                 "ratio_min": low["change"] / low["parent"], "rounds_won": won}
        print(f"{case:<16} {med['parent'] * 1e3:9.3f}/{low['parent'] * 1e3:<9.3f} "
              f"{med['change'] * 1e3:9.3f}/{low['change'] * 1e3:<9.3f} "
              f"{med['change'] / med['parent']:9.3f} {low['change'] / low['parent']:9.3f} "
              f"{won:>3}/{args.rounds}")
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
