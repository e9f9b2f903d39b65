"""Run one orliczmax benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload strong_field --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
./src. The run sets up (import, Young functions, inputs) several times and
reports the median, runs one untimed warm-up op, then runs whole rounds
over the workload's input pool, one op after another in this one thread,
until --seconds have passed. Every output is then checked and compared
byte for byte with the other outputs of the same input, the warm-up's
among them. With --trace 1 the public functions of each module are
wrapped before the timed rounds and per-layer metrics are reported
instead of the end-to-end ones; spans go to .bench_out/.
"""

import os

# one thread for every numeric library, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11


def timed_setup(wl, seed: int, scratch: str):
    """One set-up: import orliczmax afresh, then build the workload's state.

    Returns (seconds, package, state).
    """
    t0 = time.perf_counter()
    for name in [m for m in sys.modules if m == "orliczmax" or m.startswith("orliczmax.")]:
        del sys.modules[name]
    om = importlib.import_module("orliczmax")
    state = wl.setup(om, seed, scratch)
    return time.perf_counter() - t0, om, state


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "orliczmax" / "__init__.py").is_file():
        print(f"no orliczmax sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    # imports after the first read bytecode cached in the run's own scratch
    # directory, whatever PYTHONDONTWRITEBYTECODE says and whatever
    # __pycache__ the checkout holds
    sys.dont_write_bytecode = False
    sys.pycache_prefix = os.path.join(scratch, "pycache")
    try:
        return run(wl, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(wl, args, scratch: str) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, om, state = timed_setup(wl, args.seed, scratch)
        setups.append(seconds)

    try:
        warm = wl.op(om, state, 0)
    except Exception:  # the timed ops will fail the same way and be counted
        warm = None
        print(f"warm-up op raised:\n{traceback.format_exc()}", file=sys.stderr)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(sys.modules)

    seen: dict[int, tuple] = {}  # pool index -> (first output, its bytes)
    ops: list[tuple[int, bool]] = []  # (pool index, ran and repeated its bytes)
    problems: list[str] = []
    times, cpus = [], []
    t_start = time.perf_counter()
    while True:
        for k in range(wl.pool):
            if tracer is not None:
                tracer.current_op = len(ops)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = wl.op(om, state, k)
            except Exception:  # a failing op is counted and the run goes on
                out = None
                problems.append(f"op on input {k} raised:\n{traceback.format_exc()}")
            times.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            ok = out is not None
            if ok:
                digest = wl.digest(out)
                seen.setdefault(k, (out, digest))
                if digest != seen[k][1]:
                    ok = False
                    problems.append(f"input {k}: output differs between rounds")
                if tracer is not None:
                    tracer.counts["cli.out_bytes"] += wl.out_bytes(out)
            ops.append((k, ok))
        if time.perf_counter() - t_start >= args.seconds:
            break
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(ops)
    if tracer is not None:
        tracer.active = False
        metrics = tracer.metrics(attempted)
        metrics["proc.cpu_s"] = (sum(cpus) / attempted, "s/op")
        metrics["proc.wait_s"] = ((sum(times) - sum(cpus)) / attempted, "s/op")
        tracer.save(str(OUT / f"trace-{wl.name}-seed{args.seed}.npz"))

    # an input fails when the warm-up's bytes differ from the first timed
    # op's, or when its output fails a check; every op on it fails with it
    bad_inputs = set()
    if 0 in seen and (warm is None or wl.digest(warm) != seen[0][1]):
        problems.append("warm-up output differs from the first timed op on the same input")
        bad_inputs.add(0)
    for k, (out, _) in sorted(seen.items()):
        found = wl.check(om, state, k, out)
        problems += [f"input {k}: {p}" for p in found]
        if found:
            bad_inputs.add(k)
    failed = sum(1 for k, ok in ops if not ok or k in bad_inputs)
    for p in dict.fromkeys(problems):  # an op that raises every round is reported once
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    # as many set-ups again, half a minute after the first ones, so that
    # the median spans the run instead of one second of it
    setups += [timed_setup(wl, args.seed, scratch)[0] for _ in range(SETUP_REPEATS)]

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (attempted / wall, "ops/s"),
            "op_s_p50": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
