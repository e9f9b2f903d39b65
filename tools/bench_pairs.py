"""Compare two checkouts on the orliczmax benchmark by alternating pairs of runs.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_16.json

For each workload of the change checkout's `BENCHMARK.json`, pair i of PAIRS
runs `bench/run.py --workload W --seed S --seconds T --trace 0` once in each
checkout, S the i-th of SEEDS taken round robin and T the benchmark's
`run_seconds`; even pairs start with the parent and odd pairs with the
change, so slow drift of the machine falls on both sides alike. The metrics
are read from the JSON on the last line of each run's standard output. The
output file holds, per workload and metric, the median and the quartiles
over the runs of each side, and how many pairs the change won (by the
direction that `BENCHMARK.json` gives the metric), next to the seeds, the
pair count, the run length, the core count and the Python and numpy
versions. Standard library only; the checkouts' own interpreter environment
runs the benchmark.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
SEEDS = (1, 2, 3)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout; its last JSON line, or an error record."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the runs of one side."""
    if not values:
        return {"median": None, "q1": None, "q3": None}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def compare(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, the pairs the change won, the pairs."""
    names = sorted({m for pair in runs for side in SIDES
                    for m in pair[side].get("metrics", {})})
    out = {}
    for name in names:
        pairs = [[pair[side].get("metrics", {}).get(name, {}).get("value") for side in SIDES]
                 for pair in runs]
        whole = [(p, c) for p, c in pairs if p is not None and c is not None]
        units = {pair[side]["metrics"][name].get("unit") for pair in runs for side in SIDES
                 if name in pair[side].get("metrics", {})}
        entry = {"unit": units.pop() if len(units) == 1 else None,
                 "better": better.get(name),
                 "parent": summary([p for p, _ in whole]),
                 "change": summary([c for _, c in whole]),
                 "pairs_won": None, "pairs": pairs}
        if better.get(name) == "lower":
            entry["pairs_won"] = sum(c < p for p, c in whole)
        elif better.get(name) == "higher":
            entry["pairs_won"] = sum(c > p for p, c in whole)
        out[name] = entry
    return out


def numpy_version() -> str | None:
    proc = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    seconds = spec["run_seconds"]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

    result = {"pairs": PAIRS, "seeds": list(SEEDS), "seconds": seconds, "cores": cores,
              "python": platform.python_version(), "numpy": numpy_version(),
              "order": "even pairs run the parent first, odd pairs the change",
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(PAIRS):
            seed = SEEDS[i % len(SEEDS)]
            pair = {"seed": seed}
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                pair[side] = run_once(getattr(args, side), workload, seed, seconds)
                print(f"{workload} pair {i + 1}/{PAIRS} seed {seed} {side}: "
                      f"{json.dumps(pair[side].get('metrics', pair[side]))}",
                      file=sys.stderr, flush=True)
            runs.append(pair)
        result["workloads"][workload] = {
            "correct": {side: all(p[side].get("correct") is True for p in runs) for side in SIDES},
            "failed": {side: sum(p[side].get("failed", 0) for p in runs) for side in SIDES},
            "attempted": {side: sum(p[side].get("attempted", 0) for p in runs) for side in SIDES},
            "errors": [p[side]["error"] for p in runs for side in SIDES if "error" in p[side]],
            "metrics": compare(runs, better),
        }
        args.out.write_text(json.dumps(result, indent=1) + "\n")  # kept after each workload
    return 0


if __name__ == "__main__":
    sys.exit(main())
