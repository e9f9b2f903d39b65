"""Check that two checkouts give the same Orlicz fields and provenance, byte for byte.

    python3 tools/same_bytes.py ../parent .

Imports `src/orliczmax` of each checkout under its own package name (as
`tools/ab_inprocess.py` does) and calls `maximal._orlicz_field` of each on
one case list, with prune on and off: every shape, basis, input and Young
function below, four bilinear pairs per shape and basis, and the
overflow, budget and tol = 0 error cases. A case's record is the sha1 of
the field's bytes and its provenance as sorted-key JSON, or of the
exception's type and message. Prints the case count, the number equal,
the first differing labels and each side's sha1 over all records. Then
it runs the command line's `verify` in process on each side, for every
suite of VERIFY_SUITES at every seed of VERIFY_SEEDS (a config of only
that seed, read from one path both sides share), and compares the exit
code and the stdout text, byte for byte; it prints the run count, the
number equal and the first differing runs. It exits 1 on any difference.
Standard library and numpy only.
"""

import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from ab_inprocess import load

SIDES = ("parent", "change")
SEED = 1
SHAPES = [(9,), (40,), (7, 6), (12, 12), (13, 11), (20, 17), (5, 4, 3), (6, 5, 4)]
TOL = 1e-9
SHOWN = 10  # differing labels printed
VERIFY_SUITES = ("t2", "t12", "holder", "covering", "counterexample")
VERIFY_SEEDS = (0, 1, 7)


def bases(om) -> dict:
    return {"rect": om.Basis(), "cube": om.Basis(om.CUBES), "dyadic": om.Basis(om.DYADIC),
            "max_side=2": om.Basis(max_side=2), "min_side=30": om.Basis(min_side=30)}


def inputs(shape: tuple[int, ...]) -> dict:
    """Seeded value arrays of one shape, the same for both sides."""
    rng = np.random.default_rng(SEED)
    logn = np.exp(rng.standard_normal(shape))
    step = np.where(np.indices(shape)[0] < shape[0] // 2, 1.0, 4.0)
    return {"lognormal": logn,
            "zero-heavy": np.where(rng.random(shape) < 0.7, 0.0, logn),
            "step": step,
            "two-valued": np.where(rng.random(shape) < 0.4, 2.5, 0.0),
            "all-zero": np.zeros(shape)}


def phis(om) -> dict:
    return {"PowerLog(1.8,1)": om.PowerLog(1.8, 1.0),
            "PowerLogLog(2,1.5,1.5)": om.PowerLogLog(2.0, 1.5, 1.5),
            **{f"complement(Power({r:g}))": om.complementary(om.Power(r))
               for r in (1.5, 3.0, 1.1)},
            "Power(2,cap=10)": om.Power(2.0, domain_cap=10.0),
            **{f"Power({r:g})": om.Power(r) for r in (1.0, 2.0, 2.5)}}


# (input, Young function) per factor of a bilinear case
PAIRS = [(("lognormal", "PowerLog(1.8,1)"), ("zero-heavy", "PowerLog(1.8,1)")),
         (("lognormal", "Power(2)"), ("step", "Power(2)")),
         (("lognormal", "Power(1)"), ("two-valued", "Power(1)")),
         (("step", "complement(Power(1.5))"), ("lognormal", "PowerLogLog(2,1.5,1.5)"))]


def cases(om):
    """(label, call) for every case, the call taking no argument."""
    grid = om.GridFunction
    young = phis(om)
    for shape in SHAPES:
        fs = {k: grid(shape, (0.0,) * len(shape), (1.0,) * len(shape), v)
              for k, v in inputs(shape).items()}
        for bname, basis in bases(om).items():
            for prune in (True, False):
                where = f"{shape} {bname} prune={prune}"
                for fname, f in fs.items():
                    for pname, phi in young.items():
                        yield (f"{where} {fname} {pname}",
                               lambda f=f, phi=phi, basis=basis, prune=prune:
                               om.maximal._orlicz_field([f], [phi], basis, om.DEFAULT_BUDGET,
                                                        TOL, prune))
                for i, pair in enumerate(PAIRS):
                    yield (f"{where} bilinear {i}",
                           lambda pair=pair, fs=fs, basis=basis, prune=prune:
                           om.maximal._orlicz_field([fs[k] for k, _ in pair],
                                                    [young[p] for _, p in pair], basis,
                                                    om.DEFAULT_BUDGET, TOL, prune))
    big = grid((24, 24), (0.0, 0.0), (1.0, 1.0), inputs((24, 24))["lognormal"] * 1e200)
    small = grid((12, 12), (0.0, 0.0), (1.0, 1.0), inputs((12, 12))["lognormal"])
    log = young["PowerLog(1.8,1)"]
    yield ("error overflow", lambda: om.multilinear_orlicz_maximal([big, big], [log, log]))
    yield ("error budget", lambda: om.orlicz_maximal(small, log, budget=10))
    yield ("error tol=0", lambda: om.orlicz_maximal(small, log, tol=0.0))


def record(call) -> str:
    """sha1 of a call's field bytes and sorted provenance, or of its exception."""
    h = hashlib.sha1()
    try:
        result = call()
    except Exception as exc:  # the error is the output under comparison
        h.update(f"{type(exc).__name__}: {exc}".encode())
    else:
        h.update(np.ascontiguousarray(result.field.values).tobytes())
        h.update(json.dumps(result.provenance, sort_keys=True).encode())
    return h.hexdigest()


def verify_runs(om, configs: dict[int, str]) -> list[tuple[str, str]]:
    """(label, exit code and stdout) of `verify` for every suite and seed."""
    cli = importlib.import_module(f"{om.__name__}.cli")
    runs = []
    for suite in VERIFY_SUITES:
        for seed, path in configs.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(["verify", "--suite", suite, "--config", path])
            runs.append((f"verify {suite} seed={seed}", f"{rc}\n{out.getvalue()}"))
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_bytes.py PARENT CHANGE", file=sys.stderr)
        return 2
    runs, verified = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        configs = {}
        for seed in VERIFY_SEEDS:
            configs[seed] = str(Path(tmp) / f"seed-{seed}.json")
            Path(configs[seed]).write_text(json.dumps({"seed": seed}))
        for side, checkout in zip(SIDES, argv):
            om = load(Path(checkout).resolve(), f"orliczmax_{side}")
            runs[side] = [(label, record(call)) for label, call in cases(om)]
            verified[side] = verify_runs(om, configs)
    labels = [label for label, _ in runs["parent"]]
    differ = [label for (label, a), (_, b) in zip(runs["parent"], runs["change"]) if a != b]
    print(f"cases: {len(labels)}")
    print(f"equal: {len(labels) - len(differ)}")
    for side in SIDES:
        total = hashlib.sha1("".join(r for _, r in runs[side]).encode()).hexdigest()
        print(f"{side} sha1: {total}")
    for label in differ[:SHOWN]:
        print(f"differs: {label}")
    vdiffer = [label for (label, a), (_, b) in zip(verified["parent"], verified["change"])
               if a != b]
    print(f"verify runs: {len(verified['parent'])}")
    print(f"verify equal: {len(verified['parent']) - len(vdiffer)}")
    for label in vdiffer[:SHOWN]:
        print(f"differs: {label}")
    return 1 if differ or vdiffer else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
