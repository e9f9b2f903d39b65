"""Check that two checkouts give the same Orlicz fields, norms and reports, byte for byte.

    python3 tools/same_bytes.py ../parent .

Imports `src/orliczmax` of each checkout under its own package name (as
`tools/ab_inprocess.py` does) and runs one case list on each. It calls
`maximal._orlicz_field` with prune on and off: every shape, basis, input
and Young function below, four bilinear pairs per shape and basis, and
the overflow, budget and tol = 0 error cases. Under each of the solver
tests' Young functions (SOLVER_PHIS of `tests/conftest.py`) it calls
`luxemburg_batch` on one matrix and on a list of matrices of mixed row
lengths with all-zero and one-cell rows, each with and without hints,
and an exhaustive `bump_constant` on a 2-D and a 3-D grid, which solves
every member's norm through `grid._box_norms`. A case's record is the
sha1 of its output bytes (a field's bytes and its provenance as
sorted-key JSON, a norm array's bytes, a report as sorted-key JSON), or
of the exception's type and message. Prints the case count, the number equal,
the first differing labels and each side's sha1 over all records. Then
it runs the command line in process on each side: `verify` for every
suite of VERIFY_SUITES at every seed of VERIFY_SEEDS (a config of only
that seed), `young probe` of both kinds, `bp check` in both modes,
`weights test` of every kind, `covering demo` with and without a weight,
and `maximal` in the strong and the Orlicz form. Their input files are
written once, before either side runs, to one temporary directory, so
both sides read the same paths. It compares each run's exit code, its
stdout text and the bytes of the grid and sidecar that `maximal` writes;
it prints the run count, the number equal and the first differing runs.
It exits 1 on any difference.
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


def solver_phis(om) -> dict:
    """The Young functions of the solver tests (SOLVER_PHIS of tests/conftest.py)."""
    return {"Power(2)": om.Power(2.0), "PowerLog(1.8,1)": om.PowerLog(1.8, 1.0),
            "Tabulated": om.Tabulated([(0.5, 0.0), (1.0, 0.5), (2.0, 3.0), (8.0, 64.0)]),
            "complement(Power(1.5))": om.complementary(om.Power(1.5)),
            "Power(2,cap=10)": om.Power(2.0, domain_cap=10.0),
            "complement(PowerLog(2,1))": om.complementary(om.PowerLog(2.0, 1.0))}


def solver_rows() -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Matrices of 1 to 130 cells per row, each with an all-zero row, a
    half-zero row and rows of scales 1e-3 to 1e3 (one of them near
    1e-150, one near 1e150), and per row a low and a high hint about its
    maximum, some on the wrong side of the norm."""
    rng = np.random.default_rng(SEED)
    mats = []
    for length in (1, 2, 3, 8, 9, 17, 64, 130):
        rows = np.exp(rng.standard_normal((5, length))) * np.geomspace(1e-3, 1e3, 5)[:, None]
        rows[1] = 0.0
        rows[2, ::2] = 0.0
        mats.append(rows)
    mats[2][0] *= 1e-150
    mats[-2][3] *= 1e150
    top = np.concatenate([m.max(axis=1) for m in mats])
    return mats, top * rng.uniform(1e-3, 2.0, top.size), top * rng.uniform(0.5, 1e3, top.size)


# (input, Young function) per factor of a bilinear case
PAIRS = [(("lognormal", "PowerLog(1.8,1)"), ("zero-heavy", "PowerLog(1.8,1)")),
         (("lognormal", "Power(2)"), ("step", "Power(2)")),
         (("lognormal", "Power(1)"), ("two-valued", "Power(1)")),
         (("step", "complement(Power(1.5))"), ("lognormal", "PowerLogLog(2,1.5,1.5)"))]


def field_bytes(result) -> bytes:
    """A MaximalField's values and its provenance as sorted-key JSON."""
    return (np.ascontiguousarray(result.field.values).tobytes()
            + json.dumps(result.provenance, sort_keys=True).encode())


def cases(om):
    """(label, call) for every case, the call taking no argument and
    returning the bytes to compare."""
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
                               lambda f=f, phi=phi, basis=basis, prune=prune: field_bytes(
                                   om.maximal._orlicz_field([f], [phi], basis,
                                                            om.DEFAULT_BUDGET, TOL, prune)))
                for i, pair in enumerate(PAIRS):
                    yield (f"{where} bilinear {i}",
                           lambda pair=pair, fs=fs, basis=basis, prune=prune: field_bytes(
                               om.maximal._orlicz_field([fs[k] for k, _ in pair],
                                                        [young[p] for _, p in pair], basis,
                                                        om.DEFAULT_BUDGET, TOL, prune)))
    big = grid((24, 24), (0.0, 0.0), (1.0, 1.0), inputs((24, 24))["lognormal"] * 1e200)
    small = grid((12, 12), (0.0, 0.0), (1.0, 1.0), inputs((12, 12))["lognormal"])
    log = young["PowerLog(1.8,1)"]
    yield ("error overflow",
           lambda: field_bytes(om.multilinear_orlicz_maximal([big, big], [log, log])))
    yield ("error budget", lambda: field_bytes(om.orlicz_maximal(small, log, budget=10)))
    yield ("error tol=0", lambda: field_bytes(om.orlicz_maximal(small, log, tol=0.0)))
    mats, lo, hi = solver_rows()
    one = slice(len(lo) - len(mats[-1]), None)  # the hints of the last matrix's rows
    exhaustive = om.RectFamilySpec(mode="exhaustive")
    couples = [[grid(shape, (0.0,) * len(shape), (1.0,) * len(shape), a)
                for a in np.exp(np.random.default_rng(SEED + i).standard_normal((2,) + shape))]
               for i, shape in enumerate([(8, 7), (5, 4, 3)])]
    for pname, phi in solver_phis(om).items():
        for rows, label, hints in ((mats[-1], "matrix", (lo[one], hi[one])),
                                   (mats, "mixed matrices", (lo, hi))):
            yield (f"luxemburg_batch {label} {pname}",
                   lambda rows=rows, phi=phi: om.luxemburg_batch(rows, phi).tobytes())
            yield (f"luxemburg_batch {label} hinted {pname}",
                   lambda rows=rows, phi=phi, hints=hints:
                   om.luxemburg_batch(rows, phi, lo_hint=hints[0], hi_hint=hints[1]).tobytes())
        for u, v in couples:
            yield (f"bump_constant {u.shape} {pname}",
                   lambda u=u, v=v, phi=phi: json.dumps(
                       om.bump_constant(u, v, phi, 2.0, exhaustive).to_dict(),
                       sort_keys=True).encode())


def record(call) -> str:
    """sha1 of a call's output bytes, or of its exception."""
    try:
        return hashlib.sha1(call()).hexdigest()
    except Exception as exc:  # the error is the output under comparison
        return hashlib.sha1(f"{type(exc).__name__}: {exc}".encode()).hexdigest()


PHI = '{"kind": "power_log", "alpha": 1.8, "beta": 1.0}'


def cli_inputs(om, tmp: Path) -> list[tuple[str, list[str], Path | None]]:
    """Write the input files of the command-line runs to tmp and return
    (label, argv, the grid path `maximal` writes or None) for every run."""
    cli = importlib.import_module(f"{om.__name__}.cli")

    def path(name: str, content=None) -> str:
        if content is not None:
            (tmp / name).write_text(json.dumps(content))
        return str(tmp / name)

    grids = {}
    for seed, name in enumerate(("f", "u", "v", "w", "nu", "w1", "w2")):
        grids[name] = path(f"{name}.grid")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["gen", "--kind", "random", "--shape", "8,8", "--seed", str(seed),
                      "--out", grids[name]])
    runs = [(f"verify {suite} seed={seed}",
             ["verify", "--suite", suite, "--config", path(f"seed-{seed}.json", {"seed": seed})],
             None)
            for suite in VERIFY_SUITES for seed in VERIFY_SEEDS]
    runs += [(f"young probe {which}", ["young", "probe", "--phi", PHI, "--which", which], None)
             for which in ("doubling", "submultiplicative")]
    runs += [(f"bp check {mode}", ["bp", "check", "--phi", PHI, "--p", "2", "--mode", mode],
              None) for mode in ("bp", "bp_star")]
    family = {"mode": "stratified", "count": 32, "seed": 1}
    configs = {
        "bump": {"u": grids["u"], "v": grids["v"], "phi": json.loads(PHI), "p": 2.0,
                 "family": family},
        "power-bump": {"nu": grids["nu"], "ws": [grids["w1"], grids["w2"]], "p": 1.5,
                       "ps": [3.0, 3.0], "r": 1.5, "family": family},
        "ap": {"w": grids["w"], "p": 2.0, "basis": "cube"},
        "sawyer": {"u": grids["u"], "v": grids["v"], "p": 2.0, "family": {"count": 8}},
        "condA": {"w": grids["w"], "lambda": 0.5, "sampler": {"count": 16, "seed": 2}},
    }
    runs += [(f"weights {kind}",
              ["weights", "test", "--kind", kind, "--config", path(f"{kind}.json", cfg)], None)
             for kind, cfg in configs.items()]
    rects = {"shape": [8, 8],
             "rects": [{"lo": [0, 0], "hi": [5, 6]}, {"lo": [2, 1], "hi": [8, 4]},
                       {"lo": [4, 4], "hi": [7, 8]}, {"lo": [1, 5], "hi": [3, 7]}]}
    demo = ["covering", "demo", "--family", path("family.json", rects), "--alpha", "0.4"]
    runs += [("covering demo", demo, None),
             ("covering demo weighted", demo + ["--weight", grids["w"]], None)]
    out = tmp / "m.grid"
    maximal = ["maximal", "--input", grids["f"], "--out", str(out)]
    runs += [("maximal strong", maximal, out), ("maximal orlicz", maximal + ["--phi", PHI], out)]
    return runs


def cli_runs(om, runs) -> list[tuple[str, bytes]]:
    """(label, exit code, stdout and written files) of every command-line run."""
    cli = importlib.import_module(f"{om.__name__}.cli")
    outputs = []
    for label, argv, written in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        got = f"{rc}\n{out.getvalue()}".encode()
        if written is not None:
            got += written.read_bytes() + Path(f"{written}.json").read_bytes()
        outputs.append((label, got))
    return outputs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_bytes.py PARENT CHANGE", file=sys.stderr)
        return 2
    runs, ran = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        argvs = None
        for side, checkout in zip(SIDES, argv):
            om = load(Path(checkout).resolve(), f"orliczmax_{side}")
            argvs = argvs or cli_inputs(om, Path(tmp))
            runs[side] = [(label, record(call)) for label, call in cases(om)]
            ran[side] = cli_runs(om, argvs)
    labels = [label for label, _ in runs["parent"]]
    differ = [label for (label, a), (_, b) in zip(runs["parent"], runs["change"]) if a != b]
    print(f"cases: {len(labels)}")
    print(f"equal: {len(labels) - len(differ)}")
    for side in SIDES:
        total = hashlib.sha1("".join(r for _, r in runs[side]).encode()).hexdigest()
        print(f"{side} sha1: {total}")
    for label in differ[:SHOWN]:
        print(f"differs: {label}")
    cdiffer = [label for (label, a), (_, b) in zip(ran["parent"], ran["change"]) if a != b]
    print(f"cli runs: {len(ran['parent'])}")
    print(f"cli equal: {len(ran['parent']) - len(cdiffer)}")
    for label in cdiffer[:SHOWN]:
        print(f"differs: {label}")
    return 1 if differ or cdiffer else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
