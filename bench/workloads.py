"""The three workloads: inputs made from a seed, one op, and the checks of its output.

Each workload builds a pool of input bundles from the seed during set-up.
An op runs the workload's fixed bundle of library calls on one pool entry;
a run cycles through the pool in whole rounds. Checks compare an op's
output with computations from reference.py or with properties the method
must have, never with a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import reference as ref

KINDS = ("lognormal", "step", "zero_heavy")


def make_values(kind: str, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """lognormal: exp(N(0, 1)); step: 0 except 30% of cells set to 1, 2 or 3;
    zero_heavy: lognormal with half of the cells set to 0."""
    if kind == "step":
        v = np.zeros(shape)
        mask = rng.random(shape) < 0.3
        v[mask] = rng.integers(1, 4, size=int(mask.sum()))
        return v
    v = np.exp(rng.normal(size=shape))
    if kind == "zero_heavy":
        v[rng.random(shape) < 0.5] = 0.0
    elif kind != "lognormal":
        raise ValueError(f"unknown input kind {kind!r}")
    return v


def make_grid(om, values: np.ndarray):
    n = values.ndim
    return om.GridFunction(values.shape, (0.0,) * n, (8.0 / max(values.shape),) * n, values)


def check_cells(rng: np.random.Generator, field: np.ndarray) -> list[tuple[int, ...]]:
    """Cells where a field is recomputed: a corner, the field's minimum and a seeded cell."""
    corner = (0,) * field.ndim
    low = tuple(int(i) for i in np.unravel_index(int(np.argmin(field)), field.shape))
    drawn = tuple(int(rng.integers(0, n)) for n in field.shape)
    return list(dict.fromkeys([corner, low, drawn]))


class StrongField:
    """Rectangle-basis averages: a 96^2 field, a bilinear 64^2 field, a 16^3 field."""

    name = "strong_field"
    pool = 3

    def setup(self, om, seed: int, scratch: str):
        bundles = []
        for k in range(self.pool):
            rng = np.random.default_rng([seed, k, 1])
            kinds = [KINDS[(k + j) % 3] for j in range(3)]
            bundles.append({
                "square": make_grid(om, make_values(kinds[0], rng, (96, 96))),
                "pair": [make_grid(om, make_values(kinds[1], rng, (64, 64))),
                         make_grid(om, make_values(kinds[2], rng, (64, 64)))],
                "cube": make_grid(om, make_values(kinds[0], rng, (16, 16, 16))),
                "rng_seed": [seed, k, 2],
            })
        return bundles

    def op(self, om, state, k: int):
        b = state[k]
        return (om.strong_maximal(b["square"]).field.values,
                om.multilinear_maximal(b["pair"]).field.values,
                om.strong_maximal(b["cube"]).field.values)

    def digest(self, out) -> bytes:
        return b"".join(a.tobytes() for a in out)

    def out_bytes(self, out) -> int:
        return 0

    def check(self, om, state, k: int, out) -> list[str]:
        b = state[k]
        rng = np.random.default_rng(b["rng_seed"])
        cases = [("square", [b["square"]], out[0]), ("pair", b["pair"], out[1]),
                 ("cube", [b["cube"]], out[2])]
        problems = []
        for label, grids, field in cases:
            arrays = [g.values for g in grids]
            tops = [float(a.max()) for a in arrays]
            # error of a product of averages: each factor's sum error times the
            # largest the other factors can be
            tol = sum(ref.sum_error_bound(a) * math.prod(tops[:j] + tops[j + 1:])
                      for j, a in enumerate(arrays))
            for cell in check_cells(rng, field):
                want = ref.strong_sup(arrays, cell)
                if abs(field[cell] - want) > tol:
                    problems.append(f"{label}: M at {cell} is {field[cell]!r}, "
                                    f"brute force gives {want!r} (tol {tol:.3g})")
            pointwise = math.prod(arrays)
            if np.any(field < pointwise - tol):
                problems.append(f"{label}: M f < f at {int(np.sum(field < pointwise - tol))} cells")
            if np.any(field > math.prod(tops) + tol):
                problems.append(f"{label}: M f exceeds max f")
        doubled = (om.strong_maximal(b["square"].with_values(2.0 * b["square"].values)),
                   om.multilinear_maximal([b["pair"][0].with_values(2.0 * b["pair"][0].values),
                                           b["pair"][1]]),
                   om.strong_maximal(b["cube"].with_values(2.0 * b["cube"].values)))
        for (label, _, field), mf in zip(cases, doubled):
            if mf.field.values.tobytes() != (2.0 * field).tobytes():
                problems.append(f"{label}: M(2f) is not 2 M(f) bit for bit")
        return problems


@dataclass(frozen=True)
class OrliczCase:
    label: str
    kind: str
    side: int
    form: ref.ClosedForm
    # relative tolerance against the closed-form reference: twice the
    # solver's 1e-9 bracket, plus for the tabulated complement its table
    # error of 2.3e-9, which moves a norm of a cubic Phi by a third of that
    tol: float


class OrliczField:
    """Luxemburg-norm maximal fields under three Young functions."""

    name = "orlicz_field"
    pool = 2
    cases = (
        OrliczCase("power_log", "lognormal", 12, ref.power_log(1.8, 1.0), 2e-9),
        OrliczCase("power_log_log", "step", 12, ref.power_log_log(2.0, 1.5, 1.5), 2e-9),
        OrliczCase("complement", "zero_heavy", 8, ref.power_complement(1.5), 2e-9 + 2.3e-9 / 3),
    )

    def setup(self, om, seed: int, scratch: str):
        phis = [om.PowerLog(1.8, 1.0), om.PowerLogLog(2.0, 1.5, 1.5),
                om.complementary(om.Power(1.5))]
        bundles = []
        for k in range(self.pool):
            rng = np.random.default_rng([seed, k, 3])
            grids = [make_grid(om, make_values(c.kind, rng, (c.side, c.side))) for c in self.cases]
            bundles.append({"grids": grids, "rng_seed": [seed, k, 4]})
        return {"phis": phis, "bundles": bundles}

    def op(self, om, state, k: int):
        grids = state["bundles"][k]["grids"]
        return tuple(om.orlicz_maximal(g, phi).field.values
                     for g, phi in zip(grids, state["phis"]))

    def digest(self, out) -> bytes:
        return b"".join(a.tobytes() for a in out)

    def out_bytes(self, out) -> int:
        return 0

    def check(self, om, state, k: int, out) -> list[str]:
        b = state["bundles"][k]
        rng = np.random.default_rng(b["rng_seed"])
        problems = []
        for case, grid, field in zip(self.cases, b["grids"], out):
            f = grid.values
            for cell in check_cells(rng, field):
                want = ref.luxemburg_sup(f, cell, case.form)
                if abs(field[cell] - want) > case.tol * want:
                    problems.append(f"{case.label}: M_phi at {cell} is {field[cell]!r}, "
                                    f"brute force gives {want!r}")
            floor = f / case.form.inv_one
            if np.any(field < floor * (1.0 - case.tol)):
                problems.append(f"{case.label}: M_phi f < f / Phi^-1(1) somewhere")
        return problems


SUITES = ("t12", "holder", "covering", "counterexample")
HOLDER_TRIPLES = 400


class ProbeSuites:
    """The CLI `verify` command, in-process, on four seeded suites."""

    name = "probe_suites"
    pool = 2
    # solver tolerance of the Luxemburg norms behind the t12 bump constant
    solver_tol = 1e-9

    def setup(self, om, seed: int, scratch: str):
        importlib.import_module("orliczmax.cli")
        bundles = []
        for k in range(self.pool):
            s = int(np.random.default_rng([seed, k, 5]).integers(0, 2**31))
            configs = {
                "t12": {"seed": s, "resolutions": [6, 12]},
                "holder": {"seed": s, "triples": HOLDER_TRIPLES},
                "covering": {"seed": s},
                "counterexample": {"seed": s},
            }
            paths = {}
            for suite, cfg in configs.items():
                path = os.path.join(scratch, f"{suite}-{k}.json")
                with open(path, "w") as fh:
                    json.dump(cfg, fh)
                paths[suite] = path
            bundles.append({"seed": s, "paths": paths})
        return bundles

    def op(self, om, state, k: int):
        out = []
        for suite in SUITES:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = om.cli.main(["verify", "--suite", suite,
                                  "--config", state[k]["paths"][suite]])
            out.append((rc, stdout.getvalue(), stderr.getvalue()))
        return tuple(out)

    def digest(self, out) -> bytes:
        return json.dumps([[rc, text] for rc, text, _ in out]).encode()

    def out_bytes(self, out) -> int:
        return sum(len(text.encode()) for _, text, _ in out)

    def check(self, om, state, k: int, out) -> list[str]:
        problems = []
        docs = {}
        for suite, (rc, text, err) in zip(SUITES, out):
            if rc != 0:
                problems.append(f"{suite}: exit code {rc}: {err.strip()}")
            else:
                docs[suite] = json.loads(text)
        if "t12" in docs:
            d = docs["t12"]
            bump = d["bump_of_construction"]
            if not bump <= 1.0 + self.solver_tol + 1e-12:
                problems.append(f"t12: bump of the construction is {bump!r} > 1 + tol")
            cond = d["two_weight"]["certificates"]["condition_A_u_p"]
            if not cond.get("sup_constant", -math.inf) >= 1.0:
                problems.append(f"t12: condition-A constant {cond} is not >= 1")
        if "holder" in docs:
            for fam in docs["holder"]["families"]:
                if fam["violations"] != 0 or fam["triples"] < HOLDER_TRIPLES:
                    problems.append(f"holder: {fam['phi']} has {fam['violations']} violations "
                                    f"in {fam['triples']} triples")
        if "covering" in docs:
            d = docs["covering"]
            shape = (32, 32)
            rects = ref.scattered_draw(state[k]["seed"], shape,
                                       d["verification"]["total"])
            problems += [f"covering: {p}" for p in ref.greedy_violations(
                shape, rects, d["selection"]["kept"], d["selection"]["alpha"])]
        if "counterexample" in docs:
            d = docs["counterexample"]["divergence"]
            for T, got in zip(d["doublings"], d["control_increments"]):
                want = ref.control_increment(d["lo"], T)
                tol = ref.control_tolerance(d["lo"], T, d["mesh_per_decade"])
                if abs(got - want) > tol:
                    problems.append(f"counterexample: control increment at T={T} is {got!r}, "
                                    f"closed form {want!r} (tol {tol:.3g})")
            incs = d["increments"]
            if not all(b >= a * (1.0 - 1e-9) for a, b in zip(incs, incs[1:])):
                problems.append(f"counterexample: damped increments {incs} decrease")
        return problems


WORKLOADS = {w.name: w for w in (StrongField(), OrliczField(), ProbeSuites())}
