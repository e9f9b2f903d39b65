"""Command-line entry point.

Every command prints one JSON document (or writes it to --out) that embeds
the fully resolved run configuration, so replaying the printed config
reproduces the payload byte for byte. Outputs carry no timestamps. Errors
are structured JSON on stderr; exit 0 on success, 1 on validation errors,
2 when a budget or numeric limit is hit, 3 when stdout closes before
everything meant for it is printed (a reader such as `head` that stops
early), which prints nothing more. An --out file is written before its
{"written": ...} line, so it is complete under exit 3 too.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .bp import classify
from .covering import (RectFamily, cf_overlap_check, choose_cf_subfamily,
                       largest_passing_delta, select_scattered, verify_scattered,
                       weight_growth_sweep)
from .errors import (BudgetExceeded, NoBracket, NonFinite, OrliczMaxError,
                     VerdictConflict)
from .grid import GridFunction, Rect, read_grid, write_grid
from .maximal import (CUBES, DEFAULT_BUDGET, DYADIC, RECTANGLES, Basis,
                      multilinear_maximal, multilinear_orlicz_maximal, orlicz_maximal,
                      strong_maximal)
from .verify import run_suite
from .weights import (RectFamilySpec, SetSamplerSpec, WeightSystem, ap_constant,
                      bump_constant, condition_A_estimate, power_bump_constant,
                      sawyer_constant)
from .young import (complementary, inverse, probe_doubling,
                    probe_submultiplicative, young_from_json, young_to_json)

__all__ = ["main"]

_BUDGET_ENV = "ORLICZMAX_BUDGET"
_BASIS_KINDS = {"rect": RECTANGLES, "cube": CUBES, "dyadic": DYADIC}


def _default_budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    return int(raw) if raw else DEFAULT_BUDGET


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_shape(text: str) -> tuple[int, ...]:
    dims = tuple(int(tok) for tok in text.replace(",", " ").split())
    if not (1 <= len(dims) <= 3) or any(d < 1 for d in dims):
        raise ValueError("shape must list 1..3 positive axis sizes")
    return dims


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _basis_from(args_basis: str, min_side: int = 1, max_side: int | None = None) -> Basis:
    if args_basis not in _BASIS_KINDS:
        raise ValueError(f"basis must be one of {sorted(_BASIS_KINDS)}")
    return Basis(_BASIS_KINDS[args_basis], min_side=min_side, max_side=max_side)


def _rects_from(items) -> tuple[Rect, ...]:
    return tuple(Rect(tuple(r["lo"]), tuple(r["hi"])) for r in items)


def _run_config(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    cfg["command"] = getattr(args, "func").__name__.removeprefix("_cmd_")
    return cfg


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(json.dumps({"written": out}, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------- commands

def _cmd_young(args) -> dict:
    phi = young_from_json(args.phi)
    out: dict = {"phi": young_to_json(phi), "op": args.op}
    if args.op == "eval":
        t = np.asarray(_parse_floats(args.at))
        out["t"] = t.tolist()
        out["values"] = phi.eval(t).tolist()
    elif args.op == "complement":
        s = np.asarray(_parse_floats(args.at))
        out["s"] = s.tolist()
        out["values"] = complementary(phi).eval(s).tolist()
    elif args.op == "inverse":
        y = np.asarray(_parse_floats(args.at))
        out["y"] = y.tolist()
        out["values"] = np.asarray(inverse(phi, y)).tolist()
    elif args.op == "probe":
        rep = probe_doubling(phi) if args.which == "doubling" else probe_submultiplicative(phi)
        out["which"] = args.which
        out["report"] = rep.to_dict()
    else:
        raise ValueError(f"unknown young op {args.op!r}")
    return out


def _cmd_bp(args) -> dict:
    phi = young_from_json(args.phi)
    verdict = classify(phi, args.p, n=args.n, mode=args.mode, c=args.c)
    return {"verdict": verdict.to_dict()}


def _cmd_maximal(args) -> dict:
    if not args.input and not args.inputs:
        raise ValueError("need --input (or --inputs for the multilinear form)")
    basis = _basis_from(args.basis, args.min_side, args.max_side)
    budget = args.budget if args.budget is not None else _default_budget()
    if args.inputs:
        if args.phi:
            raise ValueError("--phi takes a single --input; multilinear Orlicz uses --phis")
        fs = [read_grid(p) for p in args.inputs]
        phis = [young_from_json(p) for p in (args.phis or [])]
        if phis:
            mf = multilinear_orlicz_maximal(fs, phis, basis, budget=budget, tol=args.tol)
        else:
            mf = multilinear_maximal(fs, basis, budget=budget)
    elif args.phi:
        f = read_grid(args.input)
        phis = [young_from_json(p) for p in args.phi]
        if len(phis) != 1:
            raise ValueError("one --phi per single input; multilinear needs --inputs")
        mf = orlicz_maximal(f, phis[0], basis, budget=budget, tol=args.tol)
    else:
        mf = strong_maximal(read_grid(args.input), basis, budget=budget)
    write_grid(mf.field, args.out)
    sidecar = args.out + ".json"
    with open(sidecar, "w") as fh:
        json.dump({"provenance": mf.provenance}, fh, indent=2, sort_keys=True)
    return {"out": args.out, "sidecar": sidecar, "provenance": mf.provenance}


def _family_spec(cfg: dict) -> RectFamilySpec:
    allowed = {"mode", "count", "seed", "exhaustive_limit"}
    return RectFamilySpec(**{k: v for k, v in cfg.items() if k in allowed})


def _cmd_weights(args) -> dict:
    cfg = _load_json(args.config)
    fam = _family_spec(cfg.get("family", {}))
    kind = args.kind
    if kind == "bump":
        rep = bump_constant(read_grid(cfg["u"]), read_grid(cfg["v"]),
                            young_from_json(cfg["phi"]), float(cfg["p"]), fam,
                            _basis_from(cfg.get("basis", "rect")))
    elif kind == "power-bump":
        sys_w = WeightSystem(read_grid(cfg["nu"]),
                             tuple(read_grid(p) for p in cfg["ws"]),
                             float(cfg["p"]), tuple(cfg["ps"]))
        rep = power_bump_constant(sys_w, float(cfg["r"]), fam,
                                  _basis_from(cfg.get("basis", "rect")))
    elif kind == "ap":
        rep = ap_constant(read_grid(cfg["w"]), float(cfg["p"]),
                          _basis_from(cfg.get("basis", "rect")), fam)
    elif kind == "sawyer":
        rep = sawyer_constant(read_grid(cfg["u"]), read_grid(cfg["v"]),
                              float(cfg["p"]), fam)
    elif kind == "condA":
        sampler = SetSamplerSpec(**cfg.get("sampler", {}))
        rep = condition_A_estimate(read_grid(cfg["w"]), float(cfg["lambda"]), sampler)
    else:
        raise ValueError(f"unknown weights kind {kind!r}")
    return {"report": rep.to_dict(), "config": cfg}


def _cmd_covering(args) -> dict:
    fam_cfg = _load_json(args.family)
    fam_kwargs = {}
    if args.weight:
        fam_kwargs["weight"] = read_grid(args.weight)
    fam = RectFamily(tuple(fam_cfg["shape"]), _rects_from(fam_cfg["rects"]), **fam_kwargs)
    sel = select_scattered(fam, args.alpha)
    out = {
        "family_size": len(fam),
        "selection": sel.to_dict(),
        "verification": verify_scattered(fam, sel),
    }
    if args.weight:
        out["growth"] = weight_growth_sweep(fam, sel, fam.weight)
    if fam.ndim >= 2:
        sub = choose_cf_subfamily(fam)
        out["cf_subfamily"] = sub
        out["cf_check"] = cf_overlap_check(fam, sub, args.delta, fam.ndim)
        out["largest_delta"] = largest_passing_delta(fam, sub, fam.ndim)
    return out


def _cmd_verify(args) -> dict:
    cfg = _load_json(args.config) if args.config else {}
    return run_suite(args.suite, cfg)


def _cmd_gen(args) -> dict:
    shape = _parse_shape(args.shape)
    spacing = args.extent / max(shape)
    rng = np.random.default_rng(args.seed)
    vals = np.zeros(shape)
    if args.kind == "indicator":
        lo = [int(rng.integers(0, max(1, e // 2))) for e in shape]
        hi = [int(rng.integers(l + 1, e + 1)) for l, e in zip(lo, shape)]
        vals[tuple(slice(a, b) for a, b in zip(lo, hi))] = 1.0
    elif args.kind == "union":
        for _ in range(int(rng.integers(2, 5))):
            lo = [int(rng.integers(0, e)) for e in shape]
            hi = [int(rng.integers(l + 1, e + 1)) for l, e in zip(lo, shape)]
            vals[tuple(slice(a, b) for a, b in zip(lo, hi))] = 1.0
    elif args.kind == "random":
        vals = np.exp(rng.normal(size=shape))
    elif args.kind == "ones":
        vals = np.ones(shape)
    else:
        raise ValueError(f"unknown gen kind {args.kind!r}")
    f = GridFunction(shape, (0.0,) * len(shape), (spacing,) * len(shape), vals)
    write_grid(f, args.out)
    return {"out": args.out, "shape": list(shape), "seed": args.seed,
            "kind": args.kind, "spacing": spacing}


# ---------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    # raised, not printed, so main reports it as JSON; subparsers share the class
    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


@functools.cache  # every default below is a constant; the budget variable is read per run
def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="orliczmax", description="Orlicz maximal operator laboratory")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("young", help="evaluate a Young function and friends")
    p.add_argument("op", choices=["eval", "complement", "inverse", "probe"])
    p.add_argument("--phi", required=True, help="JSON descriptor")
    p.add_argument("--at", default="1.0", help="comma/space-separated points")
    p.add_argument("--which", choices=["doubling", "submultiplicative"],
                   default="doubling")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_young)

    p = sub.add_parser("bp", help="tail-integral membership verdict")
    p.add_argument("action", choices=["check"])
    p.add_argument("--phi", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--mode", choices=["bp", "bp_star"], default="bp")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bp)

    p = sub.add_parser("maximal", help="maximal field of a grid function")
    p.add_argument("--input", help="input .grid path")
    p.add_argument("--inputs", nargs="+", help="multilinear input .grid paths")
    p.add_argument("--basis", default="rect", choices=sorted(_BASIS_KINDS))
    p.add_argument("--min-side", type=int, default=1, dest="min_side")
    p.add_argument("--max-side", type=int, default=None, dest="max_side")
    p.add_argument("--phi", action="append", help="JSON descriptor (Orlicz mode)")
    p.add_argument("--phis", nargs="+", help="descriptors for multilinear Orlicz")
    p.add_argument("--out", required=True)
    p.add_argument("--budget", type=int, default=None,
                   help=f"member budget (default ${_BUDGET_ENV} or {DEFAULT_BUDGET})")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_maximal)

    p = sub.add_parser("weights", help="weight-condition constants")
    p.add_argument("action", choices=["test"])
    p.add_argument("--kind", required=True,
                   choices=["bump", "power-bump", "ap", "sawyer", "condA"])
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("covering", help="scattered selection and overlap checks")
    p.add_argument("action", choices=["demo"])
    p.add_argument("--family", required=True, help="JSON family path")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--weight", help="weight .grid path")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_covering)

    p = sub.add_parser("verify", help="experiment suites")
    p.add_argument("--suite", required=True,
                   choices=["t2", "t12", "counterexample", "holder", "covering"])
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="synthesize deterministic test grids")
    p.add_argument("--kind", default="random",
                   choices=["indicator", "union", "random", "ones"])
    p.add_argument("--shape", required=True, help="e.g. 32,32")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--extent", type=float, default=8.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    return top


_LIMIT_ERRORS = (BudgetExceeded, NonFinite, NoBracket, VerdictConflict)
_EXIT_CLOSED_STDOUT = 3


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except argparse.ArgumentError as e:
        _fail(e)
        return 1
    except SystemExit:  # --help printed the usage
        return 0
    out_path = getattr(args, "out", None)
    if args.func is _cmd_maximal or args.func is _cmd_gen:
        out_path = None  # these write their grid themselves and report on stdout
    try:
        payload = args.func(args)
    except _LIMIT_ERRORS as e:
        _fail(e)
        return 2
    except (OrliczMaxError, ValueError, KeyError, TypeError, OSError,
            json.JSONDecodeError) as e:
        _fail(e)
        return 1
    payload["run_config"] = _run_config(args)
    try:
        _emit(payload, out_path)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now goes to devnull, so the flush at interpreter exit
        # cannot fail again and print a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_CLOSED_STDOUT
    return 0


def _fail(e: Exception) -> None:
    print(json.dumps({"error": type(e).__name__, "message": str(e)}),
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
