"""Numerical laboratory for strong and Orlicz maximal operators over rectangle bases.

A submodule loads when one of its names is first used (PEP 562): `import
orliczmax` runs only this file and `errors`, and `orliczmax.strong_maximal`
(or `orliczmax.maximal`) then runs `maximal` and what it imports itself,
`grid` and `young`. A name, once looked up, is stored here, so later
lookups are plain attribute reads. Until its first use each other
submodule sits in `sys.modules` unrun (`importlib.util.LazyLoader`), and
reading any attribute of it runs it.
"""

import importlib.util
import sys
import threading

from . import errors  # holds no dataclass, so it costs little to load at once

# submodule -> the public names it exports
_EXPORTS = {
    "bp": ("Verdict", "classify"),
    "covering": ("RectFamily", "ScatterSelection", "cf_overlap_check",
                 "choose_cf_subfamily", "largest_passing_delta", "select_scattered",
                 "verify_scattered", "weight_growth_check", "weight_growth_sweep"),
    "errors": ("BudgetExceeded", "DegenerateSet", "DimensionError", "EmptyRect",
               "GeometryMismatch", "InvalidYoungFunction", "NoBracket", "NonFinite",
               "OrliczMaxError", "VerdictConflict"),
    "grid": ("GridFunction", "Rect", "SummedAreaTable", "luxemburg_batch",
             "luxemburg_norm", "norm_lp", "read_grid", "rect_average", "write_grid"),
    "maximal": ("CUBES", "DEFAULT_BUDGET", "DYADIC", "RECTANGLES", "Basis", "MaximalField",
                "indicator_far_field", "multilinear_maximal", "multilinear_orlicz_maximal",
                "orlicz_maximal", "strong_maximal"),
    "verify": ("ProbeSuite", "RatioReport", "counterexample_divergence",
               "fefferman_stein_probe", "holder_orlicz_suite", "lp_bound_probe",
               "necessity_construction", "run_suite", "two_weight_probe",
               "weighted_transfer_probe"),
    "weights": ("ConditionReport", "RectFamilySpec", "SetSamplerSpec", "WeightSystem",
                "ap_constant", "ap_value", "bump_constant", "bump_value",
                "condition_A_estimate", "condition_A_value", "power_bump_constant",
                "power_bump_value", "sawyer_constant", "sawyer_value"),
    "young": ("NumericComplement", "Power", "PowerLog", "PowerLogLog", "Tabulated",
              "YoungFunction", "complementary", "inverse", "probe_doubling",
              "probe_submultiplicative", "tabulate", "young_from_json", "young_to_json"),
}
# public name -> its submodule; a submodule's own name maps to None
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SOURCE.update(dict.fromkeys(_EXPORTS))

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"

# Each other submodule goes into sys.modules unrun: `bench/spans.py` wraps
# the functions of every module it finds there, `covering` and `verify`
# among them, and a LazyLoader module runs at its first attribute read.
for _module in [m for m in _EXPORTS if m != "errors"]:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec

# Python 3.11's LazyLoader takes no lock, so a second thread could read a
# submodule while the first still runs it
_LOADING = threading.RLock()


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    with _LOADING:
        module = importlib.import_module(f".{_SOURCE[name] or name}", __name__)
        value = module if _SOURCE[name] is None else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})
