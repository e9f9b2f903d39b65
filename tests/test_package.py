"""The package namespace: each submodule loads when one of its names is first used."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orliczmax

SRC = str(Path(orliczmax.__file__).resolve().parents[1])

# every name the package bound when it imported all of its submodules at once
EAGER_NAMES = (
    "BudgetExceeded", "CUBES", "ConditionReport", "DEFAULT_BUDGET", "DYADIC", "DegenerateSet",
    "DimensionError", "EmptyRect", "GeometryMismatch", "GridFunction", "InvalidYoungFunction",
    "MaximalField", "NoBracket", "NonFinite", "NumericComplement", "OrliczMaxError", "Power",
    "PowerLog", "PowerLogLog", "ProbeSuite", "RECTANGLES", "RatioReport", "Rect", "RectFamily",
    "RectFamilySpec", "ScatterSelection", "SetSamplerSpec", "SummedAreaTable", "Tabulated",
    "Verdict", "VerdictConflict", "WeightSystem", "YoungFunction", "Basis", "ap_constant",
    "ap_value", "bp", "bump_constant", "bump_value", "cf_overlap_check", "choose_cf_subfamily",
    "classify", "complementary", "condition_A_estimate", "condition_A_value",
    "counterexample_divergence", "covering", "errors", "fefferman_stein_probe", "grid",
    "holder_orlicz_suite", "indicator_far_field", "inverse", "largest_passing_delta",
    "lp_bound_probe", "luxemburg_batch", "luxemburg_norm", "maximal", "multilinear_maximal",
    "multilinear_orlicz_maximal", "necessity_construction", "norm_lp", "orlicz_maximal",
    "power_bump_constant", "power_bump_value", "probe_doubling", "probe_submultiplicative",
    "read_grid", "rect_average", "run_suite", "sawyer_constant", "sawyer_value",
    "select_scattered", "strong_maximal", "tabulate", "two_weight_probe", "verify",
    "verify_scattered", "weight_growth_check", "weight_growth_sweep", "weighted_transfer_probe",
    "weights", "write_grid", "young", "young_from_json", "young_to_json",
)

# In a child interpreter: the package's modules whose code has run, and
# those that sit in sys.modules unrun (a LazyLoader module is of a
# subclass of ModuleType until its first attribute read).
REPORT = """
import json, sys, types
def report():
    mods = {n: m for n, m in sys.modules.items() if n.split(".")[0] == PKG}
    return {"ran": sorted(n for n, m in mods.items() if type(m) is types.ModuleType),
            "unrun": sorted(n for n, m in mods.items() if type(m) is not types.ModuleType)}
"""


def child(body: str, pkg: str = "orliczmax") -> list:
    """Run body after REPORT in a fresh interpreter; the JSON lines it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", f"PKG = {pkg!r}\n{REPORT}\n{body}"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


SUBMODULES = ["orliczmax." + m for m in ("bp", "covering", "grid", "maximal", "verify",
                                          "weights", "young")]


def test_import_runs_only_the_package_and_errors():
    [after] = child("import orliczmax\nprint(json.dumps(report()))")
    assert after == {"ran": ["orliczmax", "orliczmax.errors"], "unrun": SUBMODULES}


def test_strong_maximal_runs_exactly_grid_young_and_maximal():
    before, after = child("import orliczmax\nprint(json.dumps(report()))\n"
                          "orliczmax.strong_maximal\nprint(json.dumps(report()))")
    added = sorted(set(after["ran"]) - set(before["ran"]))
    assert added == ["orliczmax.grid", "orliczmax.maximal", "orliczmax.young"]
    assert set(after["ran"]) | set(after["unrun"]) == set(before["ran"]) | set(before["unrun"])


def test_submodule_resolves_after_a_bare_import():
    [out] = child("import orliczmax\nm = orliczmax.maximal\n"
                  "print(json.dumps([m.__name__, m.strong_maximal.__module__]))")
    assert out == ["orliczmax.maximal", "orliczmax.maximal"]


def test_a_copy_under_another_name_loads_its_own_submodules():
    # as tools/ab_inprocess.py loads a checkout: the lazy lookups go
    # through the package's own name, never through `orliczmax`
    [out] = child(f"""
import importlib.util
root = {os.path.join(SRC, "orliczmax")!r}
spec = importlib.util.spec_from_file_location(PKG, root + "/__init__.py",
                                              submodule_search_locations=[root])
om = importlib.util.module_from_spec(spec)
sys.modules[PKG] = om
spec.loader.exec_module(om)
om.strong_maximal
print(json.dumps([om.strong_maximal.__module__, report()["ran"],
                  sorted(n for n in sys.modules if n.split(".")[0] == "orliczmax")]))
""", pkg="orliczmax_copy")
    assert out == ["orliczmax_copy.maximal",
                   ["orliczmax_copy", "orliczmax_copy.errors", "orliczmax_copy.grid",
                    "orliczmax_copy.maximal", "orliczmax_copy.young"], []]


def test_every_name_in_all_resolves_to_its_submodule():
    for name in orliczmax.__all__:
        value = getattr(orliczmax, name)
        source = orliczmax._SOURCE[name]
        if source is None:
            assert value is sys.modules[f"orliczmax.{name}"]
        else:
            assert value is getattr(sys.modules[f"orliczmax.{source}"], name)


def test_dir_lists_every_name():
    assert set(orliczmax.__all__) <= set(dir(orliczmax))


def test_star_import_binds_every_eager_name():
    namespace = {}
    exec("from orliczmax import *", namespace)
    assert sorted(set(EAGER_NAMES) - namespace.keys()) == []
    assert sorted(EAGER_NAMES) == orliczmax.__all__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'strong_maximum'"):
        orliczmax.strong_maximum
