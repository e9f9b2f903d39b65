"""Command-line contract: exit codes, JSON payloads, replay stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orliczmax
from orliczmax.cli import main
from orliczmax.grid import GridFunction, Rect, read_grid, write_grid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_young_eval(capsys):
    code, out, err = run(capsys, "young", "eval", "--phi",
                         '{"kind": "power", "r": 2.0}', "--at", "1,2,3")
    assert code == 0
    d = json.loads(out)
    assert d["values"] == [1.0, 4.0, 9.0]
    assert d["run_config"]["command"] == "young"


def test_bp_check_flagship(capsys):
    phi = '{"kind": "power_log", "alpha": 2.0, "beta": 1.5}'
    code, out, _ = run(capsys, "bp", "check", "--phi", phi, "--p", "2", "--mode", "bp")
    assert code == 0
    assert json.loads(out)["verdict"]["label"] == "Converges"
    code, out, _ = run(capsys, "bp", "check", "--phi", phi, "--p", "2",
                       "--n", "2", "--mode", "bp_star")
    assert code == 0
    assert json.loads(out)["verdict"]["label"] == "Diverges"


def test_replay_is_byte_identical(capsys):
    args = ("bp", "check", "--phi", '{"kind": "power", "r": 1.5}', "--p", "2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_gen_then_maximal_fixed_point(capsys, tmp_path):
    src = str(tmp_path / "ones.grid")
    dst = str(tmp_path / "m.grid")
    code, _, _ = run(capsys, "gen", "--kind", "ones", "--shape", "12,12",
                     "--out", src)
    assert code == 0
    code, out, _ = run(capsys, "maximal", "--input", src, "--basis", "rect",
                       "--out", dst)
    assert code == 0
    m = read_grid(dst)
    assert np.all(m.values == 1.0)
    sidecar = json.load(open(dst + ".json"))
    assert sidecar["provenance"]["operator"] == "strong_maximal"


def test_gen_deterministic(capsys, tmp_path):
    a = str(tmp_path / "a.grid")
    b = str(tmp_path / "b.grid")
    run(capsys, "gen", "--kind", "random", "--shape", "10,10", "--seed", "5",
        "--out", a)
    run(capsys, "gen", "--kind", "random", "--shape", "10,10", "--seed", "5",
        "--out", b)
    assert open(a).read() == open(b).read()


def test_bad_descriptor_exits_one(capsys):
    code, out, err = run(capsys, "young", "eval", "--phi", "garbage")
    assert code == 1
    assert out == ""
    e = json.loads(err)
    assert e["error"] == "JSONDecodeError"


def test_budget_exits_two(capsys, tmp_path, monkeypatch):
    src = str(tmp_path / "f.grid")
    run(capsys, "gen", "--kind", "random", "--shape", "16,16", "--out", src)
    monkeypatch.setenv("ORLICZMAX_BUDGET", "10")
    code, _, err = run(capsys, "maximal", "--input", src,
                       "--out", str(tmp_path / "m.grid"))
    assert code == 2
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_explicit_budget_flag_overrides_env(capsys, tmp_path, monkeypatch):
    src = str(tmp_path / "f.grid")
    run(capsys, "gen", "--kind", "random", "--shape", "8,8", "--out", src)
    monkeypatch.setenv("ORLICZMAX_BUDGET", "10")
    code, _, _ = run(capsys, "maximal", "--input", src, "--budget", "1000000",
                     "--out", str(tmp_path / "m.grid"))
    assert code == 0


def test_weights_ap_config(capsys, tmp_path):
    src = str(tmp_path / "w.grid")
    run(capsys, "gen", "--kind", "random", "--shape", "10,10", "--seed", "3",
        "--out", src)
    cfg = tmp_path / "ap.json"
    cfg.write_text(json.dumps({"w": src, "p": 2.0,
                               "family": {"mode": "stratified", "count": 64,
                                          "seed": 0}}))
    code, out, _ = run(capsys, "weights", "test", "--kind", "ap",
                       "--config", str(cfg))
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["kind"] == "ap"
    assert rep["sup_constant"] >= 1.0


@pytest.mark.parametrize("config", [[1], {"p": 2.0, "family": [1]}, {"p": 2.0, "family": "x"}],
                         ids=["top_level_list", "family_list", "family_string"])
def test_config_that_is_not_an_object_is_a_json_error(capsys, tmp_path, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "weights", "test", "--kind", "ap", "--config", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == "ValueError"


def test_covering_demo(capsys, tmp_path):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({
        "shape": [16, 16],
        "rects": [{"lo": [0, 0], "hi": [8, 8]},
                  {"lo": [4, 4], "hi": [12, 12]},
                  {"lo": [10, 10], "hi": [16, 16]}],
    }))
    code, out, _ = run(capsys, "covering", "demo", "--family", str(fam),
                       "--alpha", "0.5")
    assert code == 0
    d = json.loads(out)
    assert d["verification"]["ok"]
    assert d["largest_delta"] > 0


def test_verify_counterexample(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counterexample")
    assert code == 0
    d = json.loads(out)
    assert d["divergence"]["nondecreasing"]


def test_out_file_written(capsys, tmp_path):
    dest = str(tmp_path / "verdict.json")
    code, out, _ = run(capsys, "bp", "check", "--phi",
                       '{"kind": "power", "r": 1.5}', "--p", "2", "--out", dest)
    assert code == 0
    assert json.loads(out) == {"written": dest}
    assert json.load(open(dest))["verdict"]["label"] == "Converges"


def test_phi_with_multilinear_inputs_is_a_json_error(capsys, tmp_path):
    a, b = str(tmp_path / "a.grid"), str(tmp_path / "b.grid")
    run(capsys, "gen", "--kind", "random", "--shape", "6,6", "--out", a)
    run(capsys, "gen", "--kind", "random", "--shape", "6,6", "--seed", "1", "--out", b)
    code, out, err = run(capsys, "maximal", "--inputs", a, b, "--phi",
                         '{"kind": "power", "r": 2}', "--out", str(tmp_path / "m.grid"))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("cores", [1, 3])
@pytest.mark.parametrize("phi", [None, '{"kind": "power_log", "alpha": 1.8, "beta": 1.0}'],
                         ids=["average", "orlicz"])
def test_overflowing_multilinear_product_exits_2(capsys, tmp_path, monkeypatch, phi, cores):
    # 48x48 averages sweep on up to 3 threads; 6x6 keeps the Orlicz sweep short
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    n = 48 if phi is None else 6
    big = str(tmp_path / "big.grid")
    write_grid(GridFunction((n, n), (0.0, 0.0), (1.0, 1.0), np.full((n, n), 1e200)), big)
    dest = str(tmp_path / "m.grid")
    code, out, err = run(capsys, "maximal", "--inputs", big, big, "--out", dest,
                         *(() if phi is None else ("--phis", phi, phi)))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "NonFinite"


def test_maximal_run_config_does_not_depend_on_core_count(capsys, tmp_path, monkeypatch):
    # 48x48 is past the threading threshold, so the sweep splits across cores
    src = str(tmp_path / "f.grid")
    run(capsys, "gen", "--kind", "random", "--shape", "48,48", "--out", src)
    outs = []
    for cores in (1, 8):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        dst = str(tmp_path / f"m{cores}.grid")
        code, out, _ = run(capsys, "maximal", "--input", src, "--out", dst)
        assert code == 0
        with open(dst, "rb") as fh:
            outs.append((out.replace(dst, "m.grid"), fh.read()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["--jobs", "2"],
    ["--bogus"],
    ["--basis", "hexagons"],
    ["--min-side", "two"],
], ids=["jobs", "unknown", "bad_choice", "bad_type"])
def test_usage_errors_are_json(capsys, tmp_path, argv):
    src = str(tmp_path / "f.grid")
    run(capsys, "gen", "--kind", "random", "--shape", "6,6", "--out", src)
    code, out, err = run(capsys, "maximal", "--input", src, *argv,
                         "--out", str(tmp_path / "m.grid"))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ArgumentError"


@pytest.mark.parametrize("argv", [["maximal", "--input", "f.grid"], ["frobnicate"], []],
                         ids=["missing_required", "unknown_command", "empty"])
def test_parse_failures_are_json_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert set(json.loads(err)) == {"error", "message"}


@pytest.mark.parametrize("suite, config", [
    ("holder", {"triples": 0}),
    ("holder", {"triples": -5}),
    ("t12", {"resolutions": []}),
    ("t2", {"resolutions": []}),
    ("t12", {"resolutions": [0]}),
], ids=["holder_zero", "holder_negative", "t12_empty", "t2_empty", "t12_zero"])
def test_degenerate_verify_configs_are_json_errors(capsys, tmp_path, suite, config):
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    code, out, err = run(capsys, "verify", "--suite", suite, "--config", path)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_help_still_exits_zero(capsys):
    code, out, _ = run(capsys, "maximal", "--help")
    assert code == 0
    assert "--input" in out and "--jobs" not in out


def test_orlicz_maximal_sidecar_replays_byte_for_byte(capsys, tmp_path):
    src = str(tmp_path / "f.grid")
    run(capsys, "gen", "--kind", "random", "--shape", "7,6", "--seed", "3", "--out", src)
    phi = '{"kind": "power_log", "alpha": 1.8, "beta": 1}'
    sidecars = []
    for name in ("a.grid", "b.grid"):
        dst = str(tmp_path / name)
        code, _, _ = run(capsys, "maximal", "--input", src, "--phi", phi, "--out", dst)
        assert code == 0
        with open(dst + ".json", "rb") as fh:
            sidecars.append(fh.read())
    assert sidecars[0] == sidecars[1]
    prov = json.loads(sidecars[0])["provenance"]
    assert prov["rects_solved"] + prov["pruned"] == prov["rect_count"]
    assert prov["ladder_rungs"] > 0


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "1"])
def test_bad_tol_is_a_json_error(capsys, tmp_path, tol):
    src = str(tmp_path / "f.grid")
    run(capsys, "gen", "--kind", "random", "--shape", "6,6", "--out", src)
    dst = tmp_path / "m.grid"
    code, out, err = run(capsys, "maximal", "--input", src, "--tol", tol, "--phi",
                         '{"kind": "power_log", "alpha": 1.8, "beta": 1}', "--out", str(dst))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"
    assert not dst.exists()


def test_one_parser_serves_every_call_of_a_process():
    # the parser is built once per process; a call that fails to parse
    # leaves nothing behind for the next one
    src = str(Path(orliczmax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    bad = ["young", "eval", "--phi", '{"kind": "power", "r": 2}', "--which", "nope"]
    good = ["young", "eval", "--phi", '{"kind": "power", "r": 2}', "--at", "1,3"]

    def fresh(*calls):
        """stdout and stderr of one new process running main on each (argv, exit code) call."""
        code = ("from orliczmax.cli import main, _build_parser\n"
                f"codes = [main(argv) for argv in {[argv for argv, _ in calls]!r}]\n"
                f"assert codes == {[rc for _, rc in calls]!r}, codes\n"
                "assert _build_parser.cache_info().misses == 1\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, proc.stderr

    out_bad, err_bad = fresh((bad, 1))
    out_good, err_good = fresh((good, 0))
    assert json.loads(err_bad)["error"] == "ArgumentError"
    assert json.loads(out_good)["values"] == [1.0, 9.0]
    assert fresh((bad, 1), (good, 0)) == (out_bad + out_good, err_bad + err_good)


def test_closed_stdout_exits_three_without_a_traceback():
    # as under `| head -c 100`, but deterministic: the pipe has no reader
    # before the command starts, so its first write fails
    src = str(Path(orliczmax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "orliczmax.cli", "young", "eval",
                               "--phi", '{"kind": "power", "r": 2}', "--at", "1"],
                              stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(w)
    assert proc.returncode == 3
    assert proc.stderr == b""


def test_every_record_prints_in_its_fixed_json_form():
    from orliczmax.bp import CONVERGES, TailIntegralTrace, Verdict
    from orliczmax.covering import RectFamily, ScatterSelection
    from orliczmax.maximal import DYADIC, Basis
    from orliczmax.verify import ProbeSuite, RatioReport
    from orliczmax.weights import ConditionReport, RectFamilySpec, SetSamplerSpec
    from orliczmax.young import ProbeReport

    trace = TailIntegralTrace((10.0, 100.0), (0.5, 0.75), 0.1, 0.2, 0.3, 1.0, 2.0, 2,
                              "bp_star", 40)
    trace_dict = {"cutoffs": [10.0, 100.0], "partials": [0.5, 0.75], "rho": 0.1,
                  "sigma": 0.2, "kappa": 0.3, "c": 1.0, "p": 2.0, "n": 2, "mode": "bp_star",
                  "mesh_per_decade": 40}
    rect = Rect((0, 1), (2, 3))
    weight = GridFunction((4, 4), (0.0, 0.0), (1.0, 1.0), np.ones((4, 4)))
    ratio = RatioReport("lp_bound", ({"test": "spike-0", "resolution": 8, "ratio": 1.5},
                                     {"test": "spike-0", "resolution": 16, "ratio": 3.0}),
                        3.0, 2.25, {8: 1.5, 16: 3.0}, 2.0, {"cert": {"label": "Converges"}},
                        skipped=1)
    condition = ConditionReport("ap", 1.25, rect, 9, {"mode": "auto", "basis": {"kind": "cubes"}},
                                {"p": 2.0})
    expected = [
        (ProbeReport("doubling", 2.5, (1.0, 3.0), True, 1e-9, 64),
         {"kind": "doubling", "max_ratio": 2.5, "argmax": [1.0, 3.0], "passed": True,
          "tol": 1e-9, "samples": 64}),
        (trace, trace_dict),
        (Verdict(CONVERGES, trace, None),
         {"label": CONVERGES, "analytic": None, "trace": trace_dict}),
        (Basis(DYADIC, 2, 8), {"kind": DYADIC, "min_side": 2, "max_side": 8}),
        (ScatterSelection((0, 2), 0.5), {"kept": [0, 2], "alpha": 0.5}),
        (RectFamilySpec("stratified", 8, 3),
         {"mode": "stratified", "count": 8, "seed": 3, "exhaustive_limit": 200_000}),
        (SetSamplerSpec(4, 2, 5), {"count": 4, "max_rects": 2, "seed": 5}),
        (condition,
         {"kind": "ap", "sup_constant": 1.25, "argmax_rect": {"lo": [0, 1], "hi": [2, 3]},
          "samples_evaluated": 9, "family": {"mode": "auto", "basis": {"kind": "cubes"}},
          "extra": {"p": 2.0}}),
        (ConditionReport("condition_A", 0.5, None, 4, {}),
         {"kind": "condition_A", "sup_constant": 0.5, "argmax_rect": None,
          "samples_evaluated": 4, "family": {}, "extra": {}}),
        (ProbeSuite(seed=2), {"seed": 2, "resolutions": [8, 16], "extent": 8.0, "dims": 2,
                              "per_kind": 2,
                              "kinds": ["indicator", "union", "bump", "spike"]}),
        (ratio,
         {"probe": "lp_bound", "ratio_form": "norm_quotient",
          "rows": [{"test": "spike-0", "resolution": 8, "ratio": 1.5},
                   {"test": "spike-0", "resolution": 16, "ratio": 3.0}],
          "sup_ratio": 3.0, "median_ratio": 2.25, "by_resolution": {"8": 1.5, "16": 3.0},
          "trend_factor": 2.0, "certificates": {"cert": {"label": "Converges"}},
          "expect_unbounded": False, "skipped": 1}),
        (RectFamily((4, 4), (rect, Rect((1, 1), (4, 3))), weight),
         {"shape": [4, 4], "rects": [{"lo": [0, 1], "hi": [2, 3]},
                                     {"lo": [1, 1], "hi": [4, 3]}]}),
    ]
    for record, form in expected:
        assert record.to_dict() == form, type(record).__name__
    # weights._draw prints the basis dict in an error message
    assert list(Basis().to_dict()) == ["kind", "min_side", "max_side"]
    # by_resolution keys are strings, so "16" sorts before "8"
    assert json.dumps(ratio.to_dict(), sort_keys=True) == (
        '{"by_resolution": {"16": 3.0, "8": 1.5}, "certificates": {"cert": {"label": '
        '"Converges"}}, "expect_unbounded": false, "median_ratio": 2.25, "probe": "lp_bound", '
        '"ratio_form": "norm_quotient", "rows": [{"ratio": 1.5, "resolution": 8, "test": '
        '"spike-0"}, {"ratio": 3.0, "resolution": 16, "test": "spike-0"}], "skipped": 1, '
        '"sup_ratio": 3.0, "trend_factor": 2.0}')
    assert json.dumps(condition.to_dict(), sort_keys=True) == (
        '{"argmax_rect": {"hi": [2, 3], "lo": [0, 1]}, "extra": {"p": 2.0}, "family": '
        '{"basis": {"kind": "cubes"}, "mode": "auto"}, "kind": "ap", "samples_evaluated": 9, '
        '"sup_constant": 1.25}')
