"""Command-line interface: output shapes, exit codes, file handling."""
import copy
import importlib.metadata
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import percept
from percept.cli import main
from percept.sweep import _AXES, SCHEMA

POP_HALF = "0.508009262517"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scenario_file(tmp_path, **over):
    doc = {
        "schema": SCHEMA, "metric": "pu_snr",
        "axis": {"name": "pt_over_n0", "grid": [1.0, 10.0]},
        "value_params": {"alpha": 0.5, "lambda_gain": 1.0, "lambda_loss": 2.0},
        "weight_params": {"gamma": 1.0, "theta": 0.8},
        "reference": 4.0, "mu": 1.0,
    }
    doc.update(over)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return str(p)


# --- point commands -------------------------------------------------------------

def test_value_points(capsys):
    code, out, _ = run(capsys, ["value", "4", "6", "--alpha", "0.5",
                                "--ref", "4"])
    assert code == 0
    assert out == ("axis,value,err,n_eval\n"
                   "4,0,0,1\n"
                   "6,1.41421356237,0,1\n")


def test_weight_points(capsys):
    code, out, _ = run(capsys, ["weight", "0.5", "--gamma", "1",
                                "--theta", "0.5"])
    assert code == 0
    assert out.splitlines()[1] == "0.5,0.434936771576,0,1"


def test_pcdf_point(capsys):
    code, out, _ = run(capsys, ["pcdf", "1.0", "--theta", "0.5"])
    assert code == 0
    assert out.splitlines()[1] == f"1,{POP_HALF},0,1"


def test_ppdf_point(capsys):
    code, out, _ = run(capsys, ["ppdf", "1.0", "--theta", "0.65"])
    assert code == 0
    axis, val, err, n = out.splitlines()[1].split(",")
    assert axis == "1" and float(val) > 0.0 and err == "0" and n == "1"


def test_pu_snr_reports_quadrature_health(capsys):
    code, out, _ = run(capsys, ["pu-snr", "--ptn0", "100"])
    assert code == 0
    axis, val, err, n = out.splitlines()[1].split(",")
    assert axis == "100"
    assert float(val) == pytest.approx(8.706740797714051, rel=1e-10)
    assert 0.0 <= float(err) <= 1e-8
    assert int(n) >= 1


def test_pu_snr_classical_flags(capsys):
    code, out, _ = run(capsys, [
        "pu-snr", "--alpha", "1", "--lambda-gain", "1", "--lambda-loss", "1",
        "--gamma", "1", "--theta", "1", "--mode", "permissive",
        "--ref", "0", "--ptn0", "10"])
    assert code == 0
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(
        10.0, rel=1e-6)


def test_pu_rate_runs(capsys):
    code, out, _ = run(capsys, ["pu-rate", "--ptn0", "10"])
    assert code == 0
    assert len(out.splitlines()) == 2


def test_pop_point(capsys):
    code, out, _ = run(capsys, ["pop", "--ptn0", "1", "--epsilon", "1",
                                "--theta", "0.5"])
    assert code == 0
    assert out.splitlines()[1] == f"1,{POP_HALF},0,1"


def test_pop_keeps_an_outage_that_rounds_to_1(capsys):
    # F(g_th) = 1 - e^-40 rounds to 1, but w(F) is the perceived CDF at
    # g_th = 40, which pcdf forms through log F
    code, out, _ = run(capsys, ["pop", "--ptn0", "0.025", "--theta", "0.01"])
    assert code == 0
    assert out.splitlines()[1] == "0.025,0.511544833689,0,1"


def test_points_keep_their_order_and_repeats(capsys):
    code, out, _ = run(capsys, ["weight", "0.9", "0.1", "0.1"])
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == [
        "0.9", "0.1", "0.1"]
    assert out.splitlines()[2] == out.splitlines()[3]


def test_rates_past_float_range_exit_0(capsys):
    code, out, _ = run(capsys, ["pop", "--epsilon", "2000"])
    assert (code, out.splitlines()[1]) == (0, "100,1,0,1")
    code, out, _ = run(capsys, ["pu-rate", "--ref", "2000"])
    assert code == 0
    assert float(out.splitlines()[1].split(",")[1]) < 0.0


# --- exit codes -------------------------------------------------------------------

def test_validation_failure_exits_2(capsys):
    code, out, err = run(capsys, ["value", "5", "--alpha", "1.5"])
    assert code == 2
    assert out == ""
    assert "error" in err


def test_point_error_names_the_grid_point(capsys):
    code, out, err = run(capsys, ["value", "5", "-1", "3"])
    assert (code, out) == (2, "")
    assert err == ("error: at grid point x=-1: "
                   "quantity metric must be nonnegative\n")


@pytest.mark.parametrize("command", ["pcdf", "ppdf"])
def test_nan_point_exits_2(capsys, command):
    code, out, err = run(capsys, [command, "nan"])
    assert (code, out) == (2, "")
    assert err.startswith("error: at grid point s=nan: ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["value", "0", "--ref", "4", "--lambda-loss", "1e308"],
    ["pu-snr", "--ptn0", "10", "--ref", "4", "--lambda-loss", "1e308"],
    "mc",
])
def test_value_overflow_exits_2(tmp_path, capsys, argv):
    if argv == "mc":
        argv = ["sweep", scenario_file(
            tmp_path, axis={"name": "pt_over_n0", "grid": [10.0]},
            value_params={"alpha": 0.5, "lambda_gain": 1.0,
                          "lambda_loss": 1e308},
            mc={"samples": 1000, "seed": 0})]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: at grid point ")
    assert err.endswith(": perceived value overflows the float range\n")


@pytest.mark.parametrize("scale", ["1e160", "1e-200"])
def test_simulate_channel_scale_without_a_mean_gain_exits_2(capsys, scale):
    # scale**2 overflows to inf or underflows to 0
    code, out, err = run(capsys, ["simulate-channel", "--scale", scale,
                                  "--samples", "100"])
    assert (code, out) == (2, "")
    assert err == ("error: the mean gain scale**2 must be positive and "
                   f"finite, got scale {float(scale):g}\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code", [
    (["pcdf", "1e306", "--mu", "0.001"], 0),
    (["ppdf", "1e306", "--mu", "0.001"], 0),  # e^(-theta*s/mu) = 0
    (["simulate-channel", "--k-paths", "8", "--scale", "1e154"], 2),
    (["simulate-channel", "--k-paths", "1", "--scale", "1.3e154"], 2),
    ("mc-sweep", 0),
    (["ppdf", "745", "--theta", "0.01"], 0),  # -log F is subnormal
    # the branch not taken overflows; then the density itself does
    (["ppdf", "1", "--mu", "1e-300", "--gamma", "1e30", "--theta", "0.0001"],
     0),
    (["ppdf", "1e-320", "--mu", "1e-300", "--gamma", "0.01", "--theta",
      "0.0001"], 2),
    # gamma * (-log p)**theta overflows: w = 0
    (["weight", "1e-4", "--gamma", "1.7e308"], 0),
    (["pcdf", "0.01", "--gamma", "1.7e308"], 0),
    (["ppdf", "0.01", "--gamma", "1.7e308"], 0),
    (["pop", "--gamma", "1.7e308"], 0),
    ("mc-sweep-mu-1.7e308", 2),
    ("mc-sweep-ptn0-1e300", 2),
    ("sweep-ptn0-1e300", 2),
    ("mc-pop-sweep-gamma-1.7e308", 0),
])
def test_overflowing_intermediates_print_no_warning(tmp_path, capsys, argv,
                                                    code):
    mc = {"samples": 1000, "seed": 0}
    sweeps = {
        # z = ((-log u)/gamma)**(1/theta) overflows to inf for most draws
        "mc-sweep": {"weight_params": {"gamma": 0.001, "theta": 0.01},
                     "mc": {"samples": 100000, "seed": 0}},
        # the sampled gain -mu * log q overflows
        "mc-sweep-mu-1.7e308": {
            "mu": 1.7e308, "weight_params": {"gamma": 1.0, "theta": 0.3},
            "mc": mc},
        # the SNR rho * g overflows
        "mc-sweep-ptn0-1e300": {
            "axis": {"name": "pt_over_n0", "grid": [1e300]}, "mu": 1e10,
            "mc": mc},
        "sweep-ptn0-1e300": {
            "axis": {"name": "pt_over_n0", "grid": [1e300]}, "mu": 1e10},
        "mc-pop-sweep-gamma-1.7e308": {
            "metric": "pop", "epsilon": 1.0,
            "weight_params": {"gamma": 1.7e308, "theta": 0.8}, "mc": mc},
    }
    if isinstance(argv, str):
        argv = ["sweep", scenario_file(tmp_path, **sweeps[argv])]
    got, out, err = run(capsys, argv)
    assert got == code
    assert "Warning" not in err
    assert err.startswith("error:") if code else err == ""


@pytest.mark.parametrize("bad", [
    pytest.param({"epsilon": "abc"}, id="epsilon-text"),
    pytest.param({"budget": "x"}, id="budget-text"),
    pytest.param({"budget": float("inf")}, id="budget-1e400"),
    pytest.param({"mu": None}, id="mu-null"),
    pytest.param({"reference": None}, id="reference-null"),
    pytest.param({"weight_params": [1, 2]}, id="weight-params-list"),
    pytest.param({"value_params": [0.5]}, id="value-params-list"),
    pytest.param({"mc": 5}, id="mc-number"),
    pytest.param({"mc": {"samples": 10, "seed": -1}}, id="mc-seed-negative"),
    pytest.param({"mc": {"samples": float("inf")}}, id="mc-samples-1e400"),
    pytest.param({"axis": {"name": "pt_over_n0", "grid": ["a"]}},
                 id="grid-text"),
    pytest.param({"axis": {"name": "pt_over_n0", "grid": [[1]]}},
                 id="grid-list"),
    pytest.param({"value_params": {"alpha": "0.5", "lambda_gain": 1.0,
                                   "lambda_loss": 2.0}}, id="alpha-text"),
    pytest.param(["simulate-channel", "--seed", "-1", "--samples", "100"],
                 id="simulate-seed-negative"),
    # counts past 2**63 cannot size an array
    pytest.param({"mc": {"samples": 1e30}}, id="mc-samples-1e30"),
    pytest.param(["simulate-channel", "--samples", str(10**30)],
                 id="simulate-samples-1e30"),
    pytest.param(["simulate-channel", "--k-paths", str(10**30)],
                 id="simulate-k-paths-1e30"),
    # below 2**63, but its 16-byte complex draws are not
    pytest.param(["simulate-channel", "--samples", str(4 * 10**18)],
                 id="simulate-samples-4e18"),
    pytest.param({"metric": "weight_curve", "mc": {"samples": 10},
                  "axis": {"name": "p", "grid": [0.5]}},
                 id="mc-on-curve-metric"),
    # a count must be integral, and no field may be a boolean
    pytest.param({"budget": 100.7}, id="budget-fraction"),
    pytest.param({"mc": {"samples": 1000.5}}, id="mc-samples-fraction"),
    pytest.param({"mc": {"samples": 1000, "seed": 1.9}},
                 id="mc-seed-fraction"),
    pytest.param({"budget": True}, id="budget-true"),
    pytest.param({"reference": True}, id="reference-true"),
    pytest.param({"weight_params": {"gamma": 1.0, "theta": 0.8,
                                    "mode": "lenient"}}, id="mode-unknown"),
    pytest.param("[]", id="document-list"),  # a raw document
])
def test_malformed_input_exits_2(tmp_path, capsys, bad):
    if isinstance(bad, str):
        path = tmp_path / "scenario.json"
        path.write_text(bad)
        bad = ["sweep", str(path)]
    if isinstance(bad, dict):
        path = Path(scenario_file(tmp_path, **bad))
        # json writes inf as Infinity; a document overflows a float as 1e400
        path.write_text(path.read_text().replace("Infinity", "1e400"))
        bad = ["sweep", str(path)]
    code, out, err = run(capsys, bad)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


# --- whole documents, drawn ---------------------------------------------------

# valid values of every key; no draw can ask for a count that passes the
# checks yet samples for hours
GOOD = {"alpha": (0.15, 0.5, 0.88), "lambda_gain": (0.5, 1.0),
        "lambda_loss": (2.0, 3.25), "gamma": (0.5, 1.0, 2.0),
        "theta": (0.3, 0.65, 0.8), "reference": (0.0, 4.0), "mu": (0.5, 1.0),
        "pt_over_n0": (0.0, 1.0, 100.0), "epsilon": (0.5, 1.0),
        "tolerance": (1e-8, 1e-4), "budget": (100, 2000),
        "x": (0.0, 2.0, 6.0), "p": (0.0, 0.25, 1.0), "s": (0.5, 1.0, 3.0)}
# huge and tiny finite values, which a grid may also run between
HUGE = (1e300, 1e-300, 10**300)
# what may replace a value: a wrong type, a non-finite, out-of-range, huge
# or tiny number, a dropped key, or an unknown key beside it
ODD = (None, "1", [1.0], {"k": 1}, True, -1.0, 0, math.nan, math.inf,
       -math.inf, *HUGE, "drop", "typo")


def _slots(node):
    """(container, key) of every value in a document, nested ones too."""
    keys = range(len(node)) if isinstance(node, list) else list(node)
    out = []
    for k in keys:
        out.append((node, k))
        if isinstance(node[k], (dict, list)):
            out += _slots(node[k])
    return out


@st.composite
def documents(draw):
    """A valid document of a known or unknown metric, then up to three
    faults."""
    def pick(key):
        return draw(st.sampled_from(GOOD[key]))

    metric = draw(st.sampled_from(sorted(_AXES) + ["nope"]))
    name = draw(st.sampled_from(_AXES.get(metric, ("x",))))
    if draw(st.booleans()):
        grid = sorted(draw(st.sets(st.sampled_from(GOOD[name]), min_size=1,
                                   max_size=4)))
    else:  # up to 50 points, evenly or geometrically spaced
        lo, hi = sorted(float(x) for x in draw(st.lists(
            st.sampled_from(GOOD[name] + HUGE), min_size=2, max_size=2)))
        size = draw(st.integers(1, 50))
        grid = (np.geomspace if lo > 0.0 else np.linspace)(lo, hi,
                                                           size).tolist()
    doc = {"schema": SCHEMA, "metric": metric,
           "axis": {"name": name, "grid": grid},
           "value_params": {k: pick(k) for k in ("alpha", "lambda_gain",
                                                 "lambda_loss")},
           "weight_params": {k: pick(k) for k in ("gamma", "theta")}}
    doc.update((k, pick(k)) for k in ("reference", "mu", "pt_over_n0",
                                      "epsilon", "tolerance", "budget"))
    if draw(st.booleans()):
        doc["mc"] = {"samples": draw(st.sampled_from((2, 1000, 10**30))),
                     "seed": draw(st.sampled_from((0, 7)))}
    for _ in draw(st.lists(st.none(), max_size=3)):
        node, key = draw(st.sampled_from(_slots(doc)))
        odd = draw(st.sampled_from(ODD))
        if odd == "drop":
            del node[key]
        elif odd == "typo" and isinstance(node, dict):
            node["typo"] = 1
        else:
            node[key] = copy.deepcopy(odd)
    return doc


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


ONE_E30_SAMPLES = {
    "schema": SCHEMA, "metric": "pu_snr",
    "axis": {"name": "pt_over_n0", "grid": [1.0]},
    "value_params": {"alpha": 0.5, "lambda_gain": 1.0, "lambda_loss": 2.0},
    "weight_params": {"gamma": 1.0, "theta": 0.8}, "reference": 4.0,
    "mc": {"samples": 10**30, "seed": 0}}


# 46 powers from 1e-20 to 1e300: the upper ones cannot meet an absolute
# tolerance, and must give up at their roundoff floor, not at the budget
HUGE_POWERS = dict(ONE_E30_SAMPLES, axis={
    "name": "pt_over_n0", "grid": np.geomspace(1e-20, 1e300, 46).tolist()})
del HUGE_POWERS["mc"]


@settings(max_examples=150)
@given(doc=documents())
@example(doc=ONE_E30_SAMPLES)
@example(doc=dict(ONE_E30_SAMPLES, mc={"samples": 1000, "seed": 0}))
@example(doc=HUGE_POWERS)
@example(doc=dict(HUGE_POWERS, budget=10**300))
def test_any_document_exits_0_2_or_3_with_an_error_line(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in ("sweep", "cross-check"):
            code, _, err = run_in_process([command, path])
            assert code in (0, 2, 3), err
            if code:
                assert any(line.startswith("error:")
                           for line in err.splitlines()), err


def test_unknown_scenario_key_exits_2(tmp_path, capsys):
    path = scenario_file(tmp_path, typo_key=1)
    code, _, err = run(capsys, ["sweep", path])
    assert code == 2
    assert "typo_key" in err


def test_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, ["sweep", str(p)])
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("raw", [
    # json.load refuses an int literal of over 4300 digits
    b'{"schema": "percept-scenario/1", "reference": ' + b"1" * 5000 + b"}",
    b'{"schema": "percept-scenario/1", "metric": "\xff"}',  # not UTF-8
], ids=["overlong-int", "latin-1"])
def test_unreadable_json_exits_2(tmp_path, capsys, raw):
    p = tmp_path / "scenario.json"
    p.write_bytes(raw)
    code, out, err = run(capsys, ["sweep", str(p)])
    assert (code, out) == (2, "")
    assert err.startswith("error: scenario is not valid JSON: ")


def test_starved_budget_exits_3(tmp_path, capsys):
    path = scenario_file(tmp_path, budget=100)
    code, _, err = run(capsys, ["sweep", path])
    assert code == 3
    assert "at grid point pt_over_n0=1" in err


def test_missing_scenario_file_exits_4(capsys):
    code, _, err = run(capsys, ["sweep", "/no/such/scenario.json"])
    assert code == 4
    assert "neither a built-in preset" in err


def test_unwritable_out_exits_4(capsys):
    code, _, err = run(capsys, ["weight", "0.5", "--out",
                                "/no/such/dir/out.csv"])
    assert code == 4
    assert "error" in err


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 1.39 EiB",
     "error: out of memory: Unable to allocate 1.39 EiB\n"),
    ("", "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_memory_exhaustion_exits_4(monkeypatch, capsys, message, line):
    # a count that passes every check may still not fit in memory
    def exhaust(config, n):
        raise MemoryError(message)

    monkeypatch.setattr(percept.cli, "gain_samples", exhaust)
    got = run(capsys, ["simulate-channel", "--samples", str(10**17)])
    assert got == (4, "", line)


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --- sweep and cross-check ---------------------------------------------------------

def test_sweep_preset_fig3(capsys):
    code, out, _ = run(capsys, ["sweep", "fig3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "axis,value,err,n_eval"
    assert len(lines) == 52
    assert lines[1] == "0,0,0,1"
    assert lines[-1] == "1,1,0,1"


def test_sweep_scenario_file(tmp_path, capsys):
    path = scenario_file(tmp_path)
    code, out, _ = run(capsys, ["sweep", path])
    assert code == 0
    assert len(out.splitlines()) == 3


def test_cross_check_pass_exits_0(tmp_path, capsys):
    path = scenario_file(tmp_path, mc={"samples": 100000, "seed": 7})
    code, out, err = run(capsys, ["cross-check", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "axis,quad,mc,std_error,pass"
    assert len(lines) == 3
    assert all(line.endswith(",1") for line in lines[1:])
    assert err == ""


def test_cross_check_failure_exits_3(tmp_path, capsys):
    # two samples give an error bar too optimistic for this seed's draws
    path = scenario_file(tmp_path,
                         axis={"name": "pt_over_n0", "grid": [100.0]},
                         mc={"samples": 2, "seed": 4})
    code, out, err = run(capsys, ["cross-check", path])
    assert code == 3
    assert out.splitlines()[1].endswith(",0")
    assert "disagree" in err


# --- output file -------------------------------------------------------------------

def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["weight", "0.1", "0.5", "0.9"]
    _, stdout_text, _ = run(capsys, argv)
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, argv + ["--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == stdout_text


# --- channel simulation --------------------------------------------------------------

def test_simulate_channel_table(capsys):
    argv = ["simulate-channel", "--samples", "20000", "--seed", "0"]
    code, out, err = run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gain,empirical_cdf,model_cdf,abs_diff"
    assert len(lines) == 20
    for line in lines[1:]:
        gain, emp, model, diff = map(float, line.split(","))
        assert gain > 0.0
        assert abs(emp - model) == pytest.approx(diff, abs=1e-12)
        assert diff < 0.02
    assert "ks_statistic=" in err
    assert "k_paths=64" in err

    code2, out2, _ = run(capsys, argv)
    assert out2 == out
    _, out3, _ = run(capsys, ["simulate-channel", "--samples", "20000",
                              "--seed", "1"])
    assert out3 != out


# --- entry points -----------------------------------------------------------------------

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def checkout_env():
    """Environment whose PYTHONPATH puts the imported percept package first."""
    env = dict(os.environ)
    root = str(Path(percept.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [root, env.get("PYTHONPATH")]))
    return env


def assert_entry_runs(command, env=None):
    """Run two commands through an entry point: one valid, one rejected."""
    ok = subprocess.run(command + ["weight", "0.5", "--theta", "0.5"],
                        capture_output=True, text=True, timeout=60, env=env)
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.splitlines()[1] == "0.5,0.434936771576,0,1"
    # main()'s return value must reach the shell as the exit status
    bad = subprocess.run(command + ["weight", "0.5", "--theta", "1.5"],
                         capture_output=True, text=True, timeout=60, env=env)
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert "error:" in bad.stderr


def test_console_script_is_wired(tmp_path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "percept" in scripts
    ep = importlib.metadata.EntryPoint("percept", scripts["percept"],
                                       "console_scripts")
    assert callable(ep.load())
    # the launcher an installer writes for a console_scripts entry point
    launcher = tmp_path / "percept"
    launcher.write_text("import sys\n"
                        f"from {ep.module} import {ep.attr}\n"
                        "sys.argv[0] = 'percept'\n"
                        f"sys.exit({ep.attr}())\n")
    assert_entry_runs([sys.executable, str(launcher)], checkout_env())


def test_module_entry_runs():
    assert_entry_runs([sys.executable, "-m", "percept"], checkout_env())


@pytest.mark.skipif(shutil.which("percept") is None,
                    reason="percept console script not installed on PATH")
def test_installed_console_script_runs():
    assert_entry_runs([shutil.which("percept")])


# --- demos ------------------------------------------------------------------------------

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120, env=checkout_env())
    assert proc.returncode == 0, proc.stderr


# --- runtime dependencies ---------------------------------------------------------------

def test_import_loads_no_scipy():
    # percept depends on numpy alone: a fresh interpreter must not load scipy.
    # Nor does the import load concurrent.futures or start a thread: the
    # samplers start their threads per call, which keeps a cold start cheap.
    code = ("import sys, threading; before = threading.active_count(); "
            "import percept; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'concurrent')), "
            "threading.active_count() - before)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] 0"
