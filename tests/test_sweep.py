"""Scenario parsing, sweep evaluation, cross-checks, CSV rendering, presets."""
import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from percept import (ConstraintViolation, DomainError, McConfig, OutageSpec,
                     PerceptError, ToleranceNotMet, ValueParams, WeightParams,
                     cross_check, cross_check_csv, load_scenario, pop,
                     preset_scenario, pu_rate, pu_snr, run_scenario,
                     scenario_from_dict, sweep_csv, weight)
from percept.sweep import (_AXES, PRESETS, SCHEMA, CrossCheckRow, Scenario,
                           SweepRow)
from support import (AXIS_ERRORS, POP_AXES, POP_AXIS_ERRORS, VP, WP, doc,
                     link, pop_doc)

WEIGHT_SNAPSHOT = ("axis,value,err,n_eval\n"
                   "0,0,0,1\n"
                   "0.25,0.308075615116,0,1\n"
                   "0.5,0.434936771576,0,1\n"
                   "0.75,0.584873308832,0,1\n"
                   "1,1,0,1\n")


def weight_curve_doc():
    return {
        "schema": SCHEMA,
        "metric": "weight_curve",
        "axis": {"name": "p", "grid": [0.0, 0.25, 0.5, 0.75, 1.0]},
        "weight_params": {"gamma": 1.0, "theta": 0.5},
    }


# --- document validation ------------------------------------------------------

def test_rejects_wrong_schema():
    with pytest.raises(DomainError, match="schema"):
        scenario_from_dict(doc(schema="percept-scenario/2"))


def test_rejects_unknown_keys_at_every_level():
    with pytest.raises(DomainError, match="unknown key.*extra"):
        scenario_from_dict(doc(extra=1))
    with pytest.raises(DomainError, match="axis"):
        scenario_from_dict(doc(axis={"name": "pt_over_n0", "grid": [1.0],
                                     "step": 2}))
    with pytest.raises(DomainError, match="value_params"):
        scenario_from_dict(doc(value_params={"alpha": 0.5, "lambda_gain": 1.0,
                                             "lambda_loss": 2.0, "beta": 1}))
    with pytest.raises(DomainError, match="mc"):
        scenario_from_dict(doc(mc={"samples": 10, "stream": 3}))


def test_rejects_bad_metric_and_axis():
    with pytest.raises(DomainError, match="metric"):
        scenario_from_dict(doc(metric="pu_latency"))
    with pytest.raises(DomainError, match="axis"):
        scenario_from_dict(doc(axis={"name": "bandwidth", "grid": [1.0]}))
    wc = weight_curve_doc()
    wc["axis"] = {"name": "x", "grid": [0.5]}
    with pytest.raises(DomainError, match="axis"):
        scenario_from_dict(wc)


def test_axes_are_the_fields_each_metric_reads():
    pu = {"pt_over_n0", "alpha", "lambda_gain", "lambda_loss", "gamma",
          "theta", "reference", "mu"}
    assert set(_AXES["pu_snr"]) == set(_AXES["pu_rate"]) == pu
    assert set(_AXES["pop"]) == {"pt_over_n0", "epsilon", "gamma", "theta",
                                 "mu"}
    assert _AXES["ppdf"] == ("s",)
    for metric in ("pcdf", "pop", "pu_rate"):
        axes = _AXES[metric]
        with pytest.raises(DomainError, match=re.escape(
                f"{metric} axis must be one of {axes}, got 'lambda'")):
            scenario_from_dict(doc(metric=metric, epsilon=1.0,
                                   axis={"name": "lambda", "grid": [1.0]}))


LIBRARY_SCENARIOS = [
    (lambda: Scenario("nope", "x", (1.0,)), "metric must be one of"),
    (lambda: Scenario("pu_snr", "bogus", (1.0,), VP, WP, 4.0,
                      pt_over_n0=10.0), "pu_snr axis must be one of"),
    (lambda: Scenario("pu_snr", "pt_over_n0", (1.0,), weight_params=WP,
                      reference=4.0), "metric pu_snr requires value_params"),
    (lambda: Scenario("pu_snr", "alpha", (0.5,), weight_params=WP,
                      reference=4.0, pt_over_n0=10.0),
     "metric pu_snr requires value_params"),
    (lambda: Scenario("weight_curve", "p", (0.5,)),
     "metric weight_curve requires weight_params"),
]


@pytest.mark.parametrize("build, message", LIBRARY_SCENARIOS,
                         ids=["metric", "axis", "required", "block-axis",
                              "curve-required"])
def test_library_scenarios_are_checked_like_documents(build, message):
    with pytest.raises(DomainError, match=f"^{message}"):
        run_scenario(build())


@pytest.mark.parametrize("metric", ["value_curve", "weight_curve", "pcdf",
                                    "ppdf"])
def test_mc_config_on_a_curve_metric_is_rejected(metric):
    d = doc(metric=metric, axis={"name": _AXES[metric][0], "grid": [0.5]},
            mc={"samples": 100})
    with pytest.raises(DomainError, match=f"^mc requires .*got '{metric}'"):
        scenario_from_dict(d)
    del d["mc"]
    with pytest.raises(DomainError, match="^mc requires"):
        dataclasses.replace(scenario_from_dict(d), mc=McConfig(100))


@pytest.mark.parametrize("block, field, x", [
    ("value_params", "alpha", 0.3), ("value_params", "lambda_gain", 0.5),
    ("value_params", "lambda_loss", 3.0), ("weight_params", "gamma", 0.7),
    ("weight_params", "theta", 0.6)])
def test_a_swept_block_field_replaces_its_placeholder(block, field, x):
    swept = scenario_from_dict(doc(axis={"name": field, "grid": [x]},
                                   pt_over_n0=10.0))
    fixed = doc(axis={"name": "pt_over_n0", "grid": [10.0]})
    fixed[block] = dict(fixed[block], **{field: x})
    (row,) = run_scenario(swept)
    (want,) = run_scenario(scenario_from_dict(fixed))
    assert (row.axis, row.value, row.err, row.n_eval) == (
        x, want.value, want.err, want.n_eval)
    # the placeholder is still required
    del fixed[block][field]
    fixed["axis"] = {"name": field, "grid": [x]}
    with pytest.raises(DomainError, match=f"{block} missing key.s.: {field}"):
        scenario_from_dict(fixed)


def test_rejects_bad_grids():
    with pytest.raises(DomainError, match="nonempty"):
        scenario_from_dict(doc(axis={"name": "pt_over_n0", "grid": []}))
    with pytest.raises(DomainError, match="increasing"):
        scenario_from_dict(doc(axis={"name": "pt_over_n0",
                                     "grid": [1.0, 1.0, 2.0]}))
    with pytest.raises(DomainError, match="increasing"):
        scenario_from_dict(doc(axis={"name": "pt_over_n0", "grid": [2.0, 1.0]}))


@pytest.mark.parametrize("over, message", [
    ({"budget": 100.7}, "budget must be an integer, got 100.7"),
    ({"mc": {"samples": 1000.5}}, "mc.samples must be an integer"),
    ({"mc": {"samples": 1000, "seed": 1.9}}, "mc.seed must be an integer"),
    ({"budget": True}, "budget must be a number, got True"),
    ({"reference": True}, "reference must be a number, got True"),
    ({"value_params": {"alpha": False, "lambda_gain": 1.0,
                       "lambda_loss": 2.0}}, "value_params.alpha must be"),
])
def test_rejects_fractional_counts_and_booleans_naming_the_key(over,
                                                               message):
    with pytest.raises(DomainError, match=re.escape(message)):
        scenario_from_dict(doc(**over))


def test_integral_float_counts_are_counts():
    s = scenario_from_dict(doc(budget=1e5, mc={"samples": 1e3, "seed": 2.0}))
    assert (s.budget, s.mc.samples, s.mc.seed) == (100000, 1000, 2)
    assert all(type(x) is int for x in (s.budget, s.mc.samples, s.mc.seed))


def test_rejects_missing_required_params():
    d = doc()
    del d["weight_params"]
    with pytest.raises(DomainError, match="weight_params"):
        scenario_from_dict(d)
    d = doc()
    del d["value_params"]
    with pytest.raises(DomainError, match="value_params"):
        scenario_from_dict(d)
    pd = {"schema": SCHEMA, "metric": "pop",
          "axis": {"name": "pt_over_n0", "grid": [1.0]},
          "weight_params": {"gamma": 1.0, "theta": 0.65}}
    with pytest.raises(DomainError, match="epsilon"):
        scenario_from_dict(pd)
    with pytest.raises(DomainError, match="samples"):
        scenario_from_dict(doc(mc={"seed": 1}))


def test_axis_field_may_be_omitted_from_fixed_params():
    d = doc(axis={"name": "reference", "grid": [1.0, 4.0]}, pt_over_n0=10.0)
    del d["reference"]
    s = scenario_from_dict(d)
    assert s.reference is None
    assert len(run_scenario(s)) == 2


def test_param_constraints_apply_at_parse_time():
    with pytest.raises(ConstraintViolation):
        scenario_from_dict(doc(value_params={
            "alpha": 1.5, "lambda_gain": 1.0, "lambda_loss": 2.0}))


def test_load_scenario_round_trip(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(weight_curve_doc()))
    s = load_scenario(str(p))
    assert s.metric == "weight_curve"
    assert s.grid == (0.0, 0.25, 0.5, 0.75, 1.0)


# --- sweep evaluation -----------------------------------------------------------

def test_weight_curve_rows_match_closed_form():
    rows = run_scenario(scenario_from_dict(weight_curve_doc()))
    wp = WeightParams(1.0, 0.5)
    assert [r.axis for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    for r in rows:
        assert r.value == weight(r.axis, wp)
        assert r.err == 0.0
        assert r.n_eval == 1


def test_classical_pu_snr_sweep_tracks_mean_snr():
    s = scenario_from_dict(doc(
        value_params={"alpha": 1.0, "lambda_gain": 1.0, "lambda_loss": 1.0,
                      "mode": "permissive"},
        weight_params={"gamma": 1.0, "theta": 1.0, "mode": "permissive"},
        reference=0.0))
    rows = run_scenario(s)
    for r in rows:
        assert r.value == pytest.approx(r.axis, rel=1e-6)
        assert r.err <= s.tolerance
        assert r.n_eval >= 1


def test_pop_sweep_single_point():
    s = scenario_from_dict({
        "schema": SCHEMA, "metric": "pop",
        "axis": {"name": "pt_over_n0", "grid": [1.0]},
        "weight_params": {"gamma": 1.0, "theta": 1.0, "mode": "permissive"},
        "epsilon": 1.0, "mu": 1.0})
    (row,) = run_scenario(s)
    assert row.value == pytest.approx(0.63212055882855768, abs=1e-14)


POP_MC_SNAPSHOT = ("axis,value,err,n_eval\n"
                   "1,0.547343369526,0.00112770542289,100000\n"
                   "10,0.175342027194,0.000824127421379,100000\n")


def test_pop_mc_rows_estimate_the_closed_form():
    d = {"schema": SCHEMA, "metric": "pop",
         "axis": {"name": "pt_over_n0", "grid": [1.0, 10.0]},
         "weight_params": {"gamma": 1.0, "theta": 0.65}, "epsilon": 1.0}
    exact = run_scenario(scenario_from_dict(d))
    rows = run_scenario(scenario_from_dict(
        dict(d, mc={"samples": 100000, "seed": 3})))
    assert sweep_csv(rows) == POP_MC_SNAPSHOT
    for r, e in zip(rows, exact):
        assert abs(r.value - e.value) <= 5.0 * r.err


@pytest.mark.parametrize("mu, samples, seed, bar", [
    (1.0, 2, 9, 0.34540478614),
    (1e308, 100, 0, 0.0670572012211),
], ids=["two-samples", "huge-mu"])
def test_pop_mc_bar_stays_positive_with_no_observed_outage(mu, samples, seed,
                                                           bar):
    # p-hat = 0 at both points (seed 9 is the smallest that draws no outage
    # in two samples at mu = 1): the bar is the distance to the upper
    # weighted z = 1 Wilson bound, w(1/(n+1)), not 0
    d = {"schema": SCHEMA, "metric": "pop",
         "axis": {"name": "pt_over_n0", "grid": [1.0, 10.0]},
         "weight_params": {"gamma": 1.0, "theta": 0.65}, "epsilon": 1.0,
         "mu": mu}
    exact = run_scenario(scenario_from_dict(d))
    rows = run_scenario(scenario_from_dict(
        dict(d, mc={"samples": samples, "seed": seed})))
    for r, e in zip(rows, exact):
        assert r.value == 0.0
        assert r.err == pytest.approx(bar, rel=1e-10)
        assert abs(r.value - e.value) <= 3.0 * r.err


def test_parameter_axis_substitutes_per_point():
    s = scenario_from_dict(doc(axis={"name": "alpha", "grid": [0.3, 0.5, 0.8]},
                               pt_over_n0=10.0))
    rows = run_scenario(s)
    for r in rows:
        direct = pu_snr(link(10.0), 4.0, ValueParams(r.axis, 1.0, 2.0), WP)
        assert r.value == direct.value


def test_point_failures_carry_grid_context():
    s = scenario_from_dict(doc(axis={"name": "alpha", "grid": [0.5, 1.0]},
                               pt_over_n0=10.0))
    with pytest.raises(ConstraintViolation, match="at grid point alpha=1"):
        run_scenario(s)
    try:
        run_scenario(s)
    except ConstraintViolation as exc:
        assert exc.constraint == "concavity"


def test_starved_budget_surfaces_tolerance_failure():
    # the first program (411 nodes) leaves 5.9e-10; 1e-10 needs 819
    s = scenario_from_dict(doc(axis={"name": "pt_over_n0", "grid": [1.0]},
                               tolerance=1e-10, budget=600))
    with pytest.raises(ToleranceNotMet,
                       match="at grid point pt_over_n0=1") as exc:
        run_scenario(s)
    assert exc.value.evaluations > 0


# the fixed fields of doc(pt_over_n0=10.0), each of which a PU sweep may
# take as axis, and a grid for each axis
PU_FIXED = {"alpha": 0.5, "lambda_gain": 1.0, "lambda_loss": 2.0,
            "gamma": 1.0, "theta": 0.8, "reference": 4.0, "mu": 1.0,
            "pt_over_n0": 10.0}
PU_GRIDS = [
    ("pt_over_n0", [0.0, 1.0, 10.0, 100.0]),   # power 0: all loss
    ("reference", [0.0, 1.0, 4.0, 16.0]),      # reference 0: all gain
    ("alpha", [0.2, 0.5, 0.88]), ("lambda_gain", [0.25, 1.0, 1.5]),
    ("lambda_loss", [1.5, 2.25, 3.25]), ("gamma", [0.5, 1.0, 2.0]),
    ("theta", [0.3, 0.65, 0.9]), ("mu", [0.5, 1.0, 3.0]),
]


@pytest.mark.parametrize("metric, fn", [("pu_snr", pu_snr),
                                        ("pu_rate", pu_rate)])
@pytest.mark.parametrize("axis, grid", PU_GRIDS)
def test_batched_points_match_points_run_alone(metric, fn, axis, grid):
    # each point has its own budget, which the batch as a whole exceeds;
    # a later point must build its own objects, none of an earlier one's
    assert sorted(a for a, _ in PU_GRIDS) == sorted(_AXES[metric])
    s = scenario_from_dict(doc(metric=metric, pt_over_n0=10.0, budget=2000,
                               axis={"name": axis, "grid": grid}))
    rows = run_scenario(s)
    assert [r.axis for r in rows] == grid
    for r in rows:
        p = dict(PU_FIXED, **{axis: r.axis})
        alone = fn(link(p["pt_over_n0"], p["mu"]),
                   p["reference"], ValueParams(p["alpha"], p["lambda_gain"],
                                               p["lambda_loss"]),
                   WeightParams(p["gamma"], p["theta"]), budget=2000)
        assert (r.value.hex(), r.err.hex(), r.n_eval) == (
            alone.value.hex(), alone.abs_error.hex(),
            alone.evaluations), r.axis


def test_first_failing_point_is_reported():
    # alpha=0.5 misses its tolerance within 100 evaluations; alpha=1 lies
    # outside the strict box and fails when its objects are built
    s = scenario_from_dict(doc(axis={"name": "alpha", "grid": [0.5, 1.0]},
                               pt_over_n0=10.0, budget=100))
    with pytest.raises(ToleranceNotMet, match="at grid point alpha=0.5:"):
        run_scenario(s)


@pytest.mark.parametrize("later", [
    1e308,          # rho*g overflows to inf inside the quadrature
    float("inf"),   # what a document's 1e400 parses to; LinkBudget rejects it
])
def test_later_domain_error_does_not_hide_an_earlier_failure(later):
    axis = {"name": "pt_over_n0", "grid": [1.0, later]}
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError, match=re.escape(
                f"at grid point pt_over_n0={later:g}:")):
            run_scenario(scenario_from_dict(doc(axis=axis)))
        with pytest.raises(ToleranceNotMet,
                           match="at grid point pt_over_n0=1:"):
            run_scenario(scenario_from_dict(doc(axis=axis, budget=100)))


@pytest.mark.parametrize("metric", ["pu_snr", "pu_rate"])
@pytest.mark.parametrize("axis, grid, fixed, error", AXIS_ERRORS, ids=[
    f"{axis}-{'-'.join(fixed) or 'grid'}" for axis, _, fixed, _ in AXIS_ERRORS
])
def test_invalid_axis_values_and_fixed_fields_keep_their_errors(
        metric, axis, grid, fixed, error):
    s = scenario_from_dict(doc(metric=metric,
                               axis={"name": axis, "grid": grid},
                               **{"pt_over_n0": 10.0, **fixed}))
    with pytest.raises(PerceptError) as exc:
        run_scenario(s)
    assert repr(exc.value) == error


# the fixed fields of pop_doc(), each of which a pop sweep may take as axis
POP_FIXED = {"mu": 1.0, "pt_over_n0": 10.0, "epsilon": 1.0, "gamma": 1.0,
             "theta": 0.8}


@pytest.mark.parametrize("axis, grid", POP_AXES)
def test_pop_rows_match_direct_calls_on_every_axis(axis, grid):
    rows = run_scenario(scenario_from_dict(pop_doc(axis, grid)))
    assert [r.axis for r in rows] == grid
    for r in rows:
        p = dict(POP_FIXED, **{axis: r.axis})
        want = pop(link(p["pt_over_n0"], p["mu"]),
                   OutageSpec(p["epsilon"]), WeightParams(p["gamma"],
                                                          p["theta"]))
        assert (r.value.hex(), r.err, r.n_eval) == (want.hex(), 0.0, 1)


@pytest.mark.parametrize("axis, grid, fixed, error", POP_AXIS_ERRORS, ids=[
    f"{axis}-{'-'.join(fixed) or 'grid'}"
    for axis, _, fixed, _ in POP_AXIS_ERRORS])
def test_invalid_pop_axis_values_and_fixed_fields_keep_their_errors(
        axis, grid, fixed, error):
    with pytest.raises(PerceptError) as exc:
        run_scenario(scenario_from_dict(pop_doc(axis, grid, **fixed)))
    assert repr(exc.value) == error


def test_run_scenario_keeps_nothing_between_calls():
    # a guard against caches: a sweep's objects live for one call, and
    # each run shifts fig5's grid, so a cache keyed by value would grow
    fig5 = preset_scenario("fig5")

    def runs(first, stop):
        for k in range(first, stop):
            run_scenario(dataclasses.replace(
                fig5, grid=tuple(x * (1.0 + k / 1024) for x in fig5.grid)))

    runs(0, 10)
    tracemalloc.start()
    try:
        runs(10, 20)
        after_10 = tracemalloc.get_traced_memory()[0]
        runs(20, 210)
        after_200 = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after_200 - after_10 < 4096


def test_mc_rows_report_sampling_statistics():
    s = scenario_from_dict(doc(axis={"name": "pt_over_n0", "grid": [1.0, 10.0]},
                               mc={"samples": 20000, "seed": 3}))
    rows = run_scenario(s)
    for r in rows:
        assert r.n_eval == 20000
        assert r.err > 0.0
    assert rows == run_scenario(s)
    other = scenario_from_dict(doc(
        axis={"name": "pt_over_n0", "grid": [1.0, 10.0]},
        mc={"samples": 20000, "seed": 4}))
    assert rows != run_scenario(other)


def test_mc_points_use_independent_substreams():
    # identical parameters at two grid points must not share draws
    base = doc(axis={"name": "mu", "grid": [1.0, 1.0 + 1e-12]},
               pt_over_n0=10.0, mc={"samples": 5000, "seed": 0})
    rows = run_scenario(scenario_from_dict(base))
    assert rows[0].value != rows[1].value


# --- cross-check ----------------------------------------------------------------

def test_cross_check_requires_pu_metric_and_mc():
    with pytest.raises(DomainError, match="mc config"):
        cross_check(scenario_from_dict(doc()))
    pd = {"schema": SCHEMA, "metric": "pop",
          "axis": {"name": "pt_over_n0", "grid": [1.0]},
          "weight_params": {"gamma": 1.0, "theta": 0.65}, "epsilon": 1.0,
          "mc": {"samples": 100}}
    with pytest.raises(DomainError, match="pu_snr or pu_rate"):
        cross_check(scenario_from_dict(pd))


def test_cross_check_agrees_on_strict_parameters():
    s = scenario_from_dict(doc(mc={"samples": 200000, "seed": 7}))
    rows = cross_check(s)
    assert len(rows) == 3
    for r in rows:
        assert r.passed
        assert abs(r.quad - r.mc) <= 3.0 * r.std_error
    quad_only = run_scenario(dataclasses.replace(s, mc=None))
    assert [r.quad for r in rows] == [q.value for q in quad_only]


def test_cross_check_classical_identity():
    s = scenario_from_dict(doc(
        value_params={"alpha": 1.0, "lambda_gain": 1.0, "lambda_loss": 1.0,
                      "mode": "permissive"},
        weight_params={"gamma": 1.0, "theta": 1.0, "mode": "permissive"},
        reference=0.0, axis={"name": "pt_over_n0", "grid": [1.0, 10.0]},
        mc={"samples": 100000, "seed": 1}))
    assert all(r.passed for r in cross_check(s))


# --- CSV rendering ----------------------------------------------------------------

def test_sweep_csv_snapshot_and_stability():
    s = scenario_from_dict(weight_curve_doc())
    assert sweep_csv(run_scenario(s)) == WEIGHT_SNAPSHOT
    assert sweep_csv(run_scenario(s)) == sweep_csv(run_scenario(s))


def test_csv_formats_by_column():
    # each column has one format, whatever the type of a row's value: an
    # int axis prints as a float would, and a float count as a float
    assert sweep_csv([SweepRow(10**20, 2, 0.5, 7.0)]) == (
        "axis,value,err,n_eval\n1e+20,2,0.5,7.0\n")
    assert cross_check_csv([CrossCheckRow(3, 1, 1.25, 1e-13, False)]) == (
        "axis,quad,mc,std_error,pass\n3,1,1.25,1e-13,0\n")


def test_cross_check_csv_shape():
    s = scenario_from_dict(doc(axis={"name": "pt_over_n0", "grid": [10.0]},
                               mc={"samples": 50000, "seed": 7}))
    text = cross_check_csv(cross_check(s))
    lines = text.strip().split("\n")
    assert lines[0] == "axis,quad,mc,std_error,pass"
    assert len(lines) == 2
    assert lines[1].startswith("10,")
    assert lines[1].endswith(",1")


# --- presets ----------------------------------------------------------------------

def test_all_presets_parse_and_are_documented():
    for name in PRESETS:
        s = preset_scenario(name)
        assert isinstance(s, Scenario)
        assert len(s.grid) >= 1


def test_preset_fig4_parameters_are_pinned():
    s = preset_scenario("fig4")
    assert s.metric == "value_curve"
    assert s.value_params == ValueParams(0.5, 1.0, 2.0)
    assert s.reference == 4.0


def test_unknown_preset_is_rejected():
    with pytest.raises(DomainError, match="unknown preset"):
        preset_scenario("fig99")
