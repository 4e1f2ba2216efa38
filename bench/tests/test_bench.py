"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q bench/tests
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from percept import preset_scenario, run_scenario  # noqa: E402

CAT = workloads.load_catalogue(run.CATALOGUE)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a = workloads.inputs_bytes(workloads.make_rounds(workload, 7, CAT))
    b = workloads.inputs_bytes(workloads.make_rounds(workload, 7, CAT))
    assert a == b


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_different_seed_gives_different_inputs(workload):
    a = workloads.inputs_bytes(workloads.make_rounds(workload, 7, CAT))
    b = workloads.inputs_bytes(workloads.make_rounds(workload, 8, CAT))
    assert a != b


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_drawn_op_has_a_reference_per_output(workload):
    for rnd in workloads.make_rounds(workload, 3, CAT)[:5]:
        for op in rnd:
            if op.kind == "scenario" or op.kind == "cross_check":
                assert len(op.refs) == len(op.payload["doc"]["axis"]["grid"])
            elif op.kind == "gain_samples":
                assert op.refs == ()
            else:
                assert op.refs


def test_known_defects_are_held_out_but_not_lost():
    held = [d["index"] for d in CAT["known_defects"]]
    assert len(set(held)) == len(held)
    assert all(0 <= i < len(CAT["quad"]) for i in held)
    pool = workloads.quad_pool(CAT)
    assert len(pool) + len(held) == len(CAT["quad"])
    held_docs = {json.dumps(CAT["quad"][i]["doc"], sort_keys=True)
                 for i in held}
    drawn = {json.dumps(op.payload["doc"], sort_keys=True)
             for rnd in workloads.make_rounds("quad_sweep", 5, CAT)
             for op in rnd if op.kind == "scenario"}
    assert not drawn & held_docs
    assert len(drawn) == len(pool)     # every pool entry is drawn
    assert [i for i, _ in workloads.known_defect_ops(CAT)] == held


def test_value_perturbed_by_ten_errors_fails_the_check():
    rows = run_scenario(preset_scenario("fig5"))
    refs = CAT["presets"]["fig5"]
    good = workloads.Outcome()
    workloads.check_pu([r.value for r in rows], [r.err for r in rows], refs,
                       good)
    assert good.ok, good.detail
    for k, row in enumerate(rows):
        bad = workloads.Outcome()
        values = [r.value for r in rows]
        values[k] += 10.0 * row.err
        workloads.check_pu(values, [r.err for r in rows], refs, bad)
        assert not bad.ok


def test_closed_form_value_off_by_1e_10_fails_the_check():
    entry = next(e for e in CAT["cli"] if e["argv"][0] == "weight")
    code, text = workloads.run_cli_inprocess(entry["argv"])
    good = workloads.Outcome()
    workloads.check_csv(code, text, entry["refs"], False, good)
    assert good.ok, good.detail
    bad = workloads.Outcome()
    v = float(entry["refs"][0])
    workloads.check_closed([v * (1 + 1e-10)], entry["refs"][:1], bad)
    assert not bad.ok


def test_failing_op_is_counted_not_dropped():
    weight = next(e for e in CAT["cli"] if e["argv"][0] == "weight")
    good = workloads.Op("cli", {"argv": weight["argv"]}, tuple(weight["refs"]))
    bad_cli = workloads.Op("cli", {"argv": ["weight", "1.5"]}, ("0",))
    doc = dict(CAT["quad"][0]["doc"], value_params={
        "alpha": 1.5, "lambda_gain": 1.0, "lambda_loss": 2.0})
    bad_doc = workloads.Op("scenario", {"doc": doc}, CAT["quad"][0]["refs"])
    runner = workloads.Runner(ROOT, cli_in_process=True)
    res = run.run_ops([good, bad_cli, good, bad_doc], runner)
    s = run.summarise(res)
    assert s["attempted"] == 4 and len(res["lat"]) == 4
    assert s["failed"] == 2 and s["crashed"] == 0
    assert [o.ok for o in res["outs"]] == [True, False, True, False]


def test_measure_runs_whole_rounds_and_keeps_failures():
    weight = next(e for e in CAT["cli"] if e["argv"][0] == "weight")
    good = workloads.Op("cli", {"argv": weight["argv"]}, tuple(weight["refs"]))
    bad = workloads.Op("cli", {"argv": ["weight", "-1"]}, ("0",))
    runner = workloads.Runner(ROOT, cli_in_process=True)
    res = run.measure([[good, bad, good]], 0.05, runner)
    s = run.summarise(res)
    assert s["attempted"] == 3 * len(res["rounds"]) >= 3
    assert s["failed"] == len(res["rounds"])


def test_speed_scales_follow_the_probe():
    ref = run.REF_PROBE_S
    assert run.speed_scales([ref] * 5) == [1.0] * 5
    scales = run.speed_scales([ref] * 20 + [2 * ref] * 20)
    assert scales[0] == 1.0 and scales[-1] == 0.5


def test_crash_is_reported_as_not_correct():
    runner = workloads.Runner(ROOT, cli_in_process=True)
    out = runner(workloads.Op("no_such_kind", {}))
    assert not out.ok and out.crashed


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quad_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
