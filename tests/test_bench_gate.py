"""What the benchmark under bench/ relies on, checked in tier-1.

The mpmath catalogue (bench/catalogue.json, 30-digit references) is run
whole and judged by the bench's own rules: every quadrature point lies
within its reported abs_error of its reference, every CLI entry exits 0
with values within the bench's bounds, and so does every preset. The
integrand nodes the quadrature points take, and the array programs that
evaluate them, are pinned; one run of the quad scenarios gives the rows
judged and the counts pinned. The bench's tracer rebinds names of the
package at run time; its targets must still exist, and uninstalling it
must leave every binding as it was.
"""
import sys

import pytest

from percept import metrics
from percept.sweep import preset_scenario, run_scenario, scenario_from_dict
from support import CATALOGUE, ROOT, load

BENCH = ROOT / "bench"
workloads = load(BENCH / "workloads.py", "bench_workloads")


def _failures(ops):
    """(label, detail) of each op the bench's runner does not pass."""
    run = workloads.Runner(str(ROOT), cli_in_process=True)
    out = []
    for label, op in ops:
        outcome = run(op)
        if not outcome.ok:
            out.append((label, outcome.detail))
    return out


# integrand nodes of the 1280 quad points, in all and at most per point.
# The counts do not depend on the host, so a change to the engine has to
# state what it costs here.
QUAD_NODES, QUAD_NODES_MAX = 736_076, 819

# array programs (calls of metrics._terms) of fig5, of fig6 and of the 320
# quad scenarios: the first program takes levels 0 ... 3 at once, and each
# later level is one more
PRESET_PROGRAMS, QUAD_PROGRAMS = 1, 490


@pytest.fixture(scope="module")
def counted_runs():
    """Array programs of fig5, of fig6 and of the 320 quad scenarios, and
    the rows of each quad scenario, all read from one run of each."""
    calls = []

    def counted(*args):
        calls.append(None)
        return terms(*args)

    terms = metrics._terms
    programs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_terms", counted)
        for name in ("fig5", "fig6"):
            calls.clear()
            run_scenario(preset_scenario(name))
            programs[name] = len(calls)
        calls.clear()
        runs = [run_scenario(scenario_from_dict(e["doc"]))
                for e in CATALOGUE["quad"]]
        programs["quad"] = len(calls)
    return programs, runs


def test_every_quad_catalogue_point_is_within_its_abs_error(counted_runs):
    # the rows of the counted run, judged by the bench's own check
    _, runs = counted_runs
    assert len(runs) == 320
    assert sum(len(e["refs"]) for e in CATALOGUE["quad"]) == 1280
    failures = []
    for i, (e, rows) in enumerate(zip(CATALOGUE["quad"], runs)):
        out = workloads.Outcome()
        workloads.check_pu([r.value for r in rows], [r.err for r in rows],
                           e["refs"], out)
        if not out.ok:
            failures.append((f"quad[{i}]", out.detail))
    assert failures == []


def test_quad_catalogue_node_counts_are_pinned(counted_runs):
    _, runs = counted_runs
    counts = [row.n_eval for rows in runs for row in rows]
    assert (len(counts), sum(counts), max(counts)) == (
        1280, QUAD_NODES, QUAD_NODES_MAX)


def test_array_program_counts_are_pinned(counted_runs):
    programs, _ = counted_runs
    assert programs == {"fig5": PRESET_PROGRAMS, "fig6": PRESET_PROGRAMS,
                        "quad": QUAD_PROGRAMS}


def test_first_program_depth_keeps_every_bit(monkeypatch):
    # levels formed from the strided columns of one program give the bits
    # and node counts of the same levels run one program at a time
    scenarios = [preset_scenario("fig5"), preset_scenario("fig6"),
                 *(scenario_from_dict(e["doc"])
                   for e in CATALOGUE["quad"][::40])]

    def outputs(first):
        monkeypatch.setattr(metrics, "_FIRST", first)
        metrics._level_nodes.cache_clear()  # its layouts follow _FIRST
        return [[(r.value.hex(), r.err.hex(), r.n_eval)
                 for r in run_scenario(s)] for s in scenarios]

    try:
        assert outputs(2) == outputs(3)
    finally:
        monkeypatch.undo()
        metrics._level_nodes.cache_clear()


def test_every_cli_catalogue_entry_passes_the_bench_checks():
    ops = [(" ".join(e["argv"]), workloads.Op("cli", {"argv": e["argv"]},
                                              tuple(e["refs"])))
           for e in CATALOGUE["cli"]]
    assert len(ops) == 168
    assert _failures(ops) == []


def test_every_catalogue_preset_passes_the_bench_checks():
    # the bench runs fig5/fig6 in-process and the others through the CLI
    ops = [(name, workloads.Op("cli", {"argv": ["sweep", name]}, tuple(refs))
            if name in workloads.CLI_PRESETS
            else workloads.Op("preset", {"preset": name}, tuple(refs)))
           for name, refs in CATALOGUE["presets"].items()]
    assert sorted(name for name, _ in ops) == ["fig2", "fig3", "fig5",
                                               "fig6", "fig7", "fig8"]
    assert _failures(ops) == []


def _site(mod, attr):
    """(owner key, name) of a tracer target, a function or a method."""
    cls, _, name = attr.rpartition(".")
    return (f"{mod}.{cls}" if cls else mod), name


def _bindings(tracing):
    """{(owner key, attr): object} over every percept module and every
    class whose methods the tracer rebinds."""
    owners = {name: mod for name, mod in sys.modules.items()
              if name == "percept" or name.startswith("percept.")}
    for mod, attr, _ in tracing.LEAVES.values():
        cls = attr.rpartition(".")[0]
        if cls:
            owners[f"{mod}.{cls}"] = getattr(sys.modules[mod], cls)
    return {(key, attr): obj for key, owner in owners.items()
            for attr, obj in vars(owner).items()}


def test_tracer_targets_resolve_and_uninstall_restores_every_binding():
    tracing = load(BENCH / "tracing.py", "bench_tracing")
    before = _bindings(tracing)
    targets = [site for sites in tracing.SPANS.values() for site in sites]
    targets += [(mod, attr) for mod, attr, _ in tracing.LEAVES.values()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings(tracing)
        for mod, attr in targets:
            site = _site(mod, attr)
            assert during[site] is not before[site], (mod, attr)
    finally:
        tracer.uninstall()
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert [k for k, obj in before.items() if after[k] is not obj] == []
