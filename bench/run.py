"""percept benchmark: closed-loop workloads with every output checked.

Run from the repository root:

    python3 bench/run.py --workload quad_sweep --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24

Workloads are ``quad_sweep``, ``oracle`` and ``cli_cold`` (see
``bench/workloads.py``); ``all`` runs each in turn in a child process. One
client runs one op at a time, in whole rounds of a fixed mix, until the
round boundary nearest ``--seconds``; throughputs are medians over rounds,
which have equal cost by construction. Times are scaled to a reference
machine speed by a fixed probe timed after every op (see REF_PROBE_S).
Every op's output is checked against the 30-digit references in
``bench/catalogue.json``; an op that raises, exits nonzero or returns a
value outside its bound counts as failed and is never dropped or retried.
The quad_sweep scenarios in ``bench/known_defects.json`` are held out of the
timed pool and re-run once per run, untimed, to show whether they still fail.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each op of
a fixed prefix of the workload twice, untraced and traced, and reports the
per-layer metrics, whose counts repeat exactly for a given seed, and the
tracing overhead.

Human-readable lines come first. The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts the ops whose check failed: a typed ``PerceptError``, a
nonzero exit, or an output outside its bound. ``correct`` is false when an
op crashed instead: an untyped exception, or an exit code outside the
documented 0/2/3/4. A result record
with machine and provenance metadata is written under ``bench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CATALOGUE = os.path.join(HERE, "catalogue.json")
RESULTS = os.path.join(HERE, "results")
PACKAGE = os.path.join(ROOT, "src", "percept")
WORKLOADS = ("quad_sweep", "oracle", "cli_cold")

SETUP_REPEATS = 5     # set-ups per run (this process plus fresh children)
IMPORT_REPEATS = 3    # fresh interpreters per import-time metric
TRACE_ROUNDS = {"quad_sweep": 2, "oracle": 4, "cli_cold": 8}
CHILD_TIMEOUT_S = 150
MAX_FAILURE_LINES = 5

# layer metrics that cannot be taken from outside the program, and why
UNMEASURED = {
    "metrics.pu (inside CLI children)":
        "cli_cold ops run in separate interpreters that cannot be wrapped; "
        "the traced run replays the commands in-process through cli.main",
    "metrics.pu integrand split":
        "the integrand is a closure inside pu_composite and scipy's quad is "
        "native code, so metrics.pu.self_s lumps QUADPACK, the closure and "
        "_gain_at together",
    "abs_error of cross_check points (untraced)":
        "cross_check reports no abs_error, so untraced runs check its "
        "quadrature values against the scenario tolerance; traced runs take "
        "metrics.pu.max_err_ratio from the wrapped pu_snr/pu_rate results",
    "per-layer memory":
        "peak RSS is only known per process, not per layer",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, run the warm-up op, print the set-up and "
                   "probe seconds and exit")
    return p.parse_args(argv)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _quantile(xs, q):
    """Linear-interpolation quantile of a nonempty list, q in [0, 1]."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# --- measurement -------------------------------------------------------------

# The host shares its cores with other machines' work, and for tens of
# seconds at a time runs the same code up to twice as slowly. A fixed probe
# that calls no percept code is timed after every op, and each op's time is
# scaled by REF_PROBE_S over the median probe time of the ops around it, so
# that the end-to-end timings read as at one reference speed. Raw wall-clock
# figures are printed and recorded beside them.
REF_PROBE_S = 1.4e-3   # the probe's time at reference speed
PROBE_REPEATS = 5      # probe timings that scale one set-up
SPEED_WINDOW = 4       # ops on each side whose probe times scale an op


def make_probe():
    """The fixed probe: scalar float arithmetic and small numpy reductions."""
    import math

    import numpy as np
    xs = np.linspace(0.1, 3.0, 4096)

    def probe():
        s = 0.0
        for i in range(1500):
            x = 0.5 + i * 1e-3
            s += math.exp(-x) * x ** 0.7 - math.log1p(x)
        for _ in range(20):
            s += float(np.sum(np.exp(-xs) * xs ** 0.7))
        return s
    return probe


def probe_median_s(probe, repeats=PROBE_REPEATS):
    """Median time of ``repeats`` probe calls, after one untimed call."""
    probe()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t0)
    return _median(times)


def speed_scales(probe_s):
    """Per-op factor that turns a measured time into one at reference speed."""
    return [REF_PROBE_S / _median(probe_s[max(0, i - SPEED_WINDOW):
                                          i + SPEED_WINDOW + 1])
            for i in range(len(probe_s))]


def run_ops(ops, runner, probe=None):
    """Run ops once, in order; returns per-op latencies and outcomes.

    With a ``probe``, it is timed after each op, outside the op's latency.
    """
    lat, outs, probe_s = [], [], []
    t_start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        out = runner(op)
        lat.append(time.perf_counter() - t0)
        outs.append(out)
        if probe is not None:
            t0 = time.perf_counter()
            probe()
            probe_s.append(time.perf_counter() - t0)
    return {"wall": time.perf_counter() - t_start, "lat": lat, "outs": outs,
            "probe_s": probe_s}


def measure(rounds, seconds, runner):
    """Whole rounds until the round boundary nearest ``seconds``.

    Besides all latencies, probe times and outcomes, returns each round's op
    count and completed points, so rates can be taken as medians over rounds.
    """
    lat, outs, probe_s, per_round = [], [], [], []
    probe = make_probe()
    probe()
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if per_round and elapsed + _median(
                [r["wall"] for r in per_round]) / 2 > seconds:
            break
        res = run_ops(rounds[len(per_round) % len(rounds)], runner, probe)
        lat += res["lat"]
        outs += res["outs"]
        probe_s += res["probe_s"]
        per_round.append({"wall": res["wall"], "ops": len(res["outs"]),
                          "points": sum(o.points for o in res["outs"])})
    return {"wall": time.perf_counter() - t_start, "lat": lat, "outs": outs,
            "probe_s": probe_s, "rounds": per_round}


def timing_metrics(lat, rounds):
    """Rates as medians over rounds, and latency quantiles, from op times."""
    rates, points, k = [], [], 0
    for r in rounds:
        busy = sum(lat[k:k + r["ops"]])
        k += r["ops"]
        rates.append(r["ops"] / busy)
        points.append(r["points"] / busy)
    lat_ms = [x * 1e3 for x in lat]
    return {
        "ops_per_s": (_median(rates), "1/s"),
        "points_per_s": (_median(points), "1/s"),
        "latency_ms_p50": (_quantile(lat_ms, 0.5), "ms"),
        "latency_ms_p90": (_quantile(lat_ms, 0.9), "ms"),
    }


def paired_pass(ops, runner, tracer):
    """Run each op untraced and traced, in alternating order.

    Drift in machine speed then cancels out of the overhead estimate. The
    tracer records only the traced runs, so its counts cover each op once.
    Returns (untraced seconds, traced seconds, traced outcomes).
    """
    plain_s = traced_s = 0.0
    outs = []
    for i, op in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.op = i
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = runner(op)
            finally:
                dt = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            if traced:
                traced_s += dt
                outs.append(out)
            else:
                plain_s += dt
    return plain_s, traced_s, outs


def summarise(res):
    outs = res["outs"]
    failures = [f"op {k}: {o.detail}" for k, o in enumerate(outs) if not o.ok]
    return {
        "attempted": len(outs),
        "failed": len(failures),
        "crashed": sum(1 for o in outs if o.crashed),
        "failures": failures,
        "points": sum(o.points for o in outs),
        "z_scores": [z for o in outs for z in o.z_scores],
        "child_maxrss_kb": max((o.maxrss_kb for o in outs), default=0),
    }


def child_json(argv, env=None):
    """Run a fresh interpreter and parse the JSON on its last stdout line."""
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[:3]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# metric -> (untimed statement, timed statement), each in a fresh interpreter
IMPORTS = {
    "percept.import_numpy_s": ("pass", "import numpy"),
    "percept.import_scipy_s": ("import numpy",
                               "import scipy.integrate, scipy.optimize"),
    "percept.import_s": ("pass", "import percept"),
}


def import_times(env):
    """Median fresh-interpreter import times of numpy, scipy and percept."""
    out = {}
    for name, (before, timed) in IMPORTS.items():
        code = (f"import json, time; {before}; t = time.perf_counter(); "
                f"{timed}; print(json.dumps(time.perf_counter() - t))")
        out[name] = (_median([child_json(["-c", code], env)
                              for _ in range(IMPORT_REPEATS)]), "s")
    return out


# --- provenance --------------------------------------------------------------

def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest():
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def metadata(args, cat):
    import numpy
    import scipy
    from importlib.metadata import PackageNotFoundError, version
    try:
        mpmath_version = version("mpmath")
    except PackageNotFoundError:
        mpmath_version = "absent"
    return {
        "workload": args.workload, "seed": args.seed,
        "traced": bool(args.trace), "seconds": args.seconds,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath_version,
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "catalogue_seed": cat["generator"]["catalogue_seed"],
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# --- the two kinds of run ----------------------------------------------------

def untraced_run(args, rounds, runner, setup):
    res = measure(rounds, args.seconds, runner)
    s = summarise(res)
    if args.workload == "cli_cold":
        rss_kb = s["child_maxrss_kb"]
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # (set-up seconds, probe seconds right after it), each scaled alike
    setups = [setup] + [
        tuple(child_json([os.path.abspath(__file__), "--workload",
                          args.workload, "--seed", str(args.seed),
                          "--setup-only"]))
        for _ in range(SETUP_REPEATS - 1)]
    scales = speed_scales(res["probe_s"])
    metrics = timing_metrics([t * f for t, f in zip(res["lat"], scales)],
                             res["rounds"])
    raw = timing_metrics(res["lat"], res["rounds"])
    raw["setup_s"] = (_median([t for t, _ in setups]), "s")
    metrics.update({
        "setup_s": (_median([t * REF_PROBE_S / p for t, p in setups]), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    })
    extra = {
        "error_rate": s["failed"] / s["attempted"],
        "latency_samples": len(res["lat"]),
        "raw_wall_clock": {k: v for k, (v, _) in raw.items()},
        "speed_scale_median": _median(scales),
        "latencies_ms": [t * 1e3 for t in res["lat"]],
        "probe_ms": [t * 1e3 for t in res["probe_s"]],
        "rounds": res["rounds"],
        "measured_s": res["wall"],
        "setup_samples_s": [t for t, _ in setups],
        "setup_probe_ms": [p * 1e3 for _, p in setups],
        "points": s["points"],
    }
    return s, metrics, extra


def traced_run(args, rounds, runner, cat):
    import tracing
    import workloads

    ops = [op for r in rounds[:TRACE_ROUNDS[args.workload]] for op in r]
    if args.workload == "cli_cold":
        # child interpreters cannot be traced: replay through cli.main
        runner = workloads.Runner(ROOT, cli_in_process=True)
    tracer = tracing.Tracer()
    plain_s, traced_s, outs = paired_pass(ops, runner, tracer)
    s = summarise({"outs": outs})
    metrics = tracing.layer_metrics(
        tracer, {i: workloads.pu_refs(op) for i, op in enumerate(ops)},
        s["z_scores"])
    metrics["trace.overhead_pct"] = ((traced_s - plain_s) / plain_s * 100.0,
                                     "%")
    metrics.update(import_times(workloads.src_env(ROOT)))
    cli_ops = [op for r in workloads.make_rounds(
        "cli_cold", args.seed, cat)[:TRACE_ROUNDS["cli_cold"]] for op in r]
    cli_pass = run_ops(cli_ops, workloads.Runner(ROOT, cli_in_process=True))
    metrics["cli.main_ms"] = (cli_pass["wall"] / len(cli_ops) * 1e3, "ms")
    extra = {
        "error_rate": s["failed"] / s["attempted"],
        "traced_ops": len(ops), "untraced_s": plain_s, "traced_s": traced_s,
        "unmeasured": UNMEASURED,
    }
    return s, metrics, extra, tracing.span_records(tracer)


def recheck_defects(cat, runner):
    """Run each held-out scenario of known_defects.json once, untimed.

    They count in neither ``attempted`` nor ``failed``; this shows on every
    quad_sweep run whether each defect is still there.
    """
    import workloads
    found = []
    for index, op in workloads.known_defect_ops(cat):
        out = runner(op)
        found.append({"index": index, "still_fails": not out.ok,
                      "detail": out.detail})
    return found


def write_record(args, record, spans=None):
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if spans is not None:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for sp in spans:
                fh.write(json.dumps(sp) + "\n")
    return stem + ".json"


def run_all(args):
    """Each workload in a child process, one after another."""
    results = {}
    for w in WORKLOADS:
        argv = [os.path.abspath(__file__), "--workload", w, "--seed",
                str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{w}] {line}")
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[w] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no percept package at {PACKAGE}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if not os.path.isfile(CATALOGUE):
        print(f"error: reference catalogue {CATALOGUE} is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # set-up: from before `import percept` to just before the first timed op
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import percept  # noqa: F401
    import workloads
    cat = workloads.load_catalogue(CATALOGUE)
    rounds = workloads.make_rounds(args.workload, args.seed, cat)
    runner = workloads.Runner(ROOT)
    runner(workloads.warmup_op(args.workload, cat))
    setup_s = time.perf_counter() - t0
    setup = (setup_s, probe_median_s(make_probe()))
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    meta = metadata(args, cat)
    spans = None
    if args.trace:
        s, metrics, extra, spans = traced_run(args, rounds, runner, cat)
    else:
        s, metrics, extra = untraced_run(args, rounds, runner, setup)
    defects = (recheck_defects(cat, runner)
               if args.workload == "quad_sweep" else [])
    record = {"meta": meta, "attempted": s["attempted"],
              "failed": s["failed"], "failures": s["failures"],
              "known_defects": defects, **extra,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    path = write_record(args, record, spans)

    print("meta " + json.dumps(meta))
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(f"{'error_rate':42s} {extra['error_rate']:14.6g} fraction "
          f"({s['failed']} of {s['attempted']} ops)")
    if not args.trace:
        print(f"{'latency_samples':42s} {extra['latency_samples']:14d} count")
        print(f"times above are at reference speed; this run's speed scale "
              f"was {extra['speed_scale_median']:.4g} (median), and its raw "
              f"wall-clock figures were:")
        for name, value in extra["raw_wall_clock"].items():
            print(f"{'raw ' + name:42s} {value:14.6g} {metrics[name][1]}")
    else:
        for what, why in UNMEASURED.items():
            print(f"not measured: {what}: {why}")
    for d in defects:
        state = ("still fails: " + d["detail"] if d["still_fails"] else
                 "passes now; delete it from bench/known_defects.json")
        print(f"known defect quad[{d['index']}], held out of the timed "
              f"pool: {state}")
    for line in s["failures"][:MAX_FAILURE_LINES]:
        print(f"failed {line}")
    if s["failed"] > MAX_FAILURE_LINES:
        print(f"... and {s['failed'] - MAX_FAILURE_LINES} more failed ops "
              f"(see {os.path.relpath(path, ROOT)})")
    print(json.dumps({
        "correct": s["attempted"] > 0 and s["crashed"] == 0,
        "attempted": s["attempted"], "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
