"""Workload inputs, drawn from the catalogue by seed, and the per-op checks.

A workload is an endless sequence of rounds; a round is a fixed mix of
operation kinds whose order and parameters the seed draws. The program under
test receives only each op's ``payload``; the 30-digit references stay here.

Workloads (closed loop, one client, ops run one after another):

* ``quad_sweep``: ``run_scenario`` on PU scenarios of 4 grid points without
  an ``mc`` block, 16 of them per round (one from each cost band of the
  pool), plus the ``fig5`` or ``fig6`` preset in turn. Almost all time goes
  to the quadrature and its scalar callbacks. The scenarios listed in
  ``known_defects.json`` are held out of the pool and re-run once per run,
  untimed, by ``bench/run.py``.
* ``oracle``: three ``cross_check`` ops (2 points, 10^6 MC samples per point)
  and one ``gain_samples`` op (K in 48..80 paths, n = 6.4e6 / K draws) per
  round. Time goes to vectorised numpy in montecarlo, distributions and
  channel.
* ``cli_cold``: one ``python -m percept`` subprocess per op, three per
  round: a PU command (pu-snr or pu-rate, one point), a closed-form command
  (value, weight, pcdf, ppdf or pop) and one of the presets fig2, fig3, fig7
  and fig8, each kind taken in a seeded cycle. Every command costs about the
  same, so rounds stay short, a run holds about ten of them, and each round
  completes one PU point. Time goes to interpreter start and
  ``import percept``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from percept import channel, cli, sweep
from percept.errors import PerceptError

ROUNDS = {"quad_sweep": 200, "oracle": 200, "cli_cold": 96}
QUAD_PER_ROUND = 16
# The slowest kind of op in a round is under a quarter of its ops, so that
# latency_ms_p50 falls among the common ops and latency_ms_p90 among the
# slow ones instead of on the gap between them.
CROSS_CHECKS_PER_ROUND = 3
MC_SAMPLES = 1_000_000
PATH_DRAWS = 6_400_000   # K * n of each gain_samples op, K=64 x n=10^5
CLI_PU_KINDS = ("pu-snr", "pu-rate")
CLI_CLOSED_KINDS = ("value", "weight", "pcdf", "ppdf", "pop")
CLI_PRESETS = ("fig2", "fig3", "fig7", "fig8")
Z_LIMIT = 5.0        # MC and channel means: allowed standard errors
CLOSED_REL = 1e-12   # closed-form CLI values: allowed relative error
DOCUMENTED_EXITS = (0, 2, 3, 4)


@dataclass(frozen=True)
class Op:
    kind: str
    payload: dict
    refs: tuple = ()


@dataclass
class Outcome:
    ok: bool = True
    points: int = 0                 # PU grid points completed
    detail: str = ""
    z_scores: list = field(default_factory=list)     # MC |quad-mc| / se
    maxrss_kb: int = 0              # CLI child peak resident set
    crashed: bool = False           # untyped exception or undocumented exit


KNOWN_DEFECTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "known_defects.json")


def load_catalogue(path: str) -> dict:
    """The catalogue, with the held-out scenarios of known_defects.json."""
    with open(path, "r", encoding="utf-8") as fh:
        cat = json.load(fh)
    with open(KNOWN_DEFECTS, "r", encoding="utf-8") as fh:
        cat["known_defects"] = json.load(fh)["quad"]
    return cat


def quad_pool(cat: dict) -> list:
    """The quad_sweep scenarios a timed run draws from."""
    held_out = {d["index"] for d in cat["known_defects"]}
    return [e for i, e in enumerate(cat["quad"]) if i not in held_out]


def known_defect_ops(cat: dict) -> list:
    """(index, op) for each held-out scenario, in the listed order."""
    ops = []
    for d in cat["known_defects"]:
        e = cat["quad"][d["index"]]
        ops.append((d["index"],
                    Op("scenario", {"doc": e["doc"]}, tuple(e["refs"]))))
    return ops


def _perm(rng: random.Random, n: int):
    """Endless stream of indices, a fresh permutation of range(n) each pass."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield from order


def _strata(rng: random.Random, pool: list, k: int) -> list:
    """k index streams, one per band of the pool sorted by evaluation count.

    A round takes one entry from each band, so rounds cost about the same
    and a run's total work hardly depends on which entries the seed drew.
    """
    order = sorted(range(len(pool)), key=lambda i: (pool[i]["evals"], i))
    n = len(order)
    return [_cycle(rng, order[j * n // k:(j + 1) * n // k])
            for j in range(k)]


def _cycle(rng: random.Random, items: list):
    """Endless stream of ``items``, freshly shuffled on each pass."""
    for i in _perm(rng, len(items)):
        yield items[i]


def _cross_check_op(entry: dict, mc_seed: int) -> Op:
    doc = dict(entry["doc"], mc={"samples": MC_SAMPLES, "seed": mc_seed})
    return Op("cross_check", {"doc": doc}, tuple(entry["refs"]))


def warmup_op(workload: str, cat: dict) -> Op:
    """A fixed, seed-independent op run once, untimed, before measuring."""
    if workload == "quad_sweep":
        e = quad_pool(cat)[0]
        return Op("scenario", {"doc": e["doc"]}, tuple(e["refs"]))
    if workload == "oracle":
        return _cross_check_op(cat["oracle"][0], 0)
    e = cat["cli"][0]
    return Op("cli", {"argv": e["argv"]}, tuple(e["refs"]))


def make_rounds(workload: str, seed: int, cat: dict) -> list:
    """The workload's rounds for ``seed``; identical for identical seeds."""
    rng = random.Random(f"percept-bench/{workload}/{seed}")
    rounds = []
    if workload == "quad_sweep":
        pool = quad_pool(cat)
        picks = _strata(rng, pool, QUAD_PER_ROUND)
        for _ in range(ROUNDS[workload]):
            ops = [Op("scenario", {"doc": pool[i]["doc"]},
                      tuple(pool[i]["refs"]))
                   for i in (next(p) for p in picks)]
            preset = ("fig5", "fig6")[len(rounds) % 2]
            ops.append(Op("preset", {"preset": preset},
                          tuple(cat["presets"][preset])))
            rng.shuffle(ops)
            rounds.append(ops)
    elif workload == "oracle":
        picks = _strata(rng, cat["oracle"], CROSS_CHECKS_PER_ROUND)
        for _ in range(ROUNDS[workload]):
            ops = [_cross_check_op(cat["oracle"][next(p)],
                                   rng.randrange(2 ** 31)) for p in picks]
            k = rng.randint(48, 80)
            ops.append(Op("gain_samples", {
                "k_paths": k,
                "n": int(round(PATH_DRAWS / k, -3)),
                "scale": round(rng.uniform(0.5, 2.0), 4),
                "seed": rng.randrange(2 ** 31)}))
            rng.shuffle(ops)
            rounds.append(ops)
    elif workload == "cli_cold":
        by_kind = {k: [e for e in cat["cli"] if e["argv"][0] == k]
                   for k in CLI_PU_KINDS + CLI_CLOSED_KINDS}
        picks = {k: _cycle(rng, v) for k, v in by_kind.items()}
        pu_kinds = _cycle(rng, list(CLI_PU_KINDS))
        closed_kinds = _cycle(rng, list(CLI_CLOSED_KINDS))
        presets = _cycle(rng, list(CLI_PRESETS))
        for _ in range(ROUNDS[workload]):
            ops = [Op("cli", {"argv": e["argv"]}, tuple(e["refs"]))
                   for e in (next(picks[next(pu_kinds)]),
                             next(picks[next(closed_kinds)]))]
            p = next(presets)
            ops.append(Op("cli", {"argv": ["sweep", p]},
                          tuple(cat["presets"][p])))
            rng.shuffle(ops)
            rounds.append(ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return rounds


def pu_refs(op: Op) -> tuple:
    """References of the op's PU grid points, in evaluation order."""
    if op.kind in ("scenario", "preset", "cross_check") or (
            op.kind == "cli" and op.payload["argv"][0] in ("pu-snr",
                                                           "pu-rate")):
        return op.refs
    return ()


def inputs_bytes(rounds: list) -> bytes:
    """Canonical serialisation of what the program receives."""
    return json.dumps([[[op.kind, op.payload] for op in r] for r in rounds],
                      sort_keys=True).encode()


# --- checks ------------------------------------------------------------------

def _half_unit(printed: float) -> float:
    """Half a unit in the 12th significant digit, the CSV's rounding."""
    if printed == 0.0 or not math.isfinite(printed):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(printed))) - 11)


def check_pu(values, errs, refs, out: Outcome) -> None:
    """Each PU value must lie within its own reported bound of the reference."""
    if len(values) != len(refs):
        out.ok = False
        out.detail = f"{len(values)} rows for {len(refs)} references"
        return
    for i, (v, e, r) in enumerate(zip(values, errs, refs)):
        dev = abs(v - float(r))
        if not dev <= e:
            out.ok = False
            out.detail = (f"point {i}: |{v!r} - ref| = {dev:.3g} "
                          f"exceeds its bound {e:.3g}")


def check_closed(values, refs, out: Outcome) -> None:
    """CSV closed-form values: 1e-12 relative beyond the 12-digit rounding."""
    if len(values) != len(refs):
        out.ok = False
        out.detail = f"{len(values)} rows for {len(refs)} references"
        return
    for i, (v, r) in enumerate(zip(values, refs)):
        r = float(r)
        if not abs(v - r) <= CLOSED_REL * abs(r) + _half_unit(v):
            out.ok = False
            out.detail = f"row {i}: {v!r} vs reference {r!r}"


def check_csv(code: int, text: str, refs, pu: bool, out: Outcome) -> None:
    if code != 0:
        out.ok = False
        out.crashed = code not in DOCUMENTED_EXITS
        out.detail = f"exit code {code}"
        return
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    try:
        values = [float(r[1]) for r in rows]
        errs = [float(r[2]) for r in rows]
    except (IndexError, ValueError):
        out.ok = False
        out.detail = f"unparsable CSV: {text[:80]!r}"
        return
    if pu:
        # the printed bound is itself rounded to 12 digits
        check_pu(values, [e + _half_unit(v) + _half_unit(e)
                          for v, e in zip(values, errs)], refs, out)
        out.points = len(values)
    else:
        check_closed(values, refs, out)


def check_mean(gains: np.ndarray, expect: float, out: Outcome) -> None:
    se = float(gains.std(ddof=1)) / math.sqrt(gains.size)
    z = abs(float(gains.mean()) - expect) / se
    if not z <= Z_LIMIT:
        out.ok = False
        out.detail = f"gain mean {z:.2f} standard errors from {expect}"


# --- execution ---------------------------------------------------------------

def src_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli_child(argv, root: str, env: dict):
    """One ``python -m percept`` child; returns (code, stdout, maxrss_kb)."""
    proc = subprocess.Popen([sys.executable, "-m", "percept", *argv],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        # outputs are a few kilobytes, far below the pipe buffers
        stdout = proc.stdout.read()
        proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss


def run_cli_inprocess(argv):
    """``cli.main(argv)`` in this process; returns (code, stdout)."""
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:   # argparse rejects a command
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


class Runner:
    """Runs ops and checks their outputs against the references."""

    def __init__(self, root: str, cli_in_process: bool = False):
        self.root = root
        self.env = src_env(root)
        self.cli_in_process = cli_in_process

    def __call__(self, op: Op) -> Outcome:
        out = Outcome()
        try:
            self._run(op, out)
        except PerceptError as exc:
            out.ok = False
            out.detail = f"{type(exc).__name__}: {exc}"
        except Exception as exc:    # a crash is a failed op, never dropped
            out.ok = False
            out.crashed = True
            out.detail = f"crash {type(exc).__name__}: {exc}"
        if not out.ok:
            out.points = 0
        return out

    def _run(self, op: Op, out: Outcome) -> None:
        if op.kind in ("scenario", "preset"):
            sc = (sweep.scenario_from_dict(op.payload["doc"])
                  if op.kind == "scenario"
                  else sweep.preset_scenario(op.payload["preset"]))
            rows = sweep.run_scenario(sc)
            check_pu([r.value for r in rows], [r.err for r in rows],
                     op.refs, out)
            out.points = len(rows)
        elif op.kind == "cross_check":
            sc = sweep.scenario_from_dict(op.payload["doc"])
            rows = sweep.cross_check(sc)
            # cross_check reports no abs_error; its quadrature is certified
            # to the scenario's tolerance
            check_pu([r.quad for r in rows], [sc.tolerance] * len(rows),
                     op.refs, out)
            for r in rows:
                z = abs(r.quad - r.mc) / r.std_error
                out.z_scores.append(z)
                if not z <= Z_LIMIT:
                    out.ok = False
                    out.detail = f"MC mean {z:.2f} standard errors off"
            out.points = len(rows)
        elif op.kind == "gain_samples":
            p = op.payload
            gains = channel.gain_samples(
                channel.MultipathConfig(p["k_paths"], p["scale"], p["seed"]),
                p["n"])
            check_mean(gains, p["scale"] ** 2, out)
        elif op.kind == "cli":
            argv = op.payload["argv"]
            if self.cli_in_process:
                code, text = run_cli_inprocess(argv)
            else:
                code, text, out.maxrss_kb = run_cli_child(argv, self.root,
                                                          self.env)
            check_csv(code, text, op.refs, bool(pu_refs(op)), out)
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
