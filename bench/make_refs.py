"""Build ``bench/catalogue.json``: the benchmark's input pool and references.

Every input a workload can draw comes from this pool, and every PU grid
point and closed-form CLI value in it carries a 30-digit reference computed
here with mpmath from the model's defining formulas, never from the code
under test, so the benchmark's correctness check does not depend on it, and
computing references costs nothing at benchmark time. The program is run
once, after the references exist, only to record each PU scenario's
integrand evaluation count; workloads use that count to build rounds of
equal cost, which keeps run-to-run spread low.

Run from the repository root (about five minutes on one core):

    python3 bench/make_refs.py

The pool is drawn with a fixed seed from the typical behavioural ranges in
``RANGES``; workload seeds pick and order entries of the pool.
"""
from __future__ import annotations

import json
import math
import os
import random
import sys
import time

import mpmath as mp

CATALOGUE_SEED = 1912
SCHEMA = "percept-bench-catalogue/1"
SCENARIO_SCHEMA = "percept-scenario/1"
DIGITS = 30
mp.mp.dps = DIGITS + 5

N_QUAD = 320          # quad_sweep scenarios, QUAD_POINTS grid points each
QUAD_POINTS = 4
N_ORACLE = 96         # oracle cross-check scenarios, ORACLE_POINTS each
ORACLE_POINTS = 2
N_CLI_PER_KIND = 24   # cli_cold point commands per subcommand
CLI_POINTS = 3        # points per value/weight/pcdf/ppdf command

# (low, high, log-uniform?) for each drawn parameter
RANGES = {
    "alpha": (0.15, 0.9, False),
    "lambda_loss": (1.5, 3.5, False),
    "gamma": (0.5, 2.0, False),
    "theta": (0.5, 0.95, False),
    "reference": (0.5, 16.0, False),
    "mu": (0.5, 2.0, False),
    "pt_over_n0": (1.0, 1000.0, True),
    "epsilon": (0.5, 4.0, False),
}
PARAM_AXES = ("alpha", "lambda_loss", "gamma", "theta", "reference", "mu")
TOLERANCES = (1e-8, 1e-10)

# Preset inputs, copied from their documented definitions so that a preset
# whose values drift is caught as a wrong result.
PRESETS = {
    "fig2": ("value_curve", [round(0.25 * i, 2) for i in range(41)],
             {"alpha": 0.88, "lambda_loss": 2.25, "reference": 4.0}),
    "fig3": ("weight_curve", [round(0.02 * i, 2) for i in range(51)],
             {"gamma": 1.0, "theta": 0.65}),
    "fig5": ("pu_snr", [1, 2, 5, 10, 20, 50, 100, 200, 400, 1000],
             {"alpha": 0.15, "lambda_loss": 3.25, "gamma": 1.0, "theta": 0.8,
              "reference": 4.0, "mu": 1.0}),
    "fig6": ("pu_rate", [1, 2, 5, 10, 20, 50, 100, 200, 400, 1000],
             {"alpha": 0.5, "lambda_loss": 2.0, "gamma": 1.0, "theta": 0.8,
              "reference": 4.0, "mu": 1.0}),
    "fig7": ("ppdf", [round(0.05 + 0.12 * i, 2) for i in range(50)],
             {"gamma": 1.0, "theta": 0.65, "mu": 1.0}),
    "fig8": ("pop", [1, 2, 5, 10, 100, 1000],
             {"gamma": 1.0, "theta": 0.65, "mu": 1.0, "epsilon": 1.0}),
}


def _mpf(x: float):
    """The exact binary value of the double the program will parse."""
    return mp.mpf(float(x))


def _fmt(x) -> str:
    return mp.nstr(x, DIGITS)


def _draw(rng: random.Random, name: str) -> float:
    lo, hi, log = RANGES[name]
    x = (math.exp(rng.uniform(math.log(lo), math.log(hi))) if log
         else rng.uniform(lo, hi))
    return float(f"{x:.6g}")


def _grid(rng: random.Random, name: str, n: int) -> list:
    while True:
        g = sorted(_draw(rng, name) for _ in range(n))
        if all(b > a for a, b in zip(g, g[1:])):
            return g


# --- the model, in mpmath --------------------------------------------------

def value(x, ref, alpha, lambda_loss):
    d = x - ref
    return d ** alpha if d >= 0 else -lambda_loss * (-d) ** alpha


def weight(p, gamma, theta):
    if p == 0:
        return mp.mpf(0)
    return mp.exp(-gamma * (-mp.log(p)) ** theta)


def cdf(g, mu):
    return -mp.expm1(-g / mu)


def ppdf(s, gamma, theta, mu):
    f = cdf(s, mu)
    nl = -mp.log(f)
    return (gamma * theta * mp.exp(-gamma * nl ** theta) * nl ** (theta - 1)
            * mp.exp(-s / mu) / mu / f)


def pop(rho, epsilon, gamma, theta, mu):
    return weight(cdf((2 ** epsilon - 1) / rho, mu), gamma, theta)


def pu(metric, p):
    """PU = int_0^inf v(Omega(g(s)), ref) exp(-s) ds, split at the kink s*.

    g(s) is the gain whose perceived CDF is exp(-s); s* is the image of the
    gain g* at which the metric meets its reference.
    """
    rho, ref, mu = p["pt_over_n0"], p["reference"], p["mu"]
    alpha, ll = p["alpha"], p["lambda_loss"]
    gamma, theta = p["gamma"], p["theta"]
    log2 = mp.log(2)

    def omega(g):
        return rho * g if metric == "pu_snr" else mp.log1p(rho * g) / log2

    def h(s):
        z = (s / gamma) ** (1 / theta)
        g = -mu * mp.log(-mp.expm1(-z))
        return value(omega(g), ref, alpha, ll) * mp.exp(-s)

    g_star = ref / rho if metric == "pu_snr" else (2 ** ref - 1) / rho
    s_star = gamma * (-mp.log(cdf(g_star, mu))) ** theta
    return mp.quad(h, [0, s_star, mp.inf])


def pu_check(metric, p):
    """The same integral after the substitution q = exp(-s), for spot checks."""
    rho, ref, mu = p["pt_over_n0"], p["reference"], p["mu"]
    gamma, theta = p["gamma"], p["theta"]
    log2 = mp.log(2)

    def hq(q):
        if q >= 1:      # 1 - q below the working precision: s = 0
            return mp.mpf(0)
        z = (-mp.log(q) / gamma) ** (1 / theta)
        g = -mu * mp.log(-mp.expm1(-z))
        x = rho * g if metric == "pu_snr" else mp.log1p(rho * g) / log2
        return value(x, ref, p["alpha"], p["lambda_loss"])

    g_star = ref / rho if metric == "pu_snr" else (2 ** ref - 1) / rho
    q_star = weight(cdf(g_star, mu), gamma, theta)
    return mp.quad(hq, [0, q_star, 1])


# --- pool ------------------------------------------------------------------

def _scenario(rng, metric, axis, grid, tolerance):
    fixed = {k: _draw(rng, k) for k in PARAM_AXES + ("pt_over_n0",)}
    doc = {
        "schema": SCENARIO_SCHEMA, "metric": metric,
        "axis": {"name": axis, "grid": grid},
        "value_params": {"alpha": fixed["alpha"], "lambda_gain": 1.0,
                         "lambda_loss": fixed["lambda_loss"]},
        "weight_params": {"gamma": fixed["gamma"], "theta": fixed["theta"]},
        "reference": fixed["reference"], "mu": fixed["mu"],
        "pt_over_n0": fixed["pt_over_n0"], "tolerance": tolerance,
    }
    if axis in doc:     # parameter-object fields stay, the grid overrides
        del doc[axis]
    return doc, fixed


def _pu_refs(doc, fixed, checks):
    """References for each grid point; every 8th is recomputed by pu_check."""
    refs = []
    for x in doc["axis"]["grid"]:
        p = {k: _mpf(v) for k, v in fixed.items()}
        p[doc["axis"]["name"]] = _mpf(x)
        r = pu(doc["metric"], p)
        checks["points"] += 1
        if checks["points"] % 8 == 0:
            alt = pu_check(doc["metric"], p)
            checks["diffs"].append(float(abs(alt - r) / max(1, abs(r))))
        if not mp.isfinite(r):
            raise ArithmeticError(f"reference not finite for {doc}")
        refs.append(_fmt(r))
    return refs


def _pu_pool(rng, n, n_points, checks):
    """Scenarios stratified over metric, axis kind, tolerance and axis."""
    pool = []
    for i in range(n):
        metric = ("pu_snr", "pu_rate")[i % 2]
        axis = (PARAM_AXES[(i // 8) % len(PARAM_AXES)] if (i // 2) % 2
                else "pt_over_n0")
        tol = TOLERANCES[(i // 4) % 2]
        doc, fixed = _scenario(rng, metric, axis, _grid(rng, axis, n_points),
                               tol)
        pool.append({"doc": doc, "refs": _pu_refs(doc, fixed, checks)})
    return pool


def _preset_refs(name):
    metric, grid, prm = PRESETS[name]
    P = {k: _mpf(v) for k, v in prm.items()}
    out = []
    for x in grid:
        X = _mpf(x)
        if metric == "value_curve":
            r = value(X, P["reference"], P["alpha"], P["lambda_loss"])
        elif metric == "weight_curve":
            r = weight(X, P["gamma"], P["theta"])
        elif metric == "ppdf":
            r = ppdf(X, P["gamma"], P["theta"], P["mu"])
        elif metric == "pop":
            r = pop(X, P["epsilon"], P["gamma"], P["theta"], P["mu"])
        else:
            r = pu(metric, dict(P, pt_over_n0=X))
        out.append(_fmt(r))
    return out


def _arg(x: float) -> str:
    return repr(float(x))


def _cli_pool(rng):
    pool = []
    for kind in ("value", "weight", "pcdf", "ppdf", "pop", "pu-snr",
                 "pu-rate"):
        for _ in range(N_CLI_PER_KIND):
            d = {k: _draw(rng, k) for k in RANGES}
            P = {k: _mpf(v) for k, v in d.items()}
            if kind == "value":
                pts = sorted(round(rng.uniform(0.0, 20.0), 3)
                             for _ in range(CLI_POINTS))
                argv = [kind, *map(_arg, pts), "--alpha", _arg(d["alpha"]),
                        "--lambda-loss", _arg(d["lambda_loss"]),
                        "--ref", _arg(d["reference"])]
                refs = [value(_mpf(x), P["reference"], P["alpha"],
                              P["lambda_loss"]) for x in pts]
            elif kind == "weight":
                pts = [round(rng.uniform(0.001, 0.999), 4)
                       for _ in range(CLI_POINTS)]
                argv = [kind, *map(_arg, pts), "--gamma", _arg(d["gamma"]),
                        "--theta", _arg(d["theta"])]
                refs = [weight(_mpf(x), P["gamma"], P["theta"]) for x in pts]
            elif kind in ("pcdf", "ppdf"):
                pts = [float(f"{rng.uniform(0.05, 6.0) * d['mu']:.4g}")
                       for _ in range(CLI_POINTS)]
                argv = [kind, *map(_arg, pts), "--gamma", _arg(d["gamma"]),
                        "--theta", _arg(d["theta"]), "--mu", _arg(d["mu"])]
                fn = ((lambda s: weight(cdf(s, P["mu"]), P["gamma"],
                                        P["theta"]))
                      if kind == "pcdf" else
                      (lambda s: ppdf(s, P["gamma"], P["theta"], P["mu"])))
                refs = [fn(_mpf(x)) for x in pts]
            elif kind == "pop":
                argv = [kind, "--gamma", _arg(d["gamma"]), "--theta",
                        _arg(d["theta"]), "--mu", _arg(d["mu"]),
                        "--ptn0", _arg(d["pt_over_n0"]),
                        "--epsilon", _arg(d["epsilon"])]
                refs = [pop(P["pt_over_n0"], P["epsilon"], P["gamma"],
                            P["theta"], P["mu"])]
            else:
                tol = TOLERANCES[len(pool) % 2]
                argv = [kind, "--alpha", _arg(d["alpha"]), "--lambda-loss",
                        _arg(d["lambda_loss"]), "--gamma", _arg(d["gamma"]),
                        "--theta", _arg(d["theta"]),
                        "--ref", _arg(d["reference"]), "--mu", _arg(d["mu"]),
                        "--ptn0", _arg(d["pt_over_n0"]), "--tol", _arg(tol)]
                refs = [pu("pu_snr" if kind == "pu-snr" else "pu_rate", P)]
            pool.append({"argv": argv, "refs": [_fmt(r) for r in refs]})
    return pool


def _add_costs(pools) -> None:
    """Record each scenario's evaluation count under the current program."""
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from percept import run_scenario, scenario_from_dict
    from percept.errors import PerceptError, ToleranceNotMet
    for pool in pools:
        for entry in pool:
            try:
                rows = run_scenario(scenario_from_dict(entry["doc"]))
                entry["evals"] = sum(r.n_eval for r in rows)
            except ToleranceNotMet as exc:
                entry["evals"] = exc.evaluations
            except PerceptError:
                entry["evals"] = 0


def main() -> int:
    t0 = time.perf_counter()
    rng = random.Random(CATALOGUE_SEED)
    checks = {"points": 0, "diffs": []}
    quad = _pu_pool(rng, N_QUAD, QUAD_POINTS, checks)
    print(f"quad pool: {len(quad)} scenarios, "
          f"{time.perf_counter() - t0:.0f} s", file=sys.stderr)
    oracle = _pu_pool(rng, N_ORACLE, ORACLE_POINTS, checks)
    print(f"oracle pool: {len(oracle)} scenarios, "
          f"{time.perf_counter() - t0:.0f} s", file=sys.stderr)
    cli = _cli_pool(rng)
    presets = {name: _preset_refs(name) for name in sorted(PRESETS)}
    _add_costs((quad, oracle))
    worst = max(checks["diffs"])
    if worst > 1e-25:
        print(f"references disagree between substitutions: {worst:g}",
              file=sys.stderr)
        return 1
    doc = {
        "schema": SCHEMA,
        "generator": {"script": "bench/make_refs.py",
                      "catalogue_seed": CATALOGUE_SEED,
                      "digits": DIGITS, "mp_dps": mp.mp.dps,
                      "mpmath": mp.__version__,
                      "spot_checks": len(checks["diffs"]),
                      "spot_check_max_rel_diff": worst},
        "quad": quad, "oracle": oracle, "cli": cli, "presets": presets,
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "catalogue.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path} in {time.perf_counter() - t0:.0f} s; "
          f"max spot-check difference {worst:.3g}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
