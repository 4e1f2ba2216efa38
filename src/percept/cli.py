"""Command-line front end.

Every subcommand prints CSV to stdout (or to --out) so results pipe
directly into plotting or diffing tools. Exit codes: 0 on success, 2 on
a validation error, 3 when a numerical tolerance or cross-check fails,
4 on an I/O error or when memory runs out.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from .channel import MultipathConfig, gain_samples
from .distributions import ExponentialGain
from .errors import PerceptError, ToleranceNotMet
from .metrics import DEFAULT_BUDGET, DEFAULT_TOL
from .sweep import (_CROSS_CHECK_Z, _CURVE_AXIS, _METRIC_FIELDS,
                    _NUMBER_KEYS, _PARAMS, PRESETS, Scenario, _csv,
                    cross_check, cross_check_csv, load_scenario,
                    preset_scenario, run_scenario, sweep_csv)

_QUANTILE_STEP = 0.05
# the point commands: (name, metric, help)
_POINT_COMMANDS = (
    ("value", "value_curve", "two-part value function at given points"),
    ("weight", "weight_curve", "probability weighting at given points"),
    ("pcdf", "pcdf", "perceived CDF of the channel gain"),
    ("ppdf", "ppdf", "perceived density of the channel gain"),
    ("pu-snr", "pu_snr", "perceptual utility of the instantaneous SNR"),
    ("pu-rate", "pu_rate", "perceptual utility of the transmission rate"),
    ("pop", "pop", "perceptual outage probability"),
)
# the flags that set each scenario field: (dest, default, help); the flag
# is --dest with dashes, a parameter block's dests are its field names, and
# each flag takes its field's type, float unless _NUMBER_KEYS says otherwise
_FLAGS = {
    "value_params": (
        ("alpha", 0.5, "diminishing-sensitivity exponent (default 0.5)"),
        ("lambda_gain", 1.0, "gain-side scale (default 1)"),
        ("lambda_loss", 2.0, "loss-side scale (default 2)")),
    "weight_params": (
        ("gamma", 1.0, "weighting distortion scale (default 1)"),
        ("theta", 0.8, "weighting curvature in (0,1) (default 0.8)")),
    "reference": (("ref", 4.0, "reference point (default 4)"),),
    "mu": (("mu", 1.0, "average channel gain (default 1)"),),
    "pt_over_n0": (("ptn0", 100.0,
                    "transmit power to noise ratio (default 100)"),),
    "epsilon": (("epsilon", 1.0, "rate threshold in bits/s/Hz (default 1)"),),
    "tolerance": (("tol", DEFAULT_TOL, "absolute quadrature tolerance"),),
    "budget": (("budget", DEFAULT_BUDGET, "integrand evaluation budget"),),
}


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _resolve_scenario(name: str):
    if name in PRESETS:
        return preset_scenario(name)
    try:
        return load_scenario(name)
    except FileNotFoundError as exc:
        raise FileNotFoundError(
            f"{name!r} is neither a built-in preset "
            f"({', '.join(sorted(PRESETS))}) nor a readable scenario file"
        ) from exc


def _point_scenario(args) -> Scenario:
    """A point command is a one-scenario sweep over its points.

    The grid is the positional points, in the given order and with
    repeats, or the single --ptn0 of pop and pu-*.
    """
    grid = tuple(args.points) if "points" in args else (args.ptn0,)
    fixed = {}
    for field in _METRIC_FIELDS[args.metric]:
        vals = {dest: getattr(args, dest) for dest, *_ in _FLAGS[field]}
        if field in _PARAMS:
            fixed[field] = _PARAMS[field](**vals, mode=args.mode)
        else:
            (fixed[field],) = vals.values()
    return Scenario(args.metric, args.axis, grid, **fixed)


def _cmd_sweep(args) -> int:
    """The sweep of a preset, a scenario file or a point command."""
    scenario = (_point_scenario(args) if "metric" in args
                else _resolve_scenario(args.scenario))
    _emit(sweep_csv(run_scenario(scenario)), args.out)
    return 0


def _cmd_cross_check(args) -> int:
    rows = cross_check(_resolve_scenario(args.scenario))
    _emit(cross_check_csv(rows), args.out)
    failed = sum(not r.passed for r in rows)
    if not failed:
        return 0
    print(f"error: {failed} of {len(rows)} grid points disagree beyond "
          f"{_CROSS_CHECK_Z:g} standard errors", file=sys.stderr)
    return 3


def _cmd_simulate_channel(args) -> int:
    config = MultipathConfig(args.k_paths, args.scale, args.seed)
    law = ExponentialGain(args.scale * args.scale)
    gains = np.sort(gain_samples(config, args.samples))
    n = gains.size

    # Empirical CDF against the exponential limit law, at the law's own
    # quantiles (where the model CDF is the probability by construction).
    probs = np.arange(1, int(1.0 / _QUANTILE_STEP)) * _QUANTILE_STEP
    grid = law.inverse_cdf(probs)
    empirical = np.searchsorted(gains, grid, side="right") / n
    _emit(_csv("gain,empirical_cdf,model_cdf,abs_diff", (".12g",) * 4,
               zip(grid, empirical, probs, np.abs(empirical - probs))),
          args.out)

    model = law.cdf(gains)
    steps = np.arange(1, n + 1) / n
    ks = float(np.max(np.maximum(steps - model, model - (steps - 1.0 / n))))
    print(f"ks_statistic={ks:.6g} samples={n} k_paths={args.k_paths} "
          f"scale={args.scale:g}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="percept",
        description="Perceptual QoS metrics for Rayleigh fading links.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, metric, helptext in _POINT_COMMANDS:
        p = sub.add_parser(name, help=helptext)
        axis = _CURVE_AXIS.get(metric, "pt_over_n0")
        if metric in _CURVE_AXIS:
            p.add_argument("points", type=float, nargs="+",
                           metavar=axis.upper())
        for field in _METRIC_FIELDS[metric]:
            for dest, default, flag_help in _FLAGS[field]:
                p.add_argument("--" + dest.replace("_", "-"),
                               type=_NUMBER_KEYS.get(field, float),
                               default=default, help=flag_help)
        p.add_argument("--mode", choices=("strict", "permissive"),
                       default="strict", help="parameter validation mode")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write CSV here instead of stdout")
        p.set_defaults(func=_cmd_sweep, metric=metric, axis=axis)

    presets = "presets: " + "; ".join(
        f"{k}: {PRESETS[k][0]}" for k in sorted(PRESETS))
    for name, func, helptext, epilog in (
            ("sweep", _cmd_sweep,
             "run a sweep scenario (preset name or JSON file)", presets),
            ("cross-check", _cmd_cross_check,
             "quadrature vs Monte Carlo on a PU scenario with mc config",
             None)):
        p = sub.add_parser(name, help=helptext, epilog=epilog)
        p.add_argument("scenario", help="preset name or scenario file path")
        p.add_argument("--out", metavar="PATH", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser(
        "simulate-channel",
        help="multipath gain samples vs the exponential limit law")
    p.add_argument("--k-paths", type=int, default=64, dest="k_paths",
                   help="number of propagation paths (default 64)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="total amplitude scale; mean gain is scale**2")
    p.add_argument("--samples", type=int, default=100_000,
                   help="number of channel draws (default 100000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_simulate_channel)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PerceptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ToleranceNotMet) else 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # numpy names the allocation; a list may not
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
