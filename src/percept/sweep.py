"""Scenario-driven parameter sweeps with CSV output.

A scenario is a small JSON document (or a built-in preset) selecting one
metric, a sweep axis with its grid, and the fixed parameters. Sweeps emit
one row per grid point in axis order; output is byte-stable for a fixed
scenario and seed so runs can be diffed and snapshotted.
"""
from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import ExponentialGain, PerceptualDistribution
from .errors import ConstraintViolation, DomainError, PerceptError, ToleranceNotMet
from .metrics import (DEFAULT_BUDGET, DEFAULT_TOL, LinkBudget, OutageSpec,
                      _point, pop, pu_batch, rate_metric, snr_metric)
from .montecarlo import McConfig, mc_pop, mc_pu
from .prospect import ValueParams, WeightParams, as_reference, value, weight

SCHEMA = "percept-scenario/1"
# a cross-check point passes within this many Monte Carlo standard errors
_CROSS_CHECK_Z = 3.0

# the scenario fields each metric reads, in the order of its CLI flags;
# a field whose Scenario default is None is required unless it is the axis
_METRIC_FIELDS = {
    "value_curve": ("value_params", "reference"),
    "weight_curve": ("weight_params",),
    "pcdf": ("weight_params", "mu"),
    "ppdf": ("weight_params", "mu"),
    "pu_snr": ("value_params", "weight_params", "reference", "mu",
               "pt_over_n0", "tolerance", "budget"),
    "pu_rate": ("value_params", "weight_params", "reference", "mu",
                "pt_over_n0", "tolerance", "budget"),
    "pop": ("weight_params", "mu", "pt_over_n0", "epsilon"),
}

_CURVE_AXIS = {"value_curve": "x", "weight_curve": "p", "pcdf": "s", "ppdf": "s"}
# the parameter blocks, each keyed by the numeric fields of its class
_PARAMS = {"value_params": ValueParams, "weight_params": WeightParams}
_KEYS = {block: tuple(f.name for f in dataclasses.fields(cls)
                      if f.name != "mode") for block, cls in _PARAMS.items()}
# the axes each metric may sweep: its curve coordinate, or the fields it
# reads but the quadrature controls, a parameter block as its keys
_AXES = {metric: (_CURVE_AXIS[metric],) if metric in _CURVE_AXIS else
         sum((_KEYS.get(field, (field,)) for field in fields
              if field not in ("tolerance", "budget")), ())
         for metric, fields in _METRIC_FIELDS.items()}
_MC_METRICS = ("pu_snr", "pu_rate", "pop")

# top-level numeric keys, each with the type it is coerced to
_NUMBER_KEYS = {"reference": float, "mu": float, "pt_over_n0": float,
                "epsilon": float, "tolerance": float, "budget": int}
_TOP_KEYS = ({"schema", "metric", "axis", "mc"} | set(_PARAMS)
             | set(_NUMBER_KEYS))


@dataclass(frozen=True)
class Scenario:
    """A sweep of one metric along one axis, checked when built."""

    metric: str
    axis_name: str
    grid: tuple
    value_params: Optional[ValueParams] = None
    weight_params: Optional[WeightParams] = None
    reference: Optional[float] = None
    mu: float = 1.0
    pt_over_n0: Optional[float] = None
    epsilon: Optional[float] = None
    tolerance: float = DEFAULT_TOL
    budget: int = DEFAULT_BUDGET
    mc: Optional[McConfig] = None

    def __post_init__(self):
        if self.metric not in tuple(_AXES):  # by ==, so a list is unknown
            raise DomainError(f"metric must be one of {tuple(_AXES)}, "
                              f"got {self.metric!r}")
        axes = _AXES[self.metric]
        if self.axis_name not in axes:
            raise DomainError(f"{self.metric} axis must be one of {axes}, "
                              f"got {self.axis_name!r}")
        for field in _METRIC_FIELDS[self.metric]:
            if getattr(self, field) is None and self.axis_name != field:
                raise DomainError(f"metric {self.metric} requires {field}")
        if self.mc is not None and self.metric not in _MC_METRICS:
            raise DomainError(f"mc requires a metric in {_MC_METRICS}, "
                              f"got {self.metric!r}")


@dataclass(frozen=True)
class SweepRow:
    axis: float
    value: float
    err: float
    n_eval: int


@dataclass(frozen=True)
class CrossCheckRow:
    axis: float
    quad: float
    mc: float
    std_error: float
    passed: bool


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    """Require ``d`` to be a JSON object holding only ``allowed`` keys."""
    if not isinstance(d, dict):
        raise DomainError(f"{where} must be a JSON object, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise DomainError(
            f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _number(x, key: str, cast=float):
    """A JSON number coerced by ``cast``; a DomainError naming ``key``.

    Strings, null, booleans, lists and objects are rejected, and so are
    numbers the cast cannot hold: an int of inf or nan, or of a fraction.
    """
    if type(x) not in (float, int) and (isinstance(x, bool)
                                        or not isinstance(x, numbers.Real)):
        raise DomainError(f"{key} must be a number, got {x!r}")
    try:
        out = cast(x)
    except (OverflowError, ValueError):
        raise DomainError(f"{key} must be a finite number, got {x!r}") from None
    if cast is int and out != x:
        raise DomainError(f"{key} must be an integer, got {x!r}")
    return out


def _parse_params(d: dict, block: str):
    cls, keys = _PARAMS[block], _KEYS[block]
    _reject_unknown(d, set(keys) | {"mode"}, block)
    missing = [k for k in keys if k not in d]
    if missing:
        raise DomainError(f"{block} missing key(s): {', '.join(missing)}")
    return cls(**{k: v if k == "mode" else _number(v, f"{block}.{k}")
                  for k, v in d.items()})


def scenario_from_dict(doc: dict) -> Scenario:
    """Parse and validate one scenario document."""
    if not isinstance(doc, dict):
        raise DomainError("scenario must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise DomainError(
            f"scenario schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    _reject_unknown(doc, _TOP_KEYS, "scenario")

    axis = doc.get("axis")
    if not isinstance(axis, dict):
        raise DomainError("scenario requires an axis object")
    _reject_unknown(axis, {"name", "grid"}, "axis")
    name = axis.get("name")
    grid = axis.get("grid")
    if not isinstance(grid, (list, tuple)) or len(grid) == 0:
        raise DomainError("axis grid must be a nonempty list")
    grid = tuple(_number(g, f"axis.grid[{i}]") for i, g in enumerate(grid))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("axis grid must be strictly increasing")

    params = {b: _parse_params(doc[b], b) for b in _PARAMS if b in doc}
    mc = None
    if "mc" in doc:
        _reject_unknown(doc["mc"], {"samples", "seed"}, "mc")
        if "samples" not in doc["mc"]:
            raise DomainError("mc config requires a samples count")
        mc = McConfig(samples=_number(doc["mc"]["samples"], "mc.samples", int),
                      seed=_number(doc["mc"].get("seed", 0), "mc.seed", int))

    fixed = {k: _number(doc[k], k, cast)
             for k, cast in _NUMBER_KEYS.items() if k in doc}
    return Scenario(metric=doc.get("metric"), axis_name=name, grid=grid,
                    mc=mc, **params, **fixed)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:  # bad syntax or encoding, an int literal over 4300 digits,
            doc = json.load(fh)  # or arrays or objects nested too deep
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)


def _with_point(exc: PerceptError, axis_name: str, x: float) -> PerceptError:
    note = f"at grid point {axis_name}={x:g}"
    if isinstance(exc, ToleranceNotMet):
        return ToleranceNotMet(f"{note}: {exc}", value=exc.value,
                               abs_error=exc.abs_error,
                               evaluations=exc.evaluations)
    if isinstance(exc, ConstraintViolation):
        return ConstraintViolation(exc.constraint, f"{note}: {exc.detail}")
    return DomainError(f"{note}: {exc}")


def _point_seeds(seed: int, count: int):
    """Independent per-point substream seeds with fixed assignment."""
    return [int(ss.generate_state(1, dtype=np.uint64)[0])
            for ss in np.random.SeedSequence(seed).spawn(count)]


def _eval_point(s: Scenario, x: float, mc_seed: Optional[int]):
    """The row of a closed-form or Monte Carlo point; for a quadrature
    point, its metric's ``of`` and its row for :func:`pu_batch`.

    The axis value is substituted once: a parameter block holding the axis
    is rebuilt first, which checks the value; a field that is the axis
    reads ``x``. Each object is built, and so checked, in the order below.
    """
    metric, axis = s.metric, s.axis_name
    if metric == "value_curve":
        return SweepRow(x, value(x, s.reference, s.value_params), 0.0, 1)
    if metric == "weight_curve":
        return SweepRow(x, weight(x, s.weight_params), 0.0, 1)
    vp, wp = (dataclasses.replace(getattr(s, block), **{axis: x})
              if axis in _KEYS[block] else getattr(s, block)
              for block in ("value_params", "weight_params"))

    def at(name: str):
        return x if name == axis else getattr(s, name)

    channel = ExponentialGain(at("mu"))
    if metric in _CURVE_AXIS:  # pcdf or ppdf
        pd = PerceptualDistribution(channel, wp)
        return SweepRow(x, getattr(pd, metric)(x), 0.0, 1)
    link = LinkBudget(at("pt_over_n0"), channel)
    config = None if s.mc is None else McConfig(s.mc.samples, mc_seed)
    if metric == "pop":
        spec = OutageSpec(at("epsilon"))
        if config is None:
            return SweepRow(x, pop(link, spec, wp), 0.0, 1)
        est = mc_pop(link, spec, wp, config)
    else:
        ref = as_reference(at("reference"))
        composite = (snr_metric if metric == "pu_snr"
                     else rate_metric)(link, ref)
        if config is None:
            return composite.of, _point(composite, at("mu"), vp, wp)
        est = mc_pu(composite, PerceptualDistribution(channel, wp), vp, config)
    return SweepRow(x, est.mean, est.std_error, est.samples)


def run_scenario(s: Scenario) -> list:
    """Evaluate the selected metric at every grid point, in axis order.

    PU metrics run the quadrature engine, all grid points in one batch,
    and pop its closed form, unless the scenario carries an mc config, in
    which case the metric's Monte Carlo estimator is used and rows report
    its standard error and sample count instead. The error raised is that
    of the first failing grid point; an invalid field other than the axis
    fails the first one.
    """
    seeds = (_point_seeds(s.mc.seed, len(s.grid)) if s.mc is not None
             else [None] * len(s.grid))
    rows = []
    for x, seed in zip(s.grid, seeds):
        try:
            rows.append(_eval_point(s, x, seed))
        except PerceptError as exc:
            rows.append(exc)
            break  # only a quadrature point before it can fail first
    quad = [i for i, r in enumerate(rows) if isinstance(r, tuple)]
    if quad:
        results = pu_batch(rows[quad[0]][0], [rows[i][1] for i in quad],
                           s.tolerance, s.budget)
        for i, res in zip(quad, results):
            rows[i] = (res if isinstance(res, PerceptError) else
                       SweepRow(s.grid[i], res.value, res.abs_error,
                                res.evaluations))
    for x, row in zip(s.grid, rows):
        if isinstance(row, PerceptError):
            raise _with_point(row, s.axis_name, x) from row
    return rows


def cross_check(s: Scenario) -> list:
    """Quadrature value vs Monte Carlo estimate at every grid point.

    A point passes when the two agree within _CROSS_CHECK_Z standard errors.
    """
    if s.metric not in ("pu_snr", "pu_rate"):
        raise DomainError("cross_check requires a pu_snr or pu_rate scenario")
    if s.mc is None:
        raise DomainError("cross_check requires an mc config")
    quad_rows = run_scenario(dataclasses.replace(s, mc=None))
    mc_rows = run_scenario(s)
    out = []
    for q, m in zip(quad_rows, mc_rows):
        passed = abs(q.value - m.value) <= _CROSS_CHECK_Z * m.err
        out.append(CrossCheckRow(q.axis, q.value, m.value, m.err, passed))
    return out


def _csv(header: str, formats: tuple, rows) -> str:
    """CSV text: the header line, then one line per row, its values
    formatted column by column with ``formats``; newline-terminated."""
    lines = [header] + [",".join(map(format, row, formats)) for row in rows]
    return "\n".join(lines) + "\n"


def sweep_csv(rows) -> str:
    return _csv("axis,value,err,n_eval", (".12g", ".12g", ".12g", ""),
                ((r.axis, r.value, r.err, r.n_eval) for r in rows))


def cross_check_csv(rows) -> str:
    return _csv("axis,quad,mc,std_error,pass", (".12g",) * 4 + ("",),
                ((r.axis, r.quad, r.mc, r.std_error, int(r.passed))
                 for r in rows))


# Built-in presets mirroring the library's illustrative sweeps, each a note
# (shown by ``percept sweep --help``) and a scenario document. Parameter
# values not pinned by a stated configuration are documented assumptions
# chosen from the empirically typical behavioral ranges.
PRESETS = {
    "fig2": ("value curve, typical empirical parameters (alpha=0.88, "
             "loss ratio 2.25), reference 4", {
        "schema": SCHEMA, "metric": "value_curve",
        "axis": {"name": "x", "grid": [round(0.25 * i, 2) for i in range(41)]},
        "value_params": {"alpha": 0.88, "lambda_gain": 1.0,
                         "lambda_loss": 2.25},
        "reference": 4.0,
    }),
    "fig3": ("Prelec weighting curve, gamma=1, theta=0.65", {
        "schema": SCHEMA, "metric": "weight_curve",
        "axis": {"name": "p", "grid": [round(0.02 * i, 2) for i in range(51)]},
        "weight_params": {"gamma": 1.0, "theta": 0.65},
    }),
    "fig4": ("value curve at alpha=0.5, lambda_gain=1, lambda_loss=2, "
             "reference 4", {
        "schema": SCHEMA, "metric": "value_curve",
        "axis": {"name": "x", "grid": [round(0.25 * i, 2) for i in range(41)]},
        "value_params": {"alpha": 0.5, "lambda_gain": 1.0, "lambda_loss": 2.0},
        "reference": 4.0,
    }),
    "fig5": ("PU of SNR vs power; strong diminishing sensitivity "
             "(alpha=0.15, lambda_loss=3.25) so the 400 to 1000 power step "
             "yields a PU gain of only about 0.4", {
        "schema": SCHEMA, "metric": "pu_snr",
        "axis": {"name": "pt_over_n0",
                 "grid": [1, 2, 5, 10, 20, 50, 100, 200, 400, 1000]},
        "value_params": {"alpha": 0.15, "lambda_gain": 1.0,
                         "lambda_loss": 3.25},
        "weight_params": {"gamma": 1.0, "theta": 0.8},
        "reference": 4.0, "mu": 1.0, "tolerance": 1e-8,
    }),
    "fig6": ("PU of rate vs power, alpha=0.5, loss ratio 2, reference "
             "4 bits/s/Hz", {
        "schema": SCHEMA, "metric": "pu_rate",
        "axis": {"name": "pt_over_n0",
                 "grid": [1, 2, 5, 10, 20, 50, 100, 200, 400, 1000]},
        "value_params": {"alpha": 0.5, "lambda_gain": 1.0, "lambda_loss": 2.0},
        "weight_params": {"gamma": 1.0, "theta": 0.8},
        "reference": 4.0, "mu": 1.0, "tolerance": 1e-8,
    }),
    "fig7": ("perceived density of a unit-mean exponential gain, "
             "theta=0.65", {
        "schema": SCHEMA, "metric": "ppdf",
        "axis": {"name": "s", "grid": [round(0.05 + 0.12 * i, 2)
                                       for i in range(50)]},
        "weight_params": {"gamma": 1.0, "theta": 0.65},
        "mu": 1.0,
    }),
    "fig8": ("perceptual outage probability vs power, threshold 1 "
             "bit/s/Hz", {
        "schema": SCHEMA, "metric": "pop",
        "axis": {"name": "pt_over_n0", "grid": [1, 2, 5, 10, 100, 1000]},
        "weight_params": {"gamma": 1.0, "theta": 0.65},
        "mu": 1.0, "epsilon": 1.0,
    }),
}


def preset_scenario(name: str) -> Scenario:
    if name not in PRESETS:
        raise DomainError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return scenario_from_dict(PRESETS[name][1])
