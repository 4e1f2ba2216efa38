"""Behavioral primitives: the two-part value function and Prelec weighting.

The value function maps the deviation of a quantity metric from a reference
point to perceived value,

    v(x, x0) = lambda_gain * (x - x0)**alpha      for x >= x0
    v(x, x0) = -lambda_loss * (x0 - x)**alpha     for x <  x0

and the Prelec function distorts an objective probability,

    w(p) = exp(-gamma * (-log p)**theta).

Parameter containers validate the constraints that keep the behavioral
properties intact (concave gains, convex losses, loss aversion, inverse-S
probability distortion). Two validation modes exist because the classical
identity reduction (alpha=1, lambda_gain=lambda_loss=1, gamma=theta=1) sits
on the boundary the behavioral constraints exclude:

* ``strict``      0 < alpha < 1, 0 < lambda_gain < lambda_loss,
                  gamma > 0, 0 < theta < 1
* ``permissive``  alpha in (0, 1], lambdas each positive, theta in (0, 1]

All functions accept scalars or numpy arrays and are pure; parameter objects
are frozen and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConstraintViolation, DomainError, _real

_MODES = ("strict", "permissive")


def _check_fields(params) -> None:
    """Require a known ``mode``, then every other field to be finite."""
    if params.mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}, got {params.mode!r}")
    for field in fields(params):
        if field.name != "mode":
            _real(field.name, getattr(params, field.name))


def _check_exponent(constraint: str, name: str, x: float, mode: str) -> None:
    """Require 0 < x < 1, or x = 1 as well in permissive mode."""
    hi_open = mode == "strict"
    if not (0.0 < x < 1.0 or (not hi_open and x == 1.0)):
        raise ConstraintViolation(
            constraint,
            f"{name} must lie in (0, 1{')' if hi_open else ']'}, got {x}")


def scalar_out(out):
    """A 0-d result as a Python float; arrays pass through unchanged."""
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class ValueParams:
    """Parameters of the gain/loss value function.

    ``alpha`` is the shared curvature exponent of both branches,
    ``lambda_gain`` and ``lambda_loss`` scale gains and losses. In strict
    mode loss aversion requires lambda_gain < lambda_loss and diminishing
    sensitivity requires alpha < 1.
    """

    alpha: float
    lambda_gain: float
    lambda_loss: float
    mode: str = "strict"

    def __post_init__(self):
        _check_fields(self)
        _check_exponent("concavity", "alpha", self.alpha, self.mode)
        if self.lambda_gain <= 0.0 or self.lambda_loss <= 0.0:
            raise ConstraintViolation(
                "loss_aversion",
                "lambda_gain and lambda_loss must be positive, got "
                f"{self.lambda_gain}, {self.lambda_loss}")
        if self.mode == "strict" and not self.lambda_gain < self.lambda_loss:
            raise ConstraintViolation(
                "loss_aversion",
                "strict mode requires lambda_gain < lambda_loss, got "
                f"{self.lambda_gain} >= {self.lambda_loss}")


@dataclass(frozen=True)
class WeightParams:
    """Parameters of the Prelec probability weighting function.

    ``gamma`` scales the distortion, ``theta`` controls the curvature of the
    inverse-S shape. theta=gamma=1 is the identity weighting, allowed in
    permissive mode only.
    """

    gamma: float
    theta: float
    mode: str = "strict"

    def __post_init__(self):
        _check_fields(self)
        if self.gamma <= 0.0:
            raise ConstraintViolation(
                "distortion", f"gamma must be positive, got {self.gamma}")
        _check_exponent("inverse_s", "theta", self.theta, self.mode)


@dataclass(frozen=True)
class ReferencePoint:
    """Baseline quantity against which gains and losses are perceived.

    Positive in the behavioral model; zero is admitted so the classical
    reduction v(x, 0) = x can be expressed.
    """

    x0: float

    def __post_init__(self):
        _real("x0", self.x0)
        if self.x0 < 0.0:
            raise ConstraintViolation(
                "reference", f"reference point must be >= 0, got {self.x0}")


def as_reference(ref) -> ReferencePoint:
    """Coerce a bare real number into a ReferencePoint."""
    if isinstance(ref, ReferencePoint):
        return ref
    return ReferencePoint(_real("reference", ref))


def validate_value_params(alpha1: float, alpha2: float, lambda1: float,
                          lambda2: float, mode: str = "strict") -> ValueParams:
    """Reduce the four-parameter value model to its three-parameter form.

    Loss aversion over every deviation size forces the gain and loss
    exponents to coincide, so a valid parameter set always collapses to
    (alpha, lambda_gain, lambda_loss). Raises ConstraintViolation naming
    the first violated property; the gain exponent is checked as ``alpha``.
    """
    params = ValueParams(alpha1, lambda1, lambda2, mode=mode)
    _real("alpha2", alpha2)
    _check_exponent("convexity", "loss exponent", alpha2, mode)
    if alpha1 != alpha2:
        raise ConstraintViolation(
            "loss_aversion",
            "loss aversion over all deviation sizes requires equal gain and "
            f"loss exponents, got {alpha1} != {alpha2}")
    return params


def value(x, ref, params: ValueParams):
    """Perceived value of quantity ``x`` against a reference point.

    ``x`` may be a scalar or array of nonnegative finite values. Returns 0
    exactly at the reference point.
    """
    x0 = as_reference(ref).x0
    x = np.asarray(x, dtype=float)
    _check_quantity(x)
    with np.errstate(over="ignore"):
        out = _value_kernel(x, x0, params.alpha, params.lambda_gain,
                            params.lambda_loss)
    _check_value(out)
    return scalar_out(out)


def _check_quantity(x: np.ndarray) -> None:
    """Raise DomainError unless every quantity in ``x`` is finite and >= 0."""
    if not np.all(np.isfinite(x)):
        raise DomainError("quantity metric must be finite")
    if np.any(x < 0.0):
        raise DomainError("quantity metric must be nonnegative")


def _check_value(v) -> None:
    """Raise DomainError unless every perceived value in ``v`` is finite."""
    if not np.all(np.isfinite(v)):
        raise DomainError("perceived value overflows the float range")


def _value_kernel(x, x0, alpha, lambda_gain, lambda_loss):
    """The value-function formula, unchecked; all arguments broadcast."""
    d = x - x0
    mag = np.abs(d) ** alpha
    return np.where(d >= 0.0, lambda_gain * mag, -lambda_loss * mag)


def weight(p, params: WeightParams):
    """Perceived probability w(p) = exp(-gamma * (-log p)**theta).

    Defined on [0, 1] with the continuous-limit conventions w(0)=0 and
    w(1)=1. Scalar in, scalar out; arrays pass through elementwise.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails both
        raise DomainError("probability must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        # -log(0) = inf makes the p=0 limit w=0 fall out of exp(-inf)
        out = np.exp(-params.gamma * (-np.log(p)) ** params.theta)
    return scalar_out(out)


def weight_inverse(q, params: WeightParams):
    """Inverse of :func:`weight`: the objective p with w(p) = q.

    Closed form p = exp(-((-log q) / gamma)**(1/theta)); boundaries map to
    themselves.
    """
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & (q <= 1.0)):  # NaN fails both
        raise DomainError("perceived probability must lie in [0, 1]")
    # -log(0) = inf, and a power past the float range, give the limit 0
    with np.errstate(divide="ignore", over="ignore"):
        out = np.exp(-((-np.log(q)) / params.gamma) ** (1.0 / params.theta))
    return scalar_out(out)


def weight_derivative(p, params: WeightParams):
    """dw/dp, used for error propagation through the weighting function.

    Valid on the open interval (0, 1); a derivative past the float range
    is refused.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):  # NaN fails both
        raise DomainError("derivative defined on (0, 1) only")
    neg_log = -np.log(p)
    with np.errstate(over="ignore"):
        out = (params.gamma * params.theta * weight(p, params)
               * neg_log ** (params.theta - 1.0) / p)
    if np.any(np.isinf(out)):
        raise DomainError("weighting derivative overflows the float range")
    return scalar_out(out)
