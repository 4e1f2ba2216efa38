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

import functools
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


def _elementwise(fn):
    """Give ``fn`` the contract of the public elementwise functions.

    The first argument after ``self``, passed by position or by name,
    becomes a float array; a scalar becomes a one-element array, so it
    takes the loops an array takes and returns the bits that value gets
    in an array, as a Python float. ``fn`` runs with numpy's
    divide-by-zero and overflow unreported: there a log of 0 or a power
    past the float range takes its limit, or a domain check refuses the
    result. An invalid operation (a NaN) is still reported. A 0-d result
    also returns as a Python float; arrays pass through unchanged.
    """
    names = fn.__code__.co_varnames
    i = int(names[0] == "self")
    name = names[i]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if len(args) > i:
            args = list(args)
            where, key = args, i
        elif name in kwargs:
            where, key = kwargs, name
        else:  # fn raises its TypeError for the missing argument
            return fn(*args, **kwargs)
        x = np.asarray(where[key], dtype=float)
        where[key] = np.atleast_1d(x)
        with np.errstate(divide="ignore", over="ignore"):
            out = fn(*args, **kwargs)
        if np.ndim(out) == 0:
            return float(out)
        return float(out[0]) if x.ndim == 0 else out

    return wrapper


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


@_elementwise
def value(x, ref, params: ValueParams):
    """Perceived value of quantity ``x`` against a reference point.

    ``x`` may be a scalar or array of nonnegative finite values. Returns 0
    exactly at the reference point.
    """
    return _value(x, as_reference(ref).x0, params, np.empty(x.shape),
                  _scratch(x.shape))


def _value(x, x0, params: ValueParams, out, scratch):
    """:func:`value` of an array ``x`` written into ``out``, which may be
    ``x``, with a :func:`_scratch` set of its shape; checked as ``value``
    checks, under the caller's error state."""
    _check_quantity(x, scratch[1])
    _value_kernel(x, x0, params.alpha, params.lambda_gain, params.lambda_loss,
                  out, scratch)
    _check_value(out, scratch[1])
    return out


def _check_quantity(x, mask=None) -> None:
    """Raise DomainError unless every quantity in ``x`` is finite and >= 0;
    ``mask``, a bool array of x's shape, takes the elementwise tests."""
    if not np.isfinite(x, out=mask).all():
        raise DomainError("quantity metric must be finite")
    if np.less(x, 0.0, out=mask).any():
        raise DomainError("quantity metric must be nonnegative")


def _check_value(v, mask=None) -> None:
    """Raise DomainError unless every perceived value in ``v`` is finite;
    ``mask``, a bool array of v's shape, takes the elementwise test."""
    if not np.isfinite(v, out=mask).all():
        raise DomainError("perceived value overflows the float range")


def _scratch(shape) -> tuple:
    """A float64 and a bool array of ``shape``: the scratch set of the
    in-place kernels."""
    return np.empty(shape), np.empty(shape, bool)


def _split(mask):
    """(slice where ``mask`` holds, slice where it does not), or None.

    A 1-D mask that holds on one run at either end, everywhere or nowhere
    splits at its count c, so a kernel that forms each branch on its own
    slice picks what a masked copy picks. Such a run starts at 0 if the
    mask holds there, and at size - c if not; counting c there proves it.
    The index comes from the mask, not from a search of the values, as
    numpy's SIMD ``log`` and ``pow`` need not be monotone to the last ulp.
    Any other 1-D mask, and any mask of another number of dimensions (at
    once), gives None.
    """
    if mask.ndim != 1:
        return None
    n, c = mask.size, np.count_nonzero(mask)
    lo = 0 if c == 0 or mask[0] else n - c
    if np.count_nonzero(mask[lo:lo + c]) != c:
        return None
    return slice(lo, lo + c), slice(c, n) if lo == 0 else slice(0, lo)


def _value_kernel(x, x0, alpha, lambda_gain, lambda_loss, out=None,
                  scratch=None):
    """The value-function formula, unchecked; x and x0 broadcast, and the
    rest against them.

    The result is written into ``out`` (which may be ``x``), with a
    :func:`_scratch` set of its shape as scratch; either is allocated when
    not given. Where the loss mask x < x0 is one run of a 1-D array, as
    on the sampler's ordered draws, each side is formed in place on its
    own slice (:func:`_split`). Otherwise, as on the quadrature's 2-D
    rows and unordered arrays, both sides are formed, the gain side in
    ``out`` and the loss side in the scratch float, and the loss side is
    copied over the gain side where x < x0.
    """
    d = np.subtract(x, x0, out=out)
    tmp, loss = _scratch(d.shape) if scratch is None else scratch
    np.less(d, 0.0, out=loss)
    split = _split(loss)
    if split is None:
        mag = np.abs(d, out=tmp)
        mag **= alpha
        np.multiply(lambda_gain, mag, out=d)
        np.copyto(d, np.multiply(-lambda_loss, mag, out=tmp), where=loss)
    else:
        for side, scale in zip(split, (-lambda_loss, lambda_gain)):
            mag = d[side]
            np.abs(mag, out=mag)
            mag **= alpha
            np.multiply(scale, mag, out=mag)
    return d


@_elementwise
def weight(p, params: WeightParams):
    """Perceived probability w(p) = exp(-gamma * (-log p)**theta).

    Defined on [0, 1] with the continuous-limit conventions w(0)=0 and
    w(1)=1. Scalar in, scalar out; arrays pass through elementwise.
    """
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails both
        raise DomainError("probability must lie in [0, 1]")
    # -log(0) = inf makes the p=0 limit w=0 fall out of exp(-inf)
    return np.exp(-params.gamma * (-np.log(p)) ** params.theta)


@_elementwise
def weight_inverse(q, params: WeightParams):
    """Inverse of :func:`weight`: the objective p with w(p) = q.

    Closed form p = exp(-((-log q) / gamma)**(1/theta)); boundaries map to
    themselves.
    """
    if not np.all((q >= 0.0) & (q <= 1.0)):  # NaN fails both
        raise DomainError("perceived probability must lie in [0, 1]")
    # -log(0) = inf, and a power past the float range, give the limit 0
    return np.exp(-((-np.log(q)) / params.gamma) ** (1.0 / params.theta))

