"""Exception types shared across the package, and its scalar checks."""
import math
import numbers


class PerceptError(Exception):
    """Base class for all errors raised by this package."""


class ConstraintViolation(PerceptError, ValueError):
    """A parameter set breaks one of the behavioral-model constraints.

    The ``constraint`` attribute names the violated property: one of
    ``concavity``, ``convexity``, ``loss_aversion``, or ``reference``.
    """

    def __init__(self, constraint: str, message: str):
        self.constraint = constraint
        self.detail = message
        super().__init__(f"{constraint}: {message}")


class DomainError(PerceptError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ToleranceNotMet(PerceptError, RuntimeError):
    """Quadrature could not reach the requested tolerance within budget.

    Carries the best estimate so callers can inspect how far off it was.
    """

    def __init__(self, message: str, value: float, abs_error: float,
                 evaluations: int):
        self.value = value
        self.abs_error = abs_error
        self.evaluations = evaluations
        super().__init__(message)


def _real(name: str, x, low: float = -math.inf, above: bool = False) -> float:
    """``x`` as a finite float, at least ``low`` (above it if ``above``);
    a DomainError naming ``name`` for anything else, NaN, +-inf and ints
    past the float range included. numpy scalars and bools are real."""
    if type(x) is float:  # the common case, before the slower ABC check
        v = x
    elif not isinstance(x, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {x!r}")
    else:
        try:
            v = float(x)
        except OverflowError:  # str() may refuse such an int: 4300+ digits
            v, x = math.inf, "an integer past the float range"
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {x}")
    if not (v > low if above else v >= low):
        raise DomainError(f"{name} must be {'>' if above else '>='} {low:g}, "
                          f"got {x}")
    return v


def _check_count(name: str, value, least: float) -> None:
    """Raise DomainError unless ``value`` is a float-range int >= ``least``."""
    if type(value) is not int and not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    _real(name, value, least)


def _check_size(name: str, value, bits: int = 63) -> None:
    """_check_count(name, value, 1) below 2**bits: a count that sizes an
    array must fit np.intp, and so must the array's bytes."""
    _check_count(name, value, 1)
    if value >= 2**bits:
        raise DomainError(f"{name} must be < 2**{bits}, got {value}")
