"""One real-number check for every scalar parameter.

Whatever a caller passes where a scalar belongs, each constructor either
accepts it or raises a PerceptError that names the parameter.
"""
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percept import (DomainError, ExponentialGain, McConfig, MultipathConfig,
                     OutageSpec, PerceptError, ReferencePoint, ToleranceNotMet,
                     ValueParams, WeightParams, as_reference, draw_channel,
                     pu_snr, validate_value_params)
from percept.errors import _check_count, _check_size, _real
from percept.sweep import _number
from support import VP, WP, link

PAST_FLOAT = "must be finite, got an integer past the float range"

# what a caller might pass where a scalar belongs; every slot tries each
# of SPECIAL, then draws from ANY_SCALAR
SPECIAL = (math.nan, math.inf, -math.inf, 0, -1, 10**400, -10**400, 10**5000,
           None, "4", True, False)
ANY_SCALAR = st.one_of(
    st.floats(),  # NaN and +-inf included
    st.integers(),
    st.sampled_from(SPECIAL),
    st.text(max_size=4),
    st.booleans())

# a callable and valid arguments; each argument in turn is a scalar slot
CALLS = {
    "ExponentialGain": (ExponentialGain, (1.0,)),
    "LinkBudget": (link, (10.0,)),
    "OutageSpec": (OutageSpec, (1.0,)),
    "MultipathConfig": (MultipathConfig, (4, 1.0, 0)),
    "ValueParams": (ValueParams, (0.5, 1.0, 2.0)),
    "WeightParams": (WeightParams, (1.0, 0.8)),
    "ReferencePoint": (ReferencePoint, (4.0,)),
    "validate_value_params": (validate_value_params, (0.5, 0.5, 1.0, 2.0)),
    "as_reference": (as_reference, (4.0,)),
    # one array program at most (411 nodes), so a tiny tolerance stays cheap
    "pu_snr-tol": (lambda tol: pu_snr(link(10.0), 4.0, VP, WP, tol=tol,
                                      budget=420), (1e-8,)),
    "pu_snr-budget": (lambda budget: pu_snr(link(10.0), 4.0, VP, WP,
                                            budget=budget), (420,)),
}
SLOTS = [pytest.param(fn, args, i, id=f"{name}-{i}")
         for name, (fn, args) in CALLS.items() for i in range(len(args))]


def every_special(test):
    """Add each value of SPECIAL to ``test`` as an explicit example."""
    for x in SPECIAL:
        test = example(x=x)(test)
    return test


@pytest.mark.parametrize("fn, args, slot", SLOTS)
@settings(max_examples=20)
@given(x=ANY_SCALAR)
@every_special
def test_every_scalar_slot_accepts_or_raises_a_percept_error(fn, args, slot,
                                                             x):
    try:
        fn(*args[:slot], x, *args[slot + 1:])
    except PerceptError:
        pass


# --- the helpers ------------------------------------------------------------

@pytest.mark.parametrize("x, expected", [
    (np.float32(0.5), 0.5), (True, 1.0), (Fraction(1, 4), 0.25),
    (10**300, 1e300), (-2, -2.0)],
    ids=["float32", "bool", "fraction", "10**300", "int"])
def test_real_returns_the_float(x, expected):
    out = _real("x", x)
    assert type(out) is float and out == expected


@pytest.mark.parametrize("x, low, above, message", [
    (float("nan"), 0.0, False, "x must be finite, got nan"),
    (float("-inf"), 0.0, False, "x must be finite, got -inf"),
    (None, 0.0, False, "x must be a real number, got None"),
    ("4", 0.0, False, "x must be a real number, got '4'"),
    (np.array([1.0]), 0.0, False, "x must be a real number"),
    (10**5000, 0.0, False, f"x {PAST_FLOAT}"),
    (-10**400, 0.0, False, f"x {PAST_FLOAT}"),
    (-1.0, 0.0, False, "x must be >= 0, got -1.0"),
    (0, 0.0, True, "x must be > 0, got 0"),
], ids=["nan", "-inf", "None", "text", "array", "10**5000", "-10**400",
        "below", "not-above"])
def test_real_rejects_with_one_message_format(x, low, above, message):
    with pytest.raises(DomainError) as exc:
        _real("x", x, low, above)
    assert str(exc.value).startswith(message)


def test_count_keeps_its_messages_and_the_float_range():
    _check_count("n", 2**64, 1)  # a per-point seed spans uint64
    with pytest.raises(DomainError, match="^n must be >= 1, got 0$"):
        _check_count("n", 0, 1)
    with pytest.raises(DomainError, match="^n must be an integer, got 2.5$"):
        _check_count("n", 2.5, 1)
    with pytest.raises(DomainError, match=f"^n {PAST_FLOAT}$"):
        _check_count("n", 10**400, 1)


# an input, then what _real, _check_count (at least 1), _number and _number
# to int make of it: the repr of the value returned, or "!" and the
# DomainError's message
PAST = 10**400
TYPED = [
    (2.5, "2.5", "!n must be an integer, got 2.5", "2.5",
     "!k must be an integer, got 2.5"),
    (3, "3.0", "None", "3.0", "3"),
    (True, "1.0", "None", "!k must be a number, got True",
     "!k must be a number, got True"),
    (np.float64(2.5), "2.5", "!n must be an integer, got np.float64(2.5)",
     "2.5", "!k must be an integer, got np.float64(2.5)"),
    (np.float32(0.5), "0.5", "!n must be an integer, got np.float32(0.5)",
     "0.5", "!k must be an integer, got np.float32(0.5)"),
    (np.int64(3), "3.0", "None", "3.0", "3"),
    (Fraction(1, 4), "0.25", "!n must be an integer, got Fraction(1, 4)",
     "0.25", "!k must be an integer, got Fraction(1, 4)"),
    (PAST, f"!x {PAST_FLOAT}", f"!n {PAST_FLOAT}",
     f"!k must be a finite number, got {PAST!r}", repr(PAST)),
    (math.nan, "!x must be finite, got nan", "!n must be an integer, got nan",
     "nan", "!k must be a finite number, got nan"),
    (math.inf, "!x must be finite, got inf", "!n must be an integer, got inf",
     "inf", "!k must be a finite number, got inf"),
    (-math.inf, "!x must be finite, got -inf",
     "!n must be an integer, got -inf", "-inf",
     "!k must be a finite number, got -inf"),
    ("4", "!x must be a real number, got '4'",
     "!n must be an integer, got '4'", "!k must be a number, got '4'",
     "!k must be a number, got '4'"),
    (None, "!x must be a real number, got None",
     "!n must be an integer, got None", "!k must be a number, got None",
     "!k must be a number, got None"),
    (1 + 2j, "!x must be a real number, got (1+2j)",
     "!n must be an integer, got (1+2j)", "!k must be a number, got (1+2j)",
     "!k must be a number, got (1+2j)"),
    (Decimal("2.5"), "!x must be a real number, got Decimal('2.5')",
     "!n must be an integer, got Decimal('2.5')",
     "!k must be a number, got Decimal('2.5')",
     "!k must be a number, got Decimal('2.5')"),
]


@pytest.mark.parametrize("x, real, count, number, integer", TYPED, ids=[
    "float", "int", "bool", "np.float64", "np.float32", "np.int64",
    "fraction", "10**400", "nan", "inf", "-inf", "str", "None", "complex",
    "decimal"])
def test_scalar_checks_pin_each_type(x, real, count, number, integer):
    def outcome(call):
        try:
            return repr(call())
        except DomainError as exc:
            return f"!{exc}"

    assert outcome(lambda: _real("x", x)) == real
    assert outcome(lambda: _check_count("n", x, 1)) == count
    assert outcome(lambda: _number(x, "k")) == number
    assert outcome(lambda: _number(x, "k", int)) == integer


def test_size_must_fit_an_array_index():
    _check_size("n", 2**63 - 1)
    with pytest.raises(DomainError, match=re.escape(
            f"n must be < 2**63, got {2**63}")):
        _check_size("n", 2**63)
    with pytest.raises(DomainError, match="^n must be >= 1, got 0$"):
        _check_size("n", 0)
    with pytest.raises(DomainError, match=f"^n {PAST_FLOAT}$"):
        _check_size("n", 10**400)
    # a count of 16-byte complex draws stops where their bytes reach 2**63
    _check_size("n", 2**59 - 1, 59)
    with pytest.raises(DomainError, match=re.escape(
            f"sample count must be < 2**59, got {2**59}")):
        draw_channel(MultipathConfig(4), 2**59)
    # each count that sizes an array, at a value that used to crash
    for call, name in [(lambda: McConfig(10**30), "samples"),
                       (lambda: MultipathConfig(10**30), "k_paths"),
                       (lambda: draw_channel(MultipathConfig(4), 10**30),
                        "sample count")]:
        with pytest.raises(DomainError, match=re.escape(f"{name} must be <")):
            call()


# --- the constructors and calls that used to crash ------------------------

FORMER_CRASHES = [
    (lambda: ExponentialGain(10**400), "mu"),
    (lambda: ExponentialGain(10**5000), "mu"),
    (lambda: ValueParams(10**400, 1, 2), "alpha"),
    (lambda: link(None), "pt_over_n0"),
    (lambda: MultipathConfig(1, 10**200), "mean gain"),
    (lambda: MultipathConfig(10**400), "k_paths"),
    (lambda: as_reference(None), "reference"),
    (lambda: as_reference(10**400), "reference"),
    (lambda: as_reference("4"), "reference"),
    (lambda: pu_snr(link(10.0), 4.0, VP, WP, tol=None), "tolerance"),
    (lambda: pu_snr(link(10.0), 4.0, VP, WP, budget=2500.0), "budget"),
    (lambda: pu_snr(link(10.0), 4.0, VP, WP, budget=-10**5000), "budget"),
]


@pytest.mark.parametrize("call, name", FORMER_CRASHES,
                         ids=[name for _, name in FORMER_CRASHES])
def test_former_crashes_raise_a_domain_error(call, name):
    with pytest.raises(DomainError, match=name):
        call()


NAMED_FIELDS = [
    (lambda: ValueParams(float("nan"), 1.0, 2.0), "alpha"),
    (lambda: ValueParams(0.5, 1.0, float("inf")), "lambda_loss"),
    (lambda: WeightParams(1.0, float("nan")), "theta"),
    (lambda: ReferencePoint(float("inf")), "x0"),
    (lambda: validate_value_params(0.5, float("nan"), 1.0, 2.0), "alpha2"),
    (lambda: OutageSpec(0.0), "epsilon"),
]


@pytest.mark.parametrize("call, name", NAMED_FIELDS,
                         ids=[name for _, name in NAMED_FIELDS])
def test_scalar_messages_name_the_field(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be"):
        call()


def test_tolerance_and_budget_keep_their_accepted_range():
    first_pass = pu_snr(link(10.0), 4.0, VP, WP, tol=float("inf"))
    # levels 0 ... 3: 3 pieces of 137 nodes
    assert first_pass.evaluations == 411
    # a budget below one pass is a tolerance failure, not a domain error
    with pytest.raises(ToleranceNotMet, match="budget -1 is below"):
        pu_snr(link(10.0), 4.0, VP, WP, budget=-1)
    # evaluations count in int64; a larger budget is just as unlimited
    assert pu_snr(link(10.0), 4.0, VP, WP, budget=2**64) == pu_snr(
        link(10.0), 4.0, VP, WP)
