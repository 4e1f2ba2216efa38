"""Value function, probability weighting, and their parameter validation."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from percept import (ConstraintViolation, DomainError, ExponentialGain,
                     LinkBudget, PerceptualDistribution, ReferencePoint,
                     ValueParams, WeightParams, rate_metric,
                     validate_value_params, value, weight, weight_derivative,
                     weight_inverse)
from percept.prospect import _select
from support import INV_E, VP

W_HALF = WeightParams(gamma=1.0, theta=0.5)

# closed forms evaluated at 30 decimal digits with mpmath, frozen here
W_0p01_HALF = 0.11695500084945783
W_0p5_HALF = 0.43493677157570992


# --- parameter validation -------------------------------------------------

def test_validate_accepts_reduced_three_parameter_form():
    p = validate_value_params(0.5, 0.5, 1.0, 2.0, mode="strict")
    assert (p.alpha, p.lambda_gain, p.lambda_loss) == (0.5, 1.0, 2.0)


@pytest.mark.parametrize("alpha", [1.2, 1.0, 0.0, -0.3])
def test_validate_rejects_bad_exponent_strict(alpha):
    with pytest.raises(ConstraintViolation) as exc:
        validate_value_params(alpha, alpha, 1.0, 2.0, mode="strict")
    assert exc.value.constraint == "concavity"


def test_validate_rejects_bad_loss_exponent():
    with pytest.raises(ConstraintViolation) as exc:
        validate_value_params(0.5, 1.2, 1.0, 2.0, mode="strict")
    assert exc.value.constraint == "convexity"


def test_validate_rejects_inverted_loss_scales():
    with pytest.raises(ConstraintViolation) as exc:
        validate_value_params(0.5, 0.5, 2.0, 1.0, mode="strict")
    assert exc.value.constraint == "loss_aversion"


def test_validate_rejects_mismatched_exponents():
    # distinct curvatures break v(x0+d) < -v(x0-d) for some d
    with pytest.raises(ConstraintViolation) as exc:
        validate_value_params(0.4, 0.6, 1.0, 2.0, mode="strict")
    assert exc.value.constraint == "loss_aversion"


def test_validate_permissive_allows_classical_identity():
    p = validate_value_params(1.0, 1.0, 1.0, 1.0, mode="permissive")
    assert p.alpha == 1.0 and p.lambda_gain == p.lambda_loss == 1.0


def test_value_params_reject_nonpositive_scales():
    with pytest.raises(ConstraintViolation):
        ValueParams(0.5, 0.0, 2.0)
    with pytest.raises(ConstraintViolation):
        ValueParams(0.5, 1.0, -2.0)


def test_weight_params_constraint_names():
    with pytest.raises(ConstraintViolation) as exc:
        WeightParams(gamma=0.0, theta=0.5)
    assert exc.value.constraint == "distortion"
    with pytest.raises(ConstraintViolation) as exc:
        WeightParams(gamma=1.0, theta=1.0)
    assert exc.value.constraint == "inverse_s"
    WeightParams(gamma=1.0, theta=1.0, mode="permissive")


def test_reference_point_rejects_negative():
    with pytest.raises(ConstraintViolation) as exc:
        ReferencePoint(-1.0)
    assert exc.value.constraint == "reference"
    assert ReferencePoint(0.0).x0 == 0.0


# --- value function -------------------------------------------------------

def test_value_is_zero_at_reference():
    for x0 in (0.0, 1.0, 4.0, 123.5):
        assert value(x0, x0, VP) == 0.0


def test_value_gain_and_loss_closed_forms():
    assert value(8.0, 4.0, VP) == pytest.approx(2.0, abs=1e-15)
    assert value(0.0, 4.0, VP) == pytest.approx(-4.0, abs=1e-15)


def test_value_rejects_negative_or_nonfinite_metric():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            value(bad, 4.0, VP)


# every kind of double whose bits np.where copies: NaNs of both signs and
# a payload, signed zeros and infinities, subnormals, normals
SPECIALS = np.concatenate([
    [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
     2.225073858507201e-308, -1e-310, 1.0, -3.5, 1.7976931348623157e308],
    np.array([0x7FF8000000000001, -0x0007FFFFFFFFFFFF], np.int64).view(float),
])


def test_select_equals_where_byte_for_byte():
    rng = np.random.default_rng(3)
    a, b = rng.choice(SPECIALS, (2, 4096))
    cases = [(cond, a, b) for cond in (np.ones(4096, bool),
                                       np.zeros(4096, bool),
                                       rng.random(4096) < 0.5)]
    cases += [(np.array(c), np.array(x), np.array(y))  # 0-d
              for c in (True, False) for x in SPECIALS for y in SPECIALS]
    for cond, x, y in cases:
        want = np.where(cond, x, y).tobytes()
        y_bytes = y.tobytes()
        got = _select(cond, x.copy(), y, np.empty(cond.shape, np.int64))
        assert got.tobytes() == want
        assert y.tobytes() == y_bytes


@pytest.mark.filterwarnings("error")
def test_value_overflow_is_a_domain_error():
    # an accepted parameter set whose loss side overflows: -1e308 * 4**0.5
    vp = ValueParams(0.5, 1.0, 1e308)
    with pytest.raises(DomainError, match="overflows the float range"):
        value(0.0, 4.0, vp)
    with pytest.raises(DomainError, match="overflows the float range"):
        value(np.array([3.5, 0.0]), 4.0, vp)
    assert value(3.5, 4.0, vp) == pytest.approx(-1e308 * 0.5 ** 0.5)


def test_value_classical_reduction_is_identity():
    p = ValueParams(1.0, 1.0, 1.0, mode="permissive")
    for x in (0.0, 0.5, 3.0, 100.0):
        assert value(x, 0.0, p) == pytest.approx(x, rel=1e-15)


@given(st.floats(min_value=-6.0, max_value=6.0))
def test_value_loss_aversion_inequality(log_delta):
    delta = 10.0 ** log_delta
    x0 = 1e6 + 1.0
    assert value(x0 + delta, x0, VP) < -value(x0 - delta, x0, VP)


@given(st.floats(min_value=0.0, max_value=50.0),
       st.floats(min_value=1e-6, max_value=50.0))
def test_value_strictly_increasing(x, step):
    assert value(x + step, 4.0, VP) > value(x, 4.0, VP)


def test_value_second_difference_signs():
    # concave above the reference, convex below it
    x0, h = 4.0, 1e-3
    for x in np.linspace(4.5, 40.0, 25):
        d2 = value(x + h, x0, VP) - 2 * value(x, x0, VP) + value(x - h, x0, VP)
        assert d2 <= 0.0
    for x in np.linspace(0.1, 3.5, 25):
        d2 = value(x + h, x0, VP) - 2 * value(x, x0, VP) + value(x - h, x0, VP)
        assert d2 >= 0.0


# --- probability weighting ------------------------------------------------

def test_weight_boundaries():
    assert weight(0.0, W_HALF) == 0.0
    assert weight(1.0, W_HALF) == 1.0


def test_weight_closed_form_values():
    assert weight(0.01, W_HALF) == pytest.approx(W_0p01_HALF, abs=1e-14)
    assert weight(0.5, W_HALF) == pytest.approx(W_0p5_HALF, abs=1e-14)
    assert weight(0.01, W_HALF) > 0.01  # small probabilities overweighted


def test_weight_rejects_outside_unit_interval():
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(DomainError):
            weight(bad, W_HALF)


def test_weight_identity_reduction():
    wp = WeightParams(1.0, 1.0, mode="permissive")
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert weight(p, wp) == pytest.approx(p, abs=1e-15)


@given(st.floats(min_value=1e-9, max_value=1.0, exclude_max=True),
       st.floats(min_value=1e-9, max_value=0.5),
       st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.05, max_value=0.99))
def test_weight_strictly_increasing(p, step, gamma, theta):
    q = min(p + step, 1.0)
    wp = WeightParams(gamma, theta)
    assert weight(q, wp) > weight(p, wp)


@given(st.floats(min_value=1e-12, max_value=1.0, exclude_max=True),
       st.floats(min_value=0.05, max_value=0.99))
def test_weight_inverse_s_crossing(p, theta):
    wp = WeightParams(1.0, theta)
    if p < INV_E:
        assert weight(p, wp) > p
    elif p > INV_E:
        assert weight(p, wp) < p


def test_weight_inverse_round_trip_reference_grid():
    qs = np.linspace(0.001, 0.999, 21)
    for theta in (0.5, 0.65, 0.8):
        wp = WeightParams(1.0, theta)
        for q in qs:
            assert abs(weight(weight_inverse(q, wp), wp) - q) <= 1e-12


@given(st.floats(min_value=1e-12, max_value=1.0, exclude_max=True),
       st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.05, max_value=0.99))
@settings(max_examples=200)
def test_weight_inverse_round_trip_wide(q, gamma, theta):
    wp = WeightParams(gamma, theta)
    log_q = -math.log(q)
    log_p = (log_q / gamma) ** (1.0 / theta)
    # skip where the true preimage p = exp(-log_p) underflows double
    # precision; no representable p exists there
    assume(log_p < 700.0)
    # representing p costs ~eps absolute in -log p, which the round trip
    # amplifies by q*theta*log_q/log_p; hold the grid contract (1e-12) as
    # a floor and allow that conditioning factor on top
    allow = max(1e-12,
                8.0 * q * theta * log_q * 2.3e-16 / min(max(log_p, 5e-324),
                                                        1.0))
    assert abs(weight(weight_inverse(q, wp), wp) - q) <= allow


def test_weight_inverse_boundaries_and_fixed_point():
    assert weight_inverse(0.0, W_HALF) == 0.0
    assert weight_inverse(1.0, W_HALF) == 1.0
    assert weight_inverse(INV_E, W_HALF) == pytest.approx(INV_E, abs=1e-14)
    assert weight_inverse(W_0p01_HALF, W_HALF) == pytest.approx(0.01,
                                                                abs=1e-14)
    # ((-log q)/gamma)**(1/theta) overflows; the limit is still 0
    assert weight_inverse(5e-324, WeightParams(1e-30, 1e-4)) == 0.0


def test_weight_inverse_rejects_outside_unit_interval():
    for bad in (-0.01, 1.01, math.nan):
        with pytest.raises(DomainError, match="perceived probability"):
            weight_inverse(bad, W_HALF)


@pytest.mark.parametrize("bad", [0.0, 1.0, math.nan,
                                 np.array([0.5, math.nan])])
def test_weight_derivative_names_its_own_domain(bad):
    with pytest.raises(DomainError, match=r"derivative defined on \(0, 1\)"):
        weight_derivative(bad, W_HALF)


@pytest.mark.parametrize("p", [5e-324, np.array([5e-324, 0.5])])
def test_weight_derivative_refuses_an_overflow(p):
    with pytest.raises(DomainError, match="^weighting derivative overflows "
                                          "the float range$"):
        weight_derivative(p, WeightParams(0.01, 1e-4))


def test_weight_derivative_matches_finite_difference():
    wp = WeightParams(1.3, 0.7)
    for p in (0.05, 0.3, INV_E, 0.8):
        h = 1e-7
        fd = (weight(p + h, wp) - weight(p - h, wp)) / (2 * h)
        assert weight_derivative(p, wp) == pytest.approx(fd, rel=1e-6)
    # gamma*t overflows, or w underflows: the limit 0, with no warning
    huge = WeightParams(1.7e308, 0.7)
    got = weight_derivative([0.05, 0.3, INV_E, 0.8], huge)
    assert got.tolist() == [0.0] * 4


def test_weight_derivative_against_mpmath():
    # 500 seeded p log-uniform on [1e-300, 1) and 500 uniform on [0.5,
    # 1 - 1e-12], against 60 digits; points whose derivative lies outside
    # (1e-300, 1e300) are left out. -log p and t = (-log p)**theta each
    # carry a rounding or two, so t is off by a few units of 2**-53,
    # relative; w = exp(-gamma*t) multiplies that by gamma*t, and the
    # products and quotients of gamma*theta*w*t / ((-log p)*p) add a few
    # roundings of their own. Where gamma*t > 700 it is exp of a sum of
    # logs: each term rounds by 2**-53 times its magnitude, and the terms
    # other than gamma*t are below about 700 there, so the sum adds a few
    # gamma*t * 2**-53 more. Either way the relative error is at most
    # 8 * (1 + gamma*t) * 2**-53
    rng = np.random.default_rng(3)
    ps = np.concatenate([10.0 ** rng.uniform(-300.0, 0.0, 500),
                         rng.uniform(0.5, 1.0 - 1e-12, 500)])
    worst, far = 0.0, 0
    with mpmath.workdps(60):
        for p in ps[ps < 1.0]:
            gamma = 10.0 ** rng.uniform(-1.0, 1.0)
            theta = rng.uniform(0.05, 0.99)
            g, neg_log = mpmath.mpf(gamma), -mpmath.log(p)
            t = neg_log ** mpmath.mpf(theta)
            want = g * theta * mpmath.exp(-g * t) * t / (neg_log * p)
            if not 1e-300 < want < 1e300:
                continue
            got = weight_derivative(p, WeightParams(gamma, theta))
            ratio = abs(got - want) / (want * (1 + g * t) * 2.0**-53)
            worst = max(worst, float(ratio))
            far += g * t > 700
    assert far >= 5 and worst <= 8.0


# --- the elementwise call contract ----------------------------------------

# off numpy's fast-path exponents (0.5 and 2 among them), where an array's
# power loop and the C library's pow of a scalar may round differently
VP_OFF = ValueParams(0.88, 1.0, 2.25)
WP_OFF = WeightParams(0.9, 0.65)
PD = PerceptualDistribution(ExponentialGain(1.3), WP_OFF)
# every elementwise function: the call, its array argument's name, points
# in its domain, the interval [lo, hi) of its seeded draw, and its other
# arguments by name in signature order
ELEMENTWISE = {
    "value": (value, "x", [0.0, 2.0, 4.0, 9.0, 9.5], (0.0, 20.0),
              {"ref": 4.0, "params": VP_OFF}),
    "weight": (weight, "p", [0.0, 0.3, 1.0], (0.0, 1.0),
               {"params": WP_OFF}),
    "weight_inverse": (weight_inverse, "q", [0.0, 0.3, 1.0], (0.0, 1.0),
                       {"params": WP_OFF}),
    "weight_derivative": (weight_derivative, "p", [0.1, 0.5, 0.9],
                          (0.0, 1.0), {"params": WP_OFF}),
    "cdf": (PD.base.cdf, "g", [-1.0, 0.0, 2.0], (-1.0, 10.0), {}),
    "pdf": (PD.base.pdf, "g", [-1.0, 0.0, 2.0], (-1.0, 10.0), {}),
    "inverse_cdf": (PD.base.inverse_cdf, "u", [0.1, 0.5, 0.9], (0.0, 1.0),
                    {}),
    "inverse_survival": (PD.base.inverse_survival, "q", [0.1, 0.5, 1.0],
                         (0.0, 1.0), {}),
    "pcdf": (PD.pcdf, "s", [0.0, 1.0, 1000.0], (0.0, 20.0), {}),
    "ppdf": (PD.ppdf, "s", [0.01, 1.0, 1000.0], (0.0, 20.0), {}),
    "perceptual_sample": (PD.perceptual_sample, "u", [1e-300, 0.5, 0.999],
                          (0.0, 1.0), {}),
    "map": (rate_metric(LinkBudget(10.0, PD.base), 2.0).map, "g",
            [0.0, 1.0, 3.0], (0.0, 10.0), {}),
}


@pytest.mark.parametrize("name", sorted(ELEMENTWISE))
def test_elementwise_call_forms(name):
    # a scalar gives the bits its value gets in an array, in every form
    fn, arg, points, (lo, hi), params = ELEMENTWISE[name]
    draw = np.random.default_rng(0).uniform(lo, hi, 1 << 12)
    points = points + draw.tolist()
    scalars = [fn(x, **params) for x in points]
    assert all(isinstance(y, float) for y in scalars)
    got = fn(points, **params)
    assert isinstance(got, np.ndarray) and got.tolist() == scalars
    assert fn(**{arg: points}, **params).tolist() == scalars
    assert [fn(**{arg: x}, **params) for x in points] == scalars
    assert [fn(x, *params.values()) for x in points] == scalars
    with pytest.raises(TypeError):  # the argument is required
        fn(**params)
