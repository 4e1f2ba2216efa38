"""Perceptual-utility quadrature, outage probability, and weighted outage."""
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percept import (DomainError, ExponentialGain, McConfig, OutageSpec,
                     PerceptualDistribution, ToleranceNotMet, ValueParams,
                     WeightParams, mc_pop, outage_probability, pop, pu_rate,
                     pu_snr, rate_metric, snr_metric, value)
from percept.metrics import (_H0, _HI, _LO, _MU, _STEPS, _TAU_LO,
                             DEFAULT_BUDGET, _gain_at, _node_factors, _pieces,
                             _point, _snr, _terms, pu_batch, rate_gain)
from percept.sweep import preset_scenario, run_scenario
from support import EXP_CDF_1, POP_HALF, VP, VP_ID, WP, WP_ID, link

# mpmath (30 digits)
OUTAGE_E2_R10 = 0.25918177931828213   # 1 - exp(-0.3)
PU_SNR_R10 = 1.0997321667562066       # pu_snr at rho=10, ref 4, VP, WP
PU_RATE_REF2000 = -89.311716188957788  # pu_rate at rho=100, ref 2000, VP, WP
# pu_rate at rho=1e300, ref 2000, VP, WP, with bench/make_refs.py's model
PU_RATE_FAR_TAIL = "-63.3836254320401246732296213960"


def classical_capacity(rho):
    """Mean of log2(1 + rho*G), G ~ Exp(1): e^(1/rho) E1(1/rho) / ln 2."""
    x = mpmath.mpf(1.0 / rho)
    return float(mpmath.exp(x) * mpmath.e1(x) / mpmath.log(2))


# --- construction and validation -------------------------------------------

def test_link_budget_rejects_negative_power():
    with pytest.raises(DomainError):
        link(-1.0)


def test_outage_spec_rejects_nonpositive_threshold():
    for bad in (0.0, -2.0, math.inf):
        with pytest.raises(DomainError):
            OutageSpec(bad)


def test_metric_crossings_are_analytic():
    assert snr_metric(link(10.0), 4.0).crossing == pytest.approx(0.4)
    assert rate_metric(link(10.0), 4.0).crossing == pytest.approx(1.5)
    assert math.isinf(snr_metric(link(0.0), 4.0).crossing)


def test_pu_rejects_nonpositive_tolerance():
    with pytest.raises(DomainError):
        pu_snr(link(10.0), 4.0, VP, WP, tol=0.0)


# --- perceptual utility: analytic anchors -----------------------------------

def test_classical_reduction_scales_with_mean_gain():
    res = pu_snr(link(50.0, mu=2.0), 0.0, VP_ID, WP_ID)
    assert res.value == pytest.approx(100.0, rel=1e-6)


@pytest.mark.parametrize("rho", [1.0, 10.0, 100.0])
def test_classical_reduction_rate_is_ergodic_capacity(rho):
    res = pu_rate(link(rho), 0.0, VP_ID, WP_ID)
    assert res.value == pytest.approx(classical_capacity(rho), rel=1e-8)


def test_classical_rate_against_direct_unweighted_quadrature():
    rho = 10.0
    direct = mpmath.quad(lambda g: mpmath.log(1 + rho * g, 2) * mpmath.exp(-g),
                         [0, mpmath.inf])
    res = pu_rate(link(rho), 0.0, VP_ID, WP_ID)
    assert res.value == pytest.approx(float(direct), abs=1e-8)


def test_substitution_matches_direct_gain_space_quadrature():
    # same integral evaluated without the substitution: v(omega(g)) against
    # the perceived density over a truncated gain range
    rho, ref = 10.0, 4.0
    pd = PerceptualDistribution(ExponentialGain(1.0), WP)
    res = pu_snr(link(rho), ref, VP, WP)
    g_star = ref / rho

    def raw(g):
        return value(rho * g, ref, VP) * pd.ppdf(g)

    direct = mpmath.quad(lambda g: raw(float(g)), [1e-20, g_star, 40.0])
    assert res.value == pytest.approx(float(direct), abs=1e-5)


def test_pu_result_reports_quadrature_health():
    res = pu_snr(link(10.0), 4.0, VP, WP, tol=1e-8)
    assert res.abs_error >= 0.0
    assert res.abs_error <= 1e-8
    assert res.evaluations >= 1


def test_tolerance_not_met_raises_with_diagnostics():
    # the first program (411 nodes) leaves 5.4e-10; 1e-10 needs 819
    with pytest.raises(ToleranceNotMet) as exc:
        pu_snr(link(10.0), 4.0, VP, WP, tol=1e-10, budget=600)
    err = exc.value
    assert 0 < err.evaluations <= 600
    assert err.abs_error > 1e-10
    assert math.isfinite(err.value)


def test_tolerance_below_roundoff_raises_within_budget():
    with pytest.raises(ToleranceNotMet) as exc:
        pu_snr(link(10.0), 4.0, VP, WP, tol=1e-14, budget=DEFAULT_BUDGET)
    err = exc.value
    assert 0 < err.evaluations <= DEFAULT_BUDGET
    assert err.abs_error > 1e-14
    # levels are added until their difference reaches the floor, so the
    # value carried is good to well below the default tolerance
    assert abs(err.value - PU_SNR_R10) <= err.abs_error < 1e-10
    assert "below the roundoff floor" in str(err)


def test_budget_below_one_pass_evaluates_nothing():
    with pytest.raises(ToleranceNotMet) as exc:
        pu_snr(link(10.0), 4.0, VP, WP, budget=10)
    assert exc.value.evaluations == 0


def test_generic_composite_constant_metric():
    # at zero power both metrics are 0, below the reference everywhere:
    # the value function is constant, value(0, 4) = -4
    assert value(0.0, 4.0, VP) == -4.0
    for pu in (pu_snr, pu_rate):
        res = pu(link(0.0), 4.0, VP, WP)
        assert res.value == pytest.approx(-4.0, abs=1e-8)
        assert res.abs_error <= 1e-8


def test_generic_composite_map_may_return_one_constant():
    # a reference of 0 at zero power: the metric, 0 for every gain, meets
    # its reference everywhere and every node values 0
    m = snr_metric(link(0.0), 0.0)
    assert m.map(np.array([0.0, 1.0, 1e300])).tolist() == [0.0, 0.0, 0.0]
    (res,) = pu_batch(m.of, [_point(m, 1.0, VP, WP)])
    assert (res.value, res.abs_error) == (0.0, 0.0)


@pytest.mark.filterwarnings("error")
def test_value_overflow_fails_only_its_own_point():
    huge = ValueParams(0.5, 1.0, 1e308)
    points = [_point(snr_metric(link(10.0), 4.0), 1.0, VP, WP),
              _point(snr_metric(link(10.0), 4.0), 1.0, huge, WP),
              _point(snr_metric(link(100.0), 4.0), 1.0, VP, WP)]
    out = pu_batch(_snr, points)
    assert isinstance(out[1], DomainError)
    assert "overflows the float range" in str(out[1])
    for res, rho in ((out[0], 10.0), (out[2], 100.0)):
        alone = pu_snr(link(rho), 4.0, VP, WP)
        assert (res.value, res.evaluations) == (alone.value,
                                                alone.evaluations)
    with pytest.raises(DomainError, match="overflows the float range"):
        pu_snr(link(10.0), 4.0, huge, WP)


def test_empty_batch_has_no_results():
    # no points: no piece table, and nothing for a bad tolerance to fail
    assert pu_batch(_snr, []) == []
    assert pu_batch(_snr, [], -1.0) == []


def test_budget_stops_each_point_of_a_batch_as_alone():
    # 1, 2 and 3 pieces (gamma = 1000 lies past s = 745; rho = 0 has no
    # kink) against a budget of 300 at tol 1e-10: the first program is 137
    # nodes per piece, which certifies none of them, and level 4 adds 136
    def point(rho, gamma):
        return _point(snr_metric(link(rho), 4.0), 1.0, VP,
                      WeightParams(gamma, 0.8))

    def outcome(res):
        return (type(res), str(res) if isinstance(res, Exception) else None,
                repr(res.value), res.evaluations)

    points = [point(0.0, 1000.0), point(0.0, 1.0), point(10.0, 1.0)]
    out = pu_batch(_snr, points, 1e-10, 300)
    assert [outcome(res) for res in out] == [
        outcome(pu_batch(_snr, [p], 1e-10, 300)[0]) for p in points]
    certified, uncertified, starved = out
    assert certified.evaluations == 273 and certified.abs_error <= 1e-10
    assert isinstance(uncertified, ToleranceNotMet)
    assert uncertified.evaluations == 274
    assert "not certified" in str(uncertified)
    assert isinstance(starved, ToleranceNotMet)
    assert "below the 411 evaluations of one pass" in str(starved)
    assert starved.evaluations == 0


# --- perceptual utility: small theta and accuracy against mpmath ------------

# theta = 0.01 lies inside the strict box; z = (s/gamma)**(1/theta) and the
# base survival probability 1 - exp(-z) underflow near s = 0 there.
# mpmath (30 digits) at rho=10, ref=4, alpha=0.5, lambda_loss=2, gamma=1
PU_THETA_001 = {"pu_snr": "18.8017112057649821399622745836",
                "pu_rate": "-0.0000855286317198332193414057320862"}


def test_gain_at_tiny_s_stays_finite():
    s = np.array([1e-3, 1e-300])
    # z is 1e-300, then underflows to 0; log(1 - exp(-z)) = log z there
    expect = -2.0 * np.log(s) / 0.01
    assert np.allclose(_gain_at(s, 2.0, 1.0, 0.01), expect, rtol=1e-15)
    # away from the tiny-z branch the quantile is the exponential law's,
    # -mu * log q at survival probability q
    s = np.array([0.05, 1.0, 20.0])
    z = (s / 1.3) ** (1.0 / 0.6)
    assert np.allclose(_gain_at(s, 2.0, 1.3, 0.6),
                       -2.0 * np.log(-np.expm1(-z)), rtol=1e-14)


def test_gain_at_keeps_the_far_tail():
    # q = 1 - exp(-z) rounds to 1 here, yet the gain is ~ mu * exp(-z)
    s = np.array([20.0, 40.0])
    z = s ** (1.0 / 0.8)
    assert np.allclose(_gain_at(s, 2.0, 1.0, 0.8), 2.0 * np.exp(-z),
                       rtol=1e-13, atol=0.0)


def test_pu_rate_far_tail_gain_against_mpmath():
    # at rho = 1e300 the rate still reads gains of 1e-16 and below
    res = pu_rate(link(1e300), 2000.0, VP, WP)
    assert abs(res.value - float(PU_RATE_FAR_TAIL)) <= res.abs_error <= 1e-8


@pytest.mark.parametrize("fn", [pu_snr, pu_rate])
@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_small_theta_in_strict_box(fn, tol):
    # tol 1e-12 refines deep into the logarithmic singularity at s = 0
    res = fn(link(10.0), 4.0, VP, WeightParams(1.0, 0.01), tol=tol)
    ref = float(PU_THETA_001[fn.__name__])
    assert math.isfinite(res.value)
    assert res.abs_error <= tol
    assert abs(res.value - ref) <= res.abs_error


# --- pieces -------------------------------------------------------------------

@pytest.mark.parametrize("rho, ref, gamma, theta, ends", [
    # -log F(g*) is exactly 1, so the kink s* falls on gamma
    (1.0, 0.4586751453870819, 1.3, 0.7, [0.0, 1.3, math.inf]),
    (0.0, 0.0, 1.3, 0.7, [0.0, 1.3, math.inf]),  # no kink
    (10.0, 4.0, 1000.0, 0.8, [0.0, math.inf]),  # both past s = 745
    (1e300, 1.0, 2.0, 0.99, [0.0, 2.0, math.inf]),  # the kink past 745
    (10.0, 4.0, 1.0, 0.8,  # the kink past gamma
     [0.0, 1.0, (-math.log(-math.expm1(-0.4))) ** 0.8, math.inf]),
])
def test_pieces_end_at_gamma_and_the_kink_up_to_745(rho, ref, gamma, theta,
                                                    ends):
    point = _point(snr_metric(link(rho), ref), 1.0, VP,
                   WeightParams(gamma, theta))
    par, counts = _pieces([point])
    assert counts.tolist() == [len(ends) - 1]
    assert par[_LO].tolist() == pytest.approx(ends[:-1], rel=1e-15)
    assert par[_HI].tolist() == pytest.approx(ends[1:], rel=1e-15)
    assert (par[_MU:].T == point[:-1]).all()


# --- the fixed tau window ------------------------------------------------------

def test_fixed_tau_window_loses_less_than_the_floor():
    # at the corners of the strict box, |w*f| at the nodes one step h0
    # beyond either end of the window, on every piece, stays below the
    # point's roundoff floor 50 eps * integral |f| (taken at step h0/16)
    inside = _TAU_LO + _H0 / 16 * np.arange(16 * _STEPS + 1)
    beyond = np.array([_TAU_LO - _H0, _TAU_LO + (_STEPS + 1) * _H0])
    over = []
    for metric, far in ((snr_metric, 1e300), (rate_metric, 2000.0)):
        for theta, alpha, rho, ref, gamma in itertools.product(
                (1e-4, 0.01, 0.8), (0.15, 0.99), (0.0, 10.0, 1e300),
                (0.0, 4.0, far), (1e-30, 1.0, 1e30)):
            m, vp = metric(link(rho), ref), ValueParams(alpha, 1.0, 2.0)
            wp = WeightParams(gamma, theta)
            p = _pieces([_point(m, 1.0, vp, wp)])[0][:, :, None]

            def wf(tau):
                with np.errstate(over="ignore"):
                    omega, w = _terms(m.of, p, _node_factors(tau))
                return value(omega, m.ref, vp) * w

            floor = 50 * np.finfo(float).eps * _H0 / 16 * np.abs(
                wf(inside)).sum()
            lost = np.abs(wf(beyond)).max()
            if not (lost < floor or lost == 0.0):
                over.append((metric.__name__, theta, alpha, rho, ref, gamma,
                             lost, floor))
    assert over == []


# --- laws that need no reference value --------------------------------------

def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def estimate(fn, *args):
    """(value, abs_error) of a PU run; a miss counts only at its roundoff
    floor, and any other fails the example."""
    try:
        res = fn(*args)
    except ToleranceNotMet as exc:
        if "below the roundoff floor" not in str(exc):
            raise
        return exc.value, exc.abs_error
    return res.value, res.abs_error


SHAPE = {"alpha": st.floats(0.05, 0.95), "theta": st.floats(0.05, 0.95),
         "rho": log_uniform(1e-2, 1e4), "mu": log_uniform(1e-2, 1e2),
         "x0": log_uniform(1e-2, 1e3)}


@settings(max_examples=100)
@given(c=log_uniform(1e-3, 1e3), **SHAPE)
def test_pu_snr_is_homogeneous_in_power_and_reference(c, alpha, theta, rho,
                                                      mu, x0):
    # v(c*x, c*x0) = c**alpha * v(x, x0), so PU_snr(c*rho, c*x0) is
    # c**alpha * PU_snr(rho, x0), within the two runs' summed error
    vp, wp = ValueParams(alpha, 1.0, 2.0), WeightParams(1.0, theta)
    a, a_err = estimate(pu_snr, link(rho, mu), x0, vp, wp)
    b, b_err = estimate(pu_snr, link(c * rho, mu), c * x0, vp, wp)
    scale = c ** alpha
    assert abs(b - scale * a) <= b_err + scale * a_err


@pytest.mark.parametrize("fn", [pu_snr, pu_rate])
@settings(max_examples=100)
@given(**SHAPE)
def test_pu_depends_on_power_and_mean_gain_through_their_product(
        fn, alpha, theta, rho, mu, x0):
    # rho * G with G ~ Exp(mu) is rho*mu * G' with G' ~ Exp(1)
    vp, wp = ValueParams(alpha, 1.0, 2.0), WeightParams(1.0, theta)
    a, a_err = estimate(fn, link(rho, mu), x0, vp, wp)
    b, b_err = estimate(fn, link(rho * mu), x0, vp, wp)
    assert abs(a - b) <= a_err + b_err


# Points on which an earlier QUADPACK-based engine understated its error,
# missed its tolerance, or raised a DomainError, with their 30-digit mpmath
# references from bench/catalogue.json (lambda_gain = 1 throughout). The
# last four, at theta = 1e-3 and 1e-4 and at gamma = 1e25, are points on
# which an adaptive Gauss-Kronrod engine certified a wrong value; their
# mpmath references split the integral at many points about gamma. The
# last two, at gamma = 1e300, are points where s / gamma underflows at the
# smallest exp-sinh node; their references split at 1e-40, 1e-10, 0.01, 1,
# 4, 16, 64 and 256 and agree with the substitution q = exp(-s) to 1e-33.
# metric, rho, ref, alpha, lambda_loss, gamma, theta, mu, tol, reference
HARD_POINTS = [
    ("pu_snr", 2.09046, 5.34596, 0.347988, 1.79406, 1.41174, 0.599264, 1.62999,
     1e-08, "-0.66949133462134574401690914309"),
    ("pu_rate", 33.2338, 9.6157, 0.328617, 2.59231, 1.74583, 0.854009, 0.999204,
     1e-08, "-4.1718764818445526901092439305"),
    ("pu_rate", 95.1045, 12.2516, 0.373104, 2.89246, 0.645156, 0.832999,
     1.86386, 1e-10, "-5.73893369295553164060215149196"),
    ("pu_rate", 323.59, 13.1617, 0.7577, 1.93655, 1.09237, 0.907626, 1.42899,
     1e-10, "-6.45528143136988173041539599386"),
    ("pu_rate", 167.115, 11.4346, 0.219788, 1.84557, 0.82954, 0.847732,
     0.743408, 1e-10, "-2.666058259664232328907395365"),
    ("pu_rate", 1.06632, 5.37853, 0.861842, 3.24769, 1.1379, 0.910887, 1.71183,
     1e-08, "-10.6894967927037752966346142636"),
    ("pu_rate", 1.10274, 5.37853, 0.861842, 3.24769, 1.1379, 0.910887, 1.71183,
     1e-08, "-10.6263062265974171669076513865"),
    ("pu_rate", 1.45813, 5.26515, 0.758894, 2.96978, 1.04817, 0.891087, 1.05514,
     1e-08, "-8.56947158863845764912341755571"),
    ("pu_rate", 53.3554, 15.0525, 0.875957, 1.83049, 1.26532, 0.523052,
     0.864163, 1e-10, "-13.3486154022271629636879067654"),
    ("pu_rate", 39.1824, 7.08204, 0.305509, 3.49575, 0.71285, 0.918895,
     1.11536, 1e-08, "-4.44177324109317863737866284194"),
    ("pu_snr", 10.0, 0.0, 0.5, 2.0, 1.0, 0.001, 1.0, 1e-08,
     "64.2582441646434839796446507784"),
    ("pu_rate", 10.0, 0.0, 0.5, 2.0, 1.0, 0.0001, 1.0, 1e-08,
     "2.54493058726440409810619194236"),
    ("pu_snr", 1.0, 0.459, 0.5, 2.0, 1e25, 0.5, 1.0, 1e-08,
     "10.7615357875227338345943648618"),
    ("pu_rate", 1.0, 0.459, 0.5, 2.0, 1e25, 0.5, 1.0, 1e-08,
     "2.53268256661536333588838100643"),
    ("pu_snr", 100.0, 4.0, 0.5, 2.0, 1e300, 0.8, 1.0, 1e-08,
     "293.964315295370589259660385283"),
    ("pu_rate", 100.0, 4.0, 0.5, 2.0, 1e300, 0.8, 1.0, 1e-08,
     "3.52123224724112857397186344567"),
]

# integrand evaluations of the fig5 and fig6 presets; the counts are
# deterministic, so any change to how the engine refines a piece shows here.
# Every point has three pieces and stops at level 3: 3 * (17 * 2**3 + 1)
# nodes
PRESET_EVALS = {"fig5": [411] * 10, "fig6": [411] * 10}


@pytest.mark.parametrize(
    "metric, rho, ref, alpha, lambda_loss, gamma, theta, mu, tol, expect",
    HARD_POINTS, ids=[f"{p[0]}-rho{p[1]}" for p in HARD_POINTS])
def test_error_bound_holds_on_hard_points(metric, rho, ref, alpha,
                                          lambda_loss, gamma, theta, mu, tol,
                                          expect):
    fn = pu_snr if metric == "pu_snr" else pu_rate
    res = fn(link(rho, mu), ref, ValueParams(alpha, 1.0, lambda_loss),
             WeightParams(gamma, theta), tol=tol)
    assert res.abs_error <= tol
    assert abs(res.value - float(expect)) <= res.abs_error


@pytest.mark.parametrize("name", sorted(PRESET_EVALS))
def test_pu_preset_evaluation_counts_are_pinned(name):
    rows = run_scenario(preset_scenario(name))
    assert [r.n_eval for r in rows] == PRESET_EVALS[name]


# --- outage and its weighted counterpart ------------------------------------

def test_outage_closed_forms():
    assert outage_probability(link(1.0), OutageSpec(1.0)) == pytest.approx(
        EXP_CDF_1, abs=1e-14)
    assert outage_probability(link(10.0), OutageSpec(2.0)) == pytest.approx(
        OUTAGE_E2_R10, abs=1e-14)


def test_outage_asymptotes():
    assert outage_probability(link(1e12), OutageSpec(1.0)) < 1e-11
    assert outage_probability(link(0.0), OutageSpec(1.0)) == 1.0


def test_pop_identity_weighting_equals_outage():
    for rho in (0.5, 1.0, 10.0):
        assert pop(link(rho), OutageSpec(1.0), WP_ID) == pytest.approx(
            outage_probability(link(rho), OutageSpec(1.0)), abs=1e-15)


def test_pop_closed_form_composition():
    got = pop(link(1.0), OutageSpec(1.0), WeightParams(1.0, 0.5))
    assert got == pytest.approx(POP_HALF, abs=1e-13)


def test_pop_against_mpmath():
    # pop is w(F(1/rho)) at mu = epsilon = gamma = 1. At theta = 0.01 the
    # outage rounds to 1 from rho = 0.027 down and its -log F = e^(-1/rho)
    # to 0 below rho = 0.0014; the weight still differs from 1 there
    errors = {}
    for theta, rho in itertools.product(
            (0.8, 0.65, 0.3, 0.1, 0.01),
            (1.0, 0.1, 0.05, 0.027, 0.025, 0.01, 0.002, 0.001, 1e-4)):
        with mpmath.workdps(50):
            neg_log_f = -mpmath.log1p(-mpmath.exp(-1 / mpmath.mpf(rho)))
            want = mpmath.exp(-neg_log_f ** mpmath.mpf(theta))
            got = pop(link(rho), OutageSpec(1.0), WeightParams(1.0, theta))
            errors[theta, rho] = float(abs(got - want))
    assert max(errors.values()) <= 1e-15, errors


def test_pop_overweights_rare_outages():
    wp = WeightParams(1.0, 0.5)
    lk = link(1000.0)
    spec = OutageSpec(1.0)
    assert pop(lk, spec, wp) > outage_probability(lk, spec)


def test_rate_threshold_past_float_range():
    # 2**rate is formed directly below 1024 and in log space above
    assert rate_gain(1023.5, 3.0) == (2.0 ** 1023.5 - 1.0) / 3.0
    assert rate_gain(2000.0, 1e300) == pytest.approx(
        2.0 ** 1000 / 1e300 * 2.0 ** 1000, rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rate_gain(2000.0, 100.0) == math.inf
        assert rate_metric(link(100.0), 2000.0).crossing == math.inf
        assert outage_probability(link(100.0), OutageSpec(2000.0)) == 1.0
        assert pop(link(100.0), OutageSpec(2000.0), WP) == 1.0
        assert mc_pop(link(100.0), OutageSpec(2000.0), WP,
                      McConfig(1000)).mean == 1.0


def test_pu_rate_reference_past_float_range():
    # the reference rate is never reached: every outcome is a loss
    res = pu_rate(link(100.0), 2000.0, VP, WP)
    assert abs(res.value - PU_RATE_REF2000) <= res.abs_error <= 1e-8


def test_pop_at_zero_power_is_certain():
    assert pop(link(0.0), OutageSpec(1.0), WeightParams(1.0, 0.5)) == 1.0
