"""Perceptual-utility quadrature, outage probability, and weighted outage."""
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from scipy.integrate import quad

from percept import (CompositeMetric, DomainError, ExponentialGain,
                     LinkBudget, McConfig, OutageSpec, PerceptualDistribution,
                     ToleranceNotMet, ValueParams, WeightParams, as_reference,
                     mc_pop, outage_probability, pop, pu_composite, pu_rate,
                     pu_snr, rate_metric, snr_metric, value, weight)
from percept.metrics import DEFAULT_BUDGET, _gain_at, pu_batch, rate_gain
from percept.sweep import preset_scenario, run_scenario

VP = ValueParams(0.5, 1.0, 2.0)
WP = WeightParams(1.0, 0.8)
VP_ID = ValueParams(1.0, 1.0, 1.0, mode="permissive")
WP_ID = WeightParams(1.0, 1.0, mode="permissive")

# mpmath (30 digits)
EXP_CDF_1 = 0.63212055882855768
OUTAGE_E2_R10 = 0.25918177931828213   # 1 - exp(-0.3)
POP_HALF = 0.50800926251670411        # w(1 - e^-1) at gamma=1, theta=0.5
PU_SNR_R10 = 1.0997321667562066       # pu_snr at rho=10, ref 4, VP, WP
PU_RATE_REF2000 = -89.311716188957788  # pu_rate at rho=100, ref 2000, VP, WP
# pu_rate at rho=1e300, ref 2000, VP, WP, with bench/make_refs.py's model
PU_RATE_FAR_TAIL = "-63.3836254320401246732296213960"


def link(rho, mu=1.0):
    return LinkBudget(rho, ExponentialGain(mu))


def classical_capacity(rho):
    """Mean of log2(1 + rho*G), G ~ Exp(1): e^(1/rho) E1(1/rho) / ln 2."""
    return math.exp(1.0 / rho) * scipy.special.exp1(1.0 / rho) / math.log(2.0)


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


def test_crossing_point_bisection_matches_analytic():
    m = CompositeMetric(map=lambda g: 10.0 * g, ref=as_reference(4.0),
                        crossing=None)
    found = m.crossing_point()
    assert found == pytest.approx(0.4, rel=1e-12)


def test_crossing_point_never_reached_is_infinite():
    m = CompositeMetric(map=lambda g: 1.0, ref=as_reference(4.0),
                        crossing=None)
    assert math.isinf(m.crossing_point())


def test_pu_rejects_nonpositive_tolerance():
    with pytest.raises(DomainError):
        pu_snr(link(10.0), 4.0, VP, WP, tol=0.0)


# --- perceptual utility: analytic anchors -----------------------------------

def test_zero_power_is_pure_reference_loss():
    res = pu_snr(link(0.0), 4.0, VP, WP)
    assert res.value == pytest.approx(-4.0, abs=1e-8)
    assert res.abs_error <= 1e-8


@pytest.mark.parametrize("rho", [1.0, 10.0, 100.0, 1000.0])
def test_classical_reduction_snr_is_mean_snr(rho):
    res = pu_snr(link(rho), 0.0, VP_ID, WP_ID)
    assert res.value == pytest.approx(rho, rel=1e-6)


def test_classical_reduction_scales_with_mean_gain():
    res = pu_snr(link(50.0, mu=2.0), 0.0, VP_ID, WP_ID)
    assert res.value == pytest.approx(100.0, rel=1e-6)


@pytest.mark.parametrize("rho", [1.0, 10.0, 100.0])
def test_classical_reduction_rate_is_ergodic_capacity(rho):
    res = pu_rate(link(rho), 0.0, VP_ID, WP_ID)
    assert res.value == pytest.approx(classical_capacity(rho), rel=1e-8)


def test_classical_rate_against_direct_unweighted_quadrature():
    rho = 10.0
    direct, _ = quad(lambda g: math.log2(1.0 + rho * g) * math.exp(-g),
                     0.0, np.inf, epsabs=1e-10, epsrel=0.0, limit=200)
    res = pu_rate(link(rho), 0.0, VP_ID, WP_ID)
    assert res.value == pytest.approx(direct, abs=1e-8)


def test_substitution_matches_direct_gain_space_quadrature():
    # same integral evaluated without the substitution: v(omega(g)) against
    # the perceived density over a truncated gain range
    rho, ref = 10.0, 4.0
    pd = PerceptualDistribution(ExponentialGain(1.0), WP)
    res = pu_snr(link(rho), ref, VP, WP)
    g_star = ref / rho

    def raw(g):
        return value(rho * g, ref, VP) * pd.ppdf(g)

    direct = 0.0
    with warnings.catch_warnings():
        # the naive route fights the boundary singularity; roundoff noise
        # there is exactly why the production path substitutes first
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        for a, b in ((1e-20, g_star), (g_star, 40.0)):
            piece, _ = quad(raw, a, b, epsabs=1e-9, epsrel=0.0, limit=400)
            direct += piece
    assert res.value == pytest.approx(direct, abs=1e-5)


def test_pu_result_reports_quadrature_health():
    res = pu_snr(link(10.0), 4.0, VP, WP, tol=1e-8)
    assert res.abs_error >= 0.0
    assert res.abs_error <= 1e-8
    assert res.evaluations >= 1


def test_tolerance_not_met_raises_with_diagnostics():
    with pytest.raises(ToleranceNotMet) as exc:
        pu_snr(link(10.0), 4.0, VP, WP, tol=1e-8, budget=100)
    err = exc.value
    assert 0 < err.evaluations <= 100
    assert err.abs_error > 1e-8
    assert math.isfinite(err.value)


def test_tolerance_below_roundoff_raises_within_budget():
    with pytest.raises(ToleranceNotMet) as exc:
        pu_snr(link(10.0), 4.0, VP, WP, tol=1e-14, budget=DEFAULT_BUDGET)
    err = exc.value
    assert 0 < err.evaluations <= DEFAULT_BUDGET
    assert err.abs_error > 1e-14
    # the intervals above their floor are still refined, so the value
    # carried is good to well below the default tolerance
    assert abs(err.value - PU_SNR_R10) <= err.abs_error < 1e-10
    assert "below the roundoff floor" in str(err)


def test_budget_below_one_pass_evaluates_nothing():
    with pytest.raises(ToleranceNotMet) as exc:
        pu_snr(link(10.0), 4.0, VP, WP, budget=10)
    assert exc.value.evaluations == 0


def test_generic_composite_constant_metric():
    # constant metric below the reference: the value function is constant
    m = CompositeMetric(map=lambda g: np.zeros_like(np.asarray(g)) + 1.0,
                        ref=as_reference(4.0), crossing=math.inf)
    pd = PerceptualDistribution(ExponentialGain(1.0), WP)
    res = pu_composite(m, pd, VP)
    assert res.value == pytest.approx(value(1.0, 4.0, VP), abs=1e-8)


def test_generic_composite_map_may_return_one_constant():
    m = CompositeMetric(map=lambda g: 1.0, ref=as_reference(4.0),
                        crossing=math.inf)
    pd = PerceptualDistribution(ExponentialGain(1.0), WP)
    res = pu_composite(m, pd, VP)
    assert res.value == pytest.approx(value(1.0, 4.0, VP), abs=1e-8)


@pytest.mark.filterwarnings("error")
def test_value_overflow_fails_only_its_own_point():
    pd = PerceptualDistribution(ExponentialGain(1.0), WP)
    huge = ValueParams(0.5, 1.0, 1e308)
    points = [(snr_metric(link(10.0), 4.0), pd, VP),
              (snr_metric(link(10.0), 4.0), pd, huge),
              (snr_metric(link(100.0), 4.0), pd, VP)]
    out = pu_batch(points)
    assert isinstance(out[1], DomainError)
    assert "overflows the float range" in str(out[1])
    for res, rho in ((out[0], 10.0), (out[2], 100.0)):
        alone = pu_snr(link(rho), 4.0, VP, WP)
        assert (res.value, res.evaluations) == (alone.value,
                                                alone.evaluations)
    with pytest.raises(DomainError, match="overflows the float range"):
        pu_snr(link(10.0), 4.0, huge, WP)


# --- perceptual utility: shape ----------------------------------------------

def test_pu_increases_with_power():
    rhos = [1.0, 2.0, 5.0, 10.0, 100.0, 1000.0]
    snr_vals = [pu_snr(link(r), 4.0, VP, WP).value for r in rhos]
    rate_vals = [pu_rate(link(r), 4.0, VP, WP).value for r in rhos]
    assert all(b > a for a, b in zip(snr_vals, snr_vals[1:]))
    assert all(b > a for a, b in zip(rate_vals, rate_vals[1:]))


def test_pu_decreases_with_reference_point():
    vals = [pu_snr(link(10.0), g0, VP, WP).value for g0 in (1.0, 4.0, 16.0)]
    assert vals[0] > vals[1] > vals[2]


def test_pu_decreases_with_loss_aversion():
    vals = [pu_snr(link(10.0), 4.0, ValueParams(0.5, 1.0, lam), WP).value
            for lam in (1.5, 2.0, 3.0)]
    assert vals[0] > vals[1] > vals[2]


# --- perceptual utility: small theta and accuracy against mpmath ------------

# theta = 0.01 lies inside the strict box; z = (s/gamma)**(1/theta) and the
# base survival probability 1 - exp(-z) underflow near s = 0 there.
# mpmath (30 digits) at rho=10, ref=4, alpha=0.5, lambda_loss=2, gamma=1
PU_THETA_001 = {"pu_snr": "18.8017112057649821399622745836",
                "pu_rate": "-0.0000855286317198332193414057320862"}


def test_gain_at_tiny_s_stays_finite():
    base = ExponentialGain(2.0)
    s = np.array([1e-3, 1e-300])
    # z is 1e-300, then underflows to 0; log(1 - exp(-z)) = log z there
    expect = -2.0 * np.log(s) / 0.01
    assert np.allclose(_gain_at(s, 2.0, 1.0, 0.01), expect, rtol=1e-15)
    # away from the tiny-z branch the quantile is the exponential law's
    s = np.array([0.05, 1.0, 20.0])
    z = (s / 1.3) ** (1.0 / 0.6)
    assert np.allclose(_gain_at(s, 2.0, 1.3, 0.6),
                       base.inverse_survival(-np.expm1(-z)), rtol=1e-14)


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
    # tol 1e-12 bisects deep into the logarithmic singularity at s = 0
    res = fn(link(10.0), 4.0, VP, WeightParams(1.0, 0.01), tol=tol)
    ref = float(PU_THETA_001[fn.__name__])
    assert math.isfinite(res.value)
    assert res.abs_error <= tol
    assert abs(res.value - ref) <= res.abs_error


# Points on which an earlier QUADPACK-based engine understated its error,
# missed its tolerance, or raised a DomainError, with their 30-digit mpmath
# references from bench/catalogue.json (lambda_gain = 1 throughout).
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
]

# the fig5 and fig6 presets, point by point in grid order
PRESET_REFS = {
    "fig5": ["-3.59916697869680525814125538945",
             "-2.77210665090274205333426574648",
             "-1.27276775099435006046249963575",
             "-0.31146924068000174697774582429",
             "0.407505110478365564224195078565",
             "1.08517451374604254979135720744",
             "1.47526465162303417424924851438",
             "1.81122345011839809497626088172",
             "2.12273614437620668062790861004",
             "2.52941306739791122373780581449"],
    "fig6": ["-3.47886271596555643180137741073",
             "-3.15023916219112304850310171807",
             "-2.38496351431078780588126295231",
             "-1.53625282338262830147387872399",
             "-0.665124650464570243058476968282",
             "0.293601211850572991214686295106",
             "0.85365806095345078102928046629",
             "1.30228856880518570929231770145",
             "1.66945589590709180390702882746",
             "2.06771305690274273952439274245"],
}


# integrand evaluations of the same presets; the counts are deterministic,
# so any change to how the engine refines an interval shows here
PRESET_EVALS = {
    "fig5": [1380, 1500, 1560, 1560, 1560, 1560, 1560, 1530, 1500, 1500],
    "fig6": [630, 960, 1170, 1230, 1260, 1290, 1290, 1290, 1260, 1260],
}


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


@pytest.mark.parametrize("name", sorted(PRESET_REFS))
def test_error_bound_holds_on_pu_presets(name):
    rows = run_scenario(preset_scenario(name))
    assert len(rows) == len(PRESET_REFS[name])
    for row, expect in zip(rows, PRESET_REFS[name]):
        assert abs(row.value - float(expect)) <= row.err, row.axis


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


def test_pop_overweights_rare_outages():
    wp = WeightParams(1.0, 0.5)
    lk = link(1000.0)
    spec = OutageSpec(1.0)
    assert pop(lk, spec, wp) > outage_probability(lk, spec)


def test_pop_decreases_with_power():
    wp = WeightParams(1.0, 0.65)
    vals = [pop(link(r), OutageSpec(1.0), wp)
            for r in (1.0, 2.0, 5.0, 10.0, 100.0, 1000.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


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
