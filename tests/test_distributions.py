"""Exponential gain law and its perceived (weighted) counterpart."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from percept import (DomainError, ExponentialGain, PerceptualDistribution,
                     WeightParams)
from percept.distributions import _log1mexp
from support import EXP_CDF_1, INV_E, POP_HALF, WP_ID


def make_pd(mu=1.0, gamma=1.0, theta=0.5, mode="strict"):
    return PerceptualDistribution(ExponentialGain(mu),
                                  WeightParams(gamma, theta, mode=mode))


# --- base exponential law -------------------------------------------------

def test_shared_constants_match_mpmath():
    # the doubles tests/support.py freezes, against 40-digit mpmath
    with mpmath.workdps(40):
        inv_e = mpmath.exp(-1)
        assert INV_E == float(inv_e)
        assert EXP_CDF_1 == float(1 - inv_e)
        neg_log_f = -mpmath.log(1 - inv_e)  # -log F(1), F of Exp(1)
        assert POP_HALF == float(mpmath.exp(-mpmath.sqrt(neg_log_f)))


def test_base_closed_forms():
    d = ExponentialGain(1.0)
    assert d.cdf(1.0) == pytest.approx(EXP_CDF_1, abs=1e-14)
    assert d.pdf(0.0) == 1.0
    assert ExponentialGain(2.0).inverse_cdf(0.5) == pytest.approx(
        2.0 * math.log(2.0), abs=1e-14)


def test_base_matches_mpmath_exponential():
    mu = 1.7
    d = ExponentialGain(mu)
    g = np.linspace(0.01, 20.0, 50)
    u = np.linspace(0.01, 0.99, 25)
    with mpmath.workdps(30):  # the law's closed forms
        m = mpmath.mpf(mu)
        cdf = [float(-mpmath.expm1(-x / m)) for x in g.tolist()]
        pdf = [float(mpmath.exp(-x / m) / m) for x in g.tolist()]
        ppf = [float(-m * mpmath.log1p(-p)) for p in u.tolist()]
        isf = [float(-m * mpmath.log(q)) for q in u.tolist()]
    assert np.allclose(d.cdf(g), cdf, rtol=1e-13, atol=0.0)
    assert np.allclose(d.pdf(g), pdf, rtol=1e-13, atol=0.0)
    assert np.allclose(d.inverse_cdf(u), ppf, rtol=1e-12)
    assert np.allclose(d.inverse_survival(u), isf, rtol=1e-12)


def test_base_cdf_zero_below_support():
    d = ExponentialGain(1.0)
    assert d.cdf(-3.0) == 0.0
    assert d.pdf(-3.0) == 0.0
    # F is +0.0 at and below the support, -0.0 included, and NaN at NaN,
    # as a scalar and in one array
    g = [-math.inf, -1e300, -5e-324, -0.0, 0.0, math.nan]
    for out in ([d.cdf(x) for x in g], d.cdf(np.array(g))):
        assert [math.copysign(1.0, f) for f in out[:5]] == [1.0] * 5
        assert list(out[:5]) == [0.0] * 5
        assert math.isnan(out[5])


@pytest.mark.filterwarnings("error")
def test_base_pdf_is_pinned_bitwise():
    # f is +0.0 below the support and where g/mu is past the float range,
    # 1/mu at -0.0 and +0.0, and at NaN the NaN with the sign bit set, as
    # a scalar and in one array
    d = ExponentialGain(1e-3)
    g = [-math.inf, -1e300, -5e-324, -0.0, 0.0, math.nan, 1e306, math.inf]
    want = np.array([0.0] * 3 + [1.0 / d.mu] * 2 + [-math.nan] + [0.0] * 2)
    for out in (np.array([d.pdf(x) for x in g]), d.pdf(np.array(g))):
        assert out.tobytes() == want.tobytes()


@given(st.floats(min_value=1e-6, max_value=12.0),
       st.floats(min_value=1.0, max_value=5.0))
def test_base_quantile_round_trip(g, mu):
    # scoped to g/mu <= 12, where 1 - F(g) is far from the rounding cliff
    d = ExponentialGain(mu)
    assert d.inverse_cdf(d.cdf(g)) == pytest.approx(g, rel=1e-10)


@given(st.floats(min_value=1e-6, max_value=600.0),
       st.floats(min_value=1.0, max_value=5.0))
def test_base_survival_round_trip_deep_tail(g, mu):
    # the survival path stays exact where the CDF itself saturates;
    # g/mu <= 600 keeps exp(-g/mu) out of the subnormal range
    d = ExponentialGain(mu)
    assert d.inverse_survival(math.exp(-g / mu)) == pytest.approx(g,
                                                                  rel=1e-12)


def test_base_log_cdf_both_tails():
    # log F(g) = log(1 - e^-g) at mu = 1, as the perceived law forms it
    assert _log1mexp(1.0) == pytest.approx(math.log(EXP_CDF_1), rel=1e-14)
    # deep upper tail: log F(g) ~ -e^-g, far below where 1 - e^-g rounds
    # to 1.0
    assert _log1mexp(50.0) == pytest.approx(-math.exp(-50.0), rel=1e-12)
    assert _log1mexp(700.0) == pytest.approx(-math.exp(-700.0), rel=1e-12)
    # lower tail: log F(g) ~ log(g)
    assert _log1mexp(1e-280) == pytest.approx(math.log(1e-280), rel=1e-12)


def test_base_domain_errors():
    d = ExponentialGain(1.0)
    for bad in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\)"):
            d.inverse_cdf(bad)
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\]"):
            d.inverse_survival(bad)
    with pytest.raises(DomainError):
        d.inverse_cdf(0.0)
    with pytest.raises(DomainError):
        d.inverse_cdf(1.0)
    with pytest.raises(DomainError):
        d.inverse_survival(0.0)
    with pytest.raises(DomainError):
        ExponentialGain(0.0)
    with pytest.raises(DomainError):
        ExponentialGain(-1.0)


# --- perceived CDF --------------------------------------------------------

def test_pcdf_identity_weighting_reduces_to_cdf():
    pd = PerceptualDistribution(ExponentialGain(1.0), WP_ID)
    for s in (0.0, 0.3, 1.0, 5.0):
        assert pd.pcdf(s) == pytest.approx(pd.base.cdf(s), abs=1e-15)


def test_pcdf_closed_form_composition():
    assert make_pd().pcdf(1.0) == pytest.approx(POP_HALF, abs=1e-13)


@pytest.mark.filterwarnings("error")
def test_gains_past_mu_times_the_float_range_take_their_limits():
    # g/mu overflows to inf: F = 1, f = 0, log F = 0, perceived F = 1
    g = np.array([1e306, np.finfo(float).max, np.inf])
    d = ExponentialGain(1e-3)
    assert np.all(d.cdf(g) == 1.0)
    assert np.all(d.pdf(g) == 0.0)
    with np.errstate(over="ignore"):
        assert np.all(_log1mexp(g / d.mu) == 0.0)
    assert np.all(PerceptualDistribution(d, WeightParams(1.0, 0.5)).pcdf(g)
                  == 1.0)


@pytest.mark.filterwarnings("error")
def test_quantiles_past_the_float_range_are_inf():
    d = ExponentialGain(1.7e308)
    assert d.inverse_cdf(0.9) == math.inf
    assert d.inverse_survival(0.1) == math.inf


def test_pcdf_far_tail_against_mpmath():
    # -log F = e^(-s) turns subnormal past s ~ 708.4 and 0 past s ~ 745;
    # (-log F)**theta is e^(-theta*s) there
    pd = make_pd(theta=0.01)
    for s in (700.0, 708.0, 709.0, 720.0, 745.0, 746.0, 800.0, 3000.0):
        with mpmath.workdps(50):
            neg_log_f = -mpmath.log1p(-mpmath.exp(-mpmath.mpf(s)))
            want = mpmath.exp(-neg_log_f ** mpmath.mpf(0.01))
            assert abs(pd.pcdf(s) - want) <= 1e-15, s


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", [0.3, 1.0, 1e5])
@pytest.mark.parametrize("gamma", [0.001, 1.0, 3.0])
@pytest.mark.parametrize("theta", [0.01, 0.5, 0.9])
def test_ppdf_far_tail_against_mpmath(mu, gamma, theta):
    # -log F = e^(-s/mu) is subnormal for s/mu in (708.4, 745] and 0
    # past it; there (-log F)**(theta-1) * f/F is e^(-theta*s/mu)/mu
    pd = make_pd(mu, gamma, theta)
    s = np.array([700.0, 710.0, 720.0, 740.0, 744.0, 745.0, 746.0, 750.0,
                  800.0]) * mu
    with mpmath.workdps(50):
        g, t = mpmath.mpf(gamma), mpmath.mpf(theta)
        for si, got in zip(s, pd.ppdf(s)):
            x = mpmath.mpf(si) / mu
            neg_log_f = -mpmath.log1p(-mpmath.exp(-x))
            want = (g * t * mpmath.exp(-g * neg_log_f ** t)
                    * neg_log_f ** (t - 1) * mpmath.exp(-x) / mu
                    / -mpmath.expm1(-x))
            # at theta = 0.9, s/mu = 800 the density is subnormal: the
            # subnormal e^(-theta*s/mu) and its product with
            # gamma*theta*w(F) each round to a step of 2**-1074 before the
            # division by mu, and the quotient rounds once more
            bound = (1e-13 * want if want >= np.finfo(float).tiny
                     else ((g * t + 1) / (2 * mu) + 0.5) * 2.0**-1074)
            for value in (got, pd.ppdf(float(si))):
                assert abs(value - want) <= bound, si


def test_pcdf_boundaries():
    pd = make_pd()
    assert pd.pcdf(0.0) == 0.0
    assert pd.pcdf(1e6) == 1.0
    assert pd.pcdf(math.inf) == 1.0


def test_nan_is_outside_both_domains():
    pd = make_pd()
    for fn in (pd.pcdf, pd.ppdf):
        with pytest.raises(DomainError):
            fn(math.nan)
        with pytest.raises(DomainError):
            fn(np.array([1.0, math.nan]))


@given(st.floats(min_value=0.0, max_value=40.0),
       st.floats(min_value=1e-3, max_value=40.0),
       st.floats(min_value=0.2, max_value=3.0),
       st.floats(min_value=0.05, max_value=0.99))
def test_pcdf_is_nondecreasing_and_bounded(s, step, gamma, theta):
    pd = make_pd(gamma=gamma, theta=theta)
    a, b = pd.pcdf(s), pd.pcdf(s + step)
    assert 0.0 <= a <= b <= 1.0


# --- perceived density ----------------------------------------------------

def test_ppdf_identity_weighting_reduces_to_pdf():
    pd = PerceptualDistribution(ExponentialGain(1.0), WP_ID)
    for s in (0.1, 0.5, 1.0, 5.0):
        assert pd.ppdf(s) == pytest.approx(pd.base.pdf(s), rel=1e-13)


def test_ppdf_matches_finite_difference_of_pcdf():
    pd = make_pd(theta=0.8)
    for s in (0.5, 1.0, 2.0):
        h = 1e-7 * s
        fd = (pd.pcdf(s + h) - pd.pcdf(s - h)) / (2.0 * h)
        assert pd.ppdf(s) == pytest.approx(fd, rel=1e-6)


def test_ppdf_integrates_to_one():
    pd = make_pd(theta=0.8)
    mu = pd.base.mu
    bulk = mpmath.quad(lambda s: pd.ppdf(float(s)), [mu, 700.0 * mu])
    # left tail via s = mu * exp(-y); the perceived mass below exp(-y_max)
    # is exp(-gamma * y_max**theta) < 1e-13
    y_max = 30.0 ** (1.0 / 0.8)
    left = mpmath.quad(
        lambda y: pd.ppdf(mu * math.exp(-y)) * mu * math.exp(-y), [0.0, y_max])
    assert float(bulk + left) == pytest.approx(1.0, abs=1e-8)


@given(st.floats(min_value=1e-200, max_value=600.0),
       st.floats(min_value=0.2, max_value=3.0),
       st.floats(min_value=0.05, max_value=0.99))
@settings(max_examples=200)
def test_ppdf_nonnegative_and_finite(s, gamma, theta):
    v = make_pd(gamma=gamma, theta=theta).ppdf(s)
    assert np.isfinite(v) and v >= 0.0


def test_ppdf_domain_errors_at_edges():
    pd = make_pd()
    with pytest.raises(DomainError):
        pd.ppdf(0.0)
    with pytest.raises(DomainError):
        pd.ppdf(-1.0)
    with pytest.raises(DomainError):
        make_pd(mu=1e300).ppdf(1e-30)  # s/mu underflows: F rounds to 0


# --- perceptual sampling --------------------------------------------------

def test_perceptual_sample_identity_is_plain_quantile():
    pd = PerceptualDistribution(ExponentialGain(1.0), WP_ID)
    u = np.array([0.05, 0.4, 0.95])
    assert np.allclose(pd.perceptual_sample(u), pd.base.inverse_cdf(u),
                       rtol=1e-12)


def test_perceptual_sample_round_trip():
    pd = make_pd()
    for u in (0.1, 0.5, 0.9):
        assert pd.pcdf(pd.perceptual_sample(u)) == pytest.approx(u,
                                                                 abs=1e-10)


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-9),
       st.floats(min_value=0.2, max_value=3.0),
       st.floats(min_value=0.3, max_value=0.99))
def test_perceptual_sample_round_trip_wide(u, gamma, theta):
    # skip where the sample's base probability exp(-z) underflows: the
    # true gain then sits below the smallest representable double
    assume(((-math.log(u)) / gamma) ** (1.0 / theta) < 700.0)
    pd = make_pd(gamma=gamma, theta=theta)
    assert pd.pcdf(pd.perceptual_sample(u)) == pytest.approx(u, abs=1e-9)


def test_perceptual_sample_keeps_the_tail_when_z_underflows():
    # theta = 0.01: z = (2**-53)**100 underflows, so the gain -log(z) is
    # formed in log space; it equals 100 * 53 * log(2) for mu = 1
    pd = make_pd(theta=0.01)
    g = pd.perceptual_sample(1.0 - 2.0**-53)
    assert math.isfinite(g)
    assert g == pytest.approx(5300.0 * math.log(2.0), rel=1e-12)
    assert pd.pcdf(g) == pytest.approx(1.0 - 2.0**-53, abs=1e-15)


def test_perceptual_sample_uses_neither_public_quantile(monkeypatch):
    pd = make_pd(gamma=0.7, theta=0.3)
    u = np.concatenate([np.ldexp(1.0, -np.arange(1, 1075)),
                        1.0 - np.ldexp(1.0, -np.arange(1, 54)),
                        np.random.default_rng(3).random(1000)])
    want = pd.perceptual_sample(u)

    def forbidden(self, x):
        raise AssertionError("the sampler called a public quantile")

    monkeypatch.setattr(ExponentialGain, "inverse_cdf", forbidden)
    monkeypatch.setattr(ExponentialGain, "inverse_survival", forbidden)
    assert pd.perceptual_sample(u).tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
def test_perceptual_sample_where_z_overflows():
    # gamma = 1e-3, theta = 0.01: z overflows to inf below u ~ 0.3 and
    # exp(-z) underflows below u ~ 0.999; the gain is then mu times the
    # smallest base probability
    pd = make_pd(mu=2.0, gamma=1e-3, theta=0.01)
    g = pd.perceptual_sample(np.array([2.0**-1074, 0.5, 0.99]))
    assert g.tolist() == [2.0 * 5e-324] * 3


def test_perceptual_sample_rejects_boundary_uniforms():
    pd = make_pd()
    for bad in (0.0, 1.0, -0.1, math.nan, np.array([0.5, math.nan])):
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\)"):
            pd.perceptual_sample(bad)


def test_perceptual_sample_empirical_cdf_matches_pcdf():
    pd = make_pd(theta=0.8)
    rng = np.random.default_rng(42)
    n = 1_000_000
    draws = np.sort(pd.perceptual_sample(rng.random(n)))
    probe = draws[:: n // 2000]
    model = np.array([pd.pcdf(s) for s in probe])
    empirical = np.searchsorted(draws, probe, side="right") / n
    assert float(np.max(np.abs(empirical - model))) < 0.002
