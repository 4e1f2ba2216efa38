"""Acceptance gate: one test per release criterion, with runtime budgets.

Run with -v to get one pass/fail line per criterion; each test also prints
a summary line with the measured margin and runtime.
"""
import math
import time

import mpmath
import numpy as np

from percept import (ExponentialGain, McConfig, MultipathConfig, OutageSpec,
                     PerceptualDistribution, ValueParams, WeightParams,
                     gain_samples, mc_pu, pop, preset_scenario, pu_rate,
                     pu_snr, rate_metric, run_scenario, snr_metric, value,
                     weight)
from support import (INV_E, VP, VP_ID, WP, WP_ID, exponential_cdf, link,
                     sup_distance)


def _finish(n, name, ok, detail, elapsed, bound):
    status = "PASS" if (ok and elapsed < bound) else "FAIL"
    print(f"criterion {n} [{status}] {name}: {detail}; "
          f"runtime {elapsed:.2f}s (limit {bound:g}s)")
    assert ok, f"criterion {n} ({name}): {detail}"
    assert elapsed < bound, (
        f"criterion {n} ({name}): runtime {elapsed:.2f}s over {bound:g}s")


def test_criterion_1_zero_power_limit():
    t0 = time.perf_counter()
    res = pu_snr(link(0.0), 4.0, VP, WP)
    dev = abs(res.value - (-4.0))
    _finish(1, "zero-power limit", dev <= 1e-8,
            f"pu_snr(0) = {res.value:.12g}, |dev| = {dev:.3g} (tol 1e-8)",
            time.perf_counter() - t0, 1.0)


def test_criterion_2_classical_reduction():
    t0 = time.perf_counter()
    worst = 0.0
    for rho in (1.0, 10.0, 100.0, 1000.0):
        got = pu_snr(link(rho), 0.0, VP_ID, WP_ID).value
        worst = max(worst, abs(got - rho) / rho)
    _finish(2, "classical reduction", worst <= 1e-6,
            f"max relative deviation {worst:.3g} (tol 1e-6)",
            time.perf_counter() - t0, 1.0)


def test_criterion_3_oracle_agreement():
    t0 = time.perf_counter()
    wins = {"pu_snr": 0, "pu_rate": 0}
    seed = 0
    for alpha in (0.3, 0.5, 0.8):
        vp = ValueParams(alpha, 1.0, 2.0)
        for theta in (0.5, 0.65, 0.8):
            wp = WeightParams(1.0, theta)
            pd = PerceptualDistribution(ExponentialGain(1.0), wp)
            for rho in (1.0, 10.0, 100.0):
                lk = link(rho)
                for name, exact_fn, metric_fn in (
                        ("pu_snr", pu_snr, snr_metric),
                        ("pu_rate", pu_rate, rate_metric)):
                    quad_val = exact_fn(lk, 4.0, vp, wp).value
                    est = mc_pu(metric_fn(lk, 4.0), pd, vp,
                                McConfig(samples=1_000_000, seed=seed))
                    wins[name] += abs(est.mean - quad_val) <= 3.0 * est.std_error
                    seed += 1
    ok = wins["pu_snr"] >= 26 and wins["pu_rate"] >= 26
    _finish(3, "oracle agreement 3x3x3",
            ok, f"pu_snr {wins['pu_snr']}/27, pu_rate {wins['pu_rate']}/27 "
                "within 3 standard errors (need >= 26)",
            time.perf_counter() - t0, 120.0)


def test_criterion_4_density_validity():
    t0 = time.perf_counter()
    sets = ((1.0, 0.65, 1.0), (1.0, 0.5, 1.0), (1.0, 0.8, 2.0),
            (0.7, 0.65, 1.0), (1.2, 0.9, 0.5))
    worst_mass = 0.0
    worst_fd = 0.0
    for gamma, theta, mu in sets:
        pd = PerceptualDistribution(ExponentialGain(mu),
                                    WeightParams(gamma, theta))
        # unit mass: bulk piece plus a log-substituted left piece that
        # resolves the integrable divergence at the lower endpoint
        bulk = mpmath.quad(lambda s: pd.ppdf(float(s)), [mu, 700.0 * mu])
        # truncation depth: perceived mass below exp(-y_max) is under 1e-11,
        # and the 700 cap keeps mu*exp(-y) representable
        y_max = min((30.0 / gamma) ** (1.0 / theta), 700.0)
        left = mpmath.quad(
            lambda y: pd.ppdf(mu * math.exp(-y)) * mu * math.exp(-y),
            [0.0, y_max])
        worst_mass = max(worst_mass, abs(float(bulk + left) - 1.0))

        for s in np.linspace(0.2 * mu, 4.0 * mu, 20):
            h = 1e-6 * s
            fd = (pd.pcdf(s + h) - pd.pcdf(s - h)) / (2.0 * h)
            worst_fd = max(worst_fd, abs(fd - pd.ppdf(s)) / pd.ppdf(s))
    ok = worst_mass <= 1e-8 and worst_fd <= 1e-5
    _finish(4, "perceived density validity", ok,
            f"max |mass - 1| = {worst_mass:.3g} (tol 1e-8), max relative "
            f"finite-difference mismatch {worst_fd:.3g} (tol 1e-5), 5 sets",
            time.perf_counter() - t0, 10.0)


def test_criterion_5_shape_reproduction():
    t0 = time.perf_counter()
    wp_pop = WeightParams(1.0, 0.65)
    rhos = (1.0, 2.0, 5.0, 10.0, 100.0, 1000.0)

    snr_curve = [pu_snr(link(r), 4.0, VP, WP).value for r in rhos]
    rate_curve = [pu_rate(link(r), 4.0, VP, WP).value for r in rhos]
    pop_curve = [pop(link(r), OutageSpec(1.0), wp_pop) for r in rhos]
    by_ref = [pu_snr(link(10.0), g0, VP, WP).value for g0 in (1.0, 4.0, 16.0)]
    by_loss = [pu_snr(link(10.0), 4.0, ValueParams(0.5, 1.0, lam), WP).value
               for lam in (1.5, 2.0, 3.0)]

    increasing = all(b > a for a, b in zip(snr_curve, snr_curve[1:]))
    increasing &= all(b > a for a, b in zip(rate_curve, rate_curve[1:]))
    decreasing_pop = all(b < a for a, b in zip(pop_curve, pop_curve[1:]))
    decreasing_ref = by_ref[0] > by_ref[1] > by_ref[2]
    decreasing_loss = by_loss[0] > by_loss[1] > by_loss[2]
    ok = (increasing and decreasing_pop and decreasing_ref and decreasing_loss)
    _finish(5, "shape reproduction", ok,
            f"pu monotone up in power: {increasing}, pop monotone down: "
            f"{decreasing_pop}, pu down in reference: {decreasing_ref}, "
            f"pu down in loss ratio: {decreasing_loss}",
            time.perf_counter() - t0, 30.0)


def test_criterion_6_prospect_properties():
    t0 = time.perf_counter()
    vp = ValueParams(0.88, 1.0, 2.25)
    x0 = 1.0e6 + 1.0
    deltas = np.logspace(-6.0, 6.0, 25)
    loss_averse = all(value(x0 + d, x0, vp) < -value(x0 - d, x0, vp)
                      for d in deltas)

    wp = WeightParams(1.0, 0.65)
    below = np.linspace(0.005, INV_E - 0.005, 25)
    above = np.linspace(INV_E + 0.005, 0.995, 25)
    inverse_s = (all(weight(p, wp) > p for p in below)
                 and all(weight(p, wp) < p for p in above))

    fixed = max(abs(float(weight(INV_E, WeightParams(1.0, th))) - INV_E)
                for th in (0.3, 0.5, 0.65, 0.8, 0.99))
    ok = loss_averse and inverse_s and fixed < 1e-12
    _finish(6, "prospect properties", ok,
            f"loss aversion at 25 log-spaced offsets: {loss_averse}, "
            f"inverse-S about 1/e at 50 points: {inverse_s}, "
            f"max fixed-point deviation {fixed:.3g} (tol 1e-12)",
            time.perf_counter() - t0, 1.0)


def test_criterion_7_channel_model_consistency():
    t0 = time.perf_counter()
    g = np.sort(gain_samples(MultipathConfig(k_paths=64, amplitude_scale=1.0,
                                             seed=0), 100_000))
    ks = sup_distance(g, exponential_cdf(1.0))
    _finish(7, "channel-model consistency", ks < 0.01,
            f"K=64, 1e5 samples, sup-distance {ks:.4g} vs exponential "
            "(tol 0.01)", time.perf_counter() - t0, 10.0)


def test_criterion_8_documented_preset_increment():
    t0 = time.perf_counter()
    rows = {r.axis: r.value for r in run_scenario(preset_scenario("fig5"))}
    inc = rows[1000.0] - rows[400.0]
    _finish(8, "diminishing returns preset", 0.1 <= inc <= 0.6,
            f"fig5 PU increment from power 400 to 1000 is {inc:.5g} "
            "(required within [0.1, 0.6])",
            time.perf_counter() - t0, 30.0)
