"""Two independent routes to the same number, and a starved error path.

The quadrature engine integrates the valued metric against the perceived
density after a substitution that removes the endpoint singularity. The
Monte Carlo oracle never touches that machinery: it samples gains from
the perceived law by inverse transform, one uniform per stratum, and
averages. Agreement within three standard errors is the acceptance test
for both. The standard error is plain sampling's, which overstates a
stratified mean's error, so the sigma column reads far below 1.
"""
from percept import (ExponentialGain, LinkBudget, McConfig,
                     PerceptualDistribution, ToleranceNotMet, ValueParams,
                     WeightParams, mc_pu, pu_snr, snr_metric)

vp = ValueParams(alpha=0.5, lambda_gain=1.0, lambda_loss=2.0)
wp = WeightParams(gamma=1.0, theta=0.8)
pd = PerceptualDistribution(ExponentialGain(mu=1.0), wp)

print("quadrature vs Monte Carlo (1e6 samples), PU of SNR, reference 4")
print(f"{'Pt/N0':>7}  {'quadrature':>12}  {'monte carlo':>12}  "
      f"{'std err':>9}  {'sigma':>6}")
for rho in (1.0, 10.0, 100.0):
    lk = LinkBudget(rho, ExponentialGain(1.0))
    exact = pu_snr(lk, 4.0, vp, wp)
    est = mc_pu(snr_metric(lk, 4.0), pd, vp, McConfig(samples=1_000_000,
                                                      seed=int(rho)))
    sigma = abs(est.mean - exact.value) / est.std_error
    print(f"{rho:7.0f}  {exact.value:12.6f}  {est.mean:12.6f}  "
          f"{est.std_error:9.2e}  {sigma:6.2f}")

res = pu_snr(LinkBudget(100.0, ExponentialGain(1.0)), 4.0, vp, wp)
print(f"\nquadrature health at Pt/N0=100: abs error {res.abs_error:.2e} "
      f"in {res.evaluations} evaluations")

print("\nstarving the integrator (budget of 100 evaluations):")
try:
    pu_snr(LinkBudget(100.0, ExponentialGain(1.0)), 4.0, vp, wp, budget=100)
except ToleranceNotMet as exc:
    print(f"  ToleranceNotMet: {exc}")
