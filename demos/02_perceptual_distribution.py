"""How probability weighting reshapes the channel-gain distribution.

Composing the Prelec weighting with the exponential CDF of a Rayleigh
power gain yields the perceived CDF; its derivative is the perceived
density. Overweighting of rare events drags probability mass into the
left tail, where the perceived density diverges (integrably).
"""
import numpy as np

from percept import ExponentialGain, PerceptualDistribution, WeightParams

base = ExponentialGain(mu=1.0)
pd = PerceptualDistribution(base, WeightParams(gamma=1.0, theta=0.65))

print("objective vs perceived law of a unit-mean exponential gain")
print(f"{'s':>8}  {'F(s)':>8}  {'pcdf(s)':>8}  {'f(s)':>8}  {'ppdf(s)':>8}")
for s in (0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0):
    print(f"{s:8.3f}  {base.cdf(s):8.4f}  {pd.pcdf(s):8.4f}  "
          f"{base.pdf(s):8.4f}  {pd.ppdf(s):8.4f}")

print("\nperceived mass below s, relative to objective mass")
for s in (1e-6, 1e-4, 1e-2):
    print(f"  s = {s:g}: pcdf/F = {pd.pcdf(s) / base.cdf(s):8.1f}x")

# the density integrates to one despite the lower-endpoint divergence; in
# y = log s the integrand s * ppdf(s) is smooth and decays at both ends, so
# the trapezoidal rule converges fast
y = np.linspace(-(30.0 ** (1 / 0.65)), np.log(700.0), 2001)
f = pd.ppdf(np.exp(y)) * np.exp(y)
total = (f.sum() - 0.5 * (f[0] + f[-1])) * (y[1] - y[0])
print(f"\nintegral of ppdf over the support: {total:.12f}")

# inverse-transform sampling targets the same law
rng = np.random.default_rng(7)
draws = pd.perceptual_sample(rng.random(200_000))
grid = np.array([0.1, 0.5, 1.0, 2.0])
print("\nempirical CDF of 2e5 perceptual samples vs pcdf")
for s in grid:
    emp = np.mean(draws <= s)
    print(f"  s = {s:3.1f}: {emp:.4f} vs {pd.pcdf(s):.4f}")
