"""Golden bytes: seeded streams and the CLI's help text, pinned to files.

The values in ``golden/`` were captured from the code before the substream
helper and the table-built parser replaced their hand-written forms, so a
changed spawn order, batch or chunk size, or flag definition shows here
even when two runs of the new code agree with each other. The MC counts
sit on both sides of the 2**19-sample batch boundary and at four uneven
batches (3 * 2**19 + 1); the channel counts sit on both sides of the
16384-draw chunk boundary, at five chunks and a short one with K=80, and
below one chunk (n=3). The ``mc_pu`` entries past one 2**15-sample slice
were captured again when each slice began to be reduced as it is drawn:
its per-sample values are the same, but the sums group by slice, and 12
of those 20 entries moved in their last bit. The one-slice (1000-sample)
and ``mc_pop`` entries kept their bytes.
The two ``pop`` entries at 2**19 + 1 samples (seeds 0 and 7) were
captured again when a scalar argument began to run as a one-element
array: ``mc_pop``'s ``weight(p_hat)`` now takes numpy's array power loop,
not the C library's ``pow``, so each mean moved by 2 ulp and seed 0's
standard error by 1.
The standard errors of ``pop seed=0 samples=524289`` and ``pop seed=7
samples=1000`` were captured again when ``weight_derivative`` began to
form dw/dp as gamma*theta*w*t / ((-log p)*p), with t = (-log p)**theta,
rather than from a power to the rounded theta - 1: each moved by 1 ulp.
Their means kept their bits, as did every other ``mc`` entry.
The standard errors of all ten ``pop`` entries were captured again when
``mc_pop`` replaced the delta method with one bar for every count: the
larger distance from w(p-hat) to the weighted z = 1 Wilson bounds. Each
grew by 0.05 to 2 percent; every mean kept its bits.
The ``gain_samples`` entries were captured again when the simulator began
to form each path's phasor after a quarter-turn reduction: it reads the
same uniforms from the same substreams, but exp(-j*2*pi*u) is now
(-j)**q * exp(-j*2*pi*(u - q/4)) with q = rint(4u), so the coefficients
moved by rounding and 19 of the 20 digests changed (the three K = 1 gains
of seed 5 kept their bytes).
All 38 ``mc`` entries and 19 of the 20 ``gain_samples`` entries were
captured again when every substream moved from Philox4x64 to PCG64DXSM,
with the same spawn keys, batches and chunks: each block draws other
uniforms, so every estimate and coefficient changed. The three K = 1
gains of seed 0 at n = 3 are 1.0 from either stream and kept their
bytes. In the same change ``gain_samples`` began to form |H|^2 as
re**2 + im**2 instead of the complex product h * conj(h), which rounded
differently at numpy's x86-64-v2 target; the new digests are the same
on the AVX-512, AVX2 and x86-64-v2 targets. The Philox uniforms below
are test inputs to ``perceptual_sample``, not program draws, and stay.
The 28 ``mc_pu`` entries were captured again when ``mc_pu`` began to
draw sample j of N as (j + U)/N, one uniform per stratum in order, from
the same substreams in the same order: every mean moved toward the
quadrature's value, and every standard error, still the plain-sampling
sigma/sqrt(N), moved with it. The 10 ``pop`` entries draw no uniform
and kept their bytes, as did ``gain_samples``, ``perceptual_sample``,
``pcdf`` and ``log_cdf``.

The quadrature goldens (``golden/quad.json``) hold the value, the error
estimate (both as ``float.hex``) and the evaluation count of every PU point
of fig5, fig6 and every 8th ``quad`` scenario of the bench catalogue, at
its own tolerance and at 1e-4, and of two ``pu-snr`` runs that fail with
ToleranceNotMet. The entries at a scenario's own tolerance and the two
failures were captured before the engine's first array program began
evaluating several levels at once, and each deepening of that program
has kept them, so a change to the node order, the sums or the stopping
rule shows here. The 1e-4 entries were captured again when the first
program grew to levels 0 to 3: those points used to stop at level 2.
The entries of ``quad[104]`` and ``quad[288]``, at both tolerances, were
captured again when the quadrature began to take its kink s* from the
perceived law's own exponent, formed by numpy's array power loop rather
than the C library's ``pow``: one kink of each scenario moved by 1 ulp,
which moved one piece's level difference in its last bit, so
``abs_error`` changed by 2**-54 and 2**-56. Every value and evaluation
count kept its bits.

The perceived-law goldens were captured before the sampler and the perceived
CDF were rewritten around one log(1 - e^-x): ``perceptual_sample`` over
uniforms at 2**-k, 1 - 2**-k and 4096 seeded draws, and ``pcdf`` and
``log_cdf`` over every power of two, zero and the infinities, at means,
distortions and curvatures that reach both tails and the underflow of z.
The ``log_cdf`` entries pin log F(g) = log(1 - e^-g/mu) as
``_log1mexp(g / mu)`` forms it, the bytes the law's former ``log_cdf``
method returned.
The six ``pcdf`` entries at theta = 0.01 were captured again when the
perceived CDF began to form (-log F)**theta as exp(-theta*s/mu) where
-log F is below the smallest normal double: in each, the 2 or 3 values
at s/mu > 708 whose weight differs from 1 moved to the accurate value.
"""
import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from percept import (ExponentialGain, LinkBudget, McConfig, MultipathConfig,
                     OutageSpec, PerceptualDistribution, ToleranceNotMet,
                     ValueParams, WeightParams, gain_samples, mc_pop, mc_pu,
                     pu_snr, rate_metric, snr_metric)
from percept.cli import build_parser
from percept.distributions import _log1mexp
from percept.sweep import (PRESETS, preset_scenario, run_scenario,
                           scenario_from_dict)
from support import CATALOGUE, ROOT, checkout_env, load

GOLDEN = ROOT / "tests" / "golden"
STREAMS = json.loads((GOLDEN / "streams.json").read_text())
HELP = re.split(r"(?m)^(?=usage: )", (GOLDEN / "help.txt").read_text())[1:]
QUAD = json.loads((GOLDEN / "quad.json").read_text())

LINK = LinkBudget(10.0, ExponentialGain(1.3))
VP = ValueParams(0.6, 1.0, 2.2)
WP = WeightParams(1.1, 0.7)
PD = PerceptualDistribution(LINK.channel, WP)
PD_TAIL = PerceptualDistribution(LINK.channel, WeightParams(1.1, 0.05))
ESTIMATORS = {
    "pu_snr": lambda c: mc_pu(snr_metric(LINK, 4.0), PD, VP, c),
    "pu_rate": lambda c: mc_pu(rate_metric(LINK, 2.0), PD, VP, c),
    # reference 0 and theta = 0.05: the values follow the far upper tail
    "pu_snr_ref0_theta0.05": lambda c: mc_pu(snr_metric(LINK, 0.0), PD_TAIL,
                                             VP, c),
    "pu_rate_ref0_theta0.05": lambda c: mc_pu(rate_metric(LINK, 0.0),
                                              PD_TAIL, VP, c),
    "pop": lambda c: mc_pop(LINK, OutageSpec(2.0), WP, c),
}

POWERS = np.ldexp(1.0, np.arange(-1074, 1024))  # every power of two
UNIFORMS = np.concatenate([
    POWERS[POWERS < 1.0], 1.0 - np.ldexp(1.0, -np.arange(1, 54)),
    np.random.Generator(np.random.Philox(913)).random(4096)])
GAINS = np.concatenate([-POWERS, [-np.inf, -0.0, 0.0], POWERS, [np.inf]])


def _fields(key):
    """The name=value pairs of a golden key."""
    return dict(kv.split("=") for kv in key.split() if "=" in kv)


def _sha256(a) -> str:
    return hashlib.sha256(np.asarray(a, dtype=float).tobytes()).hexdigest()


def _perceived(key) -> PerceptualDistribution:
    f = _fields(key)
    return PerceptualDistribution(
        ExponentialGain(float(f["mu"])),
        WeightParams(float(f["gamma"]), float(f["theta"])))


@pytest.mark.parametrize("key", sorted(STREAMS["mc"]))
def test_mc_estimates_are_pinned(key):
    f = _fields(key)
    estimate = ESTIMATORS[key.split()[0]]
    est = estimate(McConfig(int(f["samples"]), int(f["seed"])))
    assert [est.mean.hex(), est.std_error.hex()] == STREAMS["mc"][key]


@pytest.mark.parametrize("key", sorted(STREAMS["gain_samples"]))
def test_gain_samples_are_pinned(key):
    f = _fields(key)
    config = MultipathConfig(int(f["k_paths"]), float(f["scale"]),
                             int(f["seed"]))
    digest = hashlib.sha256(gain_samples(config, int(f["n"])).tobytes())
    assert digest.hexdigest() == STREAMS["gain_samples"][key]


# numpy's dispatch targets below the host's best, each with the dispatched
# feature group it keeps; NPY_DISABLE_CPU_FEATURES turns off the others
TARGETS = {"AVX2": ["X86_V3"], "x86-64-v2": []}
GAIN_DIGESTS = """
import hashlib, json, sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from percept import MultipathConfig, gain_samples
print(json.dumps([f for f in __cpu_dispatch__ if __cpu_features__[f]]))
for k, scale, seed, n in json.load(sys.stdin):
    g = gain_samples(MultipathConfig(k, scale, seed), n)
    print(hashlib.sha256(g.tobytes()).hexdigest())
"""


def _gain_digests(disabled):
    """(dispatched feature groups, digest per gain_samples key) of a fresh
    interpreter with ``disabled`` feature groups turned off."""
    env = checkout_env()
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    configs = [[int(f["k_paths"]), float(f["scale"]), int(f["seed"]),
                int(f["n"])]
               for f in map(_fields, sorted(STREAMS["gain_samples"]))]
    proc = subprocess.run([sys.executable, "-c", GAIN_DIGESTS],
                          input=json.dumps(configs), capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    groups, *digests = proc.stdout.splitlines()
    return json.loads(groups), digests


@pytest.fixture(scope="module")
def host_gain_digests():
    """(feature groups, digests) on the best target numpy can dispatch to
    on this host, from a child with no group turned off: the suite's own
    NPY_DISABLE_CPU_FEATURES hides the groups it turns off from this
    interpreter's ``__cpu_features__``."""
    return _gain_digests([])


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_gain_samples_do_not_depend_on_the_dispatch_target(request, target):
    # |H|**2 is re**2 + im**2, one rounding a step on every target; the
    # complex product h * conj(h) rounded otherwise at x86-64-v2
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    keep = TARGETS[target]
    # X86_V2 is numpy's baseline, which no setting turns off; taken
    # first, so a host that lacks it starts no child
    if not umath.__cpu_features__.get("X86_V2"):
        pytest.skip(f"numpy's {target} target needs X86_V2, which this "
                    "host lacks")
    host, best = request.getfixturevalue("host_gain_digests")
    missing = [f for f in keep if f not in host]
    if missing:
        pytest.skip(f"numpy's {target} target needs {' '.join(missing)}, "
                    "which this host lacks")
    groups, digests = _gain_digests([f for f in host if f not in keep])
    assert groups == keep
    assert digests == best


@pytest.mark.parametrize("key", sorted(STREAMS["perceptual_sample"]))
def test_perceptual_samples_are_pinned(key):
    got = _perceived(key).perceptual_sample(UNIFORMS)
    assert _sha256(got) == STREAMS["perceptual_sample"][key]


@pytest.mark.parametrize("key", sorted(STREAMS["pcdf"]))
def test_perceived_cdf_is_pinned(key):
    assert _sha256(_perceived(key).pcdf(GAINS)) == STREAMS["pcdf"][key]


@pytest.mark.parametrize("key", sorted(STREAMS["log_cdf"]))
def test_log_cdf_is_pinned(key):
    with np.errstate(over="ignore"):  # g/mu = inf is the limit log F = 0
        x = GAINS[GAINS > 0.0] / float(_fields(key)["mu"])
    assert _sha256(_log1mexp(x)) == STREAMS["log_cdf"][key]


def test_help_text_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    texts = [parser.format_help()]
    texts += [p.format_help() for p in subparsers.values()]
    assert len(texts) == len(HELP) == 11
    for got, want in zip(texts, HELP):
        assert got == want


def _pinned(value, abs_error, evaluations):
    return [float(value).hex(), float(abs_error).hex(), int(evaluations)]


def _quad_outputs() -> dict:
    """{key: per-point [value, abs_error, evaluations]} of golden/quad.json."""
    out = {}
    for name in ("fig5", "fig6"):
        out[name] = [_pinned(r.value, r.err, r.n_eval)
                     for r in run_scenario(preset_scenario(name))]
    for i in range(0, len(CATALOGUE["quad"]), 8):
        doc = CATALOGUE["quad"][i]["doc"]
        for tol in (doc["tolerance"], 1e-4):
            rows = run_scenario(scenario_from_dict(dict(doc, tolerance=tol)))
            out[f"quad[{i}] tol={tol:g}"] = [
                _pinned(r.value, r.err, r.n_eval) for r in rows]
    # the CLI defaults: a roundoff floor above tol at 1e300, and a tol
    # below the floor at 100
    for key, rho, tol in (("pu-snr --ptn0 1e300", 1e300, 1e-8),
                          ("pu-snr --tol 1e-14", 100.0, 1e-14)):
        with pytest.raises(ToleranceNotMet) as info:
            pu_snr(LinkBudget(rho, ExponentialGain(1.0)), 4.0,
                   ValueParams(0.5, 1.0, 2.0), WeightParams(1.0, 0.8), tol)
        exc = info.value
        out[key] = [_pinned(exc.value, exc.abs_error, exc.evaluations)]
    return out


def test_quadrature_outputs_are_pinned():
    got = _quad_outputs()
    assert sorted(got) == sorted(QUAD)
    assert [k for k in QUAD if got[k] != QUAD[k]] == []


def test_same_bytes_builds_every_input_group(monkeypatch):
    # tools/same_bytes.py takes its error and pop documents from the tables
    # of support.py: a renamed table or builder fails here, not in the
    # tool's next run, and so does an import of pytest on the way, as the
    # tool runs outside pytest. The sizes are those it printed before it
    # read the tables.
    monkeypatch.setitem(sys.modules, "pytest", None)
    monkeypatch.delitem(sys.modules, "support")  # imported afresh
    tool = load(ROOT / "tools" / "same_bytes.py", "same_bytes")
    groups = tool.jobs(CATALOGUE, PRESETS)
    assert {name: len(jobs) for name, jobs in groups.items()} == {
        "cli entries": 168, "presets": 7, "edge cases": 16,
        "quad at own tol": 320, "quad at tol 1e-12": 320,
        "quad at tol 0.0001": 320, "mc at 1000 samples": 13,
        "mc at 524289 samples": 13, "cross-check CLI": 14, "errors": 26,
        "pop axes": 18, "channel": 9, "preset rows": 7, "ppdf": 4}
