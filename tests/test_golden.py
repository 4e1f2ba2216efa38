"""Golden bytes: seeded streams and the CLI's help text, pinned to files.

The values in ``golden/`` were captured from the code before the substream
helper and the table-built parser replaced their hand-written forms, so a
changed spawn order, batch or chunk size, or flag definition shows here
even when two runs of the new code agree with each other. The MC counts
sit on both sides of the 2**19-sample batch boundary and at four uneven
batches (3 * 2**19 + 1); the channel counts sit on both sides of the
16384-draw chunk boundary, at five chunks and a short one with K=80, and
below one chunk (n=3).

The perceived-law goldens were captured before the sampler and the perceived
CDF were rewritten around one log(1 - e^-x): ``perceptual_sample`` over
uniforms at 2**-k, 1 - 2**-k and 4096 seeded draws, and ``pcdf`` and
``log_cdf`` over every power of two, zero and the infinities, at means,
distortions and curvatures that reach both tails and the underflow of z.
"""
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from percept import (ExponentialGain, LinkBudget, McConfig, MultipathConfig,
                     OutageSpec, PerceptualDistribution, ValueParams,
                     WeightParams, gain_samples, mc_pop, mc_pu, rate_metric,
                     snr_metric)
from percept.cli import build_parser

GOLDEN = Path(__file__).resolve().parent / "golden"
STREAMS = json.loads((GOLDEN / "streams.json").read_text())
HELP = re.split(r"(?m)^(?=usage: )", (GOLDEN / "help.txt").read_text())[1:]

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


@pytest.mark.parametrize("key", sorted(STREAMS["perceptual_sample"]))
def test_perceptual_samples_are_pinned(key):
    got = _perceived(key).perceptual_sample(UNIFORMS)
    assert _sha256(got) == STREAMS["perceptual_sample"][key]


@pytest.mark.parametrize("key", sorted(STREAMS["pcdf"]))
def test_perceived_cdf_is_pinned(key):
    assert _sha256(_perceived(key).pcdf(GAINS)) == STREAMS["pcdf"][key]


@pytest.mark.parametrize("key", sorted(STREAMS["log_cdf"]))
def test_log_cdf_is_pinned(key):
    d = ExponentialGain(float(_fields(key)["mu"]))
    assert _sha256(d.log_cdf(GAINS[GAINS > 0.0])) == STREAMS["log_cdf"][key]


def test_help_text_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    texts = [parser.format_help()]
    texts += [p.format_help() for p in subparsers.values()]
    assert len(texts) == len(HELP) == 11
    for got, want in zip(texts, HELP):
        assert got == want
