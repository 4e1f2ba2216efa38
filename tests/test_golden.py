"""Golden bytes: seeded streams and the CLI's help text, pinned to files.

The values in ``golden/`` were captured from the code before the substream
helper and the table-built parser replaced their hand-written forms, so a
changed spawn order, batch or chunk size, or flag definition shows here
even when two runs of the new code agree with each other. The MC counts
sit on both sides of the 2**19-sample batch boundary, the channel counts
on both sides of the 16384-draw chunk boundary.
"""
import hashlib
import json
import re
from pathlib import Path

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
ESTIMATORS = {
    "pu_snr": lambda c: mc_pu(snr_metric(LINK, 4.0), PD, VP, c),
    "pu_rate": lambda c: mc_pu(rate_metric(LINK, 2.0), PD, VP, c),
    "pop": lambda c: mc_pop(LINK, OutageSpec(2.0), WP, c),
}


def _fields(key):
    """The name=value pairs of a golden key."""
    return dict(kv.split("=") for kv in key.split() if "=" in kv)


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


def test_help_text_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    texts = [parser.format_help()]
    texts += [p.format_help() for p in subparsers.values()]
    assert len(texts) == len(HELP) == 11
    for got, want in zip(texts, HELP):
        assert got == want
