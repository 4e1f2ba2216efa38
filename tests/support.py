"""The one copy of each value, helper and oracle that test files share.

pytest collects no test from this module (its name does not start with
``test_``) and puts ``tests/`` on ``sys.path``, so a test file takes what
it needs with ``from support import ...``. A value used by one file alone
stays in that file.
"""
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from percept import ExponentialGain, LinkBudget, ValueParams, WeightParams
from percept.sweep import SCHEMA

ROOT = Path(__file__).resolve().parents[1]  # the checkout
CATALOGUE = json.loads((ROOT / "bench" / "catalogue.json").read_text(
    encoding="utf-8"))

# closed forms frozen as doubles; test_distributions checks them against
# 40-digit mpmath
INV_E = 0.36787944117144232      # e^-1, the fixed point of every w at gamma=1
EXP_CDF_1 = 0.63212055882855768  # 1 - e^-1, F(1) of Exp(1)
POP_HALF = 0.50800926251670411   # w(1 - e^-1) at gamma=1, theta=0.5

VP = ValueParams(0.5, 1.0, 2.0)
WP = WeightParams(1.0, 0.8)
# the classical case: value and weighting are both the identity
VP_ID = ValueParams(1.0, 1.0, 1.0, mode="permissive")
WP_ID = WeightParams(1.0, 1.0, mode="permissive")


def link(rho, mu=1.0):
    return LinkBudget(rho, ExponentialGain(mu))


def doc(**over):
    """Minimal valid pu_snr scenario document, fields overridable."""
    base = {
        "schema": SCHEMA,
        "metric": "pu_snr",
        "axis": {"name": "pt_over_n0", "grid": [1.0, 10.0, 100.0]},
        "value_params": {"alpha": 0.5, "lambda_gain": 1.0, "lambda_loss": 2.0},
        "weight_params": {"gamma": 1.0, "theta": 0.8},
        "reference": 4.0,
        "mu": 1.0,
    }
    base.update(over)
    return base


def load(path, name):
    """The module at ``path``, loaded by path under ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def exponential_cdf(mu=1.0):
    """The Exp(mu) CDF, formed here and not by ``ExponentialGain``."""
    return lambda g: -np.expm1(-g / mu)


def sup_distance(sorted_sample, model_cdf):
    """Sup distance between the empirical CDF of an ascending sample and
    the CDF ``model_cdf`` (a function of the sample)."""
    model = model_cdf(sorted_sample)
    n = model.size
    steps = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(steps - model, model - (steps - 1.0 / n))))
