"""Prospect-theoretic perceptual metrics for Rayleigh fading links.

Objective link metrics (SNR, transmission rate, outage probability) are
mapped to their perceived counterparts through a reference-dependent value
function and Prelec probability weighting. The package provides the
perceptual distribution of the channel gain, quadrature and Monte Carlo
evaluation of perceptual utility, a perceptual outage probability, a
multipath channel simulator, and a scenario sweep engine.
"""
from .channel import MultipathConfig, draw_channel, gain_samples
from .distributions import ExponentialGain, PerceptualDistribution
from .errors import (ConstraintViolation, DomainError, PerceptError,
                     ToleranceNotMet)
from .metrics import (CompositeMetric, LinkBudget, OutageSpec, PuResult,
                      outage_probability, pop, pu_rate, pu_snr, rate_metric,
                      snr_metric)
from .montecarlo import McConfig, McEstimate, mc_pop, mc_pu
from .prospect import (ReferencePoint, ValueParams, WeightParams,
                       as_reference, validate_value_params, value, weight,
                       weight_inverse)
from .sweep import (CrossCheckRow, Scenario, SweepRow, cross_check,
                    cross_check_csv, load_scenario, preset_scenario,
                    run_scenario, scenario_from_dict, sweep_csv)

__version__ = "0.1.0"

__all__ = [
    "ConstraintViolation", "DomainError", "PerceptError", "ToleranceNotMet",
    "ValueParams", "WeightParams", "ReferencePoint", "as_reference",
    "validate_value_params", "value", "weight", "weight_inverse",
    "ExponentialGain", "PerceptualDistribution",
    "LinkBudget", "OutageSpec", "CompositeMetric", "PuResult",
    "pu_snr", "pu_rate", "snr_metric", "rate_metric",
    "outage_probability", "pop",
    "McConfig", "McEstimate", "mc_pu", "mc_pop",
    "MultipathConfig", "draw_channel", "gain_samples",
    "Scenario", "SweepRow", "CrossCheckRow", "scenario_from_dict",
    "load_scenario", "preset_scenario", "run_scenario", "cross_check",
    "sweep_csv", "cross_check_csv",
    "__version__",
]
