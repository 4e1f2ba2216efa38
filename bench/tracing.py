"""Spans and leaf counters recorded around the public calls of each layer.

The tracer replaces module-level names of the ``percept`` package at run
time with timing wrappers and puts the originals back afterwards; nothing
under ``src/`` changes. Calls at layer boundaries (``pu_snr``/``pu_rate``,
``mc_pu``, ``gain_samples``, ``run_scenario``, ``cross_check``) become spans
with a parent and the id of the benchmark operation that caused them. The
per-evaluation calls (``value``, ``weight``, ``inverse_survival``,
``perceptual_sample``) are too many to record one by one, so each is
aggregated as a count plus busy time, split into scalar and array calls,
and its busy time is charged to the span that encloses it.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np

perf = time.perf_counter

# span name -> (module, attribute) of the function it wraps
SPANS = {
    "metrics.pu": [("percept.metrics", "pu_snr"), ("percept.metrics", "pu_rate")],
    "montecarlo.mc_pu": [("percept.montecarlo", "mc_pu")],
    "channel.gain_samples": [("percept.channel", "gain_samples")],
    "sweep.run_scenario": [("percept.sweep", "run_scenario")],
    "sweep.cross_check": [("percept.sweep", "cross_check")],
}
# leaf name -> (module, attribute, index of the argument that sets the size)
LEAVES = {
    "prospect.value": ("percept.prospect", "value", 0),
    "prospect.weight": ("percept.prospect", "weight", 0),
    "distributions.inverse_survival":
        ("percept.distributions", "ExponentialGain.inverse_survival", 1),
    "distributions.perceptual_sample":
        ("percept.distributions", "PerceptualDistribution.perceptual_sample", 1),
}


@dataclass
class Span:
    name: str
    span_id: int
    parent: int
    op: int
    start: float
    end: float = 0.0
    leaf_s: float = 0.0      # busy time of outermost leaf calls inside it
    result: dict = field(default_factory=dict)


@dataclass
class Leaf:
    scalar_calls: int = 0
    scalar_s: float = 0.0
    array_calls: int = 0
    array_s: float = 0.0
    array_elems: int = 0


class Tracer:
    """Collects spans and leaf counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.leaves = {name: Leaf() for name in LEAVES}
        self.op = -1
        self._stack: list = []
        self._leaf_depth = 0
        self._patched: list = []

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        for name, sites in SPANS.items():
            for mod, attr in sites:
                orig = getattr(sys.modules[mod], attr)
                self._rebind(orig, self._span_wrapper(name, orig))
        for name, (mod, attr, arg) in LEAVES.items():
            owner = sys.modules[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = getattr(cls, meth)
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._leaf_wrapper(name, orig, arg))
            else:
                orig = getattr(owner, attr)
                self._rebind(orig, self._leaf_wrapper(name, orig, arg))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _rebind(self, orig, wrapper) -> None:
        """Point every percept module's binding of ``orig`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "percept"
                                   or mod_name.startswith("percept.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    # --- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1].span_id if tracer._stack else -1
            span = Span(name, len(tracer.spans), parent, tracer.op, perf())
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.result["error"] = type(exc).__name__
                span.result["evaluations"] = getattr(exc, "evaluations", 0)
                raise
            finally:
                span.end = perf()
                tracer._stack.pop()
            _record_result(span, name, args, out)
            return out

        return wrapper

    def _leaf_wrapper(self, name, fn, size_arg):
        tracer = self
        rec = self.leaves[name]

        def wrapper(*args, **kwargs):
            tracer._leaf_depth += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                tracer._leaf_depth -= 1
                x = args[size_arg] if len(args) > size_arg else 0.0
                if np.ndim(x):
                    rec.array_calls += 1
                    rec.array_s += dt
                    rec.array_elems += int(np.size(x))
                else:
                    rec.scalar_calls += 1
                    rec.scalar_s += dt
                if tracer._leaf_depth == 0 and tracer._stack:
                    tracer._stack[-1].leaf_s += dt

        return wrapper

    # --- aggregation -----------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> duration minus child spans and outermost leaf calls."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return {s.span_id: (s.end - s.start) - child[s.span_id] - s.leaf_s
                for s in self.spans}


def _record_result(span, name, args, out) -> None:
    if name == "metrics.pu":
        span.result.update(evaluations=out.evaluations, value=out.value,
                           abs_error=out.abs_error)
    elif name == "montecarlo.mc_pu":
        span.result["samples"] = out.samples
    elif name == "channel.gain_samples":
        span.result["path_draws"] = args[0].k_paths * int(args[1])


def err_ratios(tracer: Tracer, pu_refs: dict) -> list:
    """True error over ``abs_error`` of every PU result the tracer saw.

    ``pu_refs`` maps an op index to the references of its PU grid points;
    an op's ``metrics.pu`` spans return those points in order.
    """
    by_op: dict = {}
    for s in tracer.spans:
        if s.name == "metrics.pu" and "abs_error" in s.result:
            by_op.setdefault(s.op, []).append(s.result)
    return [abs(r["value"] - float(ref)) / max(r["abs_error"], 5e-324)
            for op, results in by_op.items()
            for r, ref in zip(results, pu_refs.get(op, ()))]


def layer_metrics(tracer: Tracer, pu_refs: dict, z_scores: list) -> dict:
    """Per-layer metric values (name -> (value, unit)) from one traced pass.

    Ratios over zero calls read 0: the layer was not exercised.
    """
    selfs = tracer.self_times()

    def spans(name):
        return [s for s in tracer.spans if s.name == name]

    def busy(name):
        return sum(s.end - s.start for s in spans(name))

    def self_s(*names):
        return sum(selfs[s.span_id] for n in names for s in spans(n))

    def total(name, key):
        return sum(s.result.get(key, 0) for s in spans(name))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    out = {}
    pu = spans("metrics.pu")
    evals = total("metrics.pu", "evaluations")
    out["metrics.pu.calls"] = (len(pu), "count")
    out["metrics.pu.busy_s"] = (busy("metrics.pu"), "s")
    out["metrics.pu.self_s"] = (self_s("metrics.pu"), "s")
    out["metrics.pu.evals"] = (evals, "count")
    out["metrics.pu.evals_per_call"] = (ratio(evals, len(pu)), "count")
    out["metrics.pu.us_per_eval"] = (ratio(busy("metrics.pu"), evals, 1e6),
                                     "us")
    out["metrics.pu.tolerance_not_met"] = (
        sum(1 for s in pu if s.result.get("error") == "ToleranceNotMet"),
        "count")
    out["metrics.pu.max_err_ratio"] = (
        max(err_ratios(tracer, pu_refs), default=0.0), "ratio")

    for name in LEAVES:
        leaf = tracer.leaves[name]
        out[f"{name}.calls"] = (leaf.scalar_calls + leaf.array_calls, "count")
        out[f"{name}.busy_s"] = (leaf.scalar_s + leaf.array_s, "s")
        if name in ("prospect.value", "distributions.inverse_survival"):
            out[f"{name}.us_per_call"] = (
                ratio(leaf.scalar_s, leaf.scalar_calls, 1e6), "us")
        if name in ("prospect.value", "distributions.perceptual_sample"):
            out[f"{name}.ns_per_elem"] = (
                ratio(leaf.array_s, leaf.array_elems, 1e9), "ns")

    mc = spans("montecarlo.mc_pu")
    samples = total("montecarlo.mc_pu", "samples")
    out["montecarlo.mc_pu.calls"] = (len(mc), "count")
    out["montecarlo.mc_pu.busy_s"] = (busy("montecarlo.mc_pu"), "s")
    out["montecarlo.mc_pu.self_s"] = (self_s("montecarlo.mc_pu"), "s")
    out["montecarlo.mc_pu.samples"] = (samples, "count")
    out["montecarlo.mc_pu.ns_per_sample"] = (
        ratio(busy("montecarlo.mc_pu"), samples, 1e9), "ns")
    out["montecarlo.max_abs_z"] = (max(z_scores, default=0.0), "ratio")

    draws = total("channel.gain_samples", "path_draws")
    out["channel.gain_samples.calls"] = (len(spans("channel.gain_samples")),
                                         "count")
    out["channel.gain_samples.busy_s"] = (busy("channel.gain_samples"), "s")
    out["channel.gain_samples.path_draws"] = (draws, "count")
    out["channel.gain_samples.ns_per_path_draw"] = (
        ratio(busy("channel.gain_samples"), draws, 1e9), "ns")

    out["sweep.run_scenario.calls"] = (len(spans("sweep.run_scenario")),
                                       "count")
    out["sweep.run_scenario.busy_s"] = (busy("sweep.run_scenario"), "s")
    out["sweep.self_s"] = (self_s("sweep.run_scenario", "sweep.cross_check"),
                           "s")
    out["sweep.cross_check.busy_s"] = (busy("sweep.cross_check"), "s")
    return out


def span_records(tracer: Tracer) -> list:
    """Spans as plain dicts, times relative to the first span's start."""
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    selfs = tracer.self_times()
    return [{"name": s.name, "id": s.span_id, "parent": s.parent, "op": s.op,
             "start_s": s.start - t0, "end_s": s.end - t0,
             "self_s": selfs[s.span_id], **s.result} for s in tracer.spans]
