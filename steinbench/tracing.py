"""Span tracing around calls into steinbreak's public functions.

The tracer patches module attributes with thin wrappers that record one
span per call: a name, a start, an end and the index of the enclosing span.
Every module that binds a traced function by name is patched, because
``simulation`` and ``cli`` import the segmentation and estimator functions
directly, and ``stein_oracle`` keeps its identity checks in a dict.  Spans
stay in memory until the run writes them out.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct children.  Spans never overlap except by
nesting, because the benchmark is single threaded.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Span name -> the per-layer time metric that receives its self time.
# Spans absent from this map (the run_verification_suite shell) keep their
# own self time out of every layer metric.
SPAN_TO_METRIC = {
    "segmentation.ssr_table": "segmentation.ssr_table_ms",
    "segmentation.find_breaks_unrestricted": "segmentation.unrestricted_search_ms",
    "segmentation.find_breaks_restricted": "segmentation.restricted_search_ms",
    "segmentation.ssr_restricted": "segmentation.ssr_restricted_ms",
    "estimators.fit": "estimators.fit_ms",
    "estimators.plugin": "estimators.plugin_ms",
    "estimators.shrinkage": "estimators.shrinkage_ms",
    "model.build_design": "model.build_design_ms",
    "simulation.simulate_dataset": "simulation.datagen_ms",
    "simulation.run_monte_carlo": "simulation.self_ms",
    "cli.io": "cli.io_ms",
    "cli.main": "cli.self_ms",
    "risk.moment_kernel": "risk.moment_kernel_ms",
    "risk.scaffold": "risk.scaffold_ms",
    "risk.adr": "risk.adr_ms",
    "risk.quadrature": "risk.quadrature_ms",
    "stein_oracle.identity": "stein_oracle.sampling_ms",
}

TIME_METRICS = tuple(dict.fromkeys(SPAN_TO_METRIC.values()))
COUNT_METRICS = (
    "segmentation.restricted_searches",
    "segmentation.refine_cycles",
    "segmentation.partitions_enumerated",
    "risk.moment_kernel_calls",
    "risk.quadrature_calls",
    "stein_oracle.draws",
)


@dataclass
class Tracer:
    """In-memory span store plus the work counters read at span boundaries."""

    names: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))
    _stack: list = field(default_factory=list)

    def call(self, name, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def self_times_ms(self) -> dict[str, float]:
        """Self time per span name, in milliseconds."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += (self.ends[i] - self.starts[i] - child[i]) * 1e3
        return dict(out)

    def layer_metrics(self, n_rounds: int) -> dict[str, float]:
        """Every per-layer metric, averaged per traced round."""
        per_name = self.self_times_ms()
        out = {name: 0.0 for name in TIME_METRICS}
        for span, ms in per_name.items():
            metric = SPAN_TO_METRIC.get(span)
            if metric is not None:
                out[metric] += ms
        for name in COUNT_METRICS:
            out[name] = float(self.counts[name])
        return {name: value / n_rounds for name, value in out.items()}

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counts": dict(self.counts),
        }


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _count(metric):
    def after(tracer, args, kwargs, result):
        tracer.counts[metric] += 1

    return after


def _restricted_search_counter(count_partitions, method_exhaustive):
    def after(tracer, args, kwargs, result):
        tracer.counts["segmentation.restricted_searches"] += 1
        tracer.counts["segmentation.refine_cycles"] += result.iterations
        if result.method_used == method_exhaustive:
            data = args[0]
            config = args[2] if len(args) > 2 else kwargs["config"]
            min_len = config.min_segment_length(data.n_obs, data.n_regressors)
            tracer.counts["segmentation.partitions_enumerated"] += count_partitions(
                data.n_obs, config.m, min_len
            )

    return after


def _after_identity(tracer, args, kwargs, result):
    tracer.counts["stein_oracle.draws"] += result.n_samples


class Patches:
    """Installs and removes the tracing wrappers on every binding site."""

    def __init__(self, tracer: Tracer):
        import steinbreak
        from steinbreak import (
            cli,
            estimators,
            model,
            risk,
            segmentation,
            simulation,
            stein_oracle,
        )

        binders = (steinbreak, cli, estimators, model, risk, segmentation, simulation, stein_oracle)
        restricted_counter = _restricted_search_counter(
            segmentation.count_partitions, segmentation.METHOD_EXHAUSTIVE
        )
        # (span name, defining module, function name, post-call counter)
        plan = [
            ("segmentation.find_breaks_unrestricted", segmentation, "find_breaks_unrestricted", None),
            ("segmentation.find_breaks_restricted", segmentation, "find_breaks_restricted",
             restricted_counter),
            ("segmentation.ssr_restricted", segmentation, "ssr_restricted", None),
            ("estimators.fit", estimators, "fit_unrestricted", None),
            ("estimators.fit", estimators, "fit_restricted", None),
            ("estimators.plugin", estimators, "build_plugin_matrices", None),
            ("estimators.shrinkage", estimators, "shrinkage_estimate", None),
            ("estimators.shrinkage", estimators, "wald_distance", None),
            ("model.build_design", model, "build_design", None),
            ("simulation.simulate_dataset", simulation, "simulate_dataset", None),
            ("simulation.run_monte_carlo", simulation, "run_monte_carlo", None),
            ("cli.io", model, "read_series_csv", None),
            ("cli.io", cli, "write_csv", None),
            ("cli.io", cli, "write_manifest", None),
            ("cli.main", cli, "main", None),
            ("risk.moment_kernel", risk, "nc_chi2_moment", _count("risk.moment_kernel_calls")),
            ("risk.quadrature", risk, "nc_chi2_expectation", _count("risk.quadrature_calls")),
            ("risk.scaffold", risk, "scaffold_at_delta", None),
            ("risk.scaffold", risk, "make_scaffold", None),
            ("risk.scaffold", risk, "make_weight", None),
            ("risk.adr", risk, "adr_unrestricted", None),
            ("risk.adr", risk, "adr_restricted", None),
            ("risk.adr", risk, "adr_james_stein", None),
            ("risk.adr", risk, "adr_positive_part", None),
            ("risk.adr", risk, "adr_class", None),
            ("stein_oracle.suite", stein_oracle, "run_verification_suite", None),
            ("stein_oracle.identity", stein_oracle, "mc_vector_identity", _after_identity),
            ("stein_oracle.identity", stein_oracle, "mc_quadratic_identity", _after_identity),
            ("stein_oracle.identity", stein_oracle, "mc_cross_identity", _after_identity),
        ]
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        by_original = {}
        for span, home, attr, after in plan:
            original = getattr(home, attr)
            wrapper = by_original[original] = _wrap(tracer, span, original, after)
            for module in binders:
                if getattr(module, attr, None) is original:
                    self._add(module, attr, original, wrapper)
        # run_verification_suite reaches the identity checks through this
        # dict, which holds the functions themselves, not their names.
        table = stein_oracle._IDENTITIES
        for key, original in list(table.items()):
            self._add(table, key, original, by_original[original])
        method = segmentation.SegmentMoments.ssr_table
        self._add(
            segmentation.SegmentMoments, "ssr_table", method,
            _wrap(tracer, "segmentation.ssr_table", method),
        )

    def _add(self, target, key, original, wrapper) -> None:
        self._saved.append((target, key, original))
        self._wrappers.append((target, key, wrapper))

    @staticmethod
    def _set(target, key, value):
        if isinstance(target, dict):
            target[key] = value
        else:
            setattr(target, key, value)

    def install(self) -> None:
        for target, key, wrapper in self._wrappers:
            self._set(target, key, wrapper)

    def remove(self) -> None:
        for target, key, original in self._saved:
            self._set(target, key, original)
