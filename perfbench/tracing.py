"""Layer tracing from outside the program.

The traced run times each layer of ``src/repro`` without touching it:
:func:`installed` replaces the public functions of each layer with shims
that open a span, call the original and close the span.  Every name is
patched where its caller looks it up (a module attribute imported by the
caller, or a method on the class), so the program's own code runs
unchanged between the shims.

Each span records its parent, so a layer's *self time* is its span's
duration minus the time its child spans cover, and the self times of all
spans add up to the time spent inside any traced layer.  Counts come from
the program's own ``repro.obs`` counters where one exists (collected by
:class:`CountingRecorder`), otherwise from the shims.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict
from typing import Callable, Iterator

from repro.obs.recorder import Recorder

#: ``(span name, owner, attribute)``: the owner is ``"module"`` or
#: ``"module:Class"``.  Several patch points may share one span name.
SHIMS: tuple[tuple[str, str, str], ...] = (
    # mechanisms: the three single-price mechanisms of the paper
    ("mechanisms.dp_hsrc", "repro.mechanisms.dp_hsrc:DPHSRCAuction", "price_pmf"),
    ("mechanisms.baseline", "repro.mechanisms.baseline:BaselineAuction", "price_pmf"),
    ("mechanisms.optimal", "repro.mechanisms.optimal", "optimal_total_payment"),
    # auction: running a mechanism and sampling its price distribution
    ("auction.run", "repro.auction.mechanism:Mechanism", "run"),
    ("auction.sample", "repro.auction.mechanism:PricePMF", "sample_prices"),
    ("auction.sample", "repro.auction.mechanism:PricePMF", "sample_outcome"),
    # engine: price set, grouping and plan assembly
    ("engine.plan", "repro.engine.engine:SweepEngine", "plan"),
    ("engine.price_set", "repro.engine.engine", "feasible_price_set"),
    ("engine.price_set", "repro.engine.engine", "group_prices_by_candidates"),
    # coverage: winner-set kernels, LP bounds and exact solves
    ("coverage.greedy", "repro.coverage.greedy:GreedyState", "solve"),
    ("coverage.greedy", "repro.coverage.lazy:LazyGreedyState", "solve"),
    ("coverage.static_order", "repro.mechanisms.baseline", "static_order_cover"),
    ("coverage.lp", "repro.mechanisms.optimal", "lp_lower_bound"),
    ("coverage.lp", "repro.coverage.exact", "lp_lower_bound"),
    ("coverage.exact", "repro.mechanisms.optimal", "solve_exact"),
    # privacy: the exponential-mechanism price draw and the budget store
    ("privacy.exp_mech", "repro.mechanisms.dp_hsrc", "exponential_price_probabilities"),
    ("privacy.exp_mech", "repro.mechanisms.baseline", "exponential_price_probabilities"),
    ("privacy.budget.admit", "repro.privacy.budget.admission:AdmissionController", "admit"),
    ("privacy.budget.charge", "repro.privacy.budget.journal:JsonlBudgetStore", "charge"),
    ("resilience.journal_append", "repro.resilience.journal:JsonlJournal", "append"),
    # bench: batched execution
    ("bench.batch_run", "repro.bench.batch:BatchAuctionRunner", "run"),
    # mcs + aggregation: one sensing round of a campaign
    ("mcs.round", "repro.mcs.simulation:MCSSimulation", "run"),
    ("mcs.market", "repro.mcs.workers:WorkerPool", "to_instance"),
    ("mcs.sense", "repro.mcs.platform", "assignment_mask"),
    ("mcs.sense", "repro.mcs.platform", "collect_labels"),
    ("mcs.skill_estimate", "repro.mcs.skill_estimation", "estimate_skills_from_gold"),
    ("aggregation.aggregate", "repro.mcs.platform", "weighted_aggregate"),
    ("aggregation.aggregate", "repro.mcs.platform", "achieved_error_bound"),
    # workloads: seeded input generation (set-up only)
    ("workloads.generate", "repro.workloads.generator", "generate_instance"),
    ("workloads.generate", "repro.workloads.generator", "generate_worker_population"),
    ("workloads.generate", "repro.bench.workloads", "generate_instance"),
)


class Tracer:
    """In-memory span recorder with parent links.

    Spans are kept as ``[name, parent index, start, end]`` lists and only
    recorded while :attr:`enabled` is set, so the harness can exclude its
    own correctness checks from the trace.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children's time."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, _parent, start, end), covered in zip(self.spans, child):
            totals[name] += (end - start) - covered
        return dict(totals)

    def span_counts(self, parent_name: str | None = None) -> dict[str, int]:
        """Spans per name, optionally only those whose parent has ``parent_name``."""
        counts: dict[str, int] = defaultdict(int)
        for name, parent, _start, _end in self.spans:
            if parent_name is None or (parent >= 0 and self.spans[parent][0] == parent_name):
                counts[name] += 1
        return dict(counts)

    def top_level_seconds(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(end - start for _n, parent, start, end in self.spans if parent < 0)


class CountingRecorder(Recorder):
    """A ``repro.obs`` recorder that keeps only counters.

    Spans and histograms stay no-ops (``enabled`` is False), so the
    program's counters are collected at the cost of a dict update.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = defaultdict(float)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value


def _shim(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        _count_result(tracer, name, result)
        return result

    return shim


def _count_result(tracer: Tracer, name: str, result) -> None:
    """Counts read from a layer's return value (no obs counter exists)."""
    if name == "coverage.exact":
        tracer.counts["coverage.exact_certified"] += int(bool(result.certified))
    elif name == "engine.price_set" and isinstance(result, list):
        tracer.counts["engine.groups"] += len(result)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install every shim of :data:`SHIMS` for the body, then restore."""
    saved = []
    try:
        for name, owner, attribute in SHIMS:
            target = _resolve(owner)
            original = target.__dict__[attribute]
            saved.append((target, attribute, original))
            setattr(target, attribute, _shim(tracer, name, original))
        yield tracer
    finally:
        for target, attribute, original in reversed(saved):
            setattr(target, attribute, original)


#: Per-layer metrics: ``name -> (unit, better)``.  Times are self time
#: per unit of the workload unless the unit says otherwise.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "coverage.lp_s": ("s/unit", "lower"),
    "coverage.exact_s": ("s/unit", "lower"),
    "coverage.exact_calls": ("count/unit", "lower"),
    "coverage.exact_certified_ratio": ("ratio", "higher"),
    "mechanisms.optimal_pruned_ratio": ("ratio", "higher"),
    "coverage.greedy_s": ("s/unit", "lower"),
    "coverage.greedy_calls": ("count/unit", "lower"),
    "coverage.static_order_s": ("s/unit", "lower"),
    "engine.price_set_s": ("s/unit", "lower"),
    "engine.plan_s": ("s/unit", "lower"),
    "engine.groups": ("count/unit", "lower"),
    "engine.plan_hit_ratio": ("ratio", "higher"),
    "mechanisms.dp_hsrc_s": ("s/unit", "lower"),
    "mechanisms.baseline_s": ("s/unit", "lower"),
    "mechanisms.optimal_s": ("s/unit", "lower"),
    "auction.run_s": ("s/unit", "lower"),
    "auction.sample_s": ("s/unit", "lower"),
    "privacy.exp_mech_s": ("s/unit", "lower"),
    "bench.batch_run_s": ("s/unit", "lower"),
    "bench.parallel_efficiency": ("ratio", "higher"),
    "privacy.budget.admit_s": ("s/unit", "lower"),
    "privacy.budget.charge_s": ("s/unit", "lower"),
    "privacy.budget.charges": ("count/unit", "lower"),
    "privacy.budget.degraded": ("count/unit", "lower"),
    "resilience.journal_append_s": ("s/unit", "lower"),
    "mcs.round_s": ("s/unit", "lower"),
    "mcs.market_s": ("s/unit", "lower"),
    "mcs.sense_s": ("s/unit", "lower"),
    "mcs.skill_estimate_s": ("s/unit", "lower"),
    "aggregation.aggregate_s": ("s/unit", "lower"),
    "workloads.generate_s": ("s", "lower"),
    "unaccounted_frac": ("frac", "lower"),
    "obs.tracing_overhead_frac": ("frac", "lower"),
}

#: Which end-to-end metric, on which workload, each layer metric should
#: move.  Written down before any optimisation is measured against it.
LAYER_TARGETS: dict[str, str] = {
    "coverage.lp_s": "figure_opt units_per_s",
    "coverage.exact_s": "figure_opt units_per_s",
    "coverage.exact_calls": "figure_opt units_per_s",
    "coverage.exact_certified_ratio": "figure_opt correctness (uncertified R_OPT fails a unit)",
    "mechanisms.optimal_pruned_ratio": "figure_opt units_per_s",
    "coverage.greedy_s": "scale_auction units_per_s, unit_p50_ms",
    "coverage.greedy_calls": "scale_auction units_per_s, unit_p50_ms",
    "coverage.static_order_s": "scale_auction units_per_s",
    "engine.price_set_s": "scale_auction units_per_s, unit_p50_ms",
    "engine.plan_s": "scale_auction unit_p50_ms",
    "engine.groups": "scale_auction units_per_s, unit_p50_ms",
    "engine.plan_hit_ratio": "figure_opt units_per_s (no move on scale_auction)",
    "mechanisms.dp_hsrc_s": "scale_auction unit_p50_ms",
    "mechanisms.baseline_s": "scale_auction unit_p50_ms",
    "mechanisms.optimal_s": "figure_opt units_per_s",
    "auction.run_s": "budgeted_rounds unit_p50_ms",
    "auction.sample_s": "figure_opt units_per_s (small share)",
    "privacy.exp_mech_s": "figure_opt units_per_s (small share)",
    "bench.batch_run_s": "batch_rounds units_per_s, peak_rss_mb",
    "bench.parallel_efficiency": "batch_rounds units_per_s, peak_rss_mb",
    "privacy.budget.admit_s": "budgeted_rounds unit_tail_ms",
    "privacy.budget.charge_s": "budgeted_rounds unit_tail_ms",
    "privacy.budget.charges": "budgeted_rounds unit_tail_ms",
    "privacy.budget.degraded": "budgeted_rounds unit_tail_ms",
    "resilience.journal_append_s": "budgeted_rounds unit_tail_ms",
    "mcs.round_s": "budgeted_rounds unit_p50_ms",
    "mcs.market_s": "budgeted_rounds unit_p50_ms",
    "mcs.sense_s": "budgeted_rounds unit_p50_ms",
    "mcs.skill_estimate_s": "budgeted_rounds unit_p50_ms",
    "aggregation.aggregate_s": "budgeted_rounds unit_p50_ms",
    "workloads.generate_s": "setup_s on every workload",
    "unaccounted_frac": "none (share of unit time outside every traced layer)",
    "obs.tracing_overhead_frac": "none (traced versus untraced time of the same units)",
}


def layer_metrics(
    tracer: Tracer,
    counters: dict[str, float],
    *,
    n_units: int,
    traced_latencies: list[float],
    untraced_latencies: list[float],
    generate_seconds: float,
    extra: dict[str, float],
) -> dict[str, float]:
    """Reduce one traced pass to the :data:`LAYER_METRICS` values.

    The latencies are per unit, of the traced replay and of the untraced
    pass over the same units; the tracing overhead is the median of their
    per-unit ratios, which one slow unit on either side cannot skew.
    """
    traced_seconds = sum(traced_latencies)
    overhead = statistics.median(
        t / u for t, u in zip(traced_latencies, untraced_latencies)
    ) - 1.0
    self_s = tracer.self_times()
    spans = tracer.span_counts()
    under_optimal = tracer.span_counts("mechanisms.optimal")

    def per_unit(value: float) -> float:
        return value / n_units

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    exact_calls = spans.get("coverage.exact", 0)
    plan_hits = counters.get("engine.plan.hits", 0.0)
    plan_lookups = plan_hits + counters.get("engine.plan.misses", 0.0)
    optimal_groups = under_optimal.get("coverage.lp", 0)
    optimal_solves = under_optimal.get("coverage.exact", 0)
    values = {
        "coverage.exact_calls": per_unit(exact_calls),
        "coverage.exact_certified_ratio": ratio(
            tracer.counts.get("coverage.exact_certified", 0), exact_calls
        ),
        "mechanisms.optimal_pruned_ratio": (
            1.0 - optimal_solves / optimal_groups if optimal_groups else 0.0
        ),
        "coverage.greedy_calls": per_unit(
            counters.get("greedy.calls", 0.0) + counters.get("lazy_greedy.calls", 0.0)
        ),
        "engine.groups": per_unit(tracer.counts.get("engine.groups", 0)),
        "engine.plan_hit_ratio": ratio(plan_hits, plan_lookups),
        "privacy.budget.charges": per_unit(spans.get("privacy.budget.charge", 0)),
        "privacy.budget.degraded": per_unit(counters.get("budget.degraded", 0.0)),
        "bench.parallel_efficiency": 0.0,
        "workloads.generate_s": generate_seconds,
        "unaccounted_frac": ratio(traced_seconds - tracer.top_level_seconds(), traced_seconds),
        "obs.tracing_overhead_frac": overhead,
    }
    for metric, (unit, _better) in LAYER_METRICS.items():
        if unit == "s/unit":
            values[metric] = per_unit(self_s.get(metric[: -len("_s")], 0.0))
    values.update(extra)
    return {metric: float(values[metric]) for metric in LAYER_METRICS}
