"""GreedyState.sweep: trajectory reuse across nested masks, bit for bit.

A sweep solves a sequence of budget masks, resuming each run from the
previous mask's greedy trajectory when the mask is a superset of the
previous one.  The contract is exact: per mask it yields what
``state.solve(mask)`` returns — same selection, same order — or the
``InfeasibleError`` it raises.  The strategies below aim at the places
where reuse could go wrong: integer gains make ``_TOL`` ties common,
zero-demand columns leave parts of the residual satisfied from the
start, ascending thresholds give infeasible leading groups, and
repeated or non-nested masks exercise the replay and restart paths.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import seeded_cover_problem
from repro.coverage import GreedyState, LazyGreedyState
from repro.coverage import greedy as greedy_module
from repro.coverage.problem import CoverProblem
from repro.engine.plan import build_plan
from repro.exceptions import InfeasibleError
from repro.obs import MetricsRecorder, use_recorder
from repro.workloads import SETTING_III
from repro.workloads.generator import generate_instance


def verdict(outcome):
    """A comparable summary of one solve: selection and order, or infeasible."""
    if isinstance(outcome, InfeasibleError):
        return "infeasible"
    return (tuple(int(i) for i in outcome.selection), outcome.order)


def solved_one_by_one(state, masks):
    verdicts = []
    for mask in masks:
        try:
            verdicts.append(verdict(state.solve(mask)))
        except InfeasibleError as exc:
            verdicts.append(verdict(exc))
    return verdicts


@st.composite
def sweep_cases(draw):
    """A small cover problem plus a mask sequence, mostly nested."""
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, 10))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if integer:
        gains = rng.integers(0, 4, size=(n, k)).astype(float)
        demands = rng.integers(0, 2 * n, size=k).astype(float)
    else:
        gains = rng.random((n, k)) * (rng.random((n, k)) < 0.6)
        demands = rng.random(k) * draw(st.floats(0.1, 4.0))
    demands[rng.random(k) < draw(st.floats(0.0, 0.5))] = 0.0
    # Ascending ask thresholds give nested masks, smallest first.
    asks = rng.random(n)
    thresholds = np.sort(rng.random(draw(st.integers(1, 8))))
    masks = [np.flatnonzero(asks <= t) for t in thresholds]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(masks) - 1))
        masks.insert(at, masks[at])
    if draw(st.booleans()):
        odd = np.flatnonzero(rng.random(n) < 0.5)
        masks.insert(draw(st.integers(0, len(masks))), odd)
    return CoverProblem(gains=gains, demands=demands), masks


class TestSweepEqualsSolve:
    @given(case=sweep_cases())
    @settings(max_examples=300, deadline=None)
    def test_sweep_matches_independent_solves(self, case):
        problem, masks = case
        state = GreedyState(problem)
        swept = [verdict(outcome) for outcome in state.sweep(masks)]
        assert swept == solved_one_by_one(state, masks)

    @given(case=sweep_cases())
    @settings(max_examples=100, deadline=None)
    def test_lazy_sweep_matches_dense_sweep(self, case):
        problem, masks = case
        dense = [verdict(o) for o in GreedyState(problem).sweep(masks)]
        lazy = [verdict(o) for o in LazyGreedyState(problem).sweep(masks)]
        assert lazy == dense

    def test_infeasible_leading_groups_then_feasible(self):
        problem = seeded_cover_problem(40, 10, seed=5)
        state = GreedyState(problem)
        masks = [np.arange(m) for m in (0, 1, 3, 10, 25, 40)]
        swept = [verdict(o) for o in state.sweep(masks)]
        assert swept[:2] == ["infeasible", "infeasible"]
        assert swept[-1] != "infeasible"
        assert swept == solved_one_by_one(state, masks)

    def test_repeated_mask_is_replayed_without_new_steps(self):
        problem = seeded_cover_problem(40, 10, seed=8)
        state = GreedyState(problem)
        rec = MetricsRecorder()
        with use_recorder(rec):
            first, second = state.sweep([np.arange(40), np.arange(40)])
        assert verdict(first) == verdict(second) == verdict(state.solve())
        assert rec.counters["greedy.steps_reused"] == first.size
        assert rec.counters["greedy.iterations"] == first.size

    def test_non_nested_mask_restarts(self):
        problem = seeded_cover_problem(40, 10, seed=11)
        state = GreedyState(problem)
        masks = [np.arange(40), np.arange(0, 30), np.arange(10, 40), np.arange(40)]
        swept = [verdict(o) for o in state.sweep(masks)]
        assert swept == solved_one_by_one(state, masks)
        # items 10..39 are no superset of items 0..29: that mask replays
        # nothing and runs every step itself.
        outcomes = state.sweep(masks)
        next(outcomes), next(outcomes)
        rec = MetricsRecorder()
        with use_recorder(rec):
            shifted = next(outcomes)
        assert "greedy.steps_reused" not in rec.counters
        assert rec.counters["greedy.iterations"] == len(shifted.order)

    def test_blocked_divergence_scoring_matches(self, monkeypatch):
        """Scoring the trajectory one step per block gives the same sweep."""
        monkeypatch.setattr(greedy_module, "_SWEEP_BLOCK", 1)
        for seed in range(6):
            problem = seeded_cover_problem(60, 12, seed=seed)
            state = GreedyState(problem)
            masks = [np.arange(m) for m in (20, 30, 31, 45, 60, 60)]
            swept = [verdict(o) for o in state.sweep(masks)]
            assert swept == solved_one_by_one(state, masks)

    def test_fortran_ordered_gains_are_never_replayed(self):
        """F-ordered rows sum in another order than the replay scoring
        (the last bits differ), so such a sweep restarts every mask."""
        base = seeded_cover_problem(40, 30, seed=4)
        problem = CoverProblem(gains=np.asfortranarray(base.gains), demands=base.demands)
        state = GreedyState(problem)
        masks = [np.arange(m) for m in (20, 25, 30, 35, 40)]
        rec = MetricsRecorder()
        with use_recorder(rec):
            swept = [verdict(o) for o in state.sweep(masks)]
        assert swept == solved_one_by_one(state, masks)
        assert "greedy.steps_reused" not in rec.counters

    def test_masks_are_consumed_lazily(self):
        problem = seeded_cover_problem(20, 5, seed=2)
        consumed = []

        def masks():
            for m in (10, 15, 20):
                consumed.append(m)
                yield np.arange(m)

        outcomes = GreedyState(problem).sweep(masks())
        next(outcomes)
        assert consumed == [10]


class TestPlanObservability:
    """build_plan keeps one greedy call and one span per group."""

    def test_spans_and_counters_per_group(self):
        instance, _pool = generate_instance(SETTING_III, seed=3, n_workers=160, n_tasks=80)
        rec = MetricsRecorder()
        with use_recorder(rec):
            plan = build_plan(instance)
        spans = [s for s in rec.spans if s.kind == "greedy_group"]
        assert len(spans) == plan.n_groups
        assert [s.attrs["cover_size"] for s in spans] == [
            int(w.size) for w in plan.group_selections
        ]
        assert rec.counters["greedy.calls"] == plan.n_groups
        steps = sum(int(w.size) for w in plan.group_selections)
        executed = rec.counters["greedy.iterations"]
        reused = rec.counters["greedy.steps_reused"]
        assert reused > 0
        # Every group is feasible, so each step is either replayed or run.
        assert executed + reused == steps
        assert rec.histograms["greedy.residual_demand"].count == executed
