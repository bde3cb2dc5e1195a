"""Property tests for the default ``"auto"`` exact backend (hypothesis).

``"auto"`` answers from the LP bound, a node-budgeted decision search or
HiGHS; whichever answers, it must agree with the pure HiGHS (``"milp"``)
and branch-and-bound (``"bnb"``) backends on the optimal size, return a
feasible certified cover, and return the same cover on every run.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.coverage.exact as exact
import repro.mechanisms.optimal as optimal
from repro.bench import BENCH_SETTING
from repro.coverage.exact import solve_exact
from repro.coverage.greedy import greedy_cover
from repro.coverage.lp import lp_lower_bound
from repro.coverage.problem import CoverProblem
from repro.engine import SweepEngine, use_engine
from repro.exceptions import InfeasibleError
from repro.mechanisms.optimal import OptimalSinglePriceMechanism, optimal_total_payment
from repro.workloads.generator import generate_instance

FEAS_TOL = 1e-6


@st.composite
def problems(draw, max_items=12, max_constraints=4):
    """Small multicover problems, some uncoverable, some with zero demands.

    Integer gains meet integer demands exactly and tie often; lattice
    fractions exercise the tolerance.
    """
    n_items = draw(st.integers(1, max_items))
    n_constraints = draw(st.integers(1, max_constraints))
    integer = draw(st.booleans())
    values = [0.0, 1.0, 2.0, 3.0] if integer else [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]
    gains = draw(
        arrays(
            dtype=np.float64,
            shape=(n_items, n_constraints),
            elements=st.sampled_from(values),
        )
    )
    if integer:
        demands = np.array(
            draw(st.lists(st.integers(0, 4), min_size=n_constraints, max_size=n_constraints)),
            dtype=float,
        )
    else:
        scale = draw(st.floats(0.0, 1.1))
        demands = gains.sum(axis=0) * scale
        demands[draw(st.integers(0, n_constraints - 1))] = 0.0
    return CoverProblem(gains=gains, demands=demands)


def _sizes_or_infeasible(problem):
    out = {}
    for backend in exact.EXACT_BACKENDS:
        try:
            out[backend] = solve_exact(problem, backend=backend).size
        except InfeasibleError:
            out[backend] = "infeasible"
    return out


class TestAutoAgreesWithMilpAndBnb:
    @given(problem=problems())
    @settings(max_examples=150, deadline=None)
    def test_same_optimal_size(self, problem):
        sizes = _sizes_or_infeasible(problem)
        assert len(set(sizes.values())) == 1, sizes
        assert (sizes["auto"] == "infeasible") == (not problem.is_coverable())

    @given(problem=problems())
    @settings(max_examples=100, deadline=None)
    def test_feasible_certified_and_deterministic(self, problem):
        if not problem.is_coverable():
            return
        first = solve_exact(problem)
        second = solve_exact(problem)
        assert first.backend == "auto"
        assert first.certified
        assert problem.is_feasible(first.selection, tol=FEAS_TOL)
        assert np.array_equal(first.selection, np.sort(first.selection))
        assert np.array_equal(first.selection, second.selection)
        assert first.path == second.path and first.nodes == second.nodes

    @given(problem=problems())
    @settings(max_examples=60, deadline=None)
    def test_budget_zero_falls_back_to_highs_and_agrees(self, problem):
        if not problem.is_coverable():
            return
        with mock.patch.object(exact, "_SEARCH_WORK", 0):
            result = solve_exact(problem)
        assert result.path in ("bound", "milp")
        assert result.certified
        assert problem.is_feasible(result.selection, tol=FEAS_TOL)
        assert result.size == solve_exact(problem, backend="milp").size

    @given(problem=problems())
    @settings(max_examples=60, deadline=None)
    def test_caller_bounds_give_the_same_answer(self, problem):
        if not problem.is_coverable():
            return
        given_bounds = solve_exact(
            problem,
            lp=lp_lower_bound(problem),
            incumbent=greedy_cover(problem).selection,
        )
        computed = solve_exact(problem)
        assert np.array_equal(given_bounds.selection, computed.selection)
        assert given_bounds.path == computed.path


class TestPaths:
    def test_settled_by_bound_makes_no_search(self):
        problem = CoverProblem(gains=np.eye(3), demands=np.ones(3))
        result = solve_exact(problem)
        assert (result.path, result.nodes, result.size) == ("bound", 0, 3)
        assert result.certified

    def test_search_finds_a_cover_smaller_than_greedy(self):
        # Greedy takes the big middle item first and then needs both
        # halves; the optimum is the two halves alone (LP bound 1.5).
        problem = CoverProblem(
            gains=np.array([[1.0, 0.0], [0.6, 0.6], [0.0, 1.0]]),
            demands=np.array([1.0, 1.0]),
        )
        assert greedy_cover(problem).size == 3
        result = solve_exact(problem)
        assert (result.path, result.size, result.certified) == ("search", 2, True)
        assert result.selection.tolist() == [0, 2]

    def test_zero_demand_selects_nothing(self):
        problem = CoverProblem(gains=np.ones((2, 2)), demands=np.zeros(2))
        assert solve_exact(problem).size == 0
        assert solve_exact(problem, incumbent=np.array([0, 1])).size == 0

    @pytest.mark.parametrize("shape", [(30, 10), (60, 30)])
    def test_node_budget_shrinks_with_problem_size(self, shape):
        rng = np.random.default_rng(7)
        gains = rng.uniform(0, 1, shape) * (rng.random(shape) < 0.6)
        problem = CoverProblem(gains=gains, demands=np.full(shape[1], 2.0))
        result = solve_exact(problem)
        assert result.nodes <= exact._SEARCH_WORK // (shape[0] * shape[1])
        assert result.certified
        assert result.size == solve_exact(problem, backend="milp").size

    def test_uncoverable_raises(self):
        problem = CoverProblem(gains=np.full((2, 1), 0.3), demands=np.array([1.0]))
        with pytest.raises(InfeasibleError):
            solve_exact(problem)

    def test_oversized_table_goes_straight_to_highs(self):
        problem = CoverProblem(
            gains=np.array([[1.0, 0.0], [0.6, 0.6], [0.0, 1.0]]),
            demands=np.array([1.0, 1.0]),
        )
        with mock.patch.object(exact, "_SEARCH_MAX_CELLS", 0):
            result = solve_exact(problem)
        assert (result.path, result.nodes, result.size) == ("milp", 0, 2)

    def test_incumbent_that_does_not_cover_is_rejected(self):
        problem = CoverProblem(gains=np.eye(2), demands=np.ones(2))
        with pytest.raises(ValueError, match="incumbent"):
            solve_exact(problem, incumbent=np.array([0]))


def _instance(seed):
    return generate_instance(BENCH_SETTING, seed=seed, n_workers=24, n_tasks=6)[0]


class TestOptimalTotalPayment:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_auto_matches_milp(self, seed):
        instance = _instance(seed)
        results = {
            backend: optimal_total_payment(
                instance, backend=backend, time_limit_per_solve=30.0
            )
            for backend in ("auto", "milp")
        }
        keys = {
            backend: (r.price, r.total_payment, r.certified, r.n_exact_solves)
            for backend, r in results.items()
        }
        assert keys["auto"] == keys["milp"]
        assert results["auto"].winners.size == results["milp"].winners.size

    def test_default_backend_is_auto(self):
        assert OptimalSinglePriceMechanism().backend == "auto"

    def test_unknown_backend_rejected_before_any_lp(self, monkeypatch):
        calls = []
        real = optimal.lp_lower_bound
        monkeypatch.setattr(
            optimal, "lp_lower_bound", lambda *a, **k: (calls.append(1), real(*a, **k))[1]
        )
        with pytest.raises(ValueError, match="unknown exact backend"):
            OptimalSinglePriceMechanism(backend="gurobi")
        with use_engine(SweepEngine()) as engine:
            with pytest.raises(ValueError, match="unknown exact backend"):
                optimal_total_payment(_instance(0), backend="gurobi")
        assert calls == []
        assert engine.misses == 0
