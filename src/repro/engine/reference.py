"""The pre-engine mechanism pipeline, retained as an executable spec.

Before the :class:`~repro.engine.engine.SweepEngine` refactor, every
mechanism re-ran ``feasible_price_set → group_prices_by_candidates →
per-group cover_solver`` inline, slicing a standalone sub-problem per
group.  This module preserves that exact computation — eager per-group
slices, local-index selections mapped through ``group.candidates``, the
inline exponential-mechanism scoring — so the golden-equivalence suite
(``tests/test_engine_golden.py``, CI's ``engine-smoke`` job) can assert
that the engine-backed mechanisms produce **bit-for-bit identical**
PMFs and optima, with and without the plan cache.

Mirrors the precedent of :mod:`repro.coverage.reference`, which retains
the pre-vectorization greedy kernels for the same purpose.  These
functions are references: correct, unobserved (no spans/counters), and
unoptimized by design.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.auction.instance import AuctionInstance
from repro.auction.mechanism import PricePMF
from repro.coverage.greedy import GreedyResult, greedy_cover, static_order_cover
from repro.coverage.exact import solve_exact
from repro.coverage.lp import lp_lower_bound
from repro.coverage.problem import CoverProblem
from repro.engine.price_set import feasible_price_set, group_prices_by_candidates
from repro.privacy.exponential import ExponentialMechanism
from repro.tolerances import DEMAND_TOL

__all__ = [
    "reference_winner_schedule",
    "reference_dp_hsrc_pmf",
    "reference_baseline_pmf",
    "reference_optimal_total_payment",
]


def reference_winner_schedule(
    instance: AuctionInstance,
    cover_solver: Callable[[CoverProblem], GreedyResult] = greedy_cover,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Prices and per-price winner sets, the pre-engine way.

    One standalone sliced sub-problem per affordable-worker group, solved
    with ``cover_solver``; local selections mapped back through the
    group's candidate array.  Returns ``(prices, winner_sets)``.
    """
    prices = feasible_price_set(instance)
    groups = group_prices_by_candidates(instance, prices)
    winner_sets: list[np.ndarray] = [None] * prices.size  # type: ignore[list-item]
    for group in groups:
        local = cover_solver(group.problem).selection
        winners = group.candidates[local]
        for k in group.price_indices:
            winner_sets[int(k)] = winners
    return prices, tuple(winner_sets)


def _exponential_pmf(
    instance: AuctionInstance,
    prices: np.ndarray,
    winner_sets: tuple[np.ndarray, ...],
    epsilon: float,
) -> PricePMF:
    """Score a winner schedule with the paper's exponential price draw."""
    cover_sizes = np.array([w.size for w in winner_sets], dtype=float)
    sensitivity = instance.n_workers * instance.c_max  # Δu = N·c_max (Eq. 10)
    mechanism = ExponentialMechanism(
        scores=-(prices * cover_sizes),
        epsilon=float(epsilon),
        sensitivity=sensitivity,
    )
    return PricePMF(
        prices=prices,
        probabilities=mechanism.probabilities,
        winner_sets=winner_sets,
        n_workers=instance.n_workers,
    )


def reference_dp_hsrc_pmf(instance: AuctionInstance, epsilon: float) -> PricePMF:
    """Algorithm 1's exact PMF computed by the pre-engine pipeline."""
    prices, winner_sets = reference_winner_schedule(instance, greedy_cover)
    return _exponential_pmf(instance, prices, winner_sets, epsilon)


def reference_baseline_pmf(instance: AuctionInstance, epsilon: float) -> PricePMF:
    """The §VII-A baseline's exact PMF computed by the pre-engine pipeline."""
    prices = feasible_price_set(instance)
    groups = group_prices_by_candidates(instance, prices)
    winner_sets: list[np.ndarray] = [None] * prices.size  # type: ignore[list-item]
    for group in groups:
        # Descending static gain over the affordable workers; ties break
        # toward the lower original index for determinism.
        static_gain = group.problem.gains.sum(axis=1)
        order = np.argsort(-static_gain, kind="stable")
        local = static_order_cover(group.problem, order=order).selection
        winners = group.candidates[local]
        for k in group.price_indices:
            winner_sets[int(k)] = winners
    return _exponential_pmf(instance, prices, tuple(winner_sets), epsilon)


def reference_optimal_total_payment(
    instance: AuctionInstance,
    *,
    backend: str = "auto",
    time_limit_per_solve: float | None = 120.0,
    max_exact_solves: int | None = None,
) -> tuple[float, np.ndarray, float]:
    """``(price, winners, R_OPT)`` by the pre-engine pruned exact sweep.

    The exact bound-and-prune loop of the original
    ``optimal_total_payment``, kept verbatim: per-group LP lower bounds,
    ascending-bound exact solves, and the same ``DEMAND_TOL`` pruning
    margin — so the engine-backed optimal benchmark can be golden-tested
    against it including the tie-breaking of equal-payment groups.
    """
    prices = feasible_price_set(instance)
    groups = group_prices_by_candidates(instance, prices)
    group_prices = np.array([float(prices[g.price_indices[0]]) for g in groups])
    lower_bounds = np.empty(len(groups))
    for idx, group in enumerate(groups):
        lower_bounds[idx] = group_prices[idx] * lp_lower_bound(group.problem).integral_bound
        greedy_cover(group.problem)  # parity with the historical upper-bound pass

    best_price = best_payment = None
    best_winners = None
    n_solves = 0
    for idx in np.argsort(lower_bounds):
        group = groups[int(idx)]
        if best_payment is not None and lower_bounds[idx] >= best_payment - DEMAND_TOL:
            break
        if max_exact_solves is not None and n_solves >= max_exact_solves:
            break
        result = solve_exact(
            group.problem, backend=backend, time_limit=time_limit_per_solve
        )
        n_solves += 1
        winners = group.candidates[result.selection]
        payment = group_prices[idx] * winners.size
        if best_payment is None or payment < best_payment:
            best_price = float(group_prices[idx])
            best_payment = float(payment)
            best_winners = winners
    assert best_payment is not None
    return best_price, best_winners, best_payment
