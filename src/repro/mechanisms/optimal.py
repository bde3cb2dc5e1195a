"""The non-private optimal single-price benchmark (Equation 6).

``R_OPT = min_{p ∈ P} p · |S_OPT(p)|`` where ``S_OPT(p)`` is the
minimum-cardinality winner set among workers asking at most ``p``.  The
paper computes ``S_OPT`` with GUROBI; we use the certified exact solvers
of :mod:`repro.coverage.exact` (by default ``"auto"``: LP bound, a
budgeted decision search, then HiGHS MILP).

Naively this needs one NP-hard solve per affordable-worker group; like
the paper's GUROBI runs (Table II: up to 6,139 s), that can be very slow.
:func:`optimal_total_payment` therefore prunes with certified bounds
before ever calling the exact solver:

* **upper bounds** — the greedy cover of each group bounds its payment
  from above (cheap, Lemma 2-guaranteed);
* **lower bounds** — each group's LP relaxation gives the certified lower
  bound ``p_g · ⌈LP_g⌉``;
* groups are solved in ascending lower-bound order and the loop stops as
  soon as the best *solved* payment is at most every remaining group's
  lower bound — the usual branch-and-bound argument lifted to the price
  dimension.  Pruned groups provably cannot contain the optimum, so the
  result stays exact.

Each exact solve reuses what the pruning pass already holds: the group's
LP (its bound and row duals) and its greedy cover as the incumbent, so no
LP or greedy run is repeated inside the solver.

Exposed both as a plain function and as a
:class:`~repro.auction.mechanism.Mechanism` whose "distribution" is a
point mass on the optimal price, so the experiment harness treats all
three mechanisms uniformly.  The benchmark is **not** differentially
private — that is exactly the gap the paper's Figures 1–2 quantify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.auction.instance import AuctionInstance
from repro.auction.mechanism import Mechanism, PricePMF
from repro.coverage.exact import check_exact_backend, solve_exact
from repro.coverage.dispatch import auto_cover_solver
from repro.coverage.lp import lp_lower_bound
from repro.engine.engine import current_engine
from repro.obs import current_recorder
from repro.tolerances import DEMAND_TOL

__all__ = ["OptimalSinglePriceMechanism", "OptimalResult", "optimal_total_payment"]


@dataclass(frozen=True)
class OptimalResult:
    """The optimal single-price solution of an instance.

    Attributes
    ----------
    price:
        The payment-minimizing feasible price ``p*``.
    winners:
        ``S_OPT(p*)`` as original worker indices, sorted.
    total_payment:
        ``R_OPT = p* · |S_OPT(p*)|``.
    certified:
        True when every exact solve involved finished with a proof of
        optimality; False if a time limit left a gap open somewhere (the
        result is then an upper bound on the true ``R_OPT``).
    n_exact_solves:
        How many NP-hard solves the pruning actually allowed through.
    """

    price: float
    winners: np.ndarray
    total_payment: float
    certified: bool = True
    n_exact_solves: int = 0


def optimal_total_payment(
    instance: AuctionInstance,
    *,
    backend: str = "auto",
    time_limit_per_solve: float | None = 120.0,
    max_exact_solves: int | None = None,
) -> OptimalResult:
    """Compute ``R_OPT`` with bound-based pruning over the price groups.

    Parameters
    ----------
    instance:
        The auction instance.
    backend:
        Exact solver backend: ``"auto"`` (default), ``"milp"`` or ``"bnb"``.
    time_limit_per_solve:
        Per-group wall-clock budget (seconds) for HiGHS; a
        timed-out group contributes its incumbent and flips ``certified``
        to False.  ``None`` disables the limit.
    max_exact_solves:
        Optional cap on the number of exact solves.  Groups are processed
        in ascending certified-lower-bound order, so the optimum is very
        likely among the first few; hitting the cap flips ``certified``
        to False (the result is then an upper bound on ``R_OPT``).

    Raises
    ------
    ValueError
        When ``backend`` is unknown (before any work is done).
    EmptyPriceSetError
        When no grid price is feasible.
    """
    check_exact_backend(backend)
    recorder = current_recorder()
    # The sweep plan supplies the price set, groups, and the per-group
    # greedy covers (the historical upper-bound pass) — shared with any
    # other greedy-backed mechanism evaluated on this instance.
    # Same default solver identity as DPHSRCAuction("auto"), so the
    # exact pass reuses any cached DP-hSRC sweep for this instance.
    plan = current_engine().plan(instance, auto_cover_solver, label="optimal")
    prices, groups = plan.prices, plan.groups

    # Cheap certified bounds per group.  Group price = its lowest price
    # (within a group |S| is constant, so the lowest price is optimal).
    group_prices = np.array(
        [float(prices[g.price_indices[0]]) for g in groups]
    )
    lps = []
    for group in groups:
        with recorder.span(
            "lp_bound", "optimal.lp_bound", n_candidates=int(group.candidates.size)
        ) as span:
            lp = lp_lower_bound(group.problem)
            span.set(objective=lp.objective)
        lps.append(lp)
    lower_bounds = group_prices * np.array([lp.integral_bound for lp in lps])

    best: OptimalResult | None = None
    n_solves = 0
    certified = True
    for idx in np.argsort(lower_bounds):
        group = groups[int(idx)]
        if best is not None and lower_bounds[idx] >= best.total_payment - DEMAND_TOL:
            break  # every remaining group's optimum is provably no better
        if max_exact_solves is not None and n_solves >= max_exact_solves:
            certified = False  # remaining groups were never ruled out
            break
        result = solve_exact(
            group.problem,
            backend=backend,
            time_limit=time_limit_per_solve,
            lp=lps[idx],
            # The plan's greedy cover, in the group's local indices.
            incumbent=np.searchsorted(group.candidates, plan.group_selections[idx]),
        )
        n_solves += 1
        certified = certified and result.certified
        winners = group.candidates[result.selection]
        payment = group_prices[idx] * winners.size
        if best is None or payment < best.total_payment:
            best = OptimalResult(
                price=float(group_prices[idx]),
                winners=winners,
                total_payment=float(payment),
                certified=certified,
                n_exact_solves=n_solves,
            )
    assert best is not None  # feasible_price_set guarantees ≥ 1 group
    recorder.count("optimal.groups_pruned", len(groups) - n_solves)
    return OptimalResult(
        price=best.price,
        winners=best.winners,
        total_payment=best.total_payment,
        certified=certified,
        n_exact_solves=n_solves,
    )


class OptimalSinglePriceMechanism(Mechanism):
    """Mechanism wrapper putting all probability mass on the optimum.

    Parameters
    ----------
    backend:
        Exact solver backend forwarded to :func:`optimal_total_payment`.
    time_limit_per_solve:
        Per-group time budget forwarded to :func:`optimal_total_payment`.
    """

    name = "optimal"

    def __init__(
        self,
        backend: str = "auto",
        time_limit_per_solve: float | None = 120.0,
        max_exact_solves: int | None = None,
    ) -> None:
        self.backend = check_exact_backend(backend)
        self.time_limit_per_solve = time_limit_per_solve
        self.max_exact_solves = max_exact_solves

    def price_pmf(self, instance: AuctionInstance) -> PricePMF:
        """A degenerate PMF: probability 1 on the optimal price."""
        result = optimal_total_payment(
            instance,
            backend=self.backend,
            time_limit_per_solve=self.time_limit_per_solve,
            max_exact_solves=self.max_exact_solves,
        )
        return PricePMF(
            prices=np.array([result.price]),
            probabilities=np.array([1.0]),
            winner_sets=(result.winners,),
            n_workers=instance.n_workers,
        )
