#!/usr/bin/env python
"""Quickstart: run the DP-hSRC auction end to end in ~30 lines.

Draws a Table-I setting-I market (100 workers, 30 binary classification
tasks), runs the paper's three mechanisms, and prints what a platform
operator would look at: the clearing price, the winner count, the total
payment, and how close the private mechanism got to the non-private
optimum — or, when the capped exact search could not certify it, to the
best cover it found.

Run:  python examples/quickstart.py
"""

from repro import (
    BaselineAuction,
    DPHSRCAuction,
    SETTING_I,
    generate_instance,
    optimal_total_payment,
)

EPSILON = 0.1  # the paper's default privacy budget


def main() -> None:
    # One synthetic market: truthful bids, uniform skills/costs per Table I.
    instance, pool = generate_instance(SETTING_I, seed=7, n_workers=100)
    print(f"market: {instance.n_workers} workers, {instance.n_tasks} tasks, "
          f"{instance.price_grid.size} candidate prices")

    # The differentially private mechanism (Algorithm 1).
    auction = DPHSRCAuction(epsilon=EPSILON)
    outcome = auction.run(instance, seed=42)
    print(f"\nDP-hSRC outcome: price={outcome.price:.1f}, "
          f"winners={outcome.n_winners}, total payment={outcome.total_payment:.1f}")

    # The exact distribution is available too — no sampling noise.
    pmf = auction.price_pmf(instance)
    print(f"DP-hSRC expected payment (exact): {pmf.expected_total_payment():.1f} "
          f"± {pmf.std_total_payment():.1f}")

    # Non-private optimal benchmark (Equation 6) and the §VII-A baseline.
    optimum = optimal_total_payment(instance, time_limit_per_solve=10.0, max_exact_solves=6)
    baseline = BaselineAuction(epsilon=EPSILON).price_pmf(instance)
    print(f"\noptimal:  payment={optimum.total_payment:.1f} "
          f"(price={optimum.price:.1f}, winners={optimum.winners.size}, "
          f"certified={optimum.certified} after {optimum.n_exact_solves} exact solves)")
    print(f"baseline: expected payment={baseline.expected_total_payment():.1f}")

    # Uncertified means the solve cap stopped the search: the payment is
    # the best cover found, an upper bound on R_OPT, not R_OPT itself.
    if optimum.certified:
        reference = "the optimum"
    else:
        reference = (
            "an uncertified upper bound on R_OPT (the ratio to the true "
            "optimum is at least this)"
        )
    ratio = pmf.expected_total_payment() / optimum.total_payment
    print(f"\nDP-hSRC pays {ratio:.2f}x {reference} — the price of ε={EPSILON} "
          f"bid privacy; the baseline pays "
          f"{baseline.expected_total_payment() / optimum.total_payment:.2f}x.")

    # Every winner asked no more than the clearing price (Theorem 4).
    margins = [outcome.price - instance.prices[w] for w in outcome.winners]
    print(f"individual rationality: min winner margin = {min(margins):.2f} (>= 0)")


if __name__ == "__main__":
    main()
