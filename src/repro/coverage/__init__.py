"""Weighted set-multicover optimization substrate.

The paper's TPM problem, for a fixed price ``p``, is a *minimum-cardinality
weighted set multicover*: choose the fewest workers so that, for every
task ``j``, the selected workers' qualities sum to at least the demand
``Q_j`` (Section IV).  Theorem 1 shows it is NP-hard.  This package
implements the problem model and three solvers:

* :func:`~repro.coverage.greedy.greedy_cover` — the truncated-marginal-gain
  greedy used inside Algorithm 1 (lines 8–13), with Lemma 2's ``2·β·H_m``
  approximation guarantee.
* :func:`~repro.coverage.exact.solve_exact` — certified-optimal solving:
  by default an LP-bound check and a node-budgeted decision search in
  front of the HiGHS MILP backend (`scipy.optimize.milp`, which
  substitutes for the paper's GUROBI), or either of HiGHS alone and our
  own branch-and-bound (LP-relaxation bounds + greedy incumbents).
* :func:`~repro.coverage.lp.lp_lower_bound` — the LP relaxation used for
  bounding.

The greedy kernels are vectorized; :mod:`repro.coverage.reference`
retains the per-item-scan reference implementations they are validated
against bit-for-bit (and benchmarked against in ``BENCH_greedy.json``).

For the ROADMAP's ``10^5``-plus scale, :mod:`repro.coverage.sparse`
stores instances in CSR form and :mod:`repro.coverage.lazy` provides a
CELF-style lazy greedy pinned bit-for-bit against the dense kernel;
:mod:`repro.coverage.dispatch` picks between them (``cover_solver="auto"``)
by a deterministic size/density rule.

All solvers operate on :class:`~repro.coverage.problem.CoverProblem`,
which is independent of auctions: gains are any non-negative matrix and
demands any non-negative vector.
"""

from repro.coverage.problem import CoverProblem
from repro.coverage.greedy import (
    GreedyResult,
    GreedyState,
    greedy_cover,
    static_order_cover,
)
from repro.coverage.sparse import SparseCoverage
from repro.coverage.lazy import LazyGreedyState, lazy_sparse_greedy_cover
from repro.coverage.dispatch import (
    auto_cover_solver,
    resolve_cover_solver,
    use_lazy_kernel,
)
from repro.coverage.reference import reference_greedy_cover, reference_static_order_cover
from repro.coverage.exact import EXACT_BACKENDS, ExactResult, solve_exact
from repro.coverage.rounding import RoundingResult, randomized_rounding_cover
from repro.coverage.lp import LPResult, lp_lower_bound
from repro.coverage.simplex import SimplexSolution, covering_lp_simplex
from repro.coverage.bounds import (
    greedy_approximation_factor,
    harmonic_number,
    max_row_gain,
    multiplicity,
)

__all__ = [
    "CoverProblem",
    "GreedyResult",
    "GreedyState",
    "greedy_cover",
    "static_order_cover",
    "SparseCoverage",
    "LazyGreedyState",
    "lazy_sparse_greedy_cover",
    "auto_cover_solver",
    "resolve_cover_solver",
    "use_lazy_kernel",
    "reference_greedy_cover",
    "reference_static_order_cover",
    "EXACT_BACKENDS",
    "ExactResult",
    "solve_exact",
    "RoundingResult",
    "randomized_rounding_cover",
    "LPResult",
    "lp_lower_bound",
    "SimplexSolution",
    "covering_lp_simplex",
    "greedy_approximation_factor",
    "harmonic_number",
    "max_row_gain",
    "multiplicity",
]
