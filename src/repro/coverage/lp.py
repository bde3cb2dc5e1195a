"""LP relaxation of the minimum-cardinality multicover problem.

Relaxing the binary selection variables of the (modified) TPM integer
program to ``x_i ∈ [0, 1]`` yields a linear program whose optimum is a
lower bound on the integral optimum.  The branch-and-bound solver uses it
for pruning, and the analysis package uses it to sandwich the greedy
solution (``LP ≤ OPT ≤ greedy ≤ 2βH_m · OPT``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from repro.coverage.problem import CoverProblem
from repro.exceptions import InfeasibleError, SolverError

__all__ = ["LPResult", "lp_lower_bound"]


@dataclass(frozen=True)
class LPResult:
    """Solution of the LP relaxation.

    Attributes
    ----------
    objective:
        Optimal fractional cardinality ``Σ_i x_i``.
    solution:
        ``(M,)`` optimal fractional selection.
    duals:
        ``(K,)`` optimal row duals ``y ≥ 0`` of the covering constraints
        (0 for constraints without demand).  Any ``y ≥ 0`` turns the
        rows into one valid surrogate row ``(G y) · x ≥ y · demands``;
        the optimal ``y`` makes it about as tight as the LP.  ``None``
        from the simplex backend, which does not report them.
    """

    objective: float
    solution: np.ndarray
    duals: np.ndarray | None = None

    @property
    def integral_bound(self) -> int:
        """``ceil(objective)`` — a valid lower bound on the integer optimum."""
        # Guard against ceil(4.0000000001) = 5 from solver noise.
        return int(np.ceil(self.objective - 1e-7))

    def fractional_items(self, tol: float = 1e-6) -> np.ndarray:
        """Indices whose LP value is strictly fractional (for branching)."""
        frac = (self.solution > tol) & (self.solution < 1.0 - tol)
        return np.flatnonzero(frac)


def lp_lower_bound(
    problem: CoverProblem,
    *,
    forced_in: np.ndarray | None = None,
    forced_out: np.ndarray | None = None,
    backend: str = "highs",
) -> LPResult:
    """Solve the LP relaxation, optionally with branching restrictions.

    Parameters
    ----------
    problem:
        The covering instance.
    forced_in:
        Item indices fixed to 1 (already selected on the branch path).
    forced_out:
        Item indices fixed to 0 (excluded on the branch path).
    backend:
        ``"highs"`` (scipy, default) or ``"simplex"`` — the from-scratch
        two-phase simplex of :mod:`repro.coverage.simplex`, cross-checked
        against HiGHS in the tests.  With the simplex backend the entire
        certified pipeline (LP bound → branch-and-bound → optimal
        benchmark) runs without any external solver.

    Raises
    ------
    InfeasibleError
        If the restricted LP is infeasible (the branch cannot cover).
    SolverError
        If the LP solver fails for any other reason.
    """
    if backend not in ("highs", "simplex"):
        raise ValueError(f"unknown LP backend {backend!r}; use 'highs' or 'simplex'")
    n = problem.n_items
    lower = np.zeros(n)
    upper = np.ones(n)
    if forced_in is not None and len(forced_in) > 0:
        lower[np.asarray(forced_in, dtype=int)] = 1.0
    if forced_out is not None and len(forced_out) > 0:
        out_idx = np.asarray(forced_out, dtype=int)
        if np.any(lower[out_idx] > 0):
            raise InfeasibleError("an item is forced both in and out")
        upper[out_idx] = 0.0

    active = problem.active_constraints
    if active.size == 0:
        solution = lower.copy()
        return LPResult(
            objective=float(lower.sum()),
            solution=solution,
            duals=np.zeros(problem.n_constraints),
        )

    if backend == "simplex":
        return _simplex_with_restrictions(problem, lower, upper)

    # min 1'x  s.t.  gains[:, active]' x >= demands[active],  lower<=x<=upper
    res = linprog(
        c=np.ones(n),
        A_ub=-problem.gains[:, active].T,
        b_ub=-problem.demands[active],
        bounds=np.column_stack([lower, upper]),
        method="highs",
    )
    if res.status == 2:  # infeasible
        raise InfeasibleError("LP relaxation is infeasible under the restrictions")
    if not res.success:
        raise SolverError(f"LP solver failed: {res.message}")
    # HiGHS reports the sensitivity of the objective to each b_ub entry;
    # the rows are negated ≥-constraints, so the duals are its negation.
    duals = np.zeros(problem.n_constraints)
    duals[active] = np.maximum(-np.asarray(res.ineqlin.marginals, dtype=float), 0.0)
    return LPResult(
        objective=float(res.fun),
        solution=np.asarray(res.x, dtype=float),
        duals=duals,
    )


def _simplex_with_restrictions(
    problem: CoverProblem, lower: np.ndarray, upper: np.ndarray
) -> LPResult:
    """Run the built-in simplex, folding branch restrictions into the problem.

    Forced-out items are removed (their column is irrelevant); forced-in
    items contribute their full gain to the demands up front and a
    constant 1 each to the objective.
    """
    from repro.coverage.simplex import covering_lp_simplex

    n = problem.n_items
    forced_in_idx = np.flatnonzero(lower > 0.5)
    free_idx = np.flatnonzero((lower < 0.5) & (upper > 0.5))

    residual = np.clip(
        problem.demands - problem.gains[forced_in_idx].sum(axis=0), 0.0, None
    )
    sub = CoverProblem(gains=problem.gains[free_idx], demands=residual)
    result = covering_lp_simplex(sub)

    solution = np.zeros(n)
    solution[forced_in_idx] = 1.0
    solution[free_idx] = result.solution
    return LPResult(
        objective=float(result.objective + forced_in_idx.size),
        solution=solution,
    )
