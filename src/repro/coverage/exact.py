"""Certified-optimal solvers for the minimum-cardinality multicover.

The paper computes the optimal benchmark ``S_OPT(p)`` with GUROBI; GUROBI
is proprietary, so this module substitutes three interchangeable exact
backends (see DESIGN.md, Substitutions):

* ``"auto"`` — the default.  Most optimal covers are one size above
  ``⌈LP⌉`` or the greedy cover itself, so the question is usually a
  single "is there a cover of size ``k``?".  It answers in three steps,
  each certified:

  1. *bound* — a greedy incumbent of size ``⌈LP⌉`` is optimal outright;
  2. *search* — otherwise a depth-first decision search asks, for
     ``k = ⌈LP⌉, …, |incumbent| − 1``, whether ``k`` items can cover;
     items go in descending surrogate weight ``G·y`` (``y`` the LP row
     duals), include branch first, and a node with ``m`` picks left dies
     when the ``m`` heaviest remaining items — gains capped at the
     residual, weighted by ``y`` — cannot reach ``y · residual``, or
     when one task's ``m`` largest remaining gains cannot reach its
     residual;
  3. *milp* — when the search spends its node budget, the ``"milp"``
     backend below takes over.

  The budget counts nodes, not seconds, so which step answers — and
  which of several optimal covers comes back — is the same on every
  machine.
* ``"milp"`` — the HiGHS mixed-integer solver shipped with SciPy
  (:func:`scipy.optimize.milp`), strengthened with the cuts
  ``⌈LP optimum⌉ ≤ Σ x_i ≤ |greedy cover|`` that hand HiGHS both bounds
  up front.
* ``"bnb"`` — our own branch-and-bound: LP-relaxation lower bounds,
  greedy-repair incumbents, most-fractional branching with a dive-first
  strategy.  Self-contained (only uses the LP relaxation in
  :mod:`repro.coverage.lp`) and cross-validated against the MILP backend
  in the test suite.

Set multicover MILPs can be genuinely hard (the paper's own Table II
shows GUROBI needing up to 6,139 s on setting-I-sized instances), so the
backends accept resource limits.  When HiGHS hits its time limit with an
incumbent in hand, the result is that incumbent with ``certified=False``
instead of a failure — callers choose whether a bounded near-optimum is
acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import LinearConstraint, milp

from repro.coverage.greedy import greedy_cover
from repro.coverage.lp import LPResult, lp_lower_bound
from repro.coverage.problem import CoverProblem
from repro.exceptions import InfeasibleError, SolverError, ValidationError
from repro.obs import current_recorder
from repro.tolerances import DEMAND_TOL

__all__ = ["EXACT_BACKENDS", "ExactResult", "check_exact_backend", "solve_exact"]

_TOL = 1e-6

#: The exact backends :func:`solve_exact` accepts; ``"auto"`` is the default.
EXACT_BACKENDS = ("auto", "milp", "bnb")

#: Residual demand a selection may leave and still count as a cover.  The
#: decision search decides with it and every HiGHS answer is verified with
#: it, so both paths agree on what a cover is.
_FEAS_TOL = 1e-6

#: Work the decision search of ``"auto"`` may spend, summed over the
#: sizes it tries, before the solve goes to HiGHS, in gain cells: a node
#: budget of ``_SEARCH_WORK // (items × tasks)``, so 2,000 nodes at the
#: 30 × 10 setting-I-shrink size, where most solves settle in tens of
#: nodes.  Larger problems get fewer nodes: each node scans more gains,
#: and at Table II sizes (55-70 × 20-30) the search never settled, so a
#: fixed 2,000 nodes only added ~40 ms before HiGHS.
_SEARCH_WORK = 600_000

#: Largest pruning table (float cells) the decision search builds.
_SEARCH_MAX_CELLS = 1 << 21


def check_exact_backend(backend: str) -> str:
    """Return ``backend`` if it names an exact backend, else raise ``ValueError``."""
    if backend not in EXACT_BACKENDS:
        raise ValueError(
            f"unknown exact backend {backend!r}; use one of "
            + ", ".join(repr(b) for b in EXACT_BACKENDS)
        )
    return backend


@dataclass(frozen=True)
class ExactResult:
    """An optimal (or time-limited best-known) cover.

    Attributes
    ----------
    selection:
        Sorted array of selected item indices.
    backend:
        The backend that was asked (``"auto"``, ``"milp"`` or ``"bnb"``).
    certified:
        True when the selection is provably optimal; False when a time
        limit stopped the search with an incumbent whose optimality gap
        may be open.
    nodes:
        Search nodes explored by the ``"auto"`` decision search or the
        ``"bnb"`` branch-and-bound (HiGHS does not expose its count).
    path:
        Which procedure gave the answer: ``"bound"`` (the incumbent met
        ``⌈LP⌉``), ``"search"`` (the decision search), ``"milp"``
        (HiGHS) or ``"bnb"``.
    timed_out:
        True when HiGHS stopped at its time limit (the LP bound may still
        certify what it returned).
    """

    selection: np.ndarray
    backend: str
    certified: bool = True
    nodes: int = 0
    path: str = ""
    timed_out: bool = False

    @property
    def size(self) -> int:
        """Cover cardinality ``|S|``."""
        return int(self.selection.size)


def solve_exact(
    problem: CoverProblem,
    *,
    backend: str = "auto",
    node_limit: int = 200_000,
    time_limit: float | None = None,
    lp: LPResult | None = None,
    incumbent: np.ndarray | None = None,
) -> ExactResult:
    """Solve the multicover to certified optimality (resource permitting).

    Parameters
    ----------
    problem:
        The covering instance.
    backend:
        ``"auto"`` (default: bound, then decision search, then HiGHS),
        ``"milp"`` (HiGHS only) or ``"bnb"`` (our branch-and-bound).
    node_limit:
        Safety cap on branch-and-bound nodes; exceeded ⇒ ``SolverError``.
        Only used by the ``"bnb"`` backend.
    time_limit:
        Wall-clock budget in seconds for HiGHS; on expiry the best
        incumbent is returned with ``certified=False``.  Ignored by the
        branch-and-bound backend.
    lp:
        The problem's LP relaxation, if the caller already solved it
        (:func:`~repro.coverage.lp.lp_lower_bound` of ``problem``, with
        its duals); solved here otherwise.  Ignored by ``"bnb"``.
    incumbent:
        A feasible cover in ``problem``'s item indices, if the caller
        already has one (e.g. the greedy cover); the greedy cover is
        computed here otherwise.  Ignored by ``"bnb"``.

    Raises
    ------
    ValueError
        If ``backend`` is unknown or ``incumbent`` is not a cover.
    InfeasibleError
        If no selection covers the demands.
    SolverError
        On backend failure, node-limit exhaustion, or a time limit
        expiring before any incumbent was found.
    """
    check_exact_backend(backend)
    if not problem.is_coverable():
        raise InfeasibleError("no selection of all items covers the demands")
    recorder = current_recorder()
    with recorder.span(
        "exact_solve",
        f"exact.{backend}",
        n_items=problem.n_items,
        n_constraints=problem.n_constraints,
    ) as span:
        if backend == "bnb":
            result = _solve_bnb(problem, node_limit=node_limit)
        elif backend == "milp":
            result = _solve_milp(
                problem, time_limit=time_limit, lp=lp, incumbent=incumbent
            )
        else:
            result = _solve_auto(
                problem, time_limit=time_limit, lp=lp, incumbent=incumbent
            )
        span.set(
            path=result.path,
            nodes=result.nodes,
            certified=result.certified,
            timed_out=result.timed_out,
            size=result.size,
        )
    if backend == "auto":
        recorder.count("exact.search_nodes", result.nodes)
        recorder.count("exact.milp_fallbacks", int(result.path == "milp"))
        recorder.count("exact.settled_by_bound", int(result.path == "bound"))
    return result


def _bounds(
    problem: CoverProblem, lp: LPResult | None, incumbent: np.ndarray | None
) -> tuple[LPResult, np.ndarray]:
    """The caller's LP and (sorted) incumbent, or freshly computed ones."""
    if lp is None:
        lp = lp_lower_bound(problem)
    if incumbent is None:
        return lp, greedy_cover(problem).selection
    incumbent = np.sort(np.asarray(incumbent, dtype=int))
    if not problem.is_feasible(incumbent, tol=_FEAS_TOL):
        raise ValidationError("the incumbent does not cover the demands")
    return lp, incumbent


# ----------------------------------------------------------------------
# Auto backend: bound, budgeted decision search, then HiGHS
# ----------------------------------------------------------------------


def _solve_auto(
    problem: CoverProblem,
    *,
    time_limit: float | None,
    lp: LPResult | None,
    incumbent: np.ndarray | None,
) -> ExactResult:
    lp, incumbent = _bounds(problem, lp, incumbent)
    n_tasks = problem.active_constraints.size
    if n_tasks == 0:  # nothing to cover: the empty selection is optimal
        incumbent = incumbent[:0]
    if incumbent.size <= max(lp.integral_bound, 0):
        return ExactResult(selection=incumbent, backend="auto", path="bound")
    nodes = 0
    budget = _SEARCH_WORK // (problem.n_items * n_tasks)
    # The search tabulates (n + 1)·(|incumbent| − 1)·K floats; problems
    # past that are far beyond what its node budget can settle anyway.
    table_cells = (problem.n_items + 1) * incumbent.size * problem.n_constraints
    if budget > 0 and table_cells <= _SEARCH_MAX_CELLS:
        selection, nodes = _decision_search(
            problem, lp, lp.integral_bound, incumbent.size, budget
        )
        if nodes <= budget:
            # The search finished: either a smaller cover or proof that
            # none exists below the incumbent.
            return ExactResult(
                selection=incumbent if selection is None else selection,
                backend="auto",
                nodes=nodes,
                path="search",
            )
    fallback = _solve_milp(problem, time_limit=time_limit, lp=lp, incumbent=incumbent)
    return replace(fallback, backend="auto", nodes=min(nodes, budget))


def _decision_search(
    problem: CoverProblem, lp: LPResult, lower: int, upper: int, budget: int
) -> tuple[np.ndarray | None, int]:
    """The smallest cover of ``lower ≤ size < upper`` items, by depth-first search.

    Returns ``(selection, nodes)``: ``selection`` is None when no such
    cover exists, and ``nodes > budget`` when the budget ran out first
    (the answer is then unknown).
    """
    active = problem.active_constraints
    duals = (
        np.zeros(active.size) if lp.duals is None else np.maximum(lp.duals[active], 0.0)
    )
    weights = problem.gains[:, active] @ duals
    order = np.argsort(-weights, kind="stable")
    gains = problem.gains[order][:, active]
    n, most = order.size, upper - 1
    # reach[i, m-1, j]: the m largest gains on task j among items i..n-1,
    # plus the slack that keeps the pruning safe against float dust.
    reach = np.zeros((n + 1, most, active.size))
    top = np.zeros((most, active.size))
    for i in range(n - 1, -1, -1):
        top = -np.sort(-np.vstack((top, gains[i])), axis=0)[:most]
        reach[i] = np.cumsum(top, axis=0)
    reach += DEMAND_TOL

    nodes = 0
    for k in range(lower, upper):
        # A node: (next position, positions chosen, residual demand − tol).
        stack = [(0, (), problem.demands[active] - _FEAS_TOL)]
        while stack:
            i, chosen, need = stack.pop()
            nodes += 1
            if nodes > budget:
                return None, nodes
            if need.max() <= 0.0:
                selection = np.sort(order[list(chosen)])
                if problem.is_feasible(selection, tol=_FEAS_TOL):
                    return selection, nodes
                continue
            m = k - len(chosen)
            if m == 0 or i == n or np.any(reach[i, m - 1] < need):
                continue
            # Surrogate row y·(G x) ≥ y·need, with each remaining item's
            # gains capped at the residual (a capped gain still covers it):
            # the m heaviest capped items must reach the target.
            need_pos = np.maximum(need, 0.0)
            capped = np.minimum(gains[i:], need_pos) @ duals
            if m < capped.size:
                capped = np.partition(capped, capped.size - m)[capped.size - m :]
            if capped.sum() + DEMAND_TOL < duals @ need_pos:
                continue
            stack.append((i + 1, chosen, need))
            stack.append((i + 1, chosen + (i,), need - gains[i]))
    return None, nodes


# ----------------------------------------------------------------------
# MILP backend (HiGHS via scipy)
# ----------------------------------------------------------------------


def _solve_milp(
    problem: CoverProblem,
    *,
    time_limit: float | None,
    lp: LPResult | None = None,
    incumbent: np.ndarray | None = None,
) -> ExactResult:
    n = problem.n_items
    active = problem.active_constraints
    if active.size == 0:
        return ExactResult(
            selection=np.array([], dtype=int), backend="milp", path="milp"
        )

    constraints = [
        LinearConstraint(
            problem.gains[:, active].T, lb=problem.demands[active], ub=np.inf
        )
    ]
    # Two valid cuts that sandwich the cardinality: the integral optimum
    # is at least ⌈LP optimum⌉ and at most the incumbent (greedy) cover
    # size.  Handing HiGHS both bounds short-circuits most of its gap
    # closing.
    lp, incumbent = _bounds(problem, lp, incumbent)
    constraints.append(
        LinearConstraint(
            np.ones((1, n)),
            lb=float(max(lp.integral_bound, 0)),
            ub=float(incumbent.size),
        )
    )

    options: dict = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    # The objective is a sum of binaries, hence integer-valued: any gap
    # strictly below 1 already certifies optimality (U − L < 1 with U
    # integral and L a valid bound forces U = ⌈L⌉).  Asking HiGHS for a
    # relative gap of 0.9/n guarantees the absolute gap is below 0.9, so
    # it can stop as soon as optimality is *implied* instead of proving
    # the gap to zero.
    options["mip_rel_gap"] = 0.9 / max(n, 1)
    res = milp(
        c=np.ones(n),
        constraints=constraints,
        integrality=np.ones(n),
        bounds=(0, 1),
        options=options,
    )
    if res.status == 2:
        raise InfeasibleError("MILP backend reports the cover is infeasible")
    certified = bool(res.success)
    if res.x is None:
        raise SolverError(
            f"MILP backend produced no incumbent: {res.message}"
        )
    selection = np.flatnonzero(np.asarray(res.x) > 0.5)
    # Degenerate solutions can carry redundant items; stripping them never
    # hurts the objective.
    selection = _prune_redundant(problem, selection)
    if not problem.is_feasible(selection, tol=_FEAS_TOL):
        raise SolverError("MILP backend returned an infeasible selection")
    # The cut can only certify optimality when HiGHS closed the gap, but a
    # solution matching the LP round-up bound is optimal regardless.
    if not certified and selection.size <= lp.integral_bound:
        certified = True
    return ExactResult(
        selection=np.asarray(selection, dtype=int),
        backend="milp",
        certified=certified,
        path="milp",
        timed_out=res.status == 1,
    )


def _prune_redundant(problem: CoverProblem, selection: np.ndarray) -> np.ndarray:
    """Drop items that are not needed for feasibility (reverse-greedy)."""
    selected = list(int(i) for i in selection)
    coverage = problem.coverage(selected)
    slack = coverage - problem.demands
    for item in sorted(selected, key=lambda i: -float(problem.gains[i].sum())):
        gain = problem.gains[item]
        if np.all(slack - gain >= -1e-9):
            slack = slack - gain
            selected.remove(item)
    return np.array(sorted(selected), dtype=int)


# ----------------------------------------------------------------------
# Branch-and-bound backend
# ----------------------------------------------------------------------


def _solve_bnb(problem: CoverProblem, *, node_limit: int) -> ExactResult:
    # Incumbent: greedy solution (always feasible because is_coverable passed).
    incumbent = greedy_cover(problem).selection
    best_size = incumbent.size
    nodes_explored = 0

    # Each node is (forced_in tuple, forced_out tuple); depth-first with
    # the x=1 branch pushed last so it is explored first (diving quickly
    # improves the incumbent).
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]

    while stack:
        forced_in, forced_out = stack.pop()
        nodes_explored += 1
        if nodes_explored > node_limit:
            raise SolverError(
                f"branch-and-bound exceeded the node limit of {node_limit}"
            )

        try:
            lp = lp_lower_bound(
                problem,
                forced_in=np.array(forced_in, dtype=int),
                forced_out=np.array(forced_out, dtype=int),
            )
        except InfeasibleError:
            continue
        if lp.integral_bound >= best_size:
            continue  # cannot beat the incumbent

        fractional = lp.fractional_items(_TOL)
        if fractional.size == 0:
            # Integral LP solution: a feasible cover of size < best_size.
            candidate = np.flatnonzero(lp.solution > 0.5)
            candidate = _prune_redundant(problem, candidate)
            if problem.is_feasible(candidate, tol=_FEAS_TOL) and candidate.size < best_size:
                incumbent, best_size = candidate, candidate.size
            continue

        # Branch on the most fractional variable.
        branch_var = int(fractional[np.argmin(np.abs(lp.solution[fractional] - 0.5))])
        stack.append((forced_in, forced_out + (branch_var,)))  # x=0, explored later
        stack.append((forced_in + (branch_var,), forced_out))  # x=1, explored first

    return ExactResult(
        selection=np.asarray(incumbent, dtype=int),
        backend="bnb",
        nodes=nodes_explored,
        path="bnb",
    )
