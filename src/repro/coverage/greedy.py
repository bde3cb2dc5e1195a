"""Greedy set-multicover solvers (vectorized execution core).

:func:`greedy_cover` is the inner loop of the paper's Algorithm 1 (lines
8–13): repeatedly select the item with the largest *truncated marginal
gain* ``Σ_j min(Q'_j, q_ij)`` until every residual demand is zero.  Lemma
2 (borrowed from Jin et al., MobiHoc 2015, Theorem 5) bounds its cover
size by ``2·β·H_m`` times the optimum.

:func:`static_order_cover` is the §VII-A baseline's selection rule: items
are taken in a *fixed* order (descending static gain ``Σ_j q_ij``) until
feasibility, ignoring how much of each item's gain is already wasted on
satisfied constraints.  The ablation benchmark contrasts the two rules.

Both solvers are NumPy kernels validated bit-for-bit against the
retained per-item-scan reference implementations in
:mod:`repro.coverage.reference`; ``scripts/bench.py`` records their
speedup in ``BENCH_greedy.json``.

Resumable API
-------------
The price-sweep engine (:mod:`repro.engine`) solves one covering problem
per affordable-worker group, and the groups are *nested*: each group's
candidates are a prefix-superset of the previous group's.  Rebuilding the
truncated-gain matrix per group from the sliced sub-problem wastes both
the slice and the initial ``min(gains, demands)`` truncation.
:class:`GreedyState` precomputes that shared state once for the full
problem; ``greedy_cover(problem, budget_mask=mask)`` (or
``state.solve(mask)``) then restricts each run to the masked rows and
returns selections in *original* item indices.  The masked run is
bit-for-bit identical to slicing the problem to the masked rows first:
row values are unchanged, unmasked rows score ``-inf``, and the
lowest-index tie-break over masked rows coincides with the tie-break over
the sorted slice.

Nesting goes further than the shared truncation: a group's greedy run
usually repeats most of the previous group's steps, because a newly
affordable worker changes a step only if it beats (or ties, at a lower
index) that step's winner.  ``state.sweep(masks)`` keeps each run's
trajectory — the residual before every step, the item chosen, the step
maximum — scores only the newly eligible items against the stored
residuals, and resumes the ordinary loop at the first step they could
change.  It yields exactly what ``[state.solve(m) for m in masks]``
would, bit for bit.

Tie-breaking rule
-----------------
The paper's ``argmax`` is silent on ties, which are common late in a run
when many items fully cover the small remaining residual.  Both the
vectorized kernels and the references use one documented deterministic
rule: **the lowest-index item whose truncated gain is within ``_TOL`` of
the step's maximum wins**.  Treating gains within ``_TOL`` as tied makes
the winner stable under floating-point noise far below the tolerance
(adversarially near-equal gains cannot flip the choice), and any
tie-break preserves the Lemma 2 cover-size bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.coverage.problem import CoverProblem
from repro.exceptions import InfeasibleError
from repro.obs import current_recorder
from repro.tolerances import DEMAND_TOL

__all__ = ["GreedyResult", "GreedyState", "greedy_cover", "static_order_cover"]

#: Demands below this tolerance count as satisfied, guarding against
#: floating-point residue in the ``Q' −= min(Q', q)`` updates.  The same
#: tolerance is the tie-breaking band: per-step gains within ``_TOL`` of
#: the maximum are considered tied and the lowest index wins.  Aliased
#: from the centralized :data:`repro.tolerances.DEMAND_TOL`.
_TOL = DEMAND_TOL

#: Row-block size for the static-order cover's chunked prefix scan.
_BLOCK = 128

#: Element budget of one block of a sweep's divergence scoring (new items
#: x trajectory steps x constraints), bounding its scratch memory.
_SWEEP_BLOCK = 1 << 16


@dataclass(frozen=True)
class GreedyResult:
    """Outcome of a greedy covering run.

    Attributes
    ----------
    selection:
        Sorted array of selected item indices.
    order:
        Item indices in the order they were selected (useful for
        diagnosing the greedy trajectory).
    """

    selection: np.ndarray
    order: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of selected items."""
        return int(self.selection.size)


def _as_item_mask(budget_mask, n_items: int) -> np.ndarray:
    """Normalize a boolean mask or index array to a boolean item mask."""
    mask = np.asarray(budget_mask)
    if mask.dtype == bool:
        if mask.shape != (n_items,):
            raise ValueError(
                f"budget_mask must have shape ({n_items},), got {mask.shape}"
            )
        return mask
    indices = mask.astype(int, copy=False).ravel()
    out = np.zeros(n_items, dtype=bool)
    out[indices] = True
    return out


def _result(order: Sequence[int]) -> GreedyResult:
    """The result of a run that selected ``order``."""
    return GreedyResult(selection=np.array(sorted(order), dtype=int), order=tuple(order))


class _Trajectory:
    """One greedy run, kept so a sweep can resume it for the next mask.

    ``residuals[t]`` is the residual demand before step ``t``, ``chosen[t]``
    the item that step selected (the run's order, which :meth:`solve`
    appends to directly) and ``maxima[t]`` the step's best score.
    An infeasible run also keeps the residual it stalled at, so
    ``residuals`` then has one entry more than ``chosen``.
    """

    def __init__(self) -> None:
        self.eligible: np.ndarray | None = None
        self.residuals: list[np.ndarray] = []
        self.chosen: list[int] = []
        self.maxima: list[float] = []
        self.feasible = False

    def truncate(self, n_steps: int) -> None:
        """Keep only the first ``n_steps`` steps."""
        del self.residuals[n_steps:], self.chosen[n_steps:], self.maxima[n_steps:]

    def divergence(self, gains: np.ndarray, available: np.ndarray) -> int:
        """First step whose choice may change once ``available`` is eligible.

        ``available`` must be a superset of :attr:`eligible`.  Only the
        newly eligible items are scored, against every stored residual, as
        ``min(gains, r_t)`` rows summed over all ``K`` columns — the same
        reduction the kernel's ``truncated.sum(axis=1)`` performs, so the
        scores match it bitwise.  Step ``t`` is kept when no new item beats
        ``M_t`` and no new item below ``chosen[t]`` ties it within
        ``_TOL``; any other step is divergent.
        """
        n_steps = len(self.chosen)
        new = np.flatnonzero(available & ~self.eligible)
        if new.size == 0 or n_steps == 0:
            return n_steps
        rows = gains[new]
        n_constraints = gains.shape[1]
        per_step = new.size * n_constraints
        chunk = max(1, _SWEEP_BLOCK // per_step)
        chosen = np.asarray(self.chosen)
        maxima = np.asarray(self.maxima)
        for start in range(0, n_steps, chunk):
            stop = min(start + chunk, n_steps)
            residuals = np.stack(self.residuals[start:stop])
            scores = (
                np.minimum(rows[:, np.newaxis, :], residuals[np.newaxis])
                .reshape(-1, n_constraints)
                .sum(axis=1)
                .reshape(new.size, stop - start)
            )
            best = maxima[start:stop]
            diverged = scores.max(axis=0) > best
            diverged |= np.any(
                (scores >= best - _TOL) & (new[:, np.newaxis] < chosen[start:stop]),
                axis=0,
            )
            if diverged.any():
                return start + int(np.argmax(diverged))
        return n_steps


class GreedyState:
    """Shared precomputation for many budget-restricted runs on one problem.

    Builds the snapped residual-demand vector and the initial truncated
    gain matrix ``T = min(gains, demands)`` once; :meth:`solve` then runs
    the adaptive greedy restricted to any subset of items without
    recomputing either, and :meth:`sweep` solves a sequence of nested
    masks reusing each run's trajectory for the next.  Used by
    :class:`repro.engine.SweepEngine` to solve the nested affordable-worker
    groups of a price sweep in ascending price order.
    """

    def __init__(self, problem: CoverProblem) -> None:
        self.problem = problem
        residual = problem.demands.copy()
        residual[residual <= _TOL] = 0.0
        self._residual0 = residual
        self._trivial = not np.any(residual > 0.0)
        # T[i, j] = min(Q_j, q_ij); columns of satisfied demands are zero.
        self._truncated0 = (
            None if self._trivial else np.minimum(problem.gains, residual[np.newaxis, :])
        )

    def sweep(self, masks: Iterable) -> Iterator[GreedyResult | InfeasibleError]:
        """Solve each mask in turn, resuming the previous mask's run.

        Yields, per mask, exactly what ``self.solve(mask)`` would return —
        or the :class:`InfeasibleError` it would raise — with the same
        selection and order.  Masks are consumed lazily, one per yield.

        When a mask is a superset of the previous one (the nested price
        groups of a sweep), the previous greedy trajectory is replayed up
        to its first divergent step: the first step where a newly eligible
        item beats the step's maximum, or ties it within ``_TOL`` at a
        lower index than the item chosen (an infeasible run diverges at its
        end at the latest).  Every earlier step makes the same choice
        under the larger mask, so only the items new to the mask are
        scored, and the ordinary loop resumes from the stored residual.
        Any other mask restarts from scratch, so correctness never depends
        on the caller ordering its masks.
        """
        trajectory = _Trajectory()
        for mask in masks:
            try:
                yield self.solve(mask, _trajectory=trajectory)
            except InfeasibleError as exc:
                yield exc

    def solve(
        self, budget_mask=None, *, _trajectory: _Trajectory | None = None
    ) -> GreedyResult:
        """Adaptive greedy over the masked items (original indices).

        Parameters
        ----------
        budget_mask:
            ``None`` (all items eligible), a boolean ``(n_items,)`` mask,
            or an integer index array of eligible items.
        _trajectory:
            :meth:`sweep`'s resume state: the previous mask's run, which
            this call replays as far as it can and then overwrites with
            its own.  Leave unset.

        Raises
        ------
        InfeasibleError
            If the eligible items cannot satisfy every demand.
        """
        recorder = current_recorder()
        problem = self.problem
        gains = problem.gains
        n_items = problem.n_items
        recorder.count("greedy.calls")
        if self._trivial:
            return _result(())

        if budget_mask is None:
            available = np.ones(n_items, dtype=bool)
        else:
            available = _as_item_mask(budget_mask, n_items).copy()
        n_eligible = int(np.count_nonzero(available))

        # Resume point: the number of leading steps of the previous run
        # that this mask repeats unchanged.  A plain solve records into a
        # throwaway trajectory.  Replay needs C-ordered rows: the stored
        # scores must come from the same row-sum reduction as T's.
        trajectory = _Trajectory() if _trajectory is None else _trajectory
        reused = 0
        previous = trajectory.eligible
        if (
            previous is not None
            and self._truncated0.flags.c_contiguous
            and not np.any(previous & ~available)
        ):
            reused = trajectory.divergence(gains, available)
        trajectory.eligible = available.copy()
        if reused:
            recorder.count("greedy.steps_reused", reused)
        if reused == len(trajectory.chosen) and trajectory.feasible:
            return _result(trajectory.chosen)

        residual = (trajectory.residuals[reused] if reused else self._residual0).copy()
        trajectory.truncate(reused)
        order = trajectory.chosen
        available[order] = False
        candidates_scanned = 0

        def stall() -> InfeasibleError:
            recorder.count("greedy.iterations", len(order) - reused)
            recorder.count("greedy.candidates_scanned", candidates_scanned)
            trajectory.residuals.append(residual.copy())
            trajectory.feasible = False
            return InfeasibleError(
                "greedy cover exhausted all useful items with "
                f"{int(np.count_nonzero(residual > 0.0))} demands still unmet"
            )

        if n_eligible == 0:
            raise stall()
        # Resuming needs T = min(gains, r_t); recomputing it is exact, and
        # the kernel's T always equals min(gains, residual) column for
        # column.
        truncated = (
            np.minimum(gains, residual[np.newaxis, :]) if reused else self._truncated0.copy()
        )
        while True:
            scores = truncated.sum(axis=1)
            scores[~available] = -np.inf
            best_score = scores.max()
            if best_score <= _TOL:
                raise stall()
            best = int(np.argmax(scores >= best_score - _TOL))
            # Every still-eligible item's score was recomputed this step.
            candidates_scanned += n_eligible - len(order)
            trajectory.residuals.append(residual.copy())
            trajectory.maxima.append(float(best_score))
            order.append(best)
            available[best] = False

            step = truncated[best].copy()
            residual -= step
            residual[residual <= _TOL] = 0.0
            if recorder.enabled:
                recorder.observe("greedy.residual_demand", float(residual.sum()))
            if not np.any(residual > 0.0):
                break
            # A residual changed exactly where the winner contributed; only
            # those columns of T need recomputing.
            changed = step > 0.0
            truncated[:, changed] = np.minimum(gains[:, changed], residual[changed])

        trajectory.feasible = True
        recorder.count("greedy.iterations", len(order) - reused)
        recorder.count("greedy.candidates_scanned", candidates_scanned)
        return _result(order)


def greedy_cover(
    problem: CoverProblem, *, budget_mask=None, state: GreedyState | None = None
) -> GreedyResult:
    """Adaptive truncated-gain greedy (Algorithm 1, lines 8–13).

    At every step selects ``argmax_i Σ_j min(Q'_j, q_ij)`` among the
    not-yet-selected items (ties: lowest index within ``_TOL`` — see the
    module docstring), subtracts the truncated gains from the residual
    demands, and stops when all residuals hit zero.

    Parameters
    ----------
    problem:
        The covering instance.
    budget_mask:
        Optional restriction to a subset of items — a boolean
        ``(n_items,)`` mask or an index array.  The selection is returned
        in original item indices and is bit-for-bit identical to running
        on the sub-problem sliced to the (sorted) masked rows.
    state:
        Optional precomputed :class:`GreedyState` for ``problem``; pass
        one when solving many masks of the same problem to reuse the
        initial truncation.

    Raises
    ------
    InfeasibleError
        If demands remain positive after all eligible items are
        exhausted, i.e. the (restricted) instance is not coverable.

    Notes
    -----
    Implemented as an incremental NumPy kernel: the full truncated-gain
    matrix ``T = min(Q', q)`` is built once and thereafter only the
    columns whose residual demand changed in the last step are
    recomputed, so a step costs ``O(N·K_changed)`` for the update plus
    one ``O(N·K)`` row-sum — no per-item Python scan.  Every
    floating-point quantity (scores, residual updates, the ``_TOL``
    snapping of satisfied demands) matches
    :func:`repro.coverage.reference.reference_greedy_cover` bit-for-bit,
    which the equivalence suite asserts on hundreds of seeded instances.
    """
    if state is None:
        state = GreedyState(problem)
    elif state.problem is not problem:
        raise ValueError("state was built for a different CoverProblem")
    return state.solve(budget_mask)


def static_order_cover(
    problem: CoverProblem, order: Sequence[int] | None = None
) -> GreedyResult:
    """Cover by taking items in a fixed order until feasible (§VII-A baseline).

    Parameters
    ----------
    problem:
        The covering instance.
    order:
        The order in which to take items.  Defaults to descending *static*
        gain ``Σ_j q_ij`` (the baseline auction's rule), with ties broken
        by item index for determinism.

    Raises
    ------
    InfeasibleError
        If the full order is exhausted with demands still unmet.

    Notes
    -----
    Vectorized as a chunked prefix scan: coverage running sums are built
    ``_BLOCK`` rows at a time with :func:`numpy.cumsum` (seeded with the
    previous block's totals so the accumulation order — and hence every
    float — matches the item-by-item reference exactly) and the first
    all-satisfied prefix row is the answer.  Bit-for-bit equivalent to
    :func:`repro.coverage.reference.reference_static_order_cover`.
    """
    if order is None:
        static_gain = problem.gains.sum(axis=1)
        # argsort of negated gains: descending gain, index-ascending ties.
        order = np.argsort(-static_gain, kind="stable")
    order_arr = np.asarray(order, dtype=int)

    demands = problem.demands
    need = demands > _TOL
    if not np.any(need):
        return GreedyResult(selection=np.array([], dtype=int), order=())

    target = demands[need] - _TOL
    offset = np.zeros((1, int(np.count_nonzero(need))))
    n_taken: int | None = None
    for start in range(0, order_arr.size, _BLOCK):
        block = order_arr[start : start + _BLOCK]
        # Prepending the running totals makes cumsum reproduce the exact
        # left-to-right accumulation of the sequential reference.
        prefix = np.cumsum(
            np.concatenate([offset, problem.gains[block][:, need]], axis=0), axis=0
        )[1:]
        feasible_rows = np.all(prefix >= target, axis=1)
        if feasible_rows.any():
            n_taken = start + int(np.argmax(feasible_rows)) + 1
            break
        offset = prefix[-1:]
    if n_taken is None:
        raise InfeasibleError(
            "static-order cover exhausted the order with demands still unmet"
        )
    taken = [int(i) for i in order_arr[:n_taken]]
    return GreedyResult(selection=np.array(sorted(taken), dtype=int), order=tuple(taken))
