"""Outcome-invariance regression: instrumentation never changes results.

The observability layer's core contract is that recorders only *watch*:
attaching a :class:`~repro.obs.MetricsRecorder` must leave every PMF,
price, and winner set bit-identical to an uninstrumented run, and the
metrics merged from a process pool must equal the serial merge.  These
tests pin that contract over 50 seeds and across backends, plus the
ledger bookkeeping the instrumented mechanisms perform per run.
"""

import numpy as np
import pytest

from repro.bench import BENCH_SETTING, BatchAuctionRunner, seeded_auction_batch
from repro.experiments.runner import payment_sweep
from repro.mechanisms.baseline import BaselineAuction
from repro.mechanisms.dp_hsrc import DPHSRCAuction
from repro.mechanisms.dp_variants import PermuteFlipHSRCAuction
from repro.mechanisms.optimal import optimal_total_payment
from repro.obs import MetricsRecorder, NullRecorder, use_recorder
from repro.workloads.generator import generate_instance

N_SEEDS = 50
EPSILON = 0.4

SETTING = BENCH_SETTING


def _instance(seed: int):
    instance, _pool = generate_instance(
        SETTING, seed=seed, n_workers=24, n_tasks=6
    )
    return instance


def _assert_pmfs_identical(a, b):
    assert np.array_equal(a.prices, b.prices)
    assert np.array_equal(a.probabilities, b.probabilities)
    assert len(a.winner_sets) == len(b.winner_sets)
    for left, right in zip(a.winner_sets, b.winner_sets):
        assert np.array_equal(left, right)


def _assert_outcomes_identical(a, b):
    assert a.price == b.price
    assert np.array_equal(a.winners, b.winners)
    assert a.total_payment == b.total_payment


class TestFiftySeedInvariance:
    """Bit-identical results with no recorder, null recorder, active recorder."""

    @pytest.mark.parametrize(
        "make_mechanism",
        [
            lambda: DPHSRCAuction(epsilon=EPSILON),
            lambda: BaselineAuction(epsilon=EPSILON),
        ],
        ids=["dp-hsrc", "baseline"],
    )
    def test_price_pmf_bit_identical_across_recorders(self, make_mechanism):
        for seed in range(N_SEEDS):
            instance = _instance(seed)
            bare = make_mechanism().price_pmf(instance)
            with use_recorder(NullRecorder()):
                nulled = make_mechanism().price_pmf(instance)
            active = MetricsRecorder()
            with use_recorder(active):
                recorded = make_mechanism().price_pmf(instance)
            _assert_pmfs_identical(bare, nulled)
            _assert_pmfs_identical(bare, recorded)
            assert active.spans, "active recorder saw no spans"

    def test_run_outcomes_bit_identical_across_recorders(self):
        mechanism = DPHSRCAuction(epsilon=EPSILON)
        for seed in range(N_SEEDS):
            instance = _instance(seed)
            bare = mechanism.run(instance, seed=seed)
            with use_recorder(MetricsRecorder()):
                recorded = mechanism.run(instance, seed=seed)
            _assert_outcomes_identical(bare, recorded)

    def test_permute_flip_outcomes_invariant_too(self):
        mechanism = PermuteFlipHSRCAuction(epsilon=EPSILON)
        for seed in range(10):
            instance = _instance(seed)
            bare = mechanism.run(instance, seed=seed)
            with use_recorder(MetricsRecorder()):
                recorded = mechanism.run(instance, seed=seed)
            _assert_outcomes_identical(bare, recorded)


class TestOptimalInvariance:
    """The optimal benchmark's spans and counters only watch, too."""

    @staticmethod
    def _key(result):
        return (
            result.price,
            result.winners.tolist(),
            result.total_payment,
            result.certified,
            result.n_exact_solves,
        )

    def test_outcomes_identical_across_recorders(self):
        for seed in range(10):
            instance = _instance(seed)
            with use_recorder(NullRecorder()):
                nulled = optimal_total_payment(instance, time_limit_per_solve=30.0)
            active = MetricsRecorder()
            with use_recorder(active):
                recorded = optimal_total_payment(instance, time_limit_per_solve=30.0)
            assert self._key(recorded) == self._key(nulled)

            kinds = active.span_counts_by_kind()
            assert kinds["exact_solve"] == recorded.n_exact_solves
            assert (
                kinds["lp_bound"]
                == recorded.n_exact_solves + active.counters["optimal.groups_pruned"]
            )
            paths = [s.attrs["path"] for s in active.spans if s.kind == "exact_solve"]
            assert paths.count("bound") == active.counters["exact.settled_by_bound"]
            assert paths.count("milp") == active.counters["exact.milp_fallbacks"]
            assert set(paths) <= {"bound", "search", "milp"}


class TestLedgerAccounting:
    def test_one_entry_per_run_at_the_configured_epsilon(self):
        rec = MetricsRecorder()
        mechanism = DPHSRCAuction(epsilon=EPSILON)
        n_runs = 5
        with use_recorder(rec):
            for seed in range(n_runs):
                mechanism.run(_instance(seed), seed=seed)
        assert len(rec.ledger) == n_runs
        assert all(e.mechanism == "dp-hsrc" for e in rec.ledger.entries)
        assert all(e.epsilon == EPSILON for e in rec.ledger.entries)
        assert rec.ledger.total_epsilon == pytest.approx(n_runs * EPSILON)

    def test_permute_flip_records_its_own_name_not_the_winner_stage(self):
        """The discarded winner-stage PMF must not double-count ε."""
        rec = MetricsRecorder()
        with use_recorder(rec):
            PermuteFlipHSRCAuction(epsilon=EPSILON).run(_instance(0), seed=0)
        assert [e.mechanism for e in rec.ledger.entries] == ["dp-hsrc-pf"]
        assert rec.ledger.total_epsilon == pytest.approx(EPSILON)

    def test_expected_span_kinds_present(self):
        rec = MetricsRecorder()
        with use_recorder(rec):
            DPHSRCAuction(epsilon=EPSILON).run(_instance(3), seed=3)
        kinds = set(rec.span_counts_by_kind())
        assert {"price_set", "greedy_group", "exp_mech", "sample"} <= kinds
        assert rec.counters["auction.runs"] == 1.0
        assert rec.counters["greedy.iterations"] > 0
        assert rec.counters["greedy.candidates_scanned"] > 0
        assert rec.histograms["greedy.residual_demand"]


class TestBatchBackendMetricEquality:
    @pytest.fixture(scope="class")
    def batch(self):
        return seeded_auction_batch(8, n_workers=24, n_tasks=6, seed=77)

    def test_serial_and_process_merge_identical_metrics(self, batch):
        mechanism = DPHSRCAuction(epsilon=EPSILON)
        serial_rec = MetricsRecorder()
        serial = BatchAuctionRunner(mechanism, backend="serial").run(
            batch, seed=5, recorder=serial_rec
        )
        pooled_rec = MetricsRecorder()
        pooled = BatchAuctionRunner(mechanism, backend="process", max_workers=2).run(
            batch, seed=5, recorder=pooled_rec
        )
        for left, right in zip(serial.outcomes, pooled.outcomes):
            _assert_outcomes_identical(left, right)
        # Counters, histograms, and ledger trails merge identically;
        # only span wall-clock may differ between backends.
        assert serial_rec.counters == pooled_rec.counters
        assert serial_rec.histograms == pooled_rec.histograms
        assert (
            serial_rec.ledger.snapshot()["entries"]
            == pooled_rec.ledger.snapshot()["entries"]
        )
        assert serial_rec.span_counts_by_kind() == pooled_rec.span_counts_by_kind()
        assert len(serial_rec.ledger) == len(batch)

    def test_recorder_does_not_change_batch_outcomes(self, batch):
        mechanism = DPHSRCAuction(epsilon=EPSILON)
        runner = BatchAuctionRunner(mechanism, backend="serial")
        bare = runner.run(batch, seed=5)
        watched = runner.run(batch, seed=5, recorder=MetricsRecorder())
        for left, right in zip(bare.outcomes, watched.outcomes):
            _assert_outcomes_identical(left, right)

    def test_ambient_recorder_is_picked_up(self, batch):
        rec = MetricsRecorder()
        with use_recorder(rec):
            BatchAuctionRunner(DPHSRCAuction(epsilon=EPSILON)).run(batch, seed=5)
        assert rec.counters["batch.instances"] == len(batch)
        assert rec.span_counts_by_kind()["batch"] == 1


class TestSweepBackendMetricEquality:
    def test_serial_and_pooled_sweeps_merge_identical_metrics(self):
        mechanisms = {"DP-hSRC": DPHSRCAuction(epsilon=EPSILON)}
        points = [(18, 5), (22, 5), (26, 5)]
        kwargs = dict(n_price_samples=200, seed=13)
        serial_rec = MetricsRecorder()
        serial = payment_sweep(
            SETTING, mechanisms, points, recorder=serial_rec, **kwargs
        )
        pooled_rec = MetricsRecorder()
        pooled = payment_sweep(
            SETTING, mechanisms, points, max_workers=2, recorder=pooled_rec, **kwargs
        )
        for left, right in zip(serial, pooled):
            assert left.keys() == right.keys()
            for name in left:
                assert left[name].mean == right[name].mean
                assert left[name].std == right[name].std
        assert serial_rec.counters == pooled_rec.counters
        assert serial_rec.histograms == pooled_rec.histograms
        assert (
            serial_rec.ledger.snapshot()["entries"]
            == pooled_rec.ledger.snapshot()["entries"]
        )
        assert serial_rec.counters["sweep.points"] == len(points)
