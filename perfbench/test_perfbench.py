"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from repro.obs import use_recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _digest(workload, state, n_units, tracer=None) -> str:
    _lat, failed, errors, digest, _n = run._run_units(
        workload, state, seconds=60.0, min_units=1, count=n_units, tracer=tracer
    )
    assert (failed, errors) == (0, [])
    assert workload.finish(state, n_units) == []
    return digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shims_do_not_change_outcomes(name):
    workload = WORKLOADS[name]
    n_units = 12 if name == "budgeted_rounds" else 2
    state = workload.setup(5)
    try:
        plain = _digest(workload, state, n_units)
    finally:
        workload.close(state)

    tracer = tracing.Tracer()
    with tracing.installed(tracer), use_recorder(tracing.CountingRecorder()):
        state = workload.setup(5)
        try:
            traced = _digest(workload, state, n_units, tracer)
        finally:
            workload.close(state)
    assert traced == plain
    assert tracer.spans, "the shims recorded no span"
    assert all(end is not None for _name, _parent, _start, end in tracer.spans)


def test_shims_are_removed_after_the_traced_run():
    originals = [
        tracing._resolve(owner).__dict__[attribute] for _n, owner, attribute in tracing.SHIMS
    ]
    with tracing.installed(tracing.Tracer()):
        patched = [
            tracing._resolve(owner).__dict__[attribute] for _n, owner, attribute in tracing.SHIMS
        ]
    restored = [
        tracing._resolve(owner).__dict__[attribute] for _n, owner, attribute in tracing.SHIMS
    ]
    assert all(p is not o for p, o in zip(patched, originals))
    assert all(r is o for r, o in zip(restored, originals))


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["outer", -1, 0.0, 10.0],
        ["inner", 0, 1.0, 4.0],
        ["inner", 0, 5.0, 6.0],
        ["leaf", 1, 2.0, 3.0],
    ]
    assert tracer.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert tracer.top_level_seconds() == 10.0
    assert tracer.span_counts("outer") == {"inner": 2}


@pytest.mark.parametrize("cap", [999, 990, 950, 900])
def test_tail_percentile_has_ten_samples_beyond(cap):
    for n in range(1, 2500):
        permille = stats.tail_permille(n, cap)
        if permille is None:
            assert stats.samples_beyond(n, 500) < stats.MIN_BEYOND
            continue
        assert permille <= cap
        values = list(range(n))
        tail = stats.nearest_rank(values, permille)
        assert sum(v > tail for v in values) >= stats.MIN_BEYOND
        higher = [p for p in stats.TAIL_LADDER_PERMILLE if permille < p <= cap]
        assert all(stats.samples_beyond(n, p) < stats.MIN_BEYOND for p in higher)


def test_tail_percentile_is_capped_per_workload():
    assert stats.tail_permille(10_000, 900) == 900
    assert stats.tail_permille(1_000, 990) == 990
    assert stats.tail_permille(999, 990) == 950
    summary = stats.latency_summary([0.001 * i for i in range(1, 101)], 900)
    assert summary["tail_permille"] == 900
    assert math.isclose(summary["tail_ms"], 90.0)
    assert summary["n_samples"] == 100


def test_metric_and_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.LAYER_METRICS
    assert set(tracing.LAYER_TARGETS) == set(tracing.LAYER_METRICS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]


def test_every_shim_span_feeds_a_layer_metric():
    span_names = {name for name, _owner, _attribute in tracing.SHIMS}
    timed = {m[: -len("_s")] for m, (unit, _b) in tracing.LAYER_METRICS.items() if m.endswith("_s")}
    assert span_names <= timed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure_opt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_budgeted_cycles_replay_the_same_campaign():
    from workloads import BudgetedRounds

    workload = BudgetedRounds(
        name="small", n_tenants=2, n_limited=1, rounds_per_tenant=4, affordable_rounds=2
    )
    state = workload.setup(3)
    try:
        cycles = []
        for cycle in range(2):
            digest = hashlib.sha256()
            for index in range(cycle * 8, (cycle + 1) * 8):
                workload.before_unit(state, index)
                output = workload.run_unit(state, index)
                assert workload.check_unit(state, index, output, digest) == []
            cycles.append(digest.hexdigest())
        assert workload.finish(state, 16) == []
        assert state.tenants[0].degraded == 2
    finally:
        workload.close(state)
    assert cycles[0] == cycles[1]
