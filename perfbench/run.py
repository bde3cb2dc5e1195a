"""The repository benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figure_opt --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``      — imports plus the median of several full set-ups
  (seeded input generation, opening the journal, warm-up);
* ``units_per_s``  — completed units per second of program time (closed
  loop, one client: units divided by the summed unit latencies);
* ``unit_p50_ms``  — median unit latency;
* ``unit_tail_ms`` — the workload's tail percentile (see ``stats.py``);
* ``peak_rss_mb``  — peak resident memory of this process.

Failed units are reported as ``failed`` out of ``attempted`` in the
result line (``failed_frac`` in the summary line).  ``--trace 1`` runs
the same units twice, untraced and then with the layer shims of
``tracing.py`` installed, checks that both give the same output digest,
and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

_T_START = time.perf_counter()
_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
if not (_SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source at {_SRC}; run from a full checkout")
sys.path.insert(0, str(_SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
import tracing  # noqa: E402
from repro.obs import use_recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - _T_START

#: Full set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: End-to-end metrics: ``name -> unit``.
END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "unit_p50_ms": "ms",
    "unit_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Share of ``--seconds`` the untraced pass of a traced run may take; the
#: traced replay of the same units takes about as long again.
TRACE_SHARE = 0.4


def _hard_limit(seconds: float) -> float:
    """Loop time after which a run stops even below ``min_units``."""
    return min(6.0 * seconds, 120.0)


def _run_units(workload, state, *, seconds, min_units, count=None, tracer=None):
    """Run units in a closed loop; returns latencies, failures and the digest.

    With ``count`` the loop runs exactly that many units, otherwise until
    ``seconds`` have passed and at least ``min_units`` units ran.
    """
    digest = hashlib.sha256()
    latencies: list[float] = []
    errors: list[str] = []
    failed = 0
    index = 0
    start = time.perf_counter()
    limit = _hard_limit(seconds)
    while True:
        elapsed = time.perf_counter() - start
        if count is not None:
            if index >= count:
                break
        elif (elapsed >= seconds and index >= min_units) or elapsed >= limit:
            break
        workload.before_unit(state, index)
        try:
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            output = workload.run_unit(state, index)
            latency = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a failed unit is a measured outcome
            failed += 1
            errors.append(f"unit {index}: {type(exc).__name__}: {exc}")
            digest.update(f"failed:{index}".encode())
        else:
            latencies.append(latency)
            unit_errors = workload.check_unit(state, index, output, digest)
            if unit_errors:
                failed += 1
                errors += [f"unit {index}: {e}" for e in unit_errors]
        finally:
            if tracer is not None:
                tracer.enabled = False
        index += 1
    return latencies, failed, errors, digest.hexdigest(), index


def measure(workload, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics."""
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        if repeat < SETUP_REPEATS - 1:
            workload.close(state)
    try:
        latencies, failed, errors, digest, attempted = _run_units(
            workload, state, seconds=seconds, min_units=workload.min_units
        )
        # A failed check after the loop (batch backend parity, journal
        # audit) counts as one more failure.
        finish_errors = workload.finish(state, attempted)
        failed += len(finish_errors)
        errors += finish_errors
    finally:
        workload.close(state)
    summary = stats.latency_summary(latencies, workload.tail_cap_permille) if latencies else None
    metrics = {}
    if summary is not None:
        metrics = {
            "setup_s": IMPORT_S + statistics.median(setup_times),
            "units_per_s": len(latencies) / sum(latencies),
            "unit_p50_ms": summary["p50_ms"],
            "unit_tail_ms": summary["tail_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    info = {
        "digest": digest,
        "tail_percentile": None
        if summary is None or summary["tail_permille"] is None
        else summary["tail_permille"] / 10,
        "latency_samples": len(latencies),
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    return _result(metrics, END_TO_END, attempted, failed, errors, info)


def measure_traced(workload, seed: int, seconds: float) -> dict:
    """The traced run: per-layer metrics over a replay of the same units."""
    state = workload.setup(seed)
    try:
        base_lat, base_failed, errors, base_digest, n_units = _run_units(
            workload, state, seconds=TRACE_SHARE * seconds, min_units=1
        )
        finish_errors = workload.finish(state, n_units)
        base_failed += len(finish_errors)
        errors += finish_errors
    finally:
        workload.close(state)

    tracer = tracing.Tracer()
    counters = tracing.CountingRecorder()
    with tracing.installed(tracer), use_recorder(counters):
        tracer.enabled = True
        state = workload.setup(seed)
        tracer.enabled = False
    generate_s = tracer.self_times().get("workloads.generate", 0.0)
    tracer.reset()
    counters.counters.clear()
    try:
        with tracing.installed(tracer), use_recorder(counters):
            lat, failed, traced_errors, digest, _ = _run_units(
                workload, state, seconds=seconds, min_units=1, count=n_units, tracer=tracer
            )
        # The harness's own checks run with the shims and counters removed.
        finish_errors = workload.finish(state, n_units)
        failed += len(finish_errors)
        errors += traced_errors + finish_errors
        extras = workload.trace_extras(state, n_units, sum(base_lat))
    finally:
        workload.close(state)
    if digest != base_digest:
        errors.append("traced output digest differs from the untraced digest")
    metrics = {}
    if lat and base_lat:
        metrics = tracing.layer_metrics(
            tracer,
            dict(counters.counters),
            n_units=n_units,
            traced_latencies=lat,
            untraced_latencies=base_lat,
            generate_seconds=generate_s,
            extra=extras,
        )
    units = {name: unit for name, (unit, _better) in tracing.LAYER_METRICS.items()}
    info = {"digest": digest, "untraced_digest": base_digest, "units": n_units}
    return _result(metrics, units, 2 * n_units, base_failed + failed, errors, info)


def _result(metrics, units, attempted, failed, errors, info) -> dict:
    correct = not errors and failed == 0 and set(metrics) == set(units)
    return {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        "info": info,
        "errors": errors,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    run = measure_traced if args.trace else measure
    result = run(workload, args.seed, args.seconds)

    for error in result["errors"][:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    for key, value in result["info"].items():
        print(f"  {key}: {value}")
    for name, metric in result["metrics"].items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
