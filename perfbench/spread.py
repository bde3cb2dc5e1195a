"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads figure_opt scale_auction \\
        --seeds 101 102 103 104 105 --seconds 15 [--out perfbench/baseline.json]

Runs are sequential, one process at a time.  For every end-to-end metric
it prints the median and the quartile spread (``(Q3 - Q1) / median`` over
the seeds) next to the bound ``BENCHMARK.json`` fixes, and flags spreads
above a third of the bound.  ``--out`` writes the medians and spreads as
the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    baseline = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in args.seeds:
            result, wall = run_once(workload, seed, args.seconds, 0)
            walls.append(wall)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"  seed {seed}: " + "  ".join(
                f"{name} {metric['value']:.4g}" for name, metric in result["metrics"].items()
            ), flush=True)
        rows = {}
        print(f"{workload}: run wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for name, series in values.items():
            spread = quartile_spread(series)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"  {name:14s} median {statistics.median(series):12.5g}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
            rows[name] = {"median": statistics.median(series), "spread": spread, "values": series}
        baseline["workloads"][workload] = {"run_wall_s": walls, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
