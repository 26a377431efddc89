#!/usr/bin/env python3
"""Measure the end-to-end baseline: several seeds per workload, one run each.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Each run measures BENCHMARK.json's `run_seconds`.  For every workload and
end-to-end metric it prints the median, the quartiles and the spread
(interquartile distance / median, as `statistics.quantiles(values, n=4)`
gives the quartiles), and writes them with the Python version, `nproc` and
the ops per pass.  Exits 1 if any run reports a failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", default=None, help="write the summary as JSON")
    args = parser.parse_args()
    ops_per_pass = {"verify": len(workloads.verify_ops()),
                    "family": len(workloads.family_workload(1)[0]),
                    "search": len(workloads.search_ops())}
    summary = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "run_seconds": BENCHMARK["run_seconds"], "seeds": args.seeds, "workloads": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        results = [run_once(workload, seed) for seed in _seeds(args.seeds)]
        failed = sum(r["failed"] for r in results)
        status |= failed > 0
        metrics = {name: summarize([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        summary["workloads"][workload] = {
            "ops_per_pass": ops_per_pass[workload],
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed,
            "metrics": metrics,
        }
        print(f"{workload}: {ops_per_pass[workload]} ops per pass, {failed} failed ops")
        for name, s in metrics.items():
            print(f"  {name:12s} median {s['median']:10.5g}  q1 {s['q1']:10.5g}  "
                  f"q3 {s['q3']:10.5g}  spread {s['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
