#!/usr/bin/env python3
"""Check that the traced run's counts repeat exactly between two runs.

    python3 perfbench/determinism.py --seed 7

For every workload it runs `run.py --trace 1` twice with the same seed, one
after the other, and compares every per-layer count (calls, terms, slices,
points, triples, members, nodes, cold, cyclotomic comparisons), which come
from the traced pass 1 only, so each run is given one second.  Times are
not compared.  Exits 1 on any mismatch or failed op, else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
COUNT_SUFFIXES = (".calls", ".terms", ".slices", ".points", ".triples", ".members",
                  ".nodes", ".cold", "cyc_compares")


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} failed ops\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(COUNT_SUFFIXES)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    status = 0
    for workload in workloads.WORKLOADS:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        nonzero = sum(1 for v in first.values() if v)
        if diff:
            status = 1
            print(f"{workload}: MISMATCH {diff}")
        else:
            print(f"{workload}: {len(first)} counts repeat exactly ({nonzero} nonzero)")
    return status


if __name__ == "__main__":
    sys.exit(main())
