#!/usr/bin/env python3
"""Time `max_free_family` on the search frontier.

The default instances are the four that bound the search's reach at the
default node budget: capset n=4 (proved, max 20), capset n=5 and mod-4 n=4
(both stopped by the budget) and binary n=7 (proved, max 29).  Each row is
one in-process search, timed with `time.perf_counter`.

Example:
    python scripts/search_scaling.py
    python scripts/search_scaling.py --instances binary:5 capset:3
"""

import argparse
import time

from slicerank.search import SearchConfig, max_free_family
from slicerank.setsys import BINARY, CAPSET, MOD

DEFAULT_INSTANCES = ["capset:4", "capset:5", "mod-4:4", "binary:7"]


def parse_instance(spec: str, budget: int) -> SearchConfig:
    """The search of binary:N, capset:N or mod-D:N under `budget` nodes."""
    name, n = spec.split(":")
    if name in (BINARY, CAPSET):
        return SearchConfig(name, int(n), node_budget=budget)
    return SearchConfig(MOD, int(n), D=int(name.removeprefix("mod-")), node_budget=budget)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--instances", nargs="+", default=DEFAULT_INSTANCES,
                        help="binary:N, capset:N or mod-D:N, e.g. capset:5 mod-4:4")
    parser.add_argument("--budget", type=int, default=2_000_000, help="node budget per search")
    args = parser.parse_args()

    print("setting n D max optimal nodes seconds")
    for spec in args.instances:
        cfg = parse_instance(spec, args.budget)
        start = time.perf_counter()
        result = max_free_family(cfg)
        seconds = time.perf_counter() - start
        print(f"{cfg.setting} {cfg.n} {cfg.D if cfg.D is not None else '-'} {result.max_size}"
              f" {result.optimal} {result.nodes} {seconds:.3f}")


if __name__ == "__main__":
    main()
