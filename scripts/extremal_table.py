#!/usr/bin/env python3
"""Tabulate branch-and-bound maxima of free families against the
closed-form bounds.

The defaults reach binary n=6 and mod-4 n=3, both proved optimal in well
under a second.  With `--capset-max 4` the capset rows reach n=4, proved
optimal (max 20, 605,107 nodes), and with `--binary-max 7` the binary rows
reach n=7, proved optimal (max 29, 1,558,799 nodes); each takes about 2-3 s
on a 2-vCPU VM.  `scripts/search_scaling.py` times these instances.  Example:
    python scripts/extremal_table.py --binary-max 4 --mod 3:2 --capset-max 2
"""

import argparse

from slicerank.bounds import mod_count_bound, subset_family_bound
from slicerank.search import CAPSET, SearchConfig, max_free_family
from slicerank.setsys import BINARY, MOD


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary-max", type=int, default=6, help="largest binary n")
    parser.add_argument("--mod", default="4:3", help="D:n_max for the mod-D rows")
    parser.add_argument("--capset-max", type=int, default=2, help="largest capset n")
    parser.add_argument("--budget", type=int, default=2_000_000)
    args = parser.parse_args()

    print(f"{'setting':10} {'n':>3} {'max':>5} {'optimal':>8} {'nodes':>9} {'bound':>8}")
    for n in range(1, args.binary_max + 1):
        r = max_free_family(SearchConfig(BINARY, n, node_budget=args.budget))
        print(
            f"{'binary':10} {n:>3} {r.max_size:>5} {str(r.optimal):>8} "
            f"{r.nodes:>9} {subset_family_bound(n):>8}"
        )

    D, n_max = (int(p) for p in args.mod.split(":"))
    for n in range(1, n_max + 1):
        r = max_free_family(SearchConfig(MOD, n, D=D, node_budget=args.budget))
        print(
            f"{f'mod-{D}':10} {n:>3} {r.max_size:>5} {str(r.optimal):>8} "
            f"{r.nodes:>9} {mod_count_bound(n, D):>8}"
        )

    for n in range(1, args.capset_max + 1):
        r = max_free_family(SearchConfig(CAPSET, n, node_budget=args.budget))
        print(
            f"{'capset':10} {n:>3} {r.max_size:>5} {str(r.optimal):>8} "
            f"{r.nodes:>9} {3 ** n:>8}"
        )


if __name__ == "__main__":
    main()
