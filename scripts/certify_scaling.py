#!/usr/bin/env python3
"""Time `certify` on large seeded sunflower-free families, end to end and
per stage.

Each family is built by one greedy pass over a seeded sample of random
points: a point joins when it completes a sunflower with no pair of the
members so far (one `completions` mask per member), so the M^n points are
never enumerated.  The stages timed are `find_sunflower` and the slice
count, with its cache cleared first, as a fresh process pays it; `certify`
is `slicerank certify` through `cli.main`, also with cold caches.  Times
are the minimum over --repeats runs, in milliseconds.

Example:
    python scripts/certify_scaling.py
    python scripts/certify_scaling.py --instances binary:11 mod-3:8 --size 64
"""

import argparse
import contextlib
import io
import random
import tempfile
import time
from pathlib import Path

from slicerank import cli, tensor
from slicerank.setsys import (
    BINARY,
    MOD,
    Family,
    completions,
    find_sunflower,
    layer_split,
)

DEFAULT_INSTANCES = ["binary:11", "binary:16", "binary:20", "mod-3:8", "mod-3:12"]


def free_family(setting: str, n: int, D: int | None, size: int, seed: int) -> Family:
    """Up to `size` members, from a greedy pass over 64 * size seeded random
    points of range(M)^n, repeats skipped."""
    rng = random.Random(seed)
    M = 2 if setting == BINARY else D
    codes: list[tuple[int, ...]] = []
    masks: list[dict[int, int]] = [{} for _ in range(n)]
    seen = set()
    for _ in range(64 * size):
        if len(codes) == size:
            break
        c = tuple(rng.randrange(M) for _ in range(n))
        if c in seen:
            continue
        seen.add(c)
        # a sunflower (c, a, z) has z != a, so a's own bit is left out
        within = (1 << len(codes)) - 1
        if any(completions(setting, masks, c, a, within ^ 1 << j) for j, a in enumerate(codes)):
            continue
        for col, v in zip(masks, c):
            col[v] = col.get(v, 0) | 1 << len(codes)
        codes.append(c)
    return Family(setting, n, D, tuple(codes))


def _cold():
    tensor._structural_slice_count.cache_clear()
    tensor._one_coordinate.cache_clear()


def _best_ms(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best * 1000


def time_instance(setting: str, n: int, D: int | None, family: Family, repeats: int,
                  workdir: Path) -> dict:
    """Per-stage and end-to-end times of certifying `family`, and what the
    CLI printed."""
    layers = len(layer_split(family)) if setting == BINARY else 1
    path = workdir / f"{setting}-{n}.txt"
    path.write_text(family.to_text())
    argv = ["certify", str(path)] + ([] if D is None else ["--D", str(D)])
    out = io.StringIO()

    def certify():
        _cold()
        out.seek(0)
        out.truncate()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"certify exited {code} at {setting} n={n}: {out.getvalue()}")

    def slice_count():
        _cold()
        tensor._structural_slice_count(setting, n, D)

    return {
        "find_sunflower": _best_ms(repeats, lambda: find_sunflower(family)),
        "slice_count": _best_ms(repeats, slice_count),
        "certify": _best_ms(repeats, certify),
        "layers": layers,
        "printed": out.getvalue(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--instances", nargs="+", default=DEFAULT_INSTANCES,
                        help="binary:N or mod-D:N, e.g. binary:20 mod-3:12")
    parser.add_argument("--size", type=int, default=128, help="members per family (at most)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    print("setting n members layers find_sunflower_ms slice_count_ms certify_ms slice_count")
    with tempfile.TemporaryDirectory() as tmp:
        for spec in args.instances:
            name, n = spec.split(":")
            n = int(n)
            if name == "binary":
                setting, D = BINARY, None
            else:
                setting, D = MOD, int(name.removeprefix("mod-"))
            family = free_family(setting, n, D, args.size, args.seed)
            t = time_instance(setting, n, D, family, args.repeats, Path(tmp))
            count = next(line.split()[1] for line in t["printed"].splitlines()
                         if line.startswith("slice_count:"))
            print(f"{name} {n} {len(family)} {t['layers']} {t['find_sunflower']:.2f}"
                  f" {t['slice_count']:.3f} {t['certify']:.2f} {count}")


if __name__ == "__main__":
    main()
