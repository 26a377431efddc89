#!/usr/bin/env python3
"""Time `slicerank verify-tensor` at the reach of the term cap.

The default instances are the largest the 2^20 term cap admits: binary
n=10, mod-3 n=7 and mod-4 n=6, with binary n=8 and n=9 below them.  Each
row is one in-process `cli.main(["verify-tensor", ...])` call, end to end
(expansion, decomposition, both checks and the printing, stdout captured),
timed with `time.perf_counter`; terms and slices are read from its output.
The four stage columns time the `tensor` calls the CLI makes inside that
call (expand_tensor, verify_expansion, decompose, verify_decomposition), in
milliseconds; `seconds` is the whole call.

Example:
    python scripts/verify_scaling.py
    python scripts/verify_scaling.py --instances binary:6 mod-3:4
"""

import argparse
import contextlib
import io
import sys
import time

from slicerank import cli, tensor
from slicerank.setsys import BINARY, MOD

DEFAULT_INSTANCES = ["binary:8", "binary:9", "binary:10", "mod-3:7", "mod-4:6"]
STAGES = ("expand_tensor", "verify_expansion", "decompose", "verify_decomposition")


@contextlib.contextmanager
def timed_stages(ms: dict):
    """Add each stage call's milliseconds to ms[stage] while the block runs.
    The CLI looks the stages up on the tensor module at call time, so the
    module's functions are wrapped for the block and then restored."""
    saved = {name: getattr(tensor, name) for name in STAGES}

    def timed(name, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ms[name] = ms.get(name, 0.0) + (time.perf_counter() - start) * 1e3
        return call

    for name, fn in saved.items():
        setattr(tensor, name, timed(name, fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(tensor, name, fn)


def parse_instance(spec: str) -> tuple[str, int, int | None]:
    """(setting, n, D) of binary:N or mod-D:N."""
    name, n = spec.split(":")
    if name == BINARY:
        return BINARY, int(n), None
    return MOD, int(n), int(name.removeprefix("mod-"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--instances", nargs="+", default=DEFAULT_INSTANCES,
                        help="binary:N or mod-D:N, e.g. binary:10 mod-4:6")
    args = parser.parse_args()

    print("setting n D terms slices expand_ms verify_expansion_ms decompose_ms"
          " verify_decomposition_ms seconds")
    for spec in args.instances:
        setting, n, D = parse_instance(spec)
        argv = ["verify-tensor", "--setting", setting, "--n", str(n)]
        if D is not None:
            argv += ["--D", str(D)]
        out = io.StringIO()
        ms: dict[str, float] = {}
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), timed_stages(ms):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        if code != 0:
            sys.exit(f"{spec}: exit {code}\n{out.getvalue()}")
        lines = dict(line.split(": ", 1) for line in out.getvalue().splitlines())
        stages = " ".join(f"{ms[name]:.1f}" for name in STAGES)
        print(f"{setting} {n} {D if D is not None else '-'} {lines['terms']}"
              f" {lines['slices'].split()[0]} {stages} {seconds:.3f}")


if __name__ == "__main__":
    main()
