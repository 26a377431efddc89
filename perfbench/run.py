#!/usr/bin/env python3
"""slicerank benchmark: one workload, one process, one caller, closed loop.

    python3 perfbench/run.py --workload family --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository.  The program is imported from the
checkout's `src/` and driven through `slicerank.cli.main(argv)` in-process,
one op at a time (no threads, no `--workers`).  Every op's stdout and
artifacts are checked against expectations derived without the program
(see `oracle.py`).  The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

A run sets up (import, input generation, family files) SETUPS times and
reports the median as `setup_s`.  It then times passes over the workload's
op list: pass 1 is cold, and later passes until `--seconds` is used up are
warm.  Only `family` has state that warms: `certify` pays the verified
slice count once per (setting, n, D) in a process, as
`scripts/certify_demo.py` does, and the benchmark never clears or pre-fills
that cache.  `cold_pass_s` is pass 1, the batch a fresh process pays for;
`pass_s` is the median warm pass.

Times are rescaled to a reference interpreter speed.  On a 2-vCPU Xeon VM
(the hardware `baseline.json` was measured on) the vCPU's speed drifts by
up to 60 % within minutes; process CPU time drifts with wall time and no
steal time is reported.  That put the run-to-run spread of raw pass times
at 0.28 of the median.  So a `SpeedClock` times a fixed integer loop
every SAMPLE_EVERY_S from an interval-timer signal, during ops and between
them, and an op's time is its wall time minus the sampling's own time,
times the mean of REFERENCE_LOOP_S / (loop time) over the samples taken
during the op (and the nearest sample on each side).  The loop touches no program code and
allocates nothing, so a change to the program cannot change it, as long as
the program leaves nothing running between ops; a thread left alive after
an op fails that op.  Raw wall times are printed on the `#` lines, and the
traced run reports the raw median warm pass as `wall.pass_s`; a claimed gain
must hold on raw wall time too.

With `--trace 0` it prints the end-to-end metrics.  With `--trace 1` pass 1
is traced (see `spans.py`) and gives the per-layer metrics; warm untraced
and traced passes then alternate, and `trace.overhead_s` is the difference
of their medians.  Spans are written to `.perfbench/` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

import oracle
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUPS = 7
# about the loop's median time on the 2-vCPU Xeon VM of baseline.json
REFERENCE_LOOP_S = 0.00022
SAMPLE_EVERY_S = 0.05
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_program():
    """Import slicerank afresh from the checkout's src/ (a re-import re-runs
    every module body, so import-time work is timed on each set-up)."""
    for name in [m for m in sys.modules if m == "slicerank" or m.startswith("slicerank.")]:
        del sys.modules[name]
    cli = importlib.import_module("slicerank.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"slicerank imported from {cli.__file__}, not from {SRC}")
    return cli


# small ints only: the loop allocates nothing, so the heap the program leaves
# behind cannot change its speed
_LOOP = tuple(range(256)) * 24


class SpeedClock:
    """Samples the CPU's current speed from SIGALRM every SAMPLE_EVERY_S and
    converts wall intervals to seconds at the reference speed."""

    def __init__(self):
        self.times: list[float] = []
        self.loops: list[float] = []
        self.costs: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        best = float("inf")
        for _ in range(2):  # the better of two drops an interrupt
            a = time.perf_counter()
            s = 0
            for j in _LOOP:
                s = (s ^ j) & 255
            best = min(best, time.perf_counter() - a)
        self.times.append(t0)
        self.loops.append(best)
        self.costs.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds at the reference speed spent in [t0, t1]; call it once a
        sample after t1 exists."""
        lo, hi = bisect_left(self.times, t0), bisect_right(self.times, t1)
        cost = sum(self.costs[lo:hi])
        near = self.loops[max(lo - 1, 0):hi + 1]
        return (t1 - t0 - cost) * statistics.fmean(REFERENCE_LOOP_S / k for k in near)

    def wait_for_sample(self) -> None:
        """Block until a sample later than now exists."""
        now = time.perf_counter()
        while not self.times or self.times[-1] < now:
            signal.pause()


class Pass:
    """One pass over the op list: each op's time at the reference speed
    (`op_s`), their sum (`scaled_s`) and the pass's raw wall time (`wall_s`)."""

    def __init__(self, ops, cli, clock: SpeedClock, family_dir: Path, out_dir: Path,
                 tracer=None):
        self.failures: list[str] = []
        outputs, intervals = [], []
        start = time.perf_counter()
        for index, op in enumerate(ops):
            artifact = out_dir / f"{index:03d}.{op.artifact}" if op.artifact else None
            argv = op.resolved_argv(family_dir, artifact)
            if tracer is not None:
                tracer.op = op.name
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed op, not a failed run
                rc = f"raised {type(exc).__name__}: {exc}"
            intervals.append((t0, time.perf_counter()))
            if threading.active_count() > 1 and not isinstance(rc, str):
                rc = "a thread is still running after the op"
            outputs.append((op, rc, stdout.getvalue(), stderr.getvalue(), artifact))
        self.wall_s = time.perf_counter() - start
        clock.wait_for_sample()
        self.op_s = [clock.scaled(t0, t1) for t0, t1 in intervals]
        self.scaled_s = sum(self.op_s)
        for op, rc, out, err, artifact in outputs:
            if isinstance(rc, str):
                reason = rc
            else:
                try:
                    reason = oracle.check(op.kind, op.expect, rc, out, artifact)
                except Exception as exc:  # a missing or garbled artifact fails the op
                    reason = f"unreadable output: {type(exc).__name__}: {exc}"
            if reason is not None:
                self.failures.append(f"{op.name}: {reason}" + (f" [{err.strip()}]" if err else ""))


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _setup(workload, seed, tmp, clock):
    """SETUPS fresh imports and input generations, each timed like an op;
    returns the last one's program and ops, and the times."""
    intervals = []
    for i in range(SETUPS):
        family_dir = tmp / f"families{i}"
        t0 = time.perf_counter()
        cli = _import_program()
        ops = workloads.build(workload, seed, family_dir)
        intervals.append((t0, time.perf_counter()))
    clock.wait_for_sample()
    times = [clock.scaled(t0, t1) for t0, t1 in intervals]
    walls = [t1 - t0 for t0, t1 in intervals]
    return cli, ops, family_dir, times, walls


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    clock = SpeedClock()
    clock.start()
    try:
        cli, ops, family_dir, setup_times, setup_walls = _setup(workload, seed, tmp, clock)
        workloads.add_expectations(ops)
        out_dir = tmp / "out"
        out_dir.mkdir()
        started = time.perf_counter()
        if not trace:
            passes = [Pass(ops, cli, clock, family_dir, out_dir)]
            while True:
                passes.append(Pass(ops, cli, clock, family_dir, out_dir))
                if time.perf_counter() - started + passes[-1].wall_s > seconds:
                    break
            warm = passes[1:]
            per_op_ms = [1000 * statistics.median(p.op_s[i] for p in warm)
                         for i in range(len(ops))]
            metrics = {
                "setup_s": statistics.median(setup_times),
                "cold_pass_s": passes[0].scaled_s,
                "pass_s": statistics.median(p.scaled_s for p in warm),
                "op_p50_ms": _quantile(per_op_ms, 50),
                "op_p90_ms": _quantile(per_op_ms, 90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            note = (f"{len(ops)} ops per pass, {len(warm)} warm passes; op percentiles over "
                    f"{len(ops)} per-op medians; raw wall: setup "
                    f"{statistics.median(setup_walls):.4g} s, cold pass {passes[0].wall_s:.4g} s, "
                    f"warm pass {statistics.median(p.wall_s for p in warm):.4g} s")
        else:
            tracer = spans.Tracer()
            tracer.pass_no = 1
            tracer.install()
            try:
                first = Pass(ops, cli, clock, family_dir, out_dir, tracer)
            finally:
                tracer.uninstall()
            first_spans = list(tracer.spans)
            plain, traced = [], []
            passes = [first]
            while True:
                plain.append(Pass(ops, cli, clock, family_dir, out_dir))
                tracer.pass_no = len(passes) + 2
                tracer.install()
                try:
                    traced.append(Pass(ops, cli, clock, family_dir, out_dir, tracer))
                finally:
                    tracer.uninstall()
                passes += [plain[-1], traced[-1]]
                if time.perf_counter() - started + plain[-1].wall_s + traced[-1].wall_s > seconds:
                    break
            metrics = spans.layer_metrics(first_spans, workloads.SEARCH_INSTANCES)
            metrics["trace.overhead_s"] = (statistics.median(p.scaled_s for p in traced)
                                           - statistics.median(p.scaled_s for p in plain))
            # raw, so that a gain that is an artifact of the rescaling shows
            metrics["wall.pass_s"] = statistics.median(p.wall_s for p in plain)
            attempted = sum(len(p.op_s) for p in passes)
            metrics["ops.error_rate"] = sum(len(p.failures) for p in passes) / attempted
            trace_file = WORK / f"trace-{workload}-seed{seed}.json"
            trace_file.write_text(json.dumps(tracer.dump()) + "\n")
            note = f"{len(ops)} ops per pass; spans in {trace_file.relative_to(ROOT)}"
    finally:
        clock.stop()
        shutil.rmtree(tmp, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics.keys() ^ units.keys())} are not "
                           "declared in BENCHMARK.json, or declared but not measured")
    failures = [f for p in passes for f in p.failures]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# {workload} seed={seed}: {note}")
    for name, value in metrics.items():
        print(f"# {name:48s} {value:14.6g} {units[name]}")
    return {
        "correct": not failures,
        "attempted": sum(len(p.op_s) for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "slicerank" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'slicerank'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
