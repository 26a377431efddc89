"""Timed spans around the program's layer boundaries, recorded from outside.

While installed, a `Tracer` rebinds every slicerank module attribute that
refers to a traced function (`cli.find_sunflower`, `tensor.expand_tensor`,
...) to a wrapper that records a span, so callers that look the function up
through any module see the wrapper.  `uninstall` puts the originals back.
No program file changes.

`exactnum` is not wrapped: it is called millions of times inside the
checkers, and a wrapper would swamp its own time.  Its work shows as the
count of cyclotomic comparisons (one per mod-D point verified).
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


def _verify_counts(sig):
    def count(args, kwargs, result):
        ok, _ = result
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        obj, mode = bound.arguments[next(iter(sig.parameters))], bound.arguments["mode"]
        if mode == "exhaustive":
            points = ((2 if obj.setting == "binary" else obj.D) ** obj.n) ** 3
        else:
            points = bound.arguments["samples"]
        return {"points": points if ok else 0, "setting": obj.setting, "mode": mode}

    return count


def _diagonal_triples(args, kwargs, report):
    members = args[0].members
    n = len(members)
    if report.ok:
        return {"triples": n**3}
    i, j, k = (members.index(m) for m in report.witness)
    return {"triples": (i * n + j) * n + k + 1}


_COUNTERS = {
    "setsys.parse_family": lambda a, k, r: {"members": len(r)},
    "setsys.find_sunflower": lambda a, k, r: {"members": len(a[0]), "free": int(r is None)},
    "tensor.check_diagonal": _diagonal_triples,
    "tensor.expand_tensor": lambda a, k, r: {"terms": len(r.terms)},
    "tensor.decompose": lambda a, k, r: {"slices": r.slice_count},
    "search.max_free_family": lambda a, k, r: {"nodes": r.nodes, "optimal": int(r.optimal)},
}

_TRACED = {
    "cli": ["main"],
    "setsys": ["parse_family", "find_sunflower", "layer_split", "pair_encode", "is_capset"],
    "tensor": ["check_diagonal", "expand_tensor", "decompose", "verify_expansion",
               "verify_decomposition", "certify_family"],
    "search": ["max_free_family", "validate_against_bounds"],
}


def _public_functions(module):
    return [name for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
            and not name.startswith("_")]


class Tracer:
    """Records spans [id, name, start, end, parent, pass, op, counts] in
    memory; the caller sets `pass_no` and `op` before each op."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple] = []
        self.pass_no = 0
        self.op = None

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        if name.startswith("tensor.verify_"):
            counter = _verify_counts(inspect.signature(fn))
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None,
                    self.pass_no, self.op, None]
            spans.append(span)
            stack.append(span[0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                span[2] = start
                stack.pop()
            if counter is not None:
                span[7] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        program = {name: mod for name, mod in sys.modules.items()
                   if name == "slicerank" or name.startswith("slicerank.")}
        targets = {f"{layer}.{fn}": getattr(program[f"slicerank.{layer}"], fn)
                   for layer, fns in _TRACED.items() for fn in fns}
        bounds = program["slicerank.bounds"]
        targets.update({f"bounds.{fn}": getattr(bounds, fn) for fn in _public_functions(bounds)})
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        for mod in program.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in self._bindings:
            setattr(mod, attr, value)
        self._bindings.clear()

    def dump(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "pass", "op", "counts")
        return [dict(zip(keys, span)) for span in self.spans]


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one pass


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[list], search_instances: list[str]) -> dict[str, float]:
    """Calls, busy (inclusive) and self time, and counts per layer, from the
    spans of one pass.  Self time is a span's duration minus the time its
    direct child spans cover."""
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[4] in by_id:
            child_time[s[4]] += s[3] - s[2]

    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    for s in spans:
        name, dur = s[1], s[3] - s[2]
        calls[name] += 1
        busy[name] += dur
        self_s[name] += dur - child_time[s[0]]
        for key, value in (s[7] or {}).items():
            if isinstance(value, int):
                counts[f"{name}.{key}"] += value

    m: dict[str, float] = {}
    m["cli.main.calls"] = calls["cli.main"]
    m["cli.main.self_s"] = self_s["cli.main"]
    for fn in ("parse_family", "find_sunflower"):
        name = f"setsys.{fn}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.busy_s"] = busy[name]
        m[f"{name}.members"] = counts[f"{name}.members"]
    m["setsys.find_sunflower.free_ratio"] = _ratio(counts["setsys.find_sunflower.free"],
                                                   calls["setsys.find_sunflower"])
    for fn in ("layer_split", "pair_encode", "is_capset"):
        m[f"setsys.{fn}.busy_s"] = busy[f"setsys.{fn}"]

    for fn, count in (("check_diagonal", "triples"), ("expand_tensor", "terms"),
                      ("decompose", "slices")):
        name = f"tensor.{fn}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.busy_s"] = busy[name]
        m[f"{name}.{count}"] = counts[f"{name}.{count}"]

    points = defaultdict(int)
    verify_busy = defaultdict(float)
    for fn in ("verify_expansion", "verify_decomposition"):
        name = f"tensor.{fn}"
        m[f"{name}.busy_s"] = busy[name]
        m[f"{name}.points"] = counts[f"{name}.points"]
    for s in spans:
        if s[1].startswith("tensor.verify_") and s[7]:
            points[s[7]["setting"]] += s[7]["points"]
            points[s[7]["mode"]] += s[7]["points"]
            verify_busy[s[7]["setting"]] += s[3] - s[2]
    m["tensor.verify.binary.points_per_s"] = _ratio(points["binary"], verify_busy["binary"])
    m["tensor.verify.mod.points_per_s"] = _ratio(points["mod-d"], verify_busy["mod-d"])
    m["tensor.verify.exhaustive_share"] = _ratio(points["exhaustive"],
                                                 points["exhaustive"] + points["sampled"])

    cold = set()
    for s in spans:
        if s[1] == "tensor.expand_tensor":
            while s[4] in by_id:
                s = by_id[s[4]]
                if s[1] == "tensor.certify_family":
                    cold.add(s[0])
                    break
    m["tensor.certify_family.calls"] = calls["tensor.certify_family"]
    m["tensor.certify_family.self_s"] = self_s["tensor.certify_family"]
    m["tensor.certify_family.cold"] = len(cold)

    m["exactnum.cyc_compares"] = points["mod-d"]

    top_bounds = [s for s in spans if s[1].startswith("bounds.")
                  and not (s[4] in by_id and by_id[s[4]][1].startswith("bounds."))]
    m["bounds.calls"] = len(top_bounds)
    m["bounds.busy_s"] = sum(s[3] - s[2] for s in top_bounds)

    name = "search.max_free_family"
    m[f"{name}.calls"] = calls[name]
    m[f"{name}.busy_s"] = busy[name]
    m[f"{name}.nodes"] = counts[f"{name}.nodes"]
    m["search.nodes_per_s"] = _ratio(counts[f"{name}.nodes"], busy[name])
    m["search.optimal_ratio"] = _ratio(counts[f"{name}.optimal"], calls[name])
    m["search.validate_against_bounds.busy_s"] = busy["search.validate_against_bounds"]
    for instance in search_instances:
        m[f"search.op.{instance}.busy_s"] = 0.0
        m[f"search.op.{instance}.nodes"] = 0
    for s in spans:
        if s[1] == name and f"search.op.{s[6]}.nodes" in m:
            m[f"search.op.{s[6]}.busy_s"] += s[3] - s[2]
            m[f"search.op.{s[6]}.nodes"] += s[7]["nodes"]
    return m

