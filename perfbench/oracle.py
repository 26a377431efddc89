"""Independent expectations and output checks for the benchmark's operations.

Nothing here imports slicerank.  The predicates and closed forms are
re-derived from their definitions, so a wrong answer from the program cannot
also become the benchmark's expectation.  Members are plain tuples of ints.

Only fields whose meaning is fixed are compared: exit codes, verdicts,
lexicographically least witnesses, slice counts and bounds.  The `nodes:`
line of `search` and any certificate field not named here are left alone,
because planned optimisations change them legitimately.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

BINARY = "binary"
MOD = "mod-d"
CAPSET = "capset"


# ---------------------------------------------------------------------------
# predicates


def is_sunflower(setting: str, x, y, z) -> bool:
    """Sunflower test for a distinct triple.  Binary: no coordinate holds
    exactly two ones.  Mod-D: no coordinate holds exactly two equal entries.
    Capset (F_3): x + y + z = 0 in every coordinate, the same triples as
    mod-3 sunflowers."""
    if setting == BINARY:
        return all(a + b + c != 2 for a, b, c in zip(x, y, z))
    if setting == CAPSET:
        return all((a + b + c) % 3 == 0 for a, b, c in zip(x, y, z))
    return all((a == b) + (b == c) + (a == c) != 1 for a, b, c in zip(x, y, z))


def first_sunflower(setting: str, members):
    """Lexicographically least sunflower triple of the sorted members, or None."""
    for triple in itertools.combinations(sorted(members), 3):
        if is_sunflower(setting, *triple):
            return triple
    return None


def to_line(setting: str, member) -> str:
    if setting == BINARY:
        return "".join(str(c) for c in member)
    return ",".join(str(c) for c in member)


# ---------------------------------------------------------------------------
# closed forms


def _tail(n: int, kmax: int, weight: int = 1) -> int:
    return sum(math.comb(n, k) * weight**k for k in range(kmax + 1))


def layer_bound(n: int) -> int:
    """3 * sum_{k <= n/3} C(n, k): the bound for one constant-weight layer."""
    return 3 * _tail(n, n // 3)


def family_bound(n: int) -> int:
    """3 (n+1) * sum_{k <= n/3} C(n, k): one layer bound per weight."""
    return (n + 1) * layer_bound(n)


def mod_bound(n: int, D: int) -> int:
    """3 * sum_{k <= 2n/3} C(n, k) (D-1)^k."""
    return 3 * _tail(n, (2 * n) // 3, D - 1)


def slice_count(setting: str, n: int, D: int | None) -> int:
    """Slices in the grouping by the first axis whose factor has measure at
    most t (degree, t = n//3, binary; nontrivial characters, t = 2n//3,
    mod-D).  Axis x takes every factor within t; axis y every factor within
    t that some term can push past t on x; axis z only factors whose
    complement pushes both x and y past t.  The verify workload checks this
    count against decompositions the program actually builds."""
    if n == 0:
        return 1
    if setting == BINARY:
        t = n // 3
        return _tail(n, t) + _tail(n, min(t, n - t - 1)) + _tail(n, min(t, n - 2 * t - 2))
    t = (2 * n) // 3
    w = D - 1
    return _tail(n, t, w) + _tail(n, min(t, n - 1), w) + _tail(n, min(t, 2 * (n - t - 1)), w)


# ---------------------------------------------------------------------------
# expectations, one builder per subcommand


def expect_detect(setting: str, members, n: int) -> dict:
    witness = first_sunflower(setting, members)
    if witness is None:
        return {"rc": 0, "lines": [f"sunflower-free: true ({len(members)} members, n={n})"]}
    return {
        "rc": 1,
        "lines": ["sunflower-free: false"] + [f"witness: {to_line(setting, m)}" for m in witness],
    }


def expect_certify(setting: str, members, n: int, D: int | None) -> dict:
    witness = first_sunflower(setting, members)
    if witness is not None:
        return {"rc": 1, "witness": [to_line(setting, m) for m in witness]}
    if setting == BINARY:
        weights = {sum(m) for m in members}
        count = slice_count(BINARY, n, None) * len(weights)
        bound = family_bound(n)
    else:
        count = slice_count(MOD, n, D)
        bound = mod_bound(n, D)
    return {
        "rc": 0,
        "fields": {
            "slice_count": str(count),
            "closed_form_bound": str(bound),
            "conclusion": f"|A| <= {count}",
        },
    }


_PAIR_SYMBOL = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}


def expect_encode(members) -> dict:
    """Pair-encode {0,1}^(2h) into {0,1,2,3}^h, split by where the 3s sit,
    and test each layer (3-positions deleted) for a progression over F_3."""
    layers: dict[tuple, list] = {}
    for m in members:
        symbols = [_PAIR_SYMBOL[m[2 * i], m[2 * i + 1]] for i in range(len(m) // 2)]
        support = tuple(int(s == 3) for s in symbols)
        layers.setdefault(support, []).append(tuple(s for s in symbols if s != 3))
    verdicts = []
    for support in sorted(layers):
        fam = layers[support]
        capset = first_sunflower(CAPSET, fam) is None
        x = "".join(str(c) for c in support)
        verdicts.append((x, len(fam), capset))
    return {"rc": 0 if all(v[2] for v in verdicts) else 1, "layers": verdicts}


def expect_bounds(n: int, D: int | None) -> dict:
    if D is None:
        rows = {"layer-count": str(layer_bound(n)), "family-count": str(family_bound(n))}
    else:
        rows = {"mod-slice-count": str(mod_bound(n, D))}
    return {"rc": 0, "rows": rows}


def expect_verify(setting: str, n: int, D: int | None) -> dict:
    return {"rc": 0, "slices": slice_count(setting, n, D)}


def expect_search(setting: str, n: int, witness_lines=None, bound: int | None = None) -> dict:
    """A complete search must return exactly `witness_lines`; a budgeted one
    only a free family no larger than `bound`."""
    return {"rc": 0, "setting": setting, "n": n, "witness": witness_lines, "bound": bound}


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else a reason


def _field(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def _prefixed(lines, prefix):
    return [line[len(prefix):].strip() for line in lines if line.startswith(prefix)]


def check(kind: str, expect: dict, rc: int, stdout: str, artifact: Path | None) -> str | None:
    if rc != expect["rc"]:
        return f"exit code {rc}, expected {expect['rc']}"
    lines = stdout.splitlines()
    return _CHECKS[kind](expect, lines, artifact)


def _check_detect(expect, lines, _artifact):
    got = [line for line in lines if line.startswith(("sunflower-free:", "witness:"))]
    if got != expect["lines"]:
        return f"detect printed {got}, expected {expect['lines']}"
    return None


def _check_certify(expect, lines, artifact):
    if expect["rc"] == 1:
        got = _prefixed(lines, "witness:")
        if got != expect["witness"]:
            return f"certify witness {got}, expected {expect['witness']}"
        return None
    fields = expect["fields"]
    for key, want in fields.items():
        got = _field(lines, f"{key}:")
        if got != want:
            return f"certify {key} printed {got!r}, expected {want!r}"
    data = json.loads(artifact.read_text())
    for key, want in fields.items():
        if data.get(key) != want:
            return f"certificate {key} is {data.get(key)!r}, expected {want!r}"
    return None


def _check_encode(expect, lines, artifact):
    want = [f"layer x={x}: {k} members, capset: {str(c).lower()}" for x, k, c in expect["layers"]]
    got = [line for line in lines if line.startswith("layer x=")]
    if got != want:
        return f"encode layers {got}, expected {want}"
    data = json.loads(artifact.read_text())
    got_json = [(layer["x"], len(layer["members"]), layer["capset"]) for layer in data["layers"]]
    if got_json != [tuple(v) for v in expect["layers"]]:
        return f"encode JSON layers {got_json}, expected {expect['layers']}"
    return None


def _check_bounds(expect, lines, artifact):
    with artifact.open(newline="") as fh:
        rows = {row["name"]: row["exact"] for row in csv.DictReader(fh)}
    for name, want in expect["rows"].items():
        if rows.get(name) != want:
            return f"bounds CSV {name} is {rows.get(name)!r}, expected {want!r}"
        if not any(line.startswith(name + " ") for line in lines):
            return f"bounds table lacks the {name} row"
    return None


def _check_verify(expect, lines, _artifact):
    for key in ("expansion_ok", "decomposition_ok"):
        if _field(lines, f"{key}:") != "true":
            return f"verify-tensor {key} is not true"
    slices = _field(lines, "slices:")
    if slices is None or slices.split()[0] != str(expect["slices"]):
        return f"verify-tensor slices {slices!r}, expected {expect['slices']}"
    return None


def _check_search(expect, lines, _artifact):
    members = _prefixed(lines, "member:")
    size = _field(lines, "max:")
    if size != str(len(members)):
        return f"search max {size!r} but {len(members)} member lines"
    if expect["witness"] is not None:
        if _field(lines, "optimal:") != "true":
            return "complete search not reported optimal"
        if members != expect["witness"]:
            return f"search witness {members}, expected {expect['witness']}"
        return None
    setting, n = expect["setting"], expect["n"]
    sep = "" if setting == BINARY else ","
    points = [tuple(int(c) for c in (m if not sep else m.split(sep))) for m in members]
    if any(len(p) != n for p in points) or len(set(points)) != len(points):
        return f"budgeted search witness {members} is not a set of n={n} points"
    if first_sunflower(setting, points) is not None:
        return f"budgeted search witness {members} is not free"
    if len(points) > expect["bound"]:
        return f"budgeted search max {len(points)} exceeds the bound {expect['bound']}"
    return None


_CHECKS = {
    "detect": _check_detect,
    "certify": _check_certify,
    "encode": _check_encode,
    "bounds": _check_bounds,
    "verify": _check_verify,
    "search": _check_search,
}
