"""The benchmark's operations: fixed lists for `verify` and `search`, and a
seeded generator of families and operations for `family`.

The generator is independent of the program.  It builds families with the
predicates in `oracle`, and hands the program only family files and argv.
The shape of the `family` workload (which settings, sizes and subcommands)
is fixed; the seed picks the members.  So the work per pass hardly moves
from seed to seed, and the program still sees new inputs each time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from random import Random

import oracle
from oracle import BINARY, CAPSET, MOD


@dataclass
class Op:
    """One CLI call.  `argv` may hold `{dir}`, the family-file directory,
    and `{out}`, a path for the artifact the call writes."""

    name: str
    kind: str
    argv: list[str]
    expect: dict | None = None
    family: "FamilySpec | None" = None
    artifact: str | None = None

    def resolved_argv(self, family_dir: Path, out: Path) -> list[str]:
        return [a.format(dir=family_dir, out=out) for a in self.argv]


@dataclass
class FamilySpec:
    file: str
    setting: str
    n: int
    D: int | None
    members: list[tuple]

    def text(self, rng: Random) -> str:
        lines = [oracle.to_line(self.setting, m) for m in self.members]
        rng.shuffle(lines)
        return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# verify: exhaustive where the work cap admits it, 200-point sampled beyond


def _verify_op(name, setting, n, D=None, samples=None):
    argv = ["verify-tensor", "--setting", setting, "--n", str(n)]
    if D is not None:
        argv += ["--D", str(D)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    return Op(name, "verify", argv, oracle.expect_verify(setting, n, D))


def verify_ops() -> list[Op]:
    return [
        _verify_op("binary-n4", BINARY, 4),
        _verify_op("mod-d-n3-D3", MOD, 3, 3),
        _verify_op("mod-d-n2-D4", MOD, 2, 4),
        _verify_op("mod-d-n2-D5", MOD, 2, 5),
        _verify_op("binary-n7-sampled", BINARY, 7, samples=200),
        _verify_op("binary-n8-sampled", BINARY, 8, samples=200),
        _verify_op("mod-d-n5-D3-sampled", MOD, 5, 3, samples=200),
    ]


# ---------------------------------------------------------------------------
# search: the lex-least maxima, each checked free by the oracle on load

_BINARY_N5 = [
    "00000", "00011", "01101", "01110", "01111", "10101",
    "10110", "10111", "11001", "11010", "11011", "11111",
]
_SEARCH_WITNESSES = {
    (BINARY, 4): ["0000", "0011", "0101", "0110", "1011", "1101", "1110", "1111"],
    (BINARY, 5): _BINARY_N5,
    (MOD, 2, 4): ["0,0", "0,1", "1,0", "1,1"],
    (MOD, 2, 5): ["0,0", "0,1", "1,0", "1,1"],
    (CAPSET, 3): ["0,0,0", "0,0,1", "0,1,0", "0,1,1", "1,0,0", "1,0,1", "1,1,2", "1,2,2", "2,1,2"],
}


def _search_op(name, setting, n, D=None, extra=(), budgeted=False):
    argv = ["search", "--setting", setting, "--n", str(n)]
    if D is not None:
        argv += ["--D", str(D)]
    argv += list(extra)
    if budgeted:
        expect = oracle.expect_search(setting, n, bound=oracle.family_bound(n))
    else:
        key = (setting, n) if D is None else (setting, n, D)
        witness = _SEARCH_WITNESSES[key]
        points = [tuple(int(c) for c in (w if setting == BINARY else w.split(",")))
                  for w in witness]
        if oracle.first_sunflower(setting, points) is not None:
            raise RuntimeError(f"the expected {name} witness is not free")
        expect = oracle.expect_search(setting, n, witness_lines=witness)
    return Op(name, "search", argv, expect)


def search_ops() -> list[Op]:
    return [
        _search_op("binary-n4", BINARY, 4),
        _search_op("binary-n5", BINARY, 5),
        _search_op("mod-d-n2-D4", MOD, 2, 4),
        _search_op("mod-d-n2-D5", MOD, 2, 5),
        _search_op("capset-n3", CAPSET, 3),
        _search_op("binary-n5-nosym", BINARY, 5, extra=["--no-symmetry"]),
        _search_op("binary-n6-budget300", BINARY, 6, extra=["--budget", "300"], budgeted=True),
    ]


SEARCH_INSTANCES = [op.name for op in search_ops()]


# ---------------------------------------------------------------------------
# family: seeded families, one slot per (kind, setting, n, D, size)

# mod-D products of small free bases; the seed picks the bases, a subset of
# the product, and a coordinate and alphabet permutation
_PRODUCT_SLOTS = [
    (3, 4, 16), (3, 4, 9), (3, 5, 32), (3, 5, 12), (3, 6, 64), (3, 6, 24), (3, 7, 128),
    (4, 4, 16), (4, 4, 6), (4, 5, 32), (4, 6, 48), (4, 7, 96),
    (5, 4, 16), (5, 4, 8), (5, 5, 20), (5, 6, 40), (5, 7, 4),
]
# greedy binary families: seeded insertion order, stopped at the size
_GREEDY_SLOTS = [(6, 8), (6, 10), (6, 12), (6, 6), (7, 12), (7, 14), (7, 8),
                 (8, 16), (8, 20), (8, 10), (8, 24), (8, 4)]
# a sunflower planted at the three lex-largest members, the rest filled
# greedily below it, so the planted triple is the only sunflower and the
# program's lex-order scan reaches it last
_PLANTED_SLOTS = [
    (BINARY, 6, None, 10), (BINARY, 7, None, 12), (BINARY, 8, None, 16), (BINARY, 8, None, 8),
    (MOD, 4, 3, 12), (MOD, 5, 3, 16), (MOD, 6, 3, 20), (MOD, 4, 4, 10), (MOD, 4, 5, 12),
    (MOD, 5, 4, 14),
]

# (setting, n, D) whose verified slice count certify may pay for: a cold
# key costs at most about 2 s at the seed commit (mod-4 n=5 costs 4 s and
# mod-3 n=7 14 s, so larger families get detect only)
CERTIFY_KEYS = {
    (BINARY, 6, None), (BINARY, 7, None), (BINARY, 8, None),
    (MOD, 4, 3), (MOD, 5, 3), (MOD, 6, 3), (MOD, 4, 4), (MOD, 4, 5),
}
CERTIFY_MAX_MEMBERS = 64


def _points(n, M):
    return list(itertools.product(range(M), repeat=n))


def _greedy(rng, setting, candidates, size, start=()):
    """Insert shuffled candidates that form no sunflower with any pair
    already present, until `size` members; retry with a new order."""
    for _ in range(100):
        order = list(candidates)
        rng.shuffle(order)
        members = list(start)
        for c in order:
            if len(members) == size:
                break
            if not any(oracle.is_sunflower(setting, a, b, c)
                       for a, b in itertools.combinations(members, 2)):
                members.append(c)
        if len(members) == size:
            return members
    raise RuntimeError(f"no greedy {setting} family of size {size}")


def _product_family(rng, n, D, size):
    blocks = []
    left = n
    while left:
        k = min(left, rng.choice((1, 2)))
        blocks.append(_greedy(rng, MOD, _points(k, D), 2**k))
        left -= k
    product = [tuple(itertools.chain.from_iterable(p)) for p in itertools.product(*blocks)]
    chosen = rng.sample(product, size)
    perm = rng.sample(range(n), n)
    alpha = [rng.sample(range(D), D) for _ in range(n)]
    return [tuple(alpha[i][m[perm[i]]] for i in range(n)) for m in chosen]


def _planted_family(rng, setting, n, D, size):
    M = 2 if setting == BINARY else D
    points = _points(n, M)
    upper = [p for p in points if p[0] == M - 1]
    while True:
        planted = tuple(sorted(rng.sample(upper, 3)))
        if oracle.is_sunflower(setting, *planted):
            break
    below = [p for p in points if p < planted[0]]
    return _greedy(rng, setting, below, size, start=planted)


def _family_ops(index, spec) -> list[Op]:
    setting, n, D = spec.setting, spec.n, spec.D
    d_args = [] if D is None else ["--D", str(D)]
    path = "{dir}/" + spec.file
    tag = f"f{index:02d}"
    ops = [Op(f"{tag}-detect", "detect", ["detect", path] + d_args, family=spec)]
    if (setting, n, D) in CERTIFY_KEYS and len(spec.members) <= CERTIFY_MAX_MEMBERS:
        ops.append(Op(f"{tag}-certify", "certify",
                      ["certify", path, "--json", "{out}"] + d_args, family=spec, artifact="json"))
    if setting == BINARY and n % 2 == 0:
        ops.append(Op(f"{tag}-encode", "encode", ["encode", path, "--json", "{out}"],
                      family=spec, artifact="json"))
    ops.append(Op(f"{tag}-bounds", "bounds", ["bounds", "--n", str(n), "--csv", "{out}"] + d_args,
                  family=spec, artifact="csv"))
    return ops


def family_workload(seed: int) -> tuple[list[Op], list[FamilySpec]]:
    """Families and their ops for one seed; expectations are filled in
    later by `add_expectations`, outside the timed set-up."""
    slots = ([("product", MOD, n, D, size) for D, n, size in _PRODUCT_SLOTS]
             + [("greedy", BINARY, n, None, size) for n, size in _GREEDY_SLOTS]
             + [("planted",) + slot for slot in _PLANTED_SLOTS])
    ops, specs = [], []
    for index, (kind, setting, n, D, size) in enumerate(slots):
        rng = Random(seed * 1009 + index)
        if kind == "product":
            members = _product_family(rng, n, D, size)
        elif kind == "greedy":
            members = _greedy(rng, BINARY, _points(n, 2), size)
        else:
            members = _planted_family(rng, setting, n, D, size)
        spec = FamilySpec(f"{kind}{index:02d}.txt", setting, n, D, members)
        specs.append(spec)
        ops.extend(_family_ops(index, spec))
    return ops, specs


def write_families(specs: list[FamilySpec], seed: int, family_dir: Path) -> None:
    rng = Random(seed)
    family_dir.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        (family_dir / spec.file).write_text(spec.text(rng))


def add_expectations(ops: list[Op]) -> None:
    for op in ops:
        if op.expect is not None:
            continue
        spec = op.family
        if op.kind == "detect":
            op.expect = oracle.expect_detect(spec.setting, spec.members, spec.n)
        elif op.kind == "certify":
            op.expect = oracle.expect_certify(spec.setting, spec.members, spec.n, spec.D)
        elif op.kind == "encode":
            op.expect = oracle.expect_encode(spec.members)
        else:
            op.expect = oracle.expect_bounds(spec.n, spec.D)


WORKLOADS = ("verify", "family", "search")


def build(workload: str, seed: int, family_dir: Path) -> list[Op]:
    """The op list for one workload, with any family files written."""
    if workload == "verify":
        return verify_ops()
    if workload == "search":
        return search_ops()
    ops, specs = family_workload(seed)
    write_families(specs, seed, family_dir)
    return ops
