"""Exact extremal search at small instance sizes.

Branch-and-bound over candidate vectors in lexicographic order: a partial
family is extended by candidates above its largest member, each insertion
is checked against all pairs already present, and a branch is cut when even
taking every remaining candidate cannot reach the best size found.  Ties
with the current best are still explored so that the reported witness is
the lexicographically least maximum family.

Symmetry reduction keeps only partial families that are lexicographically
least in their orbit under coordinate permutations (and per-coordinate
alphabet permutations in the mod-D and capset settings, which preserve the
respective predicates).  Every prefix of a lex-least family is lex-least in
its own orbit, so pruning non-canonical prefixes never loses the optimum.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from random import Random

from . import bounds
from .setsys import BINARY, MOD, DVector, Family, SubsetVector

CAPSET = "capset"


@dataclass(frozen=True)
class SearchConfig:
    setting: str  # binary | mod-d | capset
    n: int
    D: int | None = None
    node_budget: int = 2_000_000
    time_budget: float | None = None
    symmetry: bool = True

    def __post_init__(self):
        if self.setting not in (BINARY, MOD, CAPSET):
            raise ValueError(f"unknown setting {self.setting!r}")
        if self.setting == CAPSET and self.D not in (None, 3):
            raise ValueError("capset search is over F_3")
        if self.setting == MOD and (self.D is None or self.D < 3):
            raise ValueError("mod-D search needs D >= 3")
        if self.node_budget <= 0:
            raise ValueError("the node budget must be positive")

    @property
    def alphabet(self) -> int:
        return 2 if self.setting == BINARY else (self.D or 3)


@dataclass(frozen=True)
class SearchResult:
    max_size: int
    optimal: bool
    witness: Family
    nodes: int

    def to_json_dict(self) -> dict:
        return {
            "max": self.max_size,
            "optimal": self.optimal,
            "nodes": self.nodes,
            "witness": [m.to_line() for m in self.witness],
        }


def _candidates(cfg: SearchConfig):
    return list(itertools.product(range(cfg.alphabet), repeat=cfg.n))


def _bad_triple(cfg_setting: str, x, y, z) -> bool:
    """Does adding z to a family containing x, y create a forbidden triple?"""
    if cfg_setting == BINARY:
        for a, b, c in zip(x, y, z):
            if a + b + c == 2:
                return False
        return True
    if cfg_setting == CAPSET:
        return all((a + b + c) % 3 == 0 for a, b, c in zip(x, y, z))
    for a, b, c in zip(x, y, z):
        if ((a == b) + (b == c) + (a == c)) == 1:
            return False
    return True


def _symmetry_group(cfg: SearchConfig):
    """All symmetries preserving the predicate: coordinate permutations,
    composed with per-coordinate alphabet permutations outside the binary
    setting (for capsets every permutation of F_3 is affine, so all are
    progression-safe)."""
    coord_perms = list(itertools.permutations(range(cfg.n)))
    if cfg.setting == BINARY:
        return [(p, None) for p in coord_perms]
    value_perms = list(itertools.permutations(range(cfg.alphabet)))
    group = []
    for p in coord_perms:
        for vmaps in itertools.product(value_perms, repeat=cfg.n):
            group.append((p, vmaps))
    return group


def _apply(sym, member):
    p, vmaps = sym
    if vmaps is None:
        return tuple(member[p[i]] for i in range(len(member)))
    return tuple(vmaps[i][member[p[i]]] for i in range(len(member)))


def _is_canonical(partial: tuple, group) -> bool:
    for sym in group:
        image = tuple(sorted(_apply(sym, m) for m in partial))
        if image < partial:
            return False
    return True


class _Budget(Exception):
    pass


class _Search:
    def __init__(self, cfg: SearchConfig, group):
        self.cfg = cfg
        self.group = group
        self.cands = _candidates(cfg)
        self.nodes = 0
        self.best_size = 0
        self.best: tuple | None = None
        self.deadline = None
        if cfg.time_budget is not None:
            self.deadline = time.monotonic() + cfg.time_budget

    def _visit(self, partial: tuple):
        self.nodes += 1
        if self.nodes > self.cfg.node_budget:
            raise _Budget
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Budget
        size = len(partial)
        if size > self.best_size or (
            size == self.best_size and (self.best is None or partial < self.best)
        ):
            self.best_size = size
            self.best = partial

    def run(self, partial: tuple, start: int) -> None:
        cands = self.cands
        total = len(cands)
        for i in range(start, total):
            if len(partial) + (total - i) < self.best_size:
                break  # ties are kept so the lex-least witness survives
            c = cands[i]
            ok = True
            for a, b in itertools.combinations(partial, 2):
                if _bad_triple(self.cfg.setting, a, b, c):
                    ok = False
                    break
            if not ok:
                continue
            extended = partial + (c,)
            if self.group is not None and not _is_canonical(extended, self.group):
                continue
            self._visit(extended)
            self.run(extended, i + 1)


def _to_family(cfg: SearchConfig, members) -> Family:
    if cfg.setting == BINARY:
        vecs = [SubsetVector.from_coords(m) for m in members]
        return Family(BINARY, cfg.n, None, tuple(vecs))
    vecs = [DVector(cfg.n, cfg.alphabet, m) for m in members]
    return Family(MOD, cfg.n, cfg.alphabet, tuple(vecs))


def max_free_family(cfg: SearchConfig) -> SearchResult:
    """Size of the largest free family for the configured predicate, by
    exhaustive branch-and-bound; the witness is the lexicographically least
    maximum family.  If a budget runs out the best family found so far is
    returned with the optimality flag off."""
    group = _symmetry_group(cfg) if cfg.symmetry else None
    search = _Search(cfg, group)
    complete = True
    try:
        search._visit(())
        search.run((), 0)
    except _Budget:
        complete = False
    best = search.best or ()
    return SearchResult(len(best), complete, _to_family(cfg, best), search.nodes)


def brute_force_max(cfg: SearchConfig) -> int:
    """Independent oracle: scan every subfamily of the universe.  Only
    feasible when 2^(alphabet^n) is tiny; used to validate the search."""
    cands = _candidates(cfg)
    total = len(cands)
    if total > 16:
        raise ValueError("oracle limited to universes of at most 16 points")
    best = 0
    for mask in range(1 << total):
        if mask.bit_count() <= best:
            continue
        members = [cands[i] for i in range(total) if (mask >> i) & 1]
        ok = True
        for x, y, z in itertools.combinations(members, 3):
            if _bad_triple(cfg.setting, x, y, z):
                ok = False
                break
        if ok:
            best = mask.bit_count()
    return best


def greedy_witness(cfg: SearchConfig, seed: int) -> Family:
    """Seeded random greedy insertion; always returns a free family, and the
    same one for the same seed."""
    cands = _candidates(cfg)
    Random(seed).shuffle(cands)
    members: list = []
    for c in cands:
        if not any(
            _bad_triple(cfg.setting, a, b, c) for a, b in itertools.combinations(members, 2)
        ):
            members.append(c)
    return _to_family(cfg, members)


def tensor_power(family: Family, k: int, max_size: int = 200_000) -> Family:
    """Cartesian power with coordinate concatenation: |F|^k members over
    n*k coordinates.  Freeness is preserved in the mod-D setting (a triple
    of k-tuples that is distinct somewhere has a two-equal coordinate
    there); the binary predicate is not preserved by concatenation, so
    binary families are rejected."""
    if k < 1:
        raise ValueError("power must be at least 1")
    if family.setting == BINARY:
        raise ValueError("tensor powering applies to mod-D families only")
    if len(family) ** k > max_size:
        raise ValueError(f"|F|^{k} exceeds {max_size} members")
    members = []
    for combo in itertools.product(family.members, repeat=k):
        coords = tuple(itertools.chain.from_iterable(m.coords for m in combo))
        members.append(DVector(family.n * k, family.D, coords))
    return Family(MOD, family.n * k, family.D, tuple(members))


def validate_against_bounds(result: SearchResult, cfg: SearchConfig) -> dict:
    """Compare a search maximum with the proved closed-form bounds; a
    violation would mean a bug, so it raises."""
    report = {
        "setting": cfg.setting,
        "n": cfg.n,
        "D": cfg.D,
        "max": result.max_size,
        "optimal": result.optimal,
    }
    if cfg.setting == BINARY:
        bound = bounds.subset_family_bound(cfg.n)
        report["bound"] = bound
        report["bound_name"] = "family-count"
        if result.max_size > bound:
            raise AssertionError("search exceeded the proved family bound")
    elif cfg.setting == MOD:
        bound = bounds.mod_count_bound(cfg.n, cfg.D)
        report["bound"] = bound
        report["bound_name"] = "mod-slice-count"
        if result.max_size > bound:
            raise AssertionError("search exceeded the proved slice-count bound")
        if not bounds.search_max_within_growth(result.max_size, cfg.n, cfg.D):
            raise AssertionError("search exceeded 3 * growth-rate^n")
        report["within_growth_power"] = True
    else:
        bound = 3**cfg.n
        report["bound"] = bound
        report["bound_name"] = "universe-size"
        if result.max_size > bound:
            raise AssertionError("search exceeded the universe size")
    return report
