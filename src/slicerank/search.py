"""Exact extremal search at small instance sizes.

Branch-and-bound over the candidates, the M^n coordinate tuples of
range(M)^n in lexicographic order; a tuple is also a `setsys.Family`
member as it stands, so the witness family holds candidates themselves.  A
partial family is an increasing tuple of candidate indices, and the search
visits partials in depth-first preorder, which is lexicographic order on the
index tuples: the first family found at each size is the lexicographically
least one, so the reported witness is the least maximum family.

Russian doll levels (Verfaillie, Lemaitre and Schiex, AAAI 1996): the
search solves dimensions k = 0, 1, ..., n in turn.  Level k runs over the
first M^k candidates, the vectors whose leading n - k coordinates are 0,
and starts from an empty best family, so it finds the least maximum family
of its own dimension.  Its maximum m(k) bounds level k + 1 through slices:
fixing coordinate j to value v leaves a free family of dimension k, so a
node whose pool P (its members and the candidates still open to it)
satisfies sum_v min(m(k), |P & S_jv|) <= |best| for some coordinate j, with
S_jv the candidates whose coordinate j is v, cannot beat the best family
and is cut.  |P| <= |best| is the plain size cut.  Both are retested at
every sibling, and neither drops a branch that could beat the best.  A
slice bound reads M - 1 popcounts per coordinate, as within the level the
last value's count is |P| minus the others'.  Once |P| > |best| it fails
if m > |best|, the sum being at least min(m, |P|); in the binary setting,
with c = |P & S_j0| and t = |best| - m, it holds iff t >= m or
min(c, |P| - c) <= t.  One node budget covers all levels, and `nodes`
counts every level.

Sets of candidates are Python ints used as bitmasks.  Each node carries its
alive mask: the candidates above its largest member that can still join it.
Admitting a candidate is one bit test.  Adding candidate b removes from the
child's mask, for each member a, the kill mask of the pair: the candidates
c > b for which (a, b, c) is a forbidden triple, one `setsys.completions`
call over the candidates' value masks.  Kill masks are computed on first
use and cached, at most C(N, 2) of them for N candidates, and shared by the
levels.

Symmetry reduction is lex-leader pruning over a generating set (Crawford,
Ginsberg, Luks and Roy, KR 1996): a partial family is kept only if no
generator maps it to a lex-smaller family.  The generators are the adjacent
coordinate swaps and, in the mod-D and capset settings, the adjacent value
swaps at one coordinate, which preserve the respective predicates.  Over
F_3 (capset, and mod-D at D = 3, whose predicate is the same: a distinct
triple is a sunflower iff x + y + z = 0 at every coordinate) they also
include the transvections x_i <- x_i + x_j, and so generate the affine
group AGL(n, 3), which preserves that predicate.  Each is stored as the
permutation it induces on candidate indices; since candidate order is
lexicographic order, comparing sorted index images is comparing sorted
member images.  The masks of that test are bit-reversed, candidate j at
bit N - 1 - j for the N = M^k candidates of level k, and so are the
generators' entries.  Of two index sets of equal size, the one holding the
lowest index where they differ has the lex-smaller sorted tuple; reversed,
that index is their highest differing bit, so that set is the larger int.
The search keeps, for every generator, the reversed mask of the current
partial's image, and rejects an extension when some extended image is
larger than the extended partial: one integer compare per generator.  An
accepted one's image masks become the child's.  If a symmetry g maps a
prefix of the lex-least maximum family F to a lex-smaller set, it maps F to
a lex-smaller maximum family, so testing any set of symmetries never loses
the optimum.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, replace
from random import Random

from . import bounds
from .setsys import (
    BINARY,
    CAPSET,
    MOD,
    Family,
    completions,
    value_masks,
)
from .tensor import ResourceLimitError

_MAX_SYMMETRIC_CANDIDATES = 2**16  # the symmetry table's entries are two bytes


@dataclass(frozen=True)
class SearchConfig:
    setting: str  # binary | mod-d | capset
    n: int
    D: int | None = None
    node_budget: int = 2_000_000
    symmetry: bool = True

    def __post_init__(self):
        if self.setting not in (BINARY, MOD, CAPSET):
            raise ValueError(f"unknown setting {self.setting!r}")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.setting == BINARY and self.D is not None:
            raise ValueError("the binary setting takes no D")
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
            "witness": [self.witness.line(m) for m in self.witness],
        }


def _candidates(cfg: SearchConfig):
    return list(itertools.product(range(cfg.alphabet), repeat=cfg.n))


def _rule(cfg: SearchConfig) -> str:
    """The setting's `setsys.completions` rule: over F_3 the mod-D rule is
    the capset rule x + y + z = 0."""
    return MOD if cfg.setting == CAPSET else cfg.setting


def _bad_triple(cfg_setting: str, x, y, z) -> bool:
    """Is (x, y, z) a forbidden triple?  The triple-by-triple oracle of
    `brute_force_max`, kept apart from `setsys.completions` on purpose."""
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


def _symmetry_generators(cfg: SearchConfig) -> list[array]:
    """The generators as permutations of candidate indices, each entry
    stored bit-reversed (N - 1 - g(x) for N candidates, as the canonicity
    masks are): the n - 1 coordinate swaps (i, i+1); outside the binary
    setting, the n(M - 1) value swaps (a, a+1) at one coordinate (every
    permutation of F_3 is affine); and over F_3, the n(n - 1) transvections
    x_i <- x_i + x_j, which with the others generate AGL(n, 3)."""
    q, n = cfg.alphabet, cfg.n
    cands = _candidates(cfg)
    top = len(cands) - 1
    w = [q ** (n - 1 - i) for i in range(n)]  # candidate index = sum c[i] * w[i]
    gens = [
        array("H", [top - x - (c[i + 1] - c[i]) * (w[i] - w[i + 1]) for x, c in enumerate(cands)])
        for i in range(n - 1)
    ]
    if cfg.setting != BINARY:
        gens += [
            array("H", [
                top - x - ((c[i] == a) - (c[i] == a + 1)) * w[i] for x, c in enumerate(cands)
            ])
            for i in range(n)
            for a in range(q - 1)
        ]
    if q == 3:  # capset, or mod-D at D = 3: the same predicate
        gens += [
            array("H", [top - x - ((c[i] + c[j]) % 3 - c[i]) * w[i] for x, c in enumerate(cands)])
            for i in range(n)
            for j in range(n)
            if i != j
        ]
    return gens


def _canonical_images(images: list, group, r: int, i: int):
    """The reversed image masks of the partial extended by candidate i, or
    None if one is lex-smaller than it.  r is the extended partial's reversed
    mask and images[g] the reversed mask of group[g] applied to the partial."""
    out = []
    for x, perm in zip(images, group):
        x |= 1 << perm[i]
        if x > r:  # the image holds the lowest differing candidate, its highest bit
            return None
        out.append(x)
    return out


class _Budget(Exception):
    pass


class BoundViolationError(RuntimeError):
    """A search result exceeds a proved bound, which means a bug."""


class _Search:
    """One search's nodes and kill masks, shared by its levels."""

    def __init__(self, cfg: SearchConfig, cands):
        self.cfg = cfg
        self.cands = cands
        self.masks = value_masks(cands, cfg.n)
        self.rule = _rule(cfg)
        self.kills: dict[int, int] = {}
        self.binary = cfg.setting == BINARY
        self.nodes = 0

    def level(self, k: int, sub_max: int, group) -> None:
        """Leave in `best` the least maximum family of dimension k, given
        m(k - 1) = `sub_max` and the level's generators (or None)."""
        self.best: tuple = ()
        self.sub_max = sub_max
        self.group = group
        self.top = self.cfg.alphabet**k - 1
        # per coordinate j of the level, the masks S_jv of the first M - 1 values
        # v: within the level the last value's mask is the rest of the pool
        slices = [list(col.values())[:-1] for col in self.masks[self.cfg.n - k:]]
        self.slices = [col[0] for col in slices] if self.binary else slices
        self._visit(())
        self.run((), 0, 0, None if group is None else [0] * len(group), (2 << self.top) - 1)

    def _visit(self, partial: tuple):
        self.nodes += 1
        if self.nodes > self.cfg.node_budget:
            raise _Budget
        # preorder is lex order, so the first family of a size is the least
        if len(partial) > len(self.best):
            self.best = partial

    def _kill(self, a: int, b: int) -> int:
        """Mask of the candidates c > b that form a forbidden triple with a, b,
        stored in `kills` under the key a * len(cands) + b that `run` reads."""
        total = len(self.cands)
        above = ((1 << total) - 1) & -(2 << b)
        mask = completions(self.rule, self.masks, self.cands[a], self.cands[b], above)
        self.kills[a * total + b] = mask
        return mask

    def _beaten(self, pool: int) -> bool:
        """Does the size cut or a slice bound show that no free family within
        `pool` beats the best one?"""
        size, m = len(self.best), self.sub_max
        count = pool.bit_count()
        if count <= size:
            return True
        # as count > size, sum_v min(m, c_v) >= min(m, count) > size if m > size
        t = size - m
        if t < 0:
            return False
        if self.binary:
            # min(m, c) + min(m, count - c) <= size, with c the count at value
            # 0: iff t >= m or min(c, count - c) <= t
            if t >= m:
                return bool(self.slices)
            for s in self.slices:
                c = (pool & s).bit_count()
                if c <= t or count - c <= t:
                    return True
            return False
        for col in self.slices:
            bound, rest = 0, count
            for s in col:
                c = (pool & s).bit_count()
                rest -= c
                bound += c if c < m else m
            if bound + (rest if rest < m else m) <= size:
                return True
        return False

    def run(self, partial: tuple, q: int, r: int, images, alive: int) -> None:
        """Extend `partial` (mask q, reversed mask r and images) by each of
        `alive`, the candidates above its last member that can join it, in
        increasing order, retesting the cut as `rest` shrinks and `best` grows."""
        group, kills, total, top = self.group, self.kills, len(self.cands), self.top
        ri, child = r, None  # without generators, the child's are unused
        rest = alive
        while rest:
            if self._beaten(q | rest):
                break
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            if group is not None:
                ri = r | 1 << top - i
                child = _canonical_images(images, group, ri, i)
                if child is None:
                    continue
            dead = 0
            for a in partial:
                mask = kills.get(a * total + i)
                dead |= self._kill(a, i) if mask is None else mask
            extended = partial + (i,)
            self._visit(extended)
            self.run(extended, q | low, ri, child, rest & ~dead)


def _to_family(cfg: SearchConfig, members) -> Family:
    D = None if cfg.setting == BINARY else cfg.alphabet
    return Family(_rule(cfg), cfg.n, D, tuple(members))


def max_free_family(cfg: SearchConfig) -> SearchResult:
    """Size of the largest free family for the configured predicate, by
    exhaustive branch-and-bound over the dimensions 0, 1, ..., n in turn;
    the witness is the lexicographically least maximum family.  If a budget
    runs out the largest family found at any level is returned (ties going
    to the higher level) with the optimality flag off."""
    if cfg.symmetry and cfg.alphabet**cfg.n > _MAX_SYMMETRIC_CANDIDATES:
        raise ResourceLimitError(
            f"a symmetric search over {cfg.alphabet**cfg.n} candidates would overflow the"
            f" symmetry table's indices (at most {_MAX_SYMMETRIC_CANDIDATES});"
            " search without symmetry"
        )
    cands = _candidates(cfg)
    search = _Search(cfg, cands)
    best: tuple = ()
    complete = True
    try:
        for k in range(cfg.n + 1):
            # no seeding from level k - 1: a tie would keep its witness
            group = _symmetry_generators(replace(cfg, n=k)) if cfg.symmetry else None
            search.level(k, len(best), group)
            best = search.best
    except _Budget:
        complete = False
        if len(search.best) >= len(best):
            best = search.best
    # level-k indices name top-level candidates with n - k leading zeros
    members = [cands[i] for i in best]
    return SearchResult(len(members), complete, _to_family(cfg, members), search.nodes)


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
    masks = value_masks(cands, cfg.n)
    rule = _rule(cfg)
    order = list(range(len(cands)))
    Random(seed).shuffle(order)
    alive = (1 << len(cands)) - 1  # the candidates no member pair rules out
    members: list = []
    for c in order:
        if alive >> c & 1:
            for a in members:
                alive &= ~completions(rule, masks, cands[a], cands[c], alive)
            members.append(c)
    return _to_family(cfg, [cands[c] for c in members])


def validate_against_bounds(result: SearchResult, cfg: SearchConfig) -> tuple[int, str]:
    """(bound, name) of the proved closed-form bound on the search maximum; a
    violation would mean a bug, so it raises BoundViolationError.

    The mod-D bound 3 * sum_{k <= 2n/3} C(n,k)(D-1)^k needs no growth-rate
    check beside it: at t = 2/(D-1) <= 1, sum_{k <= 2n/3} C(n,k)(D-1)^k <=
    t^(-2n/3) (1 + (D-1)t)^n = g_D^n, so a maximum within it is within
    3 * g_D^n."""
    if cfg.setting == BINARY:
        bound, name = bounds.subset_family_bound(cfg.n), "family-count"
        message = "search exceeded the proved family bound"
    elif cfg.setting == MOD:
        bound, name = bounds.mod_count_bound(cfg.n, cfg.D), "mod-slice-count"
        message = "search exceeded the proved slice-count bound"
    else:
        bound, name = 3**cfg.n, "universe-size"
        message = "search exceeded the universe size"
    if result.max_size > bound:
        raise BoundViolationError(message)
    return bound, name
