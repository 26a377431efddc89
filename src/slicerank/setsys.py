"""Set families and their sunflower/capset predicates.

Subsets of {1,...,n} are bit vectors in {0,1}^n; the mod-D setting works
with coordinate tuples in (Z/DZ)^n.  A distinct triple is a sunflower in
the binary setting iff no coordinate shows exactly two ones, and in the
mod-D setting iff every coordinate is all-equal or all-distinct (i.e. no
coordinate has exactly two equal entries).  Everything here is an immutable
value; all operations are pure.

Every triple predicate is a per-coordinate constraint on the third member
once the first two are fixed, so the family-level searches run over pairs:
`value_masks` indexes the members by digit, and `completions` turns a pair
into the bitmask of the members that complete a forbidden triple with it.
`slicerank.tensor` and `slicerank.search` use the same two functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

BINARY = "binary"
MOD = "mod-d"
CAPSET = "capset"  # a search setting: capsets of F_3^n, whose triple rule is MOD at D = 3


class FamilyFormatError(ValueError):
    """Raised when a family text file cannot be parsed."""


# ---------------------------------------------------------------------------
# vectors


@dataclass(frozen=True)
class SubsetVector:
    """A subset of {1,...,n} as a packed bit vector (bit i-1 <-> element i)."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ground-set size must be nonnegative")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bit vector out of range for n={self.n}")

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "SubsetVector":
        bits = 0
        for i, c in enumerate(coords):
            if c not in (0, 1):
                raise ValueError("binary coordinates must be 0 or 1")
            if c:
                bits |= 1 << i
        return cls(len(coords), bits)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.n))

    def to_line(self) -> str:
        return "".join(str(c) for c in self.coords)


@dataclass(frozen=True)
class DVector:
    """A point of (Z/DZ)^n."""

    n: int
    D: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.D < 2:
            raise ValueError("alphabet size must be at least 2")
        if len(self.coords) != self.n:
            raise ValueError("coordinate count must equal n")
        if any(not 0 <= c < self.D for c in self.coords):
            raise ValueError(f"coordinates must lie in [0, {self.D})")

    def to_line(self) -> str:
        return ",".join(str(c) for c in self.coords)


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class Family:
    """A finite family of pairwise-distinct vectors, stored sorted.

    Duplicate members are rejected outright: every sunflower notion here
    quantifies over distinct sets, so a multiset family is never meaningful.
    """

    setting: str
    n: int
    D: int | None
    members: tuple

    def __post_init__(self):
        if self.setting not in (BINARY, MOD):
            raise ValueError(f"unknown setting {self.setting!r}")
        if self.setting == BINARY and self.D is not None:
            raise ValueError("binary families carry no alphabet size")
        if self.setting == MOD and (self.D is None or self.D < 2):
            raise ValueError("mod-D families need D >= 2")
        by_coords = {}
        for m in self.members:
            if self.setting == BINARY:
                if not isinstance(m, SubsetVector) or m.n != self.n:
                    raise ValueError("members must be SubsetVectors of equal n")
            else:
                if not isinstance(m, DVector) or m.n != self.n or m.D != self.D:
                    raise ValueError("members must be DVectors of equal n and D")
            k = m.coords
            if k in by_coords:
                raise ValueError(f"duplicate member {m}")
            by_coords[k] = m
        object.__setattr__(self, "members", tuple(by_coords[k] for k in sorted(by_coords)))

    @classmethod
    def of(cls, members: Sequence) -> "Family":
        """Build a nonempty family, inferring the setting from the member
        type."""
        members = tuple(members)
        if not members:
            raise ValueError("an empty family has no member to infer its setting from")
        if isinstance(members[0], SubsetVector):
            return cls(BINARY, members[0].n, None, members)
        return cls(MOD, members[0].n, members[0].D, members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def to_text(self) -> str:
        return "".join(m.to_line() + "\n" for m in self.members)


def parse_family(text: str, D: int | None = None) -> Family:
    """Parse the family text format: one member per line, binary members as
    0/1 strings, mod-D members as comma-separated digits; '#' starts a
    comment and blank lines are ignored.

    The setting is inferred: an explicit D or a comma in some member means
    mod-D (single-coordinate mod-D files therefore need an explicit D),
    otherwise binary.  For mod-D input without an explicit D the alphabet
    size is taken as max(coordinate) + 1, but never below 3.  Empty text is
    the empty family at n = 0.
    """
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows:
        return Family(MOD if D is not None else BINARY, 0, D, ())

    members = []
    if D is None and not any("," in line for _, line in rows):
        for lineno, line in rows:
            if set(line) - {"0", "1"}:
                raise FamilyFormatError(f"line {lineno}: expected a 0/1 string, got {line!r}")
            members.append(SubsetVector.from_coords([int(c) for c in line]))
    else:
        coord_rows = []
        for lineno, line in rows:
            try:
                coords = tuple(int(p.strip()) for p in line.split(","))
            except ValueError:
                raise FamilyFormatError(
                    f"line {lineno}: expected comma-separated digits, got {line!r}"
                ) from None
            if any(c < 0 for c in coords):
                raise FamilyFormatError(f"line {lineno}: negative coordinate")
            coord_rows.append((lineno, coords))
        if D is None:
            D = max(3, 1 + max(max(c) for _, c in coord_rows))
        for lineno, coords in coord_rows:
            if any(c >= D for c in coords):
                raise FamilyFormatError(f"line {lineno}: coordinate >= D={D}")
            members.append(DVector(len(coords), D, coords))
    try:
        return Family.of(members)
    except ValueError as exc:
        raise FamilyFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# pair masks: each triple predicate as a per-coordinate constraint on z


# members per block in value_masks: a block's masks stay at most 128 bytes
_MASK_BLOCK = 1024


def value_masks(codes: Sequence[Sequence[int]], n: int) -> list[dict[int, int]]:
    """masks[i][v] is the bitmask of the indices j with codes[j][i] == v,
    for each value v that occurs at coordinate i."""
    # OR-ing each member's bit into a mask as long as all of codes copies the
    # mask per member, quadratic in len(codes); bits are set in masks local
    # to a block of members instead, and each is shifted into place once
    masks: list[dict[int, int]] = [{} for _ in range(n)]
    for start in range(0, len(codes), _MASK_BLOCK):
        block = [{} for _ in range(n)] if start else masks
        for j, code in enumerate(codes[start:start + _MASK_BLOCK]):
            bit = 1 << j
            for col, v in zip(block, code):
                col[v] = col.get(v, 0) | bit
        if start:
            for col, part in zip(masks, block):
                for v, m in part.items():
                    col[v] = col.get(v, 0) | m << start
    return masks


def completions(rule: str, masks: list[dict[int, int]], x, y, within: int) -> int:
    """The mask of the indices z in `within` (over the codes of `masks`)
    for which the triple (x, y, z) satisfies `rule`.  With (a, b) = (x_i,
    y_i), the rule fixes the digits z_i may take at each coordinate i:

    * BINARY: 0 if a != b, 1 if a = b = 1, any if a = b = 0 -- no
      coordinate holds exactly two ones;
    * MOD: a if a = b, neither a nor b otherwise -- no coordinate holds
      exactly two equal entries.  At D = 3 that digit is -(a + b) mod 3, so
      over F_3 the rule is x + y + z = 0, the progression (capset) rule.

    On distinct triples BINARY and MOD are `triple_is_sunflower`; on every
    triple, repeated members included, they say that T(x, y, z) != 0 for
    the tensors of `slicerank.tensor`.  Stops as soon as the mask is 0."""
    m = within
    if rule == BINARY:
        for col, a, b in zip(masks, x, y):
            if a != b:
                m &= col.get(0, 0)
            elif a:
                m &= col.get(1, 0)
            else:
                continue
            if not m:
                break
    elif rule == MOD:
        for col, a, b in zip(masks, x, y):
            if a == b:
                m &= col.get(a, 0)
            else:
                m &= ~(col.get(a, 0) | col.get(b, 0))
            if not m:
                break
    else:
        raise ValueError(f"unknown triple rule {rule!r}")
    return m


# ---------------------------------------------------------------------------
# sunflower predicates


def is_sunflower(sets: Sequence[SubsetVector]) -> bool:
    """True iff the k >= 2 distinct subsets have all pairwise intersections
    equal (the common core)."""
    if len(sets) < 2:
        raise ValueError("a sunflower needs at least two sets")
    n = sets[0].n
    if any(s.n != n for s in sets):
        raise ValueError("mismatched ground-set sizes")
    if len({s.bits for s in sets}) != len(sets):
        raise ValueError("sunflower members must be distinct")
    core = sets[0].bits & sets[1].bits
    return all(a.bits & b.bits == core for a, b in itertools.combinations(sets, 2))


def triple_is_sunflower(x, y, z) -> bool:
    """Coordinate test for a distinct triple.

    Binary: sunflower iff no coordinate has exactly two ones.  Mod-D:
    sunflower iff every coordinate is all-equal or all-distinct.
    """
    if isinstance(x, SubsetVector):
        if x.n != y.n or x.n != z.n:
            raise ValueError("mismatched dimensions")
        if x == y or y == z or x == z:
            raise ValueError("triple members must be pairwise distinct")
        pairs = (x.bits & y.bits) | (y.bits & z.bits) | (x.bits & z.bits)
        return pairs & ~(x.bits & y.bits & z.bits) == 0
    if x.n != y.n or x.n != z.n or x.D != y.D or x.D != z.D:
        raise ValueError("mismatched dimensions")
    if x == y or y == z or x == z:
        raise ValueError("triple members must be pairwise distinct")
    for a, b, c in zip(x.coords, y.coords, z.coords):
        equal = (a == b) + (b == c) + (a == c)
        if equal == 1:
            return False
    return True


def find_sunflower(family: Family):
    """Lexicographically least sunflower triple in the family, or None.

    Members are stored sorted, so index order is lex order.  For each pair
    a < b in that order, `completions` gives the c > b that make (a, b, c)
    a sunflower in one mask; the lowest bit of the first nonzero mask is the
    least triple, the one a scan of `itertools.combinations` would return
    first.  That is O(|F|^2 n) mask operations instead of |F|^3 triples."""
    members = family.members
    codes = [m.coords for m in members]
    masks = value_masks(codes, family.n)
    full = (1 << len(codes)) - 1
    for a, x in enumerate(codes):
        for b in range(a + 1, len(codes) - 1):
            third = completions(family.setting, masks, x, codes[b], full & -(2 << b))
            if third:
                return members[a], members[b], members[(third & -third).bit_length() - 1]
    return None


def layer_split(family: Family) -> dict[int, Family]:
    """Partition a binary family by weight; constant weight makes each layer
    an antichain (no member properly contains another)."""
    if family.setting != BINARY:
        raise ValueError("layer_split applies to binary families")
    layers: dict[int, list] = {}
    for m in family.members:
        layers.setdefault(m.weight, []).append(m)
    return {w: Family(BINARY, family.n, None, tuple(ms)) for w, ms in sorted(layers.items())}


# ---------------------------------------------------------------------------
# capsets


def is_capset(family: Family) -> bool:
    """No distinct triple with x + y + z = 0 mod 3 (a three-term arithmetic
    progression): over F_3 that is no sunflower."""
    if family.setting != MOD or family.D != 3:
        raise ValueError("capset predicates require the mod-3 setting")
    return find_sunflower(family) is None


# ---------------------------------------------------------------------------
# the pair encoding {0,1}^(2n) <-> {0,1,2,3}^n

_PAIR_TO_SYMBOL = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}


def pair_encode(family: Family) -> Family:
    """Encode a binary family over 2n coordinates into {0,1,2,3}^n, one
    symbol per consecutive coordinate pair, as a mod-4 family."""
    if family.setting != BINARY:
        raise ValueError("pair_encode applies to binary families")
    if family.n % 2:
        raise ValueError("pair_encode needs an even number of coordinates")
    half = family.n // 2
    encoded = []
    for m in family.members:
        c = m.coords
        encoded.append(DVector(half, 4, tuple(_PAIR_TO_SYMBOL[p] for p in zip(c[::2], c[1::2]))))
    return Family(MOD, half, 4, tuple(encoded))


def layer_extract(encoded: Family, x) -> Family:
    """Members whose 3-symbols sit exactly at the support of x, with those
    coordinates deleted and the rest read as F_3 values."""
    xc = tuple(x)
    if len(xc) != encoded.n:
        raise ValueError("selector dimension mismatch")
    if any(c not in (0, 1) for c in xc):
        raise ValueError("selector must be a 0/1 vector")
    picked = []
    for m in encoded.members:
        if all((s == 3) == (c == 1) for s, c in zip(m.coords, xc)):
            rest = tuple(s for s, c in zip(m.coords, xc) if c == 0)
            picked.append(DVector(len(rest), 3, rest))
    return Family(MOD, encoded.n - sum(xc), 3, tuple(picked))
