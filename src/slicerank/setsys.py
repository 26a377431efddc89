"""Set families and their sunflower/capset predicates.

A member is a plain tuple of n coordinates.  In the binary setting the
coordinates are 0/1, a subset of {1,...,n} read as its indicator vector;
in the mod-D setting they lie in range(D), a point of (Z/DZ)^n.  The
`Family` holds the setting, n and D once for all its members.  A distinct
triple is a sunflower in the binary setting iff no coordinate shows exactly
two ones, and in the mod-D setting iff every coordinate is all-equal or
all-distinct (i.e. no coordinate has exactly two equal entries).
Everything here is an immutable value; all operations are pure.

Every triple predicate is a per-coordinate constraint on the third member
once the first two are fixed, so the family-level searches run over pairs:
`value_masks` indexes the members by digit, and `completions` turns a pair
into the bitmask of the members that complete a forbidden triple with it.
`completions` is the only place the rule is stated.  The search calls it per
pair; so does the whole-family scan `find_sunflower` on a small family.
On a larger one it calls it once per coordinate and digit pair, to build
pair tables whose AND holds, for one member a, every completing pair
(b, c) at once, so a member costs n big-int ANDs a window rather than |F|
calls.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Sequence

BINARY = "binary"
MOD = "mod-d"
CAPSET = "capset"  # a search setting: capsets of F_3^n, whose triple rule is MOD at D = 3


class FamilyFormatError(ValueError):
    """Raised when a family text file cannot be parsed."""


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class Family:
    """A finite family of pairwise-distinct coordinate tuples, stored sorted.

    Each member is a tuple of n entries in range(2) (binary) or range(D)
    (mod-D).  Duplicate members are rejected outright: every sunflower
    notion here quantifies over distinct sets, so a multiset family is never
    meaningful.
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
        members = tuple(self.members)  # any iterable, read more than once below
        digits = range(2 if self.setting == BINARY else self.D)
        # checked in bulk; the loop runs only when some member is at fault,
        # to name the first one
        try:
            seen = set(members)
            ok = (len(seen) == len(members)
                  and set(map(type, members)) <= {tuple}
                  and set(map(len, members)) <= {self.n}
                  and all(map(digits.__contains__, set(itertools.chain.from_iterable(members)))))
        except TypeError:  # an unhashable member or coordinate
            ok = False
        if not ok:
            seen = set()
            for m in members:
                if type(m) is not tuple or len(m) != self.n:
                    raise ValueError(f"member {m!r} is not a tuple of n={self.n} coordinates")
                if not all(map(digits.__contains__, m)):
                    raise ValueError(f"member {m} has a coordinate outside {digits}")
                if m in seen:
                    raise ValueError(f"duplicate member {m}")
                seen.add(m)
        object.__setattr__(self, "members", tuple(sorted(seen)))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def line(self, member) -> str:
        """A member as a line of the text format: 0101 resp. 0,1,2."""
        return ("" if self.setting == BINARY else ",").join(map(str, member))

    def to_text(self) -> str:
        if self.n == 0 and self.members:
            raise ValueError("the zero-coordinate member has no line in the text format")
        return "".join(self.line(m) + "\n" for m in self.members)


# a member line once its comment and surrounding whitespace are cut
_BINARY_LINE = re.compile("[01]+")
_MOD_LINE = re.compile("[0-9]+(?:,[0-9]+)*")
# an ASCII digit's byte to its value
_DIGIT_BYTES = bytes.maketrans(b"0123456789", bytes(range(10)))


def parse_family(text: str, D: int | None = None) -> Family:
    """Parse the family text format: one member per line, binary members as
    0/1 strings, mod-D members as comma-separated digits; '#' starts a
    comment and blank lines are ignored.  Once its comment and surrounding
    whitespace are cut, a binary line is exactly `[01]+` and a mod-D line
    exactly `[0-9]+(,[0-9]+)*` (ASCII digits, no signs, spaces or
    underscores).  Every line must have as many coordinates as the first,
    and no line may repeat another's member.

    The setting is inferred: an explicit D or a comma in some member means
    mod-D (single-coordinate mod-D files therefore need an explicit D),
    otherwise binary.  For mod-D input without an explicit D the alphabet
    size is taken as max(coordinate) + 1, but never below 3.  Empty text is
    the empty family at n = 0.
    """
    rows = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.split("#", 1)[0].strip())]
    lines = [line for _, line in rows]
    if not lines:
        return Family(MOD if D is not None else BINARY, 0, D, ())

    setting = MOD if D is not None or any("," in line for line in lines) else BINARY
    if setting == BINARY:
        if not all(map(_BINARY_LINE.fullmatch, lines)):
            lineno, line = next(row for row in rows if not _BINARY_LINE.fullmatch(row[1]))
            raise FamilyFormatError(f"line {lineno}: expected a 0/1 string, got {line!r}")
        members = [tuple(line.encode().translate(_DIGIT_BYTES)) for line in lines]
    else:
        if not all(map(_MOD_LINE.fullmatch, lines)):
            lineno, line = next(row for row in rows if not _MOD_LINE.fullmatch(row[1]))
            raise FamilyFormatError(_mod_line_error(lineno, line))
        members = [tuple(line.encode().translate(_DIGIT_BYTES, b","))
                   if len(line) == 2 * line.count(",") + 1  # every field one digit
                   else tuple(map(int, line.split(","))) for line in lines]
        if D is None:
            D = max(3, 1 + max(map(max, members)))
    n = len(members[0])
    try:
        return Family(setting, n, D, members)
    except ValueError:
        # name the line of a member at fault, in the order of the line by
        # line checks: every line's range first, then each line's length
        # and novelty
        if setting == MOD:
            for (lineno, _), m in zip(rows, members):
                if max(m) >= D:
                    raise FamilyFormatError(f"line {lineno}: coordinate >= D={D}") from None
        seen = set()
        for (lineno, line), m in zip(rows, members):
            if len(m) != n:
                raise FamilyFormatError(
                    f"line {lineno}: expected {n} coordinates, got {len(m)}") from None
            if m in seen:
                raise FamilyFormatError(f"line {lineno}: duplicate member {line}") from None
            seen.add(m)
        raise


def _mod_line_error(lineno: int, line: str) -> str:
    # a line that int() also refuses, or reads with a negative field, keeps
    # the message it had before the line grammar was checked
    try:
        negative = min(map(int, line.split(","))) < 0
    except ValueError:
        negative = False
    if negative:
        return f"line {lineno}: negative coordinate"
    return f"line {lineno}: expected comma-separated digits, got {line!r}"


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


def is_sunflower(sets: Sequence[tuple[int, ...]]) -> bool:
    """True iff the k >= 2 distinct subsets, as 0/1 tuples, have all
    pairwise intersections equal (the common core)."""
    if len(sets) < 2:
        raise ValueError("a sunflower needs at least two sets")
    if len({len(s) for s in sets}) != 1:
        raise ValueError("mismatched ground-set sizes")
    if any(c not in (0, 1) for s in sets for c in s):
        raise ValueError("subsets are 0/1 tuples")
    if len(set(sets)) != len(sets):
        raise ValueError("sunflower members must be distinct")

    def meet(a, b):
        return tuple(p & q for p, q in zip(a, b))

    core = meet(sets[0], sets[1])
    return all(meet(a, b) == core for a, b in itertools.combinations(sets, 2))


def triple_is_sunflower(setting: str, x, y, z) -> bool:
    """Coordinate test for a distinct triple of coordinate tuples.

    Binary: sunflower iff no coordinate has exactly two ones.  Mod-D:
    sunflower iff every coordinate is all-equal or all-distinct.
    """
    if setting not in (BINARY, MOD):
        raise ValueError(f"unknown setting {setting!r}")
    if len(x) != len(y) or len(x) != len(z):
        raise ValueError("mismatched dimensions")
    if x == y or y == z or x == z:
        raise ValueError("triple members must be pairwise distinct")
    if setting == BINARY:
        return all(a + b + c != 2 for a, b, c in zip(x, y, z))
    return all((a == b) + (b == c) + (a == c) != 1 for a, b, c in zip(x, y, z))


# bits of a pair table in find_sunflower: a window holds at most this many
# (row, column) bits, 8 KB a table, however many members the family has
_PAIR_BITS = 1 << 16
# families of fewer members skip the pair tables: on 3-12 members (n <= 8,
# D <= 5) the tables' set-up costs more than calling `completions` per pair
_PAIR_TABLES_FROM = 14


def _pair_tables(rule: str, members, masks: list[dict[int, int]], lo: int, hi: int) -> list[dict]:
    """tables[i][v] has bit (b - lo)*N + c set, for the rows b in [lo, hi)
    and every member c, when c completes (v, members[b][i]) at coordinate
    i.  It is the OR over the digits p of spread(p) * completions(...,
    (v,), (p,), ...), where spread(p) has bit (b - lo)*N for each row b with
    digit p there: a column mask is below 2^N, so the product puts it in
    exactly those rows."""
    N = len(members)
    full = (1 << N) - 1
    spreads: list[dict[int, int]] = [{} for _ in masks]
    for b in range(lo, hi):
        bit = 1 << (b - lo) * N
        for spread, p in zip(spreads, members[b]):
            spread[p] = spread.get(p, 0) | bit
    tables = []
    for col, spread in zip(masks, spreads):
        table = {}
        for v in col:
            t = 0
            for p, s in spread.items():
                t |= s * completions(rule, [col], (v,), (p,), full)
            table[v] = t
        tables.append(table)
    return tables


def find_sunflower(family: Family):
    """Lexicographically least sunflower triple in the family, or None.

    Members are stored sorted, so index order is lex order, and the least
    triple is the one a scan of `itertools.combinations` would return
    first: the least index triple (a, b, c) with a < b < c and c among the
    `completions` of (a, b).

    A family of fewer than _PAIR_TABLES_FROM members goes over the pairs
    (a, b) in order and takes the lowest completion c > b of the first
    pair that has one: at most |F|^2 / 2 `completions` calls of n ANDs
    each, which below that size cost less than building the tables.

    A larger family goes by pair tables, its rows b in windows of
    max(1, _PAIR_BITS // N).  In a window the AND of member a's
    `_pair_tables` holds completions(x_a, x_b) in row b, and its lowest bit
    in a column c > b of a row b > a is a's least (b, c) there.  Windows go
    in order, and a later window scans only the members below the best a
    so far, so a member's first hit is its least pair.

    A window costs n D^2 table products and one AND per member and
    coordinate, each over its rows' N-bit masks at once, up to _PAIR_BITS
    bits.  There are about max(1, |F|^2 / _PAIR_BITS) windows, so the bit
    work grows as |F|^3 n, as a triple scan's does, but it runs a machine
    word at a time inside big-int ANDs: |F| n ANDs a window, not |F|^3
    triples of n coordinates."""
    members = family.members
    N = len(members)
    if N < 3:
        # no triple, so no masks or tables either
        return None
    masks = value_masks(members, family.n)
    if N < _PAIR_TABLES_FROM:
        full = (1 << N) - 1
        for a, b in itertools.combinations(range(N), 2):
            m = completions(family.setting, masks, members[a], members[b], full & -(2 << b))
            if m:
                return members[a], members[b], members[(m & -m).bit_length() - 1]
        return None
    rows = max(1, _PAIR_BITS // N)
    # the members a still scanned are those below `top`: a < b < c needs
    # a < N - 2, and once a triple is found only a lower a can beat it
    top = N - 2
    best = None
    for lo in range(0, N, rows):
        hi = min(N, lo + rows)
        stop = min(hi - 1, top)
        if stop <= 0:
            continue
        tables = _pair_tables(family.setting, members, masks, lo, hi)
        # row b keeps the columns c > b
        allowed = int("".join(["1" * (N - b - 1) + "0" * (b + 1)
                               for b in reversed(range(lo, hi))]), 2)
        for a in range(stop):
            m = allowed
            if a >= lo:
                # only the rows b > a
                m &= -(1 << (a + 1 - lo) * N)
            for table, v in zip(tables, members[a]):
                m &= table[v]
            if m:
                k = (m & -m).bit_length() - 1
                best = (a, lo + k // N, k % N)
                top = a
                break
    return None if best is None else tuple(members[i] for i in best)


def layer_split(family: Family) -> dict[int, Family]:
    """Partition a binary family by weight; constant weight makes each layer
    an antichain (no member properly contains another)."""
    if family.setting != BINARY:
        raise ValueError("layer_split applies to binary families")
    layers: dict[int, list] = {}
    for m in family.members:
        layers.setdefault(sum(m), []).append(m)
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
    encoded = tuple(tuple(_PAIR_TO_SYMBOL[p] for p in zip(m[::2], m[1::2])) for m in family)
    return Family(MOD, family.n // 2, 4, encoded)


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
        if all((s == 3) == (c == 1) for s, c in zip(m, xc)):
            picked.append(tuple(s for s, c in zip(m, xc) if c == 0))
    return Family(MOD, encoded.n - sum(xc), 3, tuple(picked))
