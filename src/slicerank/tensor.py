"""The coordinate-product tensors, their slice decompositions, and size
certificates for diagonal restrictions.

Both settings share one shape.  A three-variable function T is built as a
product of per-coordinate factors chosen so that T is nonzero exactly on
the triples a sunflower-free family cannot distinguish from the diagonal:

* binary: T(x,y,z) = prod_i (2 - x_i - y_i - z_i), which vanishes iff some
  coordinate shows exactly two ones;
* mod-D:  T(x,y,z) = prod_i ([x_i=y_i] + [y_i=z_i] + [x_i=z_i] - 1), which
  vanishes iff some coordinate has exactly two equal entries.

Expanding the product writes T as a sum of separable terms (coefficient
times three single-variable factors: monomials in the binary setting,
characters of Z/DZ in the mod-D setting).  Grouping the terms by a factor
of low degree / few nontrivial characters packs the sum into slices.  On a
family where T is diagonal, the number of slices bounds the family size --
that step (slice rank of a diagonal tensor equals the support size) is used
as a trusted theorem.  T is diagonal on every sunflower-free family (on each
weight layer in the binary setting), so a certificate needs only
`find_sunflower` and the slice count; `check_diagonal` is the pointwise
reference scan of that lemma.

All evaluation here is exact: integers in the binary setting, cyclotomic
integers over a D-power denominator in the mod-D setting.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

from .bounds import binomial_tail, mod_count_bound, subset_family_bound
from .exactnum import reduce_power_vector
from .setsys import (
    BINARY,
    MOD,
    Family,
    find_sunflower,
    layer_split,
)

DEFAULT_MAX_TERMS = 1 << 20
DEFAULT_POINT_CAP = 1_000_000
DEFAULT_WORK_CAP = 30_000_000

_OTHER_AXES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


class ResourceLimitError(RuntimeError):
    """An operation would exceed its configured size cap."""


class CertificationError(Exception):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotSunflowerFree(CertificationError):
    pass


# ---------------------------------------------------------------------------
# pointwise evaluation


def _product(setting: str, x, y, z) -> int:
    """T at three coordinate tuples: the product over coordinates of
    2 - a - b - c (binary) resp. [a=b] + [b=c] + [a=c] - 1 (mod-D)."""
    binary = setting == BINARY
    value = 1
    for a, b, c in zip(x, y, z):
        value *= 2 - a - b - c if binary else (a == b) + (b == c) + (a == c) - 1
        if not value:
            break
    return value


def tensor_value(setting: str, x, y, z) -> int:
    """Exact value of T at a triple of coordinate tuples of one length."""
    if setting not in (BINARY, MOD):
        raise ValueError(f"unknown setting {setting!r}")
    if len(x) != len(y) or len(x) != len(z):
        raise ValueError("mismatched dimensions")
    return _product(setting, x, y, z)


# ---------------------------------------------------------------------------
# symbolic expansion

# factor encoding: binary factors are exponent bitmasks (bit i <-> coordinate
# i+1); mod-D factors are base-D packed character-index vectors (digit at
# place D^i <-> coordinate i+1)


@dataclass(frozen=True)
class TermSum:
    """T expanded into separable terms (num, fx, fy, fz) over a common
    denominator: 1 in the binary setting, D^n in the mod-D setting."""

    setting: str
    n: int
    D: int | None
    denominator: int
    terms: tuple[tuple[int, int, int, int], ...]


def _choice_count(setting: str, D: int | None) -> int:
    """len(_choices(setting, D)), with its checks, building no table: the
    caps are checked on it before a table of 3(D-1) + [D != 3] rows is."""
    if setting == BINARY:
        if D is not None:
            raise ValueError("the binary setting takes no D")
        return 4
    if setting != MOD:
        raise ValueError(f"unknown setting {setting!r}")
    if D is None or D < 3:
        raise ValueError("the mod-D expansion needs D >= 3")
    return 3 * (D - 1) + (D != 3)


def _choices(setting: str, D: int | None) -> list[tuple[int, int, int, int]]:
    """T at one coordinate as separable terms (num, cx, cy, cz), c a factor
    digit: binary {2*1, -x_i, -y_i, -z_i}; mod-D the orthogonality identity's
    (chi, conj chi, trivial) patterns over D, the -1 merged into the
    all-trivial pattern ((3-D)/D, absent at D=3).  Callers check setting
    and D with _choice_count first."""
    if setting == BINARY:
        return [(2, 0, 0, 0), (-1, 1, 0, 0), (-1, 0, 1, 0), (-1, 0, 0, 1)]
    choices = [] if D == 3 else [(3 - D, 0, 0, 0)]
    for j in range(1, D):
        choices.append((1, j, D - j, 0))
        choices.append((1, 0, j, D - j))
        choices.append((1, j, 0, D - j))
    return choices


def expand_tensor(setting: str, n: int, D: int | None = None) -> TermSum:
    """Expand the coordinate product into separable terms: the n-fold
    product of _choices(setting, D), over the denominator 1 resp. D^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    count = _choice_count(setting, D)
    # the one-coordinate cap comes before any term is built; verify needs
    # the cached check anyway
    _one_coordinate(setting, D)
    # binary: a choice's bits never meet another coordinate's, so + is |
    M = 2 if setting == BINARY else D
    if count**n > DEFAULT_MAX_TERMS:
        at = f"binary expansion at n={n}" if M == 2 else f"mod-D expansion at (n={n}, D={D})"
        raise ResourceLimitError(f"{at} exceeds {DEFAULT_MAX_TERMS} terms")
    # n = 0 is the one empty term: no coordinate reads the table
    choices = _choices(setting, D) if n else []
    # the terms of coordinates 0..h-1 and of h..n-1, h = n//2, each list in
    # the order of choosing coordinate by coordinate, so their products, low
    # half outer, come in that order for all n coordinates
    halves = []
    for coordinates in (range(n // 2), range(n // 2, n)):
        terms = [(1, 0, 0, 0)]
        for i in coordinates:
            at = [(cn, cx * M**i, cy * M**i, cz * M**i) for cn, cx, cy, cz in choices]
            terms = [(num * cn, fx + cx, fy + cy, fz + cz)
                     for num, fx, fy, fz in terms for cn, cx, cy, cz in at]
        halves.append(terms)
    low, high = halves
    terms = [(an * bn, ax + bx, ay + by, az + bz)
             for an, ax, ay, az in low for bn, bx, by, bz in high]
    return TermSum(setting, n, D, 1 if setting == BINARY else D**n, tuple(terms))


# ---------------------------------------------------------------------------
# grouping terms into slices


@dataclass(frozen=True)
class Slice:
    """One slice: a single-variable factor on `axis` times a two-variable
    residual, stored as terms over the remaining axes in x<y<z order."""

    axis: int
    factor: int
    residual: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class SliceDecomposition:
    setting: str
    n: int
    D: int | None
    denominator: int
    slices: tuple[Slice, ...]

    @property
    def slice_count(self) -> int:
        return len(self.slices)


def _slicing(ts: TermSum):
    """(threshold, limit, within): the measure threshold n//3 resp. 2n//3,
    the factor bound M^n, and within[f] for f in range(M^n), whether the
    measure of factor f (its degree resp. its number of nontrivial
    characters, i.e. its nonzero base-M digits) is at most the threshold."""
    n, M = ts.n, _alphabet(ts)
    threshold = n // 3 if ts.setting == BINARY else (2 * n) // 3
    measure = [0]
    for _ in range(n):
        measure = [m + (d > 0) for m in measure for d in range(M)]
    return threshold, len(measure), [m <= threshold for m in measure]


def _term_error(term, threshold: int, limit: int) -> ValueError:
    """Why no slice takes the term: a factor outside range(limit), or no
    factor within the threshold."""
    num, fx, fy, fz = term
    if not (0 <= fx < limit and 0 <= fy < limit and 0 <= fz < limit):
        return ValueError(
            f"term {(num, fx, fy, fz)} has a factor outside range({limit}):"
            " it is not a term of the expansion"
        )
    return ValueError(
        f"term {(num, fx, fy, fz)} has no factor within the threshold {threshold}:"
        " it is not a term of the expansion"
    )


def decompose(ts: TermSum) -> SliceDecomposition:
    """Group terms by (axis, factor): for each term pick the first axis in
    x,y,z order whose factor measure (degree / nontrivial-character count)
    is at most n/3 resp. 2n/3 -- one always exists since the measures sum to
    at most n resp. 2n.  Slices come by axis, then factor; a slice's rows
    keep the order their terms have in ts.terms.

    A term's factors are checked by one sign test and by their three
    `within` lookups, which fail past range(M^n).  The terms themselves are
    grouped, and each slice's rows are made together afterwards, so they
    lie together in memory for the diagram that reads them."""
    threshold, limit, within = _slicing(ts)
    gx, gy, gz = (defaultdict(list), defaultdict(list), defaultdict(list))
    try:
        for term in ts.terms:
            _, fx, fy, fz = term
            if fx | fy | fz < 0:
                raise _term_error(term, threshold, limit)
            wx, wy, wz = within[fx], within[fy], within[fz]
            if wx:
                gx[fx].append(term)
            elif wy:
                gy[fy].append(term)
            elif wz:
                gz[fz].append(term)
            else:
                raise _term_error(term, threshold, limit)
    except IndexError:
        raise _term_error(term, threshold, limit) from None
    # popping frees each term list as soon as its rows are made
    slices = [Slice(0, f, tuple([(num, fy, fz) for num, _, fy, fz in gx.pop(f)]))
              for f in sorted(gx)]
    slices += [Slice(1, f, tuple([(num, fx, fz) for num, fx, _, fz in gy.pop(f)]))
               for f in sorted(gy)]
    slices += [Slice(2, f, tuple([(num, fx, fy) for num, fx, fy, _ in gz.pop(f)]))
               for f in sorted(gz)]
    return SliceDecomposition(ts.setting, ts.n, ts.D, ts.denominator, tuple(slices))


def decomposition_size(setting: str, n: int, D: int | None = None) -> int:
    """Slice count of decompose(expand_tensor(...)), computed in closed form.

    A key (axis, f) is realized iff some term both carries f on that axis
    and fails the threshold test on every earlier axis; completing the
    remaining coordinates freely reduces this to a support-size condition:

    * axis x: any factor with measure <= t occurs (the rest of the term can
      stay trivial on x), t = n//3 resp. 2n//3;
    * axis y: additionally some term must push the x-measure above t, which
      is possible for every factor support when n > t (always, for n >= 1);
    * axis z: both x- and y-measures must exceed t simultaneously, which
      caps the factor support at n - 2t - 2 (binary) resp. 2(n - t - 1)
      (mod-D, where each non-support coordinate feeds both other axes).

    The tests check it against a key-count program over the choice table
    and against the built decomposition wherever it fits the term cap.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    if setting == BINARY:
        t = n // 3
        nx = binomial_tail(n, t)
        ny = binomial_tail(n, min(t, n - t - 1))
        nzc = binomial_tail(n, min(t, n - 2 * t - 2))
        return nx + ny + nzc
    if D is None or D < 3:
        raise ValueError("the mod-D count needs D >= 3")
    t = (2 * n) // 3
    nx = binomial_tail(n, t, D - 1)
    ny = binomial_tail(n, min(t, n - 1), D - 1)
    nzc = binomial_tail(n, min(t, 2 * (n - t - 1)), D - 1)
    return nx + ny + nzc


# ---------------------------------------------------------------------------
# verification
#
# The expansion and the decomposition are the same kind of object: a sum of
# separable terms (num, fx, fy, fz), which a slice stores as its factor and
# residual terms.  T is a product over coordinates, so the sum is stored as
# a coordinate diagram in the style of Bryant's decision diagrams: a level-k
# node is a tuple of edges (label, coef, child), where label packs the
# coordinate-k digits of the three factors and the child is a level-(k+1)
# node over the remaining coordinates.  Nodes are built bottom-up and
# hash-consed with their coefficients divided by their gcd (signed by the
# first edge), so sub-sums equal up to a scalar are stored once.  The top
# ceil(n/2) coordinates are read as one block: the terms are grouped by their
# low coordinates, each group's block (its top labels and coefficients) is
# sorted the first time its entries are met in that order, and only the
# distinct sorted blocks are interned through the top levels.  T's blocks
# are scalar multiples of its top half, so the expansion and its slices have
# a handful, while every low prefix still takes its block's node.
#
# Reading the terms is most of a build, so a term is read with table lookups
# and additions only: per axis one table spreads a factor's low digits into
# the group key and one its top digits into the block entry.  The expansion
# lists each low prefix's terms in one run, and a slice's rows come in runs
# of one prefix too, so a run appends to the list its first term looked up.
#
# Monomials on {0,1}^(3n) and characters of (Z/D)^(3n) are bases, so a term
# sum equals T iff its merged coefficient table is T's.  T's table merges to
# a chain: one node per level, the same node at every level, which is the
# diagram of T at n = 1.  _is_product compares a diagram with that chain and
# so decides the identity exactly, in both modes.  Only the single-node chain
# is compared, so node numbering never matters: a table equal to T's merges
# to the chain, and any other diagram is never taken as proof.  A pointwise
# scan of it then only names the witness.
#
# The scan evaluates the diagram bottom-up at each point, with one evaluator
# for both settings: a value is a bucket vector over R phases, bucket r
# holding the numerator of zeta_R^r, and an edge adds its child's vector
# rotated by its phase.  A monomial is the one-phase case, R = 1: a binary
# edge adds at phase 0 when its monomial divides the point.  A mod-D edge
# adds at the character phase label . (x_k, y_k, z_k) mod D, R = D.  A point
# is decided by reducing value - denominator * T mod Phi_R to zero.


def _alphabet(obj) -> int:
    """Coordinate values run over range(M): M = 2 binary, D mod-D."""
    return 2 if obj.setting == BINARY else obj.D


def _intern(packed, W: int, nodes: list, index: dict):
    """(factor, node index) of the node whose edges are the packed ints
    key + W * coef, with duplicate keys merged and zero edges dropped; the
    node's coefficients are divided by their gcd and signed by the first
    edge, and the factor carries what was divided out.  None if no edge is
    left."""
    merged: dict[int, int] = {}
    for e in packed:
        key = e % W
        merged[key] = merged.get(key, 0) + e // W
    edges = sorted((key, c) for key, c in merged.items() if c)
    if not edges:
        return None
    g = math.gcd(*(c for _, c in edges))
    if edges[0][1] < 0:
        g = -g
    node = tuple(key + W * (c // g) for key, c in edges)
    idx = index.setdefault(node, len(nodes))
    if idx == len(nodes):
        nodes.append(node)
    return g, idx


def _spread(n: int, M: int) -> list[int]:
    """sx[f] for f in range(M^n): the base-M digits of f, digit i moved to
    the place (M^3)^i."""
    L = M**3
    sx = [0]
    for _ in range(n):
        sx = [s * L + d for s in sx for d in range(M)]
    return sx


def _intern_level(groups: dict, W: int) -> list:
    """The nodes of one level.  Each group of packed edges key + W * coef,
    the key label + M^3 * child and W = M^3 * C, is replaced in place by its
    node's (factor, index), or None; groups often repeat exactly, so each
    distinct edge tuple is normalised once."""
    nodes: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    entries: dict[tuple[int, ...], tuple[int, int] | None] = {}
    for prefix, packed in groups.items():
        packed = tuple(packed)
        try:
            groups[prefix] = entries[packed]
        except KeyError:
            groups[prefix] = entries[packed] = _intern(packed, W, nodes, index)
    return nodes


def _diagram(obj):
    """The hash-consed coordinate diagram of a TermSum's or
    SliceDecomposition's terms.

    Returns (coef, levels): levels[k] lists the level-k nodes, the root is
    levels[0][0], and the sum is coef times the root's value (coef alone at
    n = 0; coef = 0 when the terms cancel).  A node is a tuple of packed
    edges label + M^3 * (child + C * coef), where C is the number of nodes
    one level down (C = 1 and child = 0 at the last level).

    The top h = ceil(n/2) coordinates form a block: the terms are grouped
    by their low n - h coordinate labels, and only the distinct blocks
    (each sorted, so equal blocks are found whatever the term order) are
    interned through levels n-1 .. n-h; each low prefix then takes its
    block's (factor, node).  A group whose raw entries repeat an earlier
    group's, in the same order, takes that group's block without a sort.
    Nodes are numbered in the order their blocks, then their low prefixes,
    are first met.

    A term's key and entry are sums of lookups in per-axis low and top
    tables, with no division; a factor outside range(M^n) fails the sign
    test or a lookup and is a ValueError, a non-int factor a TypeError.
    """
    n, M = obj.n, _alphabet(obj)
    L = M**3
    h = (n + 1) // 2
    outside = f"a term factor lies outside the domain of n={n}"
    # the spread factors of a term add up to one int whose digit i in base
    # L is the coordinate-i label dx + M dy + M^2 dz.  No digit carries, so
    # each axis's table splits at P = L^(n-h): the low table spreads a
    # factor's low n-h digits, the key the term is grouped by, and the top
    # table its top h digits, the block's labels, packed with the coefficient
    P, Lh, Ml = L ** (n - h), L**h, M ** (n - h)
    xl = _spread(n - h, M) * M**h
    xh = [s for s in _spread(h, M) for _ in range(Ml)]
    tables = [(xl, xh), ([M * s for s in xl], [M * s for s in xh]),
              ([M * M * s for s in xl], [M * M * s for s in xh])]
    groups = defaultdict(list)
    # a run of terms under one key appends to the list the run's first
    # term looked up
    last = None
    try:
        if isinstance(obj, TermSum):
            (xl, xh), (yl, yh), (zl, zh) = tables
            for num, fx, fy, fz in obj.terms:
                if fx | fy | fz < 0:
                    raise ValueError(outside)
                key = xl[fx] + yl[fy] + zl[fz]
                if key != last:
                    last = key
                    append = groups[key].append
                append(xh[fx] + yh[fy] + zh[fz] + Lh * num)
        else:
            # a slice adds its factor's spreads once, to each residual term
            for sl in obj.slices:
                a, b = _OTHER_AXES[sl.axis]
                (al, ah), (bl, bh) = tables[a], tables[b]
                if sl.factor < 0:
                    raise ValueError(outside)
                fl, fh = tables[sl.axis]
                base_l, base_h = fl[sl.factor], fh[sl.factor]
                for num, fa, fb in sl.residual:
                    if fa | fb < 0:
                        raise ValueError(outside)
                    key = base_l + al[fa] + bl[fb]
                    if key != last:
                        last = key
                        append = groups[key].append
                    append(base_h + ah[fa] + bh[fb] + Lh * num)
    except IndexError:
        raise ValueError(outside) from None
    if not n:
        # the one empty prefix: its entries are the constant terms
        return sum(groups.get(0, ())), []
    # each low prefix's block id; the expansion's blocks are scalar multiples
    # of T's top half, a few distinct ones, and most groups repeat another's
    # entries in the same order, so a group is sorted only when its raw
    # entries are new
    blocks: dict[tuple[int, ...], int] = {}
    raw: dict[tuple[int, ...], int] = {}
    low = {}
    for prefix, group in groups.items():
        group = tuple(group)
        try:
            low[prefix] = raw[group]
        except KeyError:
            low[prefix] = raw[group] = blocks.setdefault(tuple(sorted(group)), len(blocks))
    # the blocks' prefixes put the block id below the coordinate labels
    B, Q = len(blocks), Lh // L
    groups = defaultdict(list)
    for b, block in enumerate(blocks):
        for e in block:
            groups[b + B * (e % Q)].append(e // Q)
    top = B * Q
    C = 1
    levels = []
    for k in range(n - 1, -1, -1):
        nodes = _intern_level(groups, L * C)
        levels.append(nodes)
        C = len(nodes)
        if k == n - h:
            # each low prefix takes its block's entry
            groups = {prefix: groups.get(b) for prefix, b in low.items()}
            top = P
        if k:
            # the edge to each node, under the prefix's top digit (the
            # coordinate-(k-1) label), grouped by the digits below it
            top //= L
            nxt = defaultdict(list)
            for prefix, entry in groups.items():
                if entry:
                    nxt[prefix % top].append(prefix // top + L * (entry[0] * C + entry[1]))
            groups = nxt
    # what is left is the root, under the empty prefix
    entry = groups.get(0)
    return (entry[0] if entry else 0), levels[::-1]


@lru_cache(maxsize=None)
def _one_coordinate(setting: str, D: int | None):
    """(coef, level, denominator) of T's diagram at n = 1, checked against
    the product form, a check capped in D as an exhaustive scan of all M^3
    points is.

    Binary scans the 8 points.  Mod-D first checks that every row's
    character (cx, cy, cz) sums to 0 mod D, so each row, and with it the
    difference from T (which depends only on which arguments are equal), is
    unchanged when t is added to all three arguments; the difference is
    then 0 everywhere iff it is 0 on the D^2 points with x = 0."""
    # _choice_count first: it rejects a bad setting or D
    count = _choice_count(setting, D)
    cube = (2 if setting == BINARY else D) ** 3
    if cube * count > DEFAULT_WORK_CAP:
        raise ResourceLimitError(f"the one-coordinate check over {cube} points at D={D} is over the cap")
    failed = ArithmeticError(f"the {setting} expansion at n=1 is not the product form")
    rows = tuple(_choices(setting, D))
    if setting == BINARY:
        points = _all_points(2, 1)
    elif any((cx + cy + cz) % D for _, cx, cy, cz in rows):
        raise failed
    else:
        points = (((0,), (b,), (c,)) for b in range(D) for c in range(D))
    ts = TermSum(setting, 1, D, 1 if setting == BINARY else D, rows)
    diagram = _diagram(ts)
    if _witness(ts, diagram, points) is not None:
        raise failed
    coef, (level,) = diagram
    return coef, level, ts.denominator


def _is_product(obj, diagram) -> bool:
    """Is the term sum with this diagram equal to T?  Exactly when its
    levels are n copies of T's one-coordinate level and its root coefficient
    over obj.denominator is T's, c^n / d^n for the one-coordinate root
    coefficient c and denominator d."""
    c, level, d = _one_coordinate(obj.setting, obj.D)
    coef, levels = diagram
    n = obj.n
    return levels == [level] * n and coef * d**n == c**n * obj.denominator


def _evaluator(obj, diagram):
    """(R, value): value(x, y, z) is the diagram's value at three coordinate
    tuples, a fresh bucket vector over R phases (R = 1 binary, D mod-D).
    The node values of level k depend only on the coordinates from k on, so
    they are computed one level at a time from the last, with every edge
    decoded once up front.

    An edge's slot is label . (a', b', c') mod K, its phase when below R.
    Mod-D reads a' = a with K = D: the slot is the character phase.  Binary
    reads a' = 1 - a with K = 4: the slot counts the label's exponents above
    the point's coordinates, so it is 0 iff the monomial divides the point."""
    coef, levels = diagram
    if not coef:
        # a cancelled sum has no nodes left: it is 0 everywhere
        levels = []
    M = _alphabet(obj)
    if obj.setting == BINARY:
        R, K, read = 1, 4, (1, 0)
    else:
        R, K, read = M, M, range(M)
    # rotations[r][p]: the bucket of phase r + p
    rotations = [[(r + p) % R for p in range(R)] for r in range(R)]
    # per node, last level first: (child, [(x, y, z label digits, coef)])
    # for each child its edges lead to
    decoded = []
    for k in range(len(levels) - 1, -1, -1):
        width = len(levels[k + 1]) if k + 1 < len(levels) else 1
        level = []
        for node in levels[k]:
            by_child: dict[int, list[tuple[int, int, int, int]]] = {}
            for e in node:
                rest, label = divmod(e, M**3)
                c, child = divmod(rest, width)
                edge = (label % M, label // M % M, label // (M * M), c)
                by_child.setdefault(child, []).append(edge)
            level.append(list(by_child.items()))
        decoded.append(level)

    def value(x, y, z):
        vals = [[coef] + [0] * (R - 1)]
        for level, a, b, c in zip(decoded, x[::-1], y[::-1], z[::-1]):
            a, b, c = read[a], read[b], read[c]
            nxt = []
            for node in level:
                out = [0] * R
                for j, edges in node:
                    # the edges' coefficients by slot, times the child's
                    # vector in Z[t]/(t^R - 1)
                    poly = [0] * K
                    for ex, ey, ez, cf in edges:
                        poly[(ex * a + ey * b + ez * c) % K] += cf
                    for r, w in enumerate(vals[j]):
                        if w:
                            for p, cf in zip(rotations[r], poly):
                                out[p] += cf * w
                nxt.append(out)
            vals = nxt
        return vals[0]

    return R, value


def _all_points(M: int, n: int):
    """Every (x, y, z) over range(M)^n, in itertools.product order."""
    return itertools.product(list(itertools.product(range(M), repeat=n)), repeat=3)


def _sampled_tuples(M: int, n: int, samples: int):
    """Three axes of `samples` coordinate tuples each, drawn from one fixed
    stream, so a rerun samples the same points."""
    rng = random.Random(0)
    axes = []
    for _ in range(3):
        axes.append([tuple(rng.randrange(M) for _ in range(n)) for _ in range(samples)])
    return axes


def _witness(obj, diagram, points):
    """The first of the (x, y, z) coordinate-tuple triples at which the
    diagram's value differs from T, or None.  Reduction mod Phi_R is
    Z-linear, so one reduction of the difference decides equality."""
    R, value = _evaluator(obj, diagram)
    setting, denominator = obj.setting, obj.denominator
    for x, y, z in points:
        buckets = value(x, y, z)
        buckets[0] -= denominator * _product(setting, x, y, z)
        if any(reduce_power_vector(R, buckets)):
            return x, y, z
    return None


def _verify(obj, mode, samples):
    if mode == "sampled":
        if samples < 1:
            raise ValueError(f"sampled verification needs at least 1 sample, got {samples}")
    elif mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    n, M = obj.n, _alphabet(obj)
    diagram = _diagram(obj)
    if _is_product(obj, diagram):
        return True, None
    if mode == "exhaustive":
        # the scan evaluates every edge of the diagram at every point
        cube = M ** (3 * n)
        edges = sum(len(node) for level in diagram[1] for node in level)
        if cube > DEFAULT_POINT_CAP or cube * edges > DEFAULT_WORK_CAP:
            raise ResourceLimitError(
                f"exhaustive verification over {cube} points is over the cap; use sampled mode"
            )
        points = _all_points(M, n)
    else:
        points = zip(*_sampled_tuples(M, n, samples))
    return False, _witness(obj, diagram, points)


def verify_expansion(ts: TermSum, mode: str = "exhaustive", samples: int = 200):
    """Check that the expansion equals the product form.  Returns
    (ok, witness-point-or-None).  The verdict is exact in both modes: a sum
    passes iff its diagram is the product form's.  Any other sum fails and
    is scanned pointwise for its witness, the first failing point: over the
    whole domain in exhaustive mode, where the witness is the
    lexicographically least and the caps bound the scan, or on `samples`
    points drawn from a fixed stream, which can all miss the failure and
    then leave it None."""
    return _verify(ts, mode, samples)


def verify_decomposition(dec: SliceDecomposition, mode: str = "exhaustive", samples: int = 200):
    """Check that the slices sum back to the product form, as
    verify_expansion checks an expansion.  Returns
    (ok, witness-point-or-None)."""
    return _verify(dec, mode, samples)


# ---------------------------------------------------------------------------
# diagonality on a family


@dataclass(frozen=True)
class DiagonalityReport:
    ok: bool
    witness: tuple | None


def check_diagonal(family: Family) -> DiagonalityReport:
    """Is T, restricted to the members, nonzero exactly on the diagonal?

    The reference scan: `tensor_value` on every triple x <= y <= z of
    members in lexicographic order, (x, x, x) skipped.  T is symmetric in its
    three arguments, so the least violating ordered triple is sorted and is
    the witness.  O(|F|^3 n); no pipeline runs it, because on a
    sunflower-free family (each weight layer, binary) it cannot fail."""
    if family.setting == MOD and family.D < 3:
        raise ValueError("the mod-D tensor needs D >= 3")
    for x, y, z in itertools.combinations_with_replacement(family.members, 3):
        if x != z and tensor_value(family.setting, x, y, z):
            return DiagonalityReport(False, (x, y, z))
    return DiagonalityReport(True, None)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class BoundCertificate:
    """A machine-checkable record justifying |A| <= slice_count: the family
    (whose setting, n and D are the certificate's) and the slice count
    (summed over the weight layers in the binary setting), proved without
    expanding, with the closed-form bound attached for comparison.  T
    restricted to a sunflower-free family, or to each of its weight layers,
    is diagonal (see certify_family), so the JSON's `diagonal_ok` is always
    true.  The diagonal-tensor rank step is trusted, not re-proved."""

    family: Family
    slice_count: int
    closed_form_bound: int

    @property
    def conclusion(self) -> str:
        return f"|A| <= {self.slice_count}"

    def to_json_dict(self) -> dict:
        return {
            "setting": self.family.setting,
            "n": self.family.n,
            "D": self.family.D,
            "family": self.family.to_text(),
            "diagonal_ok": True,
            "slice_count": str(self.slice_count),
            "closed_form_bound": str(self.closed_form_bound),
            "conclusion": self.conclusion,
            "lemma": "diagonal-slice-rank",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


@lru_cache(maxsize=None)
def _structural_slice_count(setting: str, n: int, D: int | None) -> int:
    """Slice count of decompose(expand_tensor(setting, n, D)), building
    neither: the expansion is the n-fold product of _choices, which
    _one_coordinate checks is T at n = 1, and decomposition_size counts the
    realised keys (axis, factor) of that product."""
    try:
        _one_coordinate(setting, D)
    except ArithmeticError as exc:
        raise CertificationError(str(exc)) from None
    return decomposition_size(setting, n, D)


def certify_family(family: Family) -> BoundCertificate:
    """Run the pipeline: sunflower-freeness, then the slice count
    (_structural_slice_count) once per weight layer in the binary setting,
    whose constant weight rules out proper containments, concluding
    |A| <= count.

    No diagonality scan is run: T restricted to a sunflower-free family (to
    each weight layer, binary) is diagonal.  On distinct triples T != 0 iff
    the triple is a sunflower, and T(x, x, z) = 0 for x != z, with a
    symmetric T covering every other order: a coordinate where x and z
    differ holds exactly two equal entries (mod-D), and in one weight layer
    some coordinate has x_i = 1 and z_i = 0, so exactly two ones (binary).

    Raises NotSunflowerFree when the precondition fails, and
    CertificationError when the count is not within |A| <= count <= the
    closed form.
    """
    sunflower = find_sunflower(family)
    if sunflower is not None:
        raise NotSunflowerFree(
            "family contains a sunflower: "
            + ", ".join(family.line(m) for m in sunflower),
            witness=sunflower,
        )
    if family.setting == BINARY:
        closed_form = subset_family_bound(family.n)
        layers = len(layer_split(family))
    else:
        closed_form = mod_count_bound(family.n, family.D)
        layers = 1
    slice_count = _structural_slice_count(family.setting, family.n, family.D) * layers
    if not len(family) <= slice_count <= closed_form:
        raise CertificationError(
            f"expected |A| = {len(family)} <= slice count {slice_count}"
            f" <= closed form {closed_form}"
        )
    return BoundCertificate(family, slice_count, closed_form)
