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
as a trusted theorem and only its constructive direction is implemented.

All evaluation here is exact: integers in the binary setting, cyclotomic
integers over a D-power denominator in the mod-D setting.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
from dataclasses import dataclass
from functools import lru_cache

from .bounds import binomial_tail, mod_count_bound, subset_family_bound
from .exactnum import CycElem, CycFrac
from .setsys import (
    BINARY,
    MOD,
    DVector,
    Family,
    SubsetVector,
    completions,
    find_sunflower,
    layer_split,
    parse_family,
    value_masks,
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


def _eval_binary_masks(x: int, y: int, z: int, n: int) -> int:
    mask = (1 << n) - 1
    threes = x & y & z
    pairs = ((x & y) | (y & z) | (x & z)) & ~threes
    if pairs:
        return 0
    zeros = (~(x | y | z)) & mask
    value = 1 << zeros.bit_count()
    return -value if threes.bit_count() & 1 else value


def _eval_mod_tuples(x, y, z) -> int:
    value = 1
    for a, b, c in zip(x, y, z):
        equal = (a == b) + (b == c) + (a == c)
        if equal == 1:
            return 0
        value *= 2 if equal == 3 else -1
    return value


def tensor_value(x, y, z) -> int:
    """Exact value of T at a triple of SubsetVectors or DVectors."""
    if isinstance(x, SubsetVector):
        if x.n != y.n or x.n != z.n:
            raise ValueError("mismatched dimensions")
        return _eval_binary_masks(x.bits, y.bits, z.bits, x.n)
    if x.n != y.n or x.n != z.n or x.D != y.D or x.D != z.D:
        raise ValueError("mismatched dimensions")
    if x.D < 3:
        raise ValueError("the mod-D tensor needs D >= 3")
    return _eval_mod_tuples(x.coords, y.coords, z.coords)


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

    def value_at(self, x, y, z):
        """Exact evaluation; int in the binary setting, Fraction mod-D."""
        return _value_at(self, x, y, z)


def _mask(coords) -> int:
    bits = 0
    for i, c in enumerate(coords):
        if c:
            bits |= 1 << i
    return bits


def expand_tensor(
    setting: str, n: int, D: int | None = None, max_terms: int = DEFAULT_MAX_TERMS
) -> TermSum:
    """Expand the coordinate product into separable terms.

    Binary: per coordinate one of {2*1, -x_i, -y_i, -z_i}, giving 4^n terms.
    Mod-D: the orthogonality identity turns each coordinate into a sum over
    characters of (chi, conj chi, trivial) patterns with coefficient 1/D;
    the -1 correction is merged into the all-trivial pattern (coefficient
    (3-D)/D per coordinate, which drops out entirely at D=3).  Every term
    then has 0 or 2 nontrivial characters per coordinate.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if setting == BINARY:
        if D is not None:
            raise ValueError("the binary setting takes no D")
        if 4**n > max_terms:
            raise ResourceLimitError(f"binary expansion at n={n} exceeds {max_terms} terms")
        terms = [(1, 0, 0, 0)]
        for i in range(n):
            bit = 1 << i
            nxt = []
            ap = nxt.append
            for num, fx, fy, fz in terms:
                ap((2 * num, fx, fy, fz))
                ap((-num, fx | bit, fy, fz))
                ap((-num, fx, fy | bit, fz))
                ap((-num, fx, fy, fz | bit))
            terms = nxt
        return TermSum(BINARY, n, None, 1, tuple(terms))

    if setting != MOD:
        raise ValueError(f"unknown setting {setting!r}")
    if D is None or D < 3:
        raise ValueError("the mod-D expansion needs D >= 3")
    width = 3 * (D - 1) + (0 if D == 3 else 1)
    if width**n > max_terms:
        raise ResourceLimitError(f"mod-D expansion at (n={n}, D={D}) exceeds {max_terms} terms")
    choices = []
    if D != 3:
        choices.append((3 - D, 0, 0, 0))
    for j in range(1, D):
        choices.append((1, j, D - j, 0))
        choices.append((1, 0, j, D - j))
        choices.append((1, j, 0, D - j))
    terms = [(1, 0, 0, 0)]
    for i in range(n):
        place = D**i
        nxt = []
        ap = nxt.append
        for num, fx, fy, fz in terms:
            for cn, cx, cy, cz in choices:
                ap((num * cn, fx + cx * place, fy + cy * place, fz + cz * place))
        terms = nxt
    return TermSum(MOD, n, D, D**n, tuple(terms))


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

    def value_at(self, x, y, z):
        """Exact slice-sum evaluation (the quantity verify checks)."""
        return _value_at(self, x, y, z)


def _threshold(setting: str, n: int) -> int:
    return n // 3 if setting == BINARY else (2 * n) // 3


def _measure_table(setting: str, n: int, D: int | None):
    if setting == BINARY:
        return None
    size = D**n
    nz = [0] * size
    for v in range(1, size):
        nz[v] = nz[v // D] + (1 if v % D else 0)
    return nz


def _factor_limit(ts: TermSum) -> int:
    """Factors of the expansion are the integers below M^n."""
    return (2 if ts.setting == BINARY else ts.D) ** ts.n


def _term_axis(num, fx, fy, fz, threshold, nz, limit) -> int:
    if not (0 <= fx < limit and 0 <= fy < limit and 0 <= fz < limit):
        raise ValueError(
            f"term {(num, fx, fy, fz)} has a factor outside range({limit}):"
            " it is not a term of the expansion"
        )
    if nz is None:
        mx, my, mz = fx.bit_count(), fy.bit_count(), fz.bit_count()
    else:
        mx, my, mz = nz[fx], nz[fy], nz[fz]
    if mx <= threshold:
        return 0
    if my <= threshold:
        return 1
    if mz <= threshold:
        return 2
    raise ValueError(
        f"term {(num, fx, fy, fz)} has no factor within the threshold {threshold}:"
        " it is not a term of the expansion"
    )


def decompose(ts: TermSum) -> SliceDecomposition:
    """Group terms by (axis, factor): for each term pick the first axis in
    x,y,z order whose factor measure (degree / nontrivial-character count)
    is at most n/3 resp. 2n/3 -- one always exists since the measures sum to
    at most n resp. 2n."""
    threshold = _threshold(ts.setting, ts.n)
    nz = _measure_table(ts.setting, ts.n, ts.D)
    limit = _factor_limit(ts)
    groups: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for num, fx, fy, fz in ts.terms:
        axis = _term_axis(num, fx, fy, fz, threshold, nz, limit)
        factors = (fx, fy, fz)
        a, b = _OTHER_AXES[axis]
        groups.setdefault((axis, factors[axis]), []).append((num, factors[a], factors[b]))
    slices = tuple(
        Slice(axis, factor, tuple(sorted(residual)))
        for (axis, factor), residual in sorted(groups.items())
    )
    return SliceDecomposition(ts.setting, ts.n, ts.D, ts.denominator, slices)


def count_slices(ts: TermSum) -> int:
    """Number of slices decompose(ts) would produce, without building the
    residuals (the grouping keys are streamed into a set)."""
    threshold = _threshold(ts.setting, ts.n)
    nz = _measure_table(ts.setting, ts.n, ts.D)
    limit = _factor_limit(ts)
    keys = set()
    add = keys.add
    for num, fx, fy, fz in ts.terms:
        axis = _term_axis(num, fx, fy, fz, threshold, nz, limit)
        add((axis, (fx, fy, fz)[axis]))
    return len(keys)


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

    Cross-validated against count_slices on every instance small enough to
    materialize.
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

    def weighted_tail(kmax: int) -> int:
        return sum(math.comb(n, k) * (D - 1) ** k for k in range(0, kmax + 1))

    nx = weighted_tail(t)
    ny = weighted_tail(min(t, n - 1))
    nzc = weighted_tail(min(t, 2 * (n - t - 1)))
    return nx + ny + nzc


# ---------------------------------------------------------------------------
# pointwise verification
#
# The expansion and the decomposition are the same kind of object: a sum of
# separable terms (num, fx, fy, fz), flattened lazily by _terms.  T is a
# product over coordinates, so the sum is stored as a coordinate diagram in
# the style of Bryant's decision diagrams: a level-k node is a tuple of edges
# (label, coef, child), where label packs the coordinate-k digits of the
# three factors and the child is a level-(k+1) node over the remaining
# coordinates.  Nodes are built bottom-up and hash-consed with their
# coefficients divided by their gcd (signed by the first edge), so sub-sums
# equal up to a scalar are stored once.  The expansion, and any slice
# decomposition of it, collapses to one node per level.
#
# Each setting has one evaluator over the diagram, and it serves both verify
# functions and both value_at methods.  A node's value at a point depends
# only on the point's coordinates from its level on, so within one evaluator
# the values of the nodes at levels >= 1 are memoised by that coordinate
# suffix; level 0 is evaluated afresh at each point (memoising it would
# cache every point).  Binary values are integers: an edge counts iff its
# monomial divides the point, i.e. its label's bits lie within the point's.
# Mod-D values are power-basis bucket vectors, bucket r holding the
# numerator of zeta_D^r: an edge adds its child's vector rotated by the
# character phase label . (x_k, y_k, z_k) mod D.


def _terms(obj):
    """The flat (num, fx, fy, fz) terms of a TermSum or SliceDecomposition."""
    if isinstance(obj, TermSum):
        yield from obj.terms
        return
    for sl in obj.slices:
        f = sl.factor
        if sl.axis == 0:
            yield from ((num, f, a, b) for num, a, b in sl.residual)
        elif sl.axis == 1:
            yield from ((num, a, f, b) for num, a, b in sl.residual)
        else:
            yield from ((num, a, b, f) for num, a, b in sl.residual)


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


def _diagram(terms, n: int, M: int):
    """The hash-consed coordinate diagram of a term sum over an alphabet of
    size M (2 in the binary setting, D in the mod-D setting).

    Returns (coef, levels): levels[k] lists the level-k nodes, the root is
    levels[0][0], and the sum is coef times the root's value (coef alone at
    n = 0; coef = 0 when the terms cancel).  A node is a tuple of packed
    edges label + M^3 * (child + C * coef), where C is the number of nodes
    one level down (C = 1 and child = 0 at the last level).
    """
    L = M**3
    # an item is (coef * C + child, fx, fy, fz): the next level's edge to it
    # packs into one int, and a term is an item as it stands (C = 1)
    items = terms
    C = 1
    levels = []
    for k in range(n - 1, -1, -1):
        P = M**k
        W = L * C
        groups: dict[tuple[int, int, int], list[int]] = {}
        for cc, fx, fy, fz in items:
            dx, fx = divmod(fx, P)
            dy, fy = divmod(fy, P)
            dz, fz = divmod(fz, P)
            if not (0 <= dx < M and 0 <= dy < M and 0 <= dz < M):
                raise ValueError(f"a term factor lies outside the domain of n={n}")
            groups.setdefault((fx, fy, fz), []).append(dx + M * dy + M * M * dz + L * cc)
        nodes: list[tuple[int, ...]] = []
        index: dict[tuple[int, ...], int] = {}
        # a group's packed edges decide its (factor, node), and groups often
        # repeat exactly (the expansion's differ only by a few scalars), so
        # each distinct edge tuple is normalised once; each group's list is
        # replaced by its entry in place, freeing the lists as it goes
        entries: dict[tuple[int, ...], tuple[int, int] | None] = {}
        for prefix, packed in groups.items():
            packed = tuple(packed)
            if packed not in entries:
                entries[packed] = _intern(packed, W, nodes, index)
            groups[prefix] = entries[packed]
        levels.append(nodes)
        C = len(nodes)
        # consumed by the next level before C changes again
        items = ((entry[0] * C + entry[1], *prefix) for prefix, entry in groups.items() if entry)
    # what is left is the root's coefficient (the constant term at n = 0)
    coef = 0
    for c, fx, fy, fz in items:
        if fx or fy or fz:
            raise ValueError(f"a term factor lies outside the domain of n={n}")
        coef += c
    return coef, levels[::-1]


def _evaluator(diagram, n: int, M: int, one, row, combine):
    """value(sx, sy, sz): the diagram's value at the point whose three
    coordinate tuples have lexicographic ranks sx, sy, sz (so that the
    coordinates from k on have rank s % M^(n-k)).

    row(edges, q) turns a node's (label, coef, child) edges into what the
    node adds up at coordinate triple q = x_k + M y_k + M^2 z_k, and
    combine(row, child_values) adds it up.  Rows are built once per
    (level, q), and the node values at levels >= 1 are memoised by suffix."""
    coef, levels = diagram
    L = M**3
    places = [M ** (n - 1 - k) for k in range(n)]
    widths = [len(levels[k + 1]) for k in range(n - 1)] + [1]
    rows: list[dict] = [{} for _ in range(n)]
    memo: list[dict] = [{} for _ in range(n)]
    leaf = [one]

    def node_rows(k, q):
        # the root's coefficient is folded into the unmemoised level 0
        scale = coef if k == 0 else 1
        out = []
        for node in levels[k]:
            edges = []
            for e in node:
                rest, label = divmod(e, L)
                c, child = divmod(rest, widths[k])
                edges.append((label, scale * c, child))
            out.append(row(edges, q))
        return out

    if n == 0 or not coef:
        constant = row([(0, coef, 0)], 0)
        return lambda sx, sy, sz: combine(constant, leaf)

    def value(sx, sy, sz):
        # walk down to the first level whose suffix is memoised (or past the
        # last level), then combine back up to the root
        qs, keys = [], []
        k = 0
        while True:
            P = places[k]
            qx, sx = divmod(sx, P)
            qy, sy = divmod(sy, P)
            qz, sz = divmod(sz, P)
            qs.append(qx + M * (qy + M * qz))
            k += 1
            if k == n:
                vals = leaf
                break
            key = (sx, sy, sz)
            vals = memo[k].get(key)
            if vals is not None:
                break
            keys.append(key)
        for k in range(k - 1, -1, -1):
            level_rows = rows[k].get(qs[k])
            if level_rows is None:
                level_rows = rows[k][qs[k]] = node_rows(k, qs[k])
            vals = [combine(r, vals) for r in level_rows]
            if k:
                memo[k][keys[k - 1]] = vals
        return vals[0]

    return value


def _binary_evaluator(diagram, n: int):
    """Integer values.  An edge counts iff its monomial divides the point,
    i.e. its label's bits lie within q's (x_k + 2 y_k + 4 z_k)."""

    def row(edges, q):
        merged: dict[int, int] = {}
        for label, c, child in edges:
            if not label & ~q:
                merged[child] = merged.get(child, 0) + c
        return [(c, child) for child, c in merged.items() if c]

    def combine(row, child):
        return sum([c * child[j] for c, j in row])

    return _evaluator(diagram, n, 2, 1, row, combine)


def _mod_evaluator(diagram, n: int, D: int):
    """Power-basis bucket vectors (a fresh list per call), bucket r holding
    the numerator of zeta_D^r.  An edge adds its child's vector rotated by
    the phase label . (x_k, y_k, z_k) mod D; a row keeps, per child, the
    circulant matrix of its phase polynomial."""
    mul = operator.mul

    def row(edges, q):
        qd = (q % D, q // D % D, q // (D * D))
        polys: dict[int, list[int]] = {}
        for label, c, child in edges:
            ph = (label % D * qd[0] + label // D % D * qd[1] + label // (D * D) * qd[2]) % D
            polys.setdefault(child, [0] * D)[ph] += c
        return [
            (child, [[p[(i - t) % D] for t in range(D)] for i in range(D)])
            for child, p in polys.items()
            if any(p)
        ]

    def combine(row, child):
        out = [0] * D
        for j, circulant in row:
            vec = child[j]
            out = [o + sum(map(mul, line, vec)) for o, line in zip(out, circulant)]
        return out

    return _evaluator(diagram, n, D, [1] + [0] * (D - 1), row, combine)


def _rank(point, n: int, M: int) -> int:
    """Lexicographic rank of a coordinate tuple in range(M)^n."""
    if len(point) != n:
        raise ValueError(f"expected {n} coordinates, got {len(point)}")
    rank = 0
    for d in point:
        if not 0 <= d < M:
            raise ValueError(f"coordinate {d} lies outside range({M})")
        rank = rank * M + d
    return rank


def _coords(v) -> tuple[int, ...]:
    if isinstance(v, SubsetVector):
        return v.coords()
    if isinstance(v, DVector):
        return v.coords
    return tuple(v)


def _value_at(obj, x, y, z):
    """A TermSum's or SliceDecomposition's exact value at one triple of
    vectors or coordinate tuples: int (binary) or Fraction (mod-D)."""
    n, D = obj.n, obj.D
    M = 2 if obj.setting == BINARY else D
    ranks = [_rank(_coords(v), n, M) for v in (x, y, z)]
    diagram = _diagram(_terms(obj), n, M)
    if obj.setting == BINARY:
        return _binary_evaluator(diagram, n)(*ranks)
    buckets = _mod_evaluator(diagram, n, D)(*ranks)
    frac = CycFrac.make(CycElem.from_power_vector(D, buckets), obj.denominator).as_fraction()
    if frac is None:
        raise ArithmeticError("separable sum evaluated to an irrational value")
    return frac


def _sampled_tuples(M: int, n: int, samples: int, seed: int):
    rng = random.Random(seed)
    axes = []
    for _ in range(3):
        axes.append([tuple(rng.randrange(M) for _ in range(n)) for _ in range(samples)])
    return axes


def _verify(obj, cost, mode, samples, seed, point_cap, work_cap):
    n, D = obj.n, obj.D
    M = 2 if obj.setting == BINARY else D
    if mode == "exhaustive":
        m = M**n
        if m**3 > point_cap or m**3 * cost > work_cap:
            raise ResourceLimitError(
                f"exhaustive verification over {m ** 3} points is over the cap; use sampled mode"
            )
        xs = ys = zs = list(itertools.product(range(M), repeat=n))
        rx = ry = rz = range(m)
        indices = itertools.product(range(m), repeat=3)
    elif mode == "sampled":
        if samples < 1:
            raise ValueError(f"sampled verification needs at least 1 sample, got {samples}")
        xs, ys, zs = _sampled_tuples(M, n, samples, seed)
        rx, ry, rz = ([_rank(t, n, M) for t in pts] for pts in (xs, ys, zs))
        indices = ((i, i, i) for i in range(samples))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    diagram = _diagram(_terms(obj), n, M)
    if obj.setting == BINARY:
        mx, my, mz = ([_mask(t) for t in pts] for pts in (xs, ys, zs))
        value = _binary_evaluator(diagram, n)

        def ok(ix, iy, iz):
            return value(rx[ix], ry[iy], rz[iz]) == _eval_binary_masks(mx[ix], my[iy], mz[iz], n)

    else:
        value = _mod_evaluator(diagram, n, D)
        denominator = obj.denominator

        def ok(ix, iy, iz):
            # reduction mod Phi_D is Z-linear, so one reduction of the
            # difference decides equality
            buckets = value(rx[ix], ry[iy], rz[iz])
            buckets[0] -= denominator * _eval_mod_tuples(xs[ix], ys[iy], zs[iz])
            return CycElem.from_power_vector(D, buckets).is_zero()

    for ix, iy, iz in indices:
        if not ok(ix, iy, iz):
            return False, (xs[ix], ys[iy], zs[iz])
    return True, None


def verify_expansion(
    ts: TermSum,
    mode: str = "exhaustive",
    samples: int = 200,
    seed: int = 0,
    point_cap: int = DEFAULT_POINT_CAP,
    work_cap: int = DEFAULT_WORK_CAP,
):
    """Check that the expansion agrees with the product form pointwise.
    Returns (ok, witness-point-or-None); comparisons are exact, and the
    witness is the first failing point (lexicographically least in
    exhaustive mode)."""
    return _verify(ts, len(ts.terms), mode, samples, seed, point_cap, work_cap)


def verify_decomposition(
    dec: SliceDecomposition,
    mode: str = "exhaustive",
    samples: int = 200,
    seed: int = 0,
    point_cap: int = DEFAULT_POINT_CAP,
    work_cap: int = DEFAULT_WORK_CAP,
):
    """Check that the slices sum back to the product form pointwise, either
    over the whole domain or on seeded pseudorandom points.  Returns
    (ok, witness-point-or-None)."""
    cost = sum(1 + len(sl.residual) for sl in dec.slices)
    return _verify(dec, cost, mode, samples, seed, point_cap, work_cap)


# ---------------------------------------------------------------------------
# diagonality on a family


@dataclass(frozen=True)
class DiagonalityReport:
    ok: bool
    witness: tuple | None
    diagonal_values: tuple[int, ...]


def check_diagonal(family: Family) -> DiagonalityReport:
    """Is T, restricted to the members, nonzero exactly on the diagonal?

    T(x, y, z) != 0 iff no coordinate has exactly two equal entries (two
    ones in the binary setting), and that is the sunflower rule of
    `setsys.completions`, on repeated members too.  So for each ordered pair
    (x, y) of members one mask holds the z with T(x, y, z) != 0; any bit in
    it is a violation, except z = x when x = y, since T(x, x, x) != 0.  The
    rule is symmetric in x and y, so the pair (y, x) has the mask of (x, y)
    and only pairs with x <= y are computed.  The witness is the first
    violating ordered triple in lexicographic member order; diagonal values
    are reported alongside (binary diagonal: +-2^(number of zero
    coordinates); mod-D diagonal: 2^n)."""
    members = family.members
    if family.setting == BINARY:
        n = family.n
        codes = [m.coords() for m in members]
        diag = tuple(_eval_binary_masks(m.bits, m.bits, m.bits, n) for m in members)
    else:
        if family.D < 3:
            raise ValueError("the mod-D tensor needs D >= 3")
        codes = [m.coords for m in members]
        diag = tuple(_eval_mod_tuples(c, c, c) for c in codes)
    masks = value_masks(codes, family.n)
    full = (1 << len(codes)) - 1
    for i, x in enumerate(codes):
        # a pair (i, j) with j < i repeats the empty mask of (j, i)
        for j in range(i, len(codes)):
            nonzero = completions(family.setting, masks, x, codes[j], full)
            if i == j:
                nonzero ^= 1 << i
            if nonzero:
                k = (nonzero & -nonzero).bit_length() - 1
                return DiagonalityReport(False, (members[i], members[j], members[k]), diag)
    return DiagonalityReport(True, None, diag)


# ---------------------------------------------------------------------------
# the constructive direction: a diagonal tensor as |A| slices


@dataclass(frozen=True)
class DiagonalDecomposition:
    """T'(x,y,z) = c_x [x=y=z] on A^3 written as one slice per point:
    delta_p(x) * (c_p delta_p(y) delta_p(z))."""

    points: tuple
    values: tuple[int, ...]

    @property
    def slice_count(self) -> int:
        return len(self.points)

    def value_at(self, x, y, z) -> int:
        total = 0
        for p, c in zip(self.points, self.values):
            if x == p and y == p and z == p:
                total += c
        return total

    def verify(self):
        """Exhaustively compare the slice sum with the diagonal tensor over
        the point set; returns (ok, witness-or-None)."""
        target = dict(zip(self.points, self.values))
        for x in self.points:
            for y in self.points:
                for z in self.points:
                    want = target[x] if x == y == z else 0
                    if self.value_at(x, y, z) != want:
                        return False, (x, y, z)
        return True, None


def diagonal_decomposition(points, values) -> DiagonalDecomposition:
    """The |A|-slice decomposition of the diagonal tensor with the given
    nonzero diagonal values."""
    points = tuple(points)
    values = tuple(values)
    if len(points) != len(values):
        raise ValueError("one value per point")
    if len(set(points)) != len(points):
        raise ValueError("points must be distinct")
    if any(v == 0 for v in values):
        raise ValueError("diagonal values must be nonzero")
    return DiagonalDecomposition(points, values)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class BoundCertificate:
    """A machine-checkable record justifying |A| <= slice_count: the family,
    the diagonality verdict for T restricted to it (per weight layer in the
    binary setting), and the verified slice count with the closed-form bound
    attached for comparison.  The diagonal-tensor rank step is trusted, not
    re-proved."""

    setting: str
    n: int
    D: int | None
    family: Family
    diagonal_ok: bool
    diagonal_witness: tuple | None
    slice_count: int
    closed_form_bound: int
    conclusion: str
    lemma: str = "diagonal-slice-rank"

    def to_json_dict(self) -> dict:
        out = {
            "setting": self.setting,
            "n": self.n,
            "D": self.D,
            "family": self.family.to_text(),
            "diagonal_ok": self.diagonal_ok,
            "slice_count": str(self.slice_count),
            "closed_form_bound": str(self.closed_form_bound),
            "conclusion": self.conclusion,
            "lemma": self.lemma,
        }
        if self.diagonal_witness is not None:
            out["diagonal_witness"] = [m.to_line() for m in self.diagonal_witness]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "BoundCertificate":
        family = parse_family(
            data["family"], setting=data["setting"], D=data["D"], n=data["n"]
        )
        witness = None
        if "diagonal_witness" in data:
            # a witness triple may repeat a member, so parse line by line
            witness = tuple(
                parse_family(line, setting=data["setting"], D=data["D"], n=data["n"]).members[0]
                for line in data["diagonal_witness"]
            )
        return cls(
            setting=data["setting"],
            n=data["n"],
            D=data["D"],
            family=family,
            diagonal_ok=data["diagonal_ok"],
            diagonal_witness=witness,
            slice_count=int(data["slice_count"]),
            closed_form_bound=int(data["closed_form_bound"]),
            conclusion=data["conclusion"],
            lemma=data.get("lemma", "diagonal-slice-rank"),
        )

    @classmethod
    def from_json(cls, text: str) -> "BoundCertificate":
        return cls.from_json_dict(json.loads(text))


@lru_cache(maxsize=None)
def _verified_slice_count(setting: str, n: int, D: int | None) -> int:
    """Slice count of the expansion's decomposition, verified pointwise once
    per (setting, n, D): exhaustively when the domain is small, on seeded
    samples otherwise."""
    dec = decompose(expand_tensor(setting, n, D))
    try:
        ok, witness = verify_decomposition(dec, mode="exhaustive")
    except ResourceLimitError:
        ok, witness = verify_decomposition(dec, mode="sampled", samples=200, seed=0)
    if not ok:
        raise CertificationError(f"decomposition failed verification at {witness}", witness)
    return dec.slice_count


def certify_family(family: Family) -> BoundCertificate:
    """Run the full pipeline: sunflower-freeness, diagonality (per weight
    layer in the binary setting, whose constant weight rules out proper
    containments), and the verified slice count, concluding |A| <= count.

    Raises NotSunflowerFree when the precondition fails; a diagonality
    failure (impossible for genuinely sunflower-free input) is returned as
    an uncertified record rather than silently dropped.
    """
    sunflower = find_sunflower(family)
    if sunflower is not None:
        raise NotSunflowerFree(
            "family contains a sunflower: "
            + ", ".join(m.to_line() for m in sunflower),
            witness=sunflower,
        )
    if family.setting == BINARY:
        closed_form = subset_family_bound(family.n)
        layers = list(layer_split(family).values())
    else:
        closed_form = mod_count_bound(family.n, family.D)
        layers = [family]
    slice_count = _verified_slice_count(family.setting, family.n, family.D) * len(layers)
    for layer in layers:
        report = check_diagonal(layer)
        if not report.ok:
            return BoundCertificate(
                family.setting, family.n, family.D, family, False, report.witness,
                slice_count, closed_form, "not-certified",
            )
    if not len(family) <= slice_count <= closed_form:
        raise CertificationError(
            f"expected |A| = {len(family)} <= slice count {slice_count}"
            f" <= closed form {closed_form}"
        )
    return BoundCertificate(
        family.setting,
        family.n,
        family.D,
        family,
        True,
        None,
        slice_count,
        closed_form,
        f"|A| <= {slice_count}",
    )
