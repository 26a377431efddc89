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
    find_sunflower,
    layer_split,
    parse_family,
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


def _unpack_digits(f: int, n: int, D: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        f, r = divmod(f, D)
        out.append(r)
    return tuple(out)


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


def _term_axis(fx, fy, fz, threshold, nz) -> int:
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
    raise AssertionError("no axis within threshold: the expansion is broken")


def decompose(ts: TermSum) -> SliceDecomposition:
    """Group terms by (axis, factor): for each term pick the first axis in
    x,y,z order whose factor measure (degree / nontrivial-character count)
    is at most n/3 resp. 2n/3 -- one always exists since the measures sum to
    at most n resp. 2n."""
    threshold = _threshold(ts.setting, ts.n)
    nz = _measure_table(ts.setting, ts.n, ts.D)
    groups: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for num, fx, fy, fz in ts.terms:
        axis = _term_axis(fx, fy, fz, threshold, nz)
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
    keys = set()
    add = keys.add
    for _, fx, fy, fz in ts.terms:
        axis = _term_axis(fx, fy, fz, threshold, nz)
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
# Each setting has one evaluator, and both the expansion and the
# decomposition are fed to it as one table shape.  Binary keeps terms grouped
# as (axis, factor, residual): a factor that is not a subset of the point's
# mask on its axis zeroes the whole group, so the group is skipped, and the
# expansion is regrouped by x-factor to get the same skip.  Mod-D has no such
# skip (a character never vanishes), so its table is the flat
# (num, fx, fy, fz) list and a decomposition is flattened back into terms.


def _table(obj):
    """The setting's table shape for a TermSum or a SliceDecomposition."""
    if isinstance(obj, TermSum):
        if obj.setting != BINARY:
            return obj.terms
        groups: dict[int, list[tuple[int, int, int]]] = {}
        for num, fx, fy, fz in obj.terms:
            groups.setdefault(fx, []).append((num, fy, fz))
        return [(0, fx, residual) for fx, residual in groups.items()]
    if obj.setting == BINARY:
        return [(sl.axis, sl.factor, sl.residual) for sl in obj.slices]
    flat = []
    for sl in obj.slices:
        a, b = _OTHER_AXES[sl.axis]
        factors = [0, 0, 0]
        factors[sl.axis] = sl.factor
        for num, fa, fb in sl.residual:
            factors[a], factors[b] = fa, fb
            flat.append((num, *factors))
    return flat


def _binary_evaluator(table, mx, my, mz):
    """value(ix, iy, iz): the grouped table's integer sum at the point with
    subset masks (mx[ix], my[iy], mz[iz])."""
    pre = [(axis, factor, *_OTHER_AXES[axis], residual) for axis, factor, residual in table]

    def value(ix, iy, iz):
        masks = (mx[ix], my[iy], mz[iz])
        total = 0
        for axis, factor, a, b, residual in pre:
            if factor & ~masks[axis]:
                continue
            pa, pb = masks[a], masks[b]
            for num, fa, fb in residual:
                if fa & ~pa == 0 and fb & ~pb == 0:
                    total += num
        return total

    return value


def _mod_rows(factors, points, n, D):
    unpacked = {f: _unpack_digits(f, n, D) for f in factors}
    rows = {}
    for f, digs in unpacked.items():
        rows[f] = [sum(a * b for a, b in zip(digs, p)) % D for p in points]
    return rows


def _mod_evaluator(table, n, D, xs, ys, zs):
    """value(ix, iy, iz): the flat table's sum at (xs[ix], ys[iy], zs[iz]) as
    power-basis buckets, bucket k holding the numerator of zeta_D^k."""
    factors = {f for _, fx, fy, fz in table for f in (fx, fy, fz)}
    rx, ry, rz = (_mod_rows(factors, pts, n, D) for pts in (xs, ys, zs))
    pre = [(num, rx[fx], ry[fy], rz[fz]) for num, fx, fy, fz in table]

    def value(ix, iy, iz):
        buckets = [0] * D
        for num, fxr, fyr, fzr in pre:
            buckets[(fxr[ix] + fyr[iy] + fzr[iz]) % D] += num
        return buckets

    return value


def _value_at(obj, x, y, z):
    """A TermSum's or SliceDecomposition's exact value at one triple of
    vectors or coordinate tuples: int (binary) or Fraction (mod-D)."""
    if obj.setting == BINARY:
        masks = ([v.bits if isinstance(v, SubsetVector) else _mask(v)] for v in (x, y, z))
        return _binary_evaluator(_table(obj), *masks)(0, 0, 0)
    points = ([v.coords if isinstance(v, DVector) else tuple(v)] for v in (x, y, z))
    buckets = _mod_evaluator(_table(obj), obj.n, obj.D, *points)(0, 0, 0)
    frac = CycFrac.make(CycElem.from_power_vector(obj.D, buckets), obj.denominator).as_fraction()
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
        indices = itertools.product(range(m), repeat=3)
    elif mode == "sampled":
        if samples < 1:
            raise ValueError(f"sampled verification needs at least 1 sample, got {samples}")
        xs, ys, zs = _sampled_tuples(M, n, samples, seed)
        indices = ((i, i, i) for i in range(samples))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if obj.setting == BINARY:
        mx, my, mz = ([_mask(t) for t in pts] for pts in (xs, ys, zs))
        value = _binary_evaluator(_table(obj), mx, my, mz)

        def ok(ix, iy, iz):
            return value(ix, iy, iz) == _eval_binary_masks(mx[ix], my[iy], mz[iz], n)

    else:
        value = _mod_evaluator(_table(obj), n, D, xs, ys, zs)
        denominator = obj.denominator

        def ok(ix, iy, iz):
            target = denominator * _eval_mod_tuples(xs[ix], ys[iy], zs[iz])
            return CycElem.from_power_vector(D, value(ix, iy, iz)) == CycElem.from_int(D, target)

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
    """Evaluate T on all |F|^3 ordered member triples: the verdict is
    positive iff T is nonzero exactly on the diagonal.  The witness is the
    first violating ordered triple in lexicographic member order; diagonal
    values are reported alongside (binary diagonal: +-2^(number of zero
    coordinates); mod-D diagonal: 2^n)."""
    members = family.members
    if family.setting == BINARY:
        codes = [m.bits for m in members]

        def ev(i, j, k):
            return _eval_binary_masks(codes[i], codes[j], codes[k], family.n)

    else:
        if family.D < 3:
            raise ValueError("the mod-D tensor needs D >= 3")
        codes = [m.coords for m in members]

        def ev(i, j, k):
            return _eval_mod_tuples(codes[i], codes[j], codes[k])

    diag = tuple(ev(i, i, i) for i in range(len(members)))
    witness = None
    for i in range(len(members)):
        for j in range(len(members)):
            for k in range(len(members)):
                value = ev(i, j, k)
                on_diag = i == j == k
                if (value != 0) != on_diag:
                    witness = (members[i], members[j], members[k])
                    return DiagonalityReport(False, witness, diag)
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
        per_layer = _verified_slice_count(BINARY, family.n, None)
        layers = layer_split(family)
        for layer in layers.values():
            report = check_diagonal(layer)
            if not report.ok:
                return BoundCertificate(
                    BINARY, family.n, None, family, False, report.witness,
                    per_layer * len(layers), closed_form, "not-certified",
                )
        slice_count = per_layer * len(layers)
    else:
        closed_form = mod_count_bound(family.n, family.D)
        report = check_diagonal(family)
        if not report.ok:
            return BoundCertificate(
                MOD, family.n, family.D, family, False, report.witness,
                _verified_slice_count(MOD, family.n, family.D), closed_form,
                "not-certified",
            )
        slice_count = _verified_slice_count(MOD, family.n, family.D)
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
