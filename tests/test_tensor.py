import itertools
import json
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from slicerank import setsys, tensor
from slicerank.bounds import constant_weight_bound, mod_count_bound, subset_family_bound
from slicerank.exactnum import reduce_power_vector
from family_strategies import families
from slicerank.setsys import (
    BINARY,
    MOD,
    Family,
    completions,
    find_sunflower,
    layer_split,
    value_masks,
)
from slicerank.tensor import (
    CertificationError,
    DiagonalityReport,
    NotSunflowerFree,
    ResourceLimitError,
    Slice,
    SliceDecomposition,
    TermSum,
    certify_family,
    check_diagonal,
    decompose,
    decomposition_size,
    expand_tensor,
    tensor_value,
    verify_decomposition,
    verify_expansion,
)


def binary_family(*coord_rows):
    return Family(BINARY, len(coord_rows[0]), None, coord_rows)


def mod_family(D, *coord_rows):
    return Family(MOD, len(coord_rows[0]), D, coord_rows)


def count_slices(ts):
    """Number of slices decompose(ts) would produce, without building the
    residuals (the grouping keys are streamed into one set per axis): the
    key count of a materialised expansion, an oracle for decomposition_size."""
    threshold, limit, within = tensor._slicing(ts)
    kx, ky, kz = keys = (set(), set(), set())
    for term in ts.terms:
        num, fx, fy, fz = term
        if not (0 <= fx < limit and 0 <= fy < limit and 0 <= fz < limit):
            raise tensor._term_error(term, threshold, limit)
        if within[fx]:
            kx.add(fx)
        elif within[fy]:
            ky.add(fy)
        elif within[fz]:
            kz.add(fz)
        else:
            raise tensor._term_error(term, threshold, limit)
    return sum(map(len, keys))


def _frontier(points):
    """The maximal points of a set of measure vectors."""
    return frozenset(
        p for p in points
        if not any(q != p and all(a >= b for a, b in zip(q, p)) for q in points)
    )


def key_count(setting, n, D=None):
    """Number of realised keys (axis, f) of decompose(expand_tensor(...)),
    by a program over the one-coordinate expansion instead of the closed
    form.  A key is realised iff some term carries f on the axis, f has
    measure at most t, and every earlier axis has measure above t.  Digit by
    digit of f, the state is f's measure so far and the Pareto frontier of
    the earlier axes' reachable measure vectors, both capped at t + 1; each
    f takes one path, so counting f per state counts the keys."""
    rows = expand_tensor(setting, 1, D).terms
    t = n // 3 if setting == BINARY else (2 * n) // 3
    cap = t + 1
    total = 0
    for axis in range(3):
        # per digit of f: what a coordinate adds to the earlier axes' measures
        steps = {}
        for _, *digits in rows:
            add = tuple(int(digits[b] != 0) for b in range(axis))
            steps.setdefault(digits[axis], set()).add(add)
        states = {(0, frozenset([(0,) * axis])): 1}
        for _ in range(n):
            nxt = {}
            for (m, front), count in states.items():
                for d, adds in steps.items():
                    if m + (d != 0) > t:
                        continue
                    reach = {tuple(min(cap, v + a) for v, a in zip(p, add))
                             for p in front for add in adds}
                    key = (m + (d != 0), _frontier(reach))
                    nxt[key] = nxt.get(key, 0) + count
            states = nxt
        total += sum(count for (_, front), count in states.items() if (cap,) * axis in front)
    return total


def _unpack_digits(f, n, D):
    # a base-D packed character-index vector, coordinate 1 first
    out = []
    for _ in range(n):
        f, r = divmod(f, D)
        out.append(r)
    return tuple(out)


# --- pointwise values -------------------------------------------------------


def test_binary_values_single_coordinate():
    assert tensor_value(BINARY, (0,), (0,), (0,)) == 2
    assert tensor_value(BINARY, (1,), (1,), (0,)) == 0
    assert tensor_value(BINARY, (1,), (1,), (1,)) == -1
    assert tensor_value(BINARY, (1,), (0,), (0,)) == 1


def test_binary_value_is_coordinate_product():
    # oracle: multiply 2 - (x_i + y_i + z_i) coordinate by coordinate
    for n in (1, 2, 3):
        pts = list(itertools.product((0, 1), repeat=n))
        for xt, yt, zt in itertools.product(pts, repeat=3):
            direct = 1
            for a, b, c in zip(xt, yt, zt):
                direct *= 2 - (a + b + c)
            assert tensor_value(BINARY, xt, yt, zt) == direct


def test_mod_values_cases():
    # distinct -> -1, exactly two equal -> 0, all equal -> 2 (D=5, n=1)
    assert tensor_value(MOD, (0,), (1,), (2,)) == -1
    assert tensor_value(MOD, (1,), (1,), (2,)) == 0
    assert tensor_value(MOD, (4,), (4,), (4,)) == 2
    assert tensor_value(MOD, (0, 0), (0, 1), (0, 2)) == -2


def test_mod_off_diagonal_zero_per_coordinate():
    # any coordinate with exactly two equal values kills the product
    for D in (3, 4, 5):
        for a, b, c in itertools.product(range(D), repeat=3):
            equal = (a == b) + (b == c) + (a == c)
            v = tensor_value(MOD, (a,), (b,), (c,))
            if equal == 1:
                assert v == 0
            elif equal == 3:
                assert v == 2
            else:
                assert v == -1


def test_mod_value_is_coordinate_product():
    # oracle: multiply the per-coordinate case values directly
    pts = list(itertools.product(range(3), repeat=2))
    for xt, yt, zt in itertools.product(pts, repeat=3):
        direct = 1
        for a, b, c in zip(xt, yt, zt):
            equal = (a == b) + (b == c) + (a == c)
            direct *= equal - 1
        assert tensor_value(MOD, xt, yt, zt) == direct


def test_tensor_value_validation():
    with pytest.raises(ValueError, match="mismatched"):
        tensor_value(BINARY, (1,), (1, 0), (0,))
    with pytest.raises(ValueError, match="mismatched"):
        tensor_value(MOD, (1, 2), (0, 1), (0,))
    with pytest.raises(ValueError, match="unknown setting"):
        tensor_value("capset", (0,), (1,), (2,))


# --- expansion ----------------------------------------------------------------


def test_binary_expansion_n1():
    ts = expand_tensor(BINARY, 1)
    assert sorted(ts.terms) == [(-1, 0, 0, 1), (-1, 0, 1, 0), (-1, 1, 0, 0), (2, 0, 0, 0)]
    assert ts.denominator == 1


def test_binary_expansion_n0():
    ts = expand_tensor(BINARY, 0)
    assert ts.terms == ((1, 0, 0, 0),)
    assert _ref_value_at(ts, (), (), ()) == 1


def test_expansion_term_counts():
    assert len(expand_tensor(BINARY, 3).terms) == 4**3
    assert len(expand_tensor(MOD, 2, 3).terms) == 6**2  # the -1 merge drops out at D=3
    assert len(expand_tensor(MOD, 2, 4).terms) == 10**2


def test_mod_expansion_nontrivial_counts_are_even_per_coordinate():
    ts = expand_tensor(MOD, 1, 3)
    for _, fx, fy, fz in ts.terms:
        nontrivial = (fx != 0) + (fy != 0) + (fz != 0)
        assert nontrivial in (0, 2)


def test_mod_expansion_value_example():
    ts = expand_tensor(MOD, 1, 3)
    assert _ref_value_at(ts, (0,), (1,), (2,)) == -1
    assert _ref_value_at(ts, (0,), (0,), (0,)) == 2


def test_binary_total_degree_invariant():
    for n in (1, 2, 3, 4):
        for _, fx, fy, fz in expand_tensor(BINARY, n).terms:
            assert fx.bit_count() + fy.bit_count() + fz.bit_count() <= n


def test_factor_triples_are_distinct():
    for setting, n, D in [(BINARY, 3, None), (MOD, 2, 3), (MOD, 2, 4), (MOD, 1, 5)]:
        ts = expand_tensor(setting, n, D)
        keys = {(fx, fy, fz) for _, fx, fy, fz in ts.terms}
        assert len(keys) == len(ts.terms)
        assert all(num != 0 for num, *_ in ts.terms)


def test_mod_total_nontrivial_count_invariant():
    for D, n in [(3, 2), (4, 2), (5, 1)]:
        for _, fx, fy, fz in expand_tensor(MOD, n, D).terms:
            total = sum(
                sum(1 for d in _unpack_digits(f, n, D) if d) for f in (fx, fy, fz)
            )
            assert total <= 2 * n


def test_expansion_resource_guard(monkeypatch):
    # 4^11 and 16^6 terms are over the cap, refused before any term is built
    with pytest.raises(ResourceLimitError, match="exceeds 1048576 terms"):
        expand_tensor(BINARY, 11)
    with pytest.raises(ResourceLimitError, match="exceeds 1048576 terms"):
        expand_tensor(MOD, 6, 6)
    # the cap is read at call time: 4^4 terms at its boundary
    monkeypatch.setattr(tensor, "DEFAULT_MAX_TERMS", 255)
    with pytest.raises(ResourceLimitError, match="exceeds 255 terms"):
        expand_tensor(BINARY, 4)
    monkeypatch.setattr(tensor, "DEFAULT_MAX_TERMS", 256)
    assert len(expand_tensor(BINARY, 4).terms) == 256


def _reference_expand(setting, n, D=None):
    # the expansion as two loops, one per setting, choosing coordinate by
    # coordinate: every term of coordinates 0..i-1 is extended by each choice
    # for coordinate i in turn
    max_terms = tensor.DEFAULT_MAX_TERMS
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


@pytest.mark.parametrize(
    "setting,n,D", [(BINARY, n, None) for n in range(0, 9)]
    + [(MOD, n, D) for D in range(3, 8) for n in range(0, 4)],
)
def test_expansion_matches_the_coordinate_by_coordinate_reference(setting, n, D):
    # the same terms in the same order
    assert expand_tensor(setting, n, D) == _reference_expand(setting, n, D)


def _raised(fn, *args):
    try:
        fn(*args)
    except (ValueError, ResourceLimitError) as exc:
        return type(exc), str(exc)
    raise AssertionError("no error raised")


@pytest.mark.parametrize(
    "args",
    [(BINARY, -1), (MOD, -1, 3), (BINARY, 2, 3), (MOD, 2), (MOD, 2, 2), ("ternary", 2, 3),
     (BINARY, 11), (MOD, 6, 6)],
)
def test_expansion_errors_match_the_reference(args):
    assert _raised(expand_tensor, *args) == _raised(_reference_expand, *args)


@pytest.mark.parametrize(
    "setting,n,D",
    [(BINARY, 1, None), (BINARY, 2, None), (BINARY, 3, None), (BINARY, 4, None),
     (MOD, 1, 3), (MOD, 2, 3), (MOD, 3, 3), (MOD, 1, 4), (MOD, 2, 4), (MOD, 1, 5), (MOD, 2, 5)],
)
def test_expansion_matches_product_exhaustively(setting, n, D):
    ok, witness = verify_expansion(expand_tensor(setting, n, D))
    assert ok, witness


# --- decomposition ---------------------------------------------------------------


def test_decompose_binary_n1_structure():
    dec = decompose(expand_tensor(BINARY, 1))
    assert dec.slice_count == 2
    # slice on x with trivial factor collects 2*1 - y - z; slice on y with
    # trivial factor collects -x
    assert dec.slices == (
        Slice(0, 0, ((2, 0, 0), (-1, 1, 0), (-1, 0, 1))),
        Slice(1, 0, ((-1, 1, 0),)),
    )


def _full_terms(sl):
    # a slice's rows as (num, fx, fy, fz) terms, in the rows' order
    a, b = tensor._OTHER_AXES[sl.axis]
    for num, fa, fb in sl.residual:
        factors = [0, 0, 0]
        factors[sl.axis], factors[a], factors[b] = sl.factor, fa, fb
        yield (num, *factors)


@pytest.mark.parametrize(
    "setting,n,D", [(BINARY, 3, None), (BINARY, 5, None), (MOD, 2, 3), (MOD, 3, 3), (MOD, 2, 5)]
)
def test_decompose_keeps_the_term_order(setting, n, D):
    ts = expand_tensor(setting, n, D)
    terms = list(ts.terms)
    random.Random(n).shuffle(terms)
    shuffled = TermSum(setting, n, D, ts.denominator, tuple(terms))
    dec, sdec = decompose(ts), decompose(shuffled)
    # the same slices, still by axis, then factor
    assert [(sl.axis, sl.factor) for sl in sdec.slices] == sorted(
        (sl.axis, sl.factor) for sl in dec.slices)
    taken = []
    for sl in sdec.slices:
        # the expansion's terms are distinct, so a slice's rows name the
        # terms it takes; they come in the shuffled order
        rows = list(_full_terms(sl))
        assert rows == [t for t in terms if t in set(rows)]
        taken += rows
    assert sorted(taken) == sorted(terms)
    assert tensor._diagram(sdec) == tensor._diagram(dec)
    assert verify_decomposition(sdec) == verify_decomposition(dec) == (True, None)
    # a sum missing one term fails the same way in either order
    broken = TermSum(setting, n, D, ts.denominator, ts.terms[1:])
    sbroken = TermSum(setting, n, D, ts.denominator, tuple(t for t in terms if t != ts.terms[0]))
    verdict = verify_decomposition(decompose(broken))
    assert verdict[0] is False and verdict[1] is not None
    assert verify_decomposition(decompose(sbroken)) == verdict


def test_decompose_factor_measures_within_threshold():
    for n in (1, 2, 3, 4):
        dec = decompose(expand_tensor(BINARY, n))
        for sl in dec.slices:
            assert sl.factor.bit_count() <= n // 3
    dec = decompose(expand_tensor(MOD, 1, 3))
    assert dec.slice_count <= 3
    for sl in dec.slices:
        assert sl.factor == 0  # threshold floor(2/3) = 0 forces trivial factors
    for D, n in [(3, 2), (4, 2)]:
        for sl in decompose(expand_tensor(MOD, n, D)).slices:
            nontrivial = sum(1 for d in _unpack_digits(sl.factor, n, D) if d)
            assert nontrivial <= (2 * n) // 3


@pytest.mark.parametrize(
    "setting,n,D",
    [(BINARY, 1, None), (BINARY, 2, None), (BINARY, 3, None), (BINARY, 4, None),
     (MOD, 1, 3), (MOD, 2, 3), (MOD, 3, 3), (MOD, 1, 4), (MOD, 2, 4), (MOD, 1, 5), (MOD, 2, 5)],
)
def test_decomposition_reconstructs_tensor(setting, n, D):
    dec = decompose(expand_tensor(setting, n, D))
    ok, witness = verify_decomposition(dec)
    assert ok, witness


def test_corrupted_decomposition_is_caught():
    dec = decompose(expand_tensor(BINARY, 2))
    first = dec.slices[0]
    broken_residual = ((first.residual[0][0] + 1,) + first.residual[0][1:],) + first.residual[1:]
    broken = SliceDecomposition(
        dec.setting, dec.n, dec.D, dec.denominator,
        (Slice(first.axis, first.factor, broken_residual),) + dec.slices[1:],
    )
    ok, witness = verify_decomposition(broken)
    assert not ok and witness is not None

    dec3 = decompose(expand_tensor(MOD, 1, 3))
    first = dec3.slices[0]
    broken = SliceDecomposition(
        dec3.setting, dec3.n, dec3.D, dec3.denominator,
        (Slice(first.axis, first.factor, first.residual[1:]),) + dec3.slices[1:],
    )
    ok, witness = verify_decomposition(broken)
    assert not ok and witness is not None


def test_verify_exhaustive_and_sampled_agree():
    dec = decompose(expand_tensor(MOD, 2, 3))
    assert verify_decomposition(dec) == (True, None)
    assert verify_decomposition(dec, mode="sampled", samples=64) == (True, None)


@pytest.mark.parametrize("samples", [0, -5])
def test_verify_rejects_sample_count_below_one(samples):
    # a corrupted expansion must not pass by checking no point at all
    ts = expand_tensor(BINARY, 2)
    broken = TermSum(ts.setting, ts.n, ts.D, ts.denominator, ((7, 0, 0, 0),) + ts.terms)
    with pytest.raises(ValueError):
        verify_expansion(broken, mode="sampled", samples=samples)
    with pytest.raises(ValueError):
        verify_decomposition(decompose(broken), mode="sampled", samples=samples)


def test_sampled_mode_catches_global_corruption():
    # a bogus constant term added to a trivial-factor slice is wrong at
    # every point, so the first sample already witnesses it
    dec = decompose(expand_tensor(BINARY, 3))
    sl = next(s for s in dec.slices if s.factor == 0)
    rest = tuple(s for s in dec.slices if s is not sl)
    broken = SliceDecomposition(
        dec.setting, dec.n, dec.D, dec.denominator,
        rest + (Slice(sl.axis, sl.factor, ((7, 0, 0),) + sl.residual),),
    )
    ok, witness = verify_decomposition(broken, mode="sampled", samples=10)
    assert not ok and witness is not None and len(witness) == 3


def _first_mismatch(obj):
    # brute-force oracle: the first (x, y, z) in itertools.product order
    # where the flat reference value differs from the product form
    M = 2 if obj.setting == BINARY else obj.D
    pts = list(itertools.product(range(M), repeat=obj.n))
    value = _ref_values(obj, pts, pts, pts)
    for ix, iy, iz in itertools.product(range(len(pts)), repeat=3):
        if not _ref_ok(obj, value(ix, iy, iz), pts[ix], pts[iy], pts[iz]):
            return pts[ix], pts[iy], pts[iz]
    return None


def test_verify_witness_is_lex_least():
    # each corruption is wrong on a set that is not a product of x-, y- and
    # z-sets, so scanning the coordinates in another priority would report
    # another point
    corruptions = [
        # 5 x_2 + 7 z_1: wrong where x_2 = 1 or z_1 = 1
        (BINARY, 2, None, [(5, 0b10, 0, 0), (7, 0, 0, 0b01)]),
        # [x_2 != 0] + 2 [z_1 != 0], from 2 - zeta^a - zeta^2a = 3 [a != 0]
        (MOD, 2, 3, [(6, 0, 0, 0), (-3, 3, 0, 0), (-3, 6, 0, 0),
                     (12, 0, 0, 0), (-6, 0, 0, 1), (-6, 0, 0, 2)]),
    ]
    for setting, n, D, extra in corruptions:
        ts = expand_tensor(setting, n, D)
        dec = decompose(ts)
        broken_terms = TermSum(setting, n, D, ts.denominator, ts.terms + tuple(extra))
        broken_slices = SliceDecomposition(
            setting, n, D, dec.denominator,
            dec.slices + tuple(Slice(0, fx, ((num, fy, fz),)) for num, fx, fy, fz in extra),
        )
        for verify, broken in ((verify_expansion, broken_terms),
                               (verify_decomposition, broken_slices)):
            witness = _first_mismatch(broken)
            assert witness == ((0,) * n, (0,) * n, (1,) + (0,) * (n - 1))
            assert verify(broken) == (False, witness)


def _drop_last_residual_term(dec):
    last = dec.slices[-1]
    return SliceDecomposition(
        dec.setting, dec.n, dec.D, dec.denominator,
        dec.slices[:-1] + (Slice(last.axis, last.factor, last.residual[:-1]),),
    )


def test_verify_exhaustive_resource_guard(monkeypatch):
    # the caps bound the pointwise scan, which only a sum that is not the
    # product form gets; they are read at call time
    dec = decompose(expand_tensor(BINARY, 4))
    broken = _drop_last_residual_term(dec)
    work_cap = tensor.DEFAULT_WORK_CAP
    tensor._one_coordinate.cache_clear()
    monkeypatch.setattr(tensor, "DEFAULT_POINT_CAP", 10)
    # the one-coordinate check scans 8 points with 4 terms each, and it is
    # all the product form needs
    monkeypatch.setattr(tensor, "DEFAULT_WORK_CAP", 31)
    with pytest.raises(ResourceLimitError, match="one-coordinate check over 8 points"):
        verify_decomposition(dec)
    monkeypatch.setattr(tensor, "DEFAULT_WORK_CAP", 32)
    assert verify_decomposition(dec) == (True, None)
    # the point cap alone
    monkeypatch.setattr(tensor, "DEFAULT_WORK_CAP", work_cap)
    with pytest.raises(ResourceLimitError):
        verify_decomposition(broken)
    # 2^12 points times the diagram's edges
    monkeypatch.setattr(tensor, "DEFAULT_POINT_CAP", 2**12)
    edges = sum(len(node) for level in tensor._diagram(broken)[1]
                for node in level)
    monkeypatch.setattr(tensor, "DEFAULT_WORK_CAP", 2**12 * edges - 1)
    with pytest.raises(ResourceLimitError):
        verify_decomposition(broken)
    monkeypatch.setattr(tensor, "DEFAULT_WORK_CAP", 2**12 * edges)
    assert verify_decomposition(broken) == (False, _first_mismatch(broken))


def test_count_slices_matches_decompose():
    for setting, n, D in [(BINARY, 0, None), (BINARY, 3, None), (MOD, 2, 4)]:
        ts = expand_tensor(setting, n, D)
        assert count_slices(ts) == decompose(ts).slice_count


def test_decompose_rejects_a_term_with_no_axis_within_threshold():
    # every factor has degree 3 > n // 3 = 1, so no slice can take the term
    ts = TermSum(BINARY, 3, None, 1, ((1, 7, 7, 7),))
    with pytest.raises(ValueError, match=r"\(1, 7, 7, 7\)"):
        decompose(ts)
    with pytest.raises(ValueError, match=r"\(1, 7, 7, 7\)"):
        count_slices(ts)


@pytest.mark.parametrize(
    "ts",
    [
        TermSum(MOD, 2, 3, 9, ((1, -1, 0, 0),)),
        TermSum(MOD, 2, 3, 9, ((1, 9, 0, 0),)),
        TermSum(MOD, 2, 3, 9, ((1, 0, 0, 9),)),
        TermSum(BINARY, 3, None, 1, ((1, -1, 0, 0),)),
        TermSum(BINARY, 3, None, 1, ((1, 0, 8, 0),)),
    ],
    ids=lambda ts: f"{ts.setting}-{ts.terms[0]}",
)
def test_decompose_rejects_a_factor_outside_the_domain(ts):
    # before the range check, -1 read the measure of the last factor (mod-D)
    # or the bit count of 1 (binary), 8 passed as a degree-1 binary factor,
    # and 9 ended in an IndexError
    term = re.escape(str(ts.terms[0]))
    with pytest.raises(ValueError, match=term):
        decompose(ts)
    with pytest.raises(ValueError, match=term):
        count_slices(ts)


# --- the coordinate diagram against the flat per-point reference -------------------
#
# The reference is the per-point evaluation the diagram replaced: binary terms
# grouped as (axis, factor, residual) and skipped when the factor does not
# divide the point; mod-D terms as one flat (num, fx, fy, fz) table whose
# character phases are precomputed per factor and point.  It takes T by
# cases at each coordinate, not from the library's per-coordinate factors.


def _ref_table(obj):
    if isinstance(obj, TermSum):
        if obj.setting != BINARY:
            return obj.terms
        groups = {}
        for num, fx, fy, fz in obj.terms:
            groups.setdefault(fx, []).append((num, fy, fz))
        return [(0, fx, residual) for fx, residual in groups.items()]
    if obj.setting == BINARY:
        return [(sl.axis, sl.factor, sl.residual) for sl in obj.slices]
    flat = []
    for sl in obj.slices:
        a, b = tensor._OTHER_AXES[sl.axis]
        factors = [0, 0, 0]
        factors[sl.axis] = sl.factor
        for num, fa, fb in sl.residual:
            factors[a], factors[b] = fa, fb
            flat.append((num, *factors))
    return flat


def _ref_binary_evaluator(table, mx, my, mz):
    pre = [(axis, factor, *tensor._OTHER_AXES[axis], residual) for axis, factor, residual in table]

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


def _ref_mod_rows(factors, points, n, D):
    unpacked = {f: _unpack_digits(f, n, D) for f in factors}
    return {f: [sum(a * b for a, b in zip(digs, p)) % D for p in points]
            for f, digs in unpacked.items()}


def _ref_mod_evaluator(table, n, D, xs, ys, zs):
    factors = {f for _, fx, fy, fz in table for f in (fx, fy, fz)}
    rx, ry, rz = (_ref_mod_rows(factors, pts, n, D) for pts in (xs, ys, zs))
    pre = [(num, rx[fx], ry[fy], rz[fz]) for num, fx, fy, fz in table]

    def value(ix, iy, iz):
        buckets = [0] * D
        for num, fxr, fyr, fzr in pre:
            buckets[(fxr[ix] + fyr[iy] + fzr[iz]) % D] += num
        return buckets

    return value


def _ref_values(obj, xs, ys, zs):
    # binary values come as one bucket, as the diagram's evaluator gives them
    if obj.setting == BINARY:
        masks = ([sum(c << i for i, c in enumerate(t)) for t in pts] for pts in (xs, ys, zs))
        value = _ref_binary_evaluator(_ref_table(obj), *masks)
        return lambda ix, iy, iz: [value(ix, iy, iz)]
    return _ref_mod_evaluator(_ref_table(obj), obj.n, obj.D, xs, ys, zs)


# T at one coordinate by cases: binary by the number of ones, mod-D by the
# number of equal pairs among (a, b, c)
_BINARY_CASES = {0: 2, 1: 1, 2: 0, 3: -1}
_MOD_CASES = {3: 2, 1: 0, 0: -1}


def _ref_T(setting, x, y, z):
    value = 1
    for a, b, c in zip(x, y, z):
        if setting == BINARY:
            value *= _BINARY_CASES[a + b + c]
        else:
            value *= _MOD_CASES[(a == b) + (b == c) + (a == c)]
    return value


def _ref_ok(obj, value, x, y, z):
    target = obj.denominator * _ref_T(obj.setting, x, y, z)
    if obj.setting == BINARY:
        return value == [target]
    return reduce_power_vector(obj.D, value) == reduce_power_vector(obj.D, [target])


def _ref_value_at(obj, x, y, z):
    # the flat reference's exact value at one point: an int (binary), or a
    # Fraction (mod-D), None where the value is irrational
    value = _ref_values(obj, [x], [y], [z])(0, 0, 0)
    if obj.setting == BINARY:
        return value[0]
    num, *irrational = reduce_power_vector(obj.D, value)
    return None if any(irrational) else Fraction(num, obj.denominator)


def _diagram_values(obj, pts):
    # one phase for monomials, D for characters of Z/DZ
    R, value = tensor._evaluator(obj, tensor._diagram(obj))
    assert R == (1 if obj.setting == BINARY else obj.D)
    return lambda ix, iy, iz: value(pts[ix], pts[iy], pts[iz])


def _fixed_samples(M, n, samples):
    # the sampled mode's points, drawn here independently of the library:
    # three axes of `samples` tuples each from the one stream random.Random(0)
    rng = random.Random(0)
    return [[tuple(rng.randrange(M) for _ in range(n)) for _ in range(samples)]
            for _ in range(3)]


def _check_against_reference(ts, dec, samples=0):
    # ts and dec hold the same multiset of terms, so one reference pass
    # serves both: equal values at every point, equal verify verdicts and
    # witnesses, exhaustive and (if asked) sampled
    M = 2 if ts.setting == BINARY else ts.D
    pts = list(itertools.product(range(M), repeat=ts.n))
    ref = _ref_values(ts, pts, pts, pts)
    new = [_diagram_values(obj, pts) for obj in (ts, dec)]
    witness = None
    for ix, iy, iz in itertools.product(range(len(pts)), repeat=3):
        want = ref(ix, iy, iz)
        assert [value(ix, iy, iz) for value in new] == [want, want]
        if witness is None and not _ref_ok(ts, want, pts[ix], pts[iy], pts[iz]):
            witness = (pts[ix], pts[iy], pts[iz])
    expected = (witness is None, witness)
    assert verify_expansion(ts) == expected
    assert verify_decomposition(dec) == expected
    if samples:
        xs, ys, zs = _fixed_samples(M, ts.n, samples)
        ref = _ref_values(ts, xs, ys, zs)
        bad = [i for i in range(samples) if not _ref_ok(ts, ref(i, i, i), xs[i], ys[i], zs[i])]
        # the verdict is the exhaustive one; the samples only name the witness
        first = (xs[bad[0]], ys[bad[0]], zs[bad[0]]) if bad else None
        expected = (witness is None, first)
        kwargs = dict(mode="sampled", samples=samples)
        assert verify_expansion(ts, **kwargs) == expected
        assert verify_decomposition(dec, **kwargs) == expected


def _as_slices(ts, axes):
    # one single-term slice per term, cut on the given axis
    slices = []
    for axis, (num, *factors) in zip(axes, ts.terms):
        a, b = tensor._OTHER_AXES[axis]
        slices.append(Slice(axis, factors[axis], ((num, factors[a], factors[b]),)))
    return SliceDecomposition(ts.setting, ts.n, ts.D, ts.denominator, tuple(slices))


@st.composite
def term_tables(draw):
    setting = draw(st.sampled_from([BINARY, MOD]))
    if setting == BINARY:
        n, D, M = draw(st.integers(0, 3)), None, 2
    else:
        D = draw(st.sampled_from([3, 4, 5]))
        n, M = draw(st.integers(0, 2)), D
    factor = st.integers(0, M**n - 1)
    pool = draw(st.lists(st.tuples(st.integers(-3, 3), factor, factor, factor), max_size=8))
    if draw(st.booleans()):
        # near the expansion, so that mismatches sit away from the first point
        pool += expand_tensor(setting, n, D).terms
    if pool:
        pool += draw(st.lists(st.sampled_from(pool), max_size=4))
        pool += [(-num, *f) for num, *f in draw(st.lists(st.sampled_from(pool), max_size=4))]
    terms = tuple(draw(st.permutations(pool)))
    ts = TermSum(setting, n, D, 1 if D is None else D**n, terms)
    axes = draw(st.lists(st.integers(0, 2), min_size=len(terms), max_size=len(terms)))
    return ts, _as_slices(ts, axes), draw(st.integers(1, 25))


@settings(max_examples=40, deadline=None)
@given(term_tables())
def test_diagram_matches_flat_reference_on_random_tables(table):
    # the sample count picks which points of the fixed stream are scanned
    ts, dec, samples = table
    _check_against_reference(ts, dec, samples)


@pytest.mark.parametrize(
    "setting,n,D", [(BINARY, 0, None), (BINARY, 2, None), (MOD, 0, 4), (MOD, 1, 3), (MOD, 2, 5)]
)
def test_diagram_matches_flat_reference_on_edge_tables(setting, n, D):
    den = 1 if D is None else D**n
    terms = expand_tensor(setting, n, D).terms
    cancelling = terms + tuple((-num, *f) for num, *f in terms)
    constants = ((3, 0, 0, 0), (-5, 0, 0, 0), (2, 0, 0, 0))
    for table in ((), cancelling, constants if n == 0 else terms):
        ts = TermSum(setting, n, D, den, table)
        _check_against_reference(ts, _as_slices(ts, [k % 3 for k in range(len(table))]), 5)


def test_diagram_of_all_cancelling_terms_is_empty():
    ts = expand_tensor(MOD, 2, 3)
    assert tensor._diagram(_cancelled(ts)) == (0, [[], []])


def test_diagram_rejects_factors_outside_the_domain():
    for terms, n in [(((1, 4, 0, 0),), 2), (((1, 0, 0, 1),), 0), (((1, -1, 0, 0),), 2)]:
        with pytest.raises(ValueError):
            tensor._diagram(TermSum(BINARY, n, None, 1, terms))


@pytest.mark.parametrize(
    "setting,n,D",
    [(BINARY, n, None) for n in range(1, 9)]
    + [(MOD, n, D) for D in (3, 4, 5, 6) for n in range(0, 5)],
)
def test_expansion_diagram_has_one_node_per_level(setting, n, D):
    ts = expand_tensor(setting, n, D)
    coef, levels = diagram = tensor._diagram(ts)
    width = 4 if D is None else 3 * (D - 1) + (D != 3)
    assert [len(level) for level in levels] == [1] * n
    assert [len(level[0]) for level in levels] == [width] * n
    assert coef != 0
    assert tensor._is_product(ts, diagram)
    dec = decompose(ts)
    assert tensor._diagram(dec) == diagram
    assert tensor._is_product(dec, diagram)


def _doubled(ts):
    return TermSum(ts.setting, ts.n, ts.D, ts.denominator,
                   tuple((2 * num, *f) for num, *f in ts.terms))


def _over_D(ts):
    return TermSum(ts.setting, ts.n, ts.D, ts.denominator * ts.D, ts.terms)


def _cancelled(ts):
    return TermSum(ts.setting, ts.n, ts.D, ts.denominator,
                   ts.terms + tuple((-num, *f) for num, *f in ts.terms))


@pytest.mark.parametrize(
    "setting,n,D,corrupt",
    [(BINARY, 3, None, _doubled), (MOD, 2, 3, _doubled), (MOD, 2, 4, _over_D),
     (MOD, 1, 5, _over_D), (BINARY, 3, None, _cancelled), (MOD, 2, 4, _cancelled)],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_is_product_rejects_a_scaled_sum(setting, n, D, corrupt):
    # each sum is wrong at the first point already, T(0, 0, 0) = 2^n
    broken = corrupt(expand_tensor(setting, n, D))
    assert not tensor._is_product(broken, tensor._diagram(broken))
    first = ((0,) * n,) * 3
    assert _first_mismatch(broken) == first
    assert verify_expansion(broken) == (False, first)


@pytest.mark.parametrize("setting,n,D", [(BINARY, 1, None), (BINARY, 3, None),
                                         (MOD, 1, 3), (MOD, 2, 4)])
def test_is_product_rejects_a_dropped_residual_term(setting, n, D):
    broken = _drop_last_residual_term(decompose(expand_tensor(setting, n, D)))
    assert not tensor._is_product(broken, tensor._diagram(broken))
    assert verify_decomposition(broken) == (False, _first_mismatch(broken))


# --- the packed single-pass build against the term-by-term reference ----------------
#
# The references are the diagram build and the decomposition before terms were
# read as packed ints: the diagram split each factor with divmod level by level
# and grouped under (fx, fy, fz) tuples, and decompose chose each term's axis by
# a call that range-checked and measured its three factors (its rows keep the
# terms' order, as decompose's do).  Node interning is shared (tensor._intern).
# The reference numbers a level's nodes by first appearance, the library by
# block, so diagrams that are not chains are compared in a canonical form.


def _reference_terms(obj):
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


def _reference_diagram(obj):
    terms, n, M = _reference_terms(obj), obj.n, 2 if obj.setting == BINARY else obj.D
    L = M**3
    items = terms
    C = 1
    levels = []
    for k in range(n - 1, -1, -1):
        P = M**k
        W = L * C
        groups = {}
        for cc, fx, fy, fz in items:
            dx, fx = divmod(fx, P)
            dy, fy = divmod(fy, P)
            dz, fz = divmod(fz, P)
            if not (0 <= dx < M and 0 <= dy < M and 0 <= dz < M):
                raise ValueError(f"a term factor lies outside the domain of n={n}")
            groups.setdefault((fx, fy, fz), []).append(dx + M * dy + M * M * dz + L * cc)
        nodes = []
        index = {}
        entries = {}
        for prefix, packed in groups.items():
            packed = tuple(packed)
            if packed not in entries:
                entries[packed] = tensor._intern(packed, W, nodes, index)
            groups[prefix] = entries[packed]
        levels.append(nodes)
        C = len(nodes)
        items = ((entry[0] * C + entry[1], *prefix) for prefix, entry in groups.items() if entry)
    coef = 0
    for c, fx, fy, fz in items:
        if fx or fy or fz:
            raise ValueError(f"a term factor lies outside the domain of n={n}")
        coef += c
    return coef, levels[::-1]


def _reference_term_axis(num, fx, fy, fz, threshold, nz, limit):
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


def _reference_decompose(ts):
    if ts.setting == BINARY:
        threshold, nz, limit = ts.n // 3, None, 2**ts.n
    else:
        threshold, limit = (2 * ts.n) // 3, ts.D**ts.n
        nz = [0] * limit
        for v in range(1, limit):
            nz[v] = nz[v // ts.D] + (1 if v % ts.D else 0)
    groups = {}
    for num, fx, fy, fz in ts.terms:
        axis = _reference_term_axis(num, fx, fy, fz, threshold, nz, limit)
        factors = (fx, fy, fz)
        a, b = tensor._OTHER_AXES[axis]
        groups.setdefault((axis, factors[axis]), []).append((num, factors[a], factors[b]))
    slices = tuple(
        Slice(axis, factor, tuple(residual))
        for (axis, factor), residual in sorted(groups.items())
    )
    return SliceDecomposition(ts.setting, ts.n, ts.D, ts.denominator, slices)


def _outcome(fn, *args, **kwargs):
    # the result, or the message of the ValueError it raised
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return "ValueError", str(exc)


def _canonical(obj, outcome):
    # a diagram renumbered and re-signed bottom-up, so that equal sums give
    # equal diagrams whatever order their nodes were met in: each node's
    # children take their canonical index and sign, its edges are re-sorted
    # and signed by the first, as tensor._intern signs them, and each level's
    # nodes are sorted; an error outcome is left as it is
    if outcome[0] == "ValueError":
        return outcome
    coef, levels = outcome
    L = (2 if obj.setting == BINARY else obj.D) ** 3
    C, index, sign = 1, [0], [1]
    canonical = []
    for level in reversed(levels):
        W = L * C
        forms = []
        for node in level:
            edges = sorted((index[e % W // L] * L + e % L, sign[e % W // L] * (e // W))
                           for e in node)
            s = -1 if edges[0][1] < 0 else 1
            forms.append((tuple(key + W * s * c for key, c in edges), s))
        order = sorted(range(len(forms)), key=lambda i: forms[i][0])
        index = [0] * len(forms)
        for new, old in enumerate(order):
            index[old] = new
        sign = [s for _, s in forms]
        canonical.append([forms[i][0] for i in order])
        C = len(level)
    if coef:
        coef *= sign[0]
    return coef, canonical[::-1]


@st.composite
def altered_expansions(draw):
    # an expansion at n <= 3, shuffled, with terms duplicated, split in two,
    # cancelled, and corrupted (a term that may fit no slice, or whose
    # factor may leave the domain), and its terms cut into one-term slices
    setting = draw(st.sampled_from([BINARY, MOD]))
    D = None if setting == BINARY else draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(0, 3))
    M = 2 if D is None else D
    ts = expand_tensor(setting, n, D)
    terms = list(ts.terms)
    factor = st.integers(0, M**n - 1)
    edits = st.tuples(st.sampled_from(["duplicate", "split", "cancel", "corrupt"]),
                      st.integers(0, len(terms) - 1), st.integers(-3, 3))
    for edit, i, c in draw(st.lists(edits, max_size=6)):
        num, *factors = terms[i]
        if edit == "duplicate":
            terms.append(terms[i])
        elif edit == "split":
            terms[i] = (c, *factors)
            terms.append((num - c, *factors))
        elif edit == "cancel":
            terms.append((-num, *factors))
        else:
            terms.append((c, draw(factor), draw(factor), draw(factor)))
    if draw(st.integers(0, 3)) == 0:
        # a factor outside range(M^n): negative or too large
        bad = draw(st.sampled_from([-1, -(M**n) - 1, M**n, M ** (n + 1)]))
        term = [1, 0, 0, 0]
        term[draw(st.integers(1, 3))] = bad
        terms.insert(draw(st.integers(0, len(terms))), tuple(term))
    rng = random.Random(draw(st.integers(0, 2**16)))
    rng.shuffle(terms)
    ts = TermSum(setting, n, D, ts.denominator, tuple(terms))
    return ts, _as_slices(ts, [rng.randrange(3) for _ in terms])


@settings(max_examples=150, deadline=None)
@given(altered_expansions())
def test_packed_build_matches_the_reference(instance):
    ts, slices = instance
    dec = _outcome(decompose, ts)
    assert dec == _outcome(_reference_decompose, ts)
    assert _outcome(count_slices, ts) == (
        dec if isinstance(dec, tuple) else dec.slice_count
    )
    for obj in (ts, slices) + ((dec,) if isinstance(dec, SliceDecomposition) else ()):
        assert (_canonical(obj, _outcome(tensor._diagram, obj))
                == _canonical(obj, _outcome(_reference_diagram, obj)))


def _shuffled(obj, rng):
    # the same terms in another order: a sum's terms, or a decomposition's
    # slices and each slice's rows
    if isinstance(obj, TermSum):
        return TermSum(obj.setting, obj.n, obj.D, obj.denominator,
                       tuple(rng.sample(obj.terms, len(obj.terms))))
    slices = [Slice(sl.axis, sl.factor, tuple(rng.sample(sl.residual, len(sl.residual))))
              for sl in obj.slices]
    rng.shuffle(slices)
    return SliceDecomposition(obj.setting, obj.n, obj.D, obj.denominator, tuple(slices))


@settings(max_examples=100, deadline=None)
@given(altered_expansions(), st.integers(0, 2**16))
def test_term_order_leaves_the_diagram_and_verdicts_unchanged(instance, seed):
    # the blocks are sorted before they are deduplicated, so any order of
    # the same terms builds the same diagram up to numbering
    ts, slices = instance
    rng = random.Random(seed)
    M = 2 if ts.D is None else ts.D
    modes = [dict(mode="sampled", samples=1 + seed % 40)]
    if M ** (3 * ts.n) <= 4096:
        modes.append(dict(mode="exhaustive"))
    dec = _outcome(decompose, ts)
    pairs = [(ts, verify_expansion), (slices, verify_decomposition)]
    if isinstance(dec, SliceDecomposition):
        pairs.append((dec, verify_decomposition))
    for obj, verify in pairs:
        other = _shuffled(obj, rng)
        assert (_canonical(obj, _outcome(tensor._diagram, other))
                == _canonical(obj, _outcome(tensor._diagram, obj)))
        for kwargs in modes:
            assert _outcome(verify, other, **kwargs) == _outcome(verify, obj, **kwargs)


@pytest.mark.parametrize(
    "setting,n,D", [(BINARY, 6, None), (BINARY, 8, None), (MOD, 4, 3), (MOD, 3, 4)]
)
def test_groups_in_fresh_orders_build_the_same_diagram(setting, n, D):
    # the expansion lists each low prefix's terms in one run, and most runs
    # repeat an earlier run's top labels and coefficients in the same order;
    # shuffled within their runs, no two groups' raw entries are equal, so
    # every block is sorted afresh, while the low prefixes and the blocks are
    # met in the same order and the nodes keep their numbers
    ts = expand_tensor(setting, n, D)
    Ml = (2 if D is None else D) ** (n - (n + 1) // 2)

    def low(term):
        return tuple(f % Ml for f in term[1:])

    rng = random.Random(n)
    runs = [list(run) for _, run in itertools.groupby(ts.terms, low)]
    runs = [rng.sample(run, len(run)) for run in runs]
    assert len({low(run[0]) for run in runs}) == len(runs)
    raw = {tuple((num, fx // Ml, fy // Ml, fz // Ml) for num, fx, fy, fz in run) for run in runs}
    assert len(raw) == len(runs)
    shuffled = TermSum(setting, n, D, ts.denominator, tuple(t for run in runs for t in run))
    assert tensor._diagram(shuffled) == tensor._diagram(ts)


@pytest.mark.parametrize(
    "setting,n,D", [(BINARY, n, None) for n in range(0, 9)]
    + [(MOD, n, D) for D in (3, 4, 5) for n in range(0, 4)],
)
def test_packed_build_matches_the_reference_on_expansions(setting, n, D):
    # the expansion's diagram is a chain, one node a level, so numbering
    # cannot differ and the diagrams are exactly equal
    ts = expand_tensor(setting, n, D)
    dec = decompose(ts)
    assert dec == _reference_decompose(ts)
    for obj in (ts, dec):
        assert tensor._diagram(obj) == _reference_diagram(obj)


@pytest.mark.parametrize(
    "setting,n,D,term",
    [(BINARY, 3, None, (1, 7, 7, 7)), (BINARY, 3, None, (1, 0, 0, 8)),
     (BINARY, 3, None, (1, 0, -1, 0)), (BINARY, 0, None, (2, 0, 0, 1)),
     (MOD, 2, 3, (1, 8, 8, 8)), (MOD, 2, 3, (1, 0, 0, 9)), (MOD, 2, 3, (1, -1, 0, 0)),
     (MOD, 2, 4, (1, 0, 16, 0)), (MOD, 2, 5, (1, 24, 24, 24)), (MOD, 0, 3, (1, 0, 0, -3)),
     # a factor at or past M^n on the z axis, behind an x factor within the
     # threshold, so no slice needs the z factor's measure
     (MOD, 2, 4, (1, 0, 0, 16)), (MOD, 2, 4, (1, 0, 3, 17)), (MOD, 2, 5, (1, 0, 0, 25)),
     (MOD, 3, 5, (1, 1, 0, 125)), (MOD, 2, 5, (1, 0, 4, 49)),
     # negative y and z factors
     (BINARY, 3, None, (1, 0, 0, -1)), (BINARY, 3, None, (1, 7, -8, 0)),
     (MOD, 2, 4, (1, 0, -1, 0)), (MOD, 2, 5, (1, 0, 0, -25)), (MOD, 2, 5, (1, 24, 24, -1))],
)
def test_bad_terms_raise_the_reference_messages(setting, n, D, term):
    ts = TermSum(setting, n, D, 1 if D is None else D**n, ((2, 0, 0, 0), term))
    want = _outcome(_reference_decompose, ts)
    assert want[0] == "ValueError"
    assert _outcome(decompose, ts) == want
    assert _outcome(count_slices, ts) == want
    # the diagram of the terms and of one-term slices on each axis
    for obj in [ts] + [_as_slices(ts, [axis] * 2) for axis in range(3)]:
        assert (_canonical(obj, _outcome(tensor._diagram, obj))
                == _canonical(obj, _outcome(_reference_diagram, obj)))


@pytest.mark.parametrize("setting,n,D", [(BINARY, 3, None), (MOD, 2, 5)])
def test_a_float_factor_is_a_type_error(setting, n, D):
    # a float factor on any axis, also behind an x factor within the
    # threshold, which no slice choice needs to look up
    ts = expand_tensor(setting, n, D)
    for terms in ([(1, 1.0, 0, 0)], [(1, 0, 2.0, 0)], [(1, 0, 0, 3.0)]):
        broken = TermSum(setting, n, D, ts.denominator, ts.terms + tuple(terms))
        with pytest.raises(TypeError):
            decompose(broken)
        with pytest.raises(TypeError):
            tensor._diagram(broken)
        # as a slice's factor and as a residual factor
        for axes in ([0] * len(ts.terms) + [0], [1] * len(ts.terms) + [2]):
            with pytest.raises(TypeError):
                tensor._diagram(_as_slices(broken, axes))


@pytest.mark.parametrize("setting,n,D", [(BINARY, 6, None), (MOD, 4, 3)])
def test_shuffled_slice_rows_build_the_same_diagram(setting, n, D):
    # within each slice the rows come in a fresh order, so a low prefix's
    # rows arrive in short runs and its block is met in pieces; the slices
    # keep their order
    dec = decompose(expand_tensor(setting, n, D))
    rng = random.Random(n)
    shuffled = SliceDecomposition(setting, n, D, dec.denominator, tuple(
        Slice(sl.axis, sl.factor, tuple(rng.sample(sl.residual, len(sl.residual))))
        for sl in dec.slices
    ))
    assert shuffled != dec
    want = tensor._diagram(dec)
    assert _canonical(dec, tensor._diagram(shuffled)) == _canonical(dec, want)
    assert tensor._is_product(shuffled, tensor._diagram(shuffled))
    assert verify_decomposition(shuffled, mode="sampled", samples=20) == (True, None)


def _wrong_at_all_ones(n):
    # the binary expansion plus x_1..x_n y_1..y_n z_1..z_n, which is nonzero
    # only where every coordinate is 1, as a term sum and as slices
    ts = expand_tensor(BINARY, n)
    full = 2**n - 1
    dec = decompose(ts)
    broken_slices = SliceDecomposition(
        BINARY, n, None, 1, dec.slices + (Slice(0, full, ((1, full, full),)),)
    )
    return TermSum(BINARY, n, None, 1, ts.terms + ((1, full, full, full),)), broken_slices


def test_sampled_verification_fails_a_sum_no_sample_shows_wrong():
    broken_terms, broken_slices = _wrong_at_all_ones(4)
    ones = ((1,) * 4,) * 3
    sampled = dict(mode="sampled", samples=200)
    xs, ys, zs = _fixed_samples(2, 4, 200)
    assert ones not in zip(xs, ys, zs)
    assert verify_expansion(broken_terms, **sampled) == (False, None)
    assert verify_decomposition(broken_slices, **sampled) == (False, None)
    assert verify_expansion(broken_terms) == (False, ones)
    assert verify_decomposition(broken_slices) == (False, ones)


@pytest.mark.parametrize("setting,n,D", [(BINARY, 0, None), (BINARY, 3, None),
                                         (MOD, 1, 3), (MOD, 2, 4), (MOD, 2, 5)])
def test_a_sum_over_a_scaled_denominator_passes_without_a_scan(setting, n, D, monkeypatch):
    # every num and the denominator doubled: the same function as T, decided
    # by the diagram alone
    def no_scan(*args):
        raise AssertionError("scanned for a witness")

    monkeypatch.setattr(tensor, "_witness", no_scan)
    ts = expand_tensor(setting, n, D)
    doubled = TermSum(setting, n, D, 2 * ts.denominator,
                      tuple((2 * num, *f) for num, *f in ts.terms))
    for mode in ("exhaustive", "sampled"):
        assert verify_expansion(doubled, mode=mode) == (True, None)
        assert verify_decomposition(decompose(doubled), mode=mode) == (True, None)


@st.composite
def evaluation_instances(draw):
    setting = draw(st.sampled_from([BINARY, MOD]))
    if setting == BINARY:
        n = draw(st.integers(0, 4))
        D, M = None, 2
    else:
        D = draw(st.sampled_from([3, 4, 5]))
        n = draw(st.integers(0, 2))
        M = D
    point = st.tuples(*[st.integers(0, M - 1)] * n)
    return setting, n, D, draw(point), draw(point), draw(point)


@settings(max_examples=60, deadline=None)
@given(evaluation_instances())
def test_public_evaluations_agree_at_random_points(instance):
    # the expansion and its decomposition, by the flat reference, and the
    # product form must agree exactly (Fractions in the mod-D setting)
    setting, n, D, xt, yt, zt = instance
    ts = expand_tensor(setting, n, D)
    dec = decompose(ts)
    if setting == BINARY:
        want = tensor_value(BINARY, xt, yt, zt)
    else:
        want = tensor_value(MOD, xt, yt, zt)
    assert _ref_value_at(ts, xt, yt, zt) == want
    assert _ref_value_at(dec, xt, yt, zt) == want


def test_decomposition_size_closed_form_matches_actual():
    for n in range(0, 8):
        assert decomposition_size(BINARY, n) == count_slices(expand_tensor(BINARY, n))
    for D in (3, 4, 5, 6):
        for n in range(0, 5):
            assert decomposition_size(MOD, n, D) == count_slices(expand_tensor(MOD, n, D))


def test_decomposition_size_matches_the_key_count_program():
    for n in range(0, 41):
        assert decomposition_size(BINARY, n) == key_count(BINARY, n)
    for D in range(3, 8):
        for n in range(0, 9):
            assert decomposition_size(MOD, n, D) == key_count(MOD, n, D)


@pytest.mark.parametrize("n,D", [(7, 3)] + [(n, 7) for n in range(0, 5)])
def test_decomposition_size_matches_the_built_grouping_at_the_term_cap(n, D):
    # with acceptance criterion 03, every (n, D <= 7) whose expansion fits
    # the term cap: mod-3 n=7 (279 936 terms) and mod-7 n<=4 are built here
    ts = expand_tensor(MOD, n, D)
    assert decomposition_size(MOD, n, D) == count_slices(ts) == key_count(MOD, n, D)


def test_slice_counts_within_closed_form_bounds():
    for n in range(0, 11):
        assert decomposition_size(BINARY, n) <= constant_weight_bound(n)
    for D in (3, 4, 5, 6):
        for n in range(1, 7):
            assert decomposition_size(MOD, n, D) <= mod_count_bound(n, D)


# --- diagonality ------------------------------------------------------------------


def test_binary_layer_is_diagonal():
    fam = binary_family((1, 0), (0, 1))
    report = check_diagonal(fam)
    assert report.ok


def test_mod_layer_is_diagonal():
    fam = mod_family(3, (0, 1), (2, 2))
    report = check_diagonal(fam)
    assert report.ok and report.witness is None
    # T(m, m, m) = 2^n, nonzero on the diagonal
    assert [tensor_value(MOD, m, m, m) for m in fam] == [4, 4]


def test_non_antichain_rejected_with_witness():
    a = (1, 0)
    b = (1, 1)
    report = check_diagonal(binary_family(a, b))
    assert not report.ok
    assert report.witness == (a, a, b)


def test_diagonality_of_random_free_layers():
    # sunflower-free constant-weight binary families are diagonal
    import random

    from slicerank.setsys import triple_is_sunflower

    rng = random.Random(5)
    for n in (4, 6, 8):
        for w in (1, n // 2):
            pool = [v for v in itertools.product((0, 1), repeat=n) if sum(v) == w]
            rng.shuffle(pool)
            members = []
            for v in pool:
                if not any(
                    triple_is_sunflower(BINARY, a, b, v)
                    for a, b in itertools.combinations(members, 2)
                ):
                    members.append(v)
            fam = binary_family(*members)
            assert check_diagonal(fam).ok


def _cubic_check_diagonal(family):
    """check_diagonal before the pair masks: T on all |F|^3 ordered triples."""
    members = family.members
    for i, x in enumerate(members):
        for j, y in enumerate(members):
            for k, z in enumerate(members):
                if (tensor_value(family.setting, x, y, z) != 0) != (i == j == k):
                    return DiagonalityReport(False, (x, y, z))
    return DiagonalityReport(True, None)


@settings(max_examples=300, deadline=None)
@given(families(Ds=(3, 4, 5)))
def test_check_diagonal_matches_cubic_loop(fam):
    assert check_diagonal(fam) == _cubic_check_diagonal(fam)
    if fam.setting == BINARY:
        for layer in layer_split(fam).values():
            assert check_diagonal(layer) == _cubic_check_diagonal(layer)


DIAGONAL_EDGE_FAMILIES = [
    Family(BINARY, 2, None, ()),
    Family(MOD, 2, 3, ()),
    Family(BINARY, 0, None, ((),)),
    Family(MOD, 0, 4, ((),)),
    # proper containments: T(x, x, y) != 0 for x inside y
    binary_family((0, 0, 1), (0, 1, 1), (1, 1, 1)),
    binary_family((1, 0, 0), (0, 1, 0), (1, 1, 0)),
    binary_family((0, 0), (1, 1)),
    mod_family(3, (0, 1), (1, 2), (2, 0)),
    mod_family(4, (0, 0), (1, 1), (0, 1)),
]


@pytest.mark.parametrize("fam", DIAGONAL_EDGE_FAMILIES)
def test_check_diagonal_edge_families(fam):
    assert check_diagonal(fam) == _cubic_check_diagonal(fam)


def _diagonal_per_layer(fam):
    layers = layer_split(fam).values() if fam.setting == BINARY else [fam]
    return all(check_diagonal(layer).ok for layer in layers)


@settings(max_examples=300, deadline=None)
@given(families(Ds=(3, 4, 5)))
def test_free_families_are_diagonal(fam):
    # the lemma certify_family rests on instead of a diagonality scan: T is
    # diagonal on a sunflower-free family, per weight layer if binary
    assume(find_sunflower(fam) is None)
    assert _diagonal_per_layer(fam)


# certify takes diagonality from find_sunflower's verdict, whose scan runs in
# windows: with one row per window, a free edge family is diagonal per layer
@pytest.mark.parametrize("fam", DIAGONAL_EDGE_FAMILIES)
def test_check_diagonal_edge_families_in_one_row_windows(fam):
    with mock.patch.object(setsys, "_PAIR_BITS", 1):
        free = find_sunflower(fam) is None
    assert not free or _diagonal_per_layer(fam)


@settings(max_examples=100, deadline=None)
@given(families(Ds=(3, 4, 5)))
def test_completions_are_the_support_of_t(fam):
    # the identity the pair tables rest on, on repeated members too
    members = fam.members
    codes = members
    masks = value_masks(codes, fam.n)
    full = (1 << len(codes)) - 1
    for i, x in enumerate(members):
        for j, y in enumerate(members):
            want = sum(1 << k for k, z in enumerate(members)
                       if tensor_value(fam.setting, x, y, z) != 0)
            assert completions(fam.setting, masks, codes[i], codes[j], full) == want


# --- certificates ------------------------------------------------------------------


def test_certify_mod_example():
    cert = certify_family(mod_family(3, (0,), (1,)))
    assert cert.to_json_dict()["diagonal_ok"]
    assert cert.slice_count <= 3
    assert 2 <= cert.slice_count <= cert.closed_form_bound
    assert cert.conclusion == f"|A| <= {cert.slice_count}"


def test_certify_rejects_sunflower():
    fam = binary_family((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(NotSunflowerFree) as exc:
        certify_family(fam)
    assert exc.value.witness is not None


def test_certify_binary_two_layers():
    fam = binary_family((1, 0), (0, 1))
    cert = certify_family(fam)
    assert cert.to_json_dict()["diagonal_ok"]
    assert cert.slice_count <= constant_weight_bound(2) == 3
    assert cert.closed_form_bound == subset_family_bound(2)


def test_certify_empty_family():
    cert = certify_family(Family(BINARY, 3, None, ()))
    assert cert.slice_count == 0 and cert.to_json_dict()["diagonal_ok"]


def test_certify_rejects_slice_count_below_family_size(monkeypatch):
    monkeypatch.setattr(tensor, "_structural_slice_count", lambda setting, n, D: 0)
    with pytest.raises(CertificationError):
        certify_family(binary_family((1, 0)))


def test_failed_slice_verification_is_a_certification_error(monkeypatch):
    # the one-coordinate lemma fails when the choice table is not T at n = 1
    tensor._one_coordinate.cache_clear()
    monkeypatch.setattr(tensor, "_choices", lambda setting, D: [(2, 0, 0, 0), (-1, 1, 0, 0)])
    with pytest.raises(CertificationError, match="not the product form"):
        tensor._structural_slice_count.__wrapped__(BINARY, 1, None)


@pytest.mark.parametrize("setting,D", [(BINARY, None), (MOD, 3), (MOD, 4)])
def test_one_coordinate_check_owns_its_cap(monkeypatch, setting, D):
    # the check is charged as an exhaustive scan would be, M^3 points times
    # the terms at n = 1, whichever caller asks for it
    cube = (2 if D is None else D) ** 3
    work = cube * len(expand_tensor(setting, 1, D).terms)
    tensor._one_coordinate.cache_clear()
    monkeypatch.setattr(tensor, "DEFAULT_WORK_CAP", work - 1)
    with pytest.raises(ResourceLimitError, match=f"over {cube} points at D={D} is over the cap"):
        tensor._one_coordinate(setting, D)
    monkeypatch.setattr(tensor, "DEFAULT_WORK_CAP", work)
    coef, level, denominator = tensor._one_coordinate(setting, D)
    assert denominator == (1 if D is None else D)
    tensor._one_coordinate.cache_clear()


def _shift_phase(rows):
    # the first (1, j, D - j, 0) row becomes (1, j, D - j - 1, 1): still a
    # character that sums to 0 mod D, but not T's, and wrong on the x = 0 plane
    i = next(i for i, row in enumerate(rows) if row[0] == 1 and row[3] == 0)
    _, j, k, _ = rows[i]
    return rows[:i] + [(1, j, k - 1, 1)] + rows[i + 1:]


def _break_invariant(rows):
    # the first (1, j, D - j, 0) row becomes (1, j + 1, D - j, 0): on the
    # x = 0 plane it is the old row, so only the invariance check sees it
    i = next(i for i, row in enumerate(rows) if row[0] == 1 and row[3] == 0)
    _, j, k, _ = rows[i]
    return rows[:i] + [(1, j + 1, k, 0)] + rows[i + 1:]


@pytest.mark.parametrize("D", [3, 4, 7])
@pytest.mark.parametrize("mutate", [_shift_phase, _break_invariant])
def test_one_coordinate_check_rejects_a_wrong_row(monkeypatch, mutate, D):
    choices = tensor._choices
    tensor._one_coordinate.cache_clear()
    monkeypatch.setattr(tensor, "_choices", lambda setting, D: mutate(choices(setting, D)))
    with pytest.raises(ArithmeticError, match="mod-d expansion at n=1 is not the product form"):
        tensor._one_coordinate(MOD, D)


def test_choice_table_is_the_one_coordinate_expansion():
    # decomposition_size counts keys of a table whose rows have at most 1
    # resp. 2 nonzero factor digits, so every term of the n-fold product has
    # an axis of measure within n//3 resp. 2n//3; the caps are checked on
    # the table's length, _choice_count, before it is built
    for setting, D in [(BINARY, None)] + [(MOD, D) for D in range(3, 13)]:
        table = tensor._choices(setting, D)
        assert len(table) == tensor._choice_count(setting, D)
        assert list(expand_tensor(setting, 1, D).terms) == table
        most = 1 if setting == BINARY else 2
        assert all(sum(c != 0 for c in row[1:]) <= most for row in table)


# {1, 2}, {1, 3}, {2, 3} and {1, 2, 3, 4} in {1, ..., 6}: two weight layers
_BITS_6 = ((1, 1, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 0), (1, 1, 1, 1, 0, 0))


def test_certify_checks_the_slice_count_without_sampling(monkeypatch):
    # the slice count rests on the one-coordinate lemma, which needs no
    # sampled point
    def no_sampling(*args):
        raise AssertionError("sampled a point")

    monkeypatch.setattr(tensor, "_sampled_tuples", no_sampling)
    tensor._structural_slice_count.cache_clear()
    cert = certify_family(Family(BINARY, 6, None, _BITS_6))
    assert cert.to_json_dict()["diagonal_ok"]
    assert cert.slice_count == 2 * decomposition_size(BINARY, 6)


def test_certify_builds_no_expansion(monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("built the expansion or its decomposition")

    tensor._structural_slice_count.cache_clear()
    tensor._one_coordinate.cache_clear()
    monkeypatch.setattr(tensor, "expand_tensor", built)
    monkeypatch.setattr(tensor, "decompose", built)
    assert certify_family(Family(BINARY, 6, None, _BITS_6)).slice_count == 2 * key_count(BINARY, 6)
    cert = certify_family(mod_family(3, (0, 1, 2), (1, 1, 0)))
    assert cert.slice_count == key_count(MOD, 3, 3)
    # a certificate at an n whose expansion is far over the term cap
    cert = certify_family(mod_family(5, (1,) * 30, (2,) * 30))
    assert cert.slice_count == key_count(MOD, 30, 5)


def test_certificate_json_fields():
    cert = certify_family(mod_family(3, (0, 1), (1, 2)))
    text = cert.to_json()
    assert json.loads(text) == {
        "setting": MOD,
        "n": 2,
        "D": 3,
        "family": "0,1\n1,2\n",
        "diagonal_ok": True,
        "slice_count": str(cert.slice_count),
        "closed_form_bound": str(cert.closed_form_bound),
        "conclusion": f"|A| <= {cert.slice_count}",
        "lemma": "diagonal-slice-rank",
    }
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@st.composite
def free_mod_families(draw):
    from slicerank.setsys import triple_is_sunflower

    D = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(1, 2))
    pool = draw(
        st.lists(
            st.tuples(*[st.integers(0, D - 1)] * n), min_size=1, max_size=12, unique=True
        )
    )
    members: list[tuple[int, ...]] = []
    for v in pool:
        if not any(
            triple_is_sunflower(MOD, a, b, v) for a, b in itertools.combinations(members, 2)
        ):
            members.append(v)
    return mod_family(D, *members)


@settings(max_examples=25, deadline=None)
@given(free_mod_families())
def test_certify_random_free_mod_families(fam):
    cert = certify_family(fam)
    assert cert.to_json_dict()["diagonal_ok"]
    assert len(fam) <= cert.slice_count <= cert.closed_form_bound
