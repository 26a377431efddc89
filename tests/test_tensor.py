import itertools

import pytest
from hypothesis import given, settings, strategies as st

from slicerank import tensor
from slicerank.bounds import constant_weight_bound, mod_count_bound, subset_family_bound
from slicerank.setsys import BINARY, MOD, DVector, Family, SubsetVector
from slicerank.tensor import (
    BoundCertificate,
    CertificationError,
    NotSunflowerFree,
    ResourceLimitError,
    Slice,
    SliceDecomposition,
    TermSum,
    certify_family,
    check_diagonal,
    count_slices,
    decompose,
    decomposition_size,
    diagonal_decomposition,
    expand_tensor,
    tensor_value,
    verify_decomposition,
    verify_expansion,
)


def sv(*coords):
    return SubsetVector.from_coords(coords)


def dv(D, *coords):
    return DVector(len(coords), D, tuple(coords))


# --- pointwise values -------------------------------------------------------


def test_binary_values_single_coordinate():
    assert tensor_value(sv(0), sv(0), sv(0)) == 2
    assert tensor_value(sv(1), sv(1), sv(0)) == 0
    assert tensor_value(sv(1), sv(1), sv(1)) == -1
    assert tensor_value(sv(1), sv(0), sv(0)) == 1


def test_binary_value_is_coordinate_product():
    # oracle: multiply 2 - (x_i + y_i + z_i) coordinate by coordinate
    for n in (1, 2, 3):
        pts = list(itertools.product((0, 1), repeat=n))
        for xt, yt, zt in itertools.product(pts, repeat=3):
            direct = 1
            for a, b, c in zip(xt, yt, zt):
                direct *= 2 - (a + b + c)
            assert tensor_value(sv(*xt), sv(*yt), sv(*zt)) == direct


def test_mod_values_cases():
    # distinct -> -1, exactly two equal -> 0, all equal -> 2 (D=5, n=1)
    assert tensor_value(dv(5, 0), dv(5, 1), dv(5, 2)) == -1
    assert tensor_value(dv(5, 1), dv(5, 1), dv(5, 2)) == 0
    assert tensor_value(dv(5, 4), dv(5, 4), dv(5, 4)) == 2
    assert tensor_value(dv(3, 0, 0), dv(3, 0, 1), dv(3, 0, 2)) == -2


def test_mod_off_diagonal_zero_per_coordinate():
    # any coordinate with exactly two equal values kills the product
    for D in (3, 4, 5):
        for a, b, c in itertools.product(range(D), repeat=3):
            equal = (a == b) + (b == c) + (a == c)
            v = tensor_value(dv(D, a), dv(D, b), dv(D, c))
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
        assert tensor_value(dv(3, *xt), dv(3, *yt), dv(3, *zt)) == direct


def test_tensor_value_validation():
    with pytest.raises(ValueError):
        tensor_value(sv(1), sv(1, 0), sv(0))
    with pytest.raises(ValueError):
        tensor_value(dv(2, 0), dv(2, 1), dv(2, 0))


# --- expansion ----------------------------------------------------------------


def test_binary_expansion_n1():
    ts = expand_tensor(BINARY, 1)
    assert sorted(ts.terms) == [(-1, 0, 0, 1), (-1, 0, 1, 0), (-1, 1, 0, 0), (2, 0, 0, 0)]
    assert ts.denominator == 1


def test_binary_expansion_n0():
    ts = expand_tensor(BINARY, 0)
    assert ts.terms == ((1, 0, 0, 0),)
    assert ts.value_at((), (), ()) == 1


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
    assert ts.value_at((0,), (1,), (2,)) == -1
    assert ts.value_at((0,), (0,), (0,)) == 2


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
    from slicerank.tensor import _unpack_digits

    for D, n in [(3, 2), (4, 2), (5, 1)]:
        for _, fx, fy, fz in expand_tensor(MOD, n, D).terms:
            total = sum(
                sum(1 for d in _unpack_digits(f, n, D) if d) for f in (fx, fy, fz)
            )
            assert total <= 2 * n


def test_expansion_resource_guard():
    with pytest.raises(ResourceLimitError):
        expand_tensor(BINARY, 4, max_terms=100)
    with pytest.raises(ResourceLimitError):
        expand_tensor(MOD, 3, 6, max_terms=100)


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
        Slice(0, 0, ((-1, 0, 1), (-1, 1, 0), (2, 0, 0))),
        Slice(1, 0, ((-1, 1, 0),)),
    )


def test_decompose_factor_measures_within_threshold():
    from slicerank.tensor import _unpack_digits

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
    assert verify_decomposition(dec, mode="sampled", samples=64, seed=7) == (True, None)


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
    ok, witness = verify_decomposition(broken, mode="sampled", samples=10, seed=3)
    assert not ok and witness is not None and len(witness) == 3


def _first_mismatch(obj):
    # brute-force oracle: the first (x, y, z) in itertools.product order
    # where the object's value differs from the product form
    M = 2 if obj.setting == BINARY else obj.D
    pts = list(itertools.product(range(M), repeat=obj.n))
    vec = sv if obj.setting == BINARY else (lambda *c: dv(obj.D, *c))
    for x, y, z in itertools.product(pts, repeat=3):
        if obj.value_at(x, y, z) != tensor_value(vec(*x), vec(*y), vec(*z)):
            return x, y, z
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


def test_verify_exhaustive_resource_guard():
    dec = decompose(expand_tensor(BINARY, 4))
    with pytest.raises(ResourceLimitError):
        verify_decomposition(dec, point_cap=10)


def test_count_slices_matches_decompose():
    for setting, n, D in [(BINARY, 0, None), (BINARY, 3, None), (MOD, 2, 4)]:
        ts = expand_tensor(setting, n, D)
        assert count_slices(ts) == decompose(ts).slice_count


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
    # TermSum.value_at, SliceDecomposition.value_at, and the product form
    # must agree exactly (Fractions in the mod-D setting)
    setting, n, D, xt, yt, zt = instance
    ts = expand_tensor(setting, n, D)
    dec = decompose(ts)
    if setting == BINARY:
        want = tensor_value(sv(*xt), sv(*yt), sv(*zt))
    else:
        want = tensor_value(dv(D, *xt), dv(D, *yt), dv(D, *zt))
    assert ts.value_at(xt, yt, zt) == want
    assert dec.value_at(xt, yt, zt) == want


def test_decomposition_size_closed_form_matches_actual():
    for n in range(0, 8):
        assert decomposition_size(BINARY, n) == count_slices(expand_tensor(BINARY, n))
    for D in (3, 4, 5, 6):
        for n in range(0, 5):
            assert decomposition_size(MOD, n, D) == count_slices(expand_tensor(MOD, n, D))


def test_slice_counts_within_closed_form_bounds():
    for n in range(0, 11):
        assert decomposition_size(BINARY, n) <= constant_weight_bound(n)
    for D in (3, 4, 5, 6):
        for n in range(1, 7):
            assert decomposition_size(MOD, n, D) <= mod_count_bound(n, D)


# --- diagonality ------------------------------------------------------------------


def test_mod_diagonal_values():
    fam = Family.of([dv(3, 0, 1), dv(3, 2, 2)])
    report = check_diagonal(fam)
    assert report.ok and report.diagonal_values == (4, 4)


def test_binary_layer_is_diagonal():
    fam = Family.of([SubsetVector.from_support(2, [1]), SubsetVector.from_support(2, [2])])
    report = check_diagonal(fam)
    assert report.ok


def test_non_antichain_rejected_with_witness():
    a = SubsetVector.from_support(2, [1])
    b = SubsetVector.from_support(2, [1, 2])
    report = check_diagonal(Family.of([a, b]))
    assert not report.ok
    assert report.witness == (a, a, b)


def test_diagonality_of_random_free_layers():
    # sunflower-free constant-weight binary families are diagonal
    import random

    from slicerank.setsys import triple_is_sunflower

    rng = random.Random(5)
    for n in (4, 6, 8):
        for w in (1, n // 2):
            pool = [SubsetVector(n, b) for b in range(1 << n) if SubsetVector(n, b).weight == w]
            rng.shuffle(pool)
            members = []
            for v in pool:
                if not any(
                    triple_is_sunflower(a, b, v)
                    for a, b in itertools.combinations(members, 2)
                ):
                    members.append(v)
            fam = Family.of(members)
            assert check_diagonal(fam).ok


# --- the constructive diagonal decomposition ------------------------------------------


def test_diagonal_decomposition_sizes():
    single = diagonal_decomposition([("p",)], [2])
    assert single.slice_count == 1 and single.verify() == (True, None)
    triple = diagonal_decomposition([(0,), (1,), (2,)], [2, 2, 2])
    assert triple.slice_count == 3
    assert triple.verify() == (True, None)
    empty = diagonal_decomposition([], [])
    assert empty.slice_count == 0 and empty.verify() == (True, None)


def test_diagonal_decomposition_rejects_zero_values():
    with pytest.raises(ValueError):
        diagonal_decomposition([(0,)], [0])


def test_diagonal_decomposition_from_family_diagonal():
    fam = Family.of([dv(3, 0, 1), dv(3, 1, 2), dv(3, 2, 0)])
    report = check_diagonal(fam)
    dec = diagonal_decomposition([m.coords for m in fam], report.diagonal_values)
    assert dec.slice_count == len(fam)
    assert dec.verify() == (True, None)


# --- certificates ------------------------------------------------------------------


def test_certify_mod_example():
    cert = certify_family(Family.of([dv(3, 0), dv(3, 1)]))
    assert cert.diagonal_ok
    assert cert.slice_count <= 3
    assert 2 <= cert.slice_count <= cert.closed_form_bound
    assert cert.conclusion == f"|A| <= {cert.slice_count}"


def test_certify_rejects_sunflower():
    fam = Family.of([SubsetVector.from_support(3, [i]) for i in (1, 2, 3)])
    with pytest.raises(NotSunflowerFree) as exc:
        certify_family(fam)
    assert exc.value.witness is not None


def test_certify_binary_two_layers():
    fam = Family.of(
        [SubsetVector.from_support(2, [1]), SubsetVector.from_support(2, [2])]
    )
    cert = certify_family(fam)
    assert cert.diagonal_ok
    assert cert.slice_count <= constant_weight_bound(2) == 3
    assert cert.closed_form_bound == subset_family_bound(2)


def test_certify_empty_family():
    cert = certify_family(Family(BINARY, 3, None, ()))
    assert cert.slice_count == 0 and cert.diagonal_ok


def test_certify_rejects_slice_count_below_family_size(monkeypatch):
    monkeypatch.setattr(tensor, "_verified_slice_count", lambda setting, n, D: 0)
    with pytest.raises(CertificationError):
        certify_family(Family.of([sv(1, 0)]))


def test_failed_slice_verification_is_a_certification_error(monkeypatch):
    monkeypatch.setattr(tensor, "verify_decomposition", lambda dec, **kw: (False, "w"))
    with pytest.raises(CertificationError):
        tensor._verified_slice_count.__wrapped__(BINARY, 1, None)


def test_certificate_json_round_trip():
    cert = certify_family(Family.of([dv(3, 0, 1), dv(3, 1, 2)]))
    data = cert.to_json()
    back = BoundCertificate.from_json(data)
    assert back == cert
    assert back.to_json() == data


def test_failure_certificate_json_round_trip():
    a = SubsetVector.from_support(2, [1])
    b = SubsetVector.from_support(2, [1, 2])
    cert = BoundCertificate(
        BINARY, 2, None, Family.of([a, b]), False, (a, a, b), 6, 9, "not-certified"
    )
    back = BoundCertificate.from_json(cert.to_json())
    assert back == cert


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
    members: list[DVector] = []
    for t in pool:
        v = DVector(n, D, t)
        if not any(
            triple_is_sunflower(a, b, v) for a, b in itertools.combinations(members, 2)
        ):
            members.append(v)
    return Family.of(members)


@settings(max_examples=25, deadline=None)
@given(free_mod_families())
def test_certify_random_free_mod_families(fam):
    cert = certify_family(fam)
    assert cert.diagonal_ok
    assert len(fam) <= cert.slice_count <= cert.closed_form_bound
