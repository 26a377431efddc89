import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slicerank.exactnum import (
    CycElem,
    cyclotomic_poly,
    orthogonality_sum,
    phi_degree,
    zeta_pow,
)


def poly_at(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def numeric_value(e: CycElem) -> complex:
    """Float oracle: evaluate the coefficient vector at exp(2*pi*i/D)."""
    z = cmath.exp(2j * cmath.pi / e.D)
    return poly_at(e.coeffs, z)


# --- cyclotomic polynomials -------------------------------------------------


def test_small_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)  # X - 1
    assert cyclotomic_poly(2) == (1, 1)  # X + 1
    assert cyclotomic_poly(3) == (1, 1, 1)  # (X^3-1)/(X-1)
    assert cyclotomic_poly(4) == (1, 0, 1)  # (X^4-1)/((X-1)(X+1))
    assert cyclotomic_poly(6) == (1, -1, 1)


def test_cyclotomic_product_identity():
    # prod over d | D of Phi_d = X^D - 1, exactly, for D <= 30
    from slicerank.exactnum import _poly_mul

    for D in range(1, 31):
        prod = [1]
        for d in range(1, D + 1):
            if D % d == 0:
                prod = _poly_mul(prod, list(cyclotomic_poly(d)))
        expected = [-1] + [0] * (D - 1) + [1]
        assert prod == expected


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for D in range(1, 31):
        ours = cyclotomic_poly(D)
        theirs = sympy.Poly(sympy.cyclotomic_poly(D, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs]


def test_phi_degree():
    assert [phi_degree(D) for D in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]


def test_cyclotomic_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


# --- ring elements ----------------------------------------------------------


def test_root_of_unity_identities():
    assert zeta_pow(3, 0) == CycElem.from_int(3, 1)
    assert zeta_pow(3, 1) * zeta_pow(3, 2) == CycElem.from_int(3, 1)
    assert zeta_pow(5, 7) == zeta_pow(5, 2)


def test_zeta3_sum_vanishes():
    s = zeta_pow(3, 0) + zeta_pow(3, 1) + zeta_pow(3, 2)
    assert s.is_zero()


def test_conj_of_zeta4():
    # mod X^2 + 1: zeta^3 = -zeta
    assert zeta_pow(4, 1).conj() == zeta_pow(4, 3)
    assert zeta_pow(4, 3) == -zeta_pow(4, 1)


def test_zeta_D_th_power_is_one():
    for D in range(1, 13):
        assert zeta_pow(D, D) == CycElem.from_int(D, 1)


def test_numeric_agreement():
    # arithmetic agrees with complex floats on a few hand-picked elements
    a = zeta_pow(12, 5) + CycElem.from_int(12, 3)
    b = zeta_pow(12, 7) - zeta_pow(12, 2)
    exact = numeric_value(a * b)
    approx = numeric_value(a) * numeric_value(b)
    assert abs(exact - approx) < 1e-9


def elements(D):
    deg = phi_degree(D)
    return st.lists(st.integers(-9, 9), min_size=deg, max_size=deg).map(
        lambda cs: CycElem(D, tuple(cs))
    )


@st.composite
def element_triples(draw):
    D = draw(st.integers(1, 12))
    e = elements(D)
    return draw(e), draw(e), draw(e)


@st.composite
def bucket_compares(draw):
    # a bucket vector and an integer target; half of the draws add a
    # multiple of Phi_D to the target, so that the two are equal
    D = draw(st.integers(3, 6))
    target = draw(st.integers(-50, 50))
    buckets = draw(st.lists(st.integers(-20, 20), min_size=D, max_size=D))
    if draw(st.booleans()):
        phi = cyclotomic_poly(D)
        buckets = [target] + [0] * (D - 1)
        for shift in range(D - len(phi) + 1):
            c = draw(st.integers(-5, 5))
            for j, p in enumerate(phi):
                buckets[shift + j] += c * p
    return D, buckets, target


@settings(max_examples=200)
@given(bucket_compares())
def test_one_reduction_of_the_difference_decides_equality(case):
    # reduction mod Phi_D is Z-linear, so subtracting the target from
    # bucket 0 and testing for zero agrees with comparing the two reductions
    D, buckets, target = case
    equal = CycElem.from_power_vector(D, buckets) == CycElem.from_int(D, target)
    diff = list(buckets)
    diff[0] -= target
    assert CycElem.from_power_vector(D, diff).is_zero() == equal


@given(element_triples())
def test_ring_laws(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == CycElem.from_int(a.D, 0)


@given(element_triples())
def test_conj_is_ring_involution(triple):
    a, b, _ = triple
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


def test_conj_inverts_roots():
    for D in range(1, 13):
        for e in range(D):
            assert zeta_pow(D, e).conj() == zeta_pow(D, -e)


def test_mixed_modulus_rejected():
    with pytest.raises(ValueError):
        zeta_pow(3, 1) + zeta_pow(4, 1)


# --- characters and orthogonality -------------------------------------------


@pytest.mark.parametrize("D", range(1, 13))
def test_orthogonality_exhaustive(D):
    for t in range(D):
        expected = Fraction(1) if t == 0 else Fraction(0)
        assert orthogonality_sum(D, t) == expected


def test_orthogonality_examples():
    assert orthogonality_sum(3, 1) == 0
    assert orthogonality_sum(6, 3) == 0
    assert all(orthogonality_sum(D, 0) == 1 for D in range(1, 13))


def test_nontrivial_character_sums_vanish():
    for D in range(1, 13):
        for t in range(1, D):
            acc = CycElem.from_int(D, 0)
            for j in range(D):
                acc = acc + zeta_pow(D, j * t)
            assert acc.is_zero()

