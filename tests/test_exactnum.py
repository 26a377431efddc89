import cmath

import pytest
from hypothesis import given, settings, strategies as st

from slicerank.exactnum import _poly_mul, cyclotomic_poly, reduce_power_vector


def poly_at(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# --- cyclotomic polynomials -------------------------------------------------


def test_small_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)  # X - 1
    assert cyclotomic_poly(2) == (1, 1)  # X + 1
    assert cyclotomic_poly(3) == (1, 1, 1)  # (X^3-1)/(X-1)
    assert cyclotomic_poly(4) == (1, 0, 1)  # (X^4-1)/((X-1)(X+1))
    assert cyclotomic_poly(6) == (1, -1, 1)


def test_cyclotomic_product_identity():
    # prod over d | D of Phi_d = X^D - 1, exactly, for D <= 30
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
    # the reduction has phi(D) coefficients, one per power below deg Phi_D
    assert [len(reduce_power_vector(D, [])) for D in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]


def test_cyclotomic_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


# --- the zero test -----------------------------------------------------------


def test_root_of_unity_identities():
    # zeta^0 = 1, zeta^3 = 1 at D = 3, zeta^7 = zeta^2 at D = 5
    assert reduce_power_vector(3, [1]) == (1, 0)
    assert reduce_power_vector(3, [0, 0, 0, 1]) == (1, 0)
    assert reduce_power_vector(5, [0] * 7 + [1]) == reduce_power_vector(5, [0, 0, 1])


def test_zeta3_sum_vanishes():
    assert reduce_power_vector(3, [1, 1, 1]) == (0, 0)


def test_zeta4_cubed_is_minus_zeta():
    # mod X^2 + 1: zeta^3 = -zeta
    assert reduce_power_vector(4, [0, 0, 0, 1]) == (0, -1)


def test_zeta_D_th_power_is_one():
    for D in range(1, 13):
        one = reduce_power_vector(D, [1])
        assert reduce_power_vector(D, [0] * D + [1]) == one
        assert one == (1,) + (0,) * (len(cyclotomic_poly(D)) - 2)


def test_numeric_agreement():
    # the reduced product agrees with complex floats on a few hand-picked
    # elements: a = zeta^5 + 3, b = zeta^7 - zeta^2 at D = 12
    z = cmath.exp(2j * cmath.pi / 12)
    a = [3, 0, 0, 0, 0, 1]
    b = [0, 0, -1, 0, 0, 0, 0, 1]
    exact = poly_at(reduce_power_vector(12, _poly_mul(a, b)), z)
    approx = poly_at(reduce_power_vector(12, a), z) * poly_at(reduce_power_vector(12, b), z)
    assert abs(exact - approx) < 1e-9


def test_one_phase_is_left_as_it_is():
    # Phi_1 = X - 1: a single bucket reduces to itself
    for v in (-7, 0, 1, 12):
        assert reduce_power_vector(1, [v]) == (v,)


@st.composite
def power_vectors(draw):
    D = draw(st.integers(1, 12))
    return D, draw(st.lists(st.integers(-9, 9), max_size=3 * D))


@settings(max_examples=200)
@given(power_vectors())
def test_reduction_keeps_the_value(case):
    # float oracle: the reduced coefficients and the vector have the same
    # value at exp(2*pi*i/D)
    D, vec = case
    z = cmath.exp(2j * cmath.pi / D)
    assert abs(poly_at(reduce_power_vector(D, vec), z) - poly_at(vec, z)) < 1e-6


@given(power_vectors(), st.lists(st.integers(-9, 9), max_size=36))
def test_reduction_is_linear(case, other):
    D, vec = case
    n = max(len(vec), len(other))
    total = [a + b for a, b in zip(vec + [0] * n, other + [0] * n)]
    reduced = [a + b for a, b in zip(reduce_power_vector(D, vec), reduce_power_vector(D, other))]
    assert list(reduce_power_vector(D, total)) == reduced


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
    equal = reduce_power_vector(D, buckets) == reduce_power_vector(D, [target])
    diff = list(buckets)
    diff[0] -= target
    assert (not any(reduce_power_vector(D, diff))) == equal


# --- characters and orthogonality -------------------------------------------


def _character_sum(D, t):
    """sum_j zeta_D^(j t), reduced."""
    vec = [0] * D
    for j in range(D):
        vec[j * t % D] += 1
    return reduce_power_vector(D, vec)


@pytest.mark.parametrize("D", range(1, 13))
def test_orthogonality_exhaustive(D):
    # (1/D) sum_j zeta^(j t) is 1 at t = 0 and 0 otherwise
    for t in range(D):
        assert _character_sum(D, t) == reduce_power_vector(D, [D if t == 0 else 0])


def test_orthogonality_examples():
    assert not any(_character_sum(3, 1))
    assert not any(_character_sum(6, 3))
    assert all(_character_sum(D, 0) == reduce_power_vector(D, [D]) for D in range(1, 13))


def test_nontrivial_character_sums_vanish():
    for D in range(1, 13):
        for t in range(1, D):
            assert not any(_character_sum(D, t))
