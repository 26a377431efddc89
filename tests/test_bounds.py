import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from slicerank.bounds import (
    BoundReport,
    bound_table,
    binomial_tail,
    capacities_summary,
    capacity_upper,
    capset_capacity_reduction,
    constant_weight_bound,
    count_below_growth_power,
    layer_bound_root,
    mod_count_bound,
    mod_growth_rate,
    report_row,
    subset_family_bound,
)


# --- binary bounds ------------------------------------------------------------


def test_layer_and_family_bounds_small():
    assert constant_weight_bound(0) == 3
    assert subset_family_bound(0) == 3
    # n=3: threshold floor(3/3)=1, so 3*(C(3,0)+C(3,1)) = 12 per layer
    assert constant_weight_bound(3) == 12
    assert subset_family_bound(3) == 48


def test_binomial_tail_against_direct_sum():
    for n in range(0, 20):
        for kmax in range(-1, n + 2):
            brute = sum(math.comb(n, k) for k in range(0, max(kmax, -1) + 1))
            assert binomial_tail(n, kmax) == brute


@pytest.mark.parametrize("weight", [1, 2, 3, 5])
def test_weighted_binomial_tail_against_direct_sum(weight):
    # the (D-1)-weighted tail the mod-D bounds and the key count share
    for n in range(0, 16):
        for kmax in range(-1, n + 2):
            brute = sum(math.comb(n, k) * weight**k for k in range(0, max(kmax, -1) + 1))
            assert binomial_tail(n, kmax, weight) == brute
    assert binomial_tail(9, 6, 1) == binomial_tail(9, 6)


def test_layer_root_bracket_at_30():
    r = layer_bound_root(30)
    assert 1.80 <= r <= 1.889881575


@given(st.integers(0, 120))
def test_family_bound_monotone(n):
    assert subset_family_bound(n + 1) >= subset_family_bound(n)


def test_capacity_upper_constant():
    assert abs(capacity_upper() - 1.889881574) < 1e-9


def test_layer_root_converges():
    # Stirling-rate convergence: within 0.01 at n=300
    assert abs(layer_bound_root(300) - capacity_upper()) < 0.01


# --- mod-D bounds ---------------------------------------------------------------


def test_growth_rate_values():
    g3 = mod_growth_rate(3)
    assert g3.exact == 3 and g3.value == 3.0
    # floating values from the closed form (27 (D-1)^2 / 4)^(1/3)
    assert abs(mod_growth_rate(4).value - (27 * 9 / 4) ** (1 / 3)) < 1e-12
    assert abs(mod_growth_rate(5).value - 4.762203156) < 1e-9
    with pytest.raises(ValueError):
        mod_growth_rate(2)


def test_growth_rate_is_exact_at_the_cubes():
    # 27 (D-1)^2 / 4 is a cube exactly when D = 2k^3 + 1, and g_D = 3k^2
    exact = {D: mod_growth_rate(D).exact for D in range(3, 3000)}
    assert {D: g for D, g in exact.items() if g is not None} == {
        2 * k**3 + 1: 3 * k**2 for k in range(1, 12)
    }
    assert mod_growth_rate(2 * 10**60 + 1).exact == 3 * 10**40
    assert mod_growth_rate(2 * 10**60 + 3).exact is None


def test_growth_rate_past_the_float_range():
    # the cube overflows a float; past D ~ 10^462 g_D itself does
    for D in (10**160, 10**200, 10**700):
        g = mod_growth_rate(D)
        log2 = (math.log2(27) + 2 * math.log2(D - 1) - 2) / 3
        assert g.exact is None
        assert g.log2 == pytest.approx(log2, rel=1e-12)
        assert g.value == (2**log2 if log2 < 1024 else math.inf)


def test_growth_rate_strictly_increasing():
    values = [mod_growth_rate(D).value for D in range(3, 21)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_mod_count_bound_small():
    assert mod_count_bound(1, 3) == 3  # 3 * C(1,0) * 2^0
    assert mod_count_bound(3, 3) == 3 * (1 + 6 + 12)
    with pytest.raises(ValueError):
        mod_count_bound(1, 2)


def test_count_below_growth_power_hand_cases():
    # n=1, D=3: lhs=1, cubed check 4 <= 27*4
    assert count_below_growth_power(1, 3)
    # n=3, D=3: lhs = 19, 19^3 * 4^3 <= 27^3 * 2^6
    assert 19**3 * 4**3 <= 27**3 * 2**6
    assert count_below_growth_power(3, 3)


def test_count_below_growth_power_sweep():
    for D in range(3, 21):
        for n in range(1, 51):
            assert count_below_growth_power(n, D)


# --- capset reduction --------------------------------------------------------------


def test_capset_reduction_default():
    count, capacity = capset_capacity_reduction(1)
    assert count.exact == Fraction(1) + Fraction("2.7552")
    assert capacity.value == math.sqrt(float(1 + Fraction("2.7552")))
    assert capacity.value <= 1.938


def test_capset_reduction_degenerate_and_integer():
    count, capacity = capset_capacity_reduction(1, 0)
    assert count.exact == 1 and capacity.value == 1.0
    count, _ = capset_capacity_reduction(2, 3)
    assert count.exact == 16


@pytest.mark.parametrize("C", ["0", "1.2", "2.7552", "1e300"])
def test_capacity_row_within_the_float_range(C):
    C = Fraction(C)
    _, capacity = capset_capacity_reduction(3, C)
    root = math.sqrt(float(1 + C))
    assert (capacity.exact, capacity.value, capacity.log2) == (None, root, math.log2(root))


@pytest.mark.parametrize("C", ["1e309", "1e400", "1e616", "1e617", "1e700", Fraction(10**500, 7)])
def test_capacity_row_past_the_float_range(C):
    # float(1 + C) overflows; the root is checked against the integer square
    # root of 1 + C, which reads inf only where the root is past the float range
    C = Fraction(C)
    _, capacity = capset_capacity_reduction(3, C)
    one_plus_c = 1 + C
    root = math.isqrt(math.floor(one_plus_c))
    assert capacity.exact is None
    assert capacity.log2 == pytest.approx(math.log2(root), rel=1e-12)
    try:
        want = float(root)
    except OverflowError:
        assert capacity.value == math.inf
    else:
        assert capacity.value == pytest.approx(want, rel=1e-12)


def test_capacity_ordering():
    by_name = {r.name: r for r in capacities_summary()}
    lower = by_name["capacity-lower-cited"].value
    upper = by_name["capacity-upper"].value
    via_capset = by_name["capset-reduction-capacity"].value
    trivial = by_name["capacity-trivial"].value
    assert lower < upper < via_capset < trivial
    assert abs(upper - 1.889881574) < 1e-9
    assert lower == 1.554


# --- report plumbing -----------------------------------------------------------------


def test_report_rows_and_table():
    rows = [report_row(r) for r in bound_table(n=3, D=3)]
    names = [r[0] for r in rows]
    assert "family-count" in names and "mod-slice-count" in names
    family = rows[names.index("family-count")]
    assert family[1] == "3" and family[3] == "48"
    for row in rows:
        assert len(row) == 6


def test_exact_and_float_agree():
    for r in bound_table(n=6, D=5):
        if r.exact is not None:
            assert math.isclose(float(r.exact), r.value, rel_tol=1e-12)
        if r.log2 is not None and r.value > 0:
            assert math.isclose(r.log2, math.log2(r.value), rel_tol=1e-9, abs_tol=1e-9)


def test_report_is_frozen():
    r = BoundReport("x", {}, 1, 1.0, 0.0)
    with pytest.raises(AttributeError):
        r.value = 2.0
