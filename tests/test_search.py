import itertools

import pytest
from hypothesis import given, settings, strategies as st

from slicerank.bounds import mod_count_bound, subset_family_bound
from slicerank.search import (
    CAPSET,
    SearchConfig,
    SearchResult,
    brute_force_max,
    greedy_witness,
    max_free_family,
    tensor_power,
    validate_against_bounds,
)
from slicerank.setsys import (
    BINARY,
    MOD,
    DVector,
    Family,
    is_capset,
    is_sunflower_free,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig("weird", 2)
    with pytest.raises(ValueError):
        SearchConfig(MOD, 2)
    with pytest.raises(ValueError):
        SearchConfig(CAPSET, 2, D=4)
    with pytest.raises(ValueError):
        SearchConfig(BINARY, 2, node_budget=0)


# --- maxima against the exhaustive oracle ----------------------------------------


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 3), (3, 5), (4, 8)])
def test_binary_maxima(n, expected):
    cfg = SearchConfig(BINARY, n)
    result = max_free_family(cfg)
    assert result.optimal
    assert result.max_size == expected == brute_force_max(cfg)
    # the witness really is sunflower-free, checked by the independent
    # family-level predicate rather than the search's incremental one
    assert is_sunflower_free(result.witness)
    assert len(result.witness) == expected


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 4)])
def test_mod3_maxima(n, expected):
    cfg = SearchConfig(MOD, n, D=3)
    result = max_free_family(cfg)
    assert result.optimal and result.max_size == expected == brute_force_max(cfg)
    assert is_sunflower_free(result.witness)


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 4)])
def test_capset_maxima(n, expected):
    cfg = SearchConfig(CAPSET, n)
    result = max_free_family(cfg)
    assert result.optimal and result.max_size == expected == brute_force_max(cfg)
    assert is_capset(result.witness)


def test_binary_witness_n2():
    result = max_free_family(SearchConfig(BINARY, 2))
    assert [m.to_line() for m in result.witness] == ["00", "01", "11"]


def test_monotone_in_n():
    values = [max_free_family(SearchConfig(BINARY, n)).max_size for n in range(1, 5)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_symmetry_on_off_agree():
    for cfg_on, cfg_off in [
        (SearchConfig(BINARY, n), SearchConfig(BINARY, n, symmetry=False))
        for n in (1, 2, 3, 4)
    ] + [
        (SearchConfig(MOD, 2, D=3), SearchConfig(MOD, 2, D=3, symmetry=False)),
        (SearchConfig(CAPSET, 2), SearchConfig(CAPSET, 2, symmetry=False)),
    ]:
        on, off = max_free_family(cfg_on), max_free_family(cfg_off)
        assert on.max_size == off.max_size
        assert on.witness.members == off.witness.members


def test_budget_exhaustion_flags_incomplete():
    result = max_free_family(SearchConfig(BINARY, 4, node_budget=5, symmetry=False))
    assert not result.optimal
    assert result.max_size <= 8
    assert is_sunflower_free(result.witness)


def test_time_budget_exhaustion():
    result = max_free_family(SearchConfig(BINARY, 4, time_budget=0.0))
    assert not result.optimal


# --- greedy -----------------------------------------------------------------------


def test_greedy_deterministic_and_valid():
    cfg = SearchConfig(BINARY, 4)
    a = greedy_witness(cfg, 123)
    b = greedy_witness(cfg, 123)
    assert a.members == b.members
    assert is_sunflower_free(a)
    assert greedy_witness(cfg, 7).members != () and len(greedy_witness(cfg, 7)) >= 4


@pytest.mark.parametrize("seed", range(12))
def test_greedy_reaches_four_at_n4(seed):
    assert len(greedy_witness(SearchConfig(BINARY, 4), seed)) >= 4


def test_greedy_capset_mode():
    fam = greedy_witness(SearchConfig(CAPSET, 3), 2)
    assert is_capset(fam)


# --- tensor powering ------------------------------------------------------------------


def test_tensor_power_sizes():
    fam = Family.of([DVector(1, 3, (0,)), DVector(1, 3, (1,))])
    cube = tensor_power(fam, 3)
    assert len(cube) == 8 and cube.n == 3


def test_tensor_power_rejects_binary_and_overflow():
    bfam = max_free_family(SearchConfig(BINARY, 2)).witness
    with pytest.raises(ValueError):
        tensor_power(bfam, 2)
    mfam = Family.of([DVector(1, 3, (0,)), DVector(1, 3, (1,))])
    with pytest.raises(ValueError):
        tensor_power(mfam, 3, max_size=7)


@st.composite
def free_mod_families(draw):
    from slicerank.setsys import triple_is_sunflower

    D = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(1, 2))
    pool = draw(
        st.lists(st.tuples(*[st.integers(0, D - 1)] * n), min_size=1, max_size=10, unique=True)
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
@given(free_mod_families(), st.integers(1, 2))
def test_tensor_power_preserves_freeness(fam, k):
    powered = tensor_power(fam, k)
    assert len(powered) == len(fam) ** k
    assert is_sunflower_free(powered)


def test_tensor_power_preserves_capsets():
    fam = max_free_family(SearchConfig(CAPSET, 2)).witness
    assert is_capset(tensor_power(fam, 2))


# --- bound comparison ------------------------------------------------------------------


def test_validate_against_bounds():
    r = max_free_family(SearchConfig(BINARY, 2))
    report = validate_against_bounds(r, SearchConfig(BINARY, 2))
    assert report["max"] == 3 and report["bound"] == subset_family_bound(2) == 9

    r = max_free_family(SearchConfig(MOD, 1, D=3))
    report = validate_against_bounds(r, SearchConfig(MOD, 1, D=3))
    assert report["max"] == 2 and report["bound"] == mod_count_bound(1, 3) == 3
    assert report["within_growth_power"]

    r = max_free_family(SearchConfig(CAPSET, 2))
    report = validate_against_bounds(r, SearchConfig(CAPSET, 2))
    assert report["max"] == 4 and report["bound"] == 9


def test_validate_raises_on_violation():
    cfg = SearchConfig(MOD, 1, D=3)
    fam = max_free_family(cfg).witness
    fake = SearchResult(99, True, fam, 1)
    with pytest.raises(AssertionError):
        validate_against_bounds(fake, cfg)


def test_search_result_json_shape():
    r = max_free_family(SearchConfig(BINARY, 1))
    data = r.to_json_dict()
    assert data == {"max": 2, "optimal": True, "nodes": r.nodes, "witness": ["0", "1"]}
