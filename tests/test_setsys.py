import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from family_strategies import families
from slicerank import setsys
from slicerank.setsys import (
    BINARY,
    MOD,
    Family,
    FamilyFormatError,
    completions,
    find_sunflower,
    is_capset,
    is_sunflower,
    layer_extract,
    layer_split,
    pair_encode,
    parse_family,
    triple_is_sunflower,
    value_masks,
)


def binary_family(*coord_rows):
    return Family(BINARY, len(coord_rows[0]), None, coord_rows)


def mod_family(D, *coord_rows):
    return Family(MOD, len(coord_rows[0]), D, coord_rows)


# --- families -------------------------------------------------------------------


@pytest.mark.parametrize(
    "setting,n,D,members,message",
    [
        (MOD, 2, 3, ((0, 1), (1,)), "not a tuple of n=2 coordinates"),
        (BINARY, 2, None, ([1, 0],), "not a tuple"),
        (MOD, 1, 3, ("1",), "not a tuple"),
        (BINARY, 2, None, ((0, 2),), "outside range"),
        (MOD, 2, 3, ((0, 3),), "outside range"),
        (MOD, 1, 4, ((-1,),), "outside range"),
        (MOD, 1, 1, ((0,),), "D >= 2"),
        (BINARY, 1, 2, ((0,),), "no alphabet size"),
        ("capset", 1, 3, (), "unknown setting"),
    ],
)
def test_family_validates_its_members(setting, n, D, members, message):
    with pytest.raises(ValueError, match=message):
        Family(setting, n, D, members)


def test_family_rejects_duplicates_and_mixtures():
    with pytest.raises(ValueError, match=r"duplicate member \(1, 0\)"):
        Family(BINARY, 2, None, ((1, 0), (0, 1), (1, 0)))
    with pytest.raises(ValueError, match=r"duplicate member \(2,\)"):
        Family(MOD, 1, 3, ((2,), (0,), (2,)))
    with pytest.raises(ValueError, match="not a tuple of n=2 coordinates"):
        Family(BINARY, 2, None, ((1, 0), (1, 0, 0)))


def test_family_members_sorted():
    f = binary_family((1, 1), (0, 1), (1, 0))
    assert list(f) == [(0, 1), (1, 0), (1, 1)]
    assert f == binary_family((0, 1), (1, 0), (1, 1))


def test_family_lines():
    assert binary_family((1, 0, 1, 0)).line((1, 0, 1, 0)) == "1010"
    assert mod_family(3, (0, 1, 2)).line((0, 1, 2)) == "0,1,2"
    assert mod_family(12, (0, 11)).to_text() == "0,11\n"


def test_zero_coordinate_member_has_no_text():
    # its line would be blank, and a blank line reads back as no member
    assert Family(BINARY, 0, None, ()).to_text() == ""
    for fam in (Family(BINARY, 0, None, ((),)), Family(MOD, 0, 3, ((),))):
        with pytest.raises(ValueError, match="zero-coordinate"):
            fam.to_text()


# --- text format ----------------------------------------------------------------


def test_parse_binary_family():
    f = parse_family("# a comment\n10\n01\n\n11  # trailing\n")
    assert f.setting == BINARY and f.n == 2
    assert [f.line(m) for m in f] == ["01", "10", "11"]
    assert f.to_text() == "01\n10\n11\n"


def test_parse_mod_family_infers_d():
    f = parse_family("0,1\n2,0\n")
    assert f.setting == MOD and f.D == 3 and f.n == 2
    g = parse_family("0,1\n", D=5)
    assert g.D == 5


def test_parse_empty_text():
    assert parse_family("# nothing\n") == Family(BINARY, 0, None, ())
    assert parse_family("", D=5) == Family(MOD, 0, 5, ())


def test_parse_round_trip():
    f = mod_family(4, (0, 3), (1, 2))
    assert parse_family(f.to_text(), D=4).members == f.members


@given(st.integers(1, 6), st.data())
def test_text_round_trip_random_binary_families(n, data):
    bits = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8, unique=True))
    fam = Family(BINARY, n, None, tuple(tuple(b >> i & 1 for i in range(n)) for b in bits))
    assert parse_family(fam.to_text()).members == fam.members


@given(st.integers(3, 6), st.integers(1, 4), st.data())
def test_text_round_trip_random_mod_families(D, n, data):
    rows = data.draw(
        st.lists(st.tuples(*[st.integers(0, D - 1)] * n), max_size=8, unique=True)
    )
    fam = Family(MOD, n, D, tuple(rows))
    assert parse_family(fam.to_text(), D=D).members == fam.members


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FamilyFormatError, match="line 2"):
        parse_family("10\n1a\n")
    with pytest.raises(FamilyFormatError, match="line 1"):
        parse_family("2,1\n", D=2)


@pytest.mark.parametrize(
    "text,D,message",
    [
        ("10\n01\n10\n", None, "line 3: duplicate member 10"),
        ("# pts\n1,0\n0,1\n1, 0  # again\n", None, "line 4: duplicate member 1, 0"),
        ("10\n011\n", None, "line 2: expected 2 coordinates, got 3"),
        ("0,1\n2\n", 3, "line 2: expected 2 coordinates, got 1"),
        ("0,1,2\n\n1,1\n", None, "line 3: expected 3 coordinates, got 2"),
    ],
)
def test_parse_errors_name_the_line_of_a_bad_member(text, D, message):
    with pytest.raises(FamilyFormatError) as exc:
        parse_family(text, D=D)
    assert str(exc.value) == message


def test_parse_rejects_an_alphabet_below_two():
    for text in ("0,0\n", ""):
        with pytest.raises(ValueError, match="mod-D families need D >= 2"):
            parse_family(text, D=1)


# --- sunflower predicates -------------------------------------------------------


def test_is_sunflower_examples():
    # pairwise disjoint singletons: core is empty
    assert is_sunflower([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    # common core {1} with disjoint petals
    assert is_sunflower([(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)])
    # {1} cap {2} is empty but {1} cap {1,2} is {1}
    assert not is_sunflower([(1, 0), (0, 1), (1, 1)])


def test_two_sets_always_form_a_sunflower():
    # k=2: the single pairwise intersection is trivially the common core
    assert is_sunflower([(1, 0), (1, 1)])
    assert is_sunflower([(0, 0), (1, 1)])


def test_is_sunflower_validation():
    with pytest.raises(ValueError):
        is_sunflower([(1, 0)])
    with pytest.raises(ValueError):
        is_sunflower([(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        is_sunflower([(1, 0), (1, 0, 0)])
    with pytest.raises(ValueError, match="0/1"):
        is_sunflower([(1, 0), (2, 0)])


def test_triple_test_binary_examples():
    assert triple_is_sunflower(BINARY, (0, 0), (1, 0), (0, 1))
    assert not triple_is_sunflower(BINARY, (0, 0), (1, 0), (1, 1))
    with pytest.raises(ValueError):
        triple_is_sunflower(BINARY, (1, 0), (1, 0), (0, 1))
    with pytest.raises(ValueError):
        triple_is_sunflower(BINARY, (1, 0), (1,), (0, 1))
    with pytest.raises(ValueError):
        triple_is_sunflower("capset", (0,), (1,), (2,))


def test_triple_test_mod_examples():
    assert triple_is_sunflower(MOD, (0,), (1,), (2,))
    assert triple_is_sunflower(MOD, (0, 0), (0, 1), (0, 2))
    assert not triple_is_sunflower(MOD, (0, 0), (0, 1), (1, 2))


def test_triple_test_agrees_with_set_definition_exhaustively():
    # the pairwise-intersection and no-{0,1,1}-coordinate characterizations
    # agree on every distinct triple for n <= 6
    for n in range(1, 7):
        vectors = list(itertools.product((0, 1), repeat=n))
        for x, y, z in itertools.combinations(vectors, 3):
            assert triple_is_sunflower(BINARY, x, y, z) == is_sunflower([x, y, z])


@st.composite
def mod_triples(draw):
    n = draw(st.integers(1, 6))
    D = draw(st.integers(3, 6))
    pts = st.tuples(*[st.integers(0, D - 1)] * n)
    x = draw(pts)
    y = draw(pts.filter(lambda t: t != x))
    z = draw(pts.filter(lambda t: t not in (x, y)))
    return D, n, x, y, z


@given(mod_triples(), st.randoms(use_true_random=False))
def test_triple_test_invariance(triple, rng):
    D, n, x, y, z = triple
    base = triple_is_sunflower(MOD, x, y, z)
    coord_perm = list(range(n))
    rng.shuffle(coord_perm)
    value_perms = []
    for _ in range(n):
        p = list(range(D))
        rng.shuffle(p)
        value_perms.append(p)

    def apply(t):
        return tuple(value_perms[i][t[coord_perm[i]]] for i in range(n))

    assert base == triple_is_sunflower(MOD, apply(x), apply(y), apply(z))


def test_find_sunflower_examples():
    full = binary_family((0, 0), (1, 0), (0, 1), (1, 1))
    witness = find_sunflower(full)
    assert witness is not None
    assert list(witness) == [(0, 0), (0, 1), (1, 0)]
    assert find_sunflower(binary_family((1, 0), (0, 1), (1, 1))) is None
    assert find_sunflower(mod_family(3, (0,), (1,), (2,))) is not None


def test_find_sunflower_agrees_with_set_predicate():
    # on binary families the family-level check must agree with the
    # pairwise-intersection definition triple by triple
    fam = binary_family((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1))
    byset = any(
        is_sunflower(list(t)) for t in itertools.combinations(fam.members, 3)
    )
    assert byset == (find_sunflower(fam) is not None)


def test_layer_safety_exhaustive():
    # distinct constant-weight triples with no exactly-two-ones coordinate
    # are sunflowers, for all n <= 5 (so sunflower-free layers are diagonal)
    for n in range(1, 6):
        by_weight = {}
        for v in itertools.product((0, 1), repeat=n):
            by_weight.setdefault(sum(v), []).append(v)
        for vectors in by_weight.values():
            for x, y, z in itertools.combinations(vectors, 3):
                if triple_is_sunflower(BINARY, x, y, z):
                    assert is_sunflower([x, y, z])


# --- layers ---------------------------------------------------------------------


def test_layer_split_examples():
    f = binary_family((0, 0), (1, 0), (0, 1), (1, 1))
    layers = layer_split(f)
    assert sorted(layers) == [0, 1, 2]
    assert len(layers[1]) == 2
    assert layer_split(Family(BINARY, 2, None, ())) == {}
    g = binary_family((1, 1, 0), (1, 0, 1))
    assert list(layer_split(g)) == [2]


def test_layer_split_partitions():
    f = binary_family((1, 1, 0), (0, 1, 1), (1, 1, 1), (0, 0, 0))
    layers = layer_split(f)
    got = sorted(m for fam in layers.values() for m in fam)
    assert got == list(f)
    for w, fam in layers.items():
        assert all(sum(m) == w for m in fam)


# --- capsets --------------------------------------------------------------------


def test_capset_examples():
    assert not is_capset(mod_family(3, (0,), (1,), (2,)))
    assert is_capset(mod_family(3, (0,), (1,)))
    assert is_capset(mod_family(3, (0, 0), (0, 1), (1, 0), (1, 1)))
    with pytest.raises(ValueError):
        is_capset(mod_family(4, (0,), (1,)))


def test_capset_equals_mod3_sunflower_free():
    # for D=3 a distinct triple is a sunflower iff it is a progression,
    # so the two freeness notions coincide; spot-check exhaustively at n=2
    # against both triple scans
    pts = list(itertools.product(range(3), repeat=2))
    for members in itertools.combinations(pts, 4):
        fam = Family(MOD, 2, 3, members)
        assert is_capset(fam) == (_scan_progression(fam) is None) == (_scan_sunflower(fam) is None)


def test_least_mod3_sunflower_is_the_least_progression():
    fam = mod_family(3, (0, 0), (1, 1), (2, 2), (0, 1))
    assert find_sunflower(fam) == ((0, 0), (1, 1), (2, 2))
    assert find_sunflower(fam) == _scan_progression(fam)


# --- pair encoding ---------------------------------------------------------------


def test_pair_encode_displayed_values():
    enc = pair_encode(binary_family((1, 0, 1, 1)))
    assert (enc.setting, enc.n, enc.D) == (MOD, 2, 4)
    assert list(enc) == [(1, 3)]
    assert list(pair_encode(binary_family((0, 1, 0, 0)))) == [(2, 0)]


def test_pair_encode_is_one_symbol_per_coordinate_pair():
    # all 16 members of {0,1}^4 go to the 16 distinct pairs of symbols
    f = binary_family(*itertools.product((0, 1), repeat=4))
    assert list(pair_encode(f)) == list(itertools.product(range(4), repeat=2))


def test_pair_encode_rejects_odd_dimension():
    with pytest.raises(ValueError):
        pair_encode(binary_family((1, 0, 1)))


def test_layer_extract_example():
    enc = mod_family(4, (1, 3), (2, 3))
    fam = layer_extract(enc, (0, 1))
    assert fam.setting == MOD and fam.D == 3 and fam.n == 1
    assert list(fam) == [(1,), (2,)]


def test_layer_extract_dimension_check():
    enc = mod_family(4, (1, 3))
    with pytest.raises(ValueError):
        layer_extract(enc, (0, 1, 0))


def test_layer_extract_full_support():
    enc = mod_family(4, (3,), (0,))
    fam = layer_extract(enc, (1,))
    assert fam.n == 0 and len(fam) == 1


@st.composite
def greedy_free_binary_families(draw):
    n = draw(st.integers(2, 10).filter(lambda k: k % 2 == 0))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=24, unique=True))
    members: list[tuple[int, ...]] = []
    for bits in pool:
        v = tuple(bits >> i & 1 for i in range(n))
        if any(
            triple_is_sunflower(BINARY, a, b, v) for a, b in itertools.combinations(members, 2)
        ):
            continue
        members.append(v)
    return Family(BINARY, n, None, tuple(members))


@settings(max_examples=40, deadline=None)
@given(greedy_free_binary_families())
def test_extracted_layers_of_free_families_are_capsets(fam):
    enc = pair_encode(fam)
    supports = {tuple(1 if s == 3 else 0 for s in m) for m in enc}
    for x in supports:
        assert is_capset(layer_extract(enc, x))


# --- the pair-mask primitive against the triple scans it replaced ------------------


def _scan_sunflower(family):
    """find_sunflower before the pair masks: every triple, combinations order."""
    for triple in itertools.combinations(family.members, 3):
        if triple_is_sunflower(family.setting, *triple):
            return triple
    return None


def _scan_progression(family):
    """The least distinct triple with x + y + z = 0 mod 3: every triple,
    combinations order."""
    for x, y, z in itertools.combinations(family.members, 3):
        if all((a + b + c) % 3 == 0 for a, b, c in zip(x, y, z)):
            return (x, y, z)
    return None


@settings(max_examples=300, deadline=None)
@given(families())
def test_find_sunflower_matches_triple_scan(fam):
    assert find_sunflower(fam) == _scan_sunflower(fam)


@settings(max_examples=200, deadline=None)
@given(families(settings=(MOD,), Ds=(3,)))
def test_mod3_sunflower_matches_progression_scan(fam):
    assert find_sunflower(fam) == _scan_progression(fam)


SUNFLOWER_EDGE_FAMILIES = [
    Family(BINARY, 3, None, ()),
    Family(MOD, 2, 4, ()),
    Family(BINARY, 0, None, ((),)),
    Family(MOD, 0, 3, ((),)),
    binary_family((1, 0), (0, 1)),
    mod_family(3, (0, 1), (2, 2)),
    mod_family(2, (0, 0), (0, 1), (1, 0), (1, 1)),  # D = 2: no sunflower exists
    binary_family((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 1, 1)),
    # the only sunflower is the lex-largest triple
    mod_family(3, (0, 0), (0, 1), (2, 0), (2, 1), (2, 2)),
]


@pytest.mark.parametrize("fam", SUNFLOWER_EDGE_FAMILIES)
def test_find_sunflower_edge_families(fam):
    assert find_sunflower(fam) == _scan_sunflower(fam)
    if fam.setting == MOD and fam.D == 3:
        assert find_sunflower(fam) == _scan_progression(fam)


# one row per window: every family of two or more members spans several
# windows, and a later window may hold the least triple of a lower member
@pytest.mark.parametrize(
    "check", [test_find_sunflower_matches_triple_scan, test_mod3_sunflower_matches_progression_scan])
def test_sunflower_scans_match_in_one_row_windows(check):
    with mock.patch.object(setsys, "_PAIR_BITS", 1):
        check()


@pytest.mark.parametrize("fam", SUNFLOWER_EDGE_FAMILIES)
def test_find_sunflower_edge_families_in_one_row_windows(fam):
    with mock.patch.object(setsys, "_PAIR_BITS", 1):
        test_find_sunflower_edge_families(fam)


@settings(max_examples=100, deadline=None)
@given(families(), st.integers(1, 16))
def test_pair_tables_hold_the_completions_of_each_pair(fam, rows):
    # the AND of member a's tables holds completions(x_a, x_b) in row b,
    # in windows of `rows` rows
    codes = fam.members
    N = len(codes)
    masks = value_masks(codes, fam.n)
    full = (1 << N) - 1
    for lo in range(0, N, rows):
        hi = min(N, lo + rows)
        tables = setsys._pair_tables(fam.setting, codes, masks, lo, hi)
        for a, x in enumerate(codes):
            got = (1 << (hi - lo) * N) - 1
            for table, v in zip(tables, x):
                got &= table[v]
            for b in range(lo, hi):
                want = completions(fam.setting, masks, x, codes[b], full)
                assert got >> (b - lo) * N & full == want, (a, b)


def test_pair_tables_stay_within_their_bit_budget(monkeypatch):
    # {0,1}^10 is a capset, so the scan builds every window
    fam = Family(MOD, 10, 3, tuple(itertools.islice(itertools.product((0, 1), repeat=10), 600)))
    real = setsys._pair_tables
    windows = []

    def spy(*args):
        tables = real(*args)
        windows.append(max(t.bit_length() for table in tables for t in table.values()))
        return tables

    monkeypatch.setattr(setsys, "_pair_tables", spy)
    assert find_sunflower(fam) is None
    # 109 rows of 600 bits a window
    assert len(windows) == -(-600 // (setsys._PAIR_BITS // 600))
    assert max(windows) <= setsys._PAIR_BITS + len(fam)


def test_planted_lex_largest_witness():
    fam = mod_family(3, (0, 0), (0, 1), (2, 0), (2, 1), (2, 2))
    assert find_sunflower(fam) == ((2, 0), (2, 1), (2, 2))
    assert _scan_progression(fam) == ((2, 0), (2, 1), (2, 2))


@settings(max_examples=100, deadline=None)
@given(families())
def test_completions_match_the_triple_predicates(fam):
    # every pair's mask, against the spec predicate on each distinct third
    codes = fam.members
    masks = value_masks(codes, fam.n)
    full = (1 << len(codes)) - 1
    for i, j in itertools.permutations(range(len(codes)), 2):
        got = completions(fam.setting, masks, codes[i], codes[j], full) & ~(1 << i | 1 << j)
        want = 0
        for k in range(len(codes)):
            if k not in (i, j):
                want |= triple_is_sunflower(fam.setting, codes[i], codes[j], codes[k]) << k
        assert got == want, (i, j)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_mod_rule_over_F3_is_the_progression_rule(n):
    # on every ordered pair of F_3^n, repeated members included, the mod
    # rule's mask is the set of z with x + y + z = 0
    codes = list(itertools.product(range(3), repeat=n))
    masks = value_masks(codes, n)
    full = (1 << len(codes)) - 1
    for x, y in itertools.product(codes, repeat=2):
        want = sum(1 << k for k, z in enumerate(codes)
                   if all((a + b + c) % 3 == 0 for a, b, c in zip(x, y, z)))
        assert completions(MOD, masks, x, y, full) == want, (x, y)


def _bit_by_bit_value_masks(codes, n):
    """value_masks before the column lists: one bit OR-ed in per member."""
    masks = [{} for _ in range(n)]
    for j, code in enumerate(codes):
        bit = 1 << j
        for col, v in zip(masks, code):
            col[v] = col.get(v, 0) | bit
    return masks


@st.composite
def code_lists(draw):
    n = draw(st.integers(0, 4))
    D = draw(st.sampled_from([2, 3, 5, 257, 1000]))
    code = st.lists(st.integers(0, D - 1), min_size=0, max_size=n + 1).map(tuple)
    return draw(st.lists(code, max_size=40)), n


@settings(max_examples=200, deadline=None)
@given(code_lists(), st.sampled_from([1, 3, 8, 1024]))
def test_value_masks_match_the_bit_by_bit_loop(case, block):
    # ragged codes too: a code shorter or longer than n fills what it
    # reaches; small blocks put the members in several
    codes, n = case
    with mock.patch.object(setsys, "_MASK_BLOCK", block):
        got = value_masks(codes, n)
    want = _bit_by_bit_value_masks(codes, n)
    assert got == want
    assert [list(col) for col in got] == [list(col) for col in want]


def test_value_masks_on_many_members():
    codes = [(j % 3, j // 3 % 300, 7) for j in range(2000)]
    assert value_masks(codes, 3) == _bit_by_bit_value_masks(codes, 3)


def test_value_masks_index_members_by_digit():
    masks = value_masks([(0, 2), (1, 2), (0, 0)], 2)
    assert masks == [{0: 0b101, 1: 0b010}, {2: 0b011, 0: 0b100}]
    assert value_masks([], 3) == [{}, {}, {}]
    with pytest.raises(ValueError, match="rule"):
        completions("weird", masks, (0, 2), (1, 2), 0b111)
