import itertools
import math
from array import array
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from slicerank import bounds, cli
from slicerank.bounds import mod_count_bound, subset_family_bound
from slicerank.search import (
    CAPSET,
    BoundViolationError,
    SearchConfig,
    SearchResult,
    _bad_triple,
    _Budget,
    _candidates,
    _canonical_images,
    _Search,
    _symmetry_generators,
    _to_family,
    brute_force_max,
    greedy_witness,
    max_free_family,
    validate_against_bounds,
)
from slicerank.setsys import BINARY, MOD, triple_is_sunflower
from slicerank.tensor import ResourceLimitError


# witnesses are checked triple by triple, sharing nothing with the
# `completions` masks the search prunes with


def _free(family) -> bool:
    return not any(triple_is_sunflower(family.setting, *t)
                   for t in itertools.combinations(family.members, 3))


def _progression_free(family) -> bool:
    return not any(all((a + b + c) % 3 == 0 for a, b, c in zip(x, y, z))
                   for x, y, z in itertools.combinations(family.members, 3))


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig("weird", 2)
    with pytest.raises(ValueError):
        SearchConfig(MOD, 2)
    with pytest.raises(ValueError):
        SearchConfig(CAPSET, 2, D=4)
    with pytest.raises(ValueError):
        SearchConfig(BINARY, 2, node_budget=0)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        SearchConfig(BINARY, -1)
    with pytest.raises(ValueError, match="binary setting takes no D"):
        SearchConfig(BINARY, 3, D=7)
    with pytest.raises(ValueError, match="binary setting takes no D"):
        SearchConfig(BINARY, 3, D=2)


# --- maxima against the exhaustive oracle ----------------------------------------


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 3), (3, 5), (4, 8)])
def test_binary_maxima(n, expected):
    cfg = SearchConfig(BINARY, n)
    result = max_free_family(cfg)
    assert result.optimal
    assert result.max_size == expected == brute_force_max(cfg)
    assert _free(result.witness)
    assert len(result.witness) == expected


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 4)])
def test_mod3_maxima(n, expected):
    cfg = SearchConfig(MOD, n, D=3)
    result = max_free_family(cfg)
    assert result.optimal and result.max_size == expected == brute_force_max(cfg)
    assert _free(result.witness)


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 4)])
def test_capset_maxima(n, expected):
    cfg = SearchConfig(CAPSET, n)
    result = max_free_family(cfg)
    assert result.optimal and result.max_size == expected == brute_force_max(cfg)
    assert _progression_free(result.witness)


def test_binary_witness_n2():
    result = max_free_family(SearchConfig(BINARY, 2))
    assert [result.witness.line(m) for m in result.witness] == ["00", "01", "11"]


def test_monotone_in_n():
    values = [max_free_family(SearchConfig(BINARY, n)).max_size for n in range(1, 5)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_symmetry_on_off_agree():
    for cfg_on, cfg_off in [
        (SearchConfig(BINARY, n), SearchConfig(BINARY, n, symmetry=False))
        for n in (1, 2, 3, 4, 6)
    ] + [
        (SearchConfig(MOD, 2, D=3), SearchConfig(MOD, 2, D=3, symmetry=False)),
        (SearchConfig(CAPSET, 2), SearchConfig(CAPSET, 2, symmetry=False)),
    ]:
        on, off = max_free_family(cfg_on), max_free_family(cfg_off)
        assert on.optimal and off.optimal
        assert on.max_size == off.max_size
        assert on.witness.members == off.witness.members


def test_budget_exhaustion_flags_incomplete():
    result = max_free_family(SearchConfig(BINARY, 4, node_budget=5, symmetry=False))
    assert not result.optimal
    assert result.max_size <= 8
    assert _free(result.witness)


def test_node_budget_stops_a_symmetric_search():
    result = max_free_family(SearchConfig(BINARY, 4, node_budget=1))
    assert not result.optimal and result.nodes == 2


# --- the search contract: counts, witnesses and canonicity -----------------------


_BINARY_6_WITNESS = (
    "000000 000011 000111 011001 011010 011101 011110 011111 101001 101010"
    " 101101 101110 101111 110001 110010 110101 110110 110111 111111"
)


@pytest.mark.parametrize(
    "cfg,max_size,optimal,nodes,witness",
    [
        (SearchConfig(BINARY, 1), 2, True, 5, "0 1"),
        (SearchConfig(BINARY, 2), 3, True, 9, "00 01 11"),
        (SearchConfig(BINARY, 3), 5, True, 20, "000 011 101 110 111"),
        (SearchConfig(BINARY, 4), 8, True, 46, "0000 0011 0101 0110 1011 1101 1110 1111"),
        (
            SearchConfig(BINARY, 5), 12, True, 191,
            "00000 00011 01101 01110 01111 10101 10110 10111 11001 11010 11011 11111",
        ),
        (SearchConfig(BINARY, 2, symmetry=False), 3, True, 9, "00 01 11"),
        (SearchConfig(BINARY, 3, symmetry=False), 5, True, 21, "000 011 101 110 111"),
        (
            SearchConfig(BINARY, 4, symmetry=False), 8, True, 66,
            "0000 0011 0101 0110 1011 1101 1110 1111",
        ),
        (SearchConfig(MOD, 2, D=3), 4, True, 11, "0,0 0,1 1,0 1,1"),
        (SearchConfig(MOD, 2, D=4), 4, True, 15, "0,0 0,1 1,0 1,1"),
        (SearchConfig(CAPSET, 2), 4, True, 11, "0,0 0,1 1,0 1,1"),
        (SearchConfig(CAPSET, 2, symmetry=False), 4, True, 41, "0,0 0,1 1,0 1,1"),
        (
            SearchConfig(BINARY, 6, node_budget=300), 15, False, 301,
            "000000 000011 000101 000110 001011 001101 011011 011101 011110 101110"
            " 110110 111011 111101 111110 111111",
        ),
        (
            SearchConfig(BINARY, 5, symmetry=False), 12, True, 1331,
            "00000 00011 01101 01110 01111 10101 10110 10111 11001 11010 11011 11111",
        ),
        (
            SearchConfig(CAPSET, 3, symmetry=False), 9, True, 11760,
            "0,0,0 0,0,1 0,1,0 0,1,1 1,0,0 1,0,1 1,1,2 1,2,2 2,1,2",
        ),
        (
            SearchConfig(BINARY, 6, node_budget=5000, symmetry=False), 19, False, 5001,
            _BINARY_6_WITNESS,
        ),
        (SearchConfig(MOD, 2, D=5, symmetry=False), 4, True, 1545, "0,0 0,1 1,0 1,1"),
        (SearchConfig(BINARY, 6), 19, True, 2005, _BINARY_6_WITNESS),
        (
            SearchConfig(MOD, 3, D=4), 12, True, 1014,
            "0,0,0 0,0,1 0,1,2 0,2,2 1,0,2 1,3,3 2,0,2 2,3,3 3,1,3 3,2,3 3,3,0 3,3,1",
        ),
    ],
)
def test_search_results_are_pinned(cfg, max_size, optimal, nodes, witness):
    # node counts are printed by the CLI, so they are part of the contract
    result = max_free_family(cfg)
    assert (result.max_size, result.optimal, result.nodes) == (max_size, optimal, nodes)
    assert " ".join(map(result.witness.line, result.witness)) == witness


@pytest.mark.parametrize("n", range(4))
def test_capset_and_mod3_searches_agree(n):
    # over F_3 a distinct triple is a sunflower iff x + y + z = 0 everywhere
    capset = max_free_family(SearchConfig(CAPSET, n))
    mod3 = max_free_family(SearchConfig(MOD, n, D=3))
    assert capset.optimal
    assert (capset.max_size, capset.optimal, capset.nodes, capset.witness) == (
        mod3.max_size, mod3.optimal, mod3.nodes, mod3.witness
    )


def _reference_beaten(columns, size, m, pool):
    """The cut before the popcount forms: the size cut, then the slice bound
    summed over each coordinate's value masks, all M of them."""
    if pool.bit_count() <= size:
        return True
    for col in columns:
        if sum([min(m, (pool & s).bit_count()) for s in col]) <= size:
            return True
    return False


# every level of each config, ids prefixed by setting (binary keeps plain level ids)
_CUT_CONFIGS = {
    "": SearchConfig(BINARY, 6),
    "mod-3-": SearchConfig(MOD, 3, D=3),
    "mod-4-": SearchConfig(MOD, 3, D=4),
    "mod-5-": SearchConfig(MOD, 3, D=5),
    "capset-": SearchConfig(CAPSET, 4),
}


@pytest.mark.parametrize("cfg,k", [
    pytest.param(cfg, k, id=f"{prefix}{k}")
    for prefix, cfg in _CUT_CONFIGS.items()
    for k in range(cfg.n + 1)
])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_binary_cut_matches_reference(cfg, k, data):
    """`_beaten` at level k, which reads the first M - 1 value masks per
    coordinate (one in the binary setting), agrees with the reference over
    all M of them on drawn pools, best sizes and sub-level maxima."""
    search = _Search(cfg, _candidates(cfg))
    search.level(k, 0, None)  # m(k - 1) = 0 cuts level k >= 1 at its root
    columns = [list(col.values()) for col in search.masks[cfg.n - k:]]
    assert all(len(col) == cfg.alphabet for col in columns)
    level = cfg.alphabet**k
    for _ in range(8):
        pool = data.draw(st.integers(0, (1 << level) - 1), label="pool")
        size = data.draw(st.integers(0, level), label="size")
        m = data.draw(st.integers(0, level), label="sub_max")
        search.best, search.sub_max = tuple(range(size)), m
        assert search._beaten(pool) == _reference_beaten(columns, size, m, pool)


def _affine_group(n):
    """AGL(n, 3) as maps of members, x -> Ax + b with A invertible, found by
    keeping the matrices that are one-to-one on the points."""
    points = list(itertools.product(range(3), repeat=n))

    def linear(rows, x):
        return tuple(sum(a * c for a, c in zip(row, x)) % 3 for row in rows)

    group = []
    for entries in itertools.product(range(3), repeat=n * n):
        rows = [entries[i * n:(i + 1) * n] for i in range(n)]
        if len({linear(rows, x) for x in points}) == len(points):
            group += [
                lambda x, rows=rows, b=b: tuple((y + c) % 3 for y, c in zip(linear(rows, x), b))
                for b in points
            ]
    return group


def _reference_group(cfg):
    """Symmetries as maps of members: over F_3 at n <= 2 all of AGL(n, 3);
    otherwise the coordinate permutations, composed outside the binary
    setting with an alphabet permutation at each coordinate."""
    n = cfg.n
    if cfg.alphabet == 3 and n <= 2:
        return _affine_group(n)
    coord_perms = list(itertools.permutations(range(n)))
    if cfg.setting == BINARY:
        return [lambda x, p=p: tuple(x[p[i]] for i in range(n)) for p in coord_perms]
    value_perms = list(itertools.permutations(range(cfg.alphabet)))
    return [
        lambda x, p=p, vmaps=vmaps: tuple(vmaps[i][x[p[i]]] for i in range(n))
        for p in coord_perms
        for vmaps in itertools.product(value_perms, repeat=n)
    ]


def _reference_is_canonical(members: tuple, group) -> bool:
    return all(tuple(sorted(s(m) for m in members)) >= members for s in group)


def _reference_perms(cfg, cands):
    """The full group of `_reference_group` as permutations of candidate
    indices."""
    index = {c: j for j, c in enumerate(cands)}
    return [array("H", [index[s(c)] for c in cands]) for s in _reference_group(cfg)]


@pytest.mark.parametrize("n,order", [(0, 1), (1, 6), (2, 432)])
def test_affine_reference_group_has_agl_order(n, order):
    # |AGL(n, 3)| = 3^n |GL(n, 3)|: 6 at n = 1 and 9 * 48 at n = 2
    cands = _candidates(SearchConfig(CAPSET, n))
    perms = _reference_perms(SearchConfig(CAPSET, n), cands)
    assert len({tuple(p) for p in perms}) == len(perms) == order


@pytest.mark.parametrize(
    "cfg",
    [
        SearchConfig(BINARY, 3),
        SearchConfig(BINARY, 4),
        SearchConfig(MOD, 2, D=3),
        SearchConfig(CAPSET, 2),
        SearchConfig(MOD, 2, D=4),
    ],
)
def test_canonicity_matches_member_orbits(cfg):
    """The generators are symmetries, and the image-mask test over them
    rejects only partials that are not lex-least in their orbit of member
    tuples under the full group.  Masks are bit-reversed: candidate j is
    bit N - 1 - j, as are the generators' entries."""
    cands = _candidates(cfg)
    top = len(cands) - 1
    group = _symmetry_generators(cfg)
    reference = _reference_group(cfg)
    full = {tuple(perm) for perm in _reference_perms(cfg, cands)}
    n, M = cfg.n, cfg.alphabet
    transvections = n * (n - 1) if M == 3 else 0
    assert len(group) == n - 1 + (0 if cfg.setting == BINARY else n * (M - 1)) + transvections
    for rev in group:
        perm = [top - p for p in rev]
        assert tuple(perm) in full
        for x, y, z in itertools.combinations(range(len(cands)), 3):
            if _bad_triple(cfg.setting, cands[x], cands[y], cands[z]):
                assert _bad_triple(cfg.setting, cands[perm[x]], cands[perm[y]], cands[perm[z]])
    rejected = 0
    for size in range(4):
        for partial in itertools.combinations(range(len(cands)), size):
            members = tuple(cands[i] for i in partial)
            if partial:
                *prefix, i = partial
                images = [sum(1 << rev[j] for j in prefix) for rev in group]
                r = sum(1 << top - j for j in partial)
                extended = _canonical_images(images, group, r, i)
                verdict = extended is not None
                if verdict:  # the images of the extended partial
                    assert extended == [sum(1 << rev[j] for j in partial) for rev in group]
            else:
                verdict = True  # the root is never tested
            if _reference_is_canonical(members, reference):
                assert verdict, partial
            rejected += not verdict
    assert rejected


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reversed_masks_order_equal_size_sets_lex(data):
    # of two index sets of equal size, the lex-smaller sorted tuple has the
    # larger bit-reversed mask: the canonicity test's one compare
    total = data.draw(st.integers(1, 70), label="N")
    size = data.draw(st.integers(0, total), label="size")
    a, b = (
        sorted(data.draw(st.sets(st.integers(0, total - 1), min_size=size, max_size=size)))
        for _ in range(2)
    )
    ra, rb = (sum(1 << total - 1 - j for j in s) for s in (a, b))
    assert (ra > rb, ra == rb) == (a < b, a == b)


def _can_join(setting: str, members, c) -> bool:
    """Can c join the free family `members` without a forbidden triple?"""
    for a, b in itertools.combinations(members, 2):
        if _bad_triple(setting, a, b, c):
            return False
    return True


class _ReferenceSearch:
    """The search loop before bitsets: a `_can_join` pair scan per
    candidate and sorted index images for canonicity."""

    def __init__(self, cfg, cands, group):
        self.cfg, self.cands, self.group = cfg, cands, group
        self.nodes = 0
        self.best = ()

    def visit(self, partial):
        self.nodes += 1
        if self.nodes > self.cfg.node_budget:
            raise _Budget
        if len(partial) > len(self.best):
            self.best = partial

    def canonical(self, partial):
        key = list(partial)
        return all(sorted(perm[i] for i in partial) >= key for perm in self.group)

    def run(self, partial, start):
        cands, total = self.cands, len(self.cands)
        members = [cands[j] for j in partial]
        for i in range(start, total):
            if len(partial) + (total - i) < len(self.best):
                break
            if not _can_join(self.cfg.setting, members, cands[i]):
                continue
            extended = partial + (i,)
            if self.group is not None and not self.canonical(extended):
                continue
            self.visit(extended)
            self.run(extended, i + 1)


def _reference_search(cfg):
    cands = _candidates(cfg)
    group = _reference_perms(cfg, cands) if cfg.symmetry else None
    ref = _ReferenceSearch(cfg, cands, group)
    complete = True
    try:
        ref.visit(())
        ref.run((), 0)
    except _Budget:
        complete = False
    return len(ref.best), complete, ref.nodes, _to_family(cfg, [cands[i] for i in ref.best])


@pytest.mark.parametrize(
    "cfg",
    [SearchConfig(BINARY, n, symmetry=sym) for n in range(6) for sym in (True, False)]
    + [SearchConfig(CAPSET, n) for n in (2, 3)]
    + [SearchConfig(MOD, 2, D=D) for D in (3, 4, 5)]
    + [SearchConfig(BINARY, 6, node_budget=b) for b in (1, 5, 37, 300)]
    + [SearchConfig(BINARY, 6, node_budget=b, symmetry=False) for b in (37, 5000)],
    ids=str,
)
def test_bitset_search_matches_reference_loop(cfg):
    """Where the loop before bitsets, levels, the slice bound and generators
    (the full group, a `_can_join` scan and the plain size cut) completes,
    both give the same result; a budgeted search stops one node past its
    budget with a free family within the proved bound."""
    result = max_free_family(cfg)
    max_size, complete, _, witness = _reference_search(cfg)
    if complete:
        assert (result.max_size, result.optimal, result.witness) == (max_size, True, witness)
        return
    assert not result.optimal and len(result.witness) == result.max_size
    assert result.nodes == cfg.node_budget + 1
    assert _free(result.witness)
    validate_against_bounds(result, cfg)


@pytest.mark.parametrize(
    "cfg",
    [SearchConfig(BINARY, 3), SearchConfig(CAPSET, 2), SearchConfig(MOD, 2, D=3),
     SearchConfig(MOD, 2, D=4)],
    ids=str,
)
def test_kill_masks_match_triple_scan(cfg):
    cands = _candidates(cfg)
    total = len(cands)
    search = _Search(cfg, cands)
    search.level(cfg.n, total, None)  # caches the pairs the search uses
    assert search.kills
    for a, b in itertools.combinations(range(total), 2):
        scan = sum(
            1 << c for c in range(b + 1, total)
            if _bad_triple(cfg.setting, cands[a], cands[b], cands[c])
        )
        assert search.kills.get(a * total + b, scan) == scan, (a, b)
        assert search._kill(a, b) == scan, (a, b)
    assert len(search.kills) == math.comb(total, 2)


def test_symmetry_table_is_capped():
    # the table's two-byte entries index at most 2^16 candidates
    with pytest.raises(ResourceLimitError, match="symmetry table"):
        max_free_family(SearchConfig(BINARY, 17))
    for n, symmetry in [(9, True), (9, False), (16, True)]:
        result = max_free_family(SearchConfig(BINARY, n, node_budget=3, symmetry=symmetry))
        assert result.nodes == 4 and not result.optimal


# --- greedy -----------------------------------------------------------------------


def test_greedy_deterministic_and_valid():
    cfg = SearchConfig(BINARY, 4)
    a = greedy_witness(cfg, 123)
    b = greedy_witness(cfg, 123)
    assert a.members == b.members
    assert _free(a)
    assert greedy_witness(cfg, 7).members != () and len(greedy_witness(cfg, 7)) >= 4


@pytest.mark.parametrize("seed", range(12))
def test_greedy_reaches_four_at_n4(seed):
    assert len(greedy_witness(SearchConfig(BINARY, 4), seed)) >= 4


def test_greedy_capset_mode():
    fam = greedy_witness(SearchConfig(CAPSET, 3), 2)
    assert _progression_free(fam)


def _reference_greedy(cfg, seed):
    """greedy_witness before alive masks: a `_can_join` pair scan per candidate."""
    cands = _candidates(cfg)
    Random(seed).shuffle(cands)
    members: list = []
    for c in cands:
        if _can_join(cfg.setting, members, c):
            members.append(c)
    return _to_family(cfg, members)


@pytest.mark.parametrize(
    "cfg",
    [SearchConfig(BINARY, n) for n in range(7)]
    + [SearchConfig(MOD, n, D=D) for n in range(4) for D in (3, 4, 5)]
    + [SearchConfig(CAPSET, n) for n in range(5)],
    ids=str,
)
def test_greedy_matches_reference_scan(cfg):
    for seed in range(6):
        assert greedy_witness(cfg, seed) == _reference_greedy(cfg, seed), seed


# --- bound comparison ------------------------------------------------------------------


def test_validate_against_bounds():
    r = max_free_family(SearchConfig(BINARY, 2))
    assert r.max_size == 3
    assert validate_against_bounds(r, SearchConfig(BINARY, 2)) == (
        subset_family_bound(2), "family-count") == (9, "family-count")

    r = max_free_family(SearchConfig(MOD, 1, D=3))
    assert r.max_size == 2
    assert validate_against_bounds(r, SearchConfig(MOD, 1, D=3)) == (
        mod_count_bound(1, 3), "mod-slice-count") == (3, "mod-slice-count")

    r = max_free_family(SearchConfig(CAPSET, 2))
    assert r.max_size == 4
    assert validate_against_bounds(r, SearchConfig(CAPSET, 2)) == (9, "universe-size")


def test_validate_raises_on_violation():
    cfg = SearchConfig(MOD, 1, D=3)
    fam = max_free_family(cfg).witness
    fake = SearchResult(99, True, fam, 1)
    with pytest.raises(BoundViolationError):
        validate_against_bounds(fake, cfg)
    cfg = SearchConfig(CAPSET, 1)
    fake = SearchResult(4, True, max_free_family(cfg).witness, 1)
    with pytest.raises(BoundViolationError, match="universe size"):
        validate_against_bounds(fake, cfg)


_BINARY_ARGV = ["--setting", "binary", "--n", "2"]
_MOD_ARGV = ["--setting", "mod-d", "--n", "1", "--D", "3"]


@pytest.mark.parametrize(
    "bound_fn, value, cfg, argv, message",
    [
        ("subset_family_bound", 1, SearchConfig(BINARY, 2), _BINARY_ARGV, "family bound"),
        ("mod_count_bound", 1, SearchConfig(MOD, 1, D=3), _MOD_ARGV, "slice-count"),
    ],
    ids=["family-bound", "slice-count"],
)
def test_bound_violation_is_named_and_exits_2(monkeypatch, capsys, bound_fn, value, cfg, argv,
                                              message):
    # a bound below the known maximum stands in for a search bug
    monkeypatch.setattr(bounds, bound_fn, lambda *args: value)
    with pytest.raises(BoundViolationError, match=message):
        validate_against_bounds(max_free_family(cfg), cfg)
    assert cli.main(["search"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: search exceeded") and message in captured.err


def test_search_result_json_shape():
    r = max_free_family(SearchConfig(BINARY, 1))
    data = r.to_json_dict()
    assert data == {"max": 2, "optimal": True, "nodes": r.nodes, "witness": ["0", "1"]}
