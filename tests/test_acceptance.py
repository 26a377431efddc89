"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Every expected value here is either a pinned closed-form constant or is
recomputed by an independent oracle inside the test (exhaustive enumeration,
direct summation, the complex-float character sum); nothing is asserted
from memory of a run.
"""

import cmath
import itertools
import math
import random
from fractions import Fraction

from slicerank.bounds import (
    capacity_upper,
    capset_capacity_reduction,
    constant_weight_bound,
    count_below_growth_power,
    layer_bound_root,
    mod_count_bound,
    mod_growth_rate,
    subset_family_bound,
)
from slicerank.exactnum import _poly_mul, cyclotomic_poly, reduce_power_vector
from slicerank.search import (
    CAPSET,
    SearchConfig,
    brute_force_max,
    greedy_witness,
    max_free_family,
    validate_against_bounds,
)
from slicerank.setsys import (
    BINARY,
    MOD,
    Family,
    is_capset,
    layer_extract,
    pair_encode,
    triple_is_sunflower,
)
from slicerank.tensor import (
    DEFAULT_MAX_TERMS,
    certify_family,
    check_diagonal,
    decompose,
    decomposition_size,
    expand_tensor,
    verify_decomposition,
    verify_expansion,
)
from test_tensor import count_slices

EXHAUSTIVE_INSTANCES = [
    (BINARY, 1, None),
    (BINARY, 2, None),
    (BINARY, 3, None),
    (BINARY, 4, None),
    (MOD, 3, 3),
    (MOD, 2, 4),
    (MOD, 2, 5),
]


def _pass(number: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {label}: PASS{suffix}")


def test_criterion_01_constants():
    upper = capacity_upper()
    assert abs(upper - 1.889881574) < 1e-9
    assert mod_growth_rate(3).exact == 3
    _, capacity = capset_capacity_reduction(1, Fraction("2.7552"))
    assert capacity.value <= 1.938
    assert capacity.value == math.sqrt(1 + 2.7552)
    _pass(1, "constants", f"upper={upper:.9f}, g_3=3, sqrt(1+C)={capacity.value:.4f}")


def test_criterion_02_expansion_soundness():
    for setting, n, D in EXHAUSTIVE_INSTANCES:
        ts = expand_tensor(setting, n, D)
        ok, witness = verify_expansion(ts, mode="exhaustive")
        assert ok, (setting, n, D, witness)
    _pass(2, "expansion soundness", "binary n<=4; mod-D (3,3),(4,2),(5,2), exhaustive")


def test_criterion_03_decomposition_and_counts():
    # exact reconstruction on the criterion-2 instances
    for setting, n, D in EXHAUSTIVE_INSTANCES:
        dec = decompose(expand_tensor(setting, n, D))
        ok, witness = verify_decomposition(dec, mode="exhaustive")
        assert ok, (setting, n, D, witness)

    # binary slice counts up to n=10, from the actual grouping
    for n in range(0, 11):
        actual = count_slices(expand_tensor(BINARY, n))
        assert actual == decomposition_size(BINARY, n)
        assert actual <= constant_weight_bound(n)

    # mod-D counts up to n=6, D=6: the actual grouping wherever the
    # expansion fits the term cap (22 of 24 instances), and the
    # cross-validated closed form for the remaining two
    checked_closed_form = 0
    for D in range(3, 7):
        for n in range(1, 7):
            size = decomposition_size(MOD, n, D)
            width = 3 * (D - 1) + (0 if D == 3 else 1)
            if width**n <= DEFAULT_MAX_TERMS:
                assert size == count_slices(expand_tensor(MOD, n, D))
            else:
                checked_closed_form += 1
            assert size <= mod_count_bound(n, D)
    assert checked_closed_form == 2  # (D=5,n=6) and (D=6,n=6)
    _pass(3, "decomposition + counts", "binary n<=10; mod-D n<=6, D<=6")


def test_criterion_04_chain_inequality():
    for D in range(3, 21):
        for n in range(1, 51):
            assert count_below_growth_power(n, D)
    _pass(4, "chain inequality", "exact cubed check, n<=50, D<=20")


def _constant_weight_family(n: int, w: int, seed: int) -> Family:
    pool = [tuple(b >> i & 1 for i in range(n)) for b in range(1 << n) if b.bit_count() == w]
    random.Random(seed).shuffle(pool)
    members: list[tuple[int, ...]] = []
    for v in pool:
        if not any(
            triple_is_sunflower(BINARY, a, b, v) for a, b in itertools.combinations(members, 2)
        ):
            members.append(v)
    return Family(BINARY, n, None, tuple(members))


def test_criterion_05_certification_end_to_end():
    cases = []
    for D in (3, 4, 5):
        for n in (1, 2, 3):
            for seed in range(6):
                cases.append(("mod", D, n, seed))
    for n in (2, 3, 4, 5, 6):
        for w in (1, 2):
            if w >= n:
                continue
            for seed in range(5):
                cases.append(("bin", None, (n, w), seed))
    cases.append(("bin", None, (6, 3), 0))
    assert len(cases) == 100

    for kind, D, shape, seed in cases:
        if kind == "mod":
            family = greedy_witness(SearchConfig(MOD, shape, D=D), seed)
        else:
            n, w = shape
            family = _constant_weight_family(n, w, seed)
        cert = certify_family(family)
        assert cert.to_json_dict()["diagonal_ok"]
        assert len(family) <= cert.slice_count <= cert.closed_form_bound
    _pass(5, "certification end-to-end", "100 seeded families")


def test_criterion_06_diagonality_obstruction():
    a = (1, 0)
    b = (1, 1)
    report = check_diagonal(Family(BINARY, 2, None, (a, b)))
    assert not report.ok
    assert report.witness == (a, a, b)
    _pass(6, "diagonality obstruction", "witness ({1},{1},{1,2})")


def test_criterion_07_search_vs_bounds():
    expected_binary = {1: 2, 2: 3}
    details = []
    for n in (1, 2, 3, 4):
        cfg = SearchConfig(BINARY, n)
        result = max_free_family(cfg)
        assert result.optimal
        off = max_free_family(SearchConfig(BINARY, n, symmetry=False))
        assert off.max_size == result.max_size and off.optimal
        oracle = brute_force_max(cfg)
        assert result.max_size == oracle
        if n in expected_binary:
            assert result.max_size == expected_binary[n]
        validate_against_bounds(result, cfg)
        assert result.max_size <= subset_family_bound(n)
        details.append(f"F3({n})={result.max_size}")

    for D, n, expected in [(3, 1, 2), (3, 2, 4)]:
        cfg = SearchConfig(MOD, n, D=D)
        result = max_free_family(cfg)
        assert result.optimal and result.max_size == brute_force_max(cfg) == expected
        assert max_free_family(SearchConfig(MOD, n, D=D, symmetry=False)).max_size == expected
        validate_against_bounds(result, cfg)
        assert result.max_size <= mod_count_bound(n, D)

    for n, expected in [(1, 2), (2, 4)]:
        cfg = SearchConfig(CAPSET, n)
        result = max_free_family(cfg)
        assert result.optimal and result.max_size == brute_force_max(cfg) == expected
        assert max_free_family(SearchConfig(CAPSET, n, symmetry=False)).max_size == expected
        validate_against_bounds(result, cfg)
    _pass(7, "search vs bounds", ", ".join(details) + ", mod-3: 2/4, capset: 2/4")


def test_criterion_08_capset_layers():
    # the displayed encodings, bit-exact
    for bits, symbols in [((1, 0, 1, 1), (1, 3)), ((0, 1, 0, 0), (2, 0))]:
        encoded = pair_encode(Family(BINARY, 4, None, (bits,)))
        assert list(encoded) == [symbols]

    checked = 0
    for dim in (2, 4, 6, 8, 10):
        for seed in range(10):
            family = greedy_witness(SearchConfig(BINARY, dim), seed)
            enc = pair_encode(family)
            supports = {tuple(1 if s == 3 else 0 for s in m) for m in enc}
            for x in supports:
                assert is_capset(layer_extract(enc, x))
            checked += 1
    assert checked == 50
    _pass(8, "capset layers", "50 seeded families over 2n<=10")


def test_criterion_09_cyclotomic_suite():
    rng = random.Random(0)
    for D in range(1, 13):
        z = cmath.exp(2j * cmath.pi / D)
        assert reduce_power_vector(D, [0] * D + [1]) == reduce_power_vector(D, [1])
        for _ in range(25):
            # the reduction keeps the value at zeta_D (the complex-float oracle)
            vec = [rng.randint(-9, 9) for _ in range(2 * D)]
            exact = sum(c * z**k for k, c in enumerate(reduce_power_vector(D, vec)))
            assert abs(exact - sum(c * z**k for k, c in enumerate(vec))) < 1e-6
        for t in range(D):
            # orthogonality: sum_j zeta^(j t) is D at t = 0 and 0 otherwise
            vec = [0] * D
            for j in range(D):
                vec[j * t % D] += 1
            assert reduce_power_vector(D, vec) == reduce_power_vector(D, [D if t == 0 else 0])

    for D in range(1, 31):
        prod = [1]
        for d in range(1, D + 1):
            if D % d == 0:
                prod = _poly_mul(prod, list(cyclotomic_poly(d)))
        assert prod == [-1] + [0] * (D - 1) + [1]
    _pass(9, "cyclotomic suite", "zero test + orthogonality D<=12, product identity D<=30")


def test_criterion_10_capacity_convergence():
    root = layer_bound_root(300)
    assert abs(root - capacity_upper()) < 0.01
    _pass(10, "capacity convergence", f"root(300)={root:.6f} vs {capacity_upper():.6f}")
