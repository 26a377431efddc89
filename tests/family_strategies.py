"""Hypothesis strategies for small families, shared by the predicate tests.

A drawn family is random, greedily sunflower-free, or planted: a sunflower
at its three lexicographically largest members and nothing else, so a scan
in lex order reaches the only bad triple last.
"""

import itertools
from random import Random

from hypothesis import strategies as st

from slicerank.setsys import BINARY, MOD, Family, triple_is_sunflower


def _greedy(setting, points, size, start=()):
    """Insert `points` in order when they form no sunflower with a pair
    already present, until `size` members."""
    members = list(start)
    for v in points:
        if len(members) == size:
            break
        if not any(triple_is_sunflower(setting, a, b, v)
                   for a, b in itertools.combinations(members, 2)):
            members.append(v)
    return members


@st.composite
def families(draw, settings=(BINARY, MOD), Ds=(2, 3, 4, 5), max_points=256, max_size=16):
    setting = draw(st.sampled_from(settings))
    M = 2 if setting == BINARY else draw(st.sampled_from(Ds))
    max_n = max(k for k in range(9) if M**k <= max_points)
    n = draw(st.integers(0, max_n))
    points = list(itertools.product(range(M), repeat=n))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(0, min(max_size, len(points))))
    shape = draw(st.sampled_from(["random", "free", "planted"]))
    if shape == "random":
        members = rng.sample(points, size)
    elif shape == "free":
        rng.shuffle(points)
        members = _greedy(setting, points, size)
    else:
        upper = [p for p in points if n and p[0] == M - 1]
        planted = None
        for _ in range(200 if len(upper) >= 3 else 0):
            triple = sorted(rng.sample(upper, 3))
            if triple_is_sunflower(setting, *triple):
                planted = triple
                break
        if planted is None:  # none found up there (n = 0, D = 2, or bad luck)
            members = rng.sample(points, size)
        else:
            below = [p for p in points if p < planted[0]]
            rng.shuffle(below)
            members = _greedy(setting, below, max(size, 3), start=planted)
    D = None if setting == BINARY else M
    return Family(setting, n, D, tuple(members))
