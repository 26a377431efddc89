"""Exact zero-testing in the cyclotomic integers Z[zeta_D].

An element is an integer bucket vector over the powers 1, zeta, ...,
zeta^(D-1).  Reducing it modulo the D-th cyclotomic polynomial Phi_D gives
its coefficients on the power basis 1, zeta, ..., zeta^(phi(D)-1), which are
all zero exactly when the element is.  Reducing modulo Phi_D rather than
X^D - 1 keeps the representation an integral domain, so zero-testing -- the
whole point of exact verification -- is unambiguous.  At D = 1, Phi_1 = X - 1
leaves a single bucket as it is.
"""

from __future__ import annotations

from functools import lru_cache


# ---------------------------------------------------------------------------
# integer polynomials, low degree first


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Long division by a monic integer polynomial; exact over Z."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    rem = num[:dd]
    return quot, rem


@lru_cache(maxsize=None)
def cyclotomic_poly(D: int) -> tuple[int, ...]:
    """Coefficients of the D-th cyclotomic polynomial, low degree first.

    Computed by exact division: Phi_D = (X^D - 1) / prod_{d | D, d < D} Phi_d.
    """
    if D < 1:
        raise ValueError("modulus must be a positive integer")
    if D == 1:
        return (-1, 1)
    den = [1]
    for d in range(1, D):
        if D % d == 0:
            den = _poly_mul(den, list(cyclotomic_poly(d)))
    num = [-1] + [0] * (D - 1) + [1]
    quot, rem = _poly_divmod_monic(num, den)
    if any(rem):
        raise ArithmeticError("cyclotomic division left a remainder")
    return tuple(quot)


def reduce_power_vector(D: int, vec) -> tuple[int, ...]:
    """The element sum_k vec[k] zeta_D^k on the power basis 1, zeta, ...,
    zeta^(phi(D)-1); it is zero iff every coefficient is."""
    # fold X^D = 1 first (valid since Phi_D divides X^D - 1), then take the
    # monic remainder mod Phi_D
    folded = [0] * D
    for k, c in enumerate(vec):
        if c:
            folded[k % D] += c
    phi = cyclotomic_poly(D)
    deg = len(phi) - 1
    # Phi_D is often sparse (Phi_40 has 5 nonzero coefficients of 17)
    terms = [(j - deg, p) for j, p in enumerate(phi) if p]
    for i in range(D - 1, deg - 1, -1):
        c = folded[i]
        if c:
            for j, p in terms:
                folded[i + j] -= c * p
    return tuple(folded[:deg])
