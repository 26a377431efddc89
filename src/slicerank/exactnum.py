"""Exact arithmetic for character sums over Z/DZ.

Big integers and rationals come straight from the standard library (``int``,
``fractions.Fraction``).  What this module adds is the ring of cyclotomic
integers Z[zeta_D], stored exactly: an element is an integer coefficient
vector on the power basis 1, zeta, ..., zeta^(phi(D)-1), kept reduced modulo
the D-th cyclotomic polynomial.  Reducing modulo Phi_D rather than X^D - 1
keeps the representation an integral domain, so zero-testing -- the whole
point of exact verification -- is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def phi_degree(D: int) -> int:
    """Degree of Phi_D, i.e. Euler's totient of D."""
    return len(cyclotomic_poly(D)) - 1


def _reduce_power_vector(D: int, vec) -> tuple[int, ...]:
    # fold X^D = 1 first (valid since Phi_D divides X^D - 1), then take the
    # monic remainder mod Phi_D
    folded = [0] * D
    for k, c in enumerate(vec):
        if c:
            folded[k % D] += c
    phi = cyclotomic_poly(D)
    deg = len(phi) - 1
    for i in range(D - 1, deg - 1, -1):
        c = folded[i]
        if c:
            for j in range(deg + 1):
                folded[i - deg + j] -= c * phi[j]
    return tuple(folded[:deg])


# ---------------------------------------------------------------------------
# the ring Z[zeta_D]


@dataclass(frozen=True)
class CycElem:
    """An element of Z[zeta_D] in canonical reduced form."""

    D: int
    coeffs: tuple[int, ...]

    @classmethod
    def from_power_vector(cls, D: int, vec) -> "CycElem":
        return cls(D, _reduce_power_vector(D, vec))

    @classmethod
    def from_int(cls, D: int, value: int) -> "CycElem":
        return cls.from_power_vector(D, (value,))

    def _check(self, other: "CycElem") -> None:
        if self.D != other.D:
            raise ValueError(f"mixed moduli: {self.D} vs {other.D}")

    def __add__(self, other: "CycElem") -> "CycElem":
        self._check(other)
        return CycElem(self.D, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycElem") -> "CycElem":
        self._check(other)
        return CycElem(self.D, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycElem":
        return CycElem(self.D, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycElem") -> "CycElem":
        self._check(other)
        conv = _poly_mul(list(self.coeffs), list(other.coeffs))
        return CycElem.from_power_vector(self.D, conv)

    def conj(self) -> "CycElem":
        """Complex conjugation, realized as zeta -> zeta^(-1)."""
        vec = [0] * self.D
        for k, c in enumerate(self.coeffs):
            if c:
                vec[(self.D - k) % self.D] += c
        return CycElem.from_power_vector(self.D, vec)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_int(self) -> int | None:
        """The element as a plain integer, or None if it is irrational."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]


def zeta_pow(D: int, e: int) -> CycElem:
    """zeta_D to the power e (any integer exponent, folded mod D)."""
    vec = [0] * D
    vec[e % D] = 1
    return CycElem.from_power_vector(D, vec)


def orthogonality_sum(D: int, t: int) -> Fraction:
    """(1/D) * sum over all characters chi of chi(t), computed exactly.

    Equals 1 when t = 0 and 0 otherwise; the reduction to a rational must
    succeed exactly or something is broken upstream.
    """
    if not 0 <= t < D:
        raise ValueError("argument must lie in [0, D)")
    acc = CycElem.from_int(D, 0)
    for j in range(D):
        acc = acc + zeta_pow(D, j * t)
    value = acc.as_int()
    if value is None:
        raise ArithmeticError("character sum failed to reduce to an integer")
    return Fraction(value, D)

