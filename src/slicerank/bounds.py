"""Closed-form bounds and capacities for sunflower-free families.

Everything is evaluated in exact integer/rational arithmetic first; floats
are produced from the exact values at the last step only, so outputs are
deterministic across platforms.  The central quantities:

* binary setting: a sunflower-free family of subsets of an n-set has size
  at most 3(n+1) * sum_{k <= n/3} C(n,k); each constant-weight layer
  contributes at most 3 * sum_{k <= n/3} C(n,k).  The n-th root of the layer
  bound converges to 3/2^(2/3) = 1.889881574..., the best known upper bound
  for the sunflower-free capacity.
* mod-D setting: a sunflower-free subset of (Z/DZ)^n has size at most
  3 * sum_{k <= 2n/3} C(n,k)(D-1)^k <= 3 * g_D^n with growth base
  g_D = (3/2^(2/3)) * (D-1)^(2/3); tensor powering removes the factor 3.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_CAPSET_CAPACITY = Fraction("2.7552")
CITED_CAPACITY_LOWER_BOUND = 1.554


@dataclass(frozen=True)
class BoundReport:
    """A named bound value: exact when one exists, always a float and log2."""

    name: str
    params: dict = field(default_factory=dict)
    exact: int | Fraction | None = None
    value: float = 0.0
    log2: float | None = None


def _report(name: str, params: dict, exact=None, value=None) -> BoundReport:
    if value is None:
        try:
            value = float(exact)
        except OverflowError:
            # past the float range: the float column reads inf, while exact
            # and its log2 below stay exact
            value = math.inf
    log2 = math.log2(value) if value > 0 else None
    if exact is not None and exact > 0:
        # exact log2 for big values float() may distort
        log2 = math.log2(exact.numerator) - math.log2(exact.denominator)
    return BoundReport(name, params, exact, value, log2)


def _root_report(name: str, params: dict, radicand: Fraction, k: int, root) -> BoundReport:
    """The report of radicand^(1/k), its float root(float(radicand)).  Past
    the float range of the radicand, the root's log2 is exact from the
    radicand's numerator and denominator, and the float column reads inf
    only where the root itself overflows."""
    try:
        value = root(float(radicand))
    except OverflowError:
        log2 = (math.log2(radicand.numerator) - math.log2(radicand.denominator)) / k
        value = 2.0**log2 if log2 < sys.float_info.max_exp else math.inf
        return BoundReport(name, params, None, value, log2)
    return _report(name, params, value=value)


# ---------------------------------------------------------------------------
# binary setting


def binomial_tail(n: int, kmax: int, weight: int = 1) -> int:
    """sum_{k=0}^{kmax} C(n,k) weight^k; empty (=0) when kmax < 0."""
    total, term = 0, 1
    for k in range(kmax + 1):
        total += term
        # C(n,k) (n-k) = C(n,k+1) (k+1), so the division is exact
        term = term * (n - k) * weight // (k + 1)
    return total


def constant_weight_bound(n: int) -> int:
    """Per-layer bound 3 * sum_{k <= n/3} C(n,k) for sunflower-free
    constant-weight families in {0,1}^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return 3 * binomial_tail(n, n // 3)


def subset_family_bound(n: int) -> int:
    """Total bound 3(n+1) * sum_{k <= n/3} C(n,k): one layer bound per
    weight 0..n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (n + 1) * constant_weight_bound(n)


def layer_bound_root(n: int) -> float:
    """(constant_weight_bound(n))^(1/n), the finite-n capacity estimate."""
    if n < 1:
        raise ValueError("n must be positive")
    b = constant_weight_bound(n)
    return math.exp(math.log(b) / n)


def capacity_upper() -> float:
    """3/2^(2/3), the limit of layer_bound_root."""
    return 3.0 / 2.0 ** (2.0 / 3.0)


# ---------------------------------------------------------------------------
# mod-D setting


def mod_count_bound(n: int, D: int) -> int:
    """Slice-count bound 3 * sum_{k <= 2n/3} C(n,k)(D-1)^k for the character
    expansion over (Z/DZ)^n."""
    if D < 3:
        raise ValueError("the mod-D bounds need D >= 3")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return 3 * binomial_tail(n, (2 * n) // 3, D - 1)


def _int_cbrt(v: int) -> int | None:
    """Exact integer cube root of v >= 0, or None."""
    if not v:
        return 0
    # integer Newton from 2^ceil(bits/3) >= cbrt(v) down to floor(cbrt(v))
    r = 1 << -(-v.bit_length() // 3)
    while (s := (2 * r + v // (r * r)) // 3) < r:
        r = s
    return r if r**3 == v else None


def mod_growth_rate(D: int) -> BoundReport:
    """Growth base g_D = (3/2^(2/3)) (D-1)^(2/3); its cube 27(D-1)^2/4 is
    rational, and the exact field is set when the cube root is rational,
    which takes an integer cube (D = 3 gives exactly 3)."""
    if D < 3:
        raise ValueError("the mod-D bounds need D >= 3")
    params = {"D": D}
    cubed = Fraction(27 * (D - 1) ** 2, 4)
    # the denominator is 1 or 4, and 4 is no cube
    exact = _int_cbrt(cubed.numerator) if cubed.denominator == 1 else None
    if exact is not None:
        return _report("mod-growth-rate", params, exact=exact)
    return _root_report("mod-growth-rate", params, cubed, 3, lambda v: v ** (1 / 3))


def count_below_growth_power(n: int, D: int) -> bool:
    """Exact check that sum_{k <= 2n/3} C(n,k)(D-1)^k <= g_D^n, done by
    cubing both sides: lhs^3 * 4^n <= 27^n * (D-1)^(2n) over integers."""
    if D < 3 or n < 1:
        raise ValueError("need D >= 3 and n >= 1")
    lhs = binomial_tail(n, (2 * n) // 3, D - 1)
    return lhs**3 * 4**n <= 27**n * (D - 1) ** (2 * n)


# ---------------------------------------------------------------------------
# capset reduction and the capacity summary


def capset_capacity_reduction(n: int, C: Fraction = DEFAULT_CAPSET_CAPACITY) -> list[BoundReport]:
    """Bound the largest sunflower-free family in {0,1}^(2n) via the capset
    capacity C: the count is at most (1+C)^n, hence the binary capacity is
    at most sqrt(1+C).

    Returns the pair-count report (exact when C is rational) and the
    capacity report.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if C < 0:
        raise ValueError("capacity estimate must be nonnegative")
    params = {"n": n, "C": C}
    count = _report("capset-reduction-count", params, exact=(1 + C) ** n)
    return [count, _root_report("capset-reduction-capacity", params, 1 + C, 2, math.sqrt)]


def capacities_summary(C: Fraction = DEFAULT_CAPSET_CAPACITY) -> list[BoundReport]:
    """The sunflower-free capacity constants: the 3/2^(2/3) upper bound, the
    cited 1.554 lower bound, the sqrt(1+C) comparison, and the trivial 2."""
    reports = [
        _report("capacity-upper", {}, value=capacity_upper()),
        _report("capacity-lower-cited", {}, value=CITED_CAPACITY_LOWER_BOUND),
        capset_capacity_reduction(1, C)[1],
        _report("capacity-trivial", {}, exact=2),
    ]
    return reports


# ---------------------------------------------------------------------------
# table/CSV plumbing


CSV_HEADER = ["name", "n", "D", "exact", "float", "log2"]


def _digit_limit() -> int:
    # 0, no limit, on Pythons older than the limit (before 3.10.7)
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _past_limit(name: str, n, limit: int) -> ValueError:
    return ValueError(f"the exact {name} value at n={n} has more than {limit}"
                      " digits, past the integer string limit")


def _refuse_layer_count(n: int, D: int | None, C) -> None:
    """Raise report_row's error for the layer count at n before its sum is
    taken, when a lower bound already passes the digit limit: with k = n//3
    and q = n//k, the count is at least C(n, k) >= q^k >= q^(64 j) >=
    2^(j (b - 1)), j = k // 64 and b the bit length of q^64, so no power is
    built that grows with n.  A bad D or C is still named first, as the
    table's later rows name it before any row is printed."""
    limit, k = _digit_limit(), n // 3
    if limit and k >= 64:
        bits = k // 64 * (((n // k) ** 64).bit_length() - 1)
        if bits >= (10**limit).bit_length():
            if D is not None:
                mod_growth_rate(D)
            capset_capacity_reduction(0, C)
            raise _past_limit("layer-count", n, limit)


def format_float(v: float | None) -> str:
    return "" if v is None else f"{v:.12g}"


def report_row(r: BoundReport) -> list[str]:
    """The row's CSV cells.  Raises ValueError when the exact value has a
    part past Python's integer string limit (sys.get_int_max_str_digits)."""
    limit = _digit_limit()
    if r.exact is not None and limit:
        part = max(abs(r.exact.numerator), r.exact.denominator)
        # 2^(3 limit) < 10^limit: only a longer part needs the exact test
        if part.bit_length() > 3 * limit and part >= 10**limit:
            raise _past_limit(r.name, r.params.get("n"), limit)
    if r.exact is None:
        exact = ""
    elif isinstance(r.exact, Fraction) and r.exact.denominator != 1:
        exact = f"{r.exact.numerator}/{r.exact.denominator}"
    else:
        exact = str(int(r.exact))
    return [
        r.name,
        str(r.params.get("n", "")),
        str(r.params.get("D", "")),
        exact,
        format_float(r.value),
        format_float(r.log2),
    ]


def bound_table(n: int | None = None, D: int | None = None, C=DEFAULT_CAPSET_CAPACITY):
    """All reports relevant to the given parameters, for the CLI table."""
    reports: list[BoundReport] = []
    if n is not None:
        _refuse_layer_count(n, D, C)
        # one sum for the three rows: subset_family_bound and layer_bound_root
        # of the same layer bound
        layer = constant_weight_bound(n)
        reports.append(_report("layer-count", {"n": n}, exact=layer))
        reports.append(_report("family-count", {"n": n}, exact=(n + 1) * layer))
        if n >= 1:
            root = math.exp(math.log(layer) / n)
            reports.append(_report("layer-count-root", {"n": n}, value=root))
    if D is not None:
        reports.append(mod_growth_rate(D))
        if n is not None:
            reports.append(
                _report("mod-slice-count", {"n": n, "D": D}, exact=mod_count_bound(n, D))
            )
    if n is not None:
        reports.extend(capset_capacity_reduction(n, C))
    reports.extend(capacities_summary(C))
    return reports
