"""Exact integer bounds on ah(k, n) and the best-known-bounds table.

Strict inequalities are stored inclusively (lower bounds get +1 at
ingestion) and all arithmetic uses Python integers, so every number here
is exact.  Each table entry carries a provenance tag naming the formula
that produced it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass


class BoundsError(ValueError):
    """A formula was asked outside its hypothesis."""


KNOWN_VALUE = "known-value"
LAYER_RECURSION = "layer-recursion"
POWER_CONSTRUCTION = "power-construction"


@dataclass(frozen=True)
class KnownValue:
    k: int
    n: int
    lower: int
    upper: int
    source: str = KNOWN_VALUE

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise BoundsError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class BoundsRow:
    n: int
    lower: int
    upper: int
    lower_source: str
    upper_source: str


@dataclass(frozen=True)
class BoundsReport:
    k: int
    rows: tuple[BoundsRow, ...]


def known_value(k: int, n: int) -> KnownValue | None:
    """Exact values and the one known interval, from the literature."""
    if n == 1:
        return KnownValue(k, 1, k, k)
    if k == 2:
        return KnownValue(2, n, 2, 2)
    if k == 3:
        if n == 2:
            return KnownValue(3, 2, 5, 5)
        if n == 3:
            return KnownValue(3, 3, 11, 11)
        if n == 4:
            return KnownValue(3, 4, 24, 27)
    return None


def layer_recursion_bounds(k: int, prev: tuple[int, int]) -> tuple[int, int]:
    """One dimension up from bounds on ah(k, n-1).

    Stacking k-2 disjoint copies of a maximum coloring plus one capped
    color gives the lower bound; the upper comes from the layer census.
    Both sides are inclusive (the strict lower bound gains +1).
    """
    if k < 3:
        raise BoundsError("layer recursion needs k >= 3")
    lo, hi = prev
    if lo > hi:
        raise BoundsError("invalid input interval")
    return (k - 2) * lo - k + 3 + 1, k * hi - k - 1


def power_lower(k: int, n: int) -> int:
    """Inclusive lower bound (k-1)^n + 1, from the digit-position coloring."""
    if k < 3:
        raise BoundsError("power lower bound needs k >= 3")
    return (k - 1) ** n + 1


def geometric_upper(k: int, n: int) -> int:
    """Upper bound k^n - k^(n-1) - 2*sum(k^i, i=1..n-2) - 1; n = 1 gives k.

    The integer summation form; the equivalent fractional closed form is
    exercised only in tests, via the iterated-recursion identity.
    """
    if k < 3:
        raise BoundsError("geometric upper bound needs k >= 3")
    if n < 1:
        raise BoundsError("dimension must be >= 1")
    if n == 1:
        return k
    return k**n - k ** (n - 1) - 2 * sum(k**i for i in range(1, n - 1)) - 1


def iterated_upper(k: int, m: int, a_m: int, n: int) -> int:
    """Iterate u <- k*u - k - 1 exactly (n - m) times from a_m.

    Propagates an upper bound at dimension m up to dimension n.
    """
    if m < 1 or n < m:
        raise BoundsError("need n >= m >= 1")
    u = a_m
    for _ in range(n - m):
        u = k * u - k - 1
    return u


def refined_upper_3(n: int) -> int:
    """The sharpened k = 3 upper bound 3^(n-1) - 2*3^(n-4) + 2 for n > 4;
    n = 4 returns its base case 27."""
    if n < 4:
        raise BoundsError("refined upper bound needs n >= 4")
    if n == 4:
        return 27
    return 3 ** (n - 1) - 2 * 3 ** (n - 4) + 2


def bounds_table(k: int, n_max: int) -> BoundsReport:
    """Best lower and upper bounds per dimension, tagged with provenance.

    Takes the max over lower-bound formulas and the min over upper-bound
    formulas, seeded by known values; candidate order breaks ties.

    The upper candidates are the known value and the layer recursion from
    the previous row.  `geometric_upper` and `refined_upper_3` are the same
    recursion run from (1, k) and (4, 27).  The recursion is increasing,
    and each row it starts from here is at least as tight as those, so
    they could only tie it and are not candidates.

    A table that Python could not print is refused, by a BoundsError at
    the first row whose upper bound has more decimal digits than
    `sys.get_int_max_str_digits()` (0, or a Python before 3.10.7: no
    limit), before any later row is built.  No bound of a row exceeds its
    upper bound, so every bound of a table returned can be printed.
    """
    if k < 2:
        raise BoundsError("alphabet size must be >= 2")
    if n_max < 1:
        raise BoundsError("n_max must be >= 1")
    max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    ceiling = 10**max_digits if max_digits > 0 else None
    rows: list[BoundsRow] = []
    prev: tuple[int, int] | None = None
    for n in range(1, n_max + 1):
        lowers: list[tuple[int, str]] = []
        uppers: list[tuple[int, str]] = []
        known = known_value(k, n)
        if known is not None:
            lowers.append((known.lower, known.source))
            uppers.append((known.upper, known.source))
        if k >= 3:
            if prev is not None:
                rec_lo, rec_hi = layer_recursion_bounds(k, prev)
                lowers.append((rec_lo, LAYER_RECURSION))
                uppers.append((rec_hi, LAYER_RECURSION))
            lowers.append((power_lower(k, n), POWER_CONSTRUCTION))
        best_lo = max(lowers, key=lambda it: it[0])
        best_hi = min(uppers, key=lambda it: it[0])
        if best_lo[0] > best_hi[0]:
            raise BoundsError(f"inconsistent bounds at n={n}")
        if ceiling is not None and best_hi[0] >= ceiling:
            raise BoundsError(
                f"a bound is too long to print: the upper bound at n={n} "
                f"has more than {max_digits} digits"
            )
        rows.append(BoundsRow(n, best_lo[0], best_hi[0], best_lo[1], best_hi[1]))
        prev = (best_lo[0], best_hi[0])
    return BoundsReport(k, tuple(rows))
