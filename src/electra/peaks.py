"""Peak-count distributions of random permutations.

Three boundary conventions are supported.  A position is a peak when its
value exceeds both neighbours; the variants differ in how the sequence
ends are treated (wrap around, sentinel +inf, or sentinel -inf).

Exact distributions are held as arbitrary-precision integer counts over
permutations, so every probability is an exact rational.  The counts grow
like n!, so exact tables stop at a cap.  The floating backend runs the
same recurrence on probabilities instead of counts
(:func:`interior_peak_probs`), which carries every row to rounding at any n.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

#: largest n for which exact rational tables may be built (counts grow with n!)
DEFAULT_EXACT_CAP = 120

#: brute-force enumeration walks all n! permutations
BRUTE_FORCE_LIMIT = 10


class PeakVariant(str, Enum):
    """Boundary convention used when counting peaks."""

    LINEAR_I = "linear-i"  # ends never peaks (sentinels +inf); zero peaks possible
    LINEAR_II = "linear-ii"  # an end is a peak when above its one neighbour
    CIRCULAR = "circular"  # indices wrap; at least one peak always exists


@dataclass(frozen=True)
class RationalDist:
    """Probability distribution over integers with exact rational masses."""

    probs: dict[int, Fraction]

    def total(self) -> Fraction:
        return sum(self.probs.values(), Fraction(0))

    def mean(self) -> Fraction:
        return sum((Fraction(k) * p for k, p in self.probs.items()), Fraction(0))

    def variance(self) -> Fraction:
        m = self.mean()
        return sum(
            ((Fraction(k) - m) ** 2 * p for k, p in self.probs.items()), Fraction(0)
        )

    def cdf(self, k: int) -> Fraction:
        return sum((p for j, p in self.probs.items() if j <= k), Fraction(0))

    def support(self) -> list[int]:
        return sorted(k for k, p in self.probs.items() if p != 0)

    def as_floats(self) -> dict[int, float]:
        return {k: float(p) for k, p in self.probs.items()}


def count_peaks(values: Sequence[int], variant: PeakVariant) -> int:
    """Count peaks of a concrete sequence under the given boundary rule."""
    n = len(values)
    if n == 0:
        raise ValueError("empty sequence has no peak count")
    if variant is PeakVariant.CIRCULAR:
        if n == 1:
            return 1
        return sum(
            1
            for i in range(n)
            if values[i] > values[i - 1] and values[i] > values[(i + 1) % n]
        )
    interior = sum(
        1
        for i in range(1, n - 1)
        if values[i] > values[i - 1] and values[i] > values[i + 1]
    )
    if variant is PeakVariant.LINEAR_I:
        return interior
    # LINEAR_II: ends count when above their single neighbour
    if n == 1:
        return 1
    ends = (1 if values[0] > values[1] else 0) + (1 if values[-1] > values[-2] else 0)
    return interior + ends


def brute_force_peaks(variant: PeakVariant, n: int) -> RationalDist:
    """Exact peak-count distribution by enumerating all n! permutations.

    Independent oracle for the recurrence-built tables; rejects n above
    ``BRUTE_FORCE_LIMIT``.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is limited to n <= {BRUTE_FORCE_LIMIT}, got {n}")
    counts: dict[int, int] = {}
    for perm in itertools.permutations(range(n)):
        k = count_peaks(perm, variant)
        counts[k] = counts.get(k, 0) + 1
    total = math.factorial(n)
    return RationalDist({k: Fraction(c, total) for k, c in sorted(counts.items())})


def _interior_peak_counts(max_n: int) -> list[list[int]]:
    """Counts of permutations of n symbols by number of interior peaks.

    Two-term recurrence W(n,k) = (2k+2) W(n-1,k) + (n-2k) W(n-1,k-1),
    W(1,0) = 1; row n has entries k = 0..floor((n-1)/2).  The tests check
    it against the brute-force enumerator.
    """
    rows: list[list[int]] = [[], [1]]
    for n in range(2, max_n + 1):
        prev = rows[n - 1]
        row = []
        for k in range((n - 1) // 2 + 1):
            c = (2 * k + 2) * prev[k] if k < len(prev) else 0
            if 0 <= k - 1 < len(prev):
                c += (n - 2 * k) * prev[k - 1]
            row.append(c)
        rows.append(row)
    return rows


def interior_peak_probs(prev: np.ndarray, n: int) -> np.ndarray:
    """Row n of p(n, k) = W(n, k) / n! from row n - 1, for n >= 2.

    The counts recurrence divided by n!:
    p(n,k) = ((2k+2) p(n-1,k) + (n-2k) p(n-1,k-1)) / n.  Every term is
    non-negative, so floats carry it to rounding however far it runs.
    """
    k = np.arange((n - 1) // 2 + 1)
    row = np.zeros(len(k))
    row[: len(prev)] = (2 * k[: len(prev)] + 2) * prev
    row[1:] += (n - 2 * k[1:]) * prev[: len(k) - 1]
    return row / n


@dataclass(frozen=True)
class PeakTable:
    """Exact peak-count table: integer counts and derived rational pmf rows.

    ``counts[n][k]`` is the number of permutations of n symbols with
    exactly k peaks; ``counts[n]`` always starts at k = 0 so the column
    index is the peak count itself.
    """

    variant: PeakVariant
    max_n: int
    counts: tuple[tuple[int, ...], ...]

    def count(self, n: int, k: int) -> int:
        self._check_n(n)
        row = self.counts[n]
        return row[k] if 0 <= k < len(row) else 0

    def prob(self, n: int, k: int) -> Fraction:
        return Fraction(self.count(n, k), math.factorial(n))

    def row(self, n: int) -> RationalDist:
        self._check_n(n)
        total = math.factorial(n)
        return RationalDist(
            {
                k: Fraction(c, total)
                for k, c in enumerate(self.counts[n])
                if c != 0
            }
        )

    def k_max(self, n: int) -> int:
        self._check_n(n)
        return len(self.counts[n]) - 1

    def mean(self, n: int) -> Fraction:
        return self.row(n).mean()

    def variance(self, n: int) -> Fraction:
        return self.row(n).variance()

    def _check_n(self, n: int) -> None:
        if not 1 <= n <= self.max_n:
            raise ValueError(f"row {n} outside table range 1..{self.max_n}")


def build_peak_table(
    variant: PeakVariant, max_n: int, *, cap: int = DEFAULT_EXACT_CAP
) -> PeakTable:
    """Build the exact peak-count table for n = 1..max_n.

    The base row counts come from the two-term recurrence for interior
    peaks; the circular table is the base table shifted by one in both n
    and k, and linear-II is the circular table advanced by one player.
    """
    if max_n < 1:
        raise ValueError(f"need max_n >= 1, got {max_n}")
    if max_n > cap:
        raise ValueError(
            f"max_n={max_n} exceeds the exact-table cap {cap}; "
            "use the floating backend for larger n"
        )
    base = _interior_peak_counts(max(max_n + 1, 2))
    if variant is PeakVariant.LINEAR_I:
        rows = [tuple(base[n]) for n in range(max_n + 1)]
        rows[0] = ()
    elif variant is PeakVariant.CIRCULAR:
        # P_C(n, k) = P_L(n-1, k-1): counts scale by n since n! = n * (n-1)!
        rows = [(), (0, 1)]
        for n in range(2, max_n + 1):
            rows.append(tuple([0] + [n * c for c in base[n - 1]]))
        rows = rows[: max_n + 1]
    elif variant is PeakVariant.LINEAR_II:
        # one more player in the ring: counts equal the base row shifted in k
        rows = [()] + [tuple([0] + base[n]) for n in range(1, max_n + 1)]
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown variant {variant!r}")
    return PeakTable(variant=variant, max_n=max_n, counts=tuple(rows))


@dataclass(frozen=True)
class PeakMoments:
    """Closed-form mean and variance of the peak count.

    ``variance`` is None when n is below the formula's validity range.
    """

    mean: Fraction
    variance: Fraction | None


def peak_moments(variant: PeakVariant, n: int) -> PeakMoments:
    """Exact mean/variance formulas per variant.

    linear-I:  mean (n-2)/3 for n >= 2, variance 2(n+1)/45 for n >= 4.
    circular:  mean n/3 for n >= 3, variance 2n/45 for n >= 5.
    linear-II: shifted circular (one extra player), mean (n+1)/3 for n >= 2.
    """
    if variant is PeakVariant.LINEAR_I:
        if n < 2:
            raise ValueError(f"linear-i mean formula needs n >= 2, got {n}")
        mean = Fraction(n - 2, 3)
        var = Fraction(2 * (n + 1), 45) if n >= 4 else None
    elif variant is PeakVariant.CIRCULAR:
        if n < 3:
            raise ValueError(f"circular mean formula needs n >= 3, got {n}")
        mean = Fraction(n, 3)
        var = Fraction(2 * n, 45) if n >= 5 else None
    elif variant is PeakVariant.LINEAR_II:
        if n < 2:
            raise ValueError(f"linear-ii mean formula needs n >= 2, got {n}")
        mean = Fraction(n + 1, 3)
        var = Fraction(2 * (n + 1), 45) if n >= 4 else None
    else:  # pragma: no cover
        raise ValueError(f"unknown variant {variant!r}")
    return PeakMoments(mean=mean, variance=var)
