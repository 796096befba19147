"""Peak-count distributions of random permutations.

Three boundary conventions are supported.  A position is a peak when its
value exceeds both neighbours; the variants differ in how the sequence
ends are treated (wrap around, sentinel +inf, or sentinel -inf).

Every variant's law is the interior-peak (linear-I) law shifted by one
player or one peak.  :func:`interior_peak_step` grows that law one n at a
time: on Python-int counts over n!, so every probability is an exact
rational at any n, and on probabilities, which carries every row to
rounding.  :func:`brute_force_peaks` enumerates permutations as an oracle.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

#: brute-force enumeration walks all n! permutations
BRUTE_FORCE_LIMIT = 10


class PeakVariant(str, Enum):
    """Boundary convention used when counting peaks."""

    LINEAR_I = "linear-i"  # ends never peaks (sentinels +inf); zero peaks possible
    LINEAR_II = "linear-ii"  # an end is a peak when above its one neighbour
    CIRCULAR = "circular"  # indices wrap; at least one peak always exists


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


def brute_force_peaks(variant: PeakVariant, n: int) -> dict[int, Fraction]:
    """Exact peak-count distribution ``{k: P(k peaks)}`` by enumerating all
    n! permutations.

    Independent oracle for the recurrence rows; rejects n above
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
    return {k: Fraction(c, total) for k, c in sorted(counts.items())}


def interior_peak_step(prev: np.ndarray, n: int) -> np.ndarray:
    """Row n of W(n, k), the permutations of n symbols with k interior peaks,
    from row n - 1 (n >= 2): W(n,k) = (2k+2) W(n-1,k) + (n-2k) W(n-1,k-1),
    W(1,0) = 1, on k = 0..floor((n-1)/2).

    On an object array of Python ints it gives the exact counts.  Divided
    by n it gives the probabilities W(n, k) / n! from the previous row's;
    every term is non-negative, so floats carry it to rounding however far
    it runs.  The tests check it against the brute-force enumerator.
    """
    k = np.arange((n - 1) // 2 + 1)
    row = np.zeros(len(k), dtype=prev.dtype)
    row[: len(prev)] = (2 * k[: len(prev)] + 2) * prev
    row[1:] += (n - 2 * k[1:]) * prev[: len(k) - 1]
    return row


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
