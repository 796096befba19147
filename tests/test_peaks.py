import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from electra import fixtures
from electra.models import PeakSurvivors, _peak_rows
from electra.peaks import (
    DEFAULT_EXACT_CAP,
    PeakVariant,
    RationalDist,
    brute_force_peaks,
    build_peak_table,
    count_peaks,
    peak_moments,
)

ALL_VARIANTS = list(PeakVariant)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_recurrence_matches_enumeration(variant):
    table = build_peak_table(variant, 8)
    for n in range(1, 9):
        assert table.row(n).probs == brute_force_peaks(variant, n).probs


def test_published_linear_rows():
    table = build_peak_table(PeakVariant.LINEAR_I, 7)
    for (n, k), value in fixtures.as_fractions(fixtures.PEAK_LINEAR_I).items():
        assert table.prob(n, k) == value
    assert table.prob(2, 0) == 1  # no interior peak with two players


def test_published_circular_rows():
    table = build_peak_table(PeakVariant.CIRCULAR, 7)
    for (n, k), value in fixtures.as_fractions(fixtures.PEAK_CIRCULAR).items():
        assert table.prob(n, k) == value


def test_linear_ii_row5_frozen():
    # frozen from enumerating all 120 orderings
    dist = brute_force_peaks(PeakVariant.LINEAR_II, 5)
    assert dist.probs == {
        1: Fraction(2, 15),
        2: Fraction(11, 15),
        3: Fraction(2, 15),
    }


def test_brute_force_examples():
    assert brute_force_peaks(PeakVariant.LINEAR_I, 4).probs == {
        0: Fraction(1, 3),
        1: Fraction(2, 3),
    }
    assert brute_force_peaks(PeakVariant.LINEAR_I, 1).probs == {0: Fraction(1)}
    with pytest.raises(ValueError):
        brute_force_peaks(PeakVariant.LINEAR_I, 11)


def test_count_peaks_boundary_rules():
    assert count_peaks((1, 3, 2), PeakVariant.LINEAR_I) == 1
    assert count_peaks((3, 1, 2), PeakVariant.LINEAR_II) == 2
    assert count_peaks((3, 1, 2), PeakVariant.CIRCULAR) == 1
    assert count_peaks((1,), PeakVariant.CIRCULAR) == 1
    assert count_peaks((1,), PeakVariant.LINEAR_II) == 1
    assert count_peaks((1,), PeakVariant.LINEAR_I) == 0


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_rows_are_distributions(variant):
    table = build_peak_table(variant, 30)
    for n in range(1, 31):
        row = table.row(n)
        assert row.total() == 1
        assert all(0 <= p <= 1 for p in row.probs.values())
        lo, hi = {
            PeakVariant.LINEAR_I: (0, (n - 1) // 2),
            PeakVariant.CIRCULAR: (1, max(n // 2, 1)),
            PeakVariant.LINEAR_II: (1, (n + 1) // 2),
        }[variant]
        assert min(row.support()) >= lo
        assert max(row.support()) <= hi


def test_circular_linear_identity():
    lin = build_peak_table(PeakVariant.LINEAR_I, 39)
    circ = build_peak_table(PeakVariant.CIRCULAR, 40)
    for n in range(2, 41):
        for k in range(1, circ.k_max(n) + 1):
            assert circ.prob(n, k) == lin.prob(n - 1, k - 1)
    # a circular arrangement always has a peak
    for n in range(1, 41):
        assert circ.prob(n, 0) == 0


def test_moment_formulas_against_exact_rows():
    for variant, lo in [
        (PeakVariant.LINEAR_I, 4),
        (PeakVariant.CIRCULAR, 5),
        (PeakVariant.LINEAR_II, 4),
    ]:
        table = build_peak_table(variant, 25)
        for n in range(lo, 26):
            moments = peak_moments(variant, n)
            assert table.mean(n) == moments.mean
            assert table.variance(n) == moments.variance


def test_moment_examples():
    m = peak_moments(PeakVariant.LINEAR_I, 7)
    assert (m.mean, m.variance) == (Fraction(5, 3), Fraction(16, 45))
    m3 = peak_moments(PeakVariant.CIRCULAR, 3)
    assert m3.mean == 1 and m3.variance is None
    table = build_peak_table(PeakVariant.LINEAR_I, 20)
    m20 = peak_moments(PeakVariant.LINEAR_I, 20)
    assert table.mean(20) == m20.mean
    assert table.variance(20) == m20.variance
    with pytest.raises(ValueError):
        peak_moments(PeakVariant.LINEAR_I, 1)
    with pytest.raises(ValueError):
        peak_moments(PeakVariant.CIRCULAR, 2)


def test_build_guards():
    with pytest.raises(ValueError):
        build_peak_table(PeakVariant.LINEAR_I, 0)
    with pytest.raises(ValueError):
        build_peak_table(PeakVariant.LINEAR_I, 121)
    big = build_peak_table(PeakVariant.LINEAR_I, 130, cap=130)
    assert big.row(130).total() == 1


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_float_rows_match_rational_rows(variant):
    model = PeakSurvivors(variant, exact_cutoff=0)  # recurrence rows at every n
    table = build_peak_table(variant, DEFAULT_EXACT_CAP)
    for n in range(1, DEFAULT_EXACT_CAP + 1):
        exact = table.row(n).as_floats()
        floats = model.pmf_float(n)
        assert set(floats) <= set(exact)
        gap = max(abs(floats.get(k, 0.0) - p) for k, p in exact.items())
        assert gap <= 2e-15, (n, gap)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("n", [200, 1000, 2000])
def test_float_rows_match_moment_formulas(variant, n):
    row = PeakSurvivors(variant).pmf_float(n)
    ks = np.array(list(row), dtype=float)
    ps = np.array(list(row.values()))
    mean = float(ks @ ps)
    moments = peak_moments(variant, n)
    assert abs(ps.sum() - 1.0) <= 1e-12
    assert abs(mean / float(moments.mean) - 1.0) <= 1e-12
    variance = float((ks - mean) ** 2 @ ps)
    assert abs(variance / float(moments.variance) - 1.0) <= 1e-11


def test_float_rows_agree_across_threads():
    # each round grows a fresh cache from four threads asking out of order
    sizes = list(range(1, 1500, 7))
    reference = _peak_rows()
    expected = {n: reference(n) for n in sizes}
    rng = np.random.default_rng(5)
    rounds = 0
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and rounds < 20:
            rows = _peak_rows()
            results = []

            def ask(order):
                results.append({n: rows(n) for n in order})

            threads = [
                threading.Thread(target=ask, args=(rng.permutation(sizes).tolist(),))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert len(results) == 4
            for got in results:
                for n, (lo, probs) in expected.items():
                    assert got[n][0] == lo and np.array_equal(got[n][1], probs), n
            rounds += 1
    finally:
        sys.setswitchinterval(switch)
    assert rounds >= 1


def test_rational_dist_helpers():
    dist = RationalDist({0: Fraction(1, 3), 1: Fraction(2, 3)})
    assert dist.mean() == Fraction(2, 3)
    assert dist.cdf(0) == Fraction(1, 3)
    assert dist.variance() == Fraction(2, 9)
    assert dist.support() == [0, 1]
