import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from electra import fixtures
from electra.models import PeakSurvivors, _peak_counts, _peak_rows
from electra.peaks import PeakVariant, brute_force_peaks, count_peaks, peak_moments

ALL_VARIANTS = list(PeakVariant)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_recurrence_matches_enumeration(variant):
    model = PeakSurvivors(variant)
    for n in range(1, 9):
        assert model.pmf_exact(n) == brute_force_peaks(variant, n)


def _prob(model, n, k):
    return model.pmf_exact(n).get(k, Fraction(0))


def test_published_linear_rows():
    model = PeakSurvivors(PeakVariant.LINEAR_I)
    for (n, k), value in fixtures.as_fractions(fixtures.PEAK_LINEAR_I).items():
        assert _prob(model, n, k) == value
    assert _prob(model, 2, 0) == 1  # no interior peak with two players


def test_published_circular_rows():
    model = PeakSurvivors(PeakVariant.CIRCULAR)
    for (n, k), value in fixtures.as_fractions(fixtures.PEAK_CIRCULAR).items():
        assert _prob(model, n, k) == value


def test_linear_ii_row5_frozen():
    # frozen from enumerating all 120 orderings
    assert brute_force_peaks(PeakVariant.LINEAR_II, 5) == {
        1: Fraction(2, 15),
        2: Fraction(11, 15),
        3: Fraction(2, 15),
    }


def test_brute_force_examples():
    assert brute_force_peaks(PeakVariant.LINEAR_I, 4) == {
        0: Fraction(1, 3),
        1: Fraction(2, 3),
    }
    assert brute_force_peaks(PeakVariant.LINEAR_I, 1) == {0: Fraction(1)}
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
    model = PeakSurvivors(variant)
    for n in range(1, 31):
        row = model.pmf_exact(n)
        assert sum(row.values()) == 1
        assert all(0 <= p <= 1 for p in row.values())
        lo, hi = {
            PeakVariant.LINEAR_I: (0, (n - 1) // 2),
            PeakVariant.CIRCULAR: (1, max(n // 2, 1)),
            PeakVariant.LINEAR_II: (1, (n + 1) // 2),
        }[variant]
        assert min(row) >= lo
        assert max(row) <= hi


def test_circular_linear_identity():
    lin = PeakSurvivors(PeakVariant.LINEAR_I)
    circ = PeakSurvivors(PeakVariant.CIRCULAR)
    for n in range(2, 41):
        for k in range(1, max(circ.pmf_exact(n)) + 1):
            assert _prob(circ, n, k) == _prob(lin, n - 1, k - 1)
    # a circular arrangement always has a peak
    for n in range(1, 41):
        assert _prob(circ, n, 0) == 0


def _mean_variance(model, n):
    row = model.pmf_exact(n)
    mean = sum(k * p for k, p in row.items())
    return mean, sum((k - mean) ** 2 * p for k, p in row.items())


def test_moment_formulas_against_exact_rows():
    for variant, lo in [
        (PeakVariant.LINEAR_I, 4),
        (PeakVariant.CIRCULAR, 5),
        (PeakVariant.LINEAR_II, 4),
    ]:
        model = PeakSurvivors(variant)
        for n in range(lo, 26):
            moments = peak_moments(variant, n)
            assert _mean_variance(model, n) == (moments.mean, moments.variance)


def test_moment_examples():
    m = peak_moments(PeakVariant.LINEAR_I, 7)
    assert (m.mean, m.variance) == (Fraction(5, 3), Fraction(16, 45))
    m3 = peak_moments(PeakVariant.CIRCULAR, 3)
    assert m3.mean == 1 and m3.variance is None
    m20 = peak_moments(PeakVariant.LINEAR_I, 20)
    assert _mean_variance(PeakSurvivors(PeakVariant.LINEAR_I), 20) == (m20.mean, m20.variance)
    with pytest.raises(ValueError):
        peak_moments(PeakVariant.LINEAR_I, 1)
    with pytest.raises(ValueError):
        peak_moments(PeakVariant.CIRCULAR, 2)


def test_build_guards():
    for variant in ALL_VARIANTS:
        model = PeakSurvivors(variant)
        with pytest.raises(ValueError):
            model.exact_row(0)
        lo, nums, den = model.exact_row(130)  # exact rows have no cap
        assert sum(nums) == den


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_float_rows_match_rational_rows(variant):
    exact_model = PeakSurvivors(variant, exact_cutoff=150)
    model = PeakSurvivors(variant, exact_cutoff=0)  # recurrence rows at every n
    for n in range(1, 151):
        exact = {k: float(p) for k, p in exact_model.pmf_exact(n).items()}
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
    # each round grows a fresh cache from four threads asking out of order;
    # the float rows and the integer counts share the step and the cache
    for build, top in ((_peak_rows, 1500), (_peak_counts, 300)):
        _hammer(build, list(range(1, top, 7)))


def _same_row(got, want) -> bool:
    if isinstance(want[-1], np.ndarray):  # (first k, masses)
        return got[0] == want[0] and np.array_equal(got[1], want[1])
    return got == want  # a tuple of counts


def _hammer(build, sizes):
    reference = build()
    expected = {n: reference(n) for n in sizes}
    rng = np.random.default_rng(5)
    rounds = 0
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline and rounds < 20:
            rows = build()
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
                for n, want in expected.items():
                    assert _same_row(got[n], want), n
            rounds += 1
    finally:
        sys.setswitchinterval(switch)
    assert rounds >= 1
