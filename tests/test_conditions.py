from fractions import Fraction

import numpy as np
import pytest

from electra.conditions import (
    MONOTONE_TOL,
    check_concentration,
    check_mean_increment,
    check_moment,
    check_monotone,
    run_condition_checks,
)
from electra.models import (
    BiasedCoin,
    DeterministicHalving,
    FairCoin,
    ToyHalving,
    peak_circular,
    peak_linear_i,
)


def test_fair_coin_passes_everything():
    report = run_condition_checks(FairCoin(), 200, Fraction(1, 2))
    assert report.passed
    assert report.monotone.violations == []


def test_toy_monotone_empty():
    assert check_monotone(ToyHalving(), 100).passed


def test_biased_coin_monotone_fails_below_half():
    check = check_monotone(BiasedCoin(Fraction(3, 10)), 50)
    assert not check.passed
    first = check.violations[0]
    # gap at (n=2, k=1) is p*(q^2 - 2pq) = 0.3*(0.49-0.42), exactly 0.021
    assert (first.n, first.k) == (2, 1)
    assert abs(first.gap - 0.021) < 1e-12
    # above 1/2 the bias keeps monotonicity
    assert check_monotone(BiasedCoin(Fraction(7, 10)), 50).passed


def test_fail_safe_coin_monotone_for_all_p():
    # replacing the all-tails rescue by max(heads, 1) restores monotonicity
    # below p = 1/2, where the rescue variant loses it
    from electra.models import CoinMaxOne

    for p in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
        assert check_monotone(CoinMaxOne(p), 80).passed


def test_fair_coin_increments():
    check = check_mean_increment(FairCoin(), 500, Fraction(1, 2))
    # |d_n - 1/2| = (n-1) 2^{-n-1} exactly
    for n in (3, 10, 20):
        assert abs(check.deviations[n - 1] - (n - 1) * 2.0 ** (-n - 1)) < 1e-15
    assert check.max_deviation < 1e-6
    assert check.passed


def test_deterministic_halving_fails_increments():
    check = check_mean_increment(DeterministicHalving(), 100, Fraction(1, 2))
    assert not check.passed
    # increments alternate between 0 and 1
    tail = check.increments[2:]
    assert set(np.round(tail, 12)) == {0.0, 1.0}


def test_peak_increments_exact():
    check = check_mean_increment(peak_circular(), 100, Fraction(1, 3))
    assert np.all(check.deviations[2:74] == 0.0)
    assert check.passed
    check_l = check_mean_increment(peak_linear_i(), 100, Fraction(1, 3))
    assert np.all(check_l.deviations[1:74] == 0.0)


def test_toy_concentration_vanishes():
    check = check_concentration(ToyHalving(), 500, Fraction(1, 2))
    assert np.all(check.series == 0.0)
    assert np.all(check.series[16:] == 0.0)  # in particular for n >= 17
    assert check.passed


def test_fair_coin_concentration_bounded():
    check = check_concentration(FairCoin(), 500, Fraction(1, 2))
    assert check.passed
    # decreasing beyond the early hump
    peak_at = int(np.argmax(check.series))
    assert peak_at < 60
    assert check.series[-1] < check.series[peak_at]


def test_moment_ratios():
    toy = check_moment(ToyHalving(), 100, Fraction(1, 2), 2)
    # support width 1/2 around the mean: ratio <= 1/(4n)
    for n in range(2, 101):
        assert toy.ratios[n - 1] <= 1.0 / (4 * n) + 1e-15
    fair = check_moment(FairCoin(), 300, Fraction(1, 2), 6)
    assert fair.passed
    circ = check_moment(peak_circular(), 120, Fraction(1, 3), 6)
    assert circ.passed
    with pytest.raises(ValueError):
        check_moment(FairCoin(), 10, Fraction(1, 2), 3)


def test_reports_are_reproducible():
    a = run_condition_checks(peak_linear_i(), 60, Fraction(1, 3))
    b = run_condition_checks(peak_linear_i(), 60, Fraction(1, 3))
    assert np.array_equal(a.increment.increments, b.increment.increments)
    assert np.array_equal(a.concentration.series, b.concentration.series)
    assert np.array_equal(a.moment.ratios, b.moment.ratios)
    assert a.summary() == b.summary()


def test_short_scan_is_inconclusive():
    report = run_condition_checks(FairCoin(), 10, Fraction(1, 2))
    assert not report.increment.judged
    assert "increment=INCONCLUSIVE" in report.summary()
    assert not report.passed


def test_missing_alpha_rejected():
    from electra.models import ExplicitMatrix

    model = ExplicitMatrix(rows={2: {1: Fraction(1)}})
    with pytest.raises(ValueError, match="alpha"):
        run_condition_checks(model, 2)


def _reference_monotone(model, n_max):
    """The monotone scan on Fraction (or float) cdfs built from the dict
    rows, each pair within one backend, as a reference for the integer
    prefix sums of ``check_monotone``."""

    def cdf(n, exact):
        pmf = model.pmf_exact(n) if exact else model.pmf_float(n)
        zero = Fraction(0) if exact else 0.0
        out, acc = [], zero
        for k in range(n + 1):
            acc = acc + pmf.get(k, zero)
            out.append(acc)
        return out

    violations = []
    for n in range(1, n_max):
        exact = n + 1 <= model.exact_cutoff
        cur, nxt = cdf(n, exact), cdf(n + 1, exact)
        for k in range(1, n + 1):
            gap = float(nxt[k] - cur[k])
            if gap > MONOTONE_TOL:
                violations.append((n, k, gap))
    return violations


@pytest.mark.parametrize(
    "model, n_max",
    [
        (BiasedCoin(Fraction(3, 10)), 80),
        (peak_linear_i(exact_cutoff=100), 130),
        (BiasedCoin(Fraction(3, 10), exact_cutoff=40), 80),
    ],
    ids=["biased-coin-0.3", "peak-linear-i", "biased-coin-0.3-cap-40"],
)
def test_monotone_matches_fraction_reference(model, n_max):
    # every case crosses the model's exact_cutoff from integer to float rows
    got = [(v.n, v.k, v.gap) for v in check_monotone(model, n_max).violations]
    assert got == _reference_monotone(model, n_max)  # gaps bit for bit
    if model.exact_cutoff == 40:
        assert {n < 40 for n, _, _ in got} == {True, False}  # violations on both sides
    if isinstance(model, BiasedCoin):
        assert len(got) > 382
