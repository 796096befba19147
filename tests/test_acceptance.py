"""Acceptance suite: one test per release criterion, each printing its
own PASS line with the measured quantity next to its bound."""
import math
from fractions import Fraction

import numpy as np
import pytest

from electra import fixtures
from electra.conditions import check_mean_increment, check_monotone, run_condition_checks
from electra.engine import (
    InitConvention,
    compute_phase_table,
    ending_state_probs,
)
from electra.franklin import (
    RingVariant,
    SimConfig,
    closed_form_c2,
    estimate_c2,
    exhaustive_second_round,
    run_election,
)
from electra.metrics import (
    IntegerLaw,
    dtv,
    dw,
    fair_coin_limit_cdf,
    fair_coin_phi,
    law_from_phase,
    periodicity_reconstruct,
    periodicity_samples,
    toy_phi,
)
from electra.models import (
    BiasedCoin,
    DeterministicHalving,
    FairCoin,
    PeakSurvivors,
    PeakVariant,
    ToyHalving,
    peak_circular,
    peak_linear_i,
)
from electra.peaks import brute_force_peaks


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_table_fidelity(linear_500, circular_500):
    pl = peak_linear_i()
    for (n, k), v in fixtures.as_fractions(fixtures.PEAK_LINEAR_I).items():
        assert pl.pmf_exact(n).get(k, 0) == v
    pc = peak_circular()
    for (n, k), v in fixtures.as_fractions(fixtures.PEAK_CIRCULAR).items():
        assert pc.pmf_exact(n).get(k, 0) == v
    for (n, j), v in fixtures.as_fractions(fixtures.PHASE_LINEAR_I_STANDARD).items():
        assert linear_500.exact_prob(n, j) == v
    alt = compute_phase_table(peak_linear_i(), 5, init=InitConvention.ALT_COST)
    reference = fixtures.as_fractions(fixtures.PHASE_LINEAR_I_ALTCOST)
    for n in range(6):
        for j in range(alt.j_max + 1):
            assert alt.exact_prob(n, j) == reference.get((n, j), Fraction(0))
    for (n, j), v in fixtures.as_fractions(fixtures.PHASE_CIRCULAR_STANDARD).items():
        assert circular_500.exact_prob(n, j) == v
    _report(1, "all five published tables reproduced with exact rational equality")


def test_criterion_2_oracle_equivalence():
    for variant in PeakVariant:
        model = PeakSurvivors(variant)
        for n in range(1, 9):
            assert model.pmf_exact(n) == brute_force_peaks(variant, n)
    _report(2, "recurrence equals enumeration for all variants, n <= 8")


def test_criterion_3_toy_closed_forms(toy_1024):
    for n in range(1, 1025):
        i = n.bit_length() - 1
        for j in range(toy_1024.j_max + 1):
            lam = Fraction(float(toy_1024.cdf(n, j)))  # dyadic floats lift exactly
            if j < i:
                want = Fraction(0)
            elif j > i or n == 2**i:
                want = Fraction(1)
            else:
                want = 2 - Fraction(n, 2**j)
            assert lam == want
    for n in range(2, 1025):
        i = n.bit_length() - 1
        assert Fraction(float(toy_1024.mean(n))) == i - 1 + Fraction(n, 2**i)
    ending = ending_state_probs(ToyHalving(), 1024, 3)
    for n in range(2, 1025):
        i = n.bit_length() - 1
        assert Fraction(ending.prob(n, 2)) == abs(Fraction(n, 2 ** (i - 1)) - 3)
    _report(3, "cdf collapse, mean residual, and threshold-3 ending "
               "probabilities all exact for n <= 1024")


def test_criterion_4_fair_coin_limit(fair_4096):
    sups = []
    for e in (8, 9, 10, 11, 12):
        n = 2**e
        ln = math.log2(n)
        sup = max(
            abs(fair_4096.cdf(n, j) - fair_coin_limit_cdf(j - ln))
            for j in range(fair_4096.j_max + 1)
        )
        sups.append(sup)
    assert sups == sorted(sups, reverse=True)
    assert sups[-1] < 0.01
    _report(4, f"sup gaps {['%.2e' % s for s in sups]} decrease; "
               f"final {sups[-1]:.2e} < 0.01")


def test_criterion_5_mean_residual_formula(fair_4096):
    worst = 0.0
    for e in (10, 11, 12):
        n = 2**e
        gap = abs(fair_4096.mean(n) - math.log2(n) - fair_coin_phi(float(n), terms=20))
        worst = max(worst, gap)
    assert worst < 5e-3
    _report(5, f"engine residual matches the analytic series, worst gap {worst:.2e} < 5e-3")


def test_criterion_6_condition_dichotomy():
    assert run_condition_checks(FairCoin(), 200, Fraction(1, 2)).passed
    assert run_condition_checks(peak_linear_i(), 200, Fraction(1, 3)).passed
    assert run_condition_checks(peak_circular(), 200, Fraction(1, 3)).passed
    det = check_mean_increment(DeterministicHalving(), 200, Fraction(1, 2))
    assert not det.passed
    biased = check_monotone(BiasedCoin(Fraction(3, 10)), 200)
    assert not biased.passed
    witness = biased.violations[0]
    assert (witness.n, witness.k) == (2, 1)
    _report(6, "fair coin and both peak games pass; deterministic halving fails "
               f"increments; p=0.3 fails monotonicity at (n={witness.n}, k={witness.k})")


def test_criterion_7_periodicity_pipeline(toy_1024, linear_500):
    samples = periodicity_samples(toy_1024, 0.5, 50, 500)
    fit = periodicity_reconstruct(samples, fourier_terms=5)
    grid = np.linspace(0.0, 1.0, 512)
    toy_gap = float(
        np.abs(fit.reconstruction(grid) - np.array([toy_phi(x) for x in grid])).max()
    )
    assert toy_gap < 0.01

    samples_l = periodicity_samples(linear_500, 1.0 / 3.0, 50, 500)
    fit_l = periodicity_reconstruct(samples_l, fourier_terms=5)
    base = math.log(3.0)
    residual = max(
        abs(
            (linear_500.mean(n) - math.log(n) / base)
            - fit_l.reconstruction((math.log(n) / base) % 1.0)
        )
        for n in range(50, 501)
    )
    assert residual < 0.016  # frozen: measured 0.0141 on this protocol
    _report(7, f"toy oracle sup gap {toy_gap:.4f} < 0.01; "
               f"linear residual {residual:.4f} < 0.016")


def test_criterion_8_franklin_constants():
    assert abs(closed_form_c2() - fixtures.C2_DECIMAL) < 1e-9
    assert exhaustive_second_round() == fixtures.SECOND_ROUND_CONDITIONAL
    est = estimate_c2(10_000, 10_000, seed=20260810)
    sigmas = est.sigmas_from(closed_form_c2())
    assert sigmas < 4.0
    below = (1.0 / 9.0 - est.point) / est.stderr
    assert below > 4.0
    _report(8, f"closed form exact; 8-ring conditional exactly 10/34; Monte Carlo "
               f"{sigmas:.2f} sigmas from c2 and {below:.0f} sigmas below 1/9")


@pytest.mark.parametrize("n", [20, 100])
def test_criterion_9_simulation_consistency(n):
    trials = 1_000_000
    config = SimConfig(RingVariant.REDRAW_CIRCULAR, n, trials, seed=99 + n,
                       record_traces=False)
    records = run_election(config)
    empirical = IntegerLaw.from_dict(
        {j: c / trials for j, c in records.round_histogram().items()}
    )
    table = compute_phase_table(peak_circular(), n)
    gap = dtv(empirical, law_from_phase(table, n))
    assert gap < 0.005
    _report(9, f"n={n}: empirical-vs-exact total variation {gap:.5f} < 0.005")


def test_criterion_10_metric_laws():
    rng = np.random.default_rng(20260810)
    for _ in range(1000):
        laws = []
        for _ in range(2):
            width = int(rng.integers(1, 9))
            probs = rng.random(width) + 1e-3
            probs /= probs.sum()
            laws.append(IntegerLaw(offset=int(rng.integers(-5, 5)), probs=probs))
        a, b = laws
        assert 0.0 <= dtv(a, b) <= dw(a, b) + 1e-12
        assert abs(dtv(a, b) - dtv(b, a)) < 1e-12
        assert dtv(a, a) == 0.0 and dw(b, b) == 0.0
        assert abs(dw(a, a.shift(1)) - 1.0) < 1e-12
    _report(10, "dtv <= dw, symmetry, identity, and unit-shift dw = 1 "
                "over 1000 randomized law pairs")
