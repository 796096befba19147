import math

import numpy as np
import pytest

from electra.engine import InitConvention, compute_phase_table
from electra.metrics import (
    IntegerLaw,
    PeriodicitySamples,
    ceil_shift_law,
    dtv,
    dw,
    empirical_limit,
    fair_coin_limit_cdf,
    fair_coin_phi,
    law_from_phase,
    laplace_transform,
    periodicity_reconstruct,
    periodicity_samples,
    toy_closed_forms,
    toy_limit_cdf,
    toy_phi,
)
from electra.models import peak_linear_i


def _random_law(rng, span=9):
    width = rng.integers(1, span)
    probs = rng.random(width) + 1e-3
    probs /= probs.sum()
    return IntegerLaw(offset=int(rng.integers(-5, 5)), probs=probs)


def test_law_validation():
    with pytest.raises(ValueError):
        IntegerLaw(offset=0, probs=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        IntegerLaw(offset=0, probs=np.array([1.5, -0.5]))
    law = IntegerLaw.from_dict({3: 0.25, 5: 0.75})
    assert law.prob(4) == 0.0 and law.cdf(4) == 0.25
    assert law.mean() == 4.5


def test_metric_basics():
    point = IntegerLaw.point_mass(0)
    assert dtv(point, point) == 0.0
    assert dtv(point, IntegerLaw.point_mass(1)) == 1.0
    assert dw(point, point.shift(1)) == 1.0
    assert dw(point, point) == 0.0


def test_metric_axioms_randomized():
    rng = np.random.default_rng(321)
    for _ in range(300):
        a, b, c = (_random_law(rng) for _ in range(3))
        assert dtv(a, b) >= 0 and dw(a, b) >= 0
        assert dtv(a, b) <= dw(a, b) + 1e-12
        assert abs(dtv(a, b) - dtv(b, a)) < 1e-12
        assert abs(dw(a, b) - dw(b, a)) < 1e-12
        assert dtv(a, c) <= dtv(a, b) + dtv(b, c) + 1e-12
        assert dw(a, c) <= dw(a, b) + dw(b, c) + 1e-12


def test_metrics_vanish_iff_equal():
    rng = np.random.default_rng(8)
    law = _random_law(rng, span=6)
    assert dtv(law, law) == 0.0 and dw(law, law) == 0.0
    probs = law.probs.copy()
    if len(probs) == 1:
        probs = np.array([0.5, 0.5])
    probs[0] += 0.01
    probs[-1] -= 0.01
    probs = probs / probs.sum()
    other = IntegerLaw(offset=law.offset, probs=probs)
    assert dtv(law, other) > 1e-4 and dw(law, other) > 1e-4


def test_toy_law_equals_ceiling_law(toy_1024):
    # the toy chain satisfies the limit identity exactly at every n
    for n in (3, 6, 48, 700):
        observed = law_from_phase(toy_1024, n)
        reference = ceil_shift_law(toy_limit_cdf, math.log2(n))
        assert dtv(observed, reference) < 1e-12


def test_fair_coin_dw_trend(fair_4096):
    values = []
    for n in (16, 32, 64, 128):
        gap = dw(law_from_phase(fair_4096, n), law_from_phase(fair_4096, n + 1))
        assert gap > 0
        values.append((n, gap))
    gaps = [g for _, g in values]
    assert gaps == sorted(gaps, reverse=True)
    # one-step distance scales like 1/n: frozen ceiling just above 1/log 2
    assert all(n * g < 1.5 for n, g in values)


def test_toy_scatter_collapses_exactly(toy_1024):
    scatter = empirical_limit(toy_1024, 0.5, 4, 512)
    assert scatter.collapse_spread() == 0.0
    assert scatter.monotone_violations() == 0
    assert scatter.sup_gap_to(toy_limit_cdf) < 1e-12


def test_fair_scatter_collapses_to_limit(fair_4096):
    scatter = empirical_limit(fair_4096, 0.5, 256, 4096)
    assert scatter.sup_gap_to(fair_coin_limit_cdf) < 0.01
    assert scatter.collapse_spread() < 1e-12


@pytest.fixture(scope="module")
def altcost_500():
    return compute_phase_table(peak_linear_i(), 500, init=InitConvention.ALT_COST)


def test_altcost_limit_is_not_monotone(altcost_500):
    scatter = empirical_limit(altcost_500, 1.0 / 3.0, 5, 500)
    assert scatter.monotone_violations() > 0
    assert scatter.collapse_spread() > 0.02  # measured 0.050 over n = 5..500


# Per-point loop forms of the metrics array passes: the oracle they must equal exactly.


def _reference_empirical_limit(table, alpha, n_lo, n_hi, drop_tail=1e-12):
    base = math.log(1.0 / alpha)
    xs, ys, ns, js = [], [], [], []
    for n in range(max(n_lo, 1), n_hi + 1):
        ln = math.log(n) / base
        cum = table.cdf_row(n)
        for j in range(table.j_max + 1):
            y = float(cum[j])
            saturated = j > 0 and cum[j - 1] > 1.0 - drop_tail
            if y < drop_tail or saturated:
                continue
            xs.append(j - ln)
            ys.append(y)
            ns.append(n)
            js.append(j)
    order = np.argsort(xs, kind="stable")
    return [np.asarray(v)[order] for v in (xs, ys, ns, js)]


def _reference_periodicity_samples(table, alpha, n_lo, n_hi):
    base = math.log(1.0 / alpha)
    pool = {}
    for n in range(max(n_lo, 1), n_hi + 1):
        ln = math.log(n) / base
        row = table.row(n)
        for j in range(table.j_max + 1):
            mass = float(row[j])
            if mass > 0.0:
                pool.setdefault(j - ln, []).append(mass)
    ys = np.array(sorted(pool))
    return ys, np.array([sum(pool[y]) / len(pool[y]) for y in ys])


def _reference_collapse_spread(xs, ys, ns, window=0.05):
    keep = ns >= (ns.min() + ns.max()) / 2.0
    xs, ys = xs[keep], ys[keep]
    worst = 0.0
    start = 0
    for i in range(len(xs)):
        while xs[start] < xs[i] - window:
            start += 1
        ahead = ys[start:i]
        if len(ahead):
            worst = max(worst, float(ahead.max() - ys[i]))
    return worst


def _reference_monotone_violations(xs, ys, window=0.05, tol=1e-9):
    count = 0
    start = 0
    for i in range(len(xs)):
        while xs[start] < xs[i] - window:
            start += 1
        count += int(np.sum(ys[start:i] > ys[i] + tol))
    return count


def _reference_sup_gap(xs, ys, cdf):
    return float(np.abs(ys - np.array([cdf(x) for x in xs])).max())


@pytest.mark.parametrize(
    "fixture, alpha, n_lo, n_hi, cdf",
    [
        ("toy_1024", 0.5, 4, 512, toy_limit_cdf),  # exact collapse
        ("fair_4096", 0.5, 256, 4096, fair_coin_limit_cdf),  # tied pooled keys
        ("altcost_500", 1.0 / 3.0, 5, 500, toy_limit_cdf),  # violations > 0
    ],
)
def test_array_passes_equal_the_loops(request, fixture, alpha, n_lo, n_hi, cdf):
    table = request.getfixturevalue(fixture)
    scatter = empirical_limit(table, alpha, n_lo, n_hi)
    xs, ys, ns, js = _reference_empirical_limit(table, alpha, n_lo, n_hi)
    for got, want in zip((scatter.xs, scatter.ys, scatter.ns, scatter.js), (xs, ys, ns, js)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    samples = periodicity_samples(table, alpha, n_lo, n_hi)
    want_ys, want_masses = _reference_periodicity_samples(table, alpha, n_lo, n_hi)
    assert np.array_equal(samples.ys, want_ys)
    assert np.array_equal(samples.masses, want_masses)
    assert scatter.collapse_spread() == _reference_collapse_spread(xs, ys, ns)
    assert scatter.monotone_violations() == _reference_monotone_violations(xs, ys)
    assert scatter.sup_gap_to(cdf) == _reference_sup_gap(xs, ys, cdf)


def test_laplace_self_calibration(toy_1024, fair_4096):
    samples = periodicity_samples(toy_1024, 0.5, 50, 500)
    assert abs(laplace_transform(samples, 0.0).real - 1.0) < 0.02
    assert abs(laplace_transform(samples, 2j * math.pi)) < 1.0
    fair = periodicity_samples(fair_4096, 0.5, 256, 4096)
    assert abs(laplace_transform(fair, 0.0).real - 1.0) < 0.02
    assert abs(laplace_transform(fair, 2j * math.pi)) < 1.0
    with pytest.raises(ValueError):
        laplace_transform(
            PeriodicitySamples(ys=np.array([0.0, 1.0]), masses=np.array([0.5, 0.5])),
            0.0,
        )


def test_laplace_matches_analytic_toy_value(toy_1024):
    # integral of e^x against the toy window-difference profile, in closed form
    samples = periodicity_samples(toy_1024, 0.5, 50, 500)
    a = 1.0
    closed = (3 - math.exp(a) - 2 * math.exp(-a)) * (1 / a - 1 / (a - math.log(2)))
    assert abs(laplace_transform(samples, a).real - closed) < 1e-5


def test_reconstruction_recovers_toy_residual(toy_1024):
    samples = periodicity_samples(toy_1024, 0.5, 50, 500)
    fit = periodicity_reconstruct(samples, fourier_terms=5)
    grid = np.linspace(0.0, 1.0, 401)
    reference = np.array([toy_phi(x) for x in grid])
    assert np.abs(fit.reconstruction(grid) - reference).max() < 0.01
    # period-1 constant term equals the analytic average 1/log 2 - 3/2
    assert abs(fit.mean_level - (1.0 / math.log(2.0) - 1.5)) < 1e-3
    assert abs(fit.oscillation(0.25) - fit.oscillation(1.25)) < 1e-12


def test_reconstruction_inputs():
    samples = PeriodicitySamples(
        ys=np.array([0.0, 0.5, 1.0]), masses=np.array([0.2, 0.6, 0.2])
    )
    with pytest.raises(ValueError):
        periodicity_reconstruct(samples, fourier_terms=0)


def test_fair_coin_phi_properties():
    # period 1 in log2 t
    for t in (3.7, 10.0, 100.0):
        assert abs(fair_coin_phi(t) - fair_coin_phi(2 * t)) < 1e-8
    # the coefficients decay so fast the truncation point barely matters
    for t in (3.7, 777.0):
        assert abs(fair_coin_phi(t, terms=20) - fair_coin_phi(t, terms=40)) < 1e-12
    # the oscillating terms average out over a period, leaving the constant
    grid = [fair_coin_phi(2.0 ** (k / 64.0)) for k in range(64)]
    assert abs(sum(grid) / 64.0 - 0.5) < 1e-9
    # oscillation amplitude is tiny for the fair coin
    assert abs(fair_coin_phi(1024.0) - 0.5) < 1e-4
    with pytest.raises(ValueError):
        fair_coin_phi(0.0)


def test_limit_cdf_shapes():
    assert fair_coin_limit_cdf(50.0) == pytest.approx(1.0)
    assert fair_coin_limit_cdf(-12.0) == pytest.approx(0.0, abs=1e-12)
    xs = np.linspace(-6, 8, 200)
    values = fair_coin_limit_cdf(xs)
    assert np.all(np.diff(values) >= 0)
    assert fair_coin_limit_cdf(0.0) == pytest.approx(1.0 / (math.e - 1.0))


def test_phase_law_converges_to_ceiling_law(fair_4096):
    # both distances to ceil(Z + log2 n) halve with n and dw dominates dtv
    dtvs, dws = [], []
    for e in (8, 9, 10, 11, 12):
        n = 2**e
        reference = ceil_shift_law(fair_coin_limit_cdf, math.log2(n))
        observed = law_from_phase(fair_4096, n)
        dtvs.append(dtv(observed, reference))
        dws.append(dw(observed, reference))
    assert dtvs == sorted(dtvs, reverse=True)
    assert dws == sorted(dws, reverse=True)
    assert all(a <= b + 1e-15 for a, b in zip(dtvs, dws))
    assert dws[-1] < 2e-4  # frozen: measured 1.76e-4 at n = 2^12


def test_phase_pmf_tracks_limit_differences(fair_4096):
    def window(x):
        return fair_coin_limit_cdf(x) - fair_coin_limit_cdf(x - 1.0)

    sups = []
    for e in (8, 9, 10, 11):
        n = 2**e
        ln = math.log2(n)
        sup = max(
            abs(fair_4096.prob(n, j) - window(j - ln))
            for j in range(fair_4096.j_max + 1)
        )
        sups.append(sup)
    assert sups == sorted(sups, reverse=True)
    assert sups[-1] < 2e-4


def test_toy_closed_form_values():
    forms = toy_closed_forms(0.0)
    assert forms.cdf_value == 1.0
    assert toy_closed_forms(-1.0).cdf_value == 0.0
    assert toy_phi(3.0) == 0.0
    assert abs(toy_closed_forms(math.log2(6)).end_two_prob) < 1e-12
    assert toy_closed_forms(math.log2(6)).mean_residual == pytest.approx(
        6.0 / 4.0 - math.log2(6.0 / 4.0) - 1.0
    )
