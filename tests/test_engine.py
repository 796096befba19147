import hashlib
import itertools
import logging
import math
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from electra import engine, fixtures
from electra.engine import (
    InitConvention,
    compute_phase_table,
    ending_state_probs,
    occupancy_probs,
    passage_probs,
)
from electra.models import (
    BiasedCoin,
    CoinMaxOne,
    DemonCoin,
    DeterministicHalving,
    ExplicitMatrix,
    FairCoin,
    ToyHalving,
    peak_circular,
    peak_linear_i,
    peak_linear_ii,
)


def test_linear_standard_matches_published(linear_500):
    for (n, j), value in fixtures.as_fractions(fixtures.PHASE_LINEAR_I_STANDARD).items():
        assert linear_500.exact_prob(n, j) == value


def test_linear_altcost_matches_published():
    table = compute_phase_table(peak_linear_i(), 5, init=InitConvention.ALT_COST)
    reference = fixtures.as_fractions(fixtures.PHASE_LINEAR_I_ALTCOST)
    for n in range(0, 6):
        for j in range(table.j_max + 1):
            assert table.exact_prob(n, j) == reference.get((n, j), Fraction(0))


def test_circular_standard_matches_published(circular_500):
    for (n, j), value in fixtures.as_fractions(fixtures.PHASE_CIRCULAR_STANDARD).items():
        assert circular_500.exact_prob(n, j) == value


def test_initial_values_linear(linear_500):
    assert [float(linear_500.exact_mean(n)) for n in range(5)] == [0, 0, 1, 1, 1]
    for n in (2, 3, 4):
        assert linear_500.exact_prob(n, 1) == 1
    for n in range(2, 100):
        assert linear_500.prob(n, 0) == 0.0


def test_rows_complete_and_monotone(linear_500, fair_4096):
    for table in (linear_500, fair_4096):
        cum = np.cumsum(table.probs, axis=1)
        assert np.all(np.diff(cum, axis=1) >= -1e-15)
        assert np.all(cum[:, -1] > 1 - 1e-9)


def test_mean_formulas_agree(fair_4096, toy_1024, linear_500):
    for table in (fair_4096, toy_1024, linear_500):
        assert table.mean_gap < 1e-10
    # strictly decreasing chains absorb completely: exact equality of the
    # direct and recursive means
    for n in range(1, linear_500.exact_cutoff + 1):
        row = linear_500.exact_row(n)
        direct = sum((Fraction(j) * p for j, p in enumerate(row)), Fraction(0))
        assert direct == linear_500.exact_mean(n)


def test_toy_means(toy_1024):
    assert toy_1024.exact_mean(6) == Fraction(5, 2)
    # closed form: floor(log2 n) - 1 + n / 2^floor(log2 n)
    for n in range(2, 1025):
        i = n.bit_length() - 1
        assert Fraction(float(toy_1024.mean(n))) == i - 1 + Fraction(n, 2**i)


def test_toy_cdf_closed_form(toy_1024):
    for n in (3, 5, 6, 48, 100, 1000):
        i = n.bit_length() - 1
        assert Fraction(float(toy_1024.cdf(n, i))) == 2 - Fraction(n, 2**i)
        assert toy_1024.cdf(n, i - 1) == 0.0
        assert toy_1024.cdf(n, i + 1) == 1.0


def test_regime_stability_under_cutoff():
    lo = compute_phase_table(FairCoin(exact_cutoff=75), 100)
    hi = compute_phase_table(FairCoin(exact_cutoff=100), 100)
    for n in range(0, 76):
        assert lo.exact_rows[n] == hi.exact_rows[n][: len(lo.exact_rows[n])] or (
            lo.exact_rows[n] == hi.exact_rows[n]
        )
    assert np.max(np.abs(lo.probs - hi.probs[:, : lo.j_max + 1])) < 1e-12


def test_lambda_monotone_standard(fair_4096, linear_500, circular_500):
    for table in (fair_4096, linear_500, circular_500):
        cum = np.cumsum(table.probs, axis=1)
        diffs = cum[3:, :] - cum[2:-1, :]
        assert float(diffs.max()) < 1e-12


def test_lambda_monotonicity_fails_altcost():
    table = compute_phase_table(peak_linear_i(), 100, init=InitConvention.ALT_COST)
    cum = np.cumsum(table.probs, axis=1)
    diffs = cum[3:, :] - cum[2:-1, :]
    assert float(diffs.max()) > 0.01  # witness: cum(3,1)=1/3 > cum(2,1)=0


def test_deterministic_halving_point_mass():
    table = compute_phase_table(DeterministicHalving(), 200)
    for n in range(2, 201):
        assert table.prob(n, int(math.log2(n))) == 1.0


def test_demon_threshold_zero_equals_shifted_chain():
    demon = DemonCoin(Fraction(1, 2), Fraction(1, 3))
    raw = compute_phase_table(demon, 40, threshold_a=0)
    shifted = compute_phase_table(demon.shifted(), 41, threshold_a=1)
    for n in range(1, 41):
        assert raw.exact_row(n) == shifted.exact_row(n + 1)


def test_setup_validation():
    with pytest.raises(ValueError, match="cannot"):
        compute_phase_table(FairCoin(), 10, threshold_a=0)
    with pytest.raises(ValueError, match="altcost"):
        compute_phase_table(
            DemonCoin(Fraction(1, 2), 0), 10, threshold_a=0, init=InitConvention.ALT_COST
        )
    with pytest.raises(ValueError):
        compute_phase_table(FairCoin(), 0)
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="residual_eps"):
            compute_phase_table(FairCoin(), 10, residual_eps=eps)


def test_threshold_at_or_above_start():
    table = compute_phase_table(FairCoin(), 3, threshold_a=5)
    for n in range(4):
        assert table.prob(n, 0) == 1.0
        assert table.mean(n) == 0.0


def test_explicit_matrix_through_engine():
    model = ExplicitMatrix(
        rows={
            2: {1: Fraction(1)},
            3: {1: Fraction(1, 3), 2: Fraction(2, 3)},
        }
    )
    table = compute_phase_table(model, 3)
    assert table.exact_prob(3, 1) == Fraction(1, 3)
    assert table.exact_prob(3, 2) == Fraction(2, 3)
    assert table.exact_mean(3) == Fraction(5, 3)


def _forward_phase_law(model, start, a, j_max, *, zero_cost=0):
    """Independent oracle: evolve the start state's distribution forward,
    exactly, recording the absorption time; no truncation anywhere."""
    dist = {start: Fraction(1)}
    absorbed: dict[int, Fraction] = {}
    if start <= a:
        return {zero_cost if start == 0 else 0: Fraction(1)}
    for j in range(1, j_max + 1):
        nxt: dict[int, Fraction] = {}
        for state, mass in dist.items():
            for k, p in model.pmf_exact(state).items():
                if k <= a:
                    cost = j + (zero_cost if k == 0 else 0)
                    absorbed[cost] = absorbed.get(cost, Fraction(0)) + mass * p
                else:
                    nxt[k] = nxt.get(k, Fraction(0)) + mass * p
        dist = nxt
    return absorbed


@pytest.mark.parametrize(
    "model,start,a,init",
    [
        (FairCoin(), 12, 1, InitConvention.STANDARD),
        (CoinMaxOne(Fraction(2, 5)), 10, 2, InitConvention.STANDARD),
        (peak_linear_i(), 9, 1, InitConvention.STANDARD),
        (peak_linear_i(), 9, 1, InitConvention.ALT_COST),
        (peak_linear_ii(), 9, 1, InitConvention.STANDARD),
    ],
)
def test_phase_law_matches_forward_oracle(model, start, a, init):
    # the engine builds columns backward; evolving the chain forward with
    # exact arithmetic must give the identical law, including self loops
    # (coin rescue mass) and the wiped-out-round cost convention
    table = compute_phase_table(model, start, threshold_a=a, init=init)
    zero_cost = 1 if init is InitConvention.ALT_COST else 0
    oracle = _forward_phase_law(model, start, a, table.j_max, zero_cost=zero_cost)
    for j in range(table.j_max + 1):
        assert table.exact_prob(start, j) == oracle.get(j, Fraction(0))
    assert sum(oracle.values(), Fraction(0)) > 1 - Fraction(1, 10**9)


# SHA-256 over j_max and every nonzero exact entry as "n,j,numerator,denominator";
# fixed when the absorbing states were still point masses filled in after
# the column loop.
_TABLE_DIGESTS = [
    (lambda: FairCoin(exact_cutoff=100), 100, 1, InitConvention.STANDARD, 46,
     "64f69c8b1adf0b48c7d2ce6454ca500fe22d5ff2174b603ec06cdcf4d48d08b7"),
    (peak_linear_i, 60, 1, InitConvention.STANDARD, 5,
     "187e8f86a044e26095d3d5ea49937ef776daf50c597620836925360daa624d92"),
    (peak_linear_i, 60, 1, InitConvention.ALT_COST, 6,
     "40d10333f534f0c926cf4c9130f802815bea69f7c77589438195ade33bb3e2ac"),
    (peak_circular, 60, 1, InitConvention.STANDARD, 5,
     "d6cdc413b3418ec576db764910e757810d8e4f860146e4bd1596f46344807fcc"),
    (lambda: DemonCoin(Fraction(1, 2), Fraction(1, 3)), 60, 0, InitConvention.STANDARD, 31,
     "2e68d3f6576c7f4546cfccbce622f11195bc6d5a6a8591ecc50c09a3ee421772"),
    (lambda: BiasedCoin(Fraction(3, 10)), 60, 3, InitConvention.STANDARD, 22,
     "2cf4868362921ab10ac6f0d34cc11b2b5de19fd7620468a18a2fdab6205d12d7"),
    (ToyHalving, 200, 3, InitConvention.STANDARD, 7,
     "789ee25ac1840f30b8018cd7d6d2f53c168995bc40501bbd1ab309b83c16a888"),
    (FairCoin, 5, 9, InitConvention.STANDARD, 1,  # every state absorbing
     "74aef14f87b8be871012c4933fc9771f08cd788c0fd20f96e4e8cb932eb32838"),
]


@pytest.mark.parametrize(
    "build,max_n,a,init,j_max,expected",
    _TABLE_DIGESTS,
    ids=["fair-100", "linear-i", "linear-i-altcost", "circular", "demon-a0", "biased-a3",
         "toy-a3", "fair-a9"],
)
def test_exact_rows_are_pinned(build, max_n, a, init, j_max, expected):
    table = compute_phase_table(build(), max_n, threshold_a=a, init=init)
    digest = hashlib.sha256(f"j_max={table.j_max}\n".encode())
    for n, row in sorted(table.exact_rows.items()):
        for j, p in enumerate(row):
            if p:
                digest.update(f"{n},{j},{p.numerator},{p.denominator}\n".encode())
    assert table.j_max == j_max
    assert digest.hexdigest() == expected


def _reference_probs(table):
    """Plain-Python oracle for the float law: rows up to the cutoff are the
    rounded exact rows; every other entry is ``s = 0.0; s += p * x`` over
    its row in ascending k, which puts the self-loop last.  Python floats
    never fuse a multiply-add, so this pins the bits on any machine."""
    model, a, top = table.model, table.threshold_a, table.max_n
    zero_cost = int(table.init is InitConvention.ALT_COST)
    ref = []
    for n in range(min(a, top) + 1):
        ref.append([float(j == (zero_cost if n == 0 else 0)) for j in range(table.j_max + 1)])
    for n in range(len(ref), min(model.exact_cutoff, top) + 1):
        ref.append([float(p) for p in table.exact_row(n)])
    for n, (lo, masses) in enumerate(model.float_rows(len(ref), top + 1), len(ref)):
        row = [0.0]
        for j in range(1, table.j_max + 1):
            s = 0.0
            for k, p in enumerate(masses.tolist(), lo):
                s += p * (ref[k][j - 1] if k < n else row[j - 1])
            row.append(s)
        ref.append(row)
    return ref


@pytest.mark.parametrize(
    "build,max_n,a,init",
    [
        (lambda: FairCoin(exact_cutoff=0), 300, 1, InitConvention.STANDARD),
        (lambda: BiasedCoin(Fraction(9, 10), exact_cutoff=0), 100, 1, InitConvention.STANDARD),
        (peak_linear_i, 200, 1, InitConvention.ALT_COST),
        (lambda: DemonCoin(Fraction(1, 2), Fraction(1, 3)), 200, 0, InitConvention.STANDARD),
        (lambda: BiasedCoin(Fraction(3, 10)), 200, 3, InitConvention.STANDARD),
        (peak_circular, 300, 1, InitConvention.STANDARD),
    ],
    ids=["fair-cut0", "biased-0.9-cut0", "linear-i-altcost", "demon-a0", "biased-a3", "circular"],
)
def test_float_law_matches_python_reference(build, max_n, a, init):
    # the row sweep adds in ascending k, self-loop last: bit for bit the
    # plain-Python sum, so a change of summation order shows here
    table = compute_phase_table(build(), max_n, threshold_a=a, init=init)
    assert table.probs.tolist() == _reference_probs(table)


@pytest.mark.parametrize("eps,j_max", [(1e-16, 161), (1e-14, 56)])
def test_stall_rule_column_counts(eps, j_max):
    # at eps 1e-16 the truncated float rows floor the residual, and the
    # table stops 100 columns after progress stalled
    assert compute_phase_table(FairCoin(exact_cutoff=0), 500, residual_eps=eps).j_max == j_max


@pytest.mark.parametrize("width", [2, 30, 200])
def test_column_fill_widens_or_cuts_to_the_stop_rule(width):
    # the final fill starts at the predicted width; from any start it must
    # widen one column at a time, or cut, to the same table
    model, a = FairCoin(exact_cutoff=30), 1
    table = compute_phase_table(model, 60)
    rows = engine._transient_rows(model, a, 60)
    probs, columns, _ = engine._fill_columns(
        rows, engine._exact_columns(rows, [0, 0]), a + 1 + len(rows.exact), width,
        lambda w: w + 1, table.residual_eps, model.name,
    )
    assert probs.tolist() == table.probs.tolist()
    exact_columns = [tuple(map(Fraction, nums, dens)) for nums, dens in columns]
    assert exact_columns == list(zip(*table.exact_rows.values()))


_PREDICTED_FAMILIES = {
    "fair": lambda cut: FairCoin(exact_cutoff=cut),
    "biased-0.3": lambda cut: BiasedCoin(Fraction(3, 10), exact_cutoff=cut),
    "demon-a0": lambda cut: DemonCoin(Fraction(1, 2), Fraction(1, 3), exact_cutoff=cut),
    "toy": lambda cut: ToyHalving(exact_cutoff=cut),
    "det-halving": lambda cut: DeterministicHalving(exact_cutoff=cut),
    "coin-max-one": lambda cut: CoinMaxOne(Fraction(1, 2), exact_cutoff=cut),
    "linear-i": lambda cut: peak_linear_i(exact_cutoff=cut),
    "linear-ii": lambda cut: peak_linear_ii(exact_cutoff=cut),
    "circular": lambda cut: peak_circular(exact_cutoff=cut),
}


def _record_predictions(monkeypatch) -> list[int]:
    """The widths ``_predicted_width`` returns from now on, in call order."""
    widths, predict = [], engine._predicted_width
    monkeypatch.setattr(engine, "_predicted_width",
                        lambda *args: widths.append(predict(*args)) or widths[-1])
    return widths


@pytest.mark.parametrize("family", _PREDICTED_FAMILIES)
def test_predicted_width_covers_the_table(family, monkeypatch):
    # the prefix sweep plus ceil(log_{1/alpha}(max_n / m)) + 1 is never
    # short and at most two columns long, at both cutoffs (the prefix ends
    # at 64 or at the last integer row) and both inits.  The 3/10 coin's
    # integer columns to 75 cost about 1 s a table, so it runs at cutoff 0
    widths = _record_predictions(monkeypatch)
    a = 0 if family == "demon-a0" else 1
    inits = [InitConvention.STANDARD] + [InitConvention.ALT_COST] * (a > 0)
    cutoffs = [0] if family == "biased-0.3" else [0, 75]
    for max_n, cut, init in itertools.product([200, 1000], cutoffs, inits):
        table = compute_phase_table(_PREDICTED_FAMILIES[family](cut), max_n, a, init)
        assert table.j_max + 1 <= widths[-1] <= table.j_max + 3, (max_n, cut, init)


def test_prediction_margin_is_spent_on_the_biased_coin(monkeypatch):
    # without the margin column the 3/10 coin to 8192 comes out one short
    widths = _record_predictions(monkeypatch)
    table = compute_phase_table(BiasedCoin(Fraction(3, 10), exact_cutoff=0), 8192)
    assert widths == [table.j_max + 1]


_GUESS_CASES = {
    "fair-600": (FairCoin, 600, 1, InitConvention.STANDARD, {}),
    "biased-a3": (lambda: BiasedCoin(Fraction(3, 10)), 300, 3, InitConvention.STANDARD, {}),
    "circular-altcost": (peak_circular, 500, 1, InitConvention.ALT_COST, {}),
    "fair-cut0-stall": (lambda: FairCoin(exact_cutoff=0), 500, 1, InitConvention.STANDARD,
                        {"residual_eps": 1e-16}),
}


@pytest.mark.parametrize("case", _GUESS_CASES)
def test_column_guess_changes_no_output(case, monkeypatch):
    # the final fill widens from a short guess and cuts a long one to the
    # same table, bit for bit; the stall case stops at column 161
    build, max_n, a, init, options = _GUESS_CASES[case]
    tables = [compute_phase_table(build(), max_n, a, init, **options)]
    j_max = tables[0].j_max
    for guess in [2, j_max + 26]:
        monkeypatch.setattr(engine, "_predicted_width", lambda *args: guess)
        tables.append(compute_phase_table(build(), max_n, a, init, **options))
    for table in tables:
        assert table.probs.flags.c_contiguous
        assert table.probs.tobytes() == tables[0].probs.tobytes()
        assert table.exact_ints == tables[0].exact_ints
        assert table.means.tobytes() == tables[0].means.tobytes()
        assert (table.j_max, table.mean_gap) == (j_max, tables[0].mean_gap)


def test_explicit_matrix_predicts_over_every_row(monkeypatch):
    # a model with no alpha has no law to extrapolate by: its predictor
    # sweeps every state, where a coin's stops at 64
    swept, fill = [], engine._fill_columns
    monkeypatch.setattr(engine, "_fill_columns",
                        lambda rows, *args: swept.append(rows.max_n) or fill(rows, *args))
    coin = FairCoin(exact_cutoff=0)
    explicit = ExplicitMatrix(rows={n: coin.pmf_exact(n) for n in range(2, 101)}, exact_cutoff=0)
    for model in [coin, explicit]:
        compute_phase_table(model, 100)
    assert swept == [64, 100, 100, 100]


def test_engine_logger_is_silent_until_configured(caplog, monkeypatch):
    # a guess of 2 makes the final fill widen, and at eps 1e-16 the stall
    # rule ends the table: both reach the electra logger at DEBUG only
    monkeypatch.setattr(engine, "_predicted_width", lambda *args: 2)

    def stalled():
        return compute_phase_table(FairCoin(exact_cutoff=0), 500, residual_eps=1e-16)

    stalled()
    assert not caplog.records
    caplog.set_level(logging.DEBUG, logger="electra")
    stalled()
    assert [(r.name, r.levelno) for r in caplog.records] == [("electra.engine", logging.DEBUG)] * 2
    assert caplog.messages == [
        "fair-coin to 500: widened past the 2 predicted columns to 162",
        "fair-coin to 500: the stall rule, not residual_eps 1e-16, ended the table at column 161",
    ]
    caplog.clear()
    monkeypatch.undo()
    compute_phase_table(FairCoin(), 600)
    assert not caplog.records  # a default table neither widens nor stalls


def test_near_stalling_chain_hits_column_cap():
    # the chain leaves state 2 at rate 1e-6 per round: the column guard
    # fires before any exact column is pulled
    model = ExplicitMatrix(rows={2: {1: Fraction(1, 10**6), 2: 1 - Fraction(1, 10**6)}})
    with pytest.raises(RuntimeError, match="did not absorb within 20000 columns"):
        compute_phase_table(model, 2)


def _one_shot_csv(table):
    """``table``'s float CSV built as one string: the reference for the
    writer that formats a block of rows at a time."""
    ns, js = np.nonzero(table.probs > 0.0)
    lines = zip(ns.tolist(), js.tolist(), table.probs[ns, js].tolist())
    return "n,j,prob\n" + "".join(f"{n},{j},{p!r}\n" for n, j, p in lines)


def _interior_zero_chain():
    """8 -> 4 -> 2 -> 1 and 3..7 -> 1 surely, 9 -> {1, 8} at 1/2 each: row
    9 of the phase law is [0, 1/2, 0, 0, 1/2]."""
    half = Fraction(1, 2)
    rows = {2: {1: 1}, 4: {2: 1}, 8: {4: 1}, 9: {1: half, 8: half}}
    rows.update({i: {1: 1} for i in (3, 5, 6, 7)})
    return compute_phase_table(ExplicitMatrix(rows=rows), 9)


@pytest.mark.parametrize("case", [
    str(engine._CSV_ROWS // 2), str(engine._CSV_ROWS - 1), "4096",
    "interior-zeros", "det-halving-300",
])
def test_csv_blocks_write_the_one_shot_file(case, request, tmp_path):
    # fewer rows than a block, exactly one block, and many blocks with a
    # partial last one; then zeros between nonzero entries of a row, and
    # one nonzero entry per row
    if case == "4096":
        table = request.getfixturevalue("fair_4096")
    elif case == "interior-zeros":
        table = _interior_zero_chain()
        assert table.probs[9].tolist() == [0.0, 0.5, 0.0, 0.0, 0.5]
    elif case == "det-halving-300":
        table = compute_phase_table(DeterministicHalving(), 300)
        assert ((table.probs > 0.0).sum(axis=1) == 1).all()
    else:
        table = compute_phase_table(FairCoin(), int(case))
    table.to_csv(tmp_path / "probs.csv")
    digest = hashlib.sha256((tmp_path / "probs.csv").read_bytes()).hexdigest()
    assert digest == hashlib.sha256(_one_shot_csv(table).encode()).hexdigest()


#: SHA-256 of ``phase_probs.csv`` of ``table --model fair-coin --max-n 4096``
_FAIR_4096_PROBS_SHA256 = "0869d869ac23b74b3e0db37c3a44a41417cf45a77613b38413e2e7854090217c"


def test_fair_4096_float_file_is_pinned(fair_4096, tmp_path):
    fair_4096.to_csv(tmp_path / "probs.csv")
    digest = hashlib.sha256((tmp_path / "probs.csv").read_bytes()).hexdigest()
    assert digest == _FAIR_4096_PROBS_SHA256


def _lifted(write):
    """``write()`` with the int-to-str digit limit lifted, then restored."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return write()
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_str_writes_integers_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    edge = 2**engine._STR_BITS
    values = [0, 7, edge - 1, edge, 10**limit - 1, 10**limit, 3**20_000, 10**30_000 + 1]
    assert [engine.decimal_str(x) for x in values] == _lifted(lambda: list(map(str, values)))


def test_exact_file_writes_integers_past_the_digit_limit(tmp_path):
    # denominators of about 4,800 digits by column 40
    d = 10**120
    model = ExplicitMatrix(rows={2: {1: Fraction(d - 1, 2 * d), 2: Fraction(d + 1, 2 * d)}})
    table = compute_phase_table(model, 2)
    table.to_csv(tmp_path / "probs.csv", exact_path=tmp_path / "exact.csv")
    want = "n,j,numerator,denominator\n" + _lifted(lambda: "".join(
        f"{n},{j},{p.numerator},{p.denominator}\n"
        for n, row in sorted(table.exact_rows.items())
        for j, p in enumerate(row)
        if p
    ))
    got = (tmp_path / "exact.csv").read_text()
    assert max(map(len, got.replace("\n", ",").split(","))) > sys.get_int_max_str_digits()
    assert got == want


def _shifted(x_twos):
    x, twos = x_twos
    return x << twos


_DENOMINATORS = st.one_of(
    st.just(1),
    st.integers(0, 6000).map(lambda a: 2**a),
    st.tuples(st.integers(0, 400), st.integers(0, 400)).map(lambda ab: 2**ab[0] * 5**ab[1]),
    st.tuples(st.integers(0, 120), st.integers(0, 400)).map(
        lambda ma: math.factorial(ma[0]) << ma[1]
    ),
    st.integers(0, 2**300).map(lambda x: 2 * x + 1),
)


@given(_DENOMINATORS, st.data())
def test_lowest_terms_equals_fraction(den, data):
    num = data.draw(st.one_of(
        st.just(0),
        st.just(den),
        st.tuples(st.integers(0, 2**300), st.integers(0, 400)).map(_shifted),
        st.integers(0, 2**300).map(lambda x: x * den),
    ))
    want = Fraction(num, den)
    assert engine.lowest_terms(num, den) == (want.numerator, want.denominator)


@pytest.mark.parametrize(
    "model,max_n",
    [(FairCoin(exact_cutoff=100), 100), (BiasedCoin(Fraction(3, 10)), 300)],
    ids=["fair-100", "biased-0.3-300"],
)
def test_exact_entries_are_in_lowest_terms(model, max_n):
    table = compute_phase_table(model, max_n)
    pairs = [pq for nums, dens in table.exact_ints.values() for pq in zip(nums, dens)]
    assert len(pairs) == len(table.exact_ints) * (table.j_max + 1)
    assert all(q > 0 and math.gcd(p, q) == 1 for p, q in pairs)


def test_exact_rows_agree_across_threads():
    # threads race to build the Fraction view of one shared table
    table = compute_phase_table(FairCoin(exact_cutoff=60), 60)
    workers = 4
    start, seen = threading.Barrier(workers), [None] * workers

    def read(i):
        start.wait()
        probs = [table.exact_prob(n, j) for n in range(61) for j in range(table.j_max + 2)]
        seen[i] = (dict(table.exact_rows), probs)

    threads = [threading.Thread(target=read, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(s == seen[0] for s in seen)
    assert seen[0][0] == {
        n: tuple(Fraction(p, q) for p, q in zip(nums, dens))
        for n, (nums, dens) in table.exact_ints.items()
    }


def test_exact_file_needs_no_fraction_view(tmp_path):
    # the exact CSV reads the integer rows: a table whose Fraction view was
    # never built writes the same bytes as one whose view was read
    model = BiasedCoin(Fraction(3, 10))
    unread, read = compute_phase_table(model, 40), compute_phase_table(model, 40)
    assert read.exact_prob(40, 3) == read.exact_rows[40][3] > 0
    unread.to_csv(tmp_path / "a.csv", exact_path=tmp_path / "a_exact.csv")
    read.to_csv(tmp_path / "b.csv", exact_path=tmp_path / "b_exact.csv")
    assert "exact_rows" not in vars(unread)
    assert (tmp_path / "a_exact.csv").read_bytes() == (tmp_path / "b_exact.csv").read_bytes()


def test_csv_writer_memory_is_one_block(fair_4096, tmp_path):
    # a block of rows takes about 1.3 MB; formatting all 195,515 entries
    # at once takes about 18 MB
    tracemalloc.start()
    try:
        fair_4096.to_csv(tmp_path / "probs.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_phase_table_memory_is_bounded():
    # a table holds no float rows between its passes, and its law's cache
    # keeps the first 1 MiB of them; every row of p = 3/7 to 4096, which no
    # other test reads, would take about 10 MiB
    tracemalloc.start()
    try:
        compute_phase_table(BiasedCoin(Fraction(3, 7), exact_cutoff=0), 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_float_sweep_memory_is_one_span():
    # the float downward sweep holds one span of rows, about 4.5 MB near
    # n = 6000 for p = 2/7, which no other test reads, next to its law's
    # 1 MiB prefix; all 6000 rows take about 18 MB
    tracemalloc.start()
    try:
        occupancy_probs(BiasedCoin(Fraction(2, 7), exact_cutoff=0), 6000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# ending states


def _enumerate_absorption(model, start, a):
    """Independent oracle: depth-first expansion of the chain, exact.

    Only valid for strictly decreasing chains (no self loops).
    """
    out: dict[int, Fraction] = {}

    def walk(state, mass):
        if state <= a:
            key = 1 if state == 0 else state
            out[key] = out.get(key, Fraction(0)) + mass
            return
        for k, p in model.pmf_exact(state).items():
            assert k < state
            walk(k, mass * p)

    walk(start, Fraction(1))
    return out


def test_toy_ending_states_closed_form():
    table = ending_state_probs(ToyHalving(), 1024, 3)
    for n in range(2, 1025):
        i = n.bit_length() - 1
        expect = abs(Fraction(n, 2 ** (i - 1)) - 3)
        if n <= 75:
            assert table.exact_prob(n, 2) == expect
        else:
            assert Fraction(table.prob(n, 2)) == expect  # dyadic floats are exact
        assert table.prob(n, 1) == 0.0
    sums = table.probs[2:, 1:].sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_ending_states_match_enumeration_oracle():
    model = peak_linear_i()
    table = ending_state_probs(model, 7, 2)
    oracle = _enumerate_absorption(model, 7, 2)
    assert table.exact_prob(7, 1) == oracle[1]
    assert table.exact_prob(7, 2) == oracle[2]
    # frozen values from the oracle
    assert table.exact_prob(7, 1) == Fraction(3, 7)
    assert table.exact_prob(7, 2) == Fraction(4, 7)


def test_ending_state_validation():
    with pytest.raises(ValueError):
        ending_state_probs(ToyHalving(), 10, 0)
    table = ending_state_probs(ToyHalving(), 10, 2)
    with pytest.raises(ValueError):
        table.prob(5, 3)
    for n in (-1, 11):  # rows outside 0..max_n
        with pytest.raises(ValueError, match="outside"):
            table.prob(n, 2)
        with pytest.raises(ValueError, match="outside"):
            table.exact_prob(n, 2)
    with pytest.raises(ValueError):
        table.exact_prob(5, 3)


# ---------------------------------------------------------------------------
# occupancy


def test_toy_occupancy_from_eight():
    occ = occupancy_probs(ToyHalving(), 8)
    assert occ.visits == {8: 1, 4: 1, 2: 1, 1: 1}
    assert occ.mean_recovered == 3


def test_occupancy_mean_identity(circular_500):
    occ = occupancy_probs(peak_circular(), 7)
    assert occ.visits[1] == 1
    assert occ.mean_recovered == circular_500.exact_mean(7)
    fair = compute_phase_table(FairCoin(), 50)
    occ50 = occupancy_probs(FairCoin(), 50)
    assert occ50.mean_recovered == fair.exact_mean(50)


def test_occupancy_matches_passage_probs():
    # for a strictly decreasing chain, expected visits = passage probability
    occ = occupancy_probs(peak_circular(), 7)
    probs = passage_probs(peak_circular(), 7, [2, 3])
    for i in (2, 3):
        assert abs(float(occ.visits.get(i, 0)) - probs[i]) < 1e-12


def test_demon_wipe_out_counts_as_one_player():
    demon = DemonCoin(Fraction(1, 2), Fraction(1, 3))
    occ = occupancy_probs(demon, 10, threshold_a=2)
    ending = ending_state_probs(demon, 10, 2)
    assert occ.visits[0] > 0
    assert occ.visits[0] + occ.visits[1] == ending.exact_prob(10, 1)
    assert occ.visits[2] == ending.exact_prob(10, 2)
    passage = passage_probs(demon, 10, [1, 2, 3])
    for i in (1, 2, 3):
        assert passage[i] == ending_state_probs(demon, 10, i).exact_prob(10, i)
    assert passage[1] == 1


def _reference_downward_sweep(model, start, a):
    """Oracle for the downward sweep: one ``Fraction`` per row entry up to the
    cutoff, float rows beyond, each row fetched when mass first enters it."""
    inflow = {start: Fraction(1)}
    visits = {}
    for m in range(start, a, -1):
        mass = inflow.get(m)
        if not mass:
            continue
        if m <= model.exact_cutoff:
            lo, nums, den = model.exact_row(m)
            probs = [Fraction(x, den) for x in nums]
        else:
            [(lo, probs)] = model.float_rows(m, m + 1)
            probs = probs.tolist()
        stay = probs[m - lo] if m < lo + len(probs) else 0
        visits[m] = mass / (1 - stay)
        for k, p in enumerate(probs, lo):
            if k != m and p:
                inflow[k] = inflow.get(k, 0) + visits[m] * p
    visits.update((k, v) for k, v in inflow.items() if k <= a and v)
    return visits, inflow


def _assert_sweep_matches_reference(model, start, a):
    # equal values, and one number type throughout: the start row's
    visits, total, entering = engine._downward_sweep(model, start, a, range(start + 1))
    want_visits, want_entering = _reference_downward_sweep(model, start, a)
    kind = Fraction if start <= model.exact_cutoff else float
    for got_values, want_values in ((visits, want_visits), (entering, want_entering)):
        assert got_values == want_values
        assert {type(v) for v in got_values.values()} == {kind}
    assert total == sum((v for k, v in want_visits.items() if k > a), kind())
    assert type(total) is kind


@pytest.mark.parametrize(
    "model,start,a",
    [
        (peak_circular(exact_cutoff=120), 120, 1),
        (BiasedCoin(Fraction(3, 10), exact_cutoff=60), 60, 1),
        (DemonCoin(Fraction(1, 2), Fraction(1, 3)), 40, 0),
        (DemonCoin(Fraction(1, 2), Fraction(1, 3)), 40, 2),
        (FairCoin(), 200, 1),  # float regime over exact rows below the cutoff
        (peak_circular(exact_cutoff=60), 300, 2),
        (FairCoin(), 3000, 1),  # float rows past the kept prefix
        (FairCoin(exact_cutoff=80), 80, 1),  # dyadic rows: every denominator a power of two
    ],
    ids=["circular-120", "biased-0.3-60", "demon-a0", "demon-a2", "fair-200-float",
         "circular-300-float", "fair-3000-float", "fair-80-dyadic"],
)
def test_downward_sweep_matches_fraction_reference(model, start, a):
    # the integer sweep gives the reference's Fractions exactly; the float
    # sweep keeps its bits, also on the integer rows it rounds
    _assert_sweep_matches_reference(model, start, a)


def test_sweep_results_take_the_start_rows_type():
    # all Fractions when the start is within the cutoff, all floats beyond:
    # zero defaults, the start's unit mass and mean_recovered included
    floats = passage_probs(FairCoin(), 200, [199, 200])
    assert floats == {199: 0.0, 200: 1.0}
    assert all(type(p) is float for p in floats.values())
    toy = passage_probs(ToyHalving(exact_cutoff=10), 64, [3, 32, 64])
    assert toy == {3: 0.0, 32: 1.0, 64: 1.0}
    assert all(type(p) is float for p in toy.values())
    occ = occupancy_probs(FairCoin(exact_cutoff=0), 1)
    assert type(occ.mean_recovered) is float and type(occ.visits[1]) is float
    occ = occupancy_probs(ToyHalving(exact_cutoff=10), 64)
    assert occ.mean_recovered == 6 and type(occ.mean_recovered) is float
    exact = passage_probs(FairCoin(), 75, [74, 75])
    assert exact[75] == 1 and all(type(p) is Fraction for p in exact.values())
    occ = occupancy_probs(FairCoin(exact_cutoff=1), 1)
    assert occ.mean_recovered == 0 and type(occ.mean_recovered) is Fraction


def test_float_sweep_keeps_states_whose_inflow_underflows():
    # rows 3 and 2, from k = 1 and k = 0, in the sweep's order: visits(2)
    # P(2, 0) = 1e-400 rounds to 0.0, yet a nonzero mass points at 0, so 0
    # stays an entering state; an absorbing state counts as visited only
    # with nonzero mass
    rows = [(1, np.array([1.0, 1e-200, 0.0])), (0, np.array([1e-200, 1.0, 0.0]))]
    visits, total, entering = engine._float_visits(rows, 3, 1)
    assert visits == {3: 1.0, 2: 1e-200, 1: 1.0} and total == 1.0
    assert entering == {3: 1.0, 2: 1e-200, 1: 1.0, 0: 0.0}
    assert {type(v) for v in (*visits.values(), *entering.values())} == {float}


# ---------------------------------------------------------------------------
# random chains


#: downward row weights: small integers, or a power of two up to 2^10 times
#: a small odd number, so that row totals carry both large odd parts and
#: many twos and the integer sweeps' common denominators grow through both.
#: A self-loop weighs 0..4 only, so every row leaves with probability at
#: least 1/5 and the tables stay short
_WEIGHTS = st.integers(0, 4) | st.sampled_from(
    [odd << twos for odd in (1, 3, 5, 7) for twos in range(11)]
)


@st.composite
def _chains(draw):
    """Random rational lower-triangular chains on states 1..top (top <= 8),
    with or without self-loops and wipe-outs to state 0; every row can
    leave its state."""
    top = draw(st.integers(2, 8))
    loops = draw(st.booleans())
    first = 0 if draw(st.booleans()) else 1
    rows = {}
    for i in range(2, top + 1):
        down = draw(st.lists(_WEIGHTS, min_size=i - first, max_size=i - first).filter(any))
        stay = draw(st.integers(0, 4)) if loops else 0
        total = sum(down) + stay
        rows[i] = {j: Fraction(w, total) for j, w in enumerate(down + [stay], first) if w}
    return ExplicitMatrix(rows=rows), loops


@given(_chains(), st.integers(1, 2), st.sampled_from(InitConvention), st.data())
def test_means_agree_on_random_chains(chain, a, init, data):
    # integer columns, float rows, the downward visit sweep and forward
    # evolution: equal wherever the rows are exact, within 1e-12 elsewhere
    model, loops = chain
    top = model.max_state
    zero_cost = 1 if init is InitConvention.ALT_COST else 0
    cut = data.draw(st.integers(1, top))
    table = compute_phase_table(model, top, threshold_a=a, init=init)
    float_model = replace(model, exact_cutoff=0)
    mixed = compute_phase_table(replace(model, exact_cutoff=cut), top, threshold_a=a, init=init)
    floats = compute_phase_table(float_model, top, threshold_a=a, init=init)
    j_max = max(table.j_max, mixed.j_max)
    for n in range(top + 1):  # ends on n = top, whose law the last check reads
        law = _forward_phase_law(model, n, a, j_max, zero_cost=zero_cost)
        for j in range(table.j_max + 1):
            assert table.exact_prob(n, j) == law.get(j, Fraction(0))
        if n <= cut:  # integer columns beside float rows in one table
            for j in range(mixed.j_max + 1):
                assert mixed.exact_prob(n, j) == law.get(j, Fraction(0))
            assert mixed.exact_mean(n) == table.exact_mean(n)
    for n in range(1, top + 1):
        occ = occupancy_probs(model, n, threshold_a=a)
        wiped = zero_cost * occ.visits.get(0, 0)
        assert occ.mean_recovered + wiped == table.exact_mean(n)
        occ = occupancy_probs(float_model, n, threshold_a=a)
        wiped = zero_cost * occ.visits.get(0, 0.0)
        assert math.isclose(occ.mean_recovered + wiped, table.mean(n), rel_tol=1e-12)
    for other in (mixed, floats):
        width = min(other.j_max, table.j_max) + 1
        assert np.allclose(other.probs[:, :width], table.probs[:, :width], rtol=0, atol=1e-12)
        assert np.allclose(other.means, table.means, rtol=1e-12, atol=0)
    if not loops:  # absorbed within top rounds, so the forward law to top is whole
        law = _forward_phase_law(model, top, a, top, zero_cost=zero_cost)
        assert sum(j * p for j, p in law.items()) == table.exact_mean(top)


def _sampled_passage(model, start, walkers, rng):
    """Monte Carlo passage: ``walkers`` chains from ``start`` step by
    ``sample_many`` until they reach 1 or 0; entry i counts those that
    ever stood at i.  A chain enters each state at most once."""
    entered = np.zeros(start + 1, dtype=np.int64)
    entered[start] = walkers
    for state in range(start, 1, -1):
        waiting = int(entered[state])
        while waiting:  # self-loops draw again
            draws = model.sample_many(state, waiting, rng)
            moved = draws[draws != state]
            entered += np.bincount(moved, minlength=start + 1)
            waiting -= len(moved)
    return entered


@given(_chains())
def test_passage_and_ending_states_on_random_chains(chain):
    model, _ = chain
    top = model.max_state
    passage = passage_probs(model, top, list(range(1, top + 1)))
    for i in range(1, top + 1):
        ending = ending_state_probs(model, top, threshold_a=i)
        assert passage[i] == ending.exact_prob(top, i)
        for n in range(top + 1):
            assert sum(ending.exact[n]) == 1
    # the sampled passage frequencies, within 5 sigma of 2000 walkers
    walkers = 2000
    entered = _sampled_passage(model, top, walkers, np.random.default_rng(2008))
    entered[1] += entered[0]  # a wiped-out game ends with one player
    for i in range(1, top + 1):
        p = float(passage[i])
        sigma = math.sqrt(p * (1 - p) / walkers)
        assert abs(entered[i] / walkers - p) <= 5 * sigma, (i, entered[i], p)
    for a in (1, 2):  # the integer sweep, and the float sweep over integer rows
        _assert_sweep_matches_reference(model, top, a)
        _assert_sweep_matches_reference(replace(model, exact_cutoff=top - 1), top, a)
