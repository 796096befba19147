import functools
import hashlib
import itertools
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from electra import fixtures, franklin
from electra.engine import compute_phase_table
from electra.franklin import (
    _BATCH,
    _SPAN,
    RingVariant,
    SimConfig,
    _batch_rng,
    _first_keys,
    _peak_mask,
    _raw_keys,
    _row_counts,
    closed_form_c2,
    conditional_second_round,
    estimate_c2,
    exhaustive_second_round,
    mean_survival_ratios,
    run_election,
    survivors_after_rounds,
)
from electra.metrics import IntegerLaw, dtv, law_from_phase
from electra.models import peak_circular, peak_linear_i, peak_linear_ii
from electra.peaks import PeakVariant, count_peaks


def test_two_players_one_round():
    records = run_election(SimConfig(RingVariant.TRUE_PERSISTENT, 2, 300, seed=4))
    assert np.all(records.rounds == 1)
    assert np.all(records.messages == 4)
    assert list(records.trace(0)) == [1]


def test_bit_identical_reruns():
    config = SimConfig(RingVariant.REDRAW_CIRCULAR, 9, 5000, seed=17)
    a = run_election(config)
    b = run_election(config)
    assert np.array_equal(a.rounds, b.rounds)
    assert np.array_equal(a.messages, b.messages)
    assert np.array_equal(a.trace_flat, b.trace_flat)


def test_seed_changes_outcomes():
    a = run_election(SimConfig(RingVariant.REDRAW_CIRCULAR, 9, 5000, seed=17))
    b = run_election(SimConfig(RingVariant.REDRAW_CIRCULAR, 9, 5000, seed=18))
    assert not np.array_equal(a.rounds, b.rounds)


def test_exhaustive_second_round_exact():
    assert exhaustive_second_round() == fixtures.SECOND_ROUND_CONDITIONAL


def test_exhaustive_second_round_needs_a_second_round():
    # one survivor plays no second round, and the peak kernel needs width >= 2
    with pytest.raises(ValueError, match="first_round >= 2"):
        exhaustive_second_round(first_round=1)


@functools.cache
def _persistent_round_law(n):
    """Exact law of the rounds of the persistent game from ``n`` players,
    and its expected survivors after two rounds over n (a game that ends
    in round one keeps its count): every ordering of n distinct keys is
    played round by round through the flat peak mask, all at once as
    back-to-back rows, each round's survivors keeping their keys in ring
    order."""
    orderings = math.factorial(n)
    keys = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.int64, count=orderings * n,
    )
    widths = np.full(orderings, n, dtype=np.int64)
    ends = {}
    after_two = 0
    round_ = 0
    while len(widths):
        round_ += 1
        offsets = np.concatenate([[0], np.cumsum(widths)])
        mask = _peak_mask(keys, offsets, RingVariant.TRUE_PERSISTENT)
        counts = _row_counts(mask, offsets, n)
        stays = counts > 1
        ends[round_] = Fraction(int((~stays).sum()), orderings)
        if round_ == 1:
            after_two += int(counts[~stays].sum())  # games over in round one
        elif round_ == 2:
            after_two += int(counts.sum())
        keys = keys[mask & np.repeat(stays, widths)]
        widths = counts[stays]
    return ends, Fraction(after_two, orderings * n)


def test_persistent_round_law_matches_engine_below_eight():
    # up to 7 players every second round has at most 3 players, whose
    # outcome does not depend on the keys, so the persistent law is the
    # redraw law the engine computes
    table = compute_phase_table(peak_circular(), 7)
    for n in range(2, 8):
        engine = {j: p for j, p in enumerate(table.exact_row(n)) if p}
        assert _persistent_round_law(n)[0] == engine


@pytest.mark.parametrize("n", [8, 9])
def test_persistent_elections_follow_the_exact_round_law(n):
    # seed n, 10^5 trials and the chi-square bound (2 degrees of freedom,
    # P(> 25) = e^-12.5 under the exact law) were fixed before the first
    # run; a game that redraws its keys every round is expected near 30 at
    # n = 8 and 70 at n = 9, so at least n = 9 fails it
    law = _persistent_round_law(n)[0]
    trials = 100_000
    records = run_election(SimConfig(RingVariant.TRUE_PERSISTENT, n, trials, seed=n,
                                     record_traces=False))
    hist = records.round_histogram()
    assert set(hist) <= set(law)
    chi2 = sum((hist.get(j, 0) - trials * float(p)) ** 2 / (trials * float(p))
               for j, p in law.items())
    assert chi2 < 25.0


@pytest.mark.parametrize("n,exact", [(8, Fraction(8, 63)), (9, Fraction(89, 756))], ids=["8", "9"])
def test_two_round_ratio_matches_exact_enumeration(n, exact):
    # seed 100 + n, 2 * 10^5 trials and the 4-sigma bound were fixed before
    # the first run; the redraw ratios (0.127249 at n = 8, 0.118401 at
    # n = 9) sit about 7.6 and 11.5 standard errors away
    assert _persistent_round_law(n)[1] == exact
    est = estimate_c2(n, 200_000, seed=100 + n)
    assert est.sigmas_from(float(exact)) < 4.0


def test_closed_form_c2():
    assert abs(closed_form_c2() - fixtures.C2_DECIMAL) < 1e-9
    assert closed_form_c2() < 1.0 / 9.0


def test_message_accounting_matches_traces():
    config = SimConfig(RingVariant.REDRAW_CIRCULAR, 30, 400, seed=5)
    records = run_election(config)
    for t in range(0, 400, 37):
        trace = records.trace(t)
        assert records.rounds[t] == len(trace)
        # every round costs 2n link traversals, relays included
        assert records.messages[t] == 2 * 30 * len(trace)


def test_mean_messages_approach_ring_bound():
    config = SimConfig(RingVariant.REDRAW_CIRCULAR, 243, 4000, seed=41,
                       record_traces=False)
    records = run_election(config)
    ratio = float(records.messages.mean()) / (2 * 243 * math.log(243, 3))
    assert abs(ratio - 1.0) < 0.1


def test_first_round_matches_circular_pmf():
    # round one of the persistent game is a plain circular peak count
    counts = survivors_after_rounds(RingVariant.TRUE_PERSISTENT, 7, 200_000, seed=31, rounds=1)
    pmf = peak_circular().pmf_exact(7)
    for k, p in pmf.items():
        freq = float(np.mean(counts == k))
        sigma = math.sqrt(float(p) * (1 - float(p)) / 200_000)
        assert abs(freq - float(p)) < 3.5 * sigma


@pytest.mark.parametrize(
    "variant,model",
    [
        (RingVariant.REDRAW_CIRCULAR, peak_circular()),
        (RingVariant.REDRAW_LINEAR_I, peak_linear_i()),
        (RingVariant.REDRAW_LINEAR_II, peak_linear_ii()),
    ],
)
def test_redraw_histograms_match_engine(variant, model):
    trials = 100_000
    config = SimConfig(variant, 20, trials, seed=23, record_traces=False)
    records = run_election(config)
    hist = records.round_histogram()
    empirical = IntegerLaw.from_dict({j: c / trials for j, c in hist.items()})
    table = compute_phase_table(model, 20)
    gap = dtv(empirical, law_from_phase(table, 20))
    assert gap < 4.0 * math.sqrt(table.j_max / trials)


def test_conditional_second_round_monte_carlo():
    est = conditional_second_round(200_000, seed=12)
    exact = float(fixtures.SECOND_ROUND_CONDITIONAL)
    assert est.trials > 1000
    assert abs(est.point - exact) < 3 * est.stderr + 1e-12
    redraw = conditional_second_round(100_000, seed=13, variant=RingVariant.REDRAW_CIRCULAR)
    assert abs(redraw.point - 1.0 / 3.0) < 4 * redraw.stderr


def _reference_conditional(trials, seed, variant, *, ring_size=8, first_round=4,
                            second_round=2):
    """The conditional estimate by a loop of its own, apart from
    ``_play``: each batch draws its rings, masks their first round, and
    plays the second on the rows with ``first_round`` survivors alone,
    drawing redraw keys for those rows only."""
    events = hits = 0
    for start in range(0, trials, _BATCH):
        rng = _batch_rng(seed, start // _BATCH)
        rows = min(start + _BATCH, trials) - start
        keys = _raw_keys(rng, rows * ring_size)
        mask, counts = franklin._circle_round(keys, ring_size)
        selected = counts == first_round
        chosen = int(selected.sum())
        if not chosen:
            continue
        if variant is RingVariant.TRUE_PERSISTENT:
            kept = np.compress(mask & np.repeat(selected, ring_size), keys)
        else:
            kept = _raw_keys(rng, chosen * first_round)
        events += chosen
        hits += int((franklin._circle_round(kept, first_round)[1] == second_round).sum())
    return hits / events, events


@pytest.mark.parametrize(
    "variant,seed,shape",
    [
        (RingVariant.TRUE_PERSISTENT, 1, {}),
        (RingVariant.TRUE_PERSISTENT, 13, {}),
        (RingVariant.REDRAW_CIRCULAR, 1, {}),
        (RingVariant.REDRAW_CIRCULAR, 13, {}),
        (RingVariant.TRUE_PERSISTENT, 1, {"ring_size": 11}),
        (RingVariant.TRUE_PERSISTENT, 1, {"first_round": 3, "second_round": 1}),
        # rings with more survivors play round two too, but draw after the
        # narrower event rows, so the events read the same words
        (RingVariant.REDRAW_CIRCULAR, 1, {"first_round": 3, "second_round": 1}),
    ],
)
def test_conditional_plays_like_its_own_loop(variant, seed, shape):
    est = conditional_second_round(3 * _BATCH + 100, seed, variant, min_events=1, **shape)
    assert (est.point, est.trials) == _reference_conditional(
        3 * _BATCH + 100, seed, variant, **shape)


def test_every_game_plays_through_one_round_stepper(monkeypatch):
    calls = []

    def play(config, max_rounds=None):
        calls.append(config.variant)
        return play_rounds(config, max_rounds)

    play_rounds = franklin._play
    monkeypatch.setattr(franklin, "_play", play)
    run_election(SimConfig(RingVariant.REDRAW_CIRCULAR, 6, 10, seed=1))
    survivors_after_rounds(RingVariant.REDRAW_LINEAR_I, 6, 10, seed=1)
    estimate_c2(12, 10, seed=1)
    conditional_second_round(100, seed=1, variant=RingVariant.REDRAW_CIRCULAR, min_events=1)
    assert calls == [RingVariant.REDRAW_CIRCULAR, RingVariant.REDRAW_LINEAR_I,
                     RingVariant.TRUE_PERSISTENT, RingVariant.REDRAW_CIRCULAR]


@pytest.mark.parametrize("variant", [RingVariant.REDRAW_LINEAR_I, RingVariant.REDRAW_LINEAR_II])
def test_conditional_rejects_linear_variants(variant):
    # both rounds are played on the circle, which a linear rule is not
    with pytest.raises(ValueError, match="circular variant"):
        conditional_second_round(200_000, seed=3, variant=variant)


@pytest.mark.parametrize("variant", [RingVariant.TRUE_PERSISTENT, RingVariant.REDRAW_CIRCULAR])
def test_conditional_needs_a_second_round(variant):
    # one first-round survivor plays no second round, and the peak mask
    # needs rows of two or more players
    with pytest.raises(ValueError, match="first_round >= 2"):
        conditional_second_round(2000, seed=1, variant=variant, first_round=1)


def test_conditional_requires_enough_events():
    with pytest.raises(ValueError, match="conditioning events"):
        conditional_second_round(2000, seed=1)


def test_estimate_c2_variants():
    persistent = estimate_c2(2000, 4000, seed=77)
    assert persistent.sigmas_from(closed_form_c2()) < 4.0
    redraw = estimate_c2(2000, 4000, seed=78, variant=RingVariant.REDRAW_CIRCULAR)
    assert abs(redraw.point - 1.0 / 9.0) < 4 * redraw.stderr + 1e-3


def test_mean_survival_ratio_trend():
    config = SimConfig(RingVariant.REDRAW_CIRCULAR, 81, 4000, seed=3)
    ratios = mean_survival_ratios(run_election(config))
    assert abs(ratios[0] - 1.0 / 3.0) < 0.01  # first round thins to n/3


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(RingVariant.REDRAW_CIRCULAR, 1, 10, seed=0)
    with pytest.raises(ValueError):
        SimConfig(RingVariant.REDRAW_CIRCULAR, 5, 0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(RingVariant.REDRAW_CIRCULAR, 5, 10, seed=0, stop_threshold=0)
    records = run_election(SimConfig(RingVariant.REDRAW_CIRCULAR, 5, 10, seed=0,
                                     record_traces=False))
    with pytest.raises(ValueError):
        records.trace(0)


def test_linear_i_emergency_exit_terminates():
    # two players under the interior-only rule wipe out and the pick ends it
    records = run_election(SimConfig(RingVariant.REDRAW_LINEAR_I, 2, 50, seed=2))
    assert np.all(records.rounds == 1)
    assert all(records.trace(t)[-1] == 0 for t in range(50))


def _peak_flags(row, variant):
    """Peak definition by hand: a peak's (key, position) pair beats each
    neighbour's, so equal keys are ranked by position; neighbours wrap
    around on the circular rules; on a line the ends compare with their
    one neighbour (linear-II) or never survive (linear-I)."""
    width, last = len(row), len(row) - 1
    flags = []
    for i, v in enumerate(row):
        if variant in (RingVariant.TRUE_PERSISTENT, RingVariant.REDRAW_CIRCULAR):
            neighbours = ((i - 1) % width, (i + 1) % width)
        elif 0 < i < last:
            neighbours = (i - 1, i + 1)
        elif variant is RingVariant.REDRAW_LINEAR_II:
            neighbours = (1 if i == 0 else last - 1,)
        else:
            neighbours = None
        flags.append(neighbours is not None and all((v, i) > (row[j], j) for j in neighbours))
    return flags


@given(st.lists(st.integers(2, 12).flatmap(lambda width: st.lists(
    st.integers(0, 7), min_size=width, max_size=width,
)), min_size=1, max_size=6))
def test_peak_mask_matches_definition(rows):
    # ragged rows of mixed widths, back to back as a round plays them; keys
    # from a small range, so that equal neighbours are common
    keys = np.array([key for row in rows for key in row], dtype=np.int64)
    offsets = np.cumsum([0] + [len(row) for row in rows])
    boundary = {
        RingVariant.TRUE_PERSISTENT: PeakVariant.CIRCULAR,
        RingVariant.REDRAW_CIRCULAR: PeakVariant.CIRCULAR,
        RingVariant.REDRAW_LINEAR_I: PeakVariant.LINEAR_I,
        RingVariant.REDRAW_LINEAR_II: PeakVariant.LINEAR_II,
    }
    for variant in RingVariant:
        mask = _peak_mask(keys, offsets, variant)
        counts = _row_counts(mask, offsets, 12)
        for r, row in enumerate(rows):
            assert list(mask[offsets[r] : offsets[r + 1]]) == _peak_flags(row, variant)
            assert counts[r] == mask[offsets[r] : offsets[r + 1]].sum()
            if len(set(row)) == len(row):
                assert counts[r] == count_peaks(row, boundary[variant])


@pytest.mark.parametrize("width", [255, 256, 65535, 65536])
def test_row_counts_at_accumulator_bounds(width):
    # alternating high and low keys: every high key of a row is a peak, so
    # a row holds width // 2 survivors, which the accumulator chosen for
    # ``most = width`` must hold
    keys = np.tile(np.arange(width) % 2, 3).astype(np.int64)
    offsets = np.arange(4, dtype=np.int64) * width
    mask = _peak_mask(keys, offsets, RingVariant.TRUE_PERSISTENT)
    counts = _row_counts(mask, offsets, width)
    assert counts.dtype == np.int64
    assert counts.tolist() == [width // 2] * 3


@pytest.mark.parametrize("n", [100, 10_000])
def test_row_counts_copy_at_most_two_bytes_a_key(n):
    # one span of rows of width n, as a round counts it: reduceat copies the
    # mask to its accumulator, two bytes a key; 4 or 8 would fail
    rows = franklin._SPAN // n
    mask = np.random.default_rng(n).random(rows * n) < 0.3
    offsets = np.arange(rows + 1, dtype=np.int64) * n
    tracemalloc.start()
    try:
        _row_counts(mask, offsets, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * rows * n


@pytest.mark.parametrize("variant", list(RingVariant))
def test_fixed_rounds_agree_with_full_traces(variant):
    trials = _BATCH + 500
    records = run_election(SimConfig(variant, 12, trials, seed=8))
    for r in (1, 2, 3):
        counts = survivors_after_rounds(variant, 12, trials, seed=8, rounds=r)
        expected = [records.trace(t)[min(r, len(records.trace(t))) - 1] for t in range(trials)]
        assert np.array_equal(counts, expected)


def test_fixed_rounds_rejects_zero_rounds():
    with pytest.raises(ValueError, match="rounds >= 1"):
        survivors_after_rounds(RingVariant.TRUE_PERSISTENT, 9, 10, seed=0, rounds=0)


@pytest.mark.parametrize(
    "config",
    [
        SimConfig(RingVariant.REDRAW_CIRCULAR, 81, 4000, seed=3),
        SimConfig(RingVariant.REDRAW_LINEAR_I, 5, 3000, seed=6),  # many wipe out
    ],
)
def test_mean_survival_ratios_match_loop(config):
    records = run_election(config)
    sums, norms = [0.0] * 6, [0] * 6
    for trial in range(config.trials):
        prev = config.n
        for r, count in enumerate(records.trace(trial)[:6]):
            sums[r] += count / prev if prev else 0.0
            norms[r] += 1
            prev = count
    expected = [s / k for s, k in zip(sums, norms) if k]
    ratios = mean_survival_ratios(records)
    assert len(ratios) == len(expected)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(ratios, expected))


# SHA-256 over (rounds, trace_flat) of run_election for n in (2, 9, 30, 100)
# and trials in (100, 9000), seed n + trials; fixed when the fresh-key
# rounds were still drawn as whole group matrices.
_GRID_DIGESTS = {
    (RingVariant.TRUE_PERSISTENT, 1): "ca1fbf729b138948313cc1d84abe398d40599081638fbc78ae6d72b651f9eff1",
    (RingVariant.TRUE_PERSISTENT, 3): "b62dd852c60cb0f1a2c527b1563d03822348eb53682109190613fd1c24797ab2",
    (RingVariant.REDRAW_CIRCULAR, 1): "043004a766fbeb2614f4add6e20985e969434538b333d1bf29378709be0961dc",
    (RingVariant.REDRAW_CIRCULAR, 3): "74e29b364ecfb52f1e335dd880c6e27d151a4dc83f29c590cf1612845f5ea4cd",
    (RingVariant.REDRAW_LINEAR_I, 1): "4e804fef68c9054c5354a346cd69a8081a3cb51e9d60517b1114f98864e2c2ec",
    (RingVariant.REDRAW_LINEAR_I, 3): "68248ebae121c15407828996257c90e67d2e0b90445db029dfd80475beb131ed",
    (RingVariant.REDRAW_LINEAR_II, 1): "3288715cb7f7dda3fd29b8af8c2acadeec88708006ebbfc07cd47229692a4d7e",
    (RingVariant.REDRAW_LINEAR_II, 3): "4142927ae90d65b7460584754ee1479510a014a6a0590951c1450aed39a0d4f8",
}


def _grid_runs(variant, threshold, trial_counts=(100, 9000)):
    for n in (2, 9, 30, 100):
        for trials in trial_counts:
            config = SimConfig(variant, n, trials, seed=n + trials, stop_threshold=threshold)
            records = run_election(config)
            yield records.rounds.astype("<i4").tobytes()
            yield records.trace_flat.astype("<i8").tobytes()


def _grid_digest(variant, threshold):
    return hashlib.sha256(b"".join(_grid_runs(variant, threshold))).hexdigest()


def _two_round_digest():
    counts = survivors_after_rounds(RingVariant.TRUE_PERSISTENT, 10_000, 600, seed=1)
    return hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest()


_TWO_ROUND_DIGEST = "e259d9e8cb2244c2b630649fc756ba941b8e823f6b7bcdce58b77366ca5940e3"


@pytest.mark.parametrize("variant,threshold", list(_GRID_DIGESTS))
def test_election_outputs_are_pinned(variant, threshold):
    assert _grid_digest(variant, threshold) == _GRID_DIGESTS[variant, threshold]


def test_two_round_counts_are_pinned():
    assert _two_round_digest() == _TWO_ROUND_DIGEST


def test_one_span_per_round(monkeypatch):
    monkeypatch.setattr(franklin, "_SPAN", 2**40)
    for variant, threshold in _GRID_DIGESTS:
        assert _grid_digest(variant, threshold) == _GRID_DIGESTS[variant, threshold]
    assert _two_round_digest() == _TWO_ROUND_DIGEST


def test_one_row_per_span(monkeypatch):
    # every row drawn, masked and kept on its own plays the same games; the
    # 9000-trial grid runs take about 40 s this way, so the grid's 100-trial
    # runs are compared with the default cut instead of the pinned digests
    default = {key: list(_grid_runs(*key, trial_counts=(100,))) for key in _GRID_DIGESTS}
    monkeypatch.setattr(franklin, "_SPAN", 1)
    for key, runs in default.items():
        assert list(_grid_runs(*key, trial_counts=(100,))) == runs
    assert _two_round_digest() == _TWO_ROUND_DIGEST


def test_persistent_groups_play_like_whole_batches(monkeypatch):
    # at n = 1000 a group is 131 rows, which divides neither batch of
    # _BATCH + 300 trials, so one group crosses into the second batch; one
    # span per round plays all trials as one group
    config = SimConfig(RingVariant.TRUE_PERSISTENT, 1000, _BATCH + 300, seed=16)

    def runs():
        records = run_election(config)
        return (records.rounds.tolist(), records.trace_flat.tolist(),
                survivors_after_rounds(config.variant, config.n, config.trials, seed=17).tolist())

    grouped = runs()
    monkeypatch.setattr(franklin, "_SPAN", 2**40)
    assert runs() == grouped


def test_persistent_memory_is_one_group(monkeypatch):
    # a group of 13 rows of 10^4 keys is one span: its draw, its mask, the
    # kept keys compressed out of it (at most half a span) and their
    # positions fit in two spans of words, so the calling thread and a
    # helper, each playing one group, fit in four; a batch's kept keys alone
    # would take 20 MB
    monkeypatch.setattr(franklin, "_HELPERS", 1)
    threads = set()
    play_group = franklin._play_group

    def group(*args):
        threads.add(threading.get_ident())
        return play_group(*args)

    monkeypatch.setattr(franklin, "_play_group", group)
    tracemalloc.start()
    try:
        survivors_after_rounds(RingVariant.TRUE_PERSISTENT, 10_000, 512, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(threads) == 2
    assert peak < 4 * 8 * franklin._SPAN


def _plant(monkeypatch, plant):
    """Pass every key draw through ``plant(call, keys)``, which may change
    the keys in place, and record the draws as they are returned."""
    draws = []

    def raw_keys(rng, count):
        keys = _raw_keys(rng, count)
        plant(len(draws), keys)
        draws.append(keys.copy())
        return keys

    monkeypatch.setattr(franklin, "_raw_keys", raw_keys)
    return draws


# Every planted run plays one batch of persistent trials whose round one
# is a single span, so one draw holds every key the batch plays.
_ELECTION = SimConfig(RingVariant.TRUE_PERSISTENT, 6, 50, seed=21)


def _elect():
    records = run_election(_ELECTION)
    return records.rounds.tolist(), records.trace_flat.tolist()


def _two_rounds():
    return survivors_after_rounds(_ELECTION.variant, _ELECTION.n, _ELECTION.trials,
                                  _ELECTION.seed).tolist()


def _conditional():
    est = conditional_second_round(_BATCH, seed=21, min_events=1)
    return est.point, est.trials


_GAMES = {"election": (_elect, 6), "two-rounds": (_two_rounds, 6), "conditional": (_conditional, 8)}


def _planted_and_reference(monkeypatch, game, plant_row, reference_row):
    """Play ``game`` with row 1 of its first draw changed by ``plant_row``,
    then again with that row changed by ``reference_row`` instead, and
    return each outcome with the lengths of its draws."""
    play, width = _GAMES[game]

    def first_draw(change):
        def plant(call, keys):
            if call == 0:
                change(keys[width : 2 * width])
        return plant

    draws = _plant(monkeypatch, first_draw(plant_row))
    planted = play()
    planted_draws = [len(d) for d in draws]
    draws = _plant(monkeypatch, first_draw(reference_row))
    return planted, planted_draws, play(), [len(d) for d in draws]


@pytest.mark.parametrize("game", list(_GAMES))
def test_tie_never_compared_keeps_row_and_stream(monkeypatch, game):
    # the two lowest keys of a row, two apart: neither is a peak, so no
    # round compares them, and the tie changes no draw and no outcome
    def tie(row):
        row[0] = row[2] = 0

    def distinct(row):
        row[0], row[2] = 0, 1

    planted, planted_draws, reference, reference_draws = _planted_and_reference(
        monkeypatch, game, tie, distinct)
    assert planted == reference
    assert planted_draws == reference_draws
    assert len(planted_draws) == 1


_TOP = 2**63 - 1


@pytest.mark.parametrize("game", list(_GAMES))
@pytest.mark.parametrize("kind", ["neighbours", "wrap", "kept"])
def test_ties_rank_by_ring_position(monkeypatch, game, kind):
    # equal top keys, so that the tied players contend: two row neighbours
    # or a row's first and last player in round one; or every other player
    # holding a top key but one, which holds a lower one, so that round one
    # keeps them all and round two compares equal kept keys that became
    # neighbours.  Each plays like the same keys with the earlier-position
    # keys lowered by one per later tied key, and draws no extra words
    width = _GAMES[game][1]
    tied = {
        "neighbours": [2, 3],
        "wrap": [0, width - 1],
        "kept": [i for i in range(1, width, 2) if i != width - 3],
    }[kind]

    def top_keys(lowered):
        def change(row):
            if kind == "kept":
                row[1::2] = _TOP
                row[width - 3] = _TOP - 2**32
            row[tied] = _TOP - lowered * np.arange(len(tied))[::-1]
        return change

    planted, planted_draws, reference, reference_draws = _planted_and_reference(
        monkeypatch, game, top_keys(0), top_keys(1))
    assert planted == reference
    assert planted_draws == reference_draws
    assert len(planted_draws) == 1


def test_threads_play_like_sequential_runs():
    # every buffer belongs to one call: the module holds no arrays
    assert not [name for name, value in vars(franklin).items() if isinstance(value, np.ndarray)]
    configs = [
        SimConfig(RingVariant.TRUE_PERSISTENT, 40, 6000, seed=8),
        SimConfig(RingVariant.TRUE_PERSISTENT, 300, 6000, seed=8),
        SimConfig(RingVariant.REDRAW_CIRCULAR, 30, 6000, seed=9),
    ]
    sequential = [run_election(config) for config in configs]
    with ThreadPoolExecutor(max_workers=len(configs)) as pool:
        threaded = list(pool.map(run_election, configs))
    for a, b in zip(sequential, threaded):
        assert np.array_equal(a.rounds, b.rounds)
        assert np.array_equal(a.trace_flat, b.trace_flat)


@pytest.mark.parametrize("seed,shape", [(0, (1,)), (3, (7, 5)), (11, (256, 100)), (2**40, (3, 10_000))])
def test_raw_keys_equal_bounded_integers(seed, shape):
    # the raw-word draw stands in for numpy's bounded draw of 63-bit keys;
    # a numpy release that changes that draw should fail here, not shift
    # every seed silently
    count = math.prod(shape)
    expected = _batch_rng(seed, 1).integers(0, 2**63, size=shape, dtype=np.int64)
    assert np.array_equal(_raw_keys(_batch_rng(seed, 1), count).reshape(shape), expected)
    rng = _batch_rng(seed, 1)
    head = _raw_keys(rng, count // 2)
    assert np.array_equal(np.concatenate([head, _raw_keys(rng, count - count // 2)]),
                          expected.ravel())


def _games(config):
    """Every output of the config's trials: the rounds as the stepper
    yields them, the election's rounds and traces, the counts after two
    rounds, and, on a circular variant, the conditional estimate on rings
    of ``config.n``."""
    records = run_election(config)
    out = [[(r, trials.tolist(), counts.tolist()) for r, trials, counts in franklin._play(config)],
           records.rounds.tolist(), records.trace_flat.tolist(),
           survivors_after_rounds(config.variant, config.n, config.trials, config.seed).tolist()]
    if config.variant in (RingVariant.TRUE_PERSISTENT, RingVariant.REDRAW_CIRCULAR):
        first = config.n // 3
        est = conditional_second_round(config.trials, config.seed, config.variant,
                                       ring_size=config.n, first_round=first,
                                       second_round=first // 3, min_events=1)
        out.append((est.point, est.trials))
    return out


@pytest.mark.parametrize("variant", list(RingVariant))
@pytest.mark.parametrize("n,span,batches", [(9, 2**12, 3), (101, None, 3), (8, None, 5)],
                         ids=["small-span", "default-span", "small-ring"])
def test_helper_threads_play_like_one_thread(monkeypatch, variant, n, span, batches):
    # batches * _BATCH + 123 trials are a multiple of no group and no
    # batch.  A persistent group is 455 rows of 9 keys (4095 words), 1297
    # rows of 101 (130,997) or 16,384 rows of 8, so groups start at every
    # word offset mod 4 and cross batch boundaries; redraw groups are single
    # batches, also on rings of 8, where four batches hold one span
    if span:
        monkeypatch.setattr(franklin, "_SPAN", span)
    config = SimConfig(variant, n, batches * _BATCH + 123, seed=n)
    assert len(franklin._groups(config)) > 1
    played = {}
    for helpers in (0, 1):
        monkeypatch.setattr(franklin, "_HELPERS", helpers)
        played[helpers] = _games(config)
    assert played[0] == played[1]


@pytest.mark.parametrize("variant,n,trials,count", [
    (RingVariant.TRUE_PERSISTENT, 10_000, 4096, 316),  # ring-sim c2
    (RingVariant.REDRAW_CIRCULAR, 100, 200_000, 49),  # ring-sim histogram
    (RingVariant.TRUE_PERSISTENT, 8, 1_000_000, 62),  # ring-sim conditional
    (RingVariant.REDRAW_CIRCULAR, 8, 1_000_000, 245),
], ids=["c2", "histogram", "conditional", "redraw-conditional"])
def test_groups_are_batches_or_spans_of_rows(variant, n, trials, count):
    # a redraw group is one batch, however narrow its rings; a persistent
    # group is _SPAN // n rows, wherever the batches start
    groups = franklin._groups(SimConfig(variant, n, trials, seed=1))
    rows = _SPAN // n if variant is RingVariant.TRUE_PERSISTENT else _BATCH
    los, his = zip(*groups)
    assert len(groups) == count
    assert los[0] == 0 and los[1:] == his[:-1] and his[-1] == trials
    assert {hi - lo for lo, hi in groups[:-1]} == {rows}


@pytest.mark.parametrize("lo,hi", [(0, 5), (1, 3), (2, 9), (3, 4),
                                   (_BATCH - 2, _BATCH + 3), (_BATCH - 1, 3 * _BATCH + 2)])
def test_first_keys_are_their_batch_words(lo, hi):
    # trial t of batch b reads words (t - b _BATCH) n to (t - b _BATCH + 1) n
    # of batch b's raw stream; at n = 7 the first trials of these groups
    # start at word offsets 0, 3, 2 and 1 mod 4, and two cross batches
    n = 7
    config = SimConfig(RingVariant.TRUE_PERSISTENT, n, 4 * _BATCH, seed=5)
    streams = [_batch_rng(5, b).bit_generator.random_raw(_BATCH * n) >> 1 for b in range(4)]
    expected = [streams[t // _BATCH][t % _BATCH * n : (t % _BATCH + 1) * n] for t in range(lo, hi)]
    assert np.array_equal(_first_keys(config, lo, hi), np.concatenate(expected).view(np.int64))


# ten persistent groups of 1310 rows at the default span
_THREADED = SimConfig(RingVariant.TRUE_PERSISTENT, 100, 3 * _BATCH, seed=2)


def test_closing_the_rounds_joins_the_helper(monkeypatch):
    monkeypatch.setattr(franklin, "_HELPERS", 1)
    before = threading.enumerate()
    rounds = franklin._play(_THREADED)
    next(rounds)
    assert len(threading.enumerate()) == len(before) + 1
    rounds.close()
    assert threading.enumerate() == before


@pytest.mark.parametrize("failing_call", [1, 6, 30])
def test_failed_job_reaches_the_caller(monkeypatch, failing_call):
    monkeypatch.setattr(franklin, "_HELPERS", 1)
    calls = itertools.count(1)
    peak_mask = franklin._peak_mask

    def failing(*args):
        if next(calls) == failing_call:
            raise RuntimeError("planted")
        return peak_mask(*args)

    monkeypatch.setattr(franklin, "_peak_mask", failing)
    before = threading.enumerate()
    with pytest.raises(RuntimeError, match="planted"):
        run_election(_THREADED)
    assert threading.enumerate() == before


def test_helper_failure_reaches_the_caller(monkeypatch):
    # the calling thread waits in its first group until a helper has failed
    # in another, so the failure is the helper's
    monkeypatch.setattr(franklin, "_HELPERS", 1)
    helper_failed = threading.Event()
    peak_mask = franklin._peak_mask

    def failing(*args):
        if threading.current_thread() is threading.main_thread():
            assert helper_failed.wait(10)
            return peak_mask(*args)
        helper_failed.set()
        raise RuntimeError("planted in a helper")

    monkeypatch.setattr(franklin, "_peak_mask", failing)
    before = threading.enumerate()
    with pytest.raises(RuntimeError, match="planted in a helper"):
        run_election(_THREADED)
    assert threading.enumerate() == before
