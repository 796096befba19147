"""Monte Carlo simulation of the ring election game.

The true game hands every player one persistent random key: survivors of
a round are the players whose key beats both nearest *surviving*
neighbours, and they keep their keys.  That chain is not driven by a
per-round survivor law, so it is simulated here rather than computed.
The redraw variants hand out fresh keys each round and are exactly the
chains the phase engine computes; simulating them supplies an
engine-independent consistency check.

One round-stepper, ``_play``, runs every game: it yields each round's
survivor counts per group of trials, and ``run_election``,
``survivors_after_rounds`` (behind ``estimate_c2``) and
``conditional_second_round`` only record what it yields; the exhaustive
oracle alone plays its rounds apart (``_circle_round``), so tests can
compare the stepper with it.  A round is played on flat arrays: trial
ids, widths and, for persistent keys, one back-to-back array of kept
keys.  It is cut into spans of whole rows holding at most ``_SPAN``
words, and each span draws its fresh keys (round one of every variant,
every round of the redraw variants) with one call, masks its peaks with
one flat kernel that compares each key once with its left neighbour
(``_peak_mask``), counts survivors per row with one ``np.add.reduceat``
in a narrow integer type (``_row_counts``) and passes persistent keys on
by one compress, so fresh keys exist only a span at a time.  Rows with
fresh keys stay in stable ascending width order, and a key is one raw
Philox word shifted right by one bit (see ``_raw_keys``), so every row
reads fixed words of its batch's stream.  A group of a redraw variant is
a whole batch.  A group of persistent keys is one span of round one,
whose rows may come from more than one batch, played to the end of its
games: persistent keys are drawn in round one only, so this reads the
same words as playing each batch round by round, and every round of a
group is one span, so its kept keys are one compressed array of at most
half a span.

Equal keys are ranked by ring position: every round orders its players
by the pair (key, position), so a player beats its left neighbour on an
equal key and loses to its right one (see ``_peak_mask``).  Survivors keep
their ring order, so on persistent keys this is one fixed total order for
the whole game, and no key is ever checked for ties or redrawn, so no
draw depends on the values of an earlier one and where the rows are cut
into spans never changes an outcome.  A game with no equal compared keys
plays exactly as it would on distinct keys, so every law moves by at most
the chance of a tie in a row of width w, below w^2 / 2^64.

Trials run in fixed-size batches, each with its own counter-based RNG
substream keyed by (seed, batch index), so results are reproducible
bit-for-bit and merge order-independently.  Because the streams are
counter-based, every group is independent: a persistent group that
starts w words into its batch builds the batch's Philox generator and
moves it there (``advance(w // 4)``, then ``w % 4`` words discarded), and
a redraw group starts its batch's stream.  So ``_play`` plays the groups
on the calling thread plus one helper thread per other CPU the process
may run on (``len(os.sched_getaffinity(0)) - 1``; none with one CPU).
The helpers start and are joined inside each ``_play`` call, and it
yields the rounds group by group in group order, so every output is the
same bit for bit whatever the thread count.  Nothing is shared between
calls, so threads may also run games at once.
"""
from __future__ import annotations

import itertools
import math
import os
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

_BATCH = 4096
#: most key words of one span of rows, drawn, masked and counted at once
_SPAN = 1 << 17
#: helper threads that play groups besides the calling one: one per other
#: CPU this process may run on
_HELPERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1) - 1


class RingVariant(str, Enum):
    TRUE_PERSISTENT = "true-persistent"
    REDRAW_CIRCULAR = "redraw-circular"
    REDRAW_LINEAR_I = "redraw-linear-i"
    REDRAW_LINEAR_II = "redraw-linear-ii"


@dataclass(frozen=True)
class SimConfig:
    variant: RingVariant
    n: int
    trials: int
    seed: int
    stop_threshold: int = 1
    record_traces: bool = True

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if self.stop_threshold < 1:
            raise ValueError("stop threshold must be >= 1")


@dataclass(frozen=True)
class SimEstimate:
    """A Monte Carlo point estimate with its standard error."""

    statistic: str
    point: float
    stderr: float
    trials: int
    extra: dict = field(default_factory=dict)

    def sigmas_from(self, reference: float) -> float:
        if self.stderr == 0.0:
            return math.inf if self.point != reference else 0.0
        return abs(self.point - reference) / self.stderr


@dataclass
class ElectionRecords:
    """Per-trial outcomes; traces are stored flat with offsets."""

    config: SimConfig
    rounds: np.ndarray
    trace_flat: np.ndarray | None
    trace_offsets: np.ndarray | None

    @property
    def messages(self) -> np.ndarray:
        """Link traversals per trial: 2n per round, since eliminated
        players keep relaying and each ring link is crossed twice per
        round regardless of how many players are left."""
        return self.rounds.astype(np.int64) * (2 * self.config.n)

    def trace(self, trial: int) -> np.ndarray:
        """Survivor counts after each round, starting from n."""
        if self.trace_flat is None:
            raise ValueError("run was configured with record_traces=False")
        lo, hi = self.trace_offsets[trial], self.trace_offsets[trial + 1]
        return self.trace_flat[lo:hi]

    def round_histogram(self) -> dict[int, int]:
        values, counts = np.unique(self.rounds, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(seed, batch_index)))
    )


def _raw_keys(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniform keys in [0, 2^63): one raw 64-bit word each,
    shifted right by one bit.  Bit for bit what
    ``rng.integers(0, 2**63, count, dtype=np.int64)`` returns, since its
    Lemire step for a range of 2^63 is exactly that shift.  The shift is
    made in place, so a draw allocates one array."""
    words = rng.bit_generator.random_raw(count)
    words >>= 1
    return words.view(np.int64)


def _offsets(widths: np.ndarray) -> np.ndarray:
    """Row starts of back-to-back rows, with the total words appended."""
    offsets = np.zeros(len(widths) + 1, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    return offsets


def _spans(offsets: np.ndarray) -> Iterator[tuple[int, int]]:
    """Cut back-to-back rows into ``(lo, hi)`` row ranges of whole rows,
    each holding at most ``_SPAN`` words, or one row if it is longer."""
    lo, rows = 0, len(offsets) - 1
    while lo < rows:
        hi = int(np.searchsorted(offsets, offsets[lo] + _SPAN, side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _peak_mask(keys: np.ndarray, offsets: np.ndarray, variant: RingVariant) -> np.ndarray:
    """Survivor mask of back-to-back rows, row r being
    ``keys[offsets[r]:offsets[r + 1]]``; every width must be >= 2.

    Players are ranked by the pair (key, ring position): a player beats
    its left neighbour when its key is ``>=`` that neighbour's, and its
    right neighbour only when its key is strictly ``>``, so equal keys are
    decided by position and a peak beats both neighbours.  Each key is
    compared once, with its left neighbour's, and an interior player
    survives when it wins that comparison and loses the next one.  The
    first and last player of a row wrap around on the circular rules (the
    last beats the first on ``>=``, the first beats the last only on
    ``>``), compare with their one neighbour on linear-II, and never
    survive on linear-I.
    """
    mask = np.empty(len(keys), dtype=bool)
    # up[i]: player i + 1 beats its left neighbour i, so player i beats its
    # right neighbour exactly when up[i] is False
    up = keys[1:] >= keys[:-1]
    np.greater(up[:-1], up[1:], out=mask[1:-1])
    first, last = offsets[:-1], offsets[1:] - 1
    if variant in (RingVariant.TRUE_PERSISTENT, RingVariant.REDRAW_CIRCULAR):
        head, tail = keys[first], keys[last]
        mask[first] = (head > tail) & ~up[first]
        mask[last] = (tail >= head) & up[last - 1]
    elif variant is RingVariant.REDRAW_LINEAR_II:
        mask[first] = ~up[first]
        mask[last] = up[last - 1]
    else:
        mask[first] = mask[last] = False
    return mask


def _row_counts(mask: np.ndarray, offsets: np.ndarray, most: int) -> np.ndarray:
    """Survivors per row, as int64, of a back-to-back mask whose rows are
    2 to ``most`` wide, by one ``np.add.reduceat``.  It first copies the
    mask to its accumulator type, so that is narrow: two bytes a word up
    to 65535, where int64 would take eight.  It is never uint8, since a
    second narrow type maps 64 KB more of numpy's loop code into the
    process for no measurable speed."""
    narrow = np.promote_types(np.min_scalar_type(most), np.uint16)
    return np.add.reduceat(mask, offsets[:-1], dtype=narrow).astype(np.int64)


def _groups(config: SimConfig) -> list[tuple[int, int]]:
    """Cut the trials into groups ``(lo, hi)``: a redraw group is one
    batch, a persistent group ``_SPAN // n`` rows (one row if it is
    longer), which may cross a batch boundary."""
    persistent = config.variant is RingVariant.TRUE_PERSISTENT
    rows = max(_SPAN // config.n, 1) if persistent else _BATCH
    return [(lo, min(lo + rows, config.trials)) for lo in range(0, config.trials, rows)]


def _first_keys(config: SimConfig, lo: int, hi: int) -> np.ndarray:
    """Round-one keys of trials ``lo`` to ``hi``, row after row: trial t of
    the batch starting at trial s reads words ``(t - s) n`` to
    ``(t - s + 1) n`` of that batch's stream.  Each batch the trials cover
    gets a fresh generator, moved to the group's first word: Philox4x64
    makes four words per counter step, so it advances ``offset // 4``
    steps and discards ``offset % 4`` words."""
    batches = range(lo - lo % _BATCH, hi, _BATCH)
    # trials from several batches fill one array a batch at a time
    keys = np.empty((hi - lo) * config.n, dtype=np.int64) if len(batches) > 1 else None
    for start in batches:
        first, stop = max(lo, start), min(hi, start + _BATCH)
        rng = _batch_rng(config.seed, start // _BATCH)
        offset = (first - start) * config.n
        rng.bit_generator.advance(offset // 4)
        rng.bit_generator.random_raw(offset % 4)
        words = _raw_keys(rng, (stop - first) * config.n)
        if keys is None:
            return words
        keys[(first - lo) * config.n : (stop - lo) * config.n] = words
    return keys


def _play_group(
    config: SimConfig, first: int, stop: int, max_rounds: int | None
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Play the trials ``first`` to ``stop`` of one group to the end of
    their games: on persistent keys from their round-one keys
    (:func:`_first_keys`), row after row; on redraw keys with fresh keys
    from their batch's stream every round."""
    persistent = config.variant is RingVariant.TRUE_PERSISTENT
    if persistent:
        kept = _first_keys(config, first, stop)
    else:
        rng = _batch_rng(config.seed, first // _BATCH)
    trials = np.arange(first, stop, dtype=np.int64)
    widths = np.full(len(trials), config.n, dtype=np.int64)
    round_ = 0
    while len(trials):
        round_ += 1
        offsets = _offsets(widths)
        counts = np.empty(len(trials), dtype=np.int64)
        for lo, hi in _spans(offsets):
            span = offsets[lo : hi + 1] - offsets[lo]
            if persistent:
                keys = kept[offsets[lo] : offsets[hi]]
            else:
                keys = _raw_keys(rng, int(span[-1]))
            mask = _peak_mask(keys, span, config.variant)
            counts[lo:hi] = _row_counts(mask, span, config.n)
            if persistent and round_ != max_rounds:
                # a persistent round is one span, so this span holds every
                # row of the round
                stays = counts > config.stop_threshold
                if round_ == 1 and not stays.all():
                    # every row is n wide: take the staying rows first
                    keys, mask = (np.compress(stays, a.reshape(-1, config.n), axis=0).ravel()
                                  for a in (keys, mask))
                elif not stays.all():
                    mask &= np.repeat(stays, widths)
                kept = np.compress(mask, keys)
            # free the span's fresh keys before the next span draws
            del keys, mask
        yield round_, trials, counts
        if round_ == max_rounds:
            break
        stays = counts > config.stop_threshold
        trials, widths = trials[stays], counts[stays]
        if not persistent:
            # numpy radix-sorts ints of 16 bits or fewer when stable
            order = np.argsort(widths.astype(np.min_scalar_type(config.n)), kind="stable")
            trials, widths = trials[order], widths[order]


def _in_order(jobs: list, helpers: int, run: Callable) -> Iterator:
    """Yield ``run(job)`` for every job, in job order, while the calling
    thread and ``helpers`` helper threads run them.

    Every thread claims the next unclaimed job under one lock; the caller
    claims one whenever the result it must yield next is not ready, and
    helpers stay at most ``2 * (helpers + 1)`` jobs ahead of it, so few
    results wait.  An exception raised by a job is raised to the caller
    where that job's result would have been yielded.  The helpers start
    on the first ``next`` and are joined when the generator ends, fails or
    is closed.
    """
    cond = threading.Condition()
    results: dict = {}
    claimed = wanted = 0
    stopped = False
    ahead = 2 * (helpers + 1)

    def finish(i: int) -> None:
        try:
            result = run(jobs[i])
        except BaseException as exc:  # raised on the caller's thread in order
            result = exc
        with cond:
            results[i] = result
            cond.notify_all()

    def helper() -> None:
        nonlocal claimed
        while True:
            with cond:
                cond.wait_for(lambda: stopped or claimed < min(len(jobs), wanted + ahead))
                if stopped:
                    return
                i, claimed = claimed, claimed + 1
            finish(i)

    threads = [threading.Thread(target=helper, daemon=True) for _ in range(helpers)]
    for thread in threads:
        thread.start()
    try:
        for wanted in range(len(jobs)):
            with cond:
                cond.notify_all()  # the helpers may run one job further
            while True:
                with cond:
                    if wanted in results:
                        result = results.pop(wanted)
                        break
                    if claimed == len(jobs):
                        cond.wait()
                        continue
                    i, claimed = claimed, claimed + 1
                finish(i)
            if isinstance(result, BaseException):
                raise result
            yield result
    finally:
        with cond:
            stopped = True
            cond.notify_all()
        for thread in threads:
            thread.join()


def _play(
    config: SimConfig, max_rounds: int | None = None
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Play every trial round by round, yielding ``(round, trials, counts)``.

    Each yield covers one round of one group of trials: the trials that
    entered it and the survivors of each.  A trial leaves once its count
    is at most ``config.stop_threshold``, or after ``max_rounds`` rounds.

    A group plays every round before the next group starts
    (:func:`_groups`).  For the redraw variants a group is a whole batch,
    since their later rounds draw fresh keys in width order over all of
    its rows.  Persistent keys are drawn in round one only, so their group
    is one round-one span of ``_SPAN // n`` rows, which may cross a batch
    boundary and reads the words its rows read in one pass over the
    batches.  Later rounds are smaller, so every persistent round is one
    span, and its kept keys are one ``np.compress`` of that span: circular
    peaks are never adjacent, so they hold at most half a span.

    Every group builds its own generators (:func:`_play_group`), so groups
    are independent: the calling thread and ``_HELPERS`` helper threads,
    one per other usable CPU, play them at once (:func:`_in_order`), and
    the rounds are yielded group by group in group order, so every
    consumer sees the same sequence whatever the thread count.  With one
    usable CPU, or one group, the groups play on the calling thread alone,
    a round at a time.

    A round is played on flat arrays, one row per trial with its keys back
    to back, cut by :func:`_spans` into spans of at most ``_SPAN`` words:
    each span draws its fresh keys with one call, masks its peaks with one
    key comparison per player, counts its survivors per row with one
    narrow reduceat, and persistent keys pass on by one compress; the last
    round allowed keeps no keys.  Rows that get fresh keys stay in stable
    ascending width order, so every round draws its keys in one fixed
    order, which fixes the outcome of every seed; rows with kept keys draw
    nothing and keep the order they survived in.  Equal keys are ranked by
    ring position (see :func:`_peak_mask`), so no key is ever redrawn.
    """
    if config.n <= config.stop_threshold:
        return
    groups = _groups(config)
    helpers = min(_HELPERS, len(groups) - 1)
    if helpers < 1:
        for lo, hi in groups:
            yield from _play_group(config, lo, hi, max_rounds)
        return
    for rounds in _in_order(groups, helpers,
                            lambda group: list(_play_group(config, *group, max_rounds))):
        yield from rounds


def run_election(config: SimConfig) -> ElectionRecords:
    """Play the election to completion for every trial.

    Termination: the circular rules always keep at least one player and
    strictly shrink any set of two or more; linear-I may wipe everyone
    out, in which case the winner is drawn at random at zero cost and the
    trial simply ends.  Identical configs give bit-identical records.
    """
    rounds = np.zeros(config.trials, dtype=np.int32)
    steps = []
    for round_, idx, survivors in _play(config):
        rounds[idx] = round_
        if config.record_traces:
            steps.append((round_, idx, survivors))
    trace_flat = trace_offsets = None
    if config.record_traces:
        trace_offsets = np.zeros(config.trials + 1, dtype=np.int64)
        np.cumsum(rounds, out=trace_offsets[1:])
        trace_flat = np.empty(trace_offsets[-1], dtype=np.int64)
        for round_, idx, survivors in steps:
            trace_flat[trace_offsets[idx] + (round_ - 1)] = survivors
    return ElectionRecords(
        config=config,
        rounds=rounds,
        trace_flat=trace_flat,
        trace_offsets=trace_offsets,
    )


def survivors_after_rounds(
    variant: RingVariant, n: int, trials: int, seed: int, *, rounds: int = 2
) -> np.ndarray:
    """Survivor count of every trial after a fixed number of rounds.

    Leaner than :func:`run_election`: no traces, stops after ``rounds``
    eliminations (a trial ending earlier keeps its final count).
    """
    if rounds < 1:
        raise ValueError(f"need rounds >= 1, got {rounds}")
    config = SimConfig(variant, n, trials, seed, record_traces=False)
    out = np.zeros(trials, dtype=np.int64)
    for _, idx, survivors in _play(config, rounds):
        out[idx] = survivors
    return out


def closed_form_c2() -> float:
    """Two-round survival ratio of the persistent-key ring:
    (3 e^4 - 48 e^2 + 233) / 384."""
    e2 = math.exp(2.0)
    return (3.0 * e2 * e2 - 48.0 * e2 + 233.0) / 384.0


def estimate_c2(
    n: int, trials: int, seed: int, variant: RingVariant = RingVariant.TRUE_PERSISTENT
) -> SimEstimate:
    """Monte Carlo estimate of the expected two-round survival ratio."""
    counts = survivors_after_rounds(variant, n, trials, seed, rounds=2)
    ratios = counts / float(n)
    point = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SimEstimate(
        statistic="two-round-survival-ratio",
        point=point,
        stderr=stderr,
        trials=trials,
        extra={
            "n": n,
            "variant": variant.value,
            "reference_persistent": closed_form_c2(),
            "reference_redraw": 1.0 / 9.0,
        },
    )


def _circle_round(keys: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Circular peak mask and survivor counts of back-to-back rows of one
    width, for the exhaustive oracle, which plays apart from ``_play``."""
    offsets = np.arange(len(keys) // width + 1, dtype=np.int64) * width
    mask = _peak_mask(keys, offsets, RingVariant.TRUE_PERSISTENT)
    return mask, _row_counts(mask, offsets, width)


def exhaustive_second_round(
    *, ring_size: int = 8, first_round: int = 4, second_round: int = 2
) -> Fraction:
    """Exact conditional probability of the persistent-key second round.

    Enumerates every ordering of ``ring_size`` distinct keys, conditions
    on ``first_round`` survivors, and counts orderings whose survivors
    (keeping their keys, in ring order) leave ``second_round`` players.
    Both rounds are played on all orderings at once, as back-to-back rows.
    """
    if first_round < 2:
        raise ValueError(f"need first_round >= 2, got {first_round}")
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(ring_size))),
        dtype=np.int64,
        count=math.factorial(ring_size) * ring_size,
    )
    mask, counts = _circle_round(perms, ring_size)
    selected = counts == first_round
    conditioned = int(selected.sum())
    if conditioned == 0:
        raise ValueError("conditioning event impossible")
    kept = np.compress(mask & np.repeat(selected, ring_size), perms)
    hits = int((_circle_round(kept, first_round)[1] == second_round).sum())
    return Fraction(hits, conditioned)


def conditional_second_round(
    trials: int,
    seed: int,
    variant: RingVariant = RingVariant.TRUE_PERSISTENT,
    *,
    ring_size: int = 8,
    first_round: int = 4,
    second_round: int = 2,
    min_events: int = 1000,
) -> SimEstimate:
    """Monte Carlo version of :func:`exhaustive_second_round`.

    Both rounds are played on the circle, so only the circular variants
    are accepted: true-persistent keeps the first round's keys,
    redraw-circular draws fresh ones.  The rounds are two rounds of
    :func:`_play` with ``first_round - 1`` as the stop threshold: the
    events are the round-one rows with ``first_round`` survivors, and the
    hits those of them with ``second_round`` survivors after round two.
    Rings that keep more than ``first_round`` players play round two too,
    but with redraw keys they are wider than every event row, so they
    draw after them: the event rows read the same words of the batch's
    stream whether or not ``first_round`` is the ring's most peaks.
    Equal keys are ranked by ring position, as in every game (see
    :func:`_peak_mask`), which moves the estimate by less than the chance
    of a tie in a row of width w, w^2 / 2^64.
    """
    if variant not in (RingVariant.TRUE_PERSISTENT, RingVariant.REDRAW_CIRCULAR):
        raise ValueError(
            "the conditional estimate needs a circular variant "
            f"(true-persistent or redraw-circular), got {variant.value}"
        )
    if first_round < 2:
        raise ValueError(f"need first_round >= 2, got {first_round}")
    config = SimConfig(variant, ring_size, trials, seed, stop_threshold=first_round - 1,
                       record_traces=False)
    events = hits = 0
    for round_, played, counts in _play(config, 2):
        if round_ == 1:
            group, selected = played, counts == first_round
            events += int(selected.sum())
        else:
            # round two plays the group's rows that kept first_round or more
            chosen = selected[np.searchsorted(group, played)]
            hits += int(np.count_nonzero(chosen & (counts == second_round)))
    if events < min_events:
        raise ValueError(
            f"only {events} conditioning events; raise trials (need >= {min_events})"
        )
    p = hits / events
    stderr = math.sqrt(max(p * (1.0 - p), 1e-300) / events)
    return SimEstimate(
        statistic=f"P({second_round} of {first_round} | {ring_size}-ring)",
        point=p,
        stderr=stderr,
        trials=events,
        extra={"total_trials": trials, "variant": variant.value},
    )


def mean_survival_ratios(records: ElectionRecords, max_rounds: int = 6) -> list[float]:
    """Mean count-after-round / count-before-round, per round index.

    Evidence series for how fast the persistent-key game thins the ring;
    values near 1/3 echo the redraw behaviour, persistently lower values
    do not.
    """
    if records.trace_flat is None:
        raise ValueError("needs traces; run with record_traces=True")
    flat, offsets = records.trace_flat, records.trace_offsets
    lengths = np.diff(offsets)
    out = []
    for r in range(max_rounds):
        at = offsets[:-1][lengths > r] + r
        if not len(at):
            break
        # a trace continues only past counts above the stop threshold, so
        # every count divided by here is at least 2
        before = flat[at - 1] if r else records.config.n
        out.append(float(np.mean(flat[at] / before)))
    return out
