"""Monte Carlo simulation of the ring election game.

The true game hands every player one persistent random key: survivors of
a round are the players whose key beats both nearest *surviving*
neighbours, and they keep their keys.  That chain is not driven by a
per-round survivor law, so it is simulated here rather than computed.
The redraw variants hand out fresh keys each round and are exactly the
chains the phase engine computes; simulating them supplies an
engine-independent consistency check.

One round-stepper, ``_play``, runs every game: it yields each round's
survivor counts per block of equal-width trials, and ``run_election`` and
``survivors_after_rounds`` only record what it yields.  Groups with fresh
keys (round one of every variant, every round of the redraw variants) are
drawn, tie-checked, masked and regrouped 256 rows at a time, so no
group's full key matrix ever exists; persistent keys pass to the next
round by a mask select on the surviving rows, and those groups play
whole.  A key is one raw Philox word shifted right by one bit (see
``_raw_keys``).  Trials run in fixed-size batches, each with its own
counter-based RNG substream keyed by (seed, batch index), so results are
reproducible bit-for-bit and merge order-independently.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .peaks import PeakVariant, count_peaks

_BATCH = 4096
#: rows of fresh keys drawn, checked, masked and regrouped at once
_CHUNK = 256


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
    Lemire step for a range of 2^63 is exactly that shift."""
    return (rng.bit_generator.random_raw(count) >> 1).view(np.int64)


def _draw_distinct_keys(rng: np.random.Generator, m: int, width: int) -> np.ndarray:
    """``m`` rows of ``width`` uniform 63-bit keys (see :func:`_raw_keys`),
    redrawing any row containing a tie.

    Every key of a row is distinct, not only neighbours: persistent keys
    that are not adjacent now can become neighbours in a later round.
    ``_play`` calls this one row chunk at a time, so the sorted copy that
    finds ties stays a chunk's size.  Drawing the rows in chunks gives the
    keys of one whole draw unless a tie fires (about width^2 / 2^64 per
    row), since the chunks read one stream of words in order.
    """
    keys = _raw_keys(rng, m * width).reshape(m, width)
    while True:
        sorted_rows = np.sort(keys, axis=1)
        bad = (sorted_rows[:, 1:] == sorted_rows[:, :-1]).any(axis=1)
        if not bad.any():
            return keys
        keys[bad] = _raw_keys(rng, int(bad.sum()) * width).reshape(-1, width)


def _peak_mask(keys: np.ndarray, variant: RingVariant) -> np.ndarray:
    """Boolean survivor mask per row; width must be >= 2.

    Interior players compare with both row neighbours.  The end columns
    wrap around on the circular rules, compare with their one neighbour
    on linear-II, and never survive on linear-I.
    """
    mask = np.zeros(keys.shape, dtype=bool)
    inner = keys[:, 1:-1]
    mask[:, 1:-1] = (inner > keys[:, :-2]) & (inner > keys[:, 2:])
    first, last = keys[:, 0], keys[:, -1]
    if variant in (RingVariant.TRUE_PERSISTENT, RingVariant.REDRAW_CIRCULAR):
        mask[:, 0] = (first > last) & (first > keys[:, 1])
        mask[:, -1] = (last > keys[:, -2]) & (last > first)
    elif variant is RingVariant.REDRAW_LINEAR_II:
        mask[:, 0] = first > keys[:, 1]
        mask[:, -1] = last > keys[:, -2]
    return mask


def _play(
    config: SimConfig, max_rounds: int | None = None
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Play every trial round by round, yielding ``(round, trials, counts)``.

    Each yield covers one block of trials that entered the round with the
    same number of players; counts are the survivors of that round.  A
    group with fresh keys plays in blocks of ``_CHUNK`` rows, a group with
    kept keys in one block.  A trial leaves once its count is at most
    ``config.stop_threshold``, or after ``max_rounds`` rounds; the last
    round allowed regroups nothing.  Within a batch, groups play in
    ascending width and every block regroups its rows in order, so each
    width group holds its trials and keys in the same order however it was
    cut; that fixes the order of the key draws and so the outcome of every
    seed.
    """
    persistent = config.variant is RingVariant.TRUE_PERSISTENT
    for start in range(0, config.trials, _BATCH):
        stop = min(start + _BATCH, config.trials)
        rng = _batch_rng(config.seed, start // _BATCH)
        # width -> [(kept keys, or None to draw fresh ones; trial indices)]
        parts = {}
        if config.n > config.stop_threshold:
            parts[config.n] = [(None, np.arange(start, stop, dtype=np.int64))]
        round_ = 0
        while parts:
            round_ += 1
            groups, parts = sorted(parts.items()), {}
            for width, group in groups:
                idx = np.concatenate([i for _, i in group])
                if group[0][0] is None:
                    blocks = (
                        (rows, _draw_distinct_keys(rng, len(rows), width))
                        for rows in np.split(idx, range(_CHUNK, len(idx), _CHUNK))
                    )
                else:
                    blocks = [(idx, np.vstack([k for k, _ in group]))]
                for rows, keys in blocks:
                    mask = _peak_mask(keys, config.variant)
                    survivors = mask.sum(axis=1, dtype=np.int64)
                    yield round_, rows, survivors
                    if round_ == max_rounds:
                        continue  # no round follows, so nobody regroups
                    for w in np.unique(survivors[survivors > config.stop_threshold]):
                        sel = survivors == w
                        kept = keys[sel][mask[sel]].reshape(-1, w) if persistent else None
                        parts.setdefault(int(w), []).append((kept, rows[sel]))


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


def _circular_peak_keys(values: tuple[int, ...]) -> tuple[int, ...]:
    n = len(values)
    return tuple(
        values[i]
        for i in range(n)
        if values[i] > values[i - 1] and values[i] > values[(i + 1) % n]
    )


def exhaustive_second_round(
    *, ring_size: int = 8, first_round: int = 4, second_round: int = 2
) -> Fraction:
    """Exact conditional probability of the persistent-key second round.

    Enumerates every ordering of ``ring_size`` distinct keys, conditions
    on ``first_round`` survivors, and counts orderings whose survivors
    (keeping their keys, in ring order) leave ``second_round`` players.
    """
    conditioned = 0
    hits = 0
    for perm in itertools.permutations(range(ring_size)):
        if count_peaks(perm, PeakVariant.CIRCULAR) != first_round:
            continue
        conditioned += 1
        if count_peaks(_circular_peak_keys(perm), PeakVariant.CIRCULAR) == second_round:
            hits += 1
    if conditioned == 0:
        raise ValueError("conditioning event impossible")
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
    redraw-circular draws fresh ones.
    """
    if variant not in (RingVariant.TRUE_PERSISTENT, RingVariant.REDRAW_CIRCULAR):
        raise ValueError(
            "the conditional estimate needs a circular variant "
            f"(true-persistent or redraw-circular), got {variant.value}"
        )
    events = 0
    hits = 0
    for start in range(0, trials, _BATCH):
        stop = min(start + _BATCH, trials)
        rng = _batch_rng(seed, start // _BATCH)
        keys = _draw_distinct_keys(rng, stop - start, ring_size)
        mask = _peak_mask(keys, RingVariant.TRUE_PERSISTENT)
        survivors = mask.sum(axis=1)
        selected = survivors == first_round
        events += int(selected.sum())
        if not selected.any():
            continue
        if variant is RingVariant.TRUE_PERSISTENT:
            flat = keys[selected][mask[selected]].reshape(-1, first_round)
        else:
            flat = _draw_distinct_keys(rng, int(selected.sum()), first_round)
        second = _peak_mask(flat, RingVariant.TRUE_PERSISTENT).sum(axis=1)
        hits += int((second == second_round).sum())
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
