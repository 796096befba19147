"""Survivor-count laws for one elimination round, behind one row reader.

Each model answers: starting a round with n players, how many survive?
``read_rows(start, stop)`` yields row n for each n in a range, in
ascending n: ``exact_row(n)``, integer numerators over one denominator,
up to ``exact_cutoff``, and a first k with an array of masses beyond it.
It is the only code that picks exact or float.  Beyond the cutoff the
coin and peak models run their exact recurrences on probabilities, grown
one n at a time into one shared cache per law (:class:`_GrownRows`), and
map a per-row transform over the cache's stream of rows.  Coin rows are
windows of Bi(n, p) cut by tail mass below ``TAIL_TRUNCATION``; peak rows
keep the masses above it.  A cache keeps its first ``_KEPT_BYTES`` of
rows; past them it keeps each row's cut and a front every
``_CHECKPOINT_ROWS`` rows, and every read steps again from the front
below it, so phase tables reach 2^16 in memory flat in n.  Peak exact
rows grow by the same step on integer counts, in a second cache that
keeps every row, at any n.  ``float_rows`` and the dicts ``pmf_*`` are
views.
"""
from __future__ import annotations

import abc
import csv
import functools
import math
import operator
import threading
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, count, repeat
from pathlib import Path

import numpy as np

from .peaks import PeakVariant, interior_peak_step

#: largest n served as exact rationals unless a model is told otherwise
DEFAULT_EXACT_CUTOFF = 75

#: probability mass below which floating-point tails are dropped
TAIL_TRUNCATION = 1e-15

#: masses below which a propagated coin row is trimmed, far below any served window
FRONT_TRUNCATION = 1e-40

#: bytes of float rows one law keeps, at 8 an entry.  Past them a row is
#: stepped again from a front on each read, so a table's rows take memory
#: flat in n.  Every law the exact regime reads stays inside: coin p = 1/2
#: to n = 300 and linear-I peak rows to 500 hold under 0.2 MiB, while
#: fair-coin rows reach 1 MiB at n ~ 840
_KEPT_BYTES = 1 << 20

#: rows between the fronts kept past the prefix: a read steps at most this
#: many rows below its first (about 5 ms near fair-coin n = 4096), and the
#: fronts and cuts of the fair-coin law to 2^16 take about 2 MiB
_CHECKPOINT_ROWS = 1024

#: row n of a law, P(n, lo + i) at i: integer (lo, numerators, denominator) or float (lo, masses)
Row = tuple[int, list[int], int] | tuple[int, np.ndarray]


def float_row(row: Row) -> tuple[int, np.ndarray]:
    """The row as ``(lo, masses)``: an integer row rounded entry by entry
    (int-by-int division is correctly rounded), a float row as it is."""
    if len(row) == 2:
        return row
    lo, nums, den = row
    return lo, np.array([x / den for x in nums])


@dataclass(frozen=True)
class SurvivorModel(abc.ABC):
    """One round of elimination: the law of the survivor count.

    Subclasses provide :meth:`exact_row`, and override :meth:`_far_rows`
    where a float path beyond the cutoff exists; :meth:`read_rows` serves
    both.  :meth:`float_rows` and the dicts :meth:`pmf_exact` and
    :meth:`pmf_float` are views over it.
    """

    exact_cutoff: int = field(default=DEFAULT_EXACT_CUTOFF, kw_only=True)

    #: whether the chain can reach state 0 (only kill-everyone chains can)
    can_reach_zero = False

    def __post_init__(self) -> None:
        if self.exact_cutoff < 0:
            raise ValueError(f"need exact_cutoff >= 0, got {self.exact_cutoff}")

    @property
    @abc.abstractmethod
    def name(self) -> str: ...

    @abc.abstractmethod
    def exact_row(self, n: int) -> tuple[int, list[int], int]:
        """Row n as ``(lo, numerators, denominator)``: P(n, lo + i) is
        ``numerators[i] / denominator``, and the numerators sum to the
        denominator."""

    @property
    def declared_alpha(self) -> Fraction | None:
        """Survival ratio the model is designed around, if any."""
        return None

    def read_rows(self, start: int, stop: int) -> Iterator[Row]:
        """Rows n = start..stop-1, one at a time in ascending n: the integer
        :meth:`exact_row` up to ``exact_cutoff``, the float rows of
        :meth:`_far_rows` beyond.  Coin and peak rows beyond the cutoff come
        from one shared cache per law grown from n = 0.  It keeps its first
        1 MiB of rows and steps past them again from a saved front, so the
        first read of one row at a large n costs every step below it but
        keeps no row: in a fresh process ``FairCoin().pmf_float(30000)``
        takes about 0.6 s and 1.2 MB, and reading it again about 3 ms."""
        split = min(max(start, self.exact_cutoff + 1), stop)
        yield from map(self.exact_row, range(start, split))
        if split < stop:
            yield from self._far_rows(split, stop)

    def float_rows(self, start: int, stop: int) -> list[tuple[int, np.ndarray]]:
        """:meth:`read_rows` as a list of ``(lo, masses)``, the exact rows rounded."""
        return list(map(float_row, self.read_rows(start, stop)))

    def _far_rows(self, start: int, stop: int) -> Iterator[tuple[int, np.ndarray]]:
        """Float rows n = start..stop-1 beyond the cutoff, in ascending n; the
        exact rows rounded by default."""
        return map(float_row, map(self.exact_row, range(start, stop)))

    def pmf_exact(self, n: int) -> dict[int, Fraction]:
        """Row n as ``{k: P(n, k)}`` over its nonzero masses."""
        lo, nums, den = self.exact_row(n)
        return {k: Fraction(x, den) for k, x in enumerate(nums, lo) if x}

    def pmf_float(self, n: int) -> dict[int, float]:
        """Float row n as ``{k: P(n, k)}`` over its nonzero masses."""
        [(lo, probs)] = self.float_rows(n, n + 1)
        return {k: p for k, p in enumerate(probs.tolist(), lo) if p}

    def _require_positive(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"{self.name}: need n >= 1, got {n}")


@dataclass(frozen=True)
class ToyHalving(SurvivorModel):
    """Survivors are floor(n/2) or ceil(n/2) on a fair coin toss."""

    @property
    def name(self) -> str:
        return "toy-halving"

    @property
    def declared_alpha(self) -> Fraction:
        return Fraction(1, 2)

    def exact_row(self, n: int) -> tuple[int, list[int], int]:
        self._require_positive(n)
        if n % 2 == 0 or n == 1:
            return max(n // 2, 1), [1], 1
        return n // 2, [1, 1], 2


@dataclass(frozen=True)
class DeterministicHalving(SurvivorModel):
    """Exactly floor(n/2) survive; the standard counterexample model."""

    @property
    def name(self) -> str:
        return "det-halving"

    @property
    def declared_alpha(self) -> Fraction:
        return Fraction(1, 2)

    def exact_row(self, n: int) -> tuple[int, list[int], int]:
        self._require_positive(n)
        return max(n // 2, 1), [1], 1


def _binomial_numerators(n: int, p: Fraction) -> tuple[list[int], int]:
    """Bi(n, p) for p = a/b as integers: C(n,k) a^k (b-a)^(n-k) over b^n."""
    a, b = p.numerator, p.denominator
    heads = list(accumulate(repeat(a, n), operator.mul, initial=1))
    tails = list(accumulate(repeat(b - a, n), operator.mul, initial=1))
    combs = accumulate(range(n), lambda c, k: c * (n - k) // (k + 1), initial=1)
    nums = [c * h * t for c, h, t in zip(combs, heads, reversed(tails))]
    return nums, b**n


class _Shared:
    """One value per key, built on first use behind one lock."""

    def __init__(self, build) -> None:
        self._lock = threading.Lock()
        self._build, self._values = build, {}

    def __call__(self, key):
        with self._lock:
            value = self._values.get(key)
            if value is None:
                value = self._values[key] = self._build(key)
            return value


class _GrownRows:
    """Rows of one recurrence, grown one n at a time and shared by every caller.

    ``step(front, n)`` propagates the front from row n - 1 to row n,
    ``cut(front)`` finds the bounds ``(start, stop)`` of the entries served
    for n and ``serve(front, start, stop)`` builds the row from them.  Rows
    below the first front's ``n`` are served its row.

    Served rows are kept until they hold ``kept_bytes`` (8 bytes an entry).
    Past that prefix the cache keeps only each row's cut and the front of
    every ``_CHECKPOINT_ROWS``-th row, and :meth:`rows` steps again from the
    latest front below its first row.  The recurrences are deterministic, so
    a re-read row has the bits of the first read.  The prefix, and rows
    below a read's first row, grow behind the lock; the rows a read serves
    past the prefix are stepped outside it, and the first read of each
    records its cut as it goes.  Rows are read-only arrays or tuples.
    """

    def __init__(self, front, n: int, step, cut, serve, kept_bytes: float) -> None:
        self._lock = threading.Lock()
        self._step, self._cut, self._serve = step, cut, serve
        self._spacing = _CHECKPOINT_ROWS
        start, stop = cut(front)
        self._rows = [serve(front, start, stop)] * (n + 1)  # the kept prefix
        self._room = kept_bytes - 8 * (stop - start) * (n + 1)
        self._top = n, front  # the last grown row and its front
        self._cuts = array("q")  # start, stop of each row past the prefix
        self._fronts: list = []  # fronts of the rows len(_rows) - 1 + i * _spacing

    def __call__(self, n: int):
        return next(self.rows(n, n + 1))

    def rows(self, start: int, stop: int) -> Iterator:
        """Rows n = start..stop-1, in ascending n."""
        with self._lock:
            # the kept prefix, and the rows below start, grow behind the lock
            while self._top[0] < stop - 1 and (self._room > 0 or self._top[0] < start - 1):
                n = self._top[0] + 1
                self._record(n, self._step(self._top[1], n))
            head = self._rows[start:stop]
            first = start + len(head)
            if first >= stop:
                return iter(head)
            n, front = self._top
            if n >= first:  # start at the checkpoint below first
                base = len(self._rows) - 1
                i = (first - 1 - base) // self._spacing
                n, front = base + i * self._spacing, self._fronts[i]
        return chain(head, self._walk(n, front, first, stop))

    def _walk(self, n: int, front, first: int, stop: int) -> Iterator:
        """Rows first..stop-1 past the prefix, stepped from row n's front;
        rows not grown yet are recorded on the way.  ``_top`` and ``_cuts``
        are read outside the lock: each read sees them whole, and recorded
        cuts never change."""
        step, serve, cuts, kept = self._step, self._serve, self._cuts, len(self._rows)
        for n in range(n + 1, stop):
            front = step(front, n)
            if n > self._top[0]:
                with self._lock:
                    if n > self._top[0]:
                        self._record(n, front)
            if n >= first:
                i = 2 * (n - kept)
                yield serve(front, cuts[i], cuts[i + 1])

    def _record(self, n: int, front) -> None:
        """Grow row n, the one past ``_top``, from its front; behind the lock."""
        start, stop = self._cut(front)
        if self._room > 0:
            self._rows.append(self._serve(front, start, stop))
            self._room -= 8 * (stop - start)
            if self._room <= 0:  # row n closes the prefix
                self._fronts.append(front)
        else:
            self._cuts.extend((start, stop))
            if (n - len(self._rows) + 1) % self._spacing == 0:
                self._fronts.append(front)
        self._top = n, front  # last: a reader that sees it finds row n recorded


def _read_only(values: np.ndarray) -> np.ndarray:
    values = values.copy()
    values.flags.writeable = False
    return values


def _binomial_step(front: tuple[int, np.ndarray], n: int, p: float) -> tuple[int, np.ndarray]:
    """Bi(n, p) from Bi(n - 1, p) by pmf(n,k) = q pmf(n-1,k) + p pmf(n-1,k-1),
    trimmed to masses above ``FRONT_TRUNCATION``.  Every term is
    non-negative, so floats carry it to rounding however far it runs."""
    lo, prev = front
    m = len(prev)
    row = np.empty(m + 1)
    np.multiply(prev, 1.0 - p, out=row[:m])
    row[m] = 0.0
    tail = row[1:]
    tail += p * prev
    # each edge moves out by one k a row, and only that new entry can fall short
    first = int(row.item(0) <= FRONT_TRUNCATION)
    last = m + 1 - int(row.item(m) <= FRONT_TRUNCATION)
    return lo + first, row[first:last]


def _binomial_cut(front: tuple[int, np.ndarray]) -> tuple[int, int]:
    """Bounds of the window of a Bi(n, p) front that holds all but < 2e-15 of
    the mass: k below it carry less than ``TAIL_TRUNCATION`` in all, as do k
    above it (the bounds ``ppf`` and ``isf`` give)."""
    row = front[1]
    start = int(row.cumsum().searchsorted(TAIL_TRUNCATION))
    return start, len(row) - int(row[::-1].cumsum().searchsorted(TAIL_TRUNCATION))


def _binomial_window(
    front: tuple[int, np.ndarray], start: int, stop: int
) -> tuple[int, np.ndarray, float]:
    """The window: its first k, its masses and the mass of k <= 1, for
    :class:`CoinMaxOne`'s rescue."""
    lo, row = front
    low = float(row[: 2 - lo].sum()) if lo < 2 else 0.0
    return lo + start, _read_only(row[start:stop]), low


def _binomial_rows(p: Fraction) -> _GrownRows:
    """A fresh cache of Bi(n, p) windows, from n = 0."""
    step = functools.partial(_binomial_step, p=float(p))
    return _GrownRows((0, np.ones(1)), 0, step, _binomial_cut, _binomial_window, _KEPT_BYTES)


#: the Bi(n, p) window cache every coin model with this p shares
_coin_rows = _Shared(_binomial_rows)


@dataclass(frozen=True)
class _Coin(SurvivorModel):
    """A round where each player survives on heads with probability p.

    Subclasses say what becomes of a wiped-out or thinned round: exact rows
    from the whole binomial row in integers, float rows beyond the cutoff
    from the shared Bi(n, p) window that holds all but < 2e-15 of the mass
    (``_coin_rows(p)``: its first k, its masses, the mass of k <= 1), one
    :meth:`_from_window` per row of the cache's stream.
    """

    p: Fraction

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 < self.p < 1:
            raise ValueError(f"need p in (0,1), got {self.p}")

    @property
    def declared_alpha(self) -> Fraction:
        return self.p

    def _far_rows(self, start, stop):
        windows = _coin_rows(self.p).rows(start, stop)
        return map(self._from_window, count(start), windows)

    @abc.abstractmethod
    def _from_window(self, n: int, window: tuple[int, np.ndarray, float]) -> tuple[int, np.ndarray]:
        """Float row n from its shared Bi(n, p) window."""


@dataclass(frozen=True)
class BiasedCoin(_Coin):
    """Every player survives on heads (probability p); if all throw tails,
    everyone survives the round instead, so the game cannot die out."""

    @property
    def name(self) -> str:
        return f"biased-coin(p={self.p})"

    def exact_row(self, n: int) -> tuple[int, list[int], int]:
        self._require_positive(n)
        nums, den = _binomial_numerators(n, self.p)
        nums[n] += nums[0]  # all-tails rescue maps to "everyone survives"
        return 1, nums[1:], den

    @functools.cached_property
    def _tails(self) -> float:
        """The float tails probability, float(1 - p)."""
        return float(1 - self.p)

    def _from_window(self, n, window):
        lo, probs, _ = window
        if lo == 0:
            lo, probs = 1, probs[1:]
        rescue = self._tails**n  # all tails; the window holds all heads
        if rescue >= TAIL_TRUNCATION:
            probs = np.concatenate([probs, np.zeros(n + 1 - lo - len(probs))])
            probs[-1] += rescue
        return lo, probs


@dataclass(frozen=True)
class FairCoin(BiasedCoin):
    """Fair-coin elimination with the all-tails rescue."""

    p: Fraction = Fraction(1, 2)

    @property
    def name(self) -> str:
        return "fair-coin"


@dataclass(frozen=True)
class CoinMaxOne(_Coin):
    """Coin elimination with a fail-safe: a wiped-out round keeps one
    player instead of everyone (survivors = max(heads, 1))."""

    @property
    def name(self) -> str:
        return f"coin-max-one(p={self.p})"

    def exact_row(self, n: int) -> tuple[int, list[int], int]:
        self._require_positive(n)
        if n == 1:
            return 1, [1], 1
        nums, den = _binomial_numerators(n, self.p)
        return 1, [nums[0] + nums[1]] + nums[2:], den

    def _from_window(self, n, window):
        lo, probs, low = window
        cut = min(max(2 - lo, 0), len(probs))  # window entries at k = 0, 1
        lo, probs = lo + cut, probs[cut:]
        if low >= TAIL_TRUNCATION:  # then the window starts at k <= 1, so probs at k = 2
            lo, probs = 1, np.concatenate([[low], probs])
        return lo, probs


@dataclass(frozen=True)
class DemonCoin(_Coin):
    """Coin elimination with no rescue plus a demon that kills one extra
    survivor with probability nu; the chain is absorbed at zero."""

    nu: Fraction

    can_reach_zero = True

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "nu", Fraction(self.nu))
        if not 0 <= self.nu <= 1:
            raise ValueError(f"need nu in [0,1], got {self.nu}")

    @property
    def name(self) -> str:
        return f"demon-coin(p={self.p},nu={self.nu})"

    def exact_row(self, n: int) -> tuple[int, list[int], int]:
        if n < 0:
            raise ValueError(f"{self.name}: need n >= 0, got {n}")
        if n == 0:
            return 0, [1], 1
        heads, den = _binomial_numerators(n, self.p)
        kill, scale = self.nu.numerator, self.nu.denominator
        keep = scale - kill
        nums = [keep * h + kill * h1 for h, h1 in zip(heads, heads[1:] + [0])]
        nums[0] = scale * heads[0] + kill * heads[1]  # nobody left either way
        return 0, nums, den * scale

    def _from_window(self, n, window):
        lo, heads, _ = window
        keep, kill = 1.0 - float(self.nu), float(self.nu)
        start = max(lo - 1, 0)
        h = np.concatenate([np.zeros(lo - start), heads, [0.0]])  # k = start..
        mass = keep * h[:-1] + kill * h[1:]
        if start == 0:
            mass[0] = h[0] + kill * h[1]
        return start, mass


def _above_truncation(row: np.ndarray) -> tuple[int, int]:
    """Bounds of the masses of a linear-I row above ``TAIL_TRUNCATION``."""
    keep = np.flatnonzero(row > TAIL_TRUNCATION)
    return int(keep[0]), int(keep[-1]) + 1


def _peak_rows() -> _GrownRows:
    """A fresh cache of linear-I float rows of the normalised peak recurrence,
    grown untrimmed and served as (first k, masses above ``TAIL_TRUNCATION``).
    Row 0, the empty arrangement, has row 1's law."""
    return _GrownRows(
        np.ones(1), 1, lambda prev, n: interior_peak_step(prev, n) / n, _above_truncation,
        lambda row, start, stop: (start, _read_only(row[start:stop])), _KEPT_BYTES,
    )


def _peak_counts() -> _GrownRows:
    """A fresh cache of linear-I rows as Python-int counts over n!, grown by
    the same step as :func:`_peak_rows`; row 0 has row 1's counts.  Every
    row is kept: :meth:`PeakSurvivors.exact_row` reads one n at a time."""
    return _GrownRows(
        np.ones(1, dtype=object), 1, interior_peak_step, lambda counts: (0, len(counts)),
        lambda counts, start, stop: tuple(counts.tolist()), math.inf,
    )


#: linear-I rows shared by every PeakSurvivors: float masses and exact counts
_linear_float = _peak_rows()
_linear_counts = _peak_counts()


@dataclass(frozen=True)
class PeakSurvivors(SurvivorModel):
    """Survivors of a redraw round are the peaks of a fresh random
    permutation under the chosen boundary rule.

    Every row is a linear-I row shifted: circular row n is linear-I row
    n - 1 plus one peak, linear-II row n is linear-I row n plus one peak.
    """

    variant: PeakVariant

    @property
    def name(self) -> str:
        return f"peak-{self.variant.value}"

    @property
    def declared_alpha(self) -> Fraction:
        return Fraction(1, 3)

    @property
    def can_reach_zero(self) -> bool:
        return self.variant is PeakVariant.LINEAR_I

    def _linear_row(self, n: int) -> tuple[int, int]:
        """``(m, shift)``: row n is linear-I row m with every k moved up by shift."""
        self._require_positive(n)
        circular = self.variant is PeakVariant.CIRCULAR
        return n - circular, int(self.variant is not PeakVariant.LINEAR_I)

    def exact_row(self, n: int) -> tuple[int, list[int], int]:
        """Row n as linear-I counts of m over m!, shifted."""
        m, shift = self._linear_row(n)
        return shift, list(_linear_counts(m)), math.factorial(m)

    def _far_rows(self, start, stop):
        # the cached rows are shared, not copied
        m, shift = self._linear_row(start)
        return ((lo + shift, probs) for lo, probs in _linear_float.rows(m, m + stop - start))


def peak_linear_i(**kwargs) -> PeakSurvivors:
    return PeakSurvivors(PeakVariant.LINEAR_I, **kwargs)


def peak_linear_ii(**kwargs) -> PeakSurvivors:
    return PeakSurvivors(PeakVariant.LINEAR_II, **kwargs)


def peak_circular(**kwargs) -> PeakSurvivors:
    return PeakSurvivors(PeakVariant.CIRCULAR, **kwargs)


@dataclass(frozen=True)
class ExplicitMatrix(SurvivorModel):
    """User-supplied one-round transition rows P(i, j).

    Rows must be stochastic and lower-triangular (no round may grow the
    player count).  Probabilities may be decimals or ``p/q`` strings.
    ``rows`` is given as a mapping ``{i: {j: p}}`` and stored as sorted
    ``(i, ((j, p), ...))`` tuples, each row rescaled to sum to exactly 1,
    so the model is immutable and hashable.
    """

    rows: tuple[tuple[int, tuple[tuple[int, Fraction], ...]], ...]
    label: str = "explicit"

    def __post_init__(self) -> None:
        super().__post_init__()
        normalised = []
        for i, row in sorted(dict(self.rows).items()):
            row = dict(row)
            if i < 1:
                raise ValueError(f"state {i} below 1")
            for j, p in row.items():
                if p < 0:
                    raise ValueError(f"negative probability at ({i},{j})")
                if j < 0:
                    raise ValueError(f"entry ({i},{j}): a survivor count below 0")
                if j > i:
                    raise ValueError(
                        f"entry ({i},{j}) above the diagonal: survivors cannot exceed {i}"
                    )
            total = sum(row.values())
            if abs(float(total) - 1.0) > 1e-9:
                raise ValueError(f"row {i} sums to {float(total)}, not 1")
            if total != 1:  # tolerate decimal rounding, then make it exact
                row = {j: p / total for j, p in row.items()}
            normalised.append((i, tuple(sorted(row.items()))))
        object.__setattr__(self, "rows", tuple(normalised))

    @property
    def name(self) -> str:
        return self.label

    @functools.cached_property
    def _row_lookup(self) -> dict[int, tuple[tuple[int, Fraction], ...]]:
        """``rows`` by state, built once per model (not a field, so the
        model stays equal and hashable by its rows)."""
        return dict(self.rows)

    @property
    def max_state(self) -> int:
        return max(self._row_lookup)

    def exact_row(self, n: int) -> tuple[int, list[int], int]:
        self._require_positive(n)
        rows = self._row_lookup
        if n not in rows and n != 1:
            raise ValueError(f"{self.label}: no transition row for state {n}")
        row = {k: Fraction(p) for k, p in rows.get(n, ((1, 1),))}  # 1 stays 1 if not given
        den = math.lcm(*(p.denominator for p in row.values()))
        lo = min(row)
        return lo, [int(row.get(k, 0) * den) for k in range(lo, max(row) + 1)], den

    @classmethod
    def from_csv(
        cls, path: str | Path, *, exact_cutoff: int = DEFAULT_EXACT_CUTOFF
    ) -> "ExplicitMatrix":
        """Load ``i,j,prob`` rows, labelled by the file stem; a header line
        is skipped if present.  A malformed record is a ValueError naming
        the file and line."""
        rows: dict[int, dict[int, Fraction]] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for record in reader:
                if not record or record[0].strip().lower() in {"i", ""}:
                    continue
                try:
                    i, j, prob = record[:3]
                    rows.setdefault(int(i), {})[int(j)] = Fraction(prob.strip())
                except (ValueError, ZeroDivisionError) as exc:
                    raise ValueError(
                        f"{path}:{reader.line_num}: need i,j,prob, got {record} ({exc})"
                    ) from None
        return cls(rows=rows, label=Path(path).stem, exact_cutoff=exact_cutoff)


_MODEL_BUILDERS = {
    "toy": lambda p, nu, cutoff: ToyHalving(exact_cutoff=cutoff),
    "det-halving": lambda p, nu, cutoff: DeterministicHalving(exact_cutoff=cutoff),
    "fair-coin": lambda p, nu, cutoff: FairCoin(exact_cutoff=cutoff),
    "biased-coin": lambda p, nu, cutoff: BiasedCoin(p, exact_cutoff=cutoff),
    "coin-max-one": lambda p, nu, cutoff: CoinMaxOne(p, exact_cutoff=cutoff),
    "demon": lambda p, nu, cutoff: DemonCoin(p, nu, exact_cutoff=cutoff),
    "peak-linear-i": lambda p, nu, cutoff: peak_linear_i(exact_cutoff=cutoff),
    "peak-linear-ii": lambda p, nu, cutoff: peak_linear_ii(exact_cutoff=cutoff),
    "peak-circular": lambda p, nu, cutoff: peak_circular(exact_cutoff=cutoff),
}


def model_from_name(
    kind: str,
    *,
    p: Fraction | str | None = None,
    nu: Fraction | str | None = None,
    matrix_path: str | Path | None = None,
    exact_cutoff: int = DEFAULT_EXACT_CUTOFF,
) -> SurvivorModel:
    """Build a model from its CLI name, e.g. ``fair-coin`` or ``peak-circular``."""
    kind = kind.lower()
    if kind == "explicit":
        if matrix_path is None:
            raise ValueError("explicit model needs a CSV path")
        return ExplicitMatrix.from_csv(matrix_path, exact_cutoff=exact_cutoff)
    if kind not in _MODEL_BUILDERS:
        raise ValueError(
            f"unknown model {kind!r}; choose from {sorted(_MODEL_BUILDERS)} or 'explicit'"
        )
    if kind in {"biased-coin", "coin-max-one", "demon"} and p is None:
        raise ValueError(f"model {kind!r} needs p")
    if kind == "demon" and nu is None:
        raise ValueError("demon model needs nu")
    frac_p = Fraction(p) if p is not None else None
    frac_nu = Fraction(nu) if nu is not None else None
    return _MODEL_BUILDERS[kind](frac_p, frac_nu, exact_cutoff)
