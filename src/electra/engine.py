"""Phase-count laws of elimination chains: exact tables, ending states,
and state-occupancy probabilities.

The chain starts at n and in each round jumps to the survivor count drawn
from the model; every state at or below the stop threshold is absorbing.
The law of the number of rounds is built column by column:

    rounds(n, j) = sum_k P(n, k) * rounds(k, j - 1)

The absorbing states are ordinary entries of every column: state k holds
``[j == cost(k)]``, where cost(0), what a wiped-out round adds, is one
phase under ALT_COST and every other cost is zero.  So each transient
entry is the plain sum over its whole row, absorbing entries included.

Everything else comes from two sweeps over the transient states.  The
upward sweep applies the first-step identity with the k = n self-loop
solved out,

    f(n) = (c + sum_{k<n} P(n, k) f(k)) / (1 - P(n, n)),

giving expected phase counts (c = 1) and ending-state laws (c = 0, f a
vector).  The downward sweep gives expected visits from one start,

    visits(k) = ([k = start] + sum_{m>k} visits(m) P(m, k)) / (1 - P(k, k)),

with no division at or below the threshold; occupancy and passage
probabilities read it.

Rows come from the model: integer rows up to its ``exact_cutoff``, float
arrays beyond.  That alone decides which results are exact.  Exact phase
columns are integer numerators over one denominator per column.  The
float rows are swept in n order: each row's block of columns is one
``einsum`` over the rows below it, adding in ascending k with the
self-loop last, the order of a sparse row product.  A first sweep over
the float rows of every transient state predicts the column count, so
the exact columns are pulled to it and no further; the final sweep reads
the rounded exact rows and replays the stop rule.  Float rows read the
already-exact low results, so exactness degrades only where the
rationals would be unaffordable anyway.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path

import numpy as np

from .models import SurvivorModel

#: stop adding phase columns once every row holds all but this much mass
DEFAULT_RESIDUAL_EPS = 1e-12

_J_CAP = 20_000

#: rows of the float table that ``PhaseTable.to_csv`` formats at a time
_CSV_ROWS = 256

_fraction = np.frompyfunc(Fraction, 2, 1)  # elementwise on object arrays


class InitConvention(str, Enum):
    STANDARD = "standard"  # ending with nobody left costs nothing extra
    ALT_COST = "altcost"  # the final forced pick costs one phase


@dataclass
class PhaseTable:
    """Distribution of the number of phases, all starting sizes at once.

    ``probs[n, j]`` is the probability that the game starting from n
    players takes exactly j phases; ``cum`` is its running sum in j.
    ``exact_rows`` holds the same rows as exact rationals for n up to the
    cutoff.  Immutable after construction; share freely across threads.
    """

    model: SurvivorModel
    max_n: int
    threshold_a: int
    init: InitConvention
    exact_cutoff: int
    residual_eps: float
    j_max: int
    probs: np.ndarray
    cum: np.ndarray
    exact_rows: dict[int, tuple[Fraction, ...]]
    means: np.ndarray
    means_direct: np.ndarray
    exact_means: dict[int, Fraction]
    mean_gap: float

    def prob(self, n: int, j: int) -> float:
        self._check_n(n)
        return float(self.probs[n, j]) if 0 <= j <= self.j_max else 0.0

    def cdf(self, n: int, j: int) -> float:
        self._check_n(n)
        if j < 0:
            return 0.0
        return float(self.cum[n, min(j, self.j_max)])

    def row(self, n: int) -> np.ndarray:
        self._check_n(n)
        return self.probs[n].copy()

    def cdf_row(self, n: int) -> np.ndarray:
        self._check_n(n)
        return self.cum[n].copy()

    def exact_prob(self, n: int, j: int) -> Fraction:
        row = self.exact_row(n)
        return row[j] if 0 <= j < len(row) else Fraction(0)

    def exact_row(self, n: int) -> tuple[Fraction, ...]:
        if n not in self.exact_rows:
            raise ValueError(f"no exact row for n={n} (cutoff {self.exact_cutoff})")
        return self.exact_rows[n]

    def mean(self, n: int) -> float:
        self._check_n(n)
        return float(self.means[n])

    def exact_mean(self, n: int) -> Fraction:
        if n not in self.exact_means:
            raise ValueError(f"no exact mean for n={n} (cutoff {self.exact_cutoff})")
        return self.exact_means[n]

    def residual(self, n: int) -> float:
        return 1.0 - self.cdf(n, self.j_max)

    def _check_n(self, n: int) -> None:
        if not 0 <= n <= self.max_n:
            raise ValueError(f"row {n} outside 0..{self.max_n}")

    def to_csv(self, path: str | Path, *, exact_path: str | Path | None = None) -> None:
        """Write ``n,j,prob`` rows; optionally the exact regime as
        ``n,j,numerator,denominator`` alongside."""
        with open(path, "w", newline="") as fh:
            fh.write("n,j,prob\n")
            for lo in range(0, len(self.probs), _CSV_ROWS):
                block = self.probs[lo : lo + _CSV_ROWS]
                ns, js = np.nonzero(block > 0.0)  # row-major order
                values = map(repr, block[ns, js].tolist())
                fh.writelines(
                    map("{},{},{}\n".format, (ns + lo).tolist(), js.tolist(), values)
                )
        if exact_path is not None:
            with open(exact_path, "w", newline="") as fh:
                fh.write("n,j,numerator,denominator\n")
                fh.writelines(
                    f"{n},{j},{p.numerator},{p.denominator}\n"
                    for n in sorted(self.exact_rows)
                    for j, p in enumerate(self.exact_rows[n])
                    if p
                )

    def means_to_csv(self, path: str | Path, *, alpha: Fraction | float | None = None) -> None:
        """Write ``n,x,log_alpha_n,phi_residual`` rows (log base 1/alpha)."""
        if alpha is None:
            alpha = self.model.declared_alpha
        logs = [None] * (self.max_n + 1)
        if alpha is not None:
            from .metrics import log_starts  # metrics builds on this module

            logs[1:] = log_starts(self, alpha, 1, self.max_n)[1].tolist()

        def line(n: int, x: float, ln: float | None) -> str:
            if ln is None:
                return f"{n},{x!r},,\n"
            return f"{n},{x!r},{ln!r},{x - ln!r}\n"

        with open(path, "w", newline="") as fh:
            fh.write("n,x,log_alpha_n,phi_residual\n")
            fh.writelines(map(line, itertools.count(), self.means.tolist(), logs))


def _validate_setup(
    model: SurvivorModel,
    max_n: int,
    a: int,
    init: InitConvention,
    residual_eps: float = DEFAULT_RESIDUAL_EPS,
) -> None:
    if not (math.isfinite(residual_eps) and residual_eps > 0):
        raise ValueError(f"need a finite residual_eps > 0, got {residual_eps}")
    if max_n < 1:
        raise ValueError(f"need max_n >= 1, got {max_n}")
    if a < 0:
        raise ValueError(f"need threshold >= 0, got {a}")
    if a == 0 and not model.can_reach_zero:
        raise ValueError(
            f"threshold 0 needs a chain that can reach 0; {model.name} cannot"
        )
    if a == 0 and init is InitConvention.ALT_COST:
        raise ValueError("altcost initialization needs threshold >= 1")


def compute_phase_table(
    model: SurvivorModel,
    max_n: int,
    threshold_a: int = 1,
    init: InitConvention = InitConvention.STANDARD,
    *,
    residual_eps: float = DEFAULT_RESIDUAL_EPS,
) -> PhaseTable:
    """Fill the phase-count table for all starting sizes up to ``max_n``.

    Columns are appended until every row is complete to ``residual_eps``.
    The recursive and the direct mean formulas are both evaluated; a gap
    between them beyond the truncation tolerance means the table is
    inconsistent and raises ``ValueError``.
    """
    _validate_setup(model, max_n, threshold_a, init, residual_eps)
    cutoff = model.exact_cutoff
    a = threshold_a
    # absorbing state k adds cost[k] phases; only a wiped-out round can cost
    cost = [int(init is InitConvention.ALT_COST)] + [0] * min(a, max_n)
    rows = _transient_rows(model, a, max_n)
    # the float rows alone predict the column count, so the costly exact
    # columns are pulled to it and no further
    units = ([int(j == c) for c in cost] for j in itertools.count())
    width = _fill_columns(
        rows, units, a + 1, 64, lambda width: 2 * width, residual_eps, model.name
    )[0].shape[1]
    probs, exact_cols = _fill_columns(
        rows, _exact_columns(rows, cost), a + 1 + len(rows.exact), width,
        lambda width: width + 1, residual_eps, model.name,
    )
    j_max = probs.shape[1] - 1
    exact_rows = dict(enumerate(itertools.islice(zip(*exact_cols), min(max_n, cutoff) + 1)))
    exact_means, means = _upward_sweep(rows, dict(enumerate(cost)), 1)
    means_direct = probs @ np.arange(j_max + 1, dtype=float)
    mean_gap = float(np.max(np.abs(means - means_direct)))
    tol = max(1e-10, residual_eps * (j_max + 20))
    if mean_gap > tol:
        raise ValueError(f"mean formulas disagree by {mean_gap:.3e} (tolerance {tol:.1e})")
    return PhaseTable(
        model=model,
        max_n=max_n,
        threshold_a=a,
        init=init,
        exact_cutoff=cutoff,
        residual_eps=residual_eps,
        j_max=j_max,
        probs=probs,
        cum=np.cumsum(probs, axis=1),
        exact_rows=exact_rows,
        means=means,
        means_direct=means_direct,
        exact_means=exact_means,
        mean_gap=mean_gap,
    )


@dataclass(frozen=True)
class _Rows:
    """Rows of the transient states a+1..max_n, ascending (none if
    max_n <= a).

    ``exact`` holds the integer rows ``(lo, numerators, denominator)`` of
    the states up to the model's cutoff; ``floats`` holds ``(lo, masses)``
    for every transient state, the integer rows rounded.
    """

    a: int
    max_n: int
    exact: list[tuple[int, list[int], int]]
    floats: list[tuple[int, np.ndarray]]


def _transient_rows(model: SurvivorModel, a: int, max_n: int) -> _Rows:
    top = max(a, min(model.exact_cutoff, max_n))
    exact = [model.exact_row(n) for n in range(a + 1, top + 1)]
    floats = [(lo, np.array([x / den for x in nums])) for lo, nums, den in exact]
    return _Rows(a, max_n, exact, floats + model.float_rows(top + 1, max_n + 1))


def _fill_columns(
    rows: _Rows,
    base: Iterator[list],
    first: int,
    width: int,
    grow: Callable[[int], int],
    residual_eps: float,
    name: str,
) -> tuple[np.ndarray, list[list]]:
    """The phase table cut at the column where the stop rule fires.

    Column j of the states below ``first`` is the j-th list from ``base``;
    the states from ``first`` up are swept.  The table starts ``width``
    columns wide and is widened to ``grow(width)`` until the rule fires.
    Returns the table and the base columns it used.
    """
    probs = np.zeros((rows.max_n + 1, 0))
    used: list[list] = []
    while True:
        done, probs = probs.shape[1], np.pad(probs, ((0, 0), (0, width - probs.shape[1])))
        for j, column in enumerate(itertools.islice(base, width - done), done):
            probs[: len(column), j] = column
            used.append(column)
        _sweep(probs, rows, first, max(done, 1))
        stop = _stop_column(probs, rows.a, residual_eps)
        if stop is not None:
            return np.ascontiguousarray(probs[:, : stop + 1]), used[: stop + 1]
        if width > _J_CAP:
            raise RuntimeError(f"phase law did not absorb within {_J_CAP} columns for {name}")
        width = min(grow(width), _J_CAP + 1)


def _sweep(probs: np.ndarray, rows: _Rows, first: int, j0: int) -> None:
    """Fill columns j0.. of the states first..max_n in place, n ascending.

    Each entry adds ``P(n, k) * probs[k, j - 1]`` in ascending k, the
    self-loop last, so it has the bits of a sparse row product.
    """
    for n in range(first, len(probs)):
        lo, masses = rows.floats[n - rows.a - 1]
        stay = 0.0
        if lo + len(masses) > n:  # the row ends on its self-loop
            stay, masses = float(masses[-1]), masses[:-1]
        out = probs[n, j0:]
        np.einsum("w,wj->j", masses, probs[lo : lo + len(masses), j0 - 1 : -1], out=out)
        if stay:
            steps = itertools.accumulate(out.tolist(), lambda prev, x: x + stay * prev,
                                         initial=float(probs[n, j0 - 1]))
            out[:] = list(steps)[1:]


def _stop_column(probs: np.ndarray, a: int, residual_eps: float) -> int | None:
    """The first column j >= 1 by which every transient row holds all but
    ``residual_eps`` of its mass, or None if no column of ``probs`` does.

    Float rows with truncated tails can floor the residual above eps, so
    the rule also fires once progress has stalled for 100 columns with
    every row complete to the contractual 1e-9.
    """
    worst = (1.0 - np.cumsum(probs[a + 1 :], axis=1)).max(axis=0, initial=-math.inf)
    best, stalled = math.inf, 0
    for j, residual in enumerate(worst.tolist()[1:], 1):
        if residual < residual_eps:
            return j
        if residual < 0.99 * best:
            best, stalled = residual, 0
        else:
            stalled += 1
            if stalled >= 100 and residual < 1e-9:
                return j
    return None


def _exact_columns(rows: _Rows, cost: list[int]) -> Iterator[list[Fraction]]:
    """Exact phase columns j = 0, 1, ..., indexed by state: absorbing
    state k holds ``[j == cost[k]]``, each integer row's state the sum over
    its whole row of the previous column.

    A column is kept as integer numerators over one denominator, the lcm
    of its entries', so each entry costs one integer dot product with its
    row and one reduction.
    """
    nums, den = [0] * (len(cost) + len(rows.exact)), 1  # column -1 is zero
    for j in itertools.count():
        column = [Fraction(int(j == c)) for c in cost]
        for lo, row, row_den in rows.exact:
            total = sum(map(operator.mul, row, nums[lo : lo + len(row)]))
            column.append(Fraction(total, row_den * den))
        yield column
        den = math.lcm(*(p.denominator for p in column))
        nums = [p.numerator * (den // p.denominator) for p in column]


def _upward_sweep(
    rows: _Rows, fixed: dict[int, object], c: int
) -> tuple[dict[int, object], np.ndarray]:
    """Solve f(n) = (c + sum_{k<n} P(n,k) f(k)) / (1 - P(n,n)) upward.

    ``fixed`` holds f on the absorbing states 0..a, as integers or object
    arrays of them.  Returns f exactly, as Fractions or object arrays of
    them, on those states and the integer rows' states, and f on every
    state as floats (one array row per state).  The exact values are kept
    as integer numerators over one common denominator, so each integer row
    takes one integer dot product; the float rows each take one dot
    product.
    """
    exact = {k: _fraction(v, 1) for k, v in fixed.items()}
    f = np.array([np.asarray(v, dtype=float) for v in fixed.values()])
    f = np.concatenate([f, np.zeros((len(rows.floats),) + f.shape[1:])])
    nums, scale = list(fixed.values()), 1  # exact f(k) = nums[k] / scale
    for n, (lo, row, den) in enumerate(rows.exact, rows.a + 1):
        stay = row[n - lo] if lo + len(row) > n else 0
        # nums stops at state n - 1, so the self-loop drops out of the sum
        numer = c * den * scale + sum(map(operator.mul, row, nums[lo:n]))
        denom = (den - stay) * scale
        exact[n] = _fraction(numer, denom)
        f[n] = np.asarray(exact[n], dtype=float)
        common = math.gcd(denom, *np.ravel(numer).tolist())
        grown = math.lcm(scale, denom // common)
        if grown != scale:
            nums = [x * (grown // scale) for x in nums]
        nums.append(numer // common * (grown // (denom // common)))
        scale = grown
    for n in range(rows.a + 1 + len(rows.exact), len(f)):
        lo, probs = rows.floats[n - rows.a - 1]
        stay = 0.0
        if lo + len(probs) > n:  # the row ends on its self-loop
            stay, probs = probs[-1], probs[:-1]
        f[n] = (c + probs @ f[lo : lo + len(probs)]) / (1 - stay)
    return exact, f


@dataclass
class EndingStateTable:
    """Probability of finishing with exactly i players, i = 1..threshold.

    A wiped-out game (state 0) counts as finishing with one player: the
    forced random pick leaves a single leader.
    """

    model: SurvivorModel
    max_n: int
    threshold_a: int
    probs: np.ndarray
    exact: dict[int, tuple[Fraction, ...]]

    def prob(self, n: int, i: int) -> float:
        self._check(n, i)
        return float(self.probs[n, i])

    def exact_prob(self, n: int, i: int) -> Fraction:
        self._check(n, i)
        if n not in self.exact:
            raise ValueError(f"no exact row for n={n}")
        return self.exact[n][i]

    def _check(self, n: int, i: int) -> None:
        if not 0 <= n <= self.max_n:
            raise ValueError(f"row {n} outside 0..{self.max_n}")
        if not 1 <= i <= self.threshold_a:
            raise ValueError(f"ending state {i} outside 1..{self.threshold_a}")


def ending_state_probs(
    model: SurvivorModel, max_n: int, threshold_a: int
) -> EndingStateTable:
    """Where the stopped chain lands, for every start below ``max_n``."""
    if threshold_a < 1:
        raise ValueError("ending-state analysis needs threshold >= 1")
    _validate_setup(model, max_n, threshold_a, InitConvention.STANDARD)
    a = threshold_a
    fixed = {}
    for k in range(min(a, max_n) + 1):
        unit = np.zeros(a + 1, dtype=object)
        unit[max(k, 1)] = 1  # a wipe-out ends with one player
        fixed[k] = unit
    exact, probs = _upward_sweep(_transient_rows(model, a, max_n), fixed, 0)
    exact = {n: tuple(v) for n, v in exact.items()}
    return EndingStateTable(
        model=model, max_n=max_n, threshold_a=a, probs=probs, exact=exact
    )


def _downward_sweep(
    model: SurvivorModel, start: int, a: int
) -> tuple[dict[int, Fraction | float], dict[int, Fraction | float]]:
    """Expected visits and entering mass per state, from one start.

    The mass entering k is ``[k = start] + sum_{m>k} visits(m) P(m, k)``;
    visits divide it by ``1 - P(k, k)`` above the threshold.  States no
    mass enters are skipped and their rows never fetched.
    """
    inflow: dict[int, Fraction | float] = {start: Fraction(1)}
    visits: dict[int, Fraction | float] = {}
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


def passage_probs(
    model: SurvivorModel, n: int, states: list[int]
) -> dict[int, Fraction] | dict[int, float]:
    """Probability that some round has exactly i survivors.

    For i >= 2 this is the mass entering i, visits(i) * (1 - P(i, i)); for
    i = 1 a wiped-out game counts as ending with one player, as in
    :func:`ending_state_probs`.  Exact when n is within the model's cutoff.
    """
    if any(i < 1 for i in states):
        raise ValueError("passage states start at 1")
    _validate_setup(model, n, 1, InitConvention.STANDARD)
    _, inflow = _downward_sweep(model, n, 1)
    zero = Fraction(0)
    return {
        i: inflow.get(i, zero) + (inflow.get(0, zero) if i == 1 else zero) for i in states
    }


@dataclass
class Occupancy:
    """Expected visit counts Q per state, from one fixed start.

    For a strictly decreasing chain Q(k) is the probability that some
    round starts with exactly k players; below the threshold it is the
    probability of ending there (state 0 kept separate from state 1).
    ``mean_recovered`` re-derives the expected phase count as the total
    time spent in transient states.  Exact when the start is within the
    model's cutoff.
    """

    start_n: int
    threshold_a: int
    visits: dict[int, Fraction] | dict[int, float]
    mean_recovered: Fraction | float


def occupancy_probs(model: SurvivorModel, start_n: int, threshold_a: int = 1) -> Occupancy:
    """Expected visits per state from one starting size, by one downward sweep."""
    _validate_setup(model, start_n, threshold_a, InitConvention.STANDARD)
    visits, _ = _downward_sweep(model, start_n, threshold_a)
    mean_recovered = sum((v for k, v in visits.items() if k > threshold_a), Fraction(0))
    return Occupancy(
        start_n=start_n,
        threshold_a=threshold_a,
        visits=visits,
        mean_recovered=mean_recovered,
    )
