"""Phase-count laws of elimination chains: exact tables and ending states.

The chain starts at n and in each round jumps to the survivor count drawn
from the model; every state at or below the stop threshold is absorbing.
The law of the number of rounds is built column by column:

    rounds(n, j) = sum_k P(n, k) * rounds(k, j - 1)

The absorbing states are ordinary entries of every column: state k holds
``[j == cost(k)]``, where cost(0), what a wiped-out round adds, is one
phase under ALT_COST and every other cost is zero.  So each transient
entry is the plain sum over its whole row, absorbing entries included.

Everything else comes from one upward sweep over the transient states.
It applies the first-step identity with the k = n self-loop solved out,

    f(n) = (c + sum_{k<n} P(n, k) f(k)) / (1 - P(n, n)),

giving expected phase counts (c = 1) and ending-state laws (c = 0, f a
vector).  On integer rows it keeps f as numerators over one common
denominator.

Rows come from the model's reader ``read_rows``: integer rows up to its
``exact_cutoff``, float arrays beyond.  That alone decides which results
are exact.  An exact phase column is two int lists, numerators and
denominators in lowest terms, read as floats by one ``int / int`` each.
The exact phase columns alone keep their denominators split into an odd
part and a power of two, the split ``lowest_terms`` reduces by, so each
reduction shifts out the shared twos before one gcd against the odd part;
on the dyadic coin rows every odd part is 1, and they are reduced and
rescaled by shifts alone.  The mean and ending-state sweeps hold plain
int common denominators.  The ``Fraction`` rows of
``PhaseTable.exact_rows`` are built only when read.
The float rows are swept in n order: each row's block of columns is one
``einsum`` over the rows below it, adding in ascending k with the
self-loop last, the order of a sparse row product.  A table keeps its
integer rows but no float row: each pass reads the float rows again from
``read_rows``, whose caches keep only a short prefix of each law, so
memory stays flat in n.

The column count is predicted first, so the exact columns are pulled to
it and no further.  The paper's X_n - log_{1/alpha} n stays tight with
no drift, so for a model with alpha in (0, 1) a float sweep runs over a
prefix of the states only, those up to m = max(last integer row, 64),
and ceil(log_{1/alpha}(max_n / m)) + 1 columns are added to where its
stop rule fires; the one covers the oscillation.  A model with no alpha,
or a table that ends by m, is swept over every state, and nothing is
added.  The final sweep reads the rounded exact columns, replays the
stop rule, and row by row in the same pass solves the float states'
expected phase counts.  It widens one column at a time if the guess is
short, and cuts at its own stop if it is long, moving the kept columns
to the front of its buffer a block of rows at a time and shrinking the
buffer in place: the guess sets the cost, never an output bit.  Float
rows read the already-exact low results, so exactness degrades only
where the rationals would be unaffordable anyway.  The stop rule takes
its residuals a block of rows at a time.  The ``electra.engine`` logger,
silent unless configured, notes at DEBUG a final sweep that widens past
its guess and a table that the stall rule, not the residual, ends.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import TextIO

import numpy as np

from .models import SurvivorModel, float_row

#: stop adding phase columns once every row holds all but this much mass
DEFAULT_RESIDUAL_EPS = 1e-12

_J_CAP = 20_000

#: rows of the float table that ``PhaseTable.to_csv`` formats at a time
_CSV_ROWS = 256

#: rows whose residuals ``_stop_column`` takes at a time: two temporaries of
#: the table's size would set a large table's peak (a fair-coin table to
#: 32,768 peaks at 83 MB with them, 65 MB without)
_STOP_ROWS = 256

#: the column predictor sweeps the states up to the last integer row, and
#: at least up to this one, then extrapolates the count to ``max_n``
_PREDICT_ROWS = 64

#: columns added to the extrapolated count for the oscillation of
#: X_n - log_{1/alpha} n about its level
_PREDICT_MARGIN = 1


def _debug(msg: str, *args: object) -> None:
    """Log ``msg % args`` at DEBUG on this module's logger, in the
    ``electra`` tree.  Importing ``logging`` costs every command about 6 ms
    and 0.4 MB, so it is left to whoever configures it: until a program
    imports it, no handler or level could show the record."""
    if (logging := sys.modules.get("logging")) is not None:
        logging.getLogger(__name__).debug(msg, *args)


_fraction = np.frompyfunc(Fraction, 2, 1)  # elementwise on object arrays


#: bits of an int that ``str`` writes under any int-to-str digit limit:
#: 2000 bits is at most 603 digits, and no limit can be set below 640
_STR_BITS = 2000


def decimal_str(x: int) -> str:
    """``str(x)`` of an int ``x >= 0``, also past the interpreter's limit on
    the digits of an int-to-str conversion (``sys.get_int_max_str_digits``):
    a longer integer is split by a power of ten and its halves written in
    turn.  The process-wide limit is left alone, since tables are shared
    across threads."""
    if x.bit_length() <= _STR_BITS:
        return str(x)
    k = x.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    hi, lo = divmod(x, 10**k)
    return decimal_str(hi) + decimal_str(lo).zfill(k)


def _lowest(num: int, odd: int, twos: int) -> tuple[int, int, int]:
    """``num / (odd << twos)`` in lowest terms, as ``(num, odd, twos)``;
    zero is ``(0, 1, 0)``.  The twos both share are shifted out, so one
    ``gcd`` against the odd part finishes the job: on the dyadic coin rows
    it is 1, and no long gcd runs."""
    if not num:
        return 0, 1, 0
    shift = min((num & -num).bit_length() - 1, twos)
    num >>= shift
    if (g := math.gcd(num, odd)) > 1:
        num, odd = num // g, odd // g
    return num, odd, twos - shift


def lowest_terms(num: int, den: int) -> tuple[int, int]:
    """``num / den`` in lowest terms, ``den > 0``; zero is ``(0, 1)``.

    It reduces by the split ``odd << twos`` of ``den`` (:func:`_lowest`),
    as the exact phase columns do: the shared twos are shifted out and one
    ``gcd`` runs against the odd part, which on the dyadic rows of the coin
    models is 1.
    """
    twos = (den & -den).bit_length() - 1
    num, odd, twos = _lowest(num, den >> twos, twos)
    return num, odd << twos


def write_ratios(path: str | Path, index: str, ratios: Iterable[tuple[int, ...]]) -> None:
    """Write ``path`` with the header ``n,<index>,numerator,denominator``
    and one line ``n,i,p,q`` per ``(n, i, p, q)`` of ``ratios`` with
    ``p != 0``, the ratios given in lowest terms and their integers written
    in full (:func:`decimal_str`), through :func:`write_atomic`."""
    with write_atomic(path) as fh:
        fh.write(f"n,{index},numerator,denominator\n")
        fh.writelines(f"{n},{i},{decimal_str(p)},{decimal_str(q)}\n" for n, i, p, q in ratios if p)


@contextlib.contextmanager
def write_atomic(path: str | Path) -> Iterator[TextIO]:
    """Open ``path`` for writing text so that it appears whole or not at all.

    The block writes to a new temp file beside ``path``, created by ``open``
    so the umask sets its mode as for any file; when the block ends the temp
    file is renamed onto ``path``, and if the block raises it is removed and
    ``path`` keeps what it held.  A missing directory is made first.  The
    file is opened with ``newline=""``: every writer ends its lines itself.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class InitConvention(str, Enum):
    STANDARD = "standard"  # ending with nobody left costs nothing extra
    ALT_COST = "altcost"  # the final forced pick costs one phase


@dataclass
class PhaseTable:
    """Distribution of the number of phases, all starting sizes at once.

    ``probs[n, j]`` is the probability that the game starting from n
    players takes exactly j phases; ``cdf`` and ``cdf_row`` take its running
    sum in j.
    ``exact_ints[n]`` holds the same row as two int tuples, numerators and
    denominators in lowest terms, for the absorbing states and every n up
    to the cutoff; ``exact_rows`` is its view as tuples of ``Fraction``,
    built on first read and kept.
    The exact CSV reads the ints, so a table whose ``exact_rows`` is never
    read builds no ``Fraction``.  Immutable after construction (the view
    is the same whichever thread builds it); share freely across threads.
    """

    model: SurvivorModel
    max_n: int
    threshold_a: int
    init: InitConvention
    exact_cutoff: int
    residual_eps: float
    j_max: int
    probs: np.ndarray
    exact_ints: dict[int, tuple[tuple[int, ...], tuple[int, ...]]]
    means: np.ndarray
    exact_means: dict[int, Fraction]
    mean_gap: float

    @functools.cached_property
    def exact_rows(self) -> dict[int, tuple[Fraction, ...]]:
        return {n: tuple(map(Fraction, *ints)) for n, ints in self.exact_ints.items()}

    def prob(self, n: int, j: int) -> float:
        self._check_n(n)
        return float(self.probs[n, j]) if 0 <= j <= self.j_max else 0.0

    def cdf(self, n: int, j: int) -> float:
        cum = self.cdf_row(n)
        return float(cum[min(j, self.j_max)]) if j >= 0 else 0.0

    def row(self, n: int) -> np.ndarray:
        self._check_n(n)
        return self.probs[n].copy()

    def cdf_row(self, n: int) -> np.ndarray:
        self._check_n(n)
        return np.cumsum(self.probs[n])

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

    def _check_n(self, n: int) -> None:
        if not 0 <= n <= self.max_n:
            raise ValueError(f"row {n} outside 0..{self.max_n}")

    def to_csv(self, path: str | Path, *, exact_path: str | Path | None = None) -> None:
        """Write the float law to ``path``; optionally the exact rows to
        ``exact_path``.

        ``path`` gets the header ``n,j,prob`` and one line per entry with
        ``probs[n, j] > 0.0``, in (n, j) order, the value written as its
        ``repr``: the shortest decimal that reads back as the same float,
        so the file round-trips exactly.  ``exact_path`` gets the header
        ``n,j,numerator,denominator`` and one line per nonzero exact entry
        in lowest terms, integers of any length written in full, straight
        from ``exact_ints`` (:func:`write_ratios`).
        Each file goes through :func:`write_atomic`, so it appears whole or
        not at all.

        ``repr`` is the floor of the float file and most of its cost; it
        stays, since no other format is both exact and this short.  So the
        writer adds as little as it can around it: each row is one
        ``"".join`` of f-strings over the prefix ``"n,"``, built once per
        row, and the prefixes ``"j,"``, built once per table.  Rows are
        listed ``_CSV_ROWS`` at a time, so memory stays one block.
        """
        cols = [f"{j}," for j in range(self.probs.shape[1])]
        with write_atomic(path) as fh:
            fh.write("n,j,prob\n")
            for lo in range(0, len(self.probs), _CSV_ROWS):
                for n, row in enumerate(self.probs[lo : lo + _CSV_ROWS].tolist(), lo):
                    pn = f"{n},"
                    fh.write("".join([f"{pn}{c}{p!r}\n" for c, p in zip(cols, row) if p > 0.0]))
        if exact_path is not None:
            write_ratios(exact_path, "j", (
                (n, j, p, q)
                for n, (nums, dens) in sorted(self.exact_ints.items())
                for j, (p, q) in enumerate(zip(nums, dens))
            ))

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

        with write_atomic(path) as fh:
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
    a = threshold_a
    # absorbing state k adds cost[k] phases; only a wiped-out round can cost
    cost = [int(init is InitConvention.ALT_COST)] + [0] * min(a, max_n)
    rows = _transient_rows(model, a, max_n)
    # the costly exact columns are pulled to the predicted count and no
    # further; the guess sets the cost, never an output bit
    width = _predicted_width(rows, cost, residual_eps)
    # the final fill solves the float rows' means on its first pass
    exact_means, means = _upward_sweep(rows, dict(enumerate(cost)), 1, floats=False)
    probs, exact_cols, stalled = _fill_columns(
        rows, _exact_columns(rows, cost), rows.split, width,
        lambda width: width + 1, residual_eps, model.name, means,
    )
    j_max = probs.shape[1] - 1
    if j_max >= width:
        _debug("%s to %d: widened past the %d predicted columns to %d",
               model.name, max_n, width, j_max + 1)
    if stalled:
        _debug("%s to %d: the stall rule, not residual_eps %g, ended the table at column %d",
               model.name, max_n, residual_eps, j_max)
    col_nums, col_dens = zip(*exact_cols)
    exact_ints = dict(enumerate(zip(zip(*col_nums), zip(*col_dens))))
    gaps = probs @ np.arange(j_max + 1, dtype=float)  # the direct means, then the gaps
    gaps -= means  # in place: each temporary of the table's height adds to its peak
    mean_gap = float(np.max(np.abs(gaps, out=gaps)))
    tol = max(1e-10, residual_eps * (j_max + 20))
    if mean_gap > tol:
        raise ValueError(f"mean formulas disagree by {mean_gap:.3e} (tolerance {tol:.1e})")
    return PhaseTable(
        model=model,
        max_n=max_n,
        threshold_a=a,
        init=init,
        exact_cutoff=model.exact_cutoff,
        residual_eps=residual_eps,
        j_max=j_max,
        probs=probs,
        exact_ints=exact_ints,
        means=means,
        exact_means=exact_means,
        mean_gap=mean_gap,
    )


@dataclass(frozen=True)
class _Rows:
    """Rows of the transient states a+1..max_n, ascending (none if
    max_n <= a).

    ``exact`` holds the integer rows ``(lo, numerators, denominator)`` of
    the states up to the model's cutoff, the states below ``split``.  Float
    rows are not kept: each pass reads them again through :meth:`floats`.
    """

    model: SurvivorModel
    a: int
    max_n: int
    exact: list[tuple[int, list[int], int]]

    @property
    def split(self) -> int:
        """The first state past the integer rows."""
        return self.a + 1 + len(self.exact)

    def floats(self, first: int) -> Iterator[tuple[int, np.ndarray]]:
        """``(lo, masses)`` of the states first..max_n in ascending n, the
        integer rows rounded."""
        yield from map(float_row, self.exact[first - self.a - 1 :])
        yield from self.model.read_rows(max(first, self.split), self.max_n + 1)


def _transient_rows(model: SurvivorModel, a: int, max_n: int) -> _Rows:
    exact = itertools.takewhile(lambda row: len(row) == 3, model.read_rows(a + 1, max_n + 1))
    return _Rows(model, a, max_n, list(exact))


def _predicted_width(rows: _Rows, cost: list[int], residual_eps: float) -> int:
    """The column count the final fill starts at: where the stop rule
    fires on a float sweep of the states, doubling its columns until it
    does, plus the growth the law takes past the states swept.

    X_n - log_{1/alpha} n stays tight, with no drift.  So for a model whose
    ``declared_alpha`` is in (0, 1) the sweep covers the states up to
    m = max(last integer row, ``_PREDICT_ROWS``) only, and when that stops
    short of ``max_n``, ceil(log_{1/alpha}(max_n / m)) + ``_PREDICT_MARGIN``
    columns are added, the logarithm taken exactly in ``Fraction``.  Any
    other model is swept over every state, and nothing is added.
    """
    alpha, top, extra = rows.model.declared_alpha, rows.max_n, 0
    m = max(rows.split - 1, _PREDICT_ROWS)
    if alpha is not None and 0 < alpha < 1 and m < top:
        extra = next(k for k in itertools.count() if m >= top * alpha**k) + _PREDICT_MARGIN
        rows = replace(rows, max_n=m)
    units = (([int(j == c) for c in cost], [1] * len(cost)) for j in itertools.count())
    probs = _fill_columns(
        rows, units, rows.a + 1, 64, lambda width: 2 * width, residual_eps, rows.model.name
    )[0]
    return probs.shape[1] + extra


def _fill_columns(
    rows: _Rows,
    base: Iterator[tuple[list[int], list[int]]],
    first: int,
    width: int,
    grow: Callable[[int], int],
    residual_eps: float,
    name: str,
    means: np.ndarray | None = None,
) -> tuple[np.ndarray, list[tuple[list[int], list[int]]], bool]:
    """The phase table cut at the column where the stop rule fires.

    Column j of the states below ``first`` is the j-th pair of numerator
    and denominator lists from ``base``, each entry one correctly rounded
    ``int / int``; the states from ``first`` up are swept.  The table
    starts ``width`` columns wide and is widened to ``grow(width)`` until
    the rule fires.  The first sweep also solves ``means`` from ``first``
    up.  Returns the table cut at that column, C-contiguous in the buffer
    it was filled in, the base columns it used, and whether the stall
    rule, not the residual, fired.
    """
    probs = np.zeros((rows.max_n + 1, 0))
    used: list[tuple[list[int], list[int]]] = []
    while True:
        done, probs = probs.shape[1], np.pad(probs, ((0, 0), (0, width - probs.shape[1])))
        for j, (nums, dens) in enumerate(itertools.islice(base, width - done), done):
            probs[: len(nums), j] = list(map(operator.truediv, nums, dens))
            used.append((nums, dens))
        _sweep(probs, rows, first, max(done, 1), means)
        means = None
        stop = _stop_column(probs, rows.a, residual_eps)
        if stop is not None:
            return _cut_columns(probs, stop[0] + 1), used[: stop[0] + 1], stop[1]
        if width > _J_CAP:
            raise RuntimeError(f"phase law did not absorb within {_J_CAP} columns for {name}")
        width = min(grow(width), _J_CAP + 1)


def _cut_columns(probs: np.ndarray, width: int) -> np.ndarray:
    """``probs[:, :width]`` in the buffer of ``probs``, which must own its
    C-contiguous data and have no view left: the kept rows move forward
    ``_STOP_ROWS`` at a time, then the buffer is shrunk in place.  So the
    table is never copied whole (a copy would set a large table's peak),
    and keeps no spare columns."""
    if width < probs.shape[1]:
        cut = probs.reshape(-1)[: len(probs) * width].reshape(len(probs), width)
        for lo in range(0, len(probs), _STOP_ROWS):
            # numpy buffers a block whose source and destination overlap
            cut[lo : lo + _STOP_ROWS] = probs[lo : lo + _STOP_ROWS, :width]
        del cut
        probs.resize((len(probs), width), refcheck=False)
    return probs


def _sweep(
    probs: np.ndarray, rows: _Rows, first: int, j0: int, means: np.ndarray | None = None
) -> None:
    """Fill columns j0.. of the states first..max_n in place, n ascending.

    Each entry adds ``P(n, k) * probs[k, j - 1]`` in ascending k, the
    self-loop last, so it has the bits of a sparse row product.  Given
    ``means``, the same pass solves each state's expected phase count from
    the ones below it, as :func:`_upward_sweep` does on float rows.
    """
    for n, (lo, masses) in enumerate(rows.floats(first), first):
        stay = 0.0
        if lo + len(masses) > n:  # the row ends on its self-loop
            stay, masses = float(masses[-1]), masses[:-1]
        if means is not None:
            means[n] = (1 + masses @ means[lo : lo + len(masses)]) / (1 - stay)
        out = probs[n, j0:]
        np.einsum("w,wj->j", masses, probs[lo : lo + len(masses), j0 - 1 : -1], out=out)
        if stay:
            steps = itertools.accumulate(out.tolist(), lambda prev, x: x + stay * prev,
                                         initial=float(probs[n, j0 - 1]))
            out[:] = list(steps)[1:]


def _stop_column(probs: np.ndarray, a: int, residual_eps: float) -> tuple[int, bool] | None:
    """The first column j >= 1 by which every transient row holds all but
    ``residual_eps`` of its mass, or None if no column of ``probs`` does;
    with it, whether the stall rule fired.

    Float rows with truncated tails can floor the residual above eps, so
    the rule also fires once progress has stalled for 100 columns with
    every row complete to the contractual 1e-9.  The residuals are taken
    ``_STOP_ROWS`` rows at a time, so no temporary is the table's size.
    """
    worst = np.full(probs.shape[1], -math.inf)
    for lo in range(a + 1, len(probs), _STOP_ROWS):
        block = np.cumsum(probs[lo : lo + _STOP_ROWS], axis=1)
        np.maximum(worst, np.subtract(1.0, block, out=block).max(axis=0), out=worst)
    best, stalled = math.inf, 0
    for j, residual in enumerate(worst.tolist()[1:], 1):
        if residual < residual_eps:
            return j, False
        if residual < 0.99 * best:
            best, stalled = residual, 0
        else:
            stalled += 1
            if stalled >= 100 and residual < 1e-9:
                return j, True
    return None


def _exact_columns(rows: _Rows, cost: list[int]) -> Iterator[tuple[list[int], list[int]]]:
    """Exact phase columns j = 0, 1, ..., indexed by state, as numerator
    and denominator lists in lowest terms: absorbing state k holds
    ``[j == cost[k]]``, each integer row's state the sum over its whole row
    of the previous column.

    The previous column is put over one denominator, the lcm of its
    entries', so each entry costs one integer dot product with its row and
    one reduction.  Every denominator is kept split into an odd part and a
    power of two (:func:`_lowest`), so the rescale to the lcm is a shift
    plus a multiply by an odd quotient.  On the dyadic coin rows every odd
    part is 1: the exact columns build no ``Fraction``, run no long gcd and
    rescale by shifts alone.
    """
    row_dens = [(den >> (t := (den & -den).bit_length() - 1), t) for _, _, den in rows.exact]
    nums, odd, twos = [0] * (len(cost) + len(rows.exact)), 1, 0  # column -1: zero over 1 << 0
    for j in itertools.count():
        # entry k of column j is col_nums[k] / (odds[k] << twoss[k])
        col_nums, odds, twoss = [int(j == c) for c in cost], [1] * len(cost), [0] * len(cost)
        for (lo, row, _), (row_odd, row_twos) in zip(rows.exact, row_dens):
            total = sum(map(operator.mul, row, nums[lo : lo + len(row)]))
            p, q, t = _lowest(total, row_odd * odd, row_twos + twos)
            col_nums.append(p)
            odds.append(q)
            twoss.append(t)
        yield col_nums, [q << t for q, t in zip(odds, twoss)]
        odd, twos = math.lcm(*odds), max(twoss)
        nums = [p * (odd // q) << (twos - t) for p, q, t in zip(col_nums, odds, twoss)]


def _upward_sweep(
    rows: _Rows, fixed: dict[int, object], c: int, *, floats: bool = True
) -> tuple[dict[int, object], np.ndarray]:
    """Solve f(n) = (c + sum_{k<n} P(n,k) f(k)) / (1 - P(n,n)) upward.

    ``fixed`` holds f on the absorbing states 0..a, as integers or object
    arrays of them.  Returns f exactly, as Fractions or object arrays of
    them, on those states and the integer rows' states, and f on every
    state as floats (one array row per state).  The exact values are kept
    as integer numerators over one common denominator, so each integer row
    takes one integer dot product; the float rows each take one dot
    product, unless ``floats`` is false: then their states are left 0 for
    the caller to solve in its own pass over the rows.
    """
    exact = {k: _fraction(v, 1) for k, v in fixed.items()}
    f = np.array([np.asarray(v, dtype=float) for v in fixed.values()])
    f = np.concatenate([f, np.zeros((max(rows.max_n - rows.a, 0),) + f.shape[1:])])
    nums, scale = list(fixed.values()), 1  # exact f(k) = nums[k] / scale
    for n, (lo, row, den) in enumerate(rows.exact, rows.a + 1):
        stay = row[n - lo] if lo + len(row) > n else 0
        # nums stops at state n - 1, so the self-loop drops out of the sum
        numer = c * den * scale + sum(map(operator.mul, row, nums[lo:n]))
        denom = (den - stay) * scale
        exact[n] = _fraction(numer, denom)
        f[n] = np.asarray(exact[n], dtype=float)
        # the lcm of the reduced denominators is denom / gcd(denom, *numer)
        reduced = math.lcm(*(x.denominator for x in np.ravel(exact[n])))
        grown = math.lcm(scale, reduced)
        if grown != scale:
            up = grown // scale
            nums = [x * up for x in nums]
        nums.append(numer // (denom // reduced) * (grown // reduced))
        scale = grown
    for n, (lo, probs) in enumerate(rows.floats(rows.split) if floats else (), rows.split):
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
