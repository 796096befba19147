"""Survivor-count laws for one elimination round, behind one interface.

Each model answers: starting a round with n players, how many survive?
Exact rational pmfs are served up to ``exact_cutoff``; above it a floating
backend takes over so phase tables can be pushed into the thousands.  The
coin models' float rows are binomial windows with tails below
``TAIL_TRUNCATION`` dropped; the peak models' float rows come from the
exact peak-count recurrence run on probabilities, so they match the
rational rows to rounding at every n.
"""
from __future__ import annotations

import abc
import csv
import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import stats

from .peaks import (
    DEFAULT_EXACT_CAP,
    PeakTable,
    PeakVariant,
    build_peak_table,
    interior_peak_probs,
)

#: largest n served as exact rationals unless a model is told otherwise
DEFAULT_EXACT_CUTOFF = 75

#: probability mass below which floating-point tails are dropped
TAIL_TRUNCATION = 1e-15


@dataclass(frozen=True)
class SurvivorModel(abc.ABC):
    """One round of elimination: the law of the survivor count.

    Subclasses provide :meth:`pmf_exact`; the floating backend defaults to
    a float cast of the exact pmf and is overridden where a cheaper or
    unbounded-n path exists.
    """

    exact_cutoff: int = field(default=DEFAULT_EXACT_CUTOFF, kw_only=True)

    #: lowest state the chain can occupy (0 only for kill-everyone chains)
    absorbing_state = 1

    @property
    @abc.abstractmethod
    def name(self) -> str: ...

    @abc.abstractmethod
    def pmf_exact(self, n: int) -> dict[int, Fraction]: ...

    @property
    def declared_alpha(self) -> Fraction | None:
        """Survival ratio the model is designed around, if any."""
        return None

    @property
    def can_reach_zero(self) -> bool:
        return self.absorbing_state == 0

    def pmf_float(self, n: int) -> dict[int, float]:
        return {k: float(p) for k, p in self.pmf_exact(n).items()}

    def pmf(self, n: int) -> dict[int, Fraction] | dict[int, float]:
        """Exact rationals up to the cutoff, floats beyond."""
        if n <= self.exact_cutoff:
            return self.pmf_exact(n)
        return self.pmf_float(n)

    def mean(self, n: int) -> Fraction | float:
        pmf = self.pmf(n)
        return sum(k * p for k, p in pmf.items())

    def cdf(self, n: int, k: int) -> Fraction | float:
        pmf = self.pmf(n)
        return sum(p for j, p in pmf.items() if j <= k)

    def support(self, n: int) -> list[int]:
        return sorted(self.pmf(n))

    def sample_many(
        self, n: int, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Inverse-CDF sampling; deterministic given the generator state."""
        items = sorted(self.pmf_float(n).items())
        values = np.array([k for k, _ in items])
        cum = np.cumsum([p for _, p in items])
        cum[-1] = max(cum[-1], 1.0)
        u = rng.random(size)
        return values[np.searchsorted(cum, u, side="right")]

    def sample(self, n: int, rng: np.random.Generator) -> int:
        return int(self.sample_many(n, 1, rng)[0])

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

    def pmf_exact(self, n: int) -> dict[int, Fraction]:
        self._require_positive(n)
        if n == 1:
            return {1: Fraction(1)}
        if n % 2 == 0:
            return {n // 2: Fraction(1)}
        return {n // 2: Fraction(1, 2), n // 2 + 1: Fraction(1, 2)}


@dataclass(frozen=True)
class DeterministicHalving(SurvivorModel):
    """Exactly floor(n/2) survive; the standard counterexample model."""

    @property
    def name(self) -> str:
        return "det-halving"

    @property
    def declared_alpha(self) -> Fraction:
        return Fraction(1, 2)

    def pmf_exact(self, n: int) -> dict[int, Fraction]:
        self._require_positive(n)
        return {max(n // 2, 1): Fraction(1)}


def _binomial_row_exact(n: int, p: Fraction) -> list[Fraction]:
    q = 1 - p
    return [math.comb(n, k) * p**k * q ** (n - k) for k in range(n + 1)]


def _binomial_window(n: int, p: float) -> tuple[int, int, np.ndarray]:
    """Support window of Bi(n, p) holding all but < 2e-15 of the mass."""
    dist = stats.binom(n, p)
    lo = int(dist.ppf(TAIL_TRUNCATION))
    hi = int(dist.isf(TAIL_TRUNCATION))
    ks = np.arange(lo, hi + 1)
    return lo, hi, dist.pmf(ks)


@dataclass(frozen=True)
class _Coin(SurvivorModel):
    """A round where each player survives on heads with probability p.

    Subclasses say what becomes of a wiped-out or thinned round: exact rows
    from the whole binomial row, float rows from the window that holds all
    but ``TAIL_TRUNCATION`` of the mass.
    """

    p: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 < self.p < 1:
            raise ValueError(f"need p in (0,1), got {self.p}")

    @property
    def declared_alpha(self) -> Fraction:
        return self.p

    def pmf_float(self, n: int) -> dict[int, float]:
        if n <= self.exact_cutoff:
            return {k: float(v) for k, v in self.pmf_exact(n).items()}
        return self._window_row(n, *_binomial_window(n, float(self.p)))

    @abc.abstractmethod
    def _window_row(self, n: int, lo: int, hi: int, probs: np.ndarray) -> dict[int, float]:
        """Float row from the Bi(n, p) masses ``probs`` on ``lo..hi``."""


@dataclass(frozen=True)
class BiasedCoin(_Coin):
    """Every player survives on heads (probability p); if all throw tails,
    everyone survives the round instead, so the game cannot die out."""

    @property
    def name(self) -> str:
        return f"biased-coin(p={self.p})"

    def pmf_exact(self, n: int) -> dict[int, Fraction]:
        self._require_positive(n)
        row = _binomial_row_exact(n, self.p)
        pmf = {k: row[k] for k in range(1, n + 1)}
        pmf[n] += row[0]  # all-tails rescue maps to "everyone survives"
        return pmf

    def _window_row(self, n: int, lo: int, hi: int, probs: np.ndarray) -> dict[int, float]:
        pmf = {k: float(v) for k, v in zip(range(lo, hi + 1), probs) if v > 0.0}
        pmf.pop(0, None)
        rescue = float(1 - self.p) ** n  # all tails; the window holds all heads
        if rescue >= TAIL_TRUNCATION:
            pmf[n] = pmf.get(n, 0.0) + rescue
        return pmf


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

    def pmf_exact(self, n: int) -> dict[int, Fraction]:
        self._require_positive(n)
        row = _binomial_row_exact(n, self.p)
        pmf = {k: row[k] for k in range(2, n + 1)}
        pmf[1] = row[0] + row[1] if n >= 2 else Fraction(1)
        return pmf

    def _window_row(self, n: int, lo: int, hi: int, probs: np.ndarray) -> dict[int, float]:
        pmf = {k: float(v) for k, v in zip(range(lo, hi + 1), probs) if v > 0.0}
        low_mass = sum(pmf.pop(k) for k in (0, 1) if k in pmf)
        low_mass += float(stats.binom(n, float(self.p)).cdf(min(1, lo - 1)))
        if low_mass >= TAIL_TRUNCATION:
            pmf[1] = low_mass
        return pmf


@dataclass(frozen=True)
class DemonCoin(_Coin):
    """Coin elimination with no rescue plus a demon that kills one extra
    survivor with probability nu; the chain is absorbed at zero."""

    nu: Fraction

    absorbing_state = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "nu", Fraction(self.nu))
        if not 0 <= self.nu <= 1:
            raise ValueError(f"need nu in [0,1], got {self.nu}")

    @property
    def name(self) -> str:
        return f"demon-coin(p={self.p},nu={self.nu})"

    def pmf_exact(self, n: int) -> dict[int, Fraction]:
        if n < 0:
            raise ValueError(f"{self.name}: need n >= 0, got {n}")
        if n == 0:
            return {0: Fraction(1)}
        row = _binomial_row_exact(n, self.p)
        keep, kill = 1 - self.nu, self.nu
        pmf = {0: row[0] + kill * row[1]}
        for j in range(1, n + 1):
            mass = keep * row[j]
            if j + 1 <= n:
                mass += kill * row[j + 1]
            pmf[j] = mass
        return {k: v for k, v in pmf.items() if v != 0}

    def _window_row(self, n: int, lo: int, hi: int, probs: np.ndarray) -> dict[int, float]:
        heads = dict(zip(range(lo, hi + 1), probs))
        keep, kill = 1.0 - float(self.nu), float(self.nu)
        pmf: dict[int, float] = {}
        for j in range(max(lo - 1, 0), hi + 1):
            mass = keep * heads.get(j, 0.0) + kill * heads.get(j + 1, 0.0)
            if j == 0:
                mass = heads.get(0, 0.0) + kill * heads.get(1, 0.0)
            if mass > 0.0:
                pmf[j] = mass
        return pmf

    def shifted(self) -> "DummyShiftedDemon":
        """Absorption-at-one form: one never-eliminated dummy player is
        added, so state k here means k-1 real players."""
        return DummyShiftedDemon(base=self, exact_cutoff=self.exact_cutoff)


@dataclass(frozen=True)
class DummyShiftedDemon(SurvivorModel):
    """Demon-coin chain lifted from {0,1,...} to {1,2,...}."""

    base: DemonCoin

    @property
    def name(self) -> str:
        return self.base.name + "+dummy"

    @property
    def declared_alpha(self) -> Fraction:
        return self.base.declared_alpha

    def pmf_exact(self, n: int) -> dict[int, Fraction]:
        self._require_positive(n)
        return {k + 1: v for k, v in self.base.pmf_exact(n - 1).items()}

    def pmf_float(self, n: int) -> dict[int, float]:
        self._require_positive(n)
        return {k + 1: v for k, v in self.base.pmf_float(n - 1).items()}


class _PeakRows:
    """Peak rows shared by every :class:`PeakSurvivors`, behind one lock.

    Exact tables are built once per variant, to ``DEFAULT_EXACT_CAP``.
    Float rows are linear-I rows of the normalised recurrence, grown row by
    row and kept as (first k, masses above ``TAIL_TRUNCATION``).  Row 0 is
    the empty arrangement, so row n - 1 also serves circular row n.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: dict[PeakVariant, PeakTable] = {}
        self._front = np.ones(1)  # untrimmed float row len(self._floats) - 1
        self._floats: list[tuple[int, np.ndarray]] = [(0, np.ones(1)), (0, np.ones(1))]

    def table(self, variant: PeakVariant) -> PeakTable:
        with self._lock:
            if variant not in self._tables:
                self._tables[variant] = build_peak_table(variant, DEFAULT_EXACT_CAP)
            return self._tables[variant]

    def linear_float(self, n: int) -> tuple[int, np.ndarray]:
        with self._lock:
            while len(self._floats) <= n:
                self._front = interior_peak_probs(self._front, len(self._floats))
                keep = np.flatnonzero(self._front > TAIL_TRUNCATION)
                lo, hi = int(keep[0]), int(keep[-1])
                self._floats.append((lo, self._front[lo : hi + 1].copy()))
            return self._floats[n]


_PEAK_ROWS = _PeakRows()


@dataclass(frozen=True)
class PeakSurvivors(SurvivorModel):
    """Survivors of a redraw round are the peaks of a fresh random
    permutation under the chosen boundary rule."""

    variant: PeakVariant

    def __post_init__(self) -> None:
        if self.exact_cutoff > DEFAULT_EXACT_CAP:
            raise ValueError(
                f"{self.name}: exact_cutoff {self.exact_cutoff} exceeds the exact"
                f" peak-table cap {DEFAULT_EXACT_CAP}"
            )

    @property
    def name(self) -> str:
        return f"peak-{self.variant.value}"

    @property
    def declared_alpha(self) -> Fraction:
        return Fraction(1, 3)

    @property
    def can_reach_zero(self) -> bool:
        return self.variant is PeakVariant.LINEAR_I

    def pmf_exact(self, n: int) -> dict[int, Fraction]:
        self._require_positive(n)
        return dict(_PEAK_ROWS.table(self.variant).row(n).probs)

    def pmf_float(self, n: int) -> dict[int, float]:
        # circular row n is linear-I row n - 1, linear-II row n is linear-I
        # row n, each shifted by one peak
        self._require_positive(n)
        base = n - 1 if self.variant is PeakVariant.CIRCULAR else n
        lo, probs = _PEAK_ROWS.linear_float(base)
        if self.variant is not PeakVariant.LINEAR_I:
            lo += 1
        return dict(zip(range(lo, lo + len(probs)), probs.tolist()))


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
    alpha: Fraction | None = None

    def __post_init__(self) -> None:
        normalised = []
        for i, row in sorted(dict(self.rows).items()):
            row = dict(row)
            if i < 1:
                raise ValueError(f"state {i} below 1")
            for j, p in row.items():
                if p < 0:
                    raise ValueError(f"negative probability at ({i},{j})")
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

    @property
    def declared_alpha(self) -> Fraction | None:
        return self.alpha

    @property
    def max_state(self) -> int:
        return max(dict(self.rows))

    def pmf_exact(self, n: int) -> dict[int, Fraction]:
        self._require_positive(n)
        rows = dict(self.rows)
        if n == 1 and 1 not in rows:
            return {1: Fraction(1)}
        if n not in rows:
            raise ValueError(f"{self.label}: no transition row for state {n}")
        return dict(rows[n])

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        *,
        label: str | None = None,
        alpha: Fraction | None = None,
        exact_cutoff: int = DEFAULT_EXACT_CUTOFF,
    ) -> "ExplicitMatrix":
        """Load ``i,j,prob`` rows; a header line is skipped if present."""
        rows: dict[int, dict[int, Fraction]] = {}
        with open(path, newline="") as fh:
            for record in csv.reader(fh):
                if not record or record[0].strip().lower() in {"i", ""}:
                    continue
                i, j = int(record[0]), int(record[1])
                rows.setdefault(i, {})[j] = Fraction(record[2].strip())
        return cls(
            rows=rows,
            label=label or Path(path).stem,
            alpha=alpha,
            exact_cutoff=exact_cutoff,
        )


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
