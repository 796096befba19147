"""Finite-range certificates for the convergence hypotheses.

The limit theory needs three things from the survivor law: stochastic
monotonicity in n, mean one-round increments settling at a ratio alpha,
and concentration of the survivor count around alpha * n.  None of these
is decidable at finite n, so each check scans a range, reports the raw
series, and flags violations against the fixed thresholds below
(``MONOTONE_TOL``, ``INCREMENT_SKIP``, ``INCREMENT_BOUND``,
``CONCENTRATION_BOUND``, ``MOMENT_BOUND``, ``EPSILON`` and
``DELTA_EXPONENT``); a human (or the acceptance suite) judges the trend.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .models import Row, SurvivorModel, float_row


#: largest cdf gap P(Y_{n+1} <= k) - P(Y_n <= k) that is not a violation
MONOTONE_TOL = 1e-12
#: increments below this n are start-up noise and are not judged
INCREMENT_SKIP = 30
#: largest judged |E Y_{n+1} - E Y_n - alpha|
INCREMENT_BOUND = 1e-6
#: largest scaled tail P(|Y_n - alpha n| > delta_n n) n^(2+EPSILON)
CONCENTRATION_BOUND = 1.0
#: largest moment ratio E|Y_n - alpha n|^p / n^(p/2)
MOMENT_BOUND = 1.0
#: the tail probabilities are scaled by n^(2+EPSILON)
EPSILON = 0.5
#: the concentration radius is delta_n n with delta_n = n^DELTA_EXPONENT
DELTA_EXPONENT = -0.25


@dataclass(frozen=True)
class MonotoneViolation:
    n: int
    k: int
    gap: float  # P(Y_{n+1} <= k) - P(Y_n <= k), positive means violated


@dataclass
class MonotoneCheck:
    violations: list[MonotoneViolation]
    n_max: int

    @property
    def passed(self) -> bool:
        return not self.violations


def check_monotone(model: SurvivorModel, n_max: int) -> MonotoneCheck:
    """Scan 1 <= n < n_max for failures of stochastic monotonicity.

    A violation is a pair (n, k) with
    P(Y_{n+1} <= k) > P(Y_n <= k) + MONOTONE_TOL.

    Each consecutive pair is compared within a single backend - integer
    rows while both are, float rows beyond, the last integer row rounded -
    so that a seam between backends can never masquerade as a violation
    of the law itself.  An exact gap is ``(c1 d0 - c0 d1) / (d0 d1)`` on
    integer cdf prefix sums, one correctly rounded integer division.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    violations: list[MonotoneViolation] = []
    rows = model.read_rows(1, n_max + 1)
    cur = _cdf(prev := next(rows), 1)
    for n, row in enumerate(rows, 1):  # the pair (n, n + 1)
        if len(row) < len(prev):  # the seam: round row n so the pair is float
            cur = _cdf(float_row(prev), n)
        nxt = _cdf(row, n + 1)
        if len(row) == 3:
            (c0, d0), (c1, d1) = cur, nxt
            dd = d0 * d1
            gaps = [(x1 * d0 - x0 * d1) / dd for x0, x1 in zip(c0[1:], c1[1 : n + 1])]
        else:
            gaps = (nxt[1 : n + 1] - cur[1:]).tolist()
        for k, gap in enumerate(gaps, 1):
            if gap > MONOTONE_TOL:
                violations.append(MonotoneViolation(n=n, k=k, gap=gap))
        prev, cur = row, nxt
    return MonotoneCheck(violations=violations, n_max=n_max)


def _cdf(row: Row, n: int) -> tuple[list[int], int] | np.ndarray:
    """P(Y_n <= k) for k = 0..n: integer prefix sums over one denominator,
    or floats summed in order of k, as the row is."""
    match row:
        case lo, nums, den:
            sums = [0] * lo + list(accumulate(nums))
            return sums + sums[-1:] * (n + 1 - len(sums)), den
        case lo, probs:
            padded = np.zeros(n + 1)
            padded[lo : lo + len(probs)] = probs
            return np.cumsum(padded)


@dataclass
class IncrementCheck:
    increments: np.ndarray  # d_n = E Y_{n+1} - E Y_n, index 0 is n = 1
    deviations: np.ndarray  # |d_n - alpha|
    max_deviation: float  # over n >= INCREMENT_SKIP
    judged: bool = True  # False when the scan ends before the settling point

    @property
    def passed(self) -> bool:
        return self.judged and self.max_deviation <= INCREMENT_BOUND


def check_mean_increment(
    model: SurvivorModel, n_max: int, alpha: Fraction | float
) -> IncrementCheck:
    """Mean one-round increments against the declared survival ratio.

    Means are kept exact while the model serves rationals, so a model
    whose increments equal alpha identically reports deviation zero.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    means = list(map(_mean, model.read_rows(1, n_max + 1)))
    diffs = [means[n] - means[n - 1] for n in range(1, n_max)]
    increments = np.array([float(d) for d in diffs])
    # exact while both d and alpha are rationals; a float on either side
    # makes the difference a float difference
    deviations = np.array([float(abs(d - alpha)) for d in diffs])
    tail = deviations[INCREMENT_SKIP - 1 :]
    return IncrementCheck(
        increments=increments,
        deviations=deviations,
        max_deviation=float(tail.max()) if len(tail) else float("nan"),
        judged=len(tail) > 0,
    )


def _mean(row: Row) -> Fraction | float:
    """E[survivors]: a Fraction or a float summed in order of k, as the row is."""
    match row:
        case lo, nums, den:
            return Fraction(sum(k * x for k, x in enumerate(nums, lo)), den)
        case lo, probs:
            return sum(k * p for k, p in enumerate(probs.tolist(), lo))


@dataclass
class ConcentrationCheck:
    series: np.ndarray  # P(|Y_n - alpha n| > delta_n n) * n^(2+EPSILON), index n = 1
    tail_probs: np.ndarray
    deltas: np.ndarray

    @property
    def passed(self) -> bool:
        return float(self.series.max()) <= CONCENTRATION_BOUND if len(self.series) else True


def check_concentration(
    model: SurvivorModel, n_max: int, alpha: Fraction | float
) -> ConcentrationCheck:
    """Scaled tail probabilities P(|Y_n - alpha n| > delta_n n) n^(2+EPSILON),
    with delta_n = n^DELTA_EXPONENT.  A bounded series is the finite-n
    shadow of the concentration hypothesis.  Rows are read one at a time,
    so the scan keeps only its three series.
    """
    a = float(alpha)
    tails, deltas, series = [], [], []
    for n, (lo, probs) in enumerate(map(float_row, model.read_rows(1, n_max + 1)), 1):
        deltas.append(delta := n**DELTA_EXPONENT)
        far = (p for k, p in enumerate(probs.tolist(), lo) if abs(k - a * n) > delta * n)
        tails.append(sum(far, 0.0))  # added in order of k
        series.append(tails[-1] * n ** (2.0 + EPSILON))
    return ConcentrationCheck(
        series=np.array(series), tail_probs=np.array(tails), deltas=np.array(deltas)
    )


@dataclass
class MomentCheck:
    ratios: np.ndarray  # E|Y_n - alpha n|^p / n^(p/2), index n = 1
    p: int

    @property
    def passed(self) -> bool:
        return float(self.ratios.max()) <= MOMENT_BOUND if len(self.ratios) else True


def check_moment(
    model: SurvivorModel, n_max: int, alpha: Fraction | float, p: int = 6
) -> MomentCheck:
    """Central p-th moment ratios E|Y_n - alpha n|^p / n^(p/2), p even.

    Odd p is rejected: absolute central moments of odd order have no
    exact rational route through the pmf powers used here.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError(f"need even p >= 2, got {p}")
    ratios = []
    a, exact = float(alpha), not isinstance(alpha, float)
    for n, row in enumerate(model.read_rows(1, n_max + 1), 1):
        if len(row) == 3 and exact:
            # sum (k - alpha n)^p x / den in integers, for alpha = A/B
            A, B = Fraction(alpha).as_integer_ratio()
            lo, nums, den = row
            moment = sum((k * B - A * n) ** p * x for k, x in enumerate(nums, lo)) / (B**p * den)
        else:
            lo, probs = float_row(row)
            moment = sum(abs(k - a * n) ** p * q for k, q in enumerate(probs.tolist(), lo))
        ratios.append(moment / n ** (p / 2))
    return MomentCheck(ratios=np.array(ratios), p=p)


@dataclass
class ConditionReport:
    """Bundle of all four finite-range checks for one model."""

    model_name: str
    alpha: float
    n_max: int
    monotone: MonotoneCheck
    increment: IncrementCheck
    concentration: ConcentrationCheck
    moment: MomentCheck

    @property
    def passed(self) -> bool:
        return (
            self.monotone.passed
            and self.increment.passed
            and self.concentration.passed
            and self.moment.passed
        )

    def summary(self) -> str:
        def flag(ok: bool) -> str:
            return "PASS" if ok else "FAIL"

        increment = (
            "INCONCLUSIVE" if not self.increment.judged else flag(self.increment.passed)
        )
        return (
            f"model={self.model_name} n_max={self.n_max} alpha={self.alpha:g} "
            f"monotone={flag(self.monotone.passed)} "
            f"increment={increment} "
            f"concentration={flag(self.concentration.passed)} "
            f"moment={flag(self.moment.passed)} "
            f"overall={flag(self.passed)}"
        )


def run_condition_checks(
    model: SurvivorModel, n_max: int, alpha: Fraction | float | None = None
) -> ConditionReport:
    """Run every check over 1..n_max, the moment check at p = 6; alpha
    defaults to the model's own."""
    if alpha is None:
        alpha = model.declared_alpha
    if alpha is None:
        raise ValueError(f"{model.name} declares no alpha; pass one explicitly")
    return ConditionReport(
        model_name=model.name,
        alpha=float(alpha),
        n_max=n_max,
        monotone=check_monotone(model, n_max),
        increment=check_mean_increment(model, n_max, alpha),
        concentration=check_concentration(model, n_max, alpha),
        moment=check_moment(model, n_max, alpha),
    )
