"""Finite-range certificates for the convergence hypotheses.

The limit theory needs three things from the survivor law: stochastic
monotonicity in n, mean one-round increments settling at a ratio alpha,
and concentration of the survivor count around alpha * n.  None of these
is decidable at finite n, so each check scans a range, reports the raw
series, and flags violations against configurable thresholds; a human (or
the acceptance suite) judges the trend.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .models import SurvivorModel


@dataclass(frozen=True)
class CheckConfig:
    """Thresholds used to turn raw series into PASS/FAIL flags."""

    monotone_tol: float = 1e-12
    increment_skip: int = 30  # increments below this n are start-up noise
    increment_bound: float = 1e-6
    concentration_bound: float = 1.0
    moment_bound: float = 1.0
    epsilon: float = 0.5
    delta_exponent: float = -0.25
    exact_scan_cap: int = 300  # prefer exact pmfs in the monotone scan up to here


DEFAULT_CONFIG = CheckConfig()


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


def check_monotone(
    model: SurvivorModel, n_max: int, *, config: CheckConfig = DEFAULT_CONFIG
) -> MonotoneCheck:
    """Scan 1 <= n < n_max for failures of stochastic monotonicity.

    A violation is a pair (n, k) with
    P(Y_{n+1} <= k) > P(Y_n <= k) + tol.

    Each consecutive pair is compared within a single backend - exact
    rationals while the model can serve them (up to ``exact_scan_cap``),
    the floating backend for both rows otherwise - so that a seam between
    backends can never masquerade as a violation of the law itself.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    violations: list[MonotoneViolation] = []
    held: dict[bool, list] = {}  # backend -> cdf of row n from the last pair
    for n in range(1, n_max):
        exact = n + 1 <= config.exact_scan_cap
        if exact:
            try:
                cur = held[True] if True in held else _cdf(model, n, True)
                nxt = _cdf(model, n + 1, True)
            except ValueError:
                exact = False
        if not exact:
            cur = held[False] if False in held else _cdf(model, n, False)
            nxt = _cdf(model, n + 1, False)
        held = {exact: nxt}
        for k in range(1, n + 1):
            gap = float(nxt[k] - cur[k])
            if gap > config.monotone_tol:
                violations.append(MonotoneViolation(n=n, k=k, gap=gap))
    return MonotoneCheck(violations=violations, n_max=n_max)


def _cdf(model: SurvivorModel, n: int, exact: bool) -> list:
    """P(Y_n <= k) for k = 0..n + 1, in the chosen backend."""
    pmf = model.pmf_exact(n) if exact else model.pmf_float(n)
    zero = Fraction(0) if exact else 0.0
    out = []
    acc = zero
    for k in range(0, n + 1):
        acc = acc + pmf.get(k, zero)
        out.append(acc)
    out.append(acc)
    return out


@dataclass
class IncrementCheck:
    increments: np.ndarray  # d_n = E Y_{n+1} - E Y_n, index 0 is n = 1
    deviations: np.ndarray  # |d_n - alpha|
    max_deviation: float  # over n >= increment_skip
    bound: float
    judged: bool = True  # False when the scan ends before the settling point

    @property
    def passed(self) -> bool:
        return self.judged and self.max_deviation <= self.bound


def check_mean_increment(
    model: SurvivorModel,
    n_max: int,
    alpha: Fraction | float,
    *,
    config: CheckConfig = DEFAULT_CONFIG,
) -> IncrementCheck:
    """Mean one-round increments against the declared survival ratio.

    Means are kept exact while the model serves rationals, so a model
    whose increments equal alpha identically reports deviation zero.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    exact_alpha = Fraction(alpha) if not isinstance(alpha, float) else None
    means = [model.mean(n) for n in range(1, n_max + 1)]
    increments = []
    deviations = []
    for i in range(len(means) - 1):
        d = means[i + 1] - means[i]
        increments.append(float(d))
        if exact_alpha is not None and isinstance(d, Fraction):
            deviations.append(float(abs(d - exact_alpha)))
        else:
            deviations.append(abs(float(d) - float(alpha)))
    increments = np.array(increments)
    deviations = np.array(deviations)
    skip = max(config.increment_skip - 1, 0)
    tail = deviations[skip:]
    return IncrementCheck(
        increments=increments,
        deviations=deviations,
        max_deviation=float(tail.max()) if len(tail) else float("nan"),
        bound=config.increment_bound,
        judged=len(tail) > 0,
    )


@dataclass
class ConcentrationCheck:
    series: np.ndarray  # P(|Y_n - alpha n| > delta_n n) * n^(2+eps), index n = 1
    tail_probs: np.ndarray
    deltas: np.ndarray
    bound: float

    @property
    def passed(self) -> bool:
        return float(self.series.max()) <= self.bound if len(self.series) else True


def check_concentration(
    model: SurvivorModel,
    n_max: int,
    alpha: Fraction | float,
    delta_fn: Callable[[int], float] | None = None,
    *,
    config: CheckConfig = DEFAULT_CONFIG,
) -> ConcentrationCheck:
    """Scaled tail probabilities P(|Y_n - alpha n| > delta_n n) n^(2+eps).

    ``delta_fn`` defaults to n ** delta_exponent.  A bounded series is the
    finite-n shadow of the concentration hypothesis.
    """
    a = float(alpha)
    eps = config.epsilon
    if delta_fn is None:
        delta_fn = lambda n: n ** config.delta_exponent  # noqa: E731
    tails = []
    deltas = []
    series = []
    for n in range(1, n_max + 1):
        delta = float(delta_fn(n))
        radius = delta * n
        tail = 0.0
        for k, p in model.pmf_float(n).items():
            if abs(k - a * n) > radius:
                tail += p
        tails.append(tail)
        deltas.append(delta)
        series.append(tail * n ** (2.0 + eps))
    return ConcentrationCheck(
        series=np.array(series),
        tail_probs=np.array(tails),
        deltas=np.array(deltas),
        bound=config.concentration_bound,
    )


@dataclass
class MomentCheck:
    ratios: np.ndarray  # E|Y_n - alpha n|^p / n^(p/2), index n = 1
    p: int
    bound: float

    @property
    def passed(self) -> bool:
        return float(self.ratios.max()) <= self.bound if len(self.ratios) else True


def check_moment(
    model: SurvivorModel,
    n_max: int,
    alpha: Fraction | float,
    p: int = 6,
    *,
    config: CheckConfig = DEFAULT_CONFIG,
) -> MomentCheck:
    """Central p-th moment ratios E|Y_n - alpha n|^p / n^(p/2), p even.

    Odd p is rejected: absolute central moments of odd order have no
    exact rational route through the pmf powers used here.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError(f"need even p >= 2, got {p}")
    ratios = []
    use_exact = not isinstance(alpha, float)
    exact_alpha = Fraction(alpha) if use_exact else None
    for n in range(1, n_max + 1):
        pmf = model.pmf(n)
        if use_exact and pmf and isinstance(next(iter(pmf.values())), Fraction):
            moment = sum(((k - exact_alpha * n) ** p) * q for k, q in pmf.items())
            ratios.append(float(moment) / n ** (p / 2))
        else:
            a = float(alpha)
            moment = sum(abs(k - a * n) ** p * float(q) for k, q in pmf.items())
            ratios.append(moment / n ** (p / 2))
    return MomentCheck(ratios=np.array(ratios), p=p, bound=config.moment_bound)


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
    model: SurvivorModel,
    n_max: int,
    alpha: Fraction | float | None = None,
    *,
    p: int = 6,
    config: CheckConfig = DEFAULT_CONFIG,
) -> ConditionReport:
    """Run every check over 1..n_max; alpha defaults to the model's own."""
    if alpha is None:
        alpha = model.declared_alpha
    if alpha is None:
        raise ValueError(f"{model.name} declares no alpha; pass one explicitly")
    return ConditionReport(
        model_name=model.name,
        alpha=float(alpha),
        n_max=n_max,
        monotone=check_monotone(model, n_max, config=config),
        increment=check_mean_increment(model, n_max, alpha, config=config),
        concentration=check_concentration(model, n_max, alpha, config=config),
        moment=check_moment(model, n_max, alpha, p, config=config),
    )
