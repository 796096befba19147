"""Distances between integer laws, empirical limit extraction, and the
numerical Laplace/Fourier machinery for log-periodic residuals.

The centering throughout is x = j - log(n)/log(1/alpha): as n grows the
phase law collapses (in the appropriate sense) onto a fixed profile in x,
up to a periodic drift.  :func:`log_starts` is the one place that log is
taken, for every scatter, sample pool and residual here and in the CLI.
It calls ``math.log`` once per n because ``np.log`` may differ from it in
the last bit (numpy 2.4.6 does at n = 9170 and 19143), which would move
the published figure and periodicity files.  This module measures the
collapse, rebuilds the periodic mean residual from a numerically
estimated Laplace transform, and carries the closed forms available for
the halving toy chain and the fair-coin game.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .engine import PhaseTable

_TWO_PI = 2.0 * math.pi
#: tail mass at which ``ceil_shift_law`` stops scanning outward
_CEIL_TAIL = 1e-13


# ---------------------------------------------------------------------------
# integer laws and metrics


@dataclass(frozen=True)
class IntegerLaw:
    """A probability law on the integers: mass ``probs[i]`` at offset+i."""

    offset: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty vector")
        if probs.min() < -1e-15:
            raise ValueError("negative probability mass")
        total = probs.sum()
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"law mass {total} differs from 1 beyond 1e-10")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_dict(cls, masses: dict[int, float]) -> "IntegerLaw":
        lo, hi = min(masses), max(masses)
        probs = np.zeros(hi - lo + 1)
        for k, p in masses.items():
            probs[k - lo] = p
        return cls(offset=lo, probs=probs)

    @classmethod
    def point_mass(cls, k: int) -> "IntegerLaw":
        return cls(offset=k, probs=np.array([1.0]))

    @property
    def hi(self) -> int:
        return self.offset + len(self.probs) - 1

    def prob(self, k: int) -> float:
        if self.offset <= k <= self.hi:
            return float(self.probs[k - self.offset])
        return 0.0

    def cdf(self, k: int) -> float:
        if k < self.offset:
            return 0.0
        if k >= self.hi:
            return 1.0
        return float(self.probs[: k - self.offset + 1].sum())

    def mean(self) -> float:
        ks = np.arange(self.offset, self.hi + 1)
        return float(np.dot(ks, self.probs))

    def shift(self, by: int) -> "IntegerLaw":
        return IntegerLaw(offset=self.offset + by, probs=self.probs.copy())


def _aligned(a: IntegerLaw, b: IntegerLaw) -> tuple[np.ndarray, np.ndarray]:
    lo = min(a.offset, b.offset)
    hi = max(a.hi, b.hi)
    pa = np.zeros(hi - lo + 1)
    pb = np.zeros(hi - lo + 1)
    pa[a.offset - lo : a.offset - lo + len(a.probs)] = a.probs
    pb[b.offset - lo : b.offset - lo + len(b.probs)] = b.probs
    return pa, pb


def dtv(a: IntegerLaw, b: IntegerLaw) -> float:
    """Total variation distance: half the l1 gap between the pmfs."""
    pa, pb = _aligned(a, b)
    return 0.5 * float(np.abs(pa - pb).sum())


def dw(a: IntegerLaw, b: IntegerLaw) -> float:
    """Wasserstein (Kantorovich) distance between integer laws.

    For integer laws this equals the l1 gap between the cdfs, and always
    dominates :func:`dtv`.
    """
    pa, pb = _aligned(a, b)
    return float(np.abs(np.cumsum(pa - pb)[:-1]).sum()) if len(pa) > 1 else 0.0


def law_from_phase(table: PhaseTable, n: int) -> IntegerLaw:
    """Phase law of one starting size as an integer law (trimmed)."""
    row = table.row(n)
    nz = np.nonzero(row > 0.0)[0]
    if len(nz) == 0:
        raise ValueError(f"row {n} is empty")
    lo, hi = int(nz[0]), int(nz[-1])
    probs = row[lo : hi + 1].copy()
    probs /= probs.sum()
    return IntegerLaw(offset=lo, probs=probs)


def ceil_shift_law(cdf, shift: float) -> IntegerLaw:
    """Law of ceil(Z + shift) when Z has distribution function ``cdf``.

    P(ceil(Z + shift) = k) = cdf(k - shift) - cdf(k - 1 - shift); the
    support is scanned outward until both tails fall below ``_CEIL_TAIL``.
    ``cdf`` must take a float or an array and answer in kind, as
    :func:`fair_coin_limit_cdf` and :func:`toy_limit_cdf` do.
    """
    center = int(math.floor(shift))
    lo = center
    while cdf(lo - 1 - shift) > _CEIL_TAIL:
        lo -= 1
        if center - lo > 10_000:
            raise ValueError("left tail does not vanish")
    hi = center
    while 1.0 - cdf(hi - shift) > _CEIL_TAIL:
        hi += 1
        if hi - center > 10_000:
            raise ValueError("right tail does not vanish")
    ks = np.arange(lo, hi + 1)
    probs = np.clip(cdf(ks - shift) - cdf(ks - 1 - shift), 0.0, None)
    probs /= probs.sum()
    return IntegerLaw(offset=lo, probs=probs)


# ---------------------------------------------------------------------------
# empirical limit scatter

#: cdf values below this, or after one above 1 minus this, leave the scatter
_DROP_TAIL = 1e-12
#: phase masses at or below this are left out of the Laplace samples
_MIN_MASS = 0.0
#: x distance within which a collapsed scatter must be nondecreasing
_WINDOW = 0.05
#: rise below which a step down in the scatter is not a violation
_TOL = 1e-9


def log_starts(table: PhaseTable, alpha, n_lo: int, n_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The starts n in [max(n_lo, 1), n_hi] and their log(n)/log(1/alpha)."""
    if n_lo > n_hi:
        raise ValueError("empty n range")
    if n_hi > table.max_n:
        raise ValueError(f"table covers n <= {table.max_n}, asked for {n_hi}")
    if not 0.0 < float(alpha) < 1.0:
        raise ValueError(f"need survival ratio alpha in (0,1), got {alpha}")
    ns = np.arange(max(n_lo, 1), n_hi + 1)
    logs = np.array([math.log(n) for n in ns.tolist()], dtype=float)
    return ns, logs / math.log(1.0 / float(alpha))


def centred_points(
    table: PhaseTable, alpha, n_lo: int, n_hi: int, values: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x, value, n, j) of the entries of ``values`` (``table.probs`` or
    its running sums in j) that the mask ``keep`` marks, over the starts
    of :func:`log_starts`, in (n, j) order."""
    ns, logs = log_starts(table, alpha, n_lo, n_hi)
    rows, js = np.nonzero(keep[ns])
    return js - logs[rows], values[ns[rows], js], ns[rows], js


@dataclass(frozen=True)
class LimitScatter:
    """Scatter {(j - log n, cumulative prob)} approximating the limit cdf,
    sorted by x."""

    xs: np.ndarray
    ys: np.ndarray
    ns: np.ndarray
    js: np.ndarray

    def collapse_spread(self) -> float:
        """Worst vertical drop between nearly-equal x values, over the
        upper half of the n range.

        For samples i, m with x_i <= x_m <= x_i + window a collapse onto a
        nondecreasing limit demands y_i <= y_m; the spread is the largest
        violation.  Zero for an exact collapse, strictly positive when the
        limit is genuinely non-monotone.
        """
        keep = self.ns >= (self.ns.min() + self.ns.max()) / 2.0
        worst = 0.0
        for before, after in _window_pairs(self.xs[keep], self.ys[keep]):
            worst = max(worst, float((before - after).max()))
        return worst

    def monotone_violations(self) -> int:
        """Count of sample pairs within the window in x that step downward."""
        return sum(
            int(np.count_nonzero(before > after + _TOL))
            for before, after in _window_pairs(self.xs, self.ys)
        )

    def sup_gap_to(self, cdf) -> float:
        """sup over samples of |observed - cdf(x)|; ``cdf`` takes the
        whole array of x, as the closed-form limit cdfs here do."""
        return float(np.abs(self.ys - cdf(self.xs)).max())


def _window_pairs(xs: np.ndarray, ys: np.ndarray):
    """(ys before, ys after) of the sorted sample pairs m < i within the
    window in x, x_m >= x_i - window, one lag i - m at a time; since xs is
    sorted, the first lag with no such pair ends the scan."""
    for d in range(1, len(xs)):
        near = xs[:-d] >= xs[d:] - _WINDOW
        if not near.any():
            return
        yield ys[:-d][near], ys[d:][near]


def empirical_limit(table: PhaseTable, alpha: float, n_lo: int, n_hi: int) -> LimitScatter:
    """Collect the scatter of cumulative phase probabilities against
    x = j - log(n)/log(1/alpha) for n in [n_lo, n_hi]."""
    cum = np.cumsum(table.probs, axis=1)
    keep = cum >= _DROP_TAIL
    keep[:, 1:] &= cum[:, :-1] <= 1.0 - _DROP_TAIL
    xs, ys, ns, js = centred_points(table, alpha, n_lo, n_hi, cum, keep)
    order = np.argsort(xs, kind="stable")
    return LimitScatter(xs=xs[order], ys=ys[order], ns=ns[order], js=js[order])


# ---------------------------------------------------------------------------
# numerical Laplace transform and periodic reconstruction


@dataclass(frozen=True)
class PeriodicitySamples:
    """Sorted point masses (y, mass) feeding the Laplace quadrature.

    Duplicate y values are merged by averaging their masses: a run of
    tied samples fed through the trapezoid-style weights collapses to a
    single point carrying their common mass, so averaging is the
    tie-stable equivalent (summing would overweight ties, which the
    ``laplace_transform(.., 0) ~ 1`` self-calibration catches).
    """

    ys: np.ndarray
    masses: np.ndarray

    def __len__(self) -> int:
        return len(self.ys)


def periodicity_samples(table: PhaseTable, alpha: float, n_lo: int, n_hi: int) -> PeriodicitySamples:
    """Point masses of the phase law against x = j - log n, pooled over n."""
    xs, masses, _, _ = centred_points(
        table, alpha, n_lo, n_hi, table.probs, table.probs > _MIN_MASS
    )
    order = np.argsort(xs, kind="stable")
    masses = masses[order]
    ys, first, counts = np.unique(xs[order], return_index=True, return_counts=True)
    totals = np.zeros(len(ys))
    for k in range(counts.max(initial=0)):  # tied masses added in (n, j) order
        tied = counts > k
        totals[tied] += masses[first[tied] + k]
    return PeriodicitySamples(ys=ys, masses=totals / counts)


def laplace_transform(
    samples: PeriodicitySamples, alpha: complex, *, derivative: bool = False
) -> complex:
    """Quadrature estimate of the Laplace transform of the pooled law,
    sum e^{alpha y} m w over the samples' y and masses m; with
    ``derivative``, its exact derivative in alpha, sum y e^{alpha y} m w.

    Interior weights w are (y[k+1] - y[k-1])/2, the two boundary weights
    the one-sided gaps.  At alpha = 0 the transform is the quadrature's
    total mass, which should sit within a couple of percent of 1 - the
    standard self-calibration check.
    """
    if len(samples) < 3:
        raise ValueError("need at least 3 samples for the quadrature")
    ys, masses = samples.ys, samples.masses
    values = np.exp(alpha * ys) * masses * np.gradient(ys)  # the weights w
    if derivative:
        values = values * ys
    return complex(values.sum())


@dataclass(frozen=True)
class PeriodicityFit:
    """Mean level and periodic oscillation recovered from the transform.

    ``reconstruction(x)`` approximates the mean phase count minus
    log(n)/log(1/alpha) at x = fractional position of log n; it has
    period 1 by construction.
    """

    mean_level: float
    coefficients: dict[int, complex]
    fourier_terms: int

    def oscillation(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for l, coef in self.coefficients.items():
            total = total + 2.0 * (
                coef.real * np.cos(_TWO_PI * l * x) - coef.imag * np.sin(_TWO_PI * l * x)
            )
        return total if total.shape else float(total)

    def reconstruction(self, x) -> np.ndarray | float:
        return self.mean_level + self.oscillation(x)


def periodicity_reconstruct(samples: PeriodicitySamples, fourier_terms: int = 5) -> PeriodicityFit:
    """Recover the periodic mean residual from the numerical transform.

    The constant is the transform's derivative at 0; the l-th Fourier
    coefficient is its derivative at 2*pi*l*i.  Both are the exact
    derivative of the quadrature sum, from :func:`laplace_transform`.
    """
    if fourier_terms < 1:
        raise ValueError("need at least one Fourier term")
    slope = functools.partial(laplace_transform, samples, derivative=True)
    coefficients = {l: slope(complex(0.0, _TWO_PI * l)) for l in range(1, fourier_terms + 1)}
    return PeriodicityFit(slope(0.0).real, coefficients, fourier_terms)


# ---------------------------------------------------------------------------
# closed forms: fair-coin game


def fair_coin_limit_cdf(x) -> np.ndarray | float:
    """Limit distribution of the centered fair-coin phase count:
    F(x) = 2^-x / (exp(2^-x) - 1)."""
    x = np.asarray(x, dtype=float)
    u = np.exp2(-x)
    small = u < 1e-8
    large = u > 500.0
    mid = ~(small | large)
    out = np.empty_like(u)
    out[small] = 1.0 - u[small] / 2.0  # u/expm1(u) expanded
    out[mid] = u[mid] / np.expm1(u[mid])
    out[large] = u[large] * np.exp(-u[large])
    return out if out.shape else float(out)


@functools.lru_cache(maxsize=None)
def _fair_coin_terms(terms: int) -> tuple[complex, ...]:
    import mpmath

    out = []
    for k in range(1, terms + 1):
        chi = 2.0j * math.pi * k / math.log(2.0)
        value = mpmath.zeta(1 - chi) * mpmath.gamma(1 - chi)
        out.append(complex(value))
    return tuple(out)


def fair_coin_phi(t: float, terms: int = 20) -> float:
    """Periodic mean residual of the fair-coin game.

    phi(t) = 1/2 - (1/log 2) * sum_{k != 0} zeta(1-chi_k) gamma(1-chi_k)
    e^{2 pi i k log2 t}, chi_k = 2 pi i k / log 2, truncated to |k| <=
    ``terms``.  Gamma decay makes the series converge extremely fast;
    zeta/gamma at complex arguments come from mpmath.
    """
    if t <= 0:
        raise ValueError(f"need t > 0, got {t}")
    log2t = math.log2(t)
    total = 0.0
    for k, coef in enumerate(_fair_coin_terms(terms), start=1):
        phase = cmath.exp(2.0j * math.pi * k * log2t)
        total += 2.0 * (coef * phase).real
    return 0.5 - total / math.log(2.0)


# ---------------------------------------------------------------------------
# closed forms: halving toy chain


def toy_limit_cdf(x) -> np.ndarray | float:
    """Limit cdf of the toy halving chain: 2 - 2^-x on [-1, 0]."""
    x = np.asarray(x, dtype=float)
    out = np.clip(2.0 - np.exp2(-x), 0.0, 1.0)
    return out if out.shape else float(out)


def toy_phi(x: float) -> float:
    """Periodic mean residual of the toy chain at log2 n = x:
    2^{x - floor x} - (x - floor x) - 1."""
    frac = x - math.floor(x)
    return 2.0**frac - frac - 1.0


def toy_end_two_prob(x: float) -> float:
    """Probability the toy chain stopped at threshold 3 ends with exactly
    two players, at log2 n = x: |2^{1 + x - floor x} - 3|."""
    frac = x - math.floor(x)
    return abs(2.0 ** (1.0 + frac) - 3.0)
