"""Workloads of the electra benchmark and the checks on their outputs.

A workload is a fixed list of ``electra`` CLI commands (ops).  Each op
names the per-command metric its time counts towards, the exit code it
must return, and the checks its output files must pass.  Checks read only
the files the command wrote; the reference values they compare against
come from a ``refs`` object (see ``worker.References``) and are computed
after the timed region.

This module does not import electra, so the parent process can use it
without paying the package's import time.
"""
from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: sha256 of ``phase_probs_exact.csv`` for each table op, recorded at the
#: commit that introduced the benchmark.  Exact rows are rationals, so the
#: file must stay byte-identical under any optimisation.
EXACT_DIGESTS = {
    "fair-4096": "3ecd42905643bcad53fe8a84d1a589729fff9329d7fc29460f97b8699bdbf38e",
    "fair-100-exact": "7252c93c9c0bbcfccbf2d2751ef81f89bac86c2c020d757fba542deec3a27d66",
    "linear-i-fixtures": "bf7ee5c0004b109bd4641df7a329b27dc81ea19fc170d678cea3bc66d40f71e8",
    "circular-fixtures": "935fd39ae708a84cf3c37608b1afb962c4897106a37a73ea1af9942b6235b08f",
    "toy-fixtures": "ebdf8509f5b806104119447de6cbfa8ad9c8361349d0eedb00145ca46ce6c642",
}

Check = Callable[[Path, object], "str | None"]


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload."""

    kind: str
    argv: tuple[str, ...]
    expect_rc: int = 0
    checks: tuple[Check, ...] = ()


def verify(op: Op, rc: int | None, out: Path, refs) -> str | None:
    """Return why the op's result is wrong, or None when it is correct.

    ``out`` is the directory the command wrote into (``--out`` plus the
    subcommand name, as the CLI lays it out).
    """
    if rc != op.expect_rc:
        return f"exit code {rc}, expected {op.expect_rc}"
    for check in op.checks:
        try:
            problem = check(out, refs)
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            problem = f"{check.__name__}: unreadable output ({exc!r})"
        if problem:
            return problem
    return None


# ---------------------------------------------------------------------------
# output checks


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def exact_digest(key: str) -> Check:
    """The exact-regime CSV is byte-identical to the recorded one."""

    def exact_rows_unchanged(out: Path, refs) -> str | None:
        digest = hashlib.sha256((out / "phase_probs_exact.csv").read_bytes()).hexdigest()
        if digest != EXACT_DIGESTS[key]:
            return f"phase_probs_exact.csv digest {digest[:16]} differs from {key}"
        return None

    return exact_rows_unchanged


def fair_coin_limit_gap(out: Path, refs) -> str | None:
    """Acceptance criterion 4: the sup gap between the centered phase cdf
    and the limit cdf decreases over n = 2^8..2^12 and ends below 0.01."""
    sizes = [2**e for e in range(8, 13)]
    rows: dict[int, dict[int, float]] = {n: {} for n in sizes}
    j_max = 0
    with open(out / "phase_probs.csv", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["n", "j", "prob"]:
            return "phase_probs.csv has an unexpected header"
        for n, j, prob in reader:
            j_max = max(j_max, int(j))
            if int(n) in rows:
                rows[int(n)][int(j)] = float(prob)
    sups = []
    for n in sizes:
        ln = math.log2(n)
        cdf = 0.0
        sup = 0.0
        for j in range(j_max + 1):
            cdf += rows[n].get(j, 0.0)
            sup = max(sup, abs(cdf - refs.fair_coin_limit_cdf(j - ln)))
        sups.append(sup)
    if sups != sorted(sups, reverse=True) or not sups[-1] < 0.01:
        return f"criterion 4: sup gaps {sups} do not decrease to below 0.01"
    return None


def fair_coin_mean_residual(out: Path, refs) -> str | None:
    """Acceptance criterion 5: mean phases match log2 n + phi(n) to 5e-3."""
    means = {int(r["n"]): float(r["x"]) for r in _read_rows(out / "phase_means.csv")}
    worst = max(
        abs(means[n] - math.log2(n) - refs.fair_coin_phi(float(n)))
        for n in (2**10, 2**11, 2**12)
    )
    if not worst < 5e-3:
        return f"criterion 5: mean residual gap {worst:.3e} >= 5e-3"
    return None


def _summary_estimate(out: Path, prefix: str) -> tuple[float, float]:
    for row in _read_rows(out / "summary.csv"):
        if row["stat"].startswith(prefix):
            return float(row["point"]), float(row["stderr"])
    raise KeyError(f"no {prefix!r} row in summary.csv")


def c2_estimate(out: Path, refs) -> str | None:
    """The persistent-key two-round ratio sits within 4 sigma of the closed
    form and more than 4 sigma below the redraw value 1/9."""
    point, stderr = _summary_estimate(out, "two-round-survival-ratio")
    if not abs(point - refs.c2) < 4.0 * stderr:
        return f"c2 estimate {point} is not within 4 sigma ({stderr}) of {refs.c2}"
    if not (1.0 / 9.0 - point) > 4.0 * stderr:
        return f"c2 estimate {point} is not 4 sigma ({stderr}) below 1/9"
    return None


def conditional_estimate(out: Path, refs) -> str | None:
    """The 8-ring conditional estimate sits within 5 sigma of 10/34."""
    point, stderr = _summary_estimate(out, "P(")
    if not abs(point - refs.conditional) < 5.0 * stderr:
        return f"conditional estimate {point} is not within 5 sigma ({stderr}) of 10/34"
    return None


def redraw_mean_rounds(out: Path, refs) -> str | None:
    """Simulated redraw-circular rounds at n=100 average within 5 sigma of
    the engine's exact mean phase count."""
    rounds = [int(r["rounds"]) for r in _read_rows(out / "results.csv")]
    count = len(rounds)
    mean = sum(rounds) / count
    var = sum((r - mean) ** 2 for r in rounds) / (count - 1)
    stderr = math.sqrt(var / count)
    if not abs(mean - refs.redraw_mean) < 5.0 * stderr:
        return f"mean rounds {mean} not within 5 sigma ({stderr}) of {refs.redraw_mean}"
    return None


def periodicity_residual(out: Path, refs) -> str | None:
    """Acceptance criterion 7 on peak-linear-i: the Fourier reconstruction
    tracks the mean residual to below 0.016 over n = 50..500."""
    worst = max(
        abs(float(r["observed"]) - float(r["reconstruction"]))
        for r in _read_rows(out / "residuals.csv")
    )
    if not worst < 0.016:
        return f"periodicity sup_residual {worst:.5f} >= 0.016"
    return None


def figure_points(figure: str) -> Check:
    """The figure CSV holds at least one data point."""

    def figure_has_points(out: Path, refs) -> str | None:
        if not _read_rows(out / f"{figure}.csv"):
            return f"{figure}.csv holds no points"
        return None

    return figure_has_points


# ---------------------------------------------------------------------------
# workloads


def _phase_table(seed: int) -> list[Op]:
    return [
        Op(
            "table",
            ("table", "--model", "fair-coin", "--max-n", "4096"),
            checks=(exact_digest("fair-4096"), fair_coin_limit_gap, fair_coin_mean_residual),
        )
    ]


def _ring_sim(seed: int) -> list[Op]:
    s = str(seed)
    return [
        Op(
            "c2",
            ("simulate", "--variant", "true-persistent", "--estimate", "c2",
             "--n", "10000", "--trials", "4096", "--seed", s),
            checks=(c2_estimate,),
        ),
        Op(
            "histogram",
            ("simulate", "--variant", "redraw-circular", "--n", "100",
             "--trials", "200000", "--seed", s),
            checks=(redraw_mean_rounds,),
        ),
        Op(
            "conditional",
            ("simulate", "--variant", "true-persistent", "--estimate", "conditional",
             "--trials", "1000000", "--seed", s),
            checks=(conditional_estimate,),
        ),
    ]


def _exact_analysis(seed: int) -> list[Op]:
    ops = [
        Op(
            "table",
            ("table", "--model", "fair-coin", "--max-n", "100", "--exact-cutoff", "100"),
            checks=(exact_digest("fair-100-exact"),),
        ),
        Op(
            "table",
            ("table", "--model", "peak-linear-i", "--max-n", "7", "--check-fixtures"),
            checks=(exact_digest("linear-i-fixtures"),),
        ),
        Op(
            "table",
            ("table", "--model", "peak-circular", "--max-n", "7", "--check-fixtures"),
            checks=(exact_digest("circular-fixtures"),),
        ),
        Op(
            "table",
            ("table", "--model", "toy", "--max-n", "1024", "--check-fixtures"),
            checks=(exact_digest("toy-fixtures"),),
        ),
        Op("check", ("check", "--model", "fair-coin", "--n-max", "300")),
        Op("check", ("check", "--model", "det-halving"), expect_rc=1),
        Op("check", ("check", "--model", "biased-coin", "--p", "0.3", "--n-max", "50"),
           expect_rc=1),
    ]
    ops += [
        Op("figures", ("figure", f"fig{i}"), checks=(figure_points(f"fig{i}"),))
        for i in range(1, 13)
    ]
    ops += [
        Op("figures", ("periodicity", "--model", "peak-linear-i"),
           checks=(periodicity_residual,)),
        Op("figures", ("periodicity", "--model", "peak-circular")),
    ]
    return ops


#: workload name -> builder of its op list from the workload seed.  The
#: table workloads are deterministic; the seed drives every ``--seed``.
WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "phase-table": _phase_table,
    "ring-sim": _ring_sim,
    "exact-analysis": _exact_analysis,
}

#: per-command metric names, one per op kind
KINDS = ("table", "check", "figures", "c2", "histogram", "conditional")
