"""Command-line front end: tables, figure data, condition checks,
simulation, and periodicity extraction.

Every run writes plain CSV files into ``<out>/<command>`` (``--out``, else
$ELECTRA_OUT, else ./electra-out) and, once the command exits 0 or 1, a
``config.json`` echo of its arguments, so any output can be reproduced
bit-for-bit from its own directory.  Each file goes through
``engine.write_atomic``, so it appears whole, with the mode the umask gives.
Exit codes: 0 success / checks passed, 1 a check or fixture comparison
failed, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, engine, fixtures
from .conditions import run_condition_checks
from .engine import (
    InitConvention, compute_phase_table, lowest_terms, write_atomic, write_ratios,
)
from .franklin import (
    RingVariant,
    SimConfig,
    closed_form_c2,
    conditional_second_round,
    estimate_c2,
    exhaustive_second_round,
    mean_survival_ratios,
    run_election,
)
from .metrics import (
    centred_points,
    empirical_limit,
    log_starts,
    periodicity_reconstruct,
    periodicity_samples,
)
from .models import (
    _MODEL_BUILDERS,
    DEFAULT_EXACT_CUTOFF,
    SurvivorModel,
    model_from_name,
)

_MODEL_CHOICES = [*_MODEL_BUILDERS, "explicit"]

#: trials of the histogram's ``results.csv`` joined into one write
_CSV_TRIALS = 1 << 16


def _write_csv(path: Path, header: list[str], rows) -> None:
    with write_atomic(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _out_dir(args: argparse.Namespace) -> Path:
    return Path(args.out or os.environ.get("ELECTRA_OUT") or "electra-out") / args.command


def _echo_config(out: Path, args: argparse.Namespace) -> None:
    payload = {"version": __version__, "argv": sys.argv[1:]}
    for key, value in sorted(vars(args).items()):
        if key in {"func"}:
            continue
        payload[key] = str(value) if isinstance(value, (Path, Fraction)) else value
    with write_atomic(out / "config.json") as fh:
        json.dump(payload, fh, indent=2)


def _build_model(args: argparse.Namespace) -> SurvivorModel:
    return model_from_name(
        args.model,
        p=args.p,
        nu=args.nu,
        matrix_path=getattr(args, "matrix", None),
        exact_cutoff=args.exact_cutoff,
    )


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r} ({exc})") from None


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"need a finite number > 0, got {text!r}")
    return value


def _alpha(args: argparse.Namespace, model: SurvivorModel) -> Fraction | None:
    """``--alpha``, else the model's own; a ratio outside (0, 1) is a usage error."""
    alpha = model.declared_alpha if args.alpha is None else args.alpha
    if alpha is not None and not 0 < alpha < 1:
        raise ValueError(f"need alpha in (0, 1), got {alpha}")
    return alpha


# ---------------------------------------------------------------------------
# table


def cmd_table(args: argparse.Namespace, out: Path) -> int:
    model = _build_model(args)
    alpha = _alpha(args, model)
    init = InitConvention(args.init)
    table = compute_phase_table(
        model, args.max_n, threshold_a=args.threshold, init=init,
        residual_eps=args.residual_eps,
    )
    rows = itertools.takewhile(lambda row: len(row) == 3, model.read_rows(1, args.max_n + 1))
    write_ratios(out / "survivor_pmf.csv", "k", (
        (n, k, *lowest_terms(x, den))
        for n, (lo, nums, den) in enumerate(rows, 1)
        for k, x in enumerate(nums, lo)
    ))
    table.to_csv(out / "phase_probs.csv", exact_path=out / "phase_probs_exact.csv")
    table.means_to_csv(out / "phase_means.csv", alpha=alpha)
    status = 0
    if args.check_fixtures:
        status = _check_fixtures(model, args, table)
    print(f"RESULT table model={model.name} max_n={args.max_n} out={out} "
          f"fixtures={'SKIPPED' if not args.check_fixtures else ('PASS' if status == 0 else 'FAIL')}")
    return status


def _check_fixtures(model: SurvivorModel, args, table) -> int:
    """Compare against the published small tables; exact equality only."""
    name = model.name
    failures: list[str] = []

    def compare_pmf(reference: dict[tuple[int, int], Fraction]) -> None:
        max_ref = max(n for n, _ in reference)
        for n in range(1, min(args.max_n, max_ref) + 1):
            lo, nums, den = model.exact_row(n)
            for k in range(0, n + 1):
                want = reference.get((n, k), Fraction(0))
                got = Fraction(nums[k - lo] if lo <= k < lo + len(nums) else 0, den)
                if got != want:
                    failures.append(f"pmf({n},{k}) = {got}, published {want}")

    def compare_phase(reference: dict[tuple[int, int], Fraction], phase_table) -> None:
        max_ref = max(n for n, _ in reference)
        for n in range(0, min(args.max_n, max_ref) + 1):
            for j in range(phase_table.j_max + 1):
                want = reference.get((n, j), Fraction(0))
                got = phase_table.exact_prob(n, j)
                if got != want:
                    failures.append(f"phase({n},{j}) = {got}, published {want}")

    if name == "peak-linear-i":
        compare_pmf(fixtures.as_fractions(fixtures.PEAK_LINEAR_I))
        if args.init == "standard" and args.threshold == 1:
            compare_phase(fixtures.as_fractions(fixtures.PHASE_LINEAR_I_STANDARD), table)
            alt = compute_phase_table(
                model, min(args.max_n, 5), threshold_a=1, init=InitConvention.ALT_COST
            )
            compare_phase(fixtures.as_fractions(fixtures.PHASE_LINEAR_I_ALTCOST), alt)
    elif name == "peak-circular":
        compare_pmf(fixtures.as_fractions(fixtures.PEAK_CIRCULAR))
        if args.init == "standard" and args.threshold == 1:
            compare_phase(fixtures.as_fractions(fixtures.PHASE_CIRCULAR_STANDARD), table)
    elif name == "toy-halving":
        if args.threshold != 1:  # the closed form is the threshold-1 law
            print(f"no published fixtures for {name} at threshold {args.threshold}",
                  file=sys.stderr)
            return 1
        for n in range(2, args.max_n + 1):
            j = n.bit_length() - 1  # 2^j <= n < 2^{j+1}
            want = 2 - Fraction(n, 2**j)
            # halving probabilities are dyadic, so the float row is exact
            if Fraction(table.prob(n, j)) != want:
                failures.append(f"toy phase({n},{j}) != closed form")
    else:
        print(f"no published fixtures for model {name}", file=sys.stderr)
        return 1
    for line in failures[:20]:
        print(f"FIXTURE MISMATCH: {line}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# figures


def _xy_rows(xs, ys, series) -> list[list[str]]:
    return [[repr(x), repr(y), series] for x, y in zip(xs.tolist(), ys.tolist())]


def _scatter_rows(table, alpha, n_lo, n_hi, kind, series):
    values = np.cumsum(table.probs, axis=1) if kind == "cdf" else table.probs
    keep = values > 1e-12
    if kind == "cdf":
        keep &= values < 1.0 - 1e-12
    xs, ys, _, _ = centred_points(table, alpha, n_lo, n_hi, values, keep)
    return _xy_rows(xs, ys, series)


def _fit(table, alpha, n_lo, n_hi, terms):
    """The pooled samples and their periodic fit, then per start n: n,
    log n, the observed mean residual and the fit's reconstruction of it.
    The starts must span one period of log_{1/alpha} n: n_hi * alpha >= n_lo."""
    ns, logs = log_starts(table, alpha, n_lo, n_hi)
    if n_hi * alpha < n_lo:
        raise ValueError(
            f"the starts {n_lo}..{n_hi} span less than one period of log_(1/alpha) n; "
            f"need n_hi * alpha >= n_lo, got {n_hi} * {alpha} < {n_lo}"
        )
    samples = periodicity_samples(table, float(alpha), n_lo, n_hi)
    fit = periodicity_reconstruct(samples, fourier_terms=terms)
    return samples, fit, ns, logs, table.means[ns] - logs, fit.reconstruction(logs % 1.0)


def _overlay_rows(table, alpha, n_hi, kind):
    """Cosmetic overlays on the centered law of ``n_hi``: a moment-matched
    Gumbel cdf on cdf plots (the fit is expectedly bad), a unit-window
    normal cdf difference on pmf plots."""
    law = table.row(n_hi)
    ln = float(log_starts(table, alpha, n_hi, n_hi)[1][0])
    js = np.arange(len(law))
    mean = float(np.dot(js, law)) - ln
    var = float(np.dot((js - ln - mean) ** 2, law))
    xs = np.linspace(-2.5, 2.5, 201)
    if kind == "cdf":
        beta = math.sqrt(6.0 * var) / math.pi
        mu = mean - 0.5772156649015329 * beta
        ys, series = np.exp(-np.exp(-(xs - mu) / beta)), "gumbel_ref"
    else:
        ndtr = np.vectorize(lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0)))  # normal cdf
        sd = math.sqrt(var)
        ys, series = ndtr((xs - mean) / sd) - ndtr((xs - 1.0 - mean) / sd), "gauss_ref"
    return _xy_rows(xs, ys, series)


def cmd_figure(args: argparse.Namespace, out: Path) -> int:
    third = Fraction(1, 3)
    protocols = {
        "fig1": ("peak-linear-i", "standard", 50, 500, "means"),
        "fig2": ("peak-linear-i", "standard", 20, 500, "cdf"),
        "fig3": ("peak-linear-i", "standard", 150, 500, "pmf"),
        "fig4": ("peak-linear-i", "standard", 1, 40, "pmf"),
        "fig5": ("peak-linear-i", "altcost", 5, 500, "cdf"),
        "fig6": ("peak-linear-i", "altcost", 5, 500, "pmf"),
        "fig7": ("peak-linear-i", "altcost", 1, 100, "pmf"),
        "fig8": ("peak-linear-i", "standard", 50, 500, "recon"),
        "fig9": ("peak-circular", "standard", 5, 500, "cdf"),
        "fig10": (None, "standard", 5, 500, "compare"),
        "fig11": ("peak-circular", "standard", 1, 40, "pmf"),
        "fig12": ("peak-circular", "standard", 50, 500, "recon"),
    }
    if args.figure not in protocols:
        print(f"unknown figure id {args.figure!r}; use fig1..fig12", file=sys.stderr)
        return 2
    model_name, init, n_lo, n_hi, kind = protocols[args.figure]
    rows: list[list[str]] = []
    if kind == "compare":
        for name in ("peak-circular", "peak-linear-i"):
            model = model_from_name(name, exact_cutoff=args.exact_cutoff)
            table = compute_phase_table(model, n_hi, init=InitConvention(init))
            rows += _scatter_rows(table, third, n_lo, n_hi, "cdf", name)
    else:
        model = model_from_name(model_name, exact_cutoff=args.exact_cutoff)
        table = compute_phase_table(model, n_hi, init=InitConvention(init))
        if kind == "means":
            ns, logs = log_starts(table, third, n_lo, n_hi)
            rows += _xy_rows(logs, table.means[ns] - logs, "observed")
        elif kind == "recon":
            *_, logs, observed, predicted = _fit(table, third, n_lo, n_hi, args.fourier_terms)
            rows += _xy_rows(logs, observed, "observed")
            rows += _xy_rows(logs, predicted, "reconstruction")
        else:
            rows += _scatter_rows(table, third, n_lo, n_hi, kind, "observed")
            if args.overlays:
                rows += _overlay_rows(table, third, n_hi, kind)
    _write_csv(out / f"{args.figure}.csv", ["x", "y", "series"], rows)
    print(f"RESULT figure id={args.figure} points={len(rows)} out={out}")
    return 0


# ---------------------------------------------------------------------------
# check


def _series_rows(*columns) -> list[list]:
    """Rows ``n, x, ...`` of series indexed from n = 1, each value written
    as the ``repr`` of its float."""
    return [[n, *(repr(float(x)) for x in xs)] for n, xs in enumerate(zip(*columns), 1)]


def cmd_check(args: argparse.Namespace, out: Path) -> int:
    model = _build_model(args)
    report = run_condition_checks(model, args.n_max, _alpha(args, model))
    _write_csv(
        out / "monotone_violations.csv",
        ["n", "k", "gap"],
        [[v.n, v.k, repr(v.gap)] for v in report.monotone.violations],
    )
    increment, concentration = report.increment, report.concentration
    _write_csv(out / "mean_increments.csv", ["n", "increment", "deviation"],
               _series_rows(increment.increments, increment.deviations))
    _write_csv(out / "concentration.csv", ["n", "delta", "tail_prob", "scaled"],
               _series_rows(concentration.deltas, concentration.tail_probs, concentration.series))
    _write_csv(out / "moment_ratios.csv", ["n", "ratio"], _series_rows(report.moment.ratios))
    print(f"RESULT check {report.summary()}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace, out: Path) -> int:
    variant = RingVariant(args.variant)
    summary_rows = []
    if args.estimate == "c2":
        est = estimate_c2(args.n, args.trials, args.seed, variant)
        reference = closed_form_c2() if variant is RingVariant.TRUE_PERSISTENT else 1.0 / 9.0
        summary_rows.append(
            [variant.value, args.n, est.statistic, repr(est.point), repr(est.stderr), est.trials]
        )
        summary_rows.append(
            [variant.value, args.n, "closed-form-reference", repr(reference), "0", 0]
        )
        print(
            f"RESULT simulate estimate=c2 point={est.point:.8f} stderr={est.stderr:.2e} "
            f"reference={reference:.10f} sigmas={est.sigmas_from(reference):.2f}"
        )
    elif args.estimate == "conditional":
        est = conditional_second_round(args.trials, args.seed, variant)
        exact = exhaustive_second_round() if variant is RingVariant.TRUE_PERSISTENT else None
        summary_rows.append(
            [variant.value, 8, est.statistic, repr(est.point), repr(est.stderr), est.trials]
        )
        if exact is not None:
            summary_rows.append(
                [variant.value, 8, "exhaustive-reference", repr(float(exact)), "0", 0]
            )
            print(
                f"RESULT simulate estimate=conditional point={est.point:.6f} "
                f"exact={exact} sigmas={est.sigmas_from(float(exact)):.2f}"
            )
        else:
            print(f"RESULT simulate estimate=conditional point={est.point:.6f}")
    else:  # histogram
        config = SimConfig(
            variant, args.n, args.trials, args.seed,
            stop_threshold=args.threshold, record_traces=args.traces,
        )
        records = run_election(config)
        messages = records.messages
        prefix = f"{variant.value},{args.n},"
        # a trial's messages are 2n per round, so its line ends on one of a
        # few tails
        tails = {r: f",{r},{2 * args.n * r}\n" for r in np.unique(records.rounds).tolist()}
        with write_atomic(out / "results.csv") as fh:
            fh.write("variant,n,trial,rounds,messages\n")
            for lo in range(0, args.trials, _CSV_TRIALS):
                rounds = records.rounds[lo : lo + _CSV_TRIALS].tolist()
                fh.write("".join([f"{prefix}{t}{tails[r]}" for t, r in enumerate(rounds, lo)]))
        hist = records.round_histogram()
        summary_rows += [
            [variant.value, args.n, f"count-rounds-{j}", c, "", args.trials]
            for j, c in sorted(hist.items())
        ]
        mean_messages = float(messages.mean())
        scale = 2.0 * args.n * math.log(args.n) / math.log(3.0)
        summary_rows.append(
            [variant.value, args.n, "mean-messages", repr(mean_messages), "", args.trials]
        )
        summary_rows.append(
            [variant.value, args.n, "messages-over-2nlog3n", repr(mean_messages / scale), "", args.trials]
        )
        if args.traces:
            ratios = mean_survival_ratios(records)
            summary_rows.append(
                [variant.value, args.n, "round-survival-ratios",
                 " ".join(f"{r:.6f}" for r in ratios), "", args.trials]
            )
        print(
            f"RESULT simulate variant={variant.value} n={args.n} trials={args.trials} "
            f"mean_rounds={float(records.rounds.mean()):.4f} mean_messages={mean_messages:.1f}"
        )
    _write_csv(
        out / "summary.csv",
        ["variant", "n", "stat", "point", "stderr", "trials"],
        summary_rows,
    )
    return 0


# ---------------------------------------------------------------------------
# periodicity


def cmd_periodicity(args: argparse.Namespace, out: Path) -> int:
    model = _build_model(args)
    alpha = _alpha(args, model)
    if alpha is None:
        print("model declares no alpha; pass --alpha", file=sys.stderr)
        return 2
    if args.n_lo < 1:
        raise ValueError(f"need --n-lo >= 1, got {args.n_lo}")
    table = compute_phase_table(model, args.n_hi, init=InitConvention(args.init))
    samples, fit, ns, logs, observed, predicted = _fit(
        table, alpha, args.n_lo, args.n_hi, args.fourier_terms
    )
    _write_csv(
        out / "samples.csv",
        ["y", "mass"],
        zip(map(repr, samples.ys.tolist()), map(repr, samples.masses.tolist())),
    )
    _write_csv(
        out / "residuals.csv",
        ["n", "log_n", "observed", "reconstruction"],
        zip(ns.tolist(), *(map(repr, v.tolist()) for v in (logs, observed, predicted))),
    )
    worst = float(np.abs(observed - predicted).max())
    scatter = empirical_limit(table, float(alpha), args.n_lo, args.n_hi)
    print(
        f"RESULT periodicity model={model.name} mean_level={fit.mean_level:.6f} "
        f"sup_residual={worst:.6f} collapse_spread={scatter.collapse_spread():.6f} "
        f"monotone_violations={scatter.monotone_violations()}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_model_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True, choices=_MODEL_CHOICES)
    sub.add_argument("--alpha", type=_fraction, default=None, help="default: the model's alpha")
    sub.add_argument("--p", type=_fraction, default=None, help="coin bias, e.g. 0.3 or 3/10")
    sub.add_argument("--nu", type=_fraction, default=None, help="demon kill probability")
    sub.add_argument("--matrix", type=Path, default=None, help="CSV for --model explicit")
    sub.add_argument("--exact-cutoff", type=int, default=DEFAULT_EXACT_CUTOFF,
                     help="largest n computed with exact rationals; the cost grows "
                          "steeply: 'table' for peak-circular to n = cutoff takes "
                          "about 1.2-1.6 s and 37 MB at 300, and 16-17 s and 72 MB at "
                          "600, of which the table build is 0.5-0.7 s and 9-11 s (one "
                          "core), and exact peak count rows are kept for the life "
                          "of the process")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="electra",
        description="phase-count analysis of elimination-round leader election",
    )
    parser.add_argument("--version", action="version", version=f"electra {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="default: $ELECTRA_OUT, else ./electra-out")

    table = subs.add_parser("table", parents=[common], help="survivor pmf and phase-law tables")
    _add_model_options(table)
    table.add_argument("--max-n", type=int, required=True)
    table.add_argument("--threshold", type=int, default=1)
    table.add_argument("--init", choices=["standard", "altcost"], default="standard")
    table.add_argument("--residual-eps", type=_positive_float, default=engine.DEFAULT_RESIDUAL_EPS)
    table.add_argument("--check-fixtures", action="store_true",
                       help="compare with the published small tables; exit 1 on mismatch")
    table.set_defaults(func=cmd_table)

    figure = subs.add_parser("figure", parents=[common], help="emit plot data for fig1..fig12")
    figure.add_argument("figure", help="figure id, fig1..fig12")
    figure.add_argument("--fourier-terms", type=int, default=5)
    figure.add_argument("--exact-cutoff", type=int, default=DEFAULT_EXACT_CUTOFF)
    figure.add_argument("--overlays", action="store_true",
                        help="add cosmetic gumbel/gauss reference curves")
    figure.set_defaults(func=cmd_figure)

    check = subs.add_parser("check", parents=[common],
                            help="finite-range convergence-hypothesis checks")
    _add_model_options(check)
    check.add_argument("--n-max", type=int, default=200)
    check.set_defaults(func=cmd_check)

    sim = subs.add_parser("simulate", parents=[common], help="Monte Carlo ring elections")
    sim.add_argument("--variant", required=True,
                     choices=[v.value for v in RingVariant])
    sim.add_argument("--n", type=int, default=100)
    sim.add_argument("--trials", type=int, default=10_000)
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--threshold", type=int, default=1)
    sim.add_argument("--estimate", choices=["histogram", "c2", "conditional"],
                     default="histogram")
    sim.add_argument("--traces", action="store_true",
                     help="record survivor traces (memory heavy for big runs)")
    sim.set_defaults(func=cmd_simulate)

    period = subs.add_parser("periodicity", parents=[common],
                             help="Laplace/Fourier residual extraction")
    _add_model_options(period)
    period.add_argument("--n-lo", type=int, default=50,
                        help="smallest start; the starts must span one period of "
                             "log_(1/alpha) n, so n_hi * alpha >= n_lo")
    period.add_argument("--n-hi", type=int, default=500)
    period.add_argument("--init", choices=["standard", "altcost"], default="standard")
    period.add_argument("--fourier-terms", type=int, default=5)
    period.set_defaults(func=cmd_periodicity)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building one costs more than a parse."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    out = _out_dir(args)
    try:
        status = args.func(args, out)
        if status in (0, 1):
            _echo_config(out, args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
