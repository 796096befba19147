"""Run one pass of a benchmark workload in a fresh interpreter.

Started by ``run.py``, once per pass, so every pass pays the same cold
module-level caches an ``electra`` command line pays.  The pass:

1. imports electra from the checkout's ``src`` and makes one small first
   call; the time from the parent's spawn stamp to here is ``setup_s``;
2. runs the workload's ops through ``electra.cli.main`` in process, each
   timed on its own and writing into its own output directory, with the
   spans of ``spans.install`` recorded when ``--trace 1``;
3. computes the reference values and checks every op's output, outside
   the timed region;
4. prints its report as one JSON line on stdout.

A ``speed.Sampler`` runs through steps 1 and 2; the report gives the
factor that turns the set-up time, and the times of the ops, into
reference seconds.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from functools import cached_property
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent


class References:
    """Reference values for the output checks, each computed on first use."""

    conditional = 10 / 34  # exhaustive 8-ring second-round probability

    @cached_property
    def c2(self) -> float:
        from electra.franklin import closed_form_c2

        return closed_form_c2()

    @cached_property
    def redraw_mean(self) -> float:
        from electra.engine import compute_phase_table
        from electra.models import peak_circular

        return compute_phase_table(peak_circular(), 100).mean(100)

    def fair_coin_limit_cdf(self, x: float) -> float:
        from electra.metrics import fair_coin_limit_cdf

        return float(fair_coin_limit_cdf(x))

    def fair_coin_phi(self, n: float) -> float:
        from electra.metrics import fair_coin_phi

        return fair_coin_phi(n, terms=20)


def _import_electra():
    sys.path.insert(0, str(ROOT / "src"))
    import electra.cli

    source = Path(electra.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"electra imported from {source}, not from {ROOT / 'src'}")
    return electra.cli


def _csv_bytes(path: Path) -> int:
    """Bytes of CSV output; config.json is left out since it echoes the
    output path, which differs between runs."""
    return sum(p.stat().st_size for p in path.rglob("*.csv"))


def run_ops(cli, ops: list[workloads.Op], out: Path) -> list[dict]:
    """Run each op through the CLI and time it.  The commands' stdout is
    discarded, so the report is the only line the parent reads."""
    results = []
    for index, op in enumerate(ops):
        op_out = out / f"op{index:02d}"
        error = None
        cpu_start, start = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([*op.argv, "--out", str(op_out)])
        except Exception as exc:  # a crashing command is a failed op, not a crashed pass
            traceback.print_exc(file=sys.stderr)
            rc, error = None, f"raised {exc!r}"
        end = time.perf_counter()
        cpu_seconds = time.process_time() - cpu_start
        results.append({"kind": op.kind, "seconds": end - start, "cpu_seconds": cpu_seconds,
                        "window": (start, end), "rc": rc, "error": error, "dir": op_out})
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    args = parser.parse_args(argv)

    sampler = speed.Sampler()
    sampler.start()
    started = time.perf_counter()
    cli = _import_electra()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["table", "--model", "toy", "--max-n", "8", "--out", str(args.out / "first-use")])
    setup_s = time.monotonic() - args.spawned_at
    setup_window = (started, time.perf_counter())

    ops = workloads.WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer)
    try:
        results = run_ops(cli, ops, args.out)
    finally:
        tracer.restore()
        sampler.stop()
    op_windows = [result["window"] for result in results]

    refs = References()
    report_ops = []
    for op, result in zip(ops, results):
        error = result["error"] or workloads.verify(
            op, result["rc"], result["dir"] / op.argv[0], refs
        )
        report_ops.append({
            "kind": op.kind,
            "argv": " ".join(op.argv),
            "seconds": result["seconds"],
            "cpu_seconds": result["cpu_seconds"],
            "bytes": _csv_bytes(result["dir"]),
            "error": error,
        })
    report = {
        "setup_s": setup_s,
        "setup_speed": sampler.factor([setup_window]),
        "speed": sampler.factor(op_windows),
        "loop_s": sampler.loop_seconds(op_windows),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": report_ops,
        "layers": spans.layer_metrics(tracer.spans) if args.trace else None,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
