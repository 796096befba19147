"""electra benchmark: time the CLI end to end, or trace it layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload phase-table --seed 1 --seconds 40 --trace 0

The workload runs as a closed loop with one client: passes run one after
another, each in a fresh interpreter (``worker.py``) that runs the
workload's commands in sequence.  New passes start while the next one is
expected to end within ``--seconds``; at least ``MIN_PASSES`` run.

``--trace 0`` reports the end-to-end metrics, each the median over passes:
``wall_s`` (all commands of a pass), ``setup_s`` (spawn of a fresh
interpreter to ``import electra`` plus a first small call) and
``peak_rss_mb`` (peak resident memory of a pass's process).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced passes, the per-command times of the
untraced ones, and the tracing overhead (traced minus untraced wall time).

Every time is in reference seconds (see ``speed.py``): the seconds a
stretch of a pass took, scaled by how fast the CPU ran a fixed reference
loop during that stretch, so that the speed changes of a shared machine
do not show as changes of the program.  ``--trace 1`` also reports the
unscaled ``raw.wall_s`` and the reference loop's time ``speed.loop_us``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a human-readable summary goes to
stderr.  An op fails when its exit code or an output check is wrong.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
#: a run must end within 180 s; stop well before, without a result
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _pass_env(tmp: Path) -> dict[str, str]:
    """Environment of a pass: numeric libraries use one thread, so the pass
    runs on the CPU whose speed its sampler measures; temporary files stay
    inside the checkout; and string hashing is the same in every pass, so
    passes repeat exactly."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(tmp)
    return env


def run_pass(workload: str, seed: int, trace: bool, out: Path, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    env = _pass_env(out.parent)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--out", str(out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the pass started")
    try:
        proc = subprocess.run(
            [*cmd, "--spawned-at", repr(time.monotonic())],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass exited with code {proc.returncode}")
    shutil.rmtree(out, ignore_errors=True)
    return json.loads(lines[-1])


def run_passes(args, tmp: Path) -> tuple[list[dict], list[dict]]:
    """Closed loop of passes; returns (untraced reports, traced reports)."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    untraced: list[dict] = []
    traced: list[dict] = []
    # one traced pass per untraced pass in trace mode
    schedule = (False, True) if args.trace else (False,)
    min_rounds = 1 if args.trace else MIN_PASSES
    rounds = 0
    while True:
        for trace in schedule:
            report = run_pass(args.workload, args.seed, trace,
                              tmp / f"pass{len(untraced) + len(traced):03d}", deadline)
            (traced if trace else untraced).append(report)
        rounds += 1
        elapsed = time.monotonic() - started
        if rounds >= min_rounds and elapsed + elapsed / rounds > args.seconds:
            return untraced, traced


def pass_wall(report: dict) -> float:
    """Measured seconds of all commands of a pass."""
    return sum(op["seconds"] for op in report["ops"])


def ref_wall(report: dict) -> float:
    """Reference seconds of all commands of a pass."""
    return pass_wall(report) * report["speed"]


def command_times(reports: list[dict]) -> dict[str, float]:
    """Median over passes of the time spent in each kind of command, and of
    the time a pass spent off the CPU (wall minus process CPU time)."""
    times = {
        f"cmd.{kind}_s": median(
            r["speed"] * sum(op["seconds"] for op in r["ops"] if op["kind"] == kind)
            for r in reports
        )
        for kind in workloads.KINDS
    }
    times["cmd.wait_s"] = median(
        r["speed"] * sum(op["seconds"] - op["cpu_seconds"] for op in r["ops"])
        for r in reports
    )
    return times


def end_to_end(untraced: list[dict]) -> dict[str, float]:
    return {
        "wall_s": median(ref_wall(r) for r in untraced),
        "setup_s": median(r["setup_s"] * r["setup_speed"] for r in untraced),
        "peak_rss_mb": median(r["maxrss_mb"] for r in untraced),
    }


def _to_reference(layers: dict[str, float], factor: float, units: dict[str, str]) -> dict:
    """Scale a traced pass's times (and rates) to reference seconds."""
    scale = {"s": factor, "1/s": 1.0 / factor}
    return {name: value * scale.get(units[name], 1.0) for name, value in layers.items()}


def per_layer(untraced: list[dict], traced: list[dict], units: dict[str, str]) -> dict[str, float]:
    metrics = spans.median_metrics([
        {**_to_reference(r["layers"], r["speed"], units),
         "cli.bytes_written": sum(op["bytes"] for op in r["ops"])}
        for r in traced
    ])
    metrics.update(command_times(untraced))
    metrics["trace.wall_s"] = median(ref_wall(r) for r in traced)
    metrics["trace.untraced_wall_s"] = median(ref_wall(r) for r in untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["raw.wall_s"] = median(pass_wall(r) for r in untraced)
    metrics["speed.loop_us"] = median(r["loop_s"] * 1e6 for r in untraced)
    return metrics


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _stamp() -> str:
    import numpy
    import scipy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, {len(os.sched_getaffinity(0))} cpus, "
            f"{platform.machine()}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "electra" / "__init__.py").is_file():
        print(f"error: no electra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        untraced, traced = run_passes(args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()

    reports = untraced + traced
    failures = [op for r in reports for op in r["ops"] if op["error"]]
    units = _units()
    values = per_layer(untraced, traced, units) if args.trace else end_to_end(untraced)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}

    print(f"electra bench: workload={args.workload} seed={args.seed} "
          f"passes={len(untraced)} untraced + {len(traced)} traced; {_stamp()}",
          file=sys.stderr)
    for label, passes in (("untraced", untraced), ("traced", traced)):
        if passes:
            print(f"  {label} passes, measured s x speed factor = reference s: "
                  + ", ".join(f"{pass_wall(r):.3f} x {r['speed']:.3f} = {ref_wall(r):.3f}"
                              for r in passes), file=sys.stderr)
    for name, value in {**values, **(command_times(untraced) if not args.trace else {})}.items():
        print(f"  {name:42s} {value:14.6g} {units.get(name, '')}", file=sys.stderr)
    attempted = sum(len(r["ops"]) for r in reports)
    print(f"  {'ops_failed':42s} {len(failures) / attempted:14.6g} share of {attempted} ops",
          file=sys.stderr)
    for op in failures:
        print(f"  FAILED {op['argv']}: {op['error']}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
