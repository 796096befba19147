"""Self-tests of the benchmark harness.

Run from the root of a checkout with ``python3 -m pytest bench/selftest.py``
(about 30 s: it runs every workload's commands once).  The file name keeps
it out of the package's own test suite.
"""
from __future__ import annotations

import csv
import shutil
import signal
import time
import types
from pathlib import Path

import pytest

import run
import spans
import speed
import worker
import workloads


# ---------------------------------------------------------------------------
# self-time arithmetic


def _span(name, start, end, parent=None, **meta):
    return spans.Span(name, start, end, parent, meta)


def test_self_times_of_synthetic_tree():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("engine.compute_phase_table", 1.0, 6.0, 0, columns=7),
        _span("models.pmf_exact", 2.0, 3.0, 1, row=("m", 75, 5, "pmf_exact")),
        _span("models.pmf_exact", 3.5, 4.0, 1, row=("m", 75, 5, "pmf_exact")),
        _span("models.pmf_float", 4.0, 5.5, 1, row=("m", 75, 6, "pmf_float")),
        _span("franklin.run_election", 7.0, 9.0, 0, rounds=40, trials=8),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 0.5, 1.5, 2.0]

    metrics = spans.layer_metrics(tree)
    assert metrics["trace.self_sum_s"] == 10.0  # the root's duration
    assert metrics["cli.self_s"] == 3.0
    assert metrics["engine.compute_phase_table.self_s"] == 2.0  # pmf calls excluded
    assert metrics["engine.compute_phase_table.calls"] == 1
    assert metrics["engine.columns"] == 7
    assert metrics["models.self_s"] == 3.0
    assert metrics["models.pmf_exact.calls"] == 2
    assert metrics["models.pmf_exact.self_s"] == 1.5
    assert metrics["models.row_repeat_ratio"] == 1.5  # 3 calls over 2 distinct rows
    assert metrics["franklin.rounds_played"] == 40
    assert metrics["franklin.trials_per_s"] == 4.0
    assert sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS) == 10.0


def test_tracer_records_nesting_and_restores():
    class Model:
        def pmf_exact(self, n):
            return n

    def compute(model, n):
        return sum(model.pmf_exact(k) for k in range(n))

    module = types.SimpleNamespace(compute=compute)
    original_method = Model.pmf_exact
    tracer = spans.Tracer()
    tracer.wrap(module, "compute", "engine.compute")
    tracer.wrap(Model, "pmf_exact", "models.pmf_exact")
    tracer.wrap(module, "missing", "engine.missing")  # absent names are skipped
    assert module.compute(Model(), 3) == 3
    tracer.restore()

    assert [s.name for s in tracer.spans] == ["engine.compute"] + ["models.pmf_exact"] * 3
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 0]
    assert module.compute is compute and Model.pmf_exact is original_method


# ---------------------------------------------------------------------------
# reference seconds


def test_speed_factor_of_samples_inside_windows():
    ref = speed.REF_LOOP_S
    sampler = speed.Sampler()
    sampler.samples = [(0.5, 2 * ref), (1.5, ref), (2.5, ref / 2)]
    assert sampler.factor([(1.0, 2.0)]) == 1.0
    assert sampler.factor([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(1 / 1.25)
    with pytest.raises(RuntimeError):
        sampler.factor([(5.0, 6.0)])


def test_sampler_samples_while_started_and_restores_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    sampler.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        pass
    sampler.stop()
    taken = len(sampler.samples)
    time.sleep(2 * speed.INTERVAL_S)
    assert taken >= 5 and len(sampler.samples) == taken
    assert signal.getsignal(signal.SIGALRM) == previous


def test_traced_times_scale_to_reference_seconds():
    units = {"cli.self_s": "s", "franklin.trials_per_s": "1/s", "engine.columns": "count"}
    layers = {"cli.self_s": 2.0, "franklin.trials_per_s": 100.0, "engine.columns": 7}
    assert run._to_reference(layers, 0.5, units) == {
        "cli.self_s": 1.0, "franklin.trials_per_s": 200.0, "engine.columns": 7}


# ---------------------------------------------------------------------------
# every output check rejects a corrupted output


def _edit_csv(path: Path, column: str, edit, where=lambda row: True) -> None:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    for row in rows:
        if where(row):
            row[column] = edit(row[column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _figure_name(out: Path) -> str:
    return next(p.name for p in out.glob("fig*.csv"))


#: check name -> how to corrupt the output directory it reads
CORRUPTIONS = {
    "exact_rows_unchanged": lambda out: _edit_csv(
        out / "phase_probs_exact.csv", "numerator", lambda v: str(int(v) + 1),
        lambda row: row["j"] == "1"),
    "fair_coin_limit_gap": lambda out: _edit_csv(
        out / "phase_probs.csv", "prob", lambda v: "0.0", lambda row: row["n"] == "4096"),
    "fair_coin_mean_residual": lambda out: _edit_csv(
        out / "phase_means.csv", "x", lambda v: repr(float(v) + 0.01),
        lambda row: row["n"] == "4096"),
    "c2_estimate": lambda out: _edit_csv(
        out / "summary.csv", "point", lambda v: repr(1.0 / 9.0)),
    "conditional_estimate": lambda out: _edit_csv(
        out / "summary.csv", "point", lambda v: "0.5"),
    "redraw_mean_rounds": lambda out: _edit_csv(
        out / "results.csv", "rounds", lambda v: str(int(v) + 1)),
    "periodicity_residual": lambda out: _edit_csv(
        out / "residuals.csv", "observed", lambda v: repr(float(v) + 0.02),
        lambda row: row["n"] == "100"),
    "figure_has_points": lambda out: (out / _figure_name(out)).write_text("x,y,series\n"),
}

CASES = [
    (name, index, op)
    for name, build in workloads.WORKLOADS.items()
    for index, op in enumerate(build(7))
]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every op of every workload once; op -> its output directory."""
    cli = worker._import_electra()
    root = tmp_path_factory.mktemp("ops")
    dirs = {}
    for name, build in workloads.WORKLOADS.items():
        ops = build(7)
        for index, (op, result) in enumerate(zip(ops, worker.run_ops(cli, ops, root / name))):
            assert result["error"] is None
            dirs[(name, index)] = (result["rc"], result["dir"] / op.argv[0])
    return dirs


def test_crashing_command_is_a_failed_op(tmp_path):
    def main(argv):
        raise RuntimeError("boom")

    op = workloads.Op("table", ("table",))
    (result,) = worker.run_ops(types.SimpleNamespace(main=main), [op], tmp_path)
    assert result["rc"] is None and "boom" in result["error"]


def test_every_check_has_a_corruption():
    names = {check.__name__ for _, _, op in CASES for check in op.checks}
    assert names <= set(CORRUPTIONS)


@pytest.mark.parametrize("name,index,op", CASES, ids=[f"{n}-{i}" for n, i, _ in CASES])
def test_corrupted_output_fails_the_op(name, index, op, outputs, tmp_path):
    rc, out = outputs[(name, index)]
    refs = worker.References()
    assert workloads.verify(op, rc, out, refs) is None
    assert workloads.verify(op, 1 - op.expect_rc, out, refs) is not None
    for check in op.checks:
        broken = tmp_path / check.__name__
        shutil.copytree(out, broken)
        CORRUPTIONS[check.__name__](broken)
        assert workloads.verify(op, rc, broken, refs) is not None, check.__name__
