import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import electra
from electra.cli import _MODEL_CHOICES, main


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_table_fixture_checks_pass(tmp_path):
    out = str(tmp_path)
    assert main(["table", "--model", "peak-linear-i", "--max-n", "7",
                 "--check-fixtures", "--out", out]) == 0
    assert main(["table", "--model", "peak-circular", "--max-n", "7",
                 "--check-fixtures", "--out", out]) == 0
    assert main(["table", "--model", "toy", "--max-n", "16",
                 "--check-fixtures", "--out", out]) == 0
    pmf = _rows(tmp_path / "table" / "survivor_pmf.csv")
    assert pmf[0]["n"] == "1"
    config = json.loads((tmp_path / "table" / "config.json").read_text())
    assert config["model"] == "toy" and config["max_n"] == 16


def test_import_and_table_leave_scipy_unloaded():
    # every command pays the package's import, and a table build with
    # exact and float rows needs nothing beyond numpy
    code = (
        "import sys, electra.cli; from electra.engine import compute_phase_table; "
        "from electra.models import FairCoin; "
        "compute_phase_table(FairCoin(exact_cutoff=20), 200); "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(electra.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_table_without_fixtures_for_other_models(tmp_path):
    assert main(["table", "--model", "fair-coin", "--max-n", "30",
                 "--check-fixtures", "--out", str(tmp_path)]) == 1
    assert main(["table", "--model", "fair-coin", "--max-n", "30",
                 "--out", str(tmp_path)]) == 0


def test_float_only_coin_tables(tmp_path):
    # every coin row from the float backend, up to the all-heads row
    assert main(["table", "--model", "fair-coin", "--max-n", "100",
                 "--exact-cutoff", "0", "--out", str(tmp_path)]) == 0
    assert main(["table", "--model", "biased-coin", "--p", "0.9", "--max-n", "100",
                 "--exact-cutoff", "0", "--out", str(tmp_path)]) == 0


def test_peak_cutoff_above_120_runs(tmp_path):
    # exact peak rows have no cap: row 130 is written as a reduced fraction
    assert main(["table", "--model", "peak-linear-i", "--max-n", "140",
                 "--exact-cutoff", "130", "--out", str(tmp_path)]) == 0
    pmf = _rows(tmp_path / "table" / "survivor_pmf.csv")
    row = [r for r in pmf if r["n"] == "130"]
    assert sum(Fraction(int(r["numerator"]), int(r["denominator"])) for r in row) == 1


def test_toy_fixtures_only_at_threshold_one(tmp_path, capsys):
    # the toy closed form is the threshold-1 law; other thresholds have none
    assert main(["table", "--model", "toy", "--max-n", "300", "--threshold", "3",
                 "--check-fixtures", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "no published fixtures for toy-halving at threshold 3" in err
    assert "FIXTURE MISMATCH" not in err
    assert main(["table", "--model", "toy", "--max-n", "300",
                 "--check-fixtures", "--out", str(tmp_path)]) == 0


def test_negative_cutoff_is_rejected(tmp_path, capsys):
    assert main(["table", "--model", "fair-coin", "--max-n", "10",
                 "--exact-cutoff", "-3", "--out", str(tmp_path)]) == 2
    assert "exact_cutoff >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["-1", "0", "nan", "inf"])
def test_residual_eps_must_be_finite_and_positive(tmp_path, capsys, eps):
    with pytest.raises(SystemExit) as err:
        main(["table", "--model", "toy", "--max-n", "5", f"--residual-eps={eps}",
              "--out", str(tmp_path)])
    assert err.value.code == 2
    assert "need a finite number > 0" in capsys.readouterr().err


def test_check_exit_codes(tmp_path):
    out = str(tmp_path)
    assert main(["check", "--model", "fair-coin", "--alpha", "0.5",
                 "--n-max", "120", "--out", out]) == 0
    assert main(["check", "--model", "det-halving", "--alpha", "0.5",
                 "--n-max", "60", "--out", out]) == 1
    rows = _rows(tmp_path / "check" / "mean_increments.csv")
    assert {"n", "increment", "deviation"} <= set(rows[0])


def test_check_biased_coin_witness(tmp_path):
    assert main(["check", "--model", "biased-coin", "--p", "0.3",
                 "--n-max", "50", "--out", str(tmp_path)]) == 1
    rows = _rows(tmp_path / "check" / "monotone_violations.csv")
    assert rows and rows[0]["n"] == "2" and rows[0]["k"] == "1"


def test_figures(tmp_path):
    out = str(tmp_path)
    assert main(["figure", "fig1", "--out", out]) == 0
    rows = _rows(tmp_path / "figure" / "fig1.csv")
    assert len(rows) == 451 and rows[0]["series"] == "observed"
    ys = [float(r["y"]) for r in rows]
    # frozen oscillation band of the mean residual over n = 50..500
    assert -0.5 < min(ys) and max(ys) < -0.15
    assert 0.15 < max(ys) - min(ys) < 0.3
    assert main(["figure", "fig8", "--out", out]) == 0
    fig8 = _rows(tmp_path / "figure" / "fig8.csv")
    series = {row["series"] for row in fig8}
    assert series == {"observed", "reconstruction"}
    observed = {r["x"]: float(r["y"]) for r in fig8 if r["series"] == "observed"}
    recon = {r["x"]: float(r["y"]) for r in fig8 if r["series"] == "reconstruction"}
    gaps = [abs(observed[x] - recon[x]) for x in observed]
    assert max(gaps) < 0.016  # frozen alongside the acceptance bound
    assert main(["figure", "fig10", "--out", out]) == 0
    series = {row["series"] for row in _rows(tmp_path / "figure" / "fig10.csv")}
    assert series == {"peak-circular", "peak-linear-i"}
    assert main(["figure", "fig2", "--overlays", "--out", out]) == 0
    series = {row["series"] for row in _rows(tmp_path / "figure" / "fig2.csv")}
    assert "gumbel_ref" in series
    assert main(["figure", "fig99", "--out", out]) == 2


def test_simulate_histogram(tmp_path):
    assert main(["simulate", "--variant", "redraw-circular", "--n", "12",
                 "--trials", "3000", "--seed", "5", "--traces",
                 "--out", str(tmp_path)]) == 0
    results = _rows(tmp_path / "simulate" / "results.csv")
    assert len(results) == 3000
    summary = _rows(tmp_path / "simulate" / "summary.csv")
    stats = {row["stat"] for row in summary}
    assert "mean-messages" in stats and "round-survival-ratios" in stats


def test_simulate_c2(tmp_path):
    assert main(["simulate", "--variant", "true-persistent", "--estimate", "c2",
                 "--n", "500", "--trials", "500", "--seed", "9",
                 "--out", str(tmp_path)]) == 0
    summary = _rows(tmp_path / "simulate" / "summary.csv")
    refs = [row for row in summary if row["stat"] == "closed-form-reference"]
    assert refs and abs(float(refs[0]["point"]) - 0.1096868681) < 1e-9


@pytest.mark.parametrize(
    "n,trials,message",
    [("1", "10", "n >= 2"), ("0", "10", "n >= 2"), ("5", "0", "trials >= 1")],
)
def test_simulate_c2_rejects_bad_sizes(tmp_path, capsys, n, trials, message):
    assert main(["simulate", "--variant", "true-persistent", "--estimate", "c2",
                 "--n", n, "--trials", trials, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_simulate_conditional(tmp_path):
    assert main(["simulate", "--variant", "true-persistent", "--estimate",
                 "conditional", "--trials", "40000", "--seed", "3",
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("variant", ["redraw-linear-i", "redraw-linear-ii"])
def test_simulate_conditional_rejects_linear_variants(tmp_path, capsys, variant):
    assert main(["simulate", "--variant", variant, "--estimate", "conditional",
                 "--trials", "200000", "--seed", "3", "--out", str(tmp_path)]) == 2
    assert "circular variant" in capsys.readouterr().err
    assert not (tmp_path / "simulate" / "summary.csv").exists()


def test_periodicity_command(tmp_path):
    assert main(["periodicity", "--model", "toy", "--n-lo", "50", "--n-hi", "400",
                 "--fourier-terms", "6", "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "periodicity" / "residuals.csv")
    gaps = [abs(float(r["observed"]) - float(r["reconstruction"])) for r in rows]
    assert max(gaps) < 0.02


def test_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["table", "--model", "not-a-model", "--max-n", "5"])
    assert err.value.code == 2
    assert main(["table", "--model", "biased-coin", "--max-n", "5",
                 "--out", str(tmp_path)]) == 2  # missing --p


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("ELECTRA_OUT", str(tmp_path / "envout"))
    assert main(["figure", "fig4"]) == 0
    assert (tmp_path / "envout" / "figure" / "fig4.csv").exists()


@pytest.mark.parametrize("argv", [
    ["table", "--model", "biased-coin", "--p", "1/0", "--max-n", "5"],
    ["table", "--model", "demon", "--p", "1/2", "--nu", "3/0", "--max-n", "5"],
    ["periodicity", "--model", "toy", "--alpha", "1/0"],
    ["check", "--model", "toy", "--alpha", "not-a-number"],
])
def test_bad_fractions_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(tmp_path)])
    assert err.value.code == 2
    assert "not a fraction" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["table", "--model", "toy", "--max-n", "8"],
    ["periodicity", "--model", "toy", "--n-hi", "60"],
])
@pytest.mark.parametrize("alpha", ["0", "1", "2", "-1/3"])
def test_alpha_outside_unit_interval_exits_2(tmp_path, capsys, command, alpha):
    assert main(command + [f"--alpha={alpha}", "--out", str(tmp_path)]) == 2
    assert "need alpha in (0, 1)" in capsys.readouterr().err


def test_given_alpha_sets_the_log_base(tmp_path):
    assert main(["table", "--model", "toy", "--max-n", "9", "--alpha", "1/3",
                 "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "table" / "phase_means.csv")
    assert float(rows[9]["log_alpha_n"]) == pytest.approx(2.0)  # log_3 9


@pytest.mark.parametrize("n_lo, n_hi, message", [
    pytest.param("0", "60", "--n-lo", id="below-one"),
    pytest.param("500", "100", "empty n range", id="above-n-hi"),
])
def test_periodicity_rejects_n_lo_below_one(tmp_path, capsys, n_lo, n_hi, message):
    assert main(["periodicity", "--model", "toy", "--n-lo", n_lo, "--n-hi", n_hi,
                 "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def _mostly(good, bad):
    """Valid values two draws in three, so most argv get past parsing."""
    return st.one_of(st.sampled_from(good), st.sampled_from(good), st.sampled_from(bad))


_FUZZ_VALUES = _mostly(["1/2", "0.3", "9/10", "1/3"], ["1/0", "0", "1", "2", "-3", "x"])
_FUZZ_SIZES = _mostly(["2", "5", "12"], ["-1", "0", "1"])
_FUZZ_MODELS = st.sampled_from([m for m in _MODEL_CHOICES if m != "explicit"])


_FUZZ_VARIANTS = ["true-persistent", "redraw-circular", "redraw-linear-i", "redraw-linear-ii"]


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(["table", "check", "periodicity", "simulate"]))
    if command == "simulate":
        argv = [command, "--variant", draw(st.sampled_from(_FUZZ_VARIANTS))]
        argv += ["--estimate", draw(st.sampled_from(["histogram", "c2", "conditional"]))]
        argv += ["--n", draw(_mostly(["2", "5", "64"], ["-1", "0", "1"]))]
        argv += ["--trials", draw(_mostly(["1", "7", "64"], ["-1", "0"]))]
        argv += ["--threshold", draw(st.sampled_from(["0", "1", "3"]))]
        return argv + (["--traces"] if draw(st.booleans()) else [])
    argv = [command, "--model", draw(_FUZZ_MODELS)]
    for flag in ("--p", "--nu", "--alpha"):
        if draw(st.integers(0, 3)):
            argv += [flag, draw(_FUZZ_VALUES)]
    if draw(st.booleans()):
        argv += ["--exact-cutoff", draw(_mostly(["0", "3"], ["-1", "200"]))]
    if command == "table":
        argv += ["--max-n", draw(_FUZZ_SIZES)]
        argv += ["--threshold", draw(_mostly(["1", "2"], ["-1", "0"]))]
        argv += ["--init", draw(st.sampled_from(["standard", "altcost"]))]
    elif command == "check":
        argv += ["--n-max", draw(_FUZZ_SIZES)]
    else:
        argv += ["--n-lo", draw(_FUZZ_SIZES), "--n-hi", draw(st.sampled_from(["1", "12", "20"]))]
        argv += ["--fourier-terms", draw(st.sampled_from(["0", "1", "3"]))]
    return argv


@settings(max_examples=150)
@given(argv=_fuzz_argv())
def test_cli_fuzz_exits_0_1_or_2(tmp_path_factory, argv):
    # every argv either runs or is refused as a usage error; nothing escapes
    out = tmp_path_factory.mktemp("fuzz")
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
        assert code == 2, argv
    assert code in (0, 1, 2), argv
    if "conditional" in argv and "redraw-linear" in argv[2]:
        assert code == 2, argv  # the conditional estimate is circular only
