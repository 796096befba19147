import csv
import hashlib
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
from electra import engine, fixtures, franklin
from electra.cli import _MODEL_CHOICES, main
from electra.engine import lowest_terms


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


def test_failed_writer_leaves_earlier_files_whole(tmp_path, monkeypatch, capsys):
    # the 941st conversion fails: after the 930 integers of survivor_pmf.csv's
    # 465 lines, the exact writer dies on its 11th, the numerator of its 6th line
    argv = ["table", "--model", "fair-coin", "--max-n", "30", "--out", str(tmp_path)]
    out = tmp_path / "table"
    real, calls = engine.decimal_str, []

    def failing(x):
        calls.append(x)
        if len(calls) == 941:
            raise MemoryError
        return real(x)

    monkeypatch.setattr(engine, "decimal_str", failing)
    assert main(argv) == 2
    assert "error: MemoryError" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["phase_probs.csv", "survivor_pmf.csv"]
    monkeypatch.setattr(engine, "decimal_str", real)
    assert main(argv) == 0
    whole = (out / "phase_probs_exact.csv").read_bytes()
    assert whole.count(b"\n") > 21
    monkeypatch.setattr(engine, "decimal_str", failing)
    calls.clear()
    assert main(argv) == 2
    assert (out / "phase_probs_exact.csv").read_bytes() == whole
    assert not list(out.glob("*.tmp"))


def test_output_files_take_the_umask_mode(tmp_path):
    # every file, config.json included, is created as open() creates one;
    # a command that exits 1 echoes its config too
    commands = [
        ["table", "--model", "toy", "--max-n", "8"],
        ["figure", "fig4"],
        ["check", "--model", "det-halving", "--alpha", "0.5", "--n-max", "60"],
        ["simulate", "--variant", "redraw-circular", "--n", "12", "--trials", "100"],
        ["periodicity", "--model", "toy", "--n-lo", "20", "--n-hi", "60"],
    ]
    umask = os.umask(0o022)
    try:
        codes = [main(argv + ["--out", str(tmp_path)]) for argv in commands]
    finally:
        os.umask(umask)
    assert codes == [0, 0, 1, 0, 0]
    files = sorted(tmp_path.rglob("*"))
    assert {p.parent.name for p in files if p.name == "config.json"} == {
        "table", "figure", "check", "simulate", "periodicity"}
    modes = {p.relative_to(tmp_path).as_posix(): oct(p.stat().st_mode & 0o777)
             for p in files if p.is_file()}
    assert len(modes) == 5 + 2 + 5 + 3 + 3  # table, figure, check, simulate, periodicity
    assert set(modes.values()) == {oct(0o644)}, modes


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


#: sha256 of each check CSV, and the RESULT line, of three check commands
_CHECK_OUTPUT = {
    ("--model", "fair-coin", "--n-max", "300"): (
        "model=fair-coin n_max=300 alpha=0.5 monotone=PASS increment=PASS "
        "concentration=PASS moment=PASS overall=PASS",
        {
            "concentration": "99005259755ada9cb670d4db8ef6a369a928d63e9f5e262576b2b5940d30116c",
            "mean_increments": "e9e1b8c5a0f4f4b46ec433409c2cb1b176fb6845e5958fc6552d6bf26fd85132",
            "moment_ratios": "be0b9685faa6917782fc27cd28ea820325d3ff34e455c9482d17cc664cff7be0",
            "monotone_violations":
                "20317b55695dbedaa668e8c76f5c1321312b49e7f9cee27cfe683d6ad4de9bd1",
        },
    ),
    ("--model", "det-halving"): (
        "model=det-halving n_max=200 alpha=0.5 monotone=PASS increment=FAIL "
        "concentration=PASS moment=PASS overall=FAIL",
        {
            "concentration": "a4cfb18e040380d31571d410310ab311c427dd1c1e309325889eb56e6f19baa3",
            "mean_increments": "e46fbd69663fe6fc79b8c8a4cfa6fdeeb21c35dd164bc4489c5784a52045ea00",
            "moment_ratios": "f6ab45b503884e3f8fe64aa4dcc2b66bb47006a983d7e72ca3181a1632448fa0",
            "monotone_violations":
                "20317b55695dbedaa668e8c76f5c1321312b49e7f9cee27cfe683d6ad4de9bd1",
        },
    ),
    ("--model", "biased-coin", "--p", "0.3", "--n-max", "50"): (
        "model=biased-coin(p=3/10) n_max=50 alpha=0.3 monotone=FAIL increment=FAIL "
        "concentration=FAIL moment=FAIL overall=FAIL",
        {
            "concentration": "a48d0f1f421aee87fa76cabda614433978a16eec013d037b13c9d63001b88a97",
            "mean_increments": "247734f21c715efbef44ff2cf49af76a9dd1387b9bc5ad7aef14497d23059d56",
            "moment_ratios": "3dde6480d8c111895437de69d1b1b9eeefd202a5dedc47c66829dfbe1ac949fc",
            "monotone_violations":
                "55a41be2b17731073593a211cc34a1b05c51c5d1f7bb61ba36ae309312349fe1",
        },
    ),
}


def test_check_output_bytes_are_pinned(tmp_path, capsys):
    for args, (summary, digests) in _CHECK_OUTPUT.items():
        out = tmp_path / args[1]
        code = main(["check", *args, "--out", str(out)])
        assert code == (0 if "overall=PASS" in summary else 1), args
        assert capsys.readouterr().out == f"RESULT check {summary}\n"
        for name, digest in digests.items():
            data = (out / "check" / f"{name}.csv").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, (args, name)


#: sha256 of ``survivor_pmf.csv`` from three table commands
_SURVIVOR_PMF_SHA256 = {
    ("--model", "fair-coin", "--max-n", "100", "--exact-cutoff", "100"):
        "75376521f91b4476fbcb936aa3473e4ca741ab4e0da95be234437c018b42c139",
    ("--model", "biased-coin", "--p", "3/10", "--max-n", "40"):
        "efb0f6c98558cef935ef141523f084c828ee88b5e934ec654fd5a4ee3e707657",
    ("--model", "peak-circular", "--max-n", "7"):
        "f3224dd45d34b87c116d3e4b6db20a3facd1b6650636f9efe49bfeadaacbfda3",
}


@pytest.mark.parametrize("args", _SURVIVOR_PMF_SHA256, ids=lambda args: args[1])
def test_survivor_pmf_bytes_are_pinned(args, tmp_path):
    assert main(["table", *args, "--out", str(tmp_path)]) == 0
    data = (tmp_path / "table" / "survivor_pmf.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _SURVIVOR_PMF_SHA256[args]


@pytest.mark.parametrize("record", [
    pytest.param("3,2", id="short-record"),
    pytest.param("3,2,1/0", id="zero-denominator"),
])
def test_malformed_matrix_exits_2(tmp_path, capsys, record):
    matrix = tmp_path / "short.csv"
    matrix.write_text(f"i,j,prob\n2,1,1\n{record}\n3,1,1/2\n")
    assert main(["check", "--model", "explicit", "--matrix", str(matrix),
                 "--alpha", "1/2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "short.csv:3: need i,j,prob" in err and err.count("\n") == 1


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
    assert main(["figure", "fig3", "--overlays", "--out", out]) == 0
    series = {row["series"] for row in _rows(tmp_path / "figure" / "fig3.csv")}
    assert "gauss_ref" in series
    assert main(["figure", "fig99", "--out", str(tmp_path / "unknown")]) == 2
    assert not (tmp_path / "unknown" / "figure" / "config.json").exists()


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
    assert refs and abs(float(refs[0]["point"]) - fixtures.C2_DECIMAL) < 1e-9


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
    # a redraw ring has no exhaustive reference
    assert main(["simulate", "--variant", "redraw-circular", "--estimate",
                 "conditional", "--trials", "100000", "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    stats = {row["stat"] for row in _rows(tmp_path / "simulate" / "summary.csv")}
    assert stats and "exhaustive-reference" not in stats


@pytest.mark.parametrize("variant", ["redraw-linear-i", "redraw-linear-ii"])
def test_simulate_conditional_rejects_linear_variants(tmp_path, capsys, variant):
    assert main(["simulate", "--variant", variant, "--estimate", "conditional",
                 "--trials", "200000", "--seed", "3", "--out", str(tmp_path)]) == 2
    assert "circular variant" in capsys.readouterr().err
    assert not (tmp_path / "simulate" / "summary.csv").exists()
    assert not (tmp_path / "simulate" / "config.json").exists()


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


@pytest.mark.parametrize("error, message", [
    (lambda count: MemoryError(f"Unable to allocate {8 * count} bytes"),
     "error: Unable to allocate 800000000000 bytes"),
    (lambda count: MemoryError(), "error: MemoryError"),
])
def test_simulate_out_of_memory_exits_2(tmp_path, monkeypatch, capsys, error, message):
    # a ring too large to draw keys for ends with a message, not a traceback;
    # the draw is replaced, so nothing is allocated for real
    def raw_keys(rng, count):
        raise error(count)

    monkeypatch.setattr(franklin, "_raw_keys", raw_keys)
    assert main(["simulate", "--variant", "redraw-circular", "--n", "100000000000",
                 "--trials", "1", "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_module_runs_the_command_line():
    env = {**os.environ, "PYTHONPATH": str(Path(electra.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "electra", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert "simulate" in done.stdout


def test_readme_library_sketch_runs():
    # the README's library sketch runs as written against the package's exports
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library sketch\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["table"].exact_prob(7, 2) == Fraction(43, 45)


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


def test_ratio_line_writes_integers_past_the_digit_limit(tmp_path):
    num, den = 3**20_000, 2**40_000  # coprime, 9,543 and 12,042 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = f"n,k,numerator,denominator\n7,5,{num},{den}\n"
    finally:
        sys.set_int_max_str_digits(limit)
    engine.write_ratios(tmp_path / "ratios.csv", "k", [(7, 5, *lowest_terms(4 * num, 4 * den))])
    assert (tmp_path / "ratios.csv").read_text() == want


@pytest.mark.parametrize("command", [
    ["table", "--model", "toy", "--max-n", "8"],
    ["periodicity", "--model", "toy", "--n-hi", "60"],
    ["check", "--model", "toy", "--n-max", "8"],
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


def test_periodicity_needs_an_alpha(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("i,j,prob\n2,1,1/2\n2,2,1/2\n")
    assert main(["periodicity", "--model", "explicit", "--matrix", str(matrix),
                 "--out", str(tmp_path)]) == 2
    assert "declares no alpha" in capsys.readouterr().err


@pytest.mark.parametrize("model, n_lo, n_hi, message", [
    pytest.param("toy", "0", "60", "--n-lo", id="below-one"),
    pytest.param("toy", "500", "100", "empty n range", id="above-n-hi"),
    pytest.param("fair-coin", "256", "300", "n_hi * alpha >= n_lo", id="under-a-period"),
    pytest.param("fair-coin", "5", "5", "n_hi * alpha >= n_lo", id="one-start"),
])
def test_periodicity_rejects_n_lo_below_one(tmp_path, capsys, model, n_lo, n_hi, message):
    assert main(["periodicity", "--model", model, "--n-lo", n_lo, "--n-hi", n_hi,
                 "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def _mostly(good, bad):
    """Valid values two draws in three, so most argv get past parsing."""
    return st.one_of(st.sampled_from(good), st.sampled_from(good), st.sampled_from(bad))


_FUZZ_VALUES = _mostly(["1/2", "0.3", "9/10", "1/3"], ["1/0", "0", "1", "2", "-3", "x"])
_FUZZ_SIZES = _mostly(["2", "5", "12"], ["-1", "0", "1"])
_FUZZ_MODELS = st.sampled_from(_MODEL_CHOICES)


_FUZZ_VARIANTS = ["true-persistent", "redraw-circular", "redraw-linear-i", "redraw-linear-ii"]


@st.composite
def _fuzz_matrix(draw):
    """A small ``--matrix`` CSV: rows P(i, (i+1)//2) = P(i, i) = 1/2 for
    states 2..top, perhaps under a header and with one flaw: a short
    record, a ``1/0`` or a probability of 2."""
    top = draw(st.sampled_from([2, 5, 12]))
    records = [[str(i), str(j), "1/2"] for i in range(2, top + 1) for j in ((i + 1) // 2, i)]
    at = draw(st.integers(0, len(records) - 1))
    flaw = draw(_mostly([None], ["short", "1/0", "2"]))
    if flaw == "short":
        records[at] = records[at][:2]
    elif flaw:
        records[at][2] = flaw
    header = ["i,j,prob"] if draw(st.booleans()) else []
    return "".join(f"{line}\n" for line in header + list(map(",".join, records)))


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
@given(argv=_fuzz_argv(), matrix=_fuzz_matrix())
def test_cli_fuzz_exits_0_1_or_2(tmp_path_factory, argv, matrix):
    # every argv either runs or is refused as a usage error; nothing escapes
    out = tmp_path_factory.mktemp("fuzz")
    if "explicit" in argv:
        (out / "matrix.csv").write_text(matrix)
        argv = argv + ["--matrix", str(out / "matrix.csv")]
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
        assert code == 2, argv
    assert code in (0, 1, 2), argv
    if "conditional" in argv and "redraw-linear" in argv[2]:
        assert code == 2, argv  # the conditional estimate is circular only
    if "--alpha" in argv:
        alpha = argv[argv.index("--alpha") + 1]
        if alpha in {"0", "1", "2", "-3"}:  # outside (0, 1)
            assert code == 2, argv
