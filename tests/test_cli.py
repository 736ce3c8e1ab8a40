import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaoslab import Method, evaluate_cell
from chaoslab.cli import (
    EXIT_CANTCREAT,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_WINDOW,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_anchor_text(self, capsys):
        code, out, err = run_cli(
            capsys, "classify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "3.61"
        )
        assert code == EXIT_OK
        assert "odd_cycle=true" in out
        assert "in_class_g=true" in out
        assert "agreement: true" in out

    def test_anchor_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "361/100",
            "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["params"]["lambda"] == 3.61
        assert doc["thresholds"]["lambda_g_low"] == 1.0
        assert doc["gate"]["in_class_g"] is True
        assert doc["closed_form"]["odd_cycle"] is True
        assert doc["numerical"]["odd_cycle"] is True
        assert doc["numerical"]["f2_of_m"] == pytest.approx(15.58, abs=1e-9)
        assert doc["agree"] is True

    def test_json_keys_and_their_order_are_pinned(self, capsys):
        # the report objects take their keys from the dataclasses' fields;
        # a field added there changes the output only once it is listed here
        _, out, _ = run_cli(
            capsys, "classify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "3.61", "--format", "json",
        )
        doc = json.loads(out)
        verdict = ["odd_cycle", "turbulent_second_iterate", "f2_of_m", "f3_of_m", "pi_max", "pi_min", "method"]
        assert {key: list(value) if isinstance(value, dict) else None for key, value in doc.items()} == {
            "tool": ["name", "version"],
            "params": ["alpha", "beta", "lambda"],
            "thresholds": ["lambda_g_low", "lambda_pi", "lambda_chaos", "lambda_max"],
            "in_window": None,
            "interval": ["a", "m", "b"],
            "gate": ["in_class_g", "cond_endpoints", "cond_below_diagonal", "cond_unimodal",
                     "cond_self_map", "margin"],
            "closed_form": verdict,
            "numerical": verdict,
            "agree": None,
        }
        assert list(doc) == ["tool", "params", "thresholds", "in_window", "interval", "gate",
                             "closed_form", "numerical", "agree"]
        assert doc["numerical"]["method"] == "numerical"

    def test_below_window_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "classify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "0.5"
        )
        assert code == EXIT_WINDOW
        assert "lambda_g_low = 1.0" in err

    def test_quiet_point_not_chaotic(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "2.0"
        )
        assert code == EXIT_OK
        assert "in_class_g=true" in out
        assert "odd_cycle=false" in out

    def test_boundary_lambda_chaos(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "25/9"
        )
        assert code == EXIT_OK
        closed = [ln for ln in out.splitlines() if ln.startswith("closed_form")][0]
        assert "odd_cycle=false" in closed
        assert "turbulent_second_iterate=true" in closed

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--alpha", "abc", "--beta", "0.5", "--lambda", "2"),
            ("classify", "--alpha", "1.5", "--beta", "0.5", "--lambda", "2"),
            ("classify", "--alpha", "0.75", "--beta", "0.5"),
            ("classify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "1/0"),
            ("classify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "-2"),
        ],
    )
    def test_malformed_arguments_exit_64(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE

    def test_method_selection(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "3.61",
            "--method", "closed_form",
        )
        assert code == EXIT_OK
        assert "closed_form:" in out
        assert "numerical:" not in out


class TestOrbit:
    def test_anchor_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--alpha", "0.75", "--beta", "0.5", "--lambda", "3.61",
            "--p0", "1.9", "--steps", "3",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "# chaoslab 0.1.0"
        assert "# escaped=false" in lines
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "t,p"
        rows = [ln.split(",") for ln in data[1:]]
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        values = [float(r[1]) for r in rows]
        assert values[0] == pytest.approx(1.9, abs=1e-12)
        assert values[1] == pytest.approx(0.19, abs=1e-12)
        assert values[2] == pytest.approx(15.58, abs=1e-12)
        assert values[3] == pytest.approx(12.201707317073171, abs=1e-9)

    def test_fixed_point_constant_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--alpha", "0.75", "--beta", "0.5", "--lambda", "3.61",
            "--p0", "1.0", "--steps", "5",
        )
        data = [ln for ln in out.splitlines() if not ln.startswith("#")][1:]
        assert [float(ln.split(",")[1]) for ln in data] == [1.0] * 6

    def test_escape_flagged_in_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--alpha", "0.75", "--beta", "0.5", "--lambda", "5.0",
            "--p0", "1.9", "--steps", "10",
        )
        assert code == EXIT_OK
        assert "# escaped=true" in out.splitlines()

    def test_bad_p0_exits_64(self, capsys):
        code, _, _ = run_cli(
            capsys, "orbit", "--alpha", "0.75", "--beta", "0.5", "--lambda", "3.61",
            "--p0", "-1", "--steps", "3",
        )
        assert code == EXIT_USAGE

    def test_unwritable_out_exits_73(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "orbit", "--alpha", "0.75", "--beta", "0.5", "--lambda", "3.61",
            "--p0", "1.9", "--steps", "3", "--out", str(tmp_path / "no_such_dir" / "orbit.csv"),
        )
        assert code == EXIT_CANTCREAT
        assert "cannot write output" in err


class TestCertify:
    def test_anchor_certificates(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "3.61",
            "--max-period", "15",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["odd_cycle"] is not None
        assert doc["odd_cycle"]["period"] % 2 == 1
        assert doc["odd_cycle"]["residual"] <= 1e-10
        assert doc["turbulence_witness"] is not None
        assert max(doc["turbulence_witness"]["residuals"]) <= 1e-10
        assert doc["search"]["max_period"] == 15
        assert list(doc["interval"]) == ["a", "m", "b"]
        assert list(doc["odd_cycle"]) == list(doc["period3"]) == ["period", "points", "residual"]
        assert list(doc["turbulence_witness"]) == ["x1", "x2", "x3", "residuals"]

    def test_small_beta_certificates(self, capsys):
        # mu = 3.61 with z = 2e-12: the searches run on the normal form, so the
        # certificates are those of the anchor scaled by z, with the anchor's residuals
        certs = []
        for beta, lam in (("0.5", "3.61"), ("1e-12", "7.22e-12")):
            code, out, _ = run_cli(capsys, "certify", "--alpha", "0.75", "--beta", beta, "--lambda", lam)
            assert code == EXIT_OK
            certs.append(json.loads(out))
        anchor, small = certs
        assert small["odd_cycle"]["period"] == small["period3"]["period"] == 3
        assert small["odd_cycle"]["points"] == pytest.approx(
            [2e-12 * x for x in anchor["odd_cycle"]["points"]], rel=1e-12)
        assert small["odd_cycle"]["residual"] <= 1e-10
        w = small["turbulence_witness"]
        assert [w[k] for k in ("x1", "x2", "x3")] == pytest.approx(
            [2e-12 * anchor["turbulence_witness"][k] for k in ("x1", "x2", "x3")], rel=1e-12)
        assert max(w["residuals"]) <= 1e-10

    def test_quiet_point_empty_with_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "2.0",
            "--max-period", "15",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["odd_cycle"] is None
        assert doc["turbulence_witness"] is None
        assert doc["period3"] is None
        assert doc["search"]["max_period"] == 15
        assert doc["search"]["grid_base"] == 8192

    def test_outside_window_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "certify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "0.5"
        )
        assert code == EXIT_WINDOW

    def test_eps_cmp_is_not_accepted(self, capsys):
        # certify compares no thresholds, so the flag would have no effect
        code, out, err = run_cli(
            capsys, "certify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "3.61",
            "--eps-cmp", "0.5",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--eps-cmp" in err

    def test_unwritable_out_exits_73(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "certify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "3.61",
            "--max-period", "3", "--out", str(tmp_path / "no_such_dir" / "cert.json"),
        )
        assert code == EXIT_CANTCREAT
        assert "cannot write output" in err


POINT = ("--alpha", "0.75", "--beta", "0.5", "--lambda", "3.61")
SWEEP_CELL = (
    "--alpha-lo", "0.75", "--alpha-hi", "0.75", "--alpha-count", "1",
    "--beta-lo", "0.5", "--beta-hi", "0.5", "--beta-count", "1", "--lambda-count", "1",
)
SMALL_VERIFY = ("--alpha-count", "3", "--beta-count", "3", "--lambda-count", "4", "--triples", "10")


@pytest.mark.parametrize(
    "argv, reason",
    [
        # classify and sweep have no scan to size
        (("classify", *POINT), "unrecognized arguments"),
        (("sweep", *SWEEP_CELL), "unrecognized arguments"),
        (("certify", *POINT), "must be >= 2"),
        (("verify", *SMALL_VERIFY), "must be >= 2"),
    ],
    ids=["classify", "sweep", "certify", "verify"],
)
@pytest.mark.parametrize("density", ["1", "0"])
def test_grid_density_below_two_exits_64(capsys, argv, reason, density):
    # at density 1 the period-1 orbit scan is a single point and brackets nothing
    code, out, err = run_cli(capsys, *argv, "--grid-density", density)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--grid-density" in err and reason in err


def test_grid_density_two_passes_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", *SMALL_VERIFY, "--grid-density", "2")
    assert code == EXIT_OK
    assert "verdict: PASS" in out


@pytest.mark.parametrize("argv", [
    # one ulp above lambda_g_low, mu rounds to 1, so a = m: the interval degenerates
    ("classify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "1.0000000000000002"),
    ("certify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "1.0000000000000002"),
    # the four thresholds round out of order
    ("classify", "--alpha", "0.5", "--beta", "5e-324", "--lambda", "9e-324"),
], ids=["classify", "certify", "thresholds"])
def test_parameters_below_double_resolution_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_WINDOW
    assert out == ""
    assert err.startswith("parameters below double resolution: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "certify"])
def test_tiny_beta_gets_a_verdict(capsys, command):
    # 2*lam*beta underflows to 0 at mu = 3.6; the normal form never forms it
    argv = [command, "--alpha", "0.5", "--beta", "1e-200", "--lambda", "1.8e-200"]
    code, out, err = run_cli(capsys, *argv, *(["--format", "json"] if command == "classify" else []))
    assert code == EXIT_OK and "Traceback" not in err
    doc = json.loads(out)
    if command == "classify":
        assert doc["numerical"]["odd_cycle"] is True
    else:
        assert doc["odd_cycle"]["period"] % 2 == 1 and doc["turbulence_witness"] is not None


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(beta=_log_uniform(1e-300, 1.0).filter(lambda b: b < 1.0),
       gap=_log_uniform(1e-9, 0.95), mu=st.floats(1.0, 4.0))
def test_classify_gives_a_verdict_or_exit_2_over_the_legal_domain(beta, gap, mu):
    # Only the numerical verdict is checked.  The closed form compares lam with
    # the raw thresholds and an absolute EPS_CMP, so it is wrong below about
    # beta = 1e-12, and bench/test_oracle.py pins that wrong verdict; it joins
    # this property once that pinned test is mended.
    alpha = 1.0 - gap
    lam = mu * beta / (8.0 * (1.0 - alpha) ** 2)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", "--alpha", repr(alpha), "--beta", repr(beta),
                     "--lambda", repr(lam), "--format", "json"])
    assert code in (EXIT_OK, EXIT_WINDOW)
    assert "Traceback" not in err.getvalue()
    exact = 8 * Fraction(lam) * (1 - Fraction(alpha)) ** 2 / Fraction(beta)
    if code == EXIT_OK and abs(exact - Fraction(25, 9)) > Fraction(1, 10**6):
        assert json.loads(out.getvalue())["numerical"]["odd_cycle"] is (Fraction(25, 9) < exact < 4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(beta=_log_uniform(1e-300, 1.0).filter(lambda b: b < 1.0),
       gap=_log_uniform(1e-9, 0.95), mu=st.floats(1.0, 4.0))
# m - a is subnormal at the raw prices here, and (m - a)**2/a underflowed to 0
@example(beta=1.2676254552298135e-299, gap=0.03607737031143865, mu=1.0000000000000004)
def test_one_cell_sweep_matches_classify_over_the_legal_domain(beta, gap, mu):
    # the row's verdict columns are blank exactly where classify exits 2, and
    # elsewhere its gate flag and both verdicts are those of the one-point routes
    alpha = 1.0 - gap
    lam = mu * beta / (8.0 * (1.0 - alpha) ** 2)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", "--alpha", repr(alpha), "--beta", repr(beta),
                     "--lambda", repr(lam), "--format", "json"])
    row = evaluate_cell(alpha, beta, lam, (Method.CLOSED_FORM, Method.NUMERICAL))
    verdicts = (row.odd_cycle_cf, row.turbulent_cf, row.odd_cycle_num, row.turbulent_num)
    assert code in (EXIT_OK, EXIT_WINDOW)
    assert (code == EXIT_WINDOW) == all(v is None for v in verdicts)
    if code == EXIT_OK:
        doc = json.loads(out.getvalue())
        assert doc["gate"]["in_class_g"] is True
        assert row.in_class_g is True
        assert verdicts == tuple(
            doc[route][field] for route in ("closed_form", "numerical")
            for field in ("odd_cycle", "turbulent_second_iterate")
        )


class TestSweep:
    def test_single_cell_matches_classify(self, capsys, tmp_path):
        out_path = tmp_path / "row.csv"
        code, _, _ = run_cli(
            capsys, "sweep",
            "--alpha-lo", "0.75", "--alpha-hi", "0.75", "--alpha-count", "1",
            "--beta-lo", "0.5", "--beta-hi", "0.5", "--beta-count", "1",
            "--lambda-mode", "absolute", "--lambda-lo", "3.61", "--lambda-hi", "3.61",
            "--lambda-count", "1", "--out", str(out_path),
        )
        assert code == EXIT_OK
        lines = [ln for ln in out_path.read_text().splitlines() if not ln.startswith("#")]
        header, row = lines[0].split(","), lines[1].split(",")
        cells = dict(zip(header, row))
        assert cells["odd_cycle_cf"] == "true"
        assert cells["odd_cycle_num"] == "true"
        assert cells["agree"] == "true"
        assert float(cells["f2_of_m"]) == pytest.approx(15.58, abs=1e-9)

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep",
            "--alpha-lo", "0.7", "--alpha-hi", "0.8", "--alpha-count", "2",
            "--beta-lo", "0.5", "--beta-hi", "0.5", "--beta-count", "1",
            "--lambda-count", "3",
        )
        assert code == EXIT_OK
        assert out.startswith("# chaoslab")
        data = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        assert len(data) == 1 + 2 * 1 * 3

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "alpha_lo": 0.7, "alpha_hi": 0.8, "alpha_count": 2,
            "beta_lo": 0.5, "beta_hi": 0.5, "beta_count": 1,
            "lambda_mode": "window", "lambda_count": 2,
            "format": "json",
        }))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(config), "--lambda-count", "4")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["rows"]) == 2 * 1 * 4  # flag overrode the file's count

    def test_unknown_config_key_exits_64(self, capsys, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"gamma_lo": 0.1}))
        code, _, _ = run_cli(capsys, "sweep", "--config", str(config), "--lambda-count", "2")
        assert code == EXIT_USAGE

    def test_missing_ranges_exit_64(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--lambda-count", "3")
        assert code == EXIT_USAGE
        assert "alpha-lo" in err

    def test_unwritable_out_exits_73(self, capsys, tmp_path):
        target = tmp_path / "no_such_dir" / "rows.csv"
        code, _, _ = run_cli(
            capsys, "sweep",
            "--alpha-lo", "0.75", "--alpha-hi", "0.75", "--alpha-count", "1",
            "--beta-lo", "0.5", "--beta-hi", "0.5", "--beta-count", "1",
            "--lambda-count", "1", "--out", str(target),
        )
        assert code == EXIT_CANTCREAT

    def test_grid_density_recorded_in_metadata(self, capsys):
        # a sweep has no scan that --grid-density could size: the flag is refused,
        # and the metadata records the settings that do shape the rows
        code, out, err = run_cli(capsys, "sweep", *SWEEP_CELL, "--grid-density", "64")
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --grid-density 64" in err
        code, out, _ = run_cli(capsys, "sweep", *SWEEP_CELL, "--eps-root", "1e-11")
        assert code == EXIT_OK
        meta = [ln for ln in out.splitlines() if ln.startswith("#")]
        assert meta[-1] == "# eps_cmp=1e-12 eps_root=1e-11"

    def test_jobs_env_default(self, capsys, monkeypatch):
        # sweeps run in one process and CHAOSLAB_JOBS is not read, whatever it holds
        monkeypatch.setenv("CHAOSLAB_JOBS", "many")
        code, out, _ = run_cli(
            capsys, "sweep",
            "--alpha-lo", "0.7", "--alpha-hi", "0.8", "--alpha-count", "2",
            "--beta-lo", "0.5", "--beta-hi", "0.5", "--beta-count", "1",
            "--lambda-count", "2",
        )
        assert code == EXIT_OK
        data = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        assert len(data) == 1 + 4

    def test_bad_jobs_env_exits_64(self, capsys, monkeypatch, tmp_path):
        # a jobs setting is now a usage error as a flag or a config key; the variable is not
        # read, so the error names the flag, not CHAOSLAB_JOBS (test_jobs_env_default)
        monkeypatch.setenv("CHAOSLAB_JOBS", "many")
        code, out, err = run_cli(capsys, "sweep", *SWEEP_CELL, "--jobs", "2")
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --jobs 2" in err
        assert "CHAOSLAB_JOBS" not in err
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"jobs": 1}))
        code, out, err = run_cli(capsys, "sweep", *SWEEP_CELL, "--config", str(config))
        assert code == EXIT_USAGE and out == ""
        assert "unknown config key: 'jobs'" in err


class TestVerify:
    def test_small_grid_passes_and_reports_discrepancy(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--alpha-count", "4", "--beta-count", "4",
            "--lambda-count", "6", "--triples", "10",
        )
        assert code == EXIT_OK
        assert "verdict: PASS" in out
        note = [ln for ln in out.splitlines() if "second-iterate sign rule" in ln][0]
        assert "rule predicts f2(m) - m < 0" in note
        assert "13.68" in note
        assert "[INFO]" in note  # informational, never a failure

    def test_byte_identical_reports(self, capsys):
        args = ["verify", "--alpha-count", "3", "--beta-count", "3",
                "--lambda-count", "4", "--triples", "5"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert (code1, code2) == (EXIT_OK, EXIT_OK)
        assert out1 == out2


class TestTopLevel:
    def test_no_command_exits_64(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_unknown_command_exits_64(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_console_script_installed(self, tmp_path, src_env):
        proc = subprocess.run(
            [sys.executable, "-m", "chaoslab.cli"],
            cwd=tmp_path, env=src_env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_USAGE


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
CLASSIFY_ANCHOR = ["classify", "--alpha", "0.75", "--beta", "0.5", "--lambda", "3.61"]


def test_console_entry_point_subprocess(tmp_path, src_env):
    """The ``[project.scripts]`` target runs the CLI and exits with its code.

    The child does what the installer-generated ``chaoslab`` shim does:
    set ``sys.argv``, import the declared object and call it.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["chaoslab"]
    module, attr = target.split(":")
    shim = (
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.argv = {['chaoslab', *CLASSIFY_ANCHOR]!r}\n"
        f"sys.exit({attr}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", shim],
        cwd=tmp_path, env=src_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "odd_cycle=true" in proc.stdout


@pytest.mark.skipif(
    shutil.which("chaoslab") is None, reason="chaoslab console script not installed"
)
def test_installed_console_script_on_path(tmp_path):
    proc = subprocess.run(
        ["chaoslab", *CLASSIFY_ANCHOR],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "odd_cycle=true" in proc.stdout
