"""Config validation and the command-line surface, including determinism."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fluxline.cli import main
from fluxline.config import ConfigError, load_config
from fluxline.specfun import ConvergenceError
from fluxline.transmon import levels

from conftest import EXAMPLE_CONFIG, FIXTURES, REPO


def run_cli(*argv) -> int:
    return main(list(argv))


class TestConfig:
    def test_example_config_loads(self):
        cfg = load_config(EXAMPLE_CONFIG)
        assert [q.name for q in cfg.qubits] == ["q0", "q1", "q2", "q3"]
        assert cfg.qubit("q0").params.e_j_sum == 11180.0
        assert cfg.qubit("q0").f_r_mhz == 7029.0
        assert set(cfg.chains) == {"xy", "z"}
        assert cfg.diplexer.lp_order == 5

    def test_unknown_qubit_named_in_error(self):
        cfg = load_config(EXAMPLE_CONFIG)
        with pytest.raises(ConfigError, match="q9"):
            cfg.qubit("q9")

    @pytest.mark.parametrize(
        "mutate,field",
        [
            (lambda d: d["qubits"][0].pop("e_c_mhz"), "e_c_mhz"),
            (lambda d: d["qubits"][1].update(e_j1_mhz=-5.0), "e_j1_mhz"),
            (lambda d: d["qubits"][0].update(m_fH=0.0), "m_fH"),
            (lambda d: d["qubits"].append(dict(d["qubits"][0])), "duplicate"),
            (lambda d: d["chains"]["xy"]["segments"][0].update(db=-1), "db"),
            (lambda d: d["chains"]["xy"].update(segments=[]), "segments"),
            (lambda d: d["diplexer"].update(lp_order=0), "lp_order"),
            (lambda d: d["diplexer"].update(bp_low_mhz=1000.0), "low-pass"),
        ],
    )
    def test_violations_are_field_precise(self, tmp_path, mutate, field):
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=field):
            load_config(path)

    @pytest.mark.parametrize("mutate,field", [
        (lambda c: c["segments"][0].update(db=float("nan")), "segments[0].db"),
        (lambda c: c["segments"][1].update(db=float("inf")), "segments[1].db"),
        (lambda c: c.update(reference_frequency_mhz=float("nan")), "reference_frequency_mhz"),
    ])
    def test_nonfinite_chain_values_rejected(self, tmp_path, mutate, field):
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        mutate(doc["chains"]["xy"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity tokens
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value).startswith(f"config.chains['xy'].{field}: must be")
        assert "finite" in str(info.value)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")


class TestConfigFieldErrors:
    """Every bad value of a config field: exit 2 and one error line that
    names the field once (the CLI catches ConfigError, so an exception of
    any other type would leave main as a traceback)."""

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d["diplexer"].update(isolation_db=None), "config.diplexer.isolation_db"),
        (lambda d: d["diplexer"].update(isolation_db="nan"), "config.diplexer.isolation_db"),
        (lambda d: d["diplexer"].update(isolation_db=True), "config.diplexer.isolation_db"),
        (lambda d: d["diplexer"].update(z0=float("inf")), "config.diplexer.z0"),
        (lambda d: d["diplexer"].update(lp_cutoff_mhz=-1), "config.diplexer.lp_cutoff_mhz"),
        (lambda d: d["qubits"][0].update(e_c_mhz=float("inf")), "config.qubits[0].e_c_mhz"),
        (lambda d: d["qubits"][0].update(e_c_mhz=-1), "config.qubits[0].e_c_mhz"),
        (lambda d: d["qubits"][0].update(f_r_mhz=float("nan")), "config.qubits[0].f_r_mhz"),
        (lambda d: d["chains"]["xy"]["segments"][0].update(db=True), "config.chains['xy'].segments[0].db"),
        (lambda d: d["chains"]["xy"]["segments"].__setitem__(0, "4K plate"), "config.chains['xy'].segments[0]"),
        (lambda d: d.update(chains=[]), "config.chains"),
    ], ids=["isolation-null", "isolation-string", "isolation-bool", "z0-inf", "lp-cutoff-negative",
            "e-c-inf", "e-c-negative", "f-r-nan", "db-bool", "segment-string", "chains-array"])
    def test_exits_2_naming_the_field_once(self, tmp_path, capsys, mutate, field):
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity tokens
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("diplexer", str(path), "--points", "3", "--out", str(tmp_path / "d.csv"))
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"error: {field}: ") and err.count("\n") == 1
        assert err.count("config.") == 1
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "d.csv").exists()


class TestSpectrumCommand:
    def test_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = run_cli(
            "spectrum", str(EXAMPLE_CONFIG), "--qubit", "q0", "--points", "3",
            "--phi-min", "0", "--phi-max", "0.5", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "phi,f01_asymptotic_mhz,f01_diag_mhz,anharmonicity_mhz"
        assert len(lines) == 4
        summary = capsys.readouterr().out
        assert "f_max" in summary and "3843" in summary

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "one.csv"
        code = run_cli(
            "spectrum", str(EXAMPLE_CONFIG), "--qubit", "q0", "--points", "1",
            "--phi-min", "0", "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_unknown_qubit_exits_2(self):
        assert run_cli("spectrum", str(EXAMPLE_CONFIG), "--qubit", "q9") == 2

    def test_env_var_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLUXLINE_CONFIG", str(EXAMPLE_CONFIG))
        out = tmp_path / "env.csv"
        assert run_cli("spectrum", "--qubit", "q1", "--points", "2", "--out", str(out)) == 0

    def test_no_config_exits_2(self, monkeypatch, capsys):
        monkeypatch.delenv("FLUXLINE_CONFIG", raising=False)
        assert run_cli("spectrum", "--qubit", "q0") == 2
        assert "FLUXLINE_CONFIG" in capsys.readouterr().err

    def test_json_summary(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run_cli(
            "--json", "spectrum", str(EXAMPLE_CONFIG), "--qubit", "q0",
            "--points", "2", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["qubit"] == "q0"
        assert doc["f_max_mhz"] == pytest.approx(3843.23, abs=0.01)

    def test_nan_mathieu_value_is_not_printed(self, tmp_path, capsys):
        # q = 667.25855 at phi = 0, where scipy's mathieu_a(0, q) is NaN
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["qubits"][0].update(e_c_mhz=200.0, e_j1_mhz=133451.71, e_j2_mhz=133451.71)
        config = tmp_path / "big.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "spec.csv"
        code = run_cli(
            "spectrum", str(config), "--qubit", "q0", "--points", "5",
            "--phi-min=-0.2", "--phi-max", "0", "--out", str(out),
        )
        assert code == 0
        text = out.read_text()
        assert "nan" not in text and text.splitlines()[-1].startswith("0,")
        assert "nan" not in capsys.readouterr().out

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_no_points_exits_2(self, capsys, points):
        code = run_cli("spectrum", str(EXAMPLE_CONFIG), "--qubit", "q0", "--points", points)
        assert code == 2
        assert capsys.readouterr() == ("", f"error: --points must be >= 1, got {points}\n")

    def test_nonfinite_flux_exits_2(self, capsys):
        code = run_cli("spectrum", str(EXAMPLE_CONFIG), "--qubit", "q0", "--phi-min", "nan")
        assert code == 2
        assert capsys.readouterr() == ("", "error: flux must be finite, got phi = nan\n")

    @pytest.mark.parametrize("option,value", [
        ("--phi-max", "inf"), ("--phi-min", "-inf"), ("--phi-max", "nan"),
    ])
    def test_nonfinite_end_point_exits_2_with_one_line(self, tmp_path, option, value):
        # a subprocess, so numpy warnings on stderr would show
        out = tmp_path / "spec.csv"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "fluxline.cli", "spectrum", str(EXAMPLE_CONFIG), "--qubit", "q0",
             "--points", "2", f"{option}={value}", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: flux must be finite, got phi = {value}\n"
        assert not out.exists()


class TestModulateCommand:
    def test_zero_drive_row_and_bounds(self, tmp_path, capsys):
        out = tmp_path / "mod.csv"
        code = run_cli(
            "modulate", str(EXAMPLE_CONFIG), "--qubit", "q0", "--points", "3",
            "--amp-min", "0", "--amp-max", "0.2", "--with-oracle",
            "--oracle-steps", "256", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "phi_ac", "f_avg_series_mhz", "f_avg_oracle_mhz",
            "shift_series_hz", "shift_2nd_order_hz",
        ]
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        # zero-amplitude row reproduces the static frequency, zero shift
        assert rows[0][0] == 0.0
        assert rows[0][3] == 0.0
        f_min, f_max = 2975.167, 3843.230
        for row in rows:
            assert f_min - 1e-6 <= row[2] <= f_max + 1e-6

    def test_crosstalk_scale_shift_column(self, tmp_path):
        out = tmp_path / "mod.csv"
        run_cli(
            "modulate", str(EXAMPLE_CONFIG), "--qubit", "q0", "--points", "2",
            "--amp-min", "0", "--amp-max", "1.6e-4", "--out", str(out),
        )
        last = out.read_text().splitlines()[-1].split(",")
        assert float(last[2]) == pytest.approx(-79.0, abs=2.0)  # series shift
        assert float(last[3]) == pytest.approx(-79.0, abs=2.0)  # quadratic model

    def test_symmetric_squid_hints_at_oracle(self, tmp_path, capsys):
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["qubits"].append(
            {"name": "sym", "e_c_mhz": 180, "e_j1_mhz": 5000, "e_j2_mhz": 5000}
        )
        cfg = tmp_path / "sym.json"
        cfg.write_text(json.dumps(doc))
        code = run_cli(
            "modulate", str(cfg), "--qubit", "sym", "--points", "2",
            "--out", str(tmp_path / "m.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "symmetric" in err and "oracle" in err


    def test_near_symmetric_squid_exits_0_with_finite_series(self, tmp_path):
        # E_J1/E_J2 = 0.99: the cold series takes an 8192-sample rfft of
        # the xi-series and the command completes
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["qubits"][0].update(e_j1_mhz=5600, e_j2_mhz=5656)
        cfg = tmp_path / "near_sym.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "m.csv"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "fluxline.cli", "modulate", str(cfg), "--qubit", "q0",
             "--amp-max", "0.1", "--points", "3", "--with-oracle", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        rows = np.array([ln.split(",") for ln in out.read_text().splitlines()[1:]], dtype=float)
        assert rows.shape == (3, 5) and np.isfinite(rows).all()
        # the 0.5%-of-span budget holds at phi_ac = 0.1 (0.47%); below it
        # the eight-harmonic truncation of the series, not its coefficients, misses
        # it (7.7% at phi_ac = 0, 1.0% at 0.05; see CHANGES.md)
        params = load_config(cfg).qubit("q0").params
        f_max, f_min = levels(params, np.array([0.0, 0.5]))[0]
        assert rows[2, 0] == 0.1
        assert abs(rows[2, 1] - rows[2, 2]) <= 0.005 * (f_max - f_min)

    @pytest.mark.parametrize("option,value,message", [
        ("--phi-dc", "nan", "phi_dc must be finite, got nan"),
        ("--amp-max", "inf", "phi_ac must be finite, got inf"),
        ("--points", "0", "--points must be >= 1, got 0"),
    ])
    def test_bad_drive_exits_2_with_one_line(self, tmp_path, option, value, message):
        # a subprocess, so numpy warnings on stderr would show
        out = tmp_path / "m.csv"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "fluxline.cli", "modulate", str(EXAMPLE_CONFIG), "--qubit", "q0",
             "--points", "3", option, value, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("json_flag,option,value,message", [
        ([], "--amp-max", "1e308", "phi_ac must keep 2 pi n phi_ac finite for n <= 8, got 1e+308"),
        (["--json"], "--phi-dc", "1e308", "phi_dc must keep 2 pi n phi_dc finite for n <= 8, got 1e+308"),
        ([], "--amp-max", "1e200", "phi_ac must keep the second-order shift finite, got 1e+200"),
    ], ids=["amp-max", "phi-dc", "shift"])
    def test_overflowing_drive_exits_2_with_one_line(self, tmp_path, json_flag, option, value, message):
        # finite inputs whose harmonic phases or quadratic shift overflow
        # once gave nan/inf cells with exit 0; a subprocess, so numpy
        # warnings on stderr would show
        out = tmp_path / "m.csv"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "fluxline.cli", *json_flag, "modulate", str(EXAMPLE_CONFIG),
             "--qubit", "q0", "--points", "2", option, value, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["modulate"], ["fit", "beta", str(FIXTURES / "beta_q0.csv")]],
                             ids=["modulate", "fit-beta"])
    def test_squid_past_the_series_cap_exits_3(self, tmp_path, capsys, command):
        # E_J1/E_J2 = 0.9999 needs more flux samples than the series takes
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["qubits"][0].update(e_j1_mhz=9999, e_j2_mhz=10000)
        cfg = tmp_path / "past_cap.json"
        cfg.write_text(json.dumps(doc))
        code = run_cli(*command, str(cfg), "--qubit", "q0")
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            "error: harmonic series of E_J1/E_J2 = 0.9999 needs more than 262144 flux samples; "
            "use time_average_oracle instead\n"
        )

    def test_series_convergence_error_exits_3(self, monkeypatch, capsys):
        def not_converged(*args):
            raise ConvergenceError("hyp2f1(1.125, 0.625; 1.0; 0.9999) not converged after 5 terms")

        monkeypatch.setattr("fluxline.modulation.avg_frequency", not_converged)
        code = run_cli("modulate", str(EXAMPLE_CONFIG), "--qubit", "q0", "--points", "2")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCrosstalkCommand:
    def test_report_values(self, capsys):
        code = run_cli(
            "crosstalk", str(EXAMPLE_CONFIG), "--qubit", "q0",
            "--gamma-db", "85", "--v-p", "0.3",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phi_ac"] == pytest.approx(1.6e-4, rel=0.03)
        assert doc["delta_f_hz"] == pytest.approx(-79.0, abs=4.0)
        assert doc["detectable"] is False

    def test_zero_drive(self, capsys):
        code = run_cli(
            "crosstalk", str(EXAMPLE_CONFIG), "--qubit", "q0",
            "--gamma-db", "85", "--v-p", "0",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta_f_hz"] == 0.0

    def test_negative_gamma_exits_2(self, capsys):
        code = run_cli(
            "crosstalk", str(EXAMPLE_CONFIG), "--qubit", "q0",
            "--gamma-db", "-5", "--v-p", "0.3",
        )
        assert code == 2

    @pytest.mark.parametrize("flag,value,message", [
        ("--gamma-db", "nan", "gamma_db must be finite"),
        ("--gamma-db", "inf", "gamma_db must be finite"),
        ("--v-p", "nan", "v_p must be finite"),
        ("--v-p", "-0.3", "v_p must be >= 0, got -0.3"),
        ("--r-ohm", "nan", "r_ohm must be finite"),
        ("--linewidth-hz", "-5", "linewidth_hz must be finite and > 0"),
        ("--linewidth-hz", "0", "linewidth_hz must be finite and > 0"),
        ("--linewidth-hz", "nan", "linewidth_hz must be finite and > 0"),
    ])
    def test_nonfinite_or_bad_linewidth_exits_2(self, capsys, flag, value, message):
        # a repeated flag takes its last value
        code = run_cli("crosstalk", str(EXAMPLE_CONFIG), "--qubit", "q0",
                       "--gamma-db", "85", "--v-p", "0.3", flag, value)
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1


class TestDiplexerCommand:
    def test_default_design_passes(self, tmp_path):
        out = tmp_path / "resp.csv"
        rep = tmp_path / "report.json"
        code = run_cli(
            "diplexer", str(EXAMPLE_CONFIG), "--points", "600",
            "--out", str(out), "--report-out", str(rep),
        )
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["passed"] is True
        header = out.read_text().splitlines()[0]
        assert header == "frequency_mhz,s31_db,s32_db,s12_db"

    def test_report_is_strict_json(self, tmp_path):
        # two grid points find no band-edge crossing: check_spec reports NaN
        # and -inf, which the report writes as null
        rep = tmp_path / "report.json"
        code = run_cli(
            "diplexer", str(EXAMPLE_CONFIG), "--points", "2",
            "--out", str(tmp_path / "r.csv"), "--report-out", str(rep),
        )
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(rep.read_text(), parse_constant=reject)
        assert any(v is None for item in doc["items"] for v in item.values())

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_no_points_exits_2(self, capsys, points):
        # named as spectrum and modulate name it, not by numpy's logspace
        code = run_cli("diplexer", str(EXAMPLE_CONFIG), "--points", points)
        assert code == 2
        assert capsys.readouterr() == ("", f"error: --points must be >= 1, got {points}\n")

    def test_failed_spec_check_writes_nothing(self, tmp_path, capsys):
        # one point is too few for the spec check: exit 2 before any CSV row
        out = tmp_path / "r.csv"
        assert run_cli("diplexer", str(EXAMPLE_CONFIG), "--points", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too small" in captured.err
        assert run_cli("diplexer", str(EXAMPLE_CONFIG), "--points", "1", "--out", str(out)) == 2
        assert not out.exists()

    def test_first_order_fails_but_exits_0(self, tmp_path):
        cfgdoc = json.loads(EXAMPLE_CONFIG.read_text())
        cfgdoc["diplexer"]["lp_order"] = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfgdoc))
        rep = tmp_path / "report.json"
        code = run_cli(
            "diplexer", str(cfg), "--points", "600",
            "--out", str(tmp_path / "r.csv"), "--report-out", str(rep),
        )
        assert code == 0  # a failed spec check is analysis, not an error
        doc = json.loads(rep.read_text())
        assert doc["passed"] is False
        failed = {i["name"] for i in doc["items"] if not i["passed"]}
        assert "isolation" in failed

    def test_isolation_limit_below_the_grid_exits_2(self, tmp_path, capsys):
        cfgdoc = json.loads(EXAMPLE_CONFIG.read_text())
        cfgdoc["diplexer"]["isolation_max_freq_mhz"] = 5
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfgdoc))
        assert run_cli("diplexer", str(cfg), "--report-out", "-") == 2
        assert capsys.readouterr() == (
            "", "error: isolation limit 5.0 MHz lies below the frequency grid's start 10 MHz\n"
        )

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run_cli("diplexer", str(cfg)) == 2


class TestFitCommand:
    def test_rb_fixture(self, tmp_path, capsys):
        code = run_cli("fit", "rb", str(FIXTURES / "rb_decay.csv"))
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert doc["params"]["fidelity"] == pytest.approx(0.9977, abs=5e-4)

    def test_t1_fixture(self, capsys):
        code = run_cli("fit", "t1", str(FIXTURES / "t1_53us.csv"))
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["T1"] == pytest.approx(53.0, rel=0.01)

    def test_ramsey_fixture(self, capsys):
        code = run_cli("fit", "ramsey", str(FIXTURES / "ramsey_10us.csv"))
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["T2_star"] == pytest.approx(10.0, rel=0.02)
        assert doc["params"]["delta_f"] == pytest.approx(0.5, rel=0.02)

    def test_beta_fixture(self, capsys):
        code = run_cli(
            "fit", "beta", str(FIXTURES / "beta_q0.csv"), str(EXAMPLE_CONFIG),
            "--qubit", "q0",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["beta"] == pytest.approx(0.510, rel=0.01)

    def test_tuning_fixture_extrema(self, capsys):
        code = run_cli(
            "fit", "tuning", str(FIXTURES / "tuning_q0.csv"), "--fixed-ec", "182"
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["e_j1"] == pytest.approx(2140.0, rel=0.05)
        assert doc["params"]["e_j2"] == pytest.approx(9040.0, rel=0.05)

    @pytest.mark.parametrize("kind,source,options", [
        ("t1", "t1_53us.csv", []),
        ("ramsey", "ramsey_10us.csv", []),
        ("rb", "rb_decay.csv", []),
        ("tuning", "tuning_q0.csv", []),
        ("tuning", "tuning_q0.csv", ["--fixed-ec", "182"]),
        ("beta", "beta_q0.csv", [str(EXAMPLE_CONFIG), "--qubit", "q0"]),
    ], ids=["t1", "ramsey", "rb", "tuning", "tuning-fixed-ec", "beta"])
    def test_residuals_csv(self, tmp_path, kind, source, options):
        from fluxline import fitting

        res, fit = tmp_path / "residuals.csv", tmp_path / "fit.json"
        code = run_cli(
            "fit", kind, str(FIXTURES / source), *options,
            "--out", str(fit), "--residuals-out", str(res),
        )
        assert code == 0
        lines = res.read_text().splitlines()
        fixture = (FIXTURES / source).read_text().splitlines()
        assert lines[0] == fixture[0] + ",model,residual"
        assert len(lines) == len(fixture)
        x, y, curve, residual = np.loadtxt(res, delimiter=",", skiprows=1, unpack=True)
        assert np.array_equal(y, np.loadtxt(FIXTURES / source, delimiter=",", skiprows=1)[:, 1])
        scale = np.abs(y).max()
        np.testing.assert_allclose(curve + residual, y, rtol=0, atol=1e-11 * scale)
        # the public model at the parameters the fit reported
        model = {
            "t1": fitting.T1_MODEL,
            "ramsey": fitting.RAMSEY_MODEL,
            "rb": fitting.RB_MODEL,
            "tuning": fitting._hold_e_c(fitting.tuning_curve_model(), 182.0) if options else fitting.tuning_curve_model(),
            "beta": fitting.beta_model(load_config(EXAMPLE_CONFIG).qubit("q0").params, 0.0),
        }[kind]
        params = json.loads(fit.read_text())["params"]
        want = model.fn(x, np.array([params[name] for name in model.names]))
        np.testing.assert_allclose(curve, want, rtol=1e-9, atol=1e-9 * scale)

    def test_empty_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        assert run_cli("fit", "t1", str(bad)) == 2

    def test_header_only_csv_exits_2(self, tmp_path):
        bad = tmp_path / "hdr.csv"
        bad.write_text("time_us,signal\n")
        assert run_cli("fit", "t1", str(bad)) == 2

    def test_column_mismatch_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "cols.csv"
        bad.write_text("foo,bar\n1,2\n")
        assert run_cli("fit", "t1", str(bad)) == 2
        assert "expected columns" in capsys.readouterr().err

    def test_nonconvergent_exits_3(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        rows = "\n".join(f"{t},0.7" for t in range(20))
        flat.write_text("time_us,signal\n" + rows + "\n")
        assert run_cli("fit", "t1", str(flat)) == 3
        assert "converge" in capsys.readouterr().err

    @staticmethod
    def _run(*argv):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        return subprocess.run(
            [sys.executable, "-m", "fluxline.cli", "fit", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_fit_error_exits_3_without_traceback(self):
        # a structural fit failure from the fit engine, raised in a CLI process
        code = (
            "import sys; from fluxline import cli, fitting\n"
            "def fail(data): raise fitting.FitError('singular Jacobian at the optimum')\n"
            "fitting.fit_t1 = fail\n"
            f"sys.exit(cli.main(['fit', 't1', {str(FIXTURES / 't1_53us.csv')!r}]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == "error: singular Jacobian at the optimum\n"

    @pytest.mark.parametrize("kind,source,fit", [
        ("t1", "t1_53us.csv", "fit_t1"),
        ("ramsey", "ramsey_10us.csv", "fit_ramsey"),
        ("rb", "rb_decay.csv", "fit_rb"),
        ("tuning", "tuning_q0.csv", "fit_tuning_curve"),
        ("beta", "beta_q0.csv", "fit_beta"),
    ])
    def test_fit_error_exits_3_for_every_kind(self, monkeypatch, capsys, kind, source, fit):
        from fluxline import fitting

        def fail(*args, **kwargs):
            raise fitting.FitError("singular Jacobian at the optimum")

        monkeypatch.setattr(fitting, fit, fail)
        code = run_cli("fit", kind, str(FIXTURES / source), str(EXAMPLE_CONFIG), "--qubit", "q0")
        assert code == 3
        assert capsys.readouterr() == ("", "error: singular Jacobian at the optimum\n")

    def test_singular_damped_step_exits_3(self, tmp_path, capsys):
        # negated sequence lengths: a numerical failure of the fit, not bad input
        header, *lines = (FIXTURES / "rb_decay.csv").read_text().splitlines()
        path = tmp_path / "rb_negated.csv"
        path.write_text("".join(f"{ln}\n" for ln in [header] + [f"-{ln}" for ln in lines]))
        assert run_cli("fit", "rb", str(path)) == 3
        assert capsys.readouterr() == ("", "error: singular damped normal equations J^T J + lam D^2\n")

    @pytest.mark.parametrize("kind,source,column", [
        ("t1", "t1_53us.csv", "time_us"),
        ("ramsey", "ramsey_10us.csv", "time_us"),
        ("rb", "rb_decay.csv", "sequence_length"),
        ("tuning", "tuning_q0.csv", "current_a"),
    ])
    def test_constant_abscissa_exits_2(self, tmp_path, kind, source, column):
        lines = (FIXTURES / source).read_text().splitlines()
        data = tmp_path / source
        data.write_text("\n".join([lines[0]] + ["0," + ln.split(",", 1)[1] for ln in lines[1:]]) + "\n")
        proc = self._run(kind, str(data))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {column} column is constant: the fit needs distinct values\n"

    @pytest.mark.parametrize("value", ["0", "-5", "nan"])
    def test_nonpositive_or_nonfinite_fixed_ec_exits_2(self, value):
        proc = self._run("tuning", str(FIXTURES / "tuning_q0.csv"), f"--fixed-ec={value}")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: fixed_e_c must be finite and > 0, got {float(value)}\n"

    def test_nonfinite_beta_phi_dc_exits_2(self):
        proc = self._run("beta", str(FIXTURES / "beta_q0.csv"), str(EXAMPLE_CONFIG),
                         "--qubit", "q0", "--phi-dc", "nan")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: phi_dc must be finite, got nan\n"

    def test_beta_without_qubit_exits_2(self):
        assert run_cli("fit", "beta", str(FIXTURES / "beta_q0.csv")) == 2

    def test_exactly_determined_fit_reports_null_errors(self, tmp_path, capsys):
        # three points for three parameters: no noise scale, so no errors
        path = tmp_path / "three.csv"
        path.write_text("time_us,signal\n1,0.9\n20,0.5\n60,0.2\n")
        assert run_cli("fit", "t1", str(path)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["std_errors"] == {"A": None, "T1": None, "B": None}
        assert doc["flags"] == [
            "standard errors undefined: an unweighted fit needs more points than parameters, or sigma"
        ]
        # a sigma column gives them back
        path.write_text("time_us,signal,sigma\n1,0.9,0.01\n20,0.5,0.01\n60,0.2,0.01\n")
        assert run_cli("fit", "t1", str(path)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flags"] == [] and all(e > 0.0 for e in doc["std_errors"].values())

    @pytest.mark.parametrize("rows", ["all", "one"])
    def test_nonfinite_sigma_exits_2_naming_the_file(self, tmp_path, capsys, rows):
        # an infinite sigma would drop its point from the fit unseen
        header, *lines = (FIXTURES / "t1_53us.csv").read_text().splitlines()
        sigma = ["inf" if rows == "all" or i == 7 else "0.01" for i in range(len(lines))]
        path = tmp_path / "t1_sigma.csv"
        path.write_text("".join(f"{ln},{s}\n" for ln, s in zip([header] + lines, ["sigma"] + sigma)))
        assert run_cli("fit", "t1", str(path)) == 2
        assert capsys.readouterr() == ("", f"error: {path}: sigma values must be finite and > 0\n")

    def test_sigma_column_accepted(self, tmp_path, capsys):
        import numpy as np

        t = np.linspace(1.0, 150.0, 30)
        y = 0.9 * np.exp(-t / 40.0) + 0.05
        rows = "\n".join(f"{a},{b},0.01" for a, b in zip(t, y))
        path = tmp_path / "weighted.csv"
        path.write_text("time_us,signal,sigma\n" + rows + "\n")
        assert run_cli("fit", "t1", str(path)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["T1"] == pytest.approx(40.0, rel=1e-6)


class TestHugeFiniteInputs:
    """Finite inputs whose arithmetic overflows: exit 2, one error line
    naming the input, and no numpy warning on the way (run in-process, so
    every warning is recorded, not only the first from each line)."""

    @pytest.mark.parametrize("argv,message", [
        (["spectrum", str(EXAMPLE_CONFIG), "--qubit", "q0", "--points", "2", "--phi-max", "1e308"],
         "flux must keep pi phi finite, got phi = 1e+308"),
        (["spectrum", str(EXAMPLE_CONFIG), "--qubit", "q0", "--points", "2",
          "--phi-min=-1e308", "--phi-max", "1e308"],
         "flux span must be finite, got phi = -1e+308 to 1e+308"),
        (["fit", "tuning", str(FIXTURES / "tuning_q0.csv"), "--fixed-ec", "1e308"],
         "fixed_e_c must lie in [0.00385122, 962.806] MHz (f_max * 1e-06 to f_max / 4 of the data), got 1e+308"),
        (["fit", "tuning", str(FIXTURES / "tuning_q0.csv"), "--fixed-ec", "1e-300"],
         "fixed_e_c must lie in [0.00385122, 962.806] MHz (f_max * 1e-06 to f_max / 4 of the data), got 1e-300"),
        (["fit", "beta", str(FIXTURES / "beta_q0.csv"), str(EXAMPLE_CONFIG), "--qubit", "q0", "--phi-dc", "1e308"],
         "phi_dc must keep 2 pi n phi_dc finite for n <= 8, got 1e+308"),
    ], ids=["spectrum-phi-max", "spectrum-span", "fixed-ec-huge", "fixed-ec-tiny", "beta-phi-dc"])
    def test_exits_2_with_one_line_and_no_warning(self, capsys, argv, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(*argv)
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("argv", [
        ["spectrum", str(EXAMPLE_CONFIG), "--qubit", "q0", "--points", "1000000000000000"],
        ["modulate", str(EXAMPLE_CONFIG), "--qubit", "q0", "--points", "1000000000000000"],
        ["modulate", str(EXAMPLE_CONFIG), "--qubit", "q0", "--with-oracle", "--oracle-steps", "1000000000000000"],
        ["diplexer", str(EXAMPLE_CONFIG), "--points", "1000000000000000"],
    ], ids=["spectrum", "modulate", "oracle-steps", "diplexer"])
    def test_unallocatable_array_exits_2(self, capsys, argv):
        # 1e15 points ask numpy for petabytes, past any address space, so the
        # first allocation fails at once: one error line, not a traceback
        code = run_cli(*argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1

    def test_fit_whose_cost_overflows_exits_2(self, tmp_path, capsys):
        # sigma 1e-160 squares the weighted residuals past 1e308: the beta
        # fit reported converged at its scan's start, with a std error of 0
        header, *lines = (FIXTURES / "beta_q0.csv").read_text().splitlines()
        path = tmp_path / "beta_sigma.csv"
        path.write_text(f"{header},sigma\n" + "".join(f"{ln},1e-160\n" for ln in lines))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("fit", "beta", str(path), str(EXAMPLE_CONFIG), "--qubit", "q0")
        assert code == 2
        message = "r.r or J^T J is not finite at the initial guess: rescale the data or sigma"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("argv,budget", [
        (["--v-p", "1e308"], "v_p=1e+308, r_ohm=50.0"),
        (["--v-p", "1", "--r-ohm", "1e-320"], "v_p=1.0, r_ohm=1e-320"),
    ], ids=["v-p", "r-ohm"])
    def test_crosstalk_line_flux_overflow_names_the_budget(self, capsys, argv, budget):
        # the flux 2 alpha V_p / R * M / Phi0 overflows: the error names the
        # budget the user passed, not a phi_ac of inf
        code = run_cli("crosstalk", str(EXAMPLE_CONFIG), "--qubit", "q0", "--gamma-db", "0", *argv)
        m_fh = load_config(EXAMPLE_CONFIG).qubit("q0").m_fH
        message = f"LineBudget(gamma_db=0.0, {budget}, m_fH={m_fh}) overflows the line flux 2 alpha V_p / R * M / Phi0"
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_crosstalk_shift_overflow_names_the_budget(self, capsys):
        # the line flux ~9.7e300 is finite, its second-order shift is not:
        # the error names the budget the user passed, not that flux
        code = run_cli("crosstalk", str(EXAMPLE_CONFIG), "--qubit", "q0", "--gamma-db", "0", "--v-p", "1e300")
        q = load_config(EXAMPLE_CONFIG).qubit("q0")
        message = (f"LineBudget(gamma_db=0.0, v_p=1e+300, r_ohm=50.0, m_fH={q.m_fH}) "
                   f"overflows the second-order shift of {q.params}")
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_tuning_frequencies_near_1e200(self, tmp_path, capsys):
        # the start guess squared them into an OverflowError traceback
        data = tmp_path / "huge.csv"
        rows = [f"{1e-4 * k - 1e-3!r},{k % 4 + 1}e200" for k in range(20)]
        data.write_text("\n".join(["current_a,frequency_mhz", *rows]) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("fit", "tuning", str(data))
        assert code == 2
        message = "frequencies must lie within +-1e+60 MHz, got f_min = 1e+200, f_max = 4e+200 MHz"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert [str(w.message) for w in caught] == []


def significant_digits(token: str) -> int:
    """Significant digits of a JSON number token, e.g. 3 for '-1.25e-05'."""
    return len(token.lower().split("e")[0].lstrip("-").replace(".", "").strip("0"))


class TestJsonRounding:
    @pytest.mark.parametrize("argv", [
        ("--json", "spectrum", str(EXAMPLE_CONFIG), "--qubit", "q1", "--points", "3", "--out", os.devnull),
        ("--json", "modulate", str(EXAMPLE_CONFIG), "--qubit", "q0", "--points", "3", "--with-oracle",
         "--oracle-steps", "256", "--out", os.devnull),
        # inputs of 17 significant digits, which the report echoes
        ("crosstalk", str(EXAMPLE_CONFIG), "--qubit", "q0", "--gamma-db", "73.43839251917712",
         "--v-p", "0.12345678901234568", "--r-ohm", "50.000000000000014"),
        ("diplexer", str(EXAMPLE_CONFIG), "--points", "400", "--out", os.devnull, "--report-out", "-"),
        ("fit", "t1", str(FIXTURES / "t1_53us.csv")),
        ("fit", "ramsey", str(FIXTURES / "ramsey_10us.csv")),
        ("fit", "rb", str(FIXTURES / "rb_decay.csv")),
        ("fit", "tuning", str(FIXTURES / "tuning_q0.csv")),
        ("fit", "beta", str(FIXTURES / "beta_q0.csv"), str(EXAMPLE_CONFIG), "--qubit", "q0"),
    ], ids=["spectrum", "modulate", "crosstalk", "diplexer", "fit-t1", "fit-ramsey", "fit-rb", "fit-tuning",
            "fit-beta"])
    def test_every_number_has_at_most_12_significant_digits(self, capsys, argv):
        assert run_cli(*argv) == 0
        tokens = []
        json.loads(capsys.readouterr().out, parse_float=lambda t: tokens.append(t) or float(t))
        assert tokens
        assert [t for t in tokens if significant_digits(t) > 12] == []


class TestDeterminism:
    def _run_twice(self, tmp_path, name, argv_builder):
        outputs = []
        for tag in ("a", "b"):
            paths = argv_builder(tmp_path, tag)
            blobs = tuple(p.read_bytes() for p in paths)
            outputs.append(blobs)
        assert outputs[0] == outputs[1], f"{name} output not byte-identical"

    def test_spectrum_csv(self, tmp_path):
        def build(base, tag):
            out = base / f"spec_{tag}.csv"
            assert run_cli(
                "spectrum", str(EXAMPLE_CONFIG), "--qubit", "q2",
                "--points", "21", "--out", str(out),
            ) == 0
            return [out]

        self._run_twice(tmp_path, "spectrum", build)

    def test_modulate_csv(self, tmp_path):
        def build(base, tag):
            out = base / f"mod_{tag}.csv"
            assert run_cli(
                "modulate", str(EXAMPLE_CONFIG), "--qubit", "q0", "--points", "5",
                "--amp-max", "0.2", "--with-oracle", "--oracle-steps", "256",
                "--out", str(out),
            ) == 0
            return [out]

        self._run_twice(tmp_path, "modulate", build)

    def test_diplexer_outputs(self, tmp_path):
        def build(base, tag):
            out = base / f"resp_{tag}.csv"
            rep = base / f"rep_{tag}.json"
            assert run_cli(
                "diplexer", str(EXAMPLE_CONFIG), "--points", "400",
                "--out", str(out), "--report-out", str(rep),
            ) == 0
            return [out, rep]

        self._run_twice(tmp_path, "diplexer", build)

    def test_fit_outputs(self, tmp_path):
        def build(base, tag):
            out = base / f"fit_{tag}.json"
            res = base / f"res_{tag}.csv"
            assert run_cli(
                "fit", "rb", str(FIXTURES / "rb_decay.csv"),
                "--out", str(out), "--residuals-out", str(res),
            ) == 0
            return [out, res]

        self._run_twice(tmp_path, "fit", build)
