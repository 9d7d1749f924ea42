import json
from pathlib import Path

import pytest

from coldplasma.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main


def run_cli(args, tmp_path, sub="out"):
    out = tmp_path / sub
    code = main(args + ["--out-dir", str(out)])
    return code, out


class TestValidation:
    def test_missing_required_parameter(self, tmp_path, capsys):
        code, out = run_cli(["gauss-pulse"], tmp_path)
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "missing required parameter" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"k": 0.1, "bogus": 1}))
        code, out = run_cli(["gauss-pulse", "--config", str(cfg)], tmp_path)
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_malformed_json_rejected(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code, out = run_cli(["gauss-pulse", "--config", str(cfg)], tmp_path)
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_wrong_mode_config_rejected(self, tmp_path):
        cfg = tmp_path / "other.json"
        cfg.write_text(json.dumps({"mode": "sweep", "k": 0.1}))
        code, out = run_cli(["gauss-pulse", "--config", str(cfg)], tmp_path)
        assert code == EXIT_CONFIG

    def test_domain_error_is_config_error(self, tmp_path):
        # found inside the handler, so nothing may be written
        cases = [
            ["gauss-pulse", "--k", "0.7"],
            ["sweep", "--k", "0.1", "--r-min", "2", "--r-max", "1"],
        ]
        for i, args in enumerate(cases):
            code, out = run_cli(args, tmp_path, sub=f"out{i}")
            assert code == EXIT_CONFIG, args
            assert not out.exists(), args

    def test_non_finite_value_rejected(self, tmp_path):
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps({"k": float("nan")}))   # written as NaN
        cases = [
            ["count-revolutions", "--config", str(cfg)],
            ["gauss-pulse", "--k", "nan"],
            ["lifetime", "--k", "0.1", "--sigma1", "nan"],
            ["oracle-run", "--k", "0.1", "--t-max", "nan"],
            ["oracle-run", "--k", "0.1", "--t-max", "inf"],
        ]
        for i, args in enumerate(cases):
            code, out = run_cli(args, tmp_path, sub=f"out{i}")
            assert code == EXIT_CONFIG, args
            assert not out.exists(), args

    def test_wrong_typed_config_value_rejected(self, tmp_path):
        cases = [
            ("gauss-pulse", {"k": "not-a-number"}),
            ("gauss-pulse", {"k": "0.1"}),
            ("gauss-pulse", {"k": True}),
            ("gauss-pulse", {"k": None}),
            ("sweep", {"k": 0.1, "n_r": 3.5}),
        ]
        for i, (mode, values) in enumerate(cases):
            cfg = tmp_path / f"typed{i}.json"
            cfg.write_text(json.dumps(values))
            code, out = run_cli([mode, "--config", str(cfg)], tmp_path, sub=f"out{i}")
            assert code == EXIT_CONFIG, values
            assert not out.exists(), values

    def test_config_file_and_flags_write_identical_reports(self, tmp_path):
        cases = [
            ("oracle-run", {"k": 0.1, "r0": 0, "t_max": 5},
             ["--k", "0.1", "--r0", "0", "--t-max", "5"]),
            ("count-revolutions", {"k": 0.1, "max_rev": 2.0, "start_lambda": None},
             ["--k", "0.1", "--max-rev", "2"]),
        ]
        for i, (mode, values, flags) in enumerate(cases):
            cfg = tmp_path / f"run{i}.json"
            cfg.write_text(json.dumps(values))
            code1, out1 = run_cli([mode, "--config", str(cfg)], tmp_path, sub=f"file{i}")
            code2, out2 = run_cli([mode, *flags], tmp_path, sub=f"flags{i}")
            assert code1 == code2 == EXIT_OK
            assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


class TestCriterionModes:
    def test_criterion_1d(self, tmp_path):
        code, out = run_cli(
            ["criterion-1d", "--v0-prime", "0", "--e0-prime", "0"], tmp_path
        )
        assert code == EXIT_OK
        rep = json.loads((out / "report.json").read_text())
        assert rep["delta"] == -1.0
        assert rep["verdict"] == "satisfied"

    def test_first_period(self, tmp_path):
        code, out = run_cli(
            ["first-period", "--div-v0", "0", "--curl-sq", "0", "--div-e0", "0.2"],
            tmp_path,
        )
        assert code == EXIT_OK
        rep = json.loads((out / "report.json").read_text())
        assert rep["verdict"] == "satisfied"


class TestPulseModes:
    def test_gauss_pulse_smooth(self, tmp_path):
        code, out = run_cli(["gauss-pulse", "--k", "0.15"], tmp_path)
        assert code == EXIT_OK
        rep = json.loads((out / "report.json").read_text())
        assert rep["verdict"] == "smooth-first-period"
        assert abs(rep["thresholds"]["smooth_K"] - 0.1529) < 3e-4

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "pulse.json"
        cfg.write_text(json.dumps({"k": 0.15}))
        code, out = run_cli(
            ["gauss-pulse", "--config", str(cfg), "--k", "0.29"], tmp_path
        )
        assert code == EXIT_OK
        rep = json.loads((out / "report.json").read_text())
        assert rep["inputs"]["k"] == 0.29
        assert rep["verdict"] == "blow-up-first-period"


class TestSpiralModes:
    def test_count_revolutions_defaults(self, tmp_path):
        code, out = run_cli(["count-revolutions", "--k", "0.1"], tmp_path)
        assert code == EXIT_OK
        rep = json.loads((out / "report.json").read_text())
        assert rep["start_point"] == [0.2, 0.0]
        assert rep["revolutions"] >= 1
        assert (out / "spiral_outer.csv").exists()
        assert (out / "spiral_inner.csv").exists()

    def test_figure_start_override(self, tmp_path):
        code, out = run_cli(
            ["count-revolutions", "--k", "0.1", "--start-lambda", "0.1"], tmp_path
        )
        assert code == EXIT_OK
        rep = json.loads((out / "report.json").read_text())
        assert rep["start_point"] == [0.1, 0.0]
        first = (out / "spiral_outer.csv").read_text().splitlines()
        assert first[0] == "curve_id,s,lambda,D"
        _, s, lam, dv = first[1].split(",")
        assert abs(float(lam) - 0.1) < 1e-12
        assert abs(float(dv)) < 1e-12

    def test_lifetime_report(self, tmp_path):
        code, out = run_cli(["lifetime", "--k", "0.1"], tmp_path)
        assert code == EXIT_OK
        rep = json.loads((out / "report.json").read_text())
        assert rep["T_lower"] <= rep["T_upper"]
        assert rep["revolutions"] >= 1

    def test_equilibrium_start_emits_header_only_curves(self, tmp_path):
        code, out = run_cli(
            ["count-revolutions", "--k", "0.1", "--start-lambda", "0.0"], tmp_path
        )
        assert code == EXIT_OK
        rep = json.loads((out / "report.json").read_text())
        assert rep["revolutions"] == 0
        lines = (out / "spiral_outer.csv").read_text().splitlines()
        assert lines[0] == "curve_id,s,lambda,D"
        assert len(lines) == 1

    def test_arcs_end_on_the_axis(self, tmp_path):
        # the last sample of every arc is its crossing, where D is 0 exactly
        code, out = run_cli(["count-revolutions", "--k", "0.1"], tmp_path)
        assert code == EXIT_OK
        for name in ("spiral_outer.csv", "spiral_inner.csv"):
            last = {}
            for line in (out / name).read_text().splitlines()[1:]:
                curve_id, _, _, dv = line.split(",")
                last[curve_id] = dv
            assert len(last) >= 2
            assert set(last.values()) == {"0"}, (name, last)

    def test_overflowing_curve_is_numerical_failure(self, tmp_path, capsys):
        code, out = run_cli(["count-revolutions", "--k", "0.1", "--sigma1", "19.47658418883824",
                             "--start-lambda", "-1.756944146263344", "--max-rev", "1"], tmp_path)
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "overflows" in err
        assert err.count("\n") == 1

    def test_deterministic_reruns(self, tmp_path):
        code1, out1 = run_cli(["lifetime", "--k", "0.1"], tmp_path, sub="a")
        code2, out2 = run_cli(["lifetime", "--k", "0.1"], tmp_path, sub="b")
        assert code1 == code2 == EXIT_OK
        for name in ("report.json", "spiral_outer.csv", "spiral_inner.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestOracleModes:
    def test_oracle_run_center(self, tmp_path):
        code, out = run_cli(
            ["oracle-run", "--k", "0.1", "--r0", "0", "--t-max", "20", "--tol", "1e-10"],
            tmp_path,
        )
        assert code == EXIT_OK
        rep = json.loads((out / "report.json").read_text())
        assert rep["revolutions"] >= 3
        assert rep["blowup"]["detected"] is False
        assert rep["sandwich_violation"] < 1e-6
        traj = (out / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "t,lambda,D,F,G,r"
        assert len(traj) > 10

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("COLDPLASMA_OUT", str(target))
        code = main(["criterion-1d", "--v0-prime", "0", "--e0-prime", "0"])
        assert code == EXIT_OK
        assert (target / "report.json").exists()

    def test_small_sweep(self, tmp_path):
        code, out = run_cli(
            ["sweep", "--k", "0.1", "--r-min", "0", "--r-max", "1", "--n-r", "3",
             "--t-max", "30", "--tol", "1e-8"],
            tmp_path,
        )
        assert code == EXIT_OK
        rep = json.loads((out / "report.json").read_text())
        assert (out / "sweep.csv").exists()
        assert rep["min_blowup_time"] is None
        assert rep["caveat"] is not None

    def test_sweep_grid_validation(self, tmp_path):
        code, _ = run_cli(
            ["sweep", "--k", "0.1", "--r-min", "2", "--r-max", "1", "--n-r", "3"],
            tmp_path,
        )
        assert code == EXIT_CONFIG
