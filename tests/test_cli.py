import json
import math
import sys
from pathlib import Path

import pytest

from coldplasma import core_dynamics
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
            # a cap of no revolution: 0 revolutions would read as "reached max_rev"
            ["count-revolutions", "--k", "0.1", "--max-rev", "-1"],
            ["lifetime", "--k", "0.1", "--max-rev", "0"],
            # the half period from G- = -7.1e203 overflows the step control
            # at once (tests/test_oracle.py)
            ["oracle-run", "--k", "0.499", "--r0", "0.01"],
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

    def test_arcs_start_on_their_anchor(self, tmp_path):
        # the first sample of every arc is its anchor: the start (0.2, 0) or
        # the crossing before, where D is 0 exactly whatever the root's last bits
        code, out = run_cli(["count-revolutions", "--k", "0.1"], tmp_path)
        assert code == EXIT_OK
        for name in ("spiral_outer.csv", "spiral_inner.csv"):
            first = {}
            for line in (out / name).read_text().splitlines()[1:]:
                curve_id, _, _, dv = line.split(",")
                first.setdefault(curve_id, dv)
            assert len(first) >= 2
            assert set(first.values()) <= {"0", "-0"}, (name, first)

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

    def test_oracle_run_tiny_pulse_counts_its_revolutions(self, tmp_path):
        # lambda = 2K cos t: 7 crossings, 3 whole turns, and arcs to check
        code, out = run_cli(["oracle-run", "--k", "1e-13", "--r0", "0", "--t-max", "25"], tmp_path)
        assert code == EXIT_OK
        rep = json.loads((out / "report.json").read_text())
        assert rep["revolutions"] == 3 and len(rep["crossing_times"]) == 7
        assert isinstance(rep["sandwich_violation"], float), rep["sandwich_violation"]

    def test_oracle_run_reports_the_period_map(self, tmp_path):
        code, out = run_cli(["oracle-run", "--k", "0.1", "--t-max", "5"], tmp_path, sub="orbit")
        assert code == EXIT_OK
        floquet = json.loads((out / "report.json").read_text())["floquet"]
        assert sorted(floquet) == ["half_period_steps", "period", "shear", "shear_error", "turning_point_miss"]
        assert abs(floquet["period"] - 6.276156321355657) < 1e-9   # period(0, 0.1, 2)
        assert floquet["half_period_steps"] > 0
        assert abs(floquet["shear"] + 0.0152792540) < 1e-9      # normalised at G-
        assert 0.0 <= floquet["turning_point_miss"] < 1e-9
        assert 0.0 < floquet["shear_error"] < 1e-8
        # a start on the point orbit has the plasma period of small oscillations
        code, out = run_cli(["oracle-run", "--k", "1e-300", "--t-max", "5"], tmp_path, sub="point")
        assert code == EXIT_OK
        assert json.loads((out / "report.json").read_text())["floquet"]["period"] == 2.0 * math.pi
        # the K = 0.495 centre (u = 0): its half period from G- = -1.3e41
        # completes (from G+ it stopped short of T/2, and a half that stops
        # short fails the run)
        code, out = run_cli(["oracle-run", "--k", "0.495", "--t-max", "5"], tmp_path, sub="wide")
        assert code == EXIT_OK
        assert json.loads((out / "report.json").read_text())["floquet"]["half_period_steps"] > 0

    def test_oracle_run_rejects_an_orbit_without_a_period(self, tmp_path, capsys):
        # the center of K = 0.4995 starts at G0 = 0.4995, next to the vacuum
        # point 1/2: its orbit is too wide for a period in floating point
        code, out = run_cli(["oracle-run", "--k", "0.4995", "--t-max", "10"], tmp_path)
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: period of the orbit through F0=0.0, G0=0.4995")

    def test_oracle_run_too_long_to_build(self, tmp_path, capsys):
        # t* = 9.70e6: the trajectory up to it has 18,522,995 nodes
        code, out = run_cli(["oracle-run", "--k", "0.45", "--r0", "2.17", "--t-max", "1e7",
                             "--tol", "1e-8"], tmp_path)
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: the trajectory to t = 9698603.") and "4194304" in err, err

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

    @pytest.mark.parametrize("args, orbits", [
        (["--k", "0.45", "--n-r", "48", "--t-max", "400"], 47),
        (["--k", "0.222", "--r-min", "0", "--r-max", "3", "--n-r", "16", "--t-max", "150"], 15),
    ])
    def test_sweep_computes_each_orbit_once(self, tmp_path, monkeypatch, args, orbits):
        # one oracle run per radius, whose orbit record gives its spirals F+:
        # one orbit_extremes call per radius but the centre, a u = 0 start
        # whose spirals refresh F+ and whose flow is never built.  Counted in
        # every module that holds it, each loaded first
        import coldplasma.oracle  # noqa: F401  (loads the spiral layer too)

        calls, orig = [], core_dynamics.orbit_extremes

        def counted(*a):
            calls.append(a)
            return orig(*a)

        for name, module in list(sys.modules.items()):
            if name.startswith("coldplasma") and vars(module).get("orbit_extremes") is orig:
                monkeypatch.setattr(module, "orbit_extremes", counted)
        code, _ = run_cli(["sweep", *args], tmp_path)
        assert code == EXIT_OK
        assert len(calls) == orbits

    def test_sweep_at_rest_names_no_lifetime_radius(self, tmp_path):
        # every radius from 6 to 10 is at rest (G0 < 1e-14): no lifetime, so no radius of it
        code, out = run_cli(
            ["sweep", "--k", "0.222", "--r-min", "6", "--r-max", "10", "--n-r", "4"], tmp_path)
        assert code == EXIT_OK
        rep = json.loads((out / "report.json").read_text())
        assert rep["guaranteed_lifetime"] is None
        assert rep["r_at_min_lifetime"] is None

    def test_sweep_grid_validation(self, tmp_path):
        code, _ = run_cli(
            ["sweep", "--k", "0.1", "--r-min", "2", "--r-max", "1", "--n-r", "3"],
            tmp_path,
        )
        assert code == EXIT_CONFIG
