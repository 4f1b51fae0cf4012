import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uavplace as up
from uavplace.algorithms import MAX_GRID_POINTS
from uavplace.cli import load_scenario, load_users_csv, main
from uavplace.errors import InputError

BASE_SCENARIO = """\
[area]
width_km = 3
height_km = 3

[radio]
fc_hz = 2e9
pt_dbm = 30
pn_dbm = -120

[environment]
preset = urban

[class.1]
gamma_th_db = 50
lambda_per_km2 = 5.5

[class.2]
gamma_th_db = 47
lambda_per_km2 = 5.5

[sim]
trials = 3
master_seed = 11
grid_points = 9

[algorithms]
es
mwa
lq
"""


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(BASE_SCENARIO)
    return path


def write_scenario(tmp_path, text):
    path = tmp_path / "s.ini"
    path.write_text(text)
    return path


def zero_density_scenario(tmp_path):
    return write_scenario(tmp_path, BASE_SCENARIO.replace("lambda_per_km2 = 5.5", "lambda_per_km2 = 0"))


def read_result(out_dir):
    with open(out_dir / "result.json") as fh:
        return json.load(fh)


def strip_runtimes(doc):
    doc = json.loads(json.dumps(doc))
    for rec in doc.get("trials", []):
        rec.pop("runtime_s", None)
    for stats in (doc.get("summary") or {}).values():
        stats.pop("mean_runtime_s", None)
    doc.pop("cdf_runtime", None)
    return doc


class TestScenarioParsing:
    def test_roundtrip_fields(self, scenario_file):
        scn = load_scenario(scenario_file)
        assert (scn.width_km, scn.height_km) == (3.0, 3.0)
        assert scn.radio.fc_hz == 2e9
        assert scn.env == up.URBAN
        assert [c.id for c in scn.classes] == [1, 2]
        assert [c.l_th_db for c in scn.classes] == [100.0, 103.0]
        assert scn.trials == 3 and scn.master_seed == 11 and scn.grid_points == 9
        assert scn.algorithms == ("es", "mwa", "lq")
        assert scn.rho is None

    def test_sim_defaults(self, tmp_path):
        text = BASE_SCENARIO.replace(
            "[sim]\ntrials = 3\nmaster_seed = 11\ngrid_points = 9\n\n", ""
        )
        path = tmp_path / "s.ini"
        path.write_text(text)
        scn = load_scenario(path)
        assert (scn.trials, scn.master_seed, scn.grid_points) == (100, 0, 9)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(BASE_SCENARIO.replace("[area]\n", "[area]\ndepth_km = 1\n"))
        with pytest.raises(InputError, match="depth_km"):
            load_scenario(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(BASE_SCENARIO + "\n[extras]\nfoo = 1\n")
        with pytest.raises(InputError, match="extras"):
            load_scenario(path)

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(BASE_SCENARIO.replace("[radio]\nfc_hz = 2e9\npt_dbm = 30\npn_dbm = -120\n\n", ""))
        with pytest.raises(InputError, match=r"\[radio\]"):
            load_scenario(path)

    def test_bad_number_names_key(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(BASE_SCENARIO.replace("fc_hz = 2e9", "fc_hz = fast"))
        with pytest.raises(InputError, match="fc_hz"):
            load_scenario(path)

    def test_algorithm_with_value_rejected(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(BASE_SCENARIO.replace("[algorithms]\nes\n", "[algorithms]\nes = 1\n"))
        with pytest.raises(InputError, match="takes no value"):
            load_scenario(path)

    def test_unknown_algorithm_rejected(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(BASE_SCENARIO.replace("[algorithms]\nes\n", "[algorithms]\nbrute\n"))
        with pytest.raises(InputError, match="brute"):
            load_scenario(path)

    def test_explicit_environment_constants(self, tmp_path):
        text = BASE_SCENARIO.replace(
            "preset = urban",
            "a = 9.61\nb = 0.16\neta_los_db = 1\neta_nlos_db = 20",
        )
        path = tmp_path / "s.ini"
        path.write_text(text)
        assert load_scenario(path).env == up.URBAN

    def test_preset_conflicts_with_constants(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(BASE_SCENARIO.replace("preset = urban", "preset = urban\na = 9.61"))
        with pytest.raises(InputError, match="mutually exclusive"):
            load_scenario(path)

    def test_unknown_preset(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(BASE_SCENARIO.replace("preset = urban", "preset = seaside"))
        with pytest.raises(InputError, match="seaside"):
            load_scenario(path)

    def test_rho_reallocates_densities(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(BASE_SCENARIO.replace("grid_points = 9", "grid_points = 9\nrho = 0.5"))
        scn = load_scenario(path)
        assert scn.rho == 0.5
        lam1, lam2 = (c.lambda_per_km2 for c in scn.classes)
        assert lam1 + lam2 == 11.0
        assert lam1 == 11.0 / 1.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_scenario(tmp_path / "nope.ini")

    @pytest.mark.parametrize(
        "old, new, message, flags",
        [
            (
                "preset = urban",
                "a = 9.61\nb = 0.16\neta_los_db = 1\neta_nlos_db = inf",
                "environment constants must be finite",
                [],
            ),
            ("fc_hz = 2e9", "fc_hz = inf", "radio parameters must be finite", []),
            ("width_km = 3", "width_km = inf", "area dimensions must be positive and finite", []),
            ("lambda_per_km2 = 5.5", "lambda_per_km2 = inf", "lambda_per_km2 must be finite", []),
            ("grid_points = 9", f"grid_points = {MAX_GRID_POINTS + 1}", "grid_points must be in", []),
            ("grid_points = 9", "grid_points = 9\nrho = inf", "rho must be positive and finite", []),
            # the area overflows to inf although both sides are finite
            (
                "width_km = 3\nheight_km = 3",
                "width_km = 1e300\nheight_km = 1e300",
                "expected user count",
                [],
            ),
            # about 1.1e13 users, which the fixed split would try to allocate
            (
                "width_km = 3\nheight_km = 3",
                "width_km = 1e6\nheight_km = 1e6",
                "expected user count",
                ["--fixed-count"],
            ),
            # a finite class threshold whose optimal radius is about 1e309 m
            ("gamma_th_db = 50", "gamma_th_db = -1e308", "coverage radius beyond", []),
        ],
        ids=[
            "eta_nlos_db",
            "fc_hz",
            "width_km",
            "lambda_per_km2",
            "grid_points",
            "rho",
            "area_overflow",
            "fixed_count_users",
            "class_budget",
        ],
    )
    def test_out_of_range_values_exit_2(self, tmp_path, capsys, old, new, message, flags):
        path = write_scenario(tmp_path, BASE_SCENARIO.replace(old, new, 1))
        assert main(["place", "--scenario", str(path), "--out", str(tmp_path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestUsersCsv:
    def test_load(self, tmp_path):
        path = tmp_path / "users.csv"
        path.write_text("x_m,y_m,class_id\n10.5,20.0,1\n30,40,2\n")
        users = load_users_csv(path, {1, 2})
        assert users == [up.User(10.5, 20.0, 1), up.User(30.0, 40.0, 2)]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "users.csv"
        path.write_text("x,y,c\n1,2,1\n")
        with pytest.raises(InputError, match="line 1"):
            load_users_csv(path, {1})

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "users.csv"
        path.write_text("x_m,y_m,class_id\n1,2,1\noops,4,1\n")
        with pytest.raises(InputError, match="line 3"):
            load_users_csv(path, {1})

    def test_unknown_class_names_line(self, tmp_path):
        path = tmp_path / "users.csv"
        path.write_text("x_m,y_m,class_id\n1,2,9\n")
        with pytest.raises(InputError, match="line 2.*class id 9"):
            load_users_csv(path, {1})

    @pytest.mark.parametrize("row", ["nan,5,1", "5,inf,1", "-inf,0,1"])
    def test_non_finite_coordinate_names_line(self, tmp_path, row):
        path = tmp_path / "users.csv"
        path.write_text(f"x_m,y_m,class_id\n1,2,1\n{row}\n")
        with pytest.raises(InputError, match="line 3.*non-finite"):
            load_users_csv(path, {1})


RADIUS_FLAGS = ["radius", "--preset", "urban", "--fc-hz", "2e9", "--pt-dbm", "30", "--pn-dbm", "-120"]


class TestRadiusCommand:
    def test_direct_flags(self, capsys):
        code = main(
            [
                "radius",
                "--preset", "urban",
                "--fc-hz", "2e9",
                "--pt-dbm", "30",
                "--pn-dbm", "-120",
                "--gamma-th-db", "50",
            ]
        )
        assert code == 0
        out = dict(
            line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(out["l_th_db"]) == 100.0
        assert float(out["h_star_m"]) == pytest.approx(646.5, abs=1.0)
        assert float(out["r_star_m"]) == pytest.approx(707.0, abs=1.0)

    def test_radius_at_altitude(self, capsys):
        code = main(
            [
                "radius",
                "--preset", "urban",
                "--fc-hz", "2e9",
                "--pt-dbm", "30",
                "--pn-dbm", "-120",
                "--l-th-db", "100",
                "--h-m", "646.5",
            ]
        )
        assert code == 0
        out = dict(
            line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(out["radius_m"]) == pytest.approx(707.0, abs=1.0)

    def test_scenario_source(self, scenario_file, capsys):
        code = main(["radius", "--scenario", str(scenario_file), "--gamma-th-db", "50"])
        assert code == 0
        assert "h_star_m" in capsys.readouterr().out

    def test_infeasible_exit_code(self, capsys):
        code = main(
            [
                "radius",
                "--preset", "urban",
                "--fc-hz", "2e9",
                "--pt-dbm", "30",
                "--pn-dbm", "-120",
                "--gamma-th-db", "200",
            ]
        )
        assert code == 3
        assert "infeasible threshold" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--gamma-th-db", "nan"), ("--gamma-th-db", "inf"), ("--l-th-db", "inf")]
    )
    def test_non_finite_threshold_exit_2(self, capsys, flag, value):
        code = main(RADIUS_FLAGS + [flag, value])
        assert code == 2
        assert f"{flag} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    def test_bad_altitude_exit_2_before_output(self, capsys, value):
        code = main(RADIUS_FLAGS + ["--l-th-db", "100", "--h-m", value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--h-m must be positive and finite" in captured.err

    @pytest.mark.parametrize("value", ["1e308", "400"])
    def test_budget_beyond_model_range_exit_2(self, capsys, value):
        # 400 dB gives r_star = 7.07e17 m; 1e308 dB overflows a plain power
        code = main(RADIUS_FLAGS + ["--l-th-db", value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "coverage radius beyond" in captured.err

    def test_python_m_runs_cli(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        command = [sys.executable, "-m", "uavplace.cli", *RADIUS_FLAGS, "--l-th-db", "100"]
        ok = subprocess.run(command, env=env, capture_output=True, text=True)
        assert ok.returncode == 0
        assert "h_star_m" in ok.stdout
        bad = subprocess.run(command + ["--h-m", "nan"], env=env, capture_output=True, text=True)
        assert bad.returncode == 2
        assert bad.stdout == ""

    def test_missing_threshold_exit_code(self, capsys):
        code = main(
            ["radius", "--preset", "urban", "--fc-hz", "2e9", "--pt-dbm", "30", "--pn-dbm", "-120"]
        )
        assert code == 2

    def test_missing_radio_exit_code(self, capsys):
        code = main(["radius", "--preset", "urban", "--gamma-th-db", "50"])
        assert code == 2
        assert "--fc-hz" in capsys.readouterr().err

    def test_non_finite_constant_exit_code(self, capsys):
        code = main(
            [
                "radius",
                "--a", "9.61",
                "--b", "0.16",
                "--eta-los-db", "1",
                "--eta-nlos-db", "inf",
                "--fc-hz", "2e9",
                "--pt-dbm", "30",
                "--pn-dbm", "-120",
                "--gamma-th-db", "50",
            ]
        )
        assert code == 2
        assert "must be finite" in capsys.readouterr().err


class TestPlaceCommand:
    def test_one_user_csv(self, scenario_file, tmp_path, capsys):
        users = tmp_path / "users.csv"
        users.write_text("x_m,y_m,class_id\n1500,1500,1\n")
        out = tmp_path / "out"
        code = main(
            ["place", "--scenario", str(scenario_file), "--users", str(users), "--out", str(out)]
        )
        assert code == 0
        doc = read_result(out)
        assert doc["schema_version"] == 1
        assert len(doc["trials"]) == 3
        assert all(rec["covered"] == 1 for rec in doc["trials"])

    def test_malformed_csv_exit(self, scenario_file, tmp_path, capsys):
        users = tmp_path / "users.csv"
        users.write_text("x_m,y_m,class_id\n1,2\n")
        code = main(
            ["place", "--scenario", str(scenario_file), "--users", str(users), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_finite_csv_exit(self, scenario_file, tmp_path, capsys):
        users = tmp_path / "users.csv"
        users.write_text("x_m,y_m,class_id\nnan,5,1\n1500,1500,1\n")
        code = main(
            ["place", "--scenario", str(scenario_file), "--users", str(users), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_synthetic_run_ordering(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["place", "--scenario", str(scenario_file), "--out", str(out), "--fixed-count"]
        )
        assert code == 0
        doc = read_result(out)
        counts = {rec["algorithm"]: rec["covered"] for rec in doc["trials"]}
        totals = {rec["total_users"] for rec in doc["trials"]}
        assert totals == {99}
        assert counts["es"] >= counts["lq"]
        assert doc["scenario"]["count_mode"] == "fixed"

    def test_deterministic_documents(self, scenario_file, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["place", "--scenario", str(scenario_file), "--out", str(out_a)]) == 0
        assert main(["place", "--scenario", str(scenario_file), "--out", str(out_b)]) == 0
        assert strip_runtimes(read_result(out_a)) == strip_runtimes(read_result(out_b))

    def test_seed_override(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["place", "--scenario", str(scenario_file), "--out", str(out), "--seed", "99"]
        )
        assert code == 0
        assert read_result(out)["scenario"]["master_seed"] == 99


class TestSimulateCommand:
    def test_outputs_and_roundtrip(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
        assert code == 0
        doc = read_result(out)
        assert len(doc["trials"]) == 9  # 3 trials x 3 algorithms
        for alg in ("es", "mwa", "lq"):
            for kind in ("covered", "runtime"):
                path = out / f"cdf_{kind}_{alg}.csv"
                with open(path, newline="") as fh:
                    rows = list(csv.reader(fh))
                assert rows[0] == ["value", "probability"]
                values = [float(r[0]) for r in rows[1:]]
                probs = [float(r[1]) for r in rows[1:]]
                # emitted CSV parses back to the in-memory series exactly
                assert values == doc[f"cdf_{kind}"][alg]["values"]
                assert probs == doc[f"cdf_{kind}"][alg]["probabilities"]
                assert probs[-1] == 1.0
        assert doc["summary"]["es"]["mean_covered"] >= doc["summary"]["lq"]["mean_covered"]

    def test_deterministic_modulo_runtime(self, scenario_file, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out_a)]) == 0
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out_b)]) == 0
        assert strip_runtimes(read_result(out_a)) == strip_runtimes(read_result(out_b))

    def test_zero_density_exit_2(self, tmp_path, capsys):
        # mwa needs a positive density; the error names the failing trial
        path = zero_density_scenario(tmp_path)
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "master_seed=11, trial_id=0" in err and "positive density" in err

    def test_strict_lq_flag_recorded(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["simulate", "--scenario", str(scenario_file), "--out", str(out), "--strict-lq"]
        )
        assert code == 0
        assert read_result(out)["scenario"]["strict_lq"] is True


class TestSweepCommand:
    def test_sweep_csv(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["sweep", "--scenario", str(scenario_file), "--out", str(out), "--rho", "0.5,2"]
        )
        assert code == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rho", "algorithm", "mean_covered", "stderr"]
        assert len(rows) == 1 + 2 * 3
        doc = read_result(out)
        parsed = [
            {
                "rho": float(r[0]),
                "algorithm": r[1],
                "mean_covered": float(r[2]),
                "stderr": float(r[3]),
            }
            for r in rows[1:]
        ]
        assert parsed == doc["sweep"]

    def test_zero_density_exit_2(self, tmp_path, capsys):
        path = zero_density_scenario(tmp_path)
        code = main(
            ["sweep", "--scenario", str(path), "--out", str(tmp_path / "out"), "--rho", "1"]
        )
        assert code == 2
        assert "positive density" in capsys.readouterr().err

    def test_bad_rho_list(self, scenario_file, tmp_path, capsys):
        code = main(
            ["sweep", "--scenario", str(scenario_file), "--out", str(tmp_path), "--rho", "a,b"]
        )
        assert code == 2
