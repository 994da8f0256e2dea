import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cransim import cli
from cransim.cli import main
from cransim.harness import CONFIG_SCHEMA, MODES, read_csv


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "schema": CONFIG_SCHEMA,
        "system": {"K": 4, "L": 2, "M": 4, "N": 2, "rho_db": 15.0,
                   "pilot_snr": 100.0, "rng_seed": 9},
        "sweep": {"variable": "fronthaul_rate", "values": [2.0, 8.0], "trials": 3,
                  "outputs": ["sum_capacity", "baseline", "cutset"]},
    }))
    return str(path)


class TestSweepCommand:
    def test_writes_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", config_path, "--output", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 2 * 6
        assert "wrote" in capsys.readouterr().out

    def test_trials_and_seed_override(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", config_path, "--output", str(a), "--trials", "2"])
        main(["sweep", "--config", config_path, "--output", str(b), "--trials", "2",
              "--seed", "123"])
        ra, rb = read_csv(a), read_csv(b)
        assert all(r.trials == 2 for r in ra)
        assert all(r.seed == 123 for r in rb)
        assert ra[0].mean != rb[0].mean

    def test_csi_flag_switches_to_lower_bound(self, config_path, tmp_path):
        out = tmp_path / "pilot.csv"
        main(["sweep", "--config", config_path, "--output", str(out), "--csi", "pilot"])
        assert all(r.csi_mode == "lower-bound" for r in read_csv(out))

    def test_csi_defaults_to_pilot_when_config_has_numeric_snr(self, config_path, tmp_path):
        out = tmp_path / "auto.csv"
        main(["sweep", "--config", config_path, "--output", str(out)])
        assert all(r.csi_mode == "lower-bound" for r in read_csv(out))

    def test_csi_perfect_overrides_numeric_pilot_snr(self, config_path, tmp_path):
        data = json.loads(Path(config_path).read_text())
        data["system"]["pilot_snr"] = "perfect"
        twin = tmp_path / "perfect.json"
        twin.write_text(json.dumps(data))
        a, b = tmp_path / "override.csv", tmp_path / "twin.csv"
        main(["sweep", "--config", config_path, "--output", str(a), "--csi", "perfect"])
        main(["sweep", "--config", str(twin), "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert all(r.csi_mode == "perfect" for r in read_csv(a))

    def test_lloyd_max_surcharge_costs_capacity(self, config_path, tmp_path):
        a, b = tmp_path / "plain.csv", tmp_path / "lm.csv"
        main(["sweep", "--config", config_path, "--output", str(a), "--csi", "perfect"])
        main(["sweep", "--config", config_path, "--output", str(b), "--csi", "perfect",
              "--lloyd-max"])
        plain = {(r.value, r.mode, r.metric): r.mean for r in read_csv(a)}
        lm = {(r.value, r.mode, r.metric): r.mean for r in read_csv(b)}
        key = (2.0, "proposed", "sum_capacity")
        assert lm[key] < plain[key]


class TestTrialCommand:
    def test_prints_diagnostics(self, config_path, capsys):
        assert main(["trial", "--config", config_path, "--mode", "proposed",
                     "--csi", "perfect", "--trial", "1"]) == 0
        out = capsys.readouterr().out
        assert "selected users" in out
        assert "mutual-information trajectory" in out
        assert "quantisation noise" in out
        assert "sum_capacity" in out

    def test_cutset_mode(self, config_path, capsys):
        assert main(["trial", "--config", config_path, "--mode", "cutset",
                     "--csi", "perfect"]) == 0
        assert "cutset" in capsys.readouterr().out

    @pytest.mark.parametrize("csi, label", [("perfect", "perfect"), ("pilot", "lower-bound")])
    @pytest.mark.parametrize("mode", MODES)
    def test_blocks_follow_the_mode(self, config_path, capsys, mode, csi, label):
        assert main(["trial", "--config", config_path, "--mode", mode, "--csi", csi,
                     "--trial", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"mode={mode} csi={label} trial=2 seed=9\n")
        selects = mode in ("proposed", "unquantized")
        quantises = mode in ("proposed", "local_baseline")
        assert out.count("selected users") == 2 * selects      # one line per receiver
        assert out.count("mutual-information trajectory") == selects
        for block in ("eigenvalues", "rates", "quantisation noise"):
            assert out.count(block) == 2 * quantises
        assert ("sum_capacity: " in out) == (mode != "cutset")
        assert "cutset: " in out and "full_mi: " in out


class TestModuleEntryPoint:
    def test_python_dash_m_help_exits_0(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "cransim", "--help"], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: cransim ")
        assert "{sweep,trial,validate}" in proc.stdout


class TestValidateCommand:
    def test_validate_passes(self, capsys):
        assert main(["validate", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "checks passed" in out


class TestConfigErrors:
    @pytest.mark.parametrize("extra, message", [
        (["--trials", "0"], "trials must be an integer >= 1"),
        (["--seed", "-1"], "rng_seed must be a non-negative integer"),
    ])
    def test_bad_override_exits_2_without_traceback(self, config_path, tmp_path, capsys,
                                                    extra, message):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", config_path, "--output", str(tmp_path / "o.csv")]
                 + extra)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("cransim: error: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("output", ["missing/o.csv", "."])
    def test_bad_output_path_exits_2_before_any_trial(self, config_path, tmp_path, capsys,
                                                      monkeypatch, output):
        def no_sweep(*a, **k):
            raise AssertionError("the sweep ran")
        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", config_path, "--output", str(tmp_path / output)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("cransim: error: --output must be a file in an existing "
                              "directory")
        assert "Traceback" not in err

    def test_csi_perfect_on_pilot_snr_sweep_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema": CONFIG_SCHEMA, "system": {"pilot_snr": 10.0},
                                    "sweep": {"variable": "pilot_snr", "values": [1.0, 10.0]}}))
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", str(path), "--output", str(tmp_path / "o.csv"),
                  "--csi", "perfect"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("cransim: error: csi mode 'perfect' requires pilot_snr 'perfect'")
        assert not (tmp_path / "o.csv").exists()

    def test_negative_trial_index_exits_2(self, config_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["trial", "--config", config_path, "--trial", "-1"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("cransim: error: trial must be a non-negative integer, got -1")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["sweep", "--output", "o.csv"], ["trial"]])
    @pytest.mark.parametrize("content, message", [
        (None, "No such file or directory"),
        ('{"schema": ', "Expecting value"),
    ])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, command, content, message):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as info:
            main([command[0], "--config", str(path)] + command[1:])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("cransim: error: ") and message in err

    @pytest.mark.parametrize("command", [["sweep", "--output", "o.csv"], ["trial"]])
    @pytest.mark.parametrize("config, extra, message", [
        ({"schema": CONFIG_SCHEMA, "system": {"pilot_snr": "perfect"},
          "sweep": {"values": [1.0]}}, ["--csi", "pilot"], "requires a numeric pilot_snr"),
        ([{"schema": CONFIG_SCHEMA}], [], "config must be a JSON object, got list"),
        ({"schema": CONFIG_SCHEMA, "system": {"rho": "x"}, "sweep": {"values": [1.0]}}, [],
         "rho must be a finite real number, got 'x'"),
        ({"schema": CONFIG_SCHEMA, "system": {"K": 4}, "sweep": []}, [],
         "sweep section must be a JSON object, got list"),
        ({"schema": CONFIG_SCHEMA, "system": {"rho_db": 4000}, "sweep": {"values": [1.0]}}, [],
         "rho_db is too large for a float, got 4000"),
        ({"schema": CONFIG_SCHEMA, "system": {"pilot_snr_db": 5000},
          "sweep": {"values": [1.0]}}, [], "pilot_snr_db is too large for a float, got 5000"),
        ({"schema": CONFIG_SCHEMA, "system": {"rho_db": 160}, "sweep": {"values": [1.0]}}, [],
         "rho must be a positive linear SNR <= 1e12 (120 dB), got 1e+16"),
    ])
    def test_bad_config_content_exits_2(self, tmp_path, capsys, command, config, extra,
                                        message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as info:
            main([command[0], "--config", str(path)] + command[1:] + extra)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("cransim: error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sweep, message", [
        ({"values": [1.0], "n_candidates": [1, 2, 3, 4, 6, 8]},
         "n_candidates must be integers in [1, 4]"),
        ({"values": 3}, "sweep values must be a list, got 3"),
        ({"values": [1.0], "outputs": []}, "outputs must be non-empty"),
        ({"variable": "pilot_snr", "values": [10.0, "perfect"]},
         "sweep values must be real numbers"),
    ])
    def test_bad_sweep_section_fails_sweep_but_not_trial(self, tmp_path, capsys, sweep,
                                                         message):
        # trial runs the system section alone, so the sweep's own rules do not apply
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema": CONFIG_SCHEMA, "sweep": sweep, "system": {
            "K": 6, "L": 3, "M": 4, "N": 2, "rng_seed": 5}}))
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", str(path), "--output", str(tmp_path / "o.csv")])
        assert info.value.code == 2
        assert message in capsys.readouterr().err
        assert main(["trial", "--config", str(path), "--seed", "8"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mode=proposed csi=perfect trial=0 seed=8\nK=6 L=3 M=4 N=2 ")
        assert out.count("selected users") == 3
