import json

import pytest

from apucosim import cli
from apucosim.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from apucosim.numerics import (
    NonFiniteDerivative,
    NonFiniteResidual,
    SingularJacobian,
    SingularStageMatrix,
    StepUnderflow,
)
from apucosim.wrsg import SingularSystem


def test_design_default(capsys):
    assert main(["design"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "XNHPC" in out and "36050" in out and "Design point" in out


def test_design_json(capsys):
    assert main(["design", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["PWSD"] == pytest.approx(500.0, abs=1e-3)


def test_design_invalid_power_is_usage_error(capsys):
    assert main(["design", "--shaft-power", "0"]) == EXIT_USAGE


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_steady_design_inputs_fixed_point(capsys):
    assert main(["steady", "--power", "500", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["XNHPC"] == 36050.0
    assert doc["values"]["PWSD"] == pytest.approx(500.0, rel=1e-6)
    assert doc["residual_norm"] < 1e-8


def test_steady_sweep(capsys):
    assert main(["steady", "--power", "400", "--sweep"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 6
    sfc = [float(l.split()[2]) for l in lines[1:]]
    assert sfc == sorted(sfc, reverse=True)   # lower eta_c -> higher SFC


def test_steady_out_of_envelope_is_numeric_error(capsys):
    # far outside the map envelope: the cycle match cannot converge
    rc = main(["steady", "--power", "500", "--speed", "9000"])
    assert rc == EXIT_NUMERIC


def test_transient_zero_length_run(tmp_path, capsys):
    scn = {"name": "flat", "duration": 0.1, "macro_dt": 0.02,
           "fuel_step": {"time_s": 0.05, "factor": 1.0,
                         "initial_power_kw": 300.0}}
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(scn))
    rc = main(["transient", "--scenario", str(p), "--out", str(tmp_path),
               "--no-svg"])
    assert rc == EXIT_OK
    body = (tmp_path / "transient_flat_slow.csv").read_text().strip().split("\n")
    assert len(body) == 6    # header + 5 macro steps


def test_genrun_design_load(tmp_path, capsys):
    rc = main(["genrun", "--duration", "0.2", "--out", str(tmp_path),
               "--json", "--no-svg"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["rms"]["Phase A Voltage"] == pytest.approx(229.7, rel=0.01)
    assert doc["rms"]["Phase A Current"] == pytest.approx(325.7, rel=0.01)


def test_joint_mini_scenario(tmp_path, capsys):
    scn = {"name": "mini", "duration": 0.2}
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(scn))
    rc = main(["joint", "--scenario", str(p), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert (tmp_path / "joint_mini_slow.csv").exists()
    assert (tmp_path / "joint_mini_fast.csv").exists()
    assert (tmp_path / "joint_mini_manifest.json").exists()
    assert (tmp_path / "joint_mini_speed.svg").exists()
    out = capsys.readouterr().out
    assert "energy audit" in out


def test_joint_hook_flag_transparent(tmp_path):
    scn = {"name": "hk", "duration": 0.1}
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(scn))
    for hook in ("none", "identity"):
        rc = main(["joint", "--scenario", str(p), "--hook", hook,
                   "--out", str(tmp_path / hook), "--no-svg"])
        assert rc == EXIT_OK
    a = (tmp_path / "none" / "joint_hk_slow.csv").read_bytes()
    b = (tmp_path / "identity" / "joint_hk_slow.csv").read_bytes()
    assert a == b


def test_bad_scenario_is_usage_error(tmp_path):
    p = tmp_path / "scn.json"
    p.write_text('{"unknown_key": 1}')
    assert main(["joint", "--scenario", str(p), "--out",
                 str(tmp_path)]) == EXIT_USAGE


def test_joint_runs_batch_parallel(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("APU_COSIM_THREADS", "2")
    scn = {"name": "batch", "duration": 0.1}
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(scn))
    rc = main(["joint", "--scenario", str(p), "--runs", "2",
               "--state-noise", "2.0", "--out", str(tmp_path), "--no-svg"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"] == 2 and len(doc["summary"]) == 2
    assert doc["summary"][0]["seed"] != doc["summary"][1]["seed"]


def test_joint_merged_view(tmp_path):
    scn = {"name": "mg", "duration": 0.1}
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(scn))
    rc = main(["joint", "--scenario", str(p), "--out", str(tmp_path),
               "--merged", "--no-svg"])
    assert rc == EXIT_OK
    merged = (tmp_path / "joint_mg_merged.csv").read_text()
    header = merged.strip().split("\n")[0]
    assert "XNHPC_r/min" in header and "ia_A" in header
    assert len(merged.strip().split("\n")) == 6   # header + 5 macro rows


def test_genrun_with_ttsc_fault(tmp_path, capsys):
    rc = main(["genrun", "--duration", "0.2", "--mu", "0.05", "--k-rf", "1.0",
               "--fault-time", "0.1", "--out", str(tmp_path), "--json",
               "--no-svg"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    currents = [doc["rms"][f"Phase {ph} Current"] for ph in "ABC"]
    assert max(currents) / min(currents) > 1.01   # unbalance under the fault


def test_design_calibration_failure_exits_2(capsys):
    # a pressure ratio the fixed exhaust anchor cannot support fails sizing
    assert main(["design", "--pressure-ratio", "30"]) == EXIT_NUMERIC
    assert "turbine efficiency anchor" in capsys.readouterr().err


def test_transient_macro_dt_halving_flag(tmp_path):
    scn = {"name": "dt", "duration": 0.2, "macro_dt": 0.02,
           "fuel_step": {"time_s": 0.1, "factor": 1.05,
                         "initial_power_kw": 400.0}}
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(scn))
    for dt, rows in ((None, 10), (0.01, 20)):
        out = tmp_path / f"run_{rows}"
        argv = ["transient", "--scenario", str(p), "--out", str(out), "--no-svg"]
        if dt:
            argv += ["--macro-dt", str(dt)]
        assert main(argv) == EXIT_OK
        body = (out / "transient_dt_slow.csv").read_text().strip().split("\n")
        assert len(body) == rows + 1


def test_design_with_power_override(capsys):
    assert main(["design", "--shaft-power", "400", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["PWSD"] == pytest.approx(400.0, abs=1e-3)
    assert doc["values"]["XNHPC"] == 36050.0


# ------------------------------------------------------------ error contract

def test_unknown_preset_is_usage_error(tmp_path, capsys):
    assert main(["joint", "--preset", "nope", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "preset" in capsys.readouterr().err


def test_altitude_outside_atmosphere_is_usage_error(tmp_path, capsys):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"ambient": {"altitude": 20000}}))
    assert main(["joint", "--scenario", str(p), "--out", str(tmp_path)]) == EXIT_USAGE
    assert "ambient.altitude" in capsys.readouterr().err
    assert main(["steady", "--altitude", "20000"]) == EXIT_USAGE
    assert "altitude" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("record.decimation", 0), ("record.decimation", -3),
    ("record.decimation", 2.5), ("stepper.max_step_s", 0.0),
    ("stepper.max_step_s", -1e-4), ("stepper.max_step_s", 3e-4),
])
def test_sampling_inputs_rejected_at_parse(tmp_path, capsys, field, value):
    block, key = field.split(".")
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"duration": 0.04, block: {key: value}}))
    assert main(["joint", "--scenario", str(p), "--out", str(tmp_path),
                 "--no-svg"]) == EXIT_USAGE
    assert field in capsys.readouterr().err


def test_max_step_at_a_tenth_of_the_period_accepted(tmp_path):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"name": "edge", "duration": 0.04,
                             "stepper": {"max_step_s": 2.5e-4},
                             "record": {"decimation": 1}}))
    assert main(["joint", "--scenario", str(p), "--out", str(tmp_path),
                 "--no-svg"]) == EXIT_OK
    body = (tmp_path / "joint_edge_fast.csv").read_text().strip().split("\n")
    assert len(body) == 1 + 160      # 0.04 s at 2.5e-4 s, every sample


def test_joint_macro_step_shorter_than_rms_window_is_usage_error(tmp_path, capsys):
    # the regulator's rms window needs one machine period of samples per
    # macro step; the gas-path-only transient has no such window
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"duration": 0.02}))
    argv = ["--scenario", str(p), "--macro-dt", "0.002", "--out", str(tmp_path),
            "--no-svg"]
    assert main(["joint"] + argv) == EXIT_USAGE
    assert "macro_dt" in capsys.readouterr().err
    assert main(["transient"] + argv) == EXIT_OK
    # the shortest joint step: one period (2.5 ms at 400 Hz) plus max_step_s
    p.write_text(json.dumps({"duration": 0.0104, "macro_dt": 0.0026}))
    assert main(["joint", "--scenario", str(p), "--out", str(tmp_path),
                 "--no-svg"]) == EXIT_OK


@pytest.mark.parametrize("value", ["0", "-3", "1.5"])
def test_genrun_decimation_must_be_positive_integer(tmp_path, capsys, value):
    assert main(["genrun", "--decimation", value, "--duration", "0.02",
                 "--out", str(tmp_path), "--no-svg"]) == EXIT_USAGE
    assert "--decimation" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [
    StepUnderflow(0.1, 1e-14, 1e-13), NonFiniteDerivative(0.1, 3),
    SingularJacobian(2), SingularStageMatrix(0.1, 1e-5),
    NonFiniteResidual("residual not finite"),
    SingularSystem("fault-loop system is singular"),
], ids=lambda e: type(e).__name__)
def test_machine_stepper_failures_exit_2(tmp_path, capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "run_generator", fail)
    assert main(["genrun", "--duration", "0.02", "--out", str(tmp_path),
                 "--no-svg"]) == EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err


def test_genrun_fault_at_time_zero_applies(tmp_path, capsys):
    rc = main(["genrun", "--duration", "0.06", "--mu", "0.05", "--fault-time",
               "0", "--out", str(tmp_path), "--json", "--no-svg"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    currents = [doc["rms"][f"Phase {ph} Current"] for ph in "ABC"]
    assert max(currents) / min(currents) > 1.01


@pytest.mark.parametrize("flag, value, extra", [
    ("--duration", "0.51", []), ("--duration", "0.01", []),
    ("--duration", "0", []), ("--duration", "-0.02", []),
    ("--duration", "inf", []), ("--duration", "nan", []),
    ("--fault-time", "-0.01", ["--mu", "0.05"]),
    ("--fault-time", "0.1", ["--mu", "0.05"]),
    ("--fault-time", "0.2", ["--mu", "0.05"]),
])
def test_genrun_duration_and_fault_time_rejected(tmp_path, capsys, flag, value, extra):
    argv = ["genrun", "--duration", "0.1", "--out", str(tmp_path), "--no-svg"]
    argv += extra + [flag, value]
    assert main(argv) == EXIT_USAGE
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("value, field", [
    ("-0.02", "macro_dt"), ("0", "macro_dt"), ("0.03", "duration"),
    ("inf", "macro_dt"), ("0.2", "duration"),
])
def test_macro_dt_override_validated(tmp_path, capsys, value, field):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"duration": 0.1}))
    assert main(["transient", "--scenario", str(p), f"--macro-dt={value}",
                 "--out", str(tmp_path), "--no-svg"]) == EXIT_USAGE
    assert field in capsys.readouterr().err
