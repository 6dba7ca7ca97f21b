import json
import math
import warnings

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


@pytest.mark.parametrize("power, flags", [
    # a point where a second, cold cycle match at the trimmed fuel flow
    # moved the reported power by more than the trim tolerance
    (284.1510427167631,
     ["--speed", "36499.158854827525", "--altitude", "6478.09166454904",
      "--mach", "0.4797914561759314", "--eta-c", "1.0010192850927029",
      "--flow-c", "0.9891457625583839", "--eta-t", "1.0188391495831435",
      "--flow-t", "0.9996266277028348"]),
    # no load and near-idle at design speed, and 400 kW at two corners of the
    # health-factor range: a secant on the fuel flow alone, each step a full
    # match, left the compressor map at all four
    (0.0, []), (5.0, []),
    (400.0, ["--eta-c", "0.8", "--flow-c", "0.8", "--eta-t", "0.8", "--flow-t", "1.2"]),
    (400.0, ["--eta-c", "1.2", "--flow-c", "1.2", "--eta-t", "1.2", "--flow-t", "0.8"]),
], ids=["cold-rematch", "0kW", "5kW", "400kW-degraded-corner", "400kW-improved-corner"])
def test_steady_reports_the_trimmed_point(capsys, power, flags):
    argv = ["steady", "--json", "--power", repr(power), *flags]
    assert main(argv) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert abs(out["values"]["PWSD"] - power) <= 1e-9 * max(power, 1.0)
    assert out["residual_norm"] < 1e-10


def test_steady_sweep(capsys):
    assert main(["steady", "--power", "400", "--sweep"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 6
    sfc = [float(l.split()[2]) for l in lines[1:]]
    assert sfc == sorted(sfc, reverse=True)   # lower eta_c -> higher SFC


@pytest.mark.parametrize("argv, named", [
    (["--preset-index", "3", "--altitude", "5000"], "--altitude"),
    (["--preset-index", "3", "--mach", "0"], "--mach"),
    (["--preset-index", "3", "--power", "100", "--json"], "--power"),
    (["--sweep", "--json"], "--json"),
    (["--sweep", "--eta-c", "1.0"], "--eta-c"),
], ids=["preset-altitude", "preset-mach", "preset-power", "sweep-json", "sweep-eta-c"])
def test_steady_flag_that_would_be_overridden_is_usage_error(capsys, argv, named):
    # --preset-index sets the point and --sweep the compressor efficiency
    # factor and a text table, so a flag they would override is refused
    assert main(["steady", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"cannot be given with {named}" in captured.err and not captured.out


@pytest.fixture
def fresh_caches():
    """The parser and the default engine built anew for the test, and again
    for the next one, whatever ran before."""
    caches = (cli._parser, cli._default_engine)   # before any monkeypatch
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_shared_parser_leaks_no_state_between_calls(tmp_path, capsys, monkeypatch,
                                                    fresh_caches):
    def sequence(out):
        argvs = [["steady", "--json", "--power", "300"], ["steady", "--power", "300"],
                 ["genrun", "--duration", "0.04", "--no-svg", "--out", str(out / "a")],
                 ["genrun", "--duration", "0.04", "--out", str(out / "b")],
                 ["steady", "--power", "-5"], ["--help"],
                 ["steady", "--json", "--power", "300"]]
        runs = []
        for argv in argvs:
            rc = main(argv)
            captured = capsys.readouterr()
            runs.append((rc, captured.out, captured.err))
        return runs, [sorted(p.name for p in (out / d).iterdir()) for d in "ab"]

    shared, shared_files = sequence(tmp_path / "shared")
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh, fresh_files = sequence(tmp_path / "fresh")
    assert shared == fresh and shared_files == fresh_files
    assert [rc for rc, _, _ in shared] == [EXIT_OK] * 4 + [EXIT_USAGE, EXIT_OK, EXIT_OK]
    assert shared[-1] == shared[0]
    assert not any(f.endswith(".svg") for f in shared_files[0])
    assert any(f.endswith(".svg") for f in shared_files[1])


def test_steady_points_build_the_parser_once_and_size_once(capsys, monkeypatch,
                                                          fresh_caches):
    argvs = [["steady", "--json", "--preset-index", str(k)] for k in range(10)]
    uncached = []
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli._parser.__wrapped__)
        m.setattr(cli, "_default_engine", cli._default_engine.__wrapped__)
        for argv in argvs:
            assert main(argv) == EXIT_OK
            uncached.append(capsys.readouterr().out)
    assert json.loads(uncached[3])["title"] == "Off-design point: 0km 0Ma 230kW"

    calls = {"build_parser": 0, "design_point_size": 0}

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    for argv, expected in zip(argvs, uncached):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == expected
    assert calls == {"build_parser": 1, "design_point_size": 1}


def test_steady_beyond_the_burner_limit_is_t4_out_of_range(capsys):
    # the trim's iterate that needs a burner outlet above the property
    # tables' 2000 K ends as T4OutOfRange, not as a failed inversion
    assert main(["steady", "--json", "--power", "5000"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "burner outlet temperature above 2000 K" in err
    assert "outside [200.0, 2000.0]" not in err


@pytest.mark.parametrize("power, flags, margin", [
    (1000.0, [], "-3.39"),
    (400.0, ["--eta-c", "0.8", "--flow-c", "0.8", "--eta-t", "1.2", "--flow-t", "0.8"],
     "-4.92"),
    (400.0, ["--eta-c", "1.2", "--flow-c", "0.8", "--eta-t", "0.8", "--flow-t", "0.8"],
     "-13.85"),
], ids=["1000kW", "400kW-corner-a", "400kW-corner-b"])
def test_steady_past_the_surge_line_is_numeric_error(capsys, power, flags, margin):
    # the trim converges, but at a point past the compressor's surge line
    assert main(["steady", "--json", "--power", repr(power), *flags]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert f"surge margin {margin} %" in captured.err and not captured.out


@pytest.mark.parametrize("argv", [
    ["steady", "--disa", "2000"], ["design", "--disa", "2000"],
    ["steady", "--disa", "-100"], ["design", "--t4", "5000"],
    ["steady", "--json", "--disa", "1500", "--mach", "0.9"],
])
def test_temperature_outside_the_property_tables_is_usage_error(capsys, argv):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "outside" in err and "Traceback" not in err


def test_steady_out_of_envelope_is_numeric_error(capsys):
    # far outside the map envelope: the cycle match cannot converge
    rc = main(["steady", "--power", "500", "--speed", "9000"])
    assert rc == EXIT_NUMERIC


@pytest.mark.parametrize("speed, refused", [
    ("50000", True), ("1e300", True), ("43260.001", True), ("43260", False),
])
def test_steady_speed_takes_the_spool_range(capsys, monkeypatch, speed, refused):
    # the spool runs in (0, 1.2 design speed], 43,260 rpm: a steady point
    # above it is refused before any trim
    monkeypatch.setattr(cli, "trim_fuel", _reach)
    argv = ["steady", "--json", "--speed", speed, "--power", "300"]
    if not refused:
        with pytest.raises(_Reached):
            main(argv)
        return
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--speed" in err and "43260" in err


def test_steady_without_compressor_flow_is_numeric_error(capsys):
    # at 1e-250 rpm the map flow underflows to 0: the cycle pass stops
    # before it divides by the flow, so no numpy warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["steady", "--json", "--speed", "1e-250"]) == EXIT_NUMERIC
    assert "no compressor flow at 1e-250 rpm" in capsys.readouterr().err


def test_transient_zero_length_run(tmp_path, capsys):
    scn = {"name": "flat", "duration": 0.1, "macro_dt": 0.02,
           "fuel_step": {"factor": 1.0, "initial_power_kw": 300.0}}
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(scn))
    rc = main(["transient", "--scenario", str(p), "--out", str(tmp_path),
               "--no-svg"])
    assert rc == EXIT_OK
    body = (tmp_path / "transient_flat_slow.csv").read_text().strip().split("\n")
    assert len(body) == 6    # header + 5 macro steps


def test_transient_writes_its_four_svgs(tmp_path, capsys):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"duration": 0.1}))
    out = tmp_path / "out"
    assert main(["transient", "--scenario", str(p), "--out", str(out)]) == EXIT_OK
    groups = ("p3", "speed", "surge", "t4")
    assert sorted(f.name for f in out.glob("*.svg")) == [
        f"transient_design_{group}.svg" for group in groups]
    for group in groups:
        assert "<polyline" in (out / f"transient_design_{group}.svg").read_text()


def test_transient_svgs_escape_the_scenario_name(tmp_path, capsys):
    # the name is the SVG title's text, so its markup characters are escaped
    from xml.dom import minidom
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"name": "a&b<c", "duration": 0.2,
                             "fuel_step": {"time_s": 0.1, "factor": 1.05}}))
    out = tmp_path / "out"
    assert main(["transient", "--scenario", str(p), "--out", str(out)]) == EXIT_OK
    svgs = sorted(out.glob("*.svg"))
    assert len(svgs) == 4
    for svg in svgs:
        title = minidom.parse(str(svg)).getElementsByTagName("text")[0]
        assert title.firstChild.data.startswith("a&b<c: ")


@pytest.mark.parametrize("name", ["../escaped", "a\\b", "a\0b"])
@pytest.mark.parametrize("command", ["transient", "joint"])
def test_name_that_is_no_file_name_part_is_refused(tmp_path, capsys, command, name):
    # the name is part of each output file's name, so a path separator or a
    # NUL is refused at parse time, before any --out directory is made
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"name": name, "duration": 0.2}))
    out = tmp_path / "out"
    assert main([command, "--scenario", str(p), "--out", str(out)]) == EXIT_USAGE
    assert "at name: expected a name without /, \\ or NUL" in capsys.readouterr().err
    assert not out.exists()


def test_name_of_the_longest_file_name_part_runs(tmp_path, capsys):
    # a name of MAX_NAME_BYTES UTF-8 bytes makes transient_<name>_manifest.json
    # exactly 255 bytes long, the longest file name a run writes
    name = "n" * 231
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"name": name, "duration": 0.2}))
    out = tmp_path / "out"
    assert main(["transient", "--scenario", str(p), "--out", str(out)]) == EXIT_OK
    assert (out / f"transient_{name}_manifest.json").exists()
    assert len(list(out.glob("*.svg"))) == 4


@pytest.mark.parametrize("name", ["n" * 232, "\u00e9" * 116], ids=["ascii", "two-byte"])
@pytest.mark.parametrize("command", ["transient", "joint"])
def test_name_too_long_for_a_file_name_is_refused(tmp_path, capsys, command, name):
    # over 231 UTF-8 bytes, whatever the count of characters, a run's file
    # names pass 255 bytes: refused at parse time, before --out is made
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"name": name, "duration": 0.2}))
    out = tmp_path / "out"
    assert main([command, "--scenario", str(p), "--out", str(out)]) == EXIT_USAGE
    assert "at name: expected a name of at most 231 UTF-8 bytes" in capsys.readouterr().err
    assert not out.exists()


def test_name_not_encodable_as_utf8_is_refused(tmp_path, capsys):
    # a lone surrogate has no UTF-8 bytes, so it can name no file
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"name": "a\ud800b", "duration": 0.04}))
    out = tmp_path / "out"
    assert main(["transient", "--no-svg", "--scenario", str(p),
                 "--out", str(out)]) == EXIT_USAGE
    assert "at name: expected a name encodable as UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_joint_without_a_fast_row_writes_the_slow_track_and_its_plots(tmp_path, capsys):
    # a decimation longer than the run records no fast-track row: there is
    # no fast CSV and nothing to plot of the phase currents and voltages
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"name": "sparse", "duration": 0.04,
                             "record": {"decimation": 100000}}))
    assert main(["joint", "--scenario", str(p), "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "joint_sparse_slow.csv").exists()
    assert not (tmp_path / "joint_sparse_fast.csv").exists()
    svgs = sorted(f.name for f in tmp_path.glob("*.svg"))
    assert len(svgs) == 5 and not any("currents" in f or "voltages" in f for f in svgs)


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


def test_joint_cubic_speed_law_load_starts_steady(tmp_path, capsys):
    # the start is trimmed for the power the load draws at the run's speed
    # and field voltage, so the spool holds its setpoint
    from apucosim.scenario import parse_scenario
    doc = {"duration": 0.2, "load": {"kind": "cubic-speed-law"}}
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(doc))
    assert main(["joint", "--scenario", str(p), "--out", str(tmp_path / "out"),
                 "--no-svg"]) == EXIT_OK
    rows = (tmp_path / "out" / "joint_design_slow.csv").read_text().split()
    column = rows[0].split(",").index("XNHPC_r/min")
    speeds = [float(row.split(",")[column]) for row in rows[1:]]
    n_set = parse_scenario(json.dumps(doc))["governor"]["n_set_rpm"]
    assert len(speeds) == 10
    assert max(abs(n / n_set - 1.0) for n in speeds) < 1e-9


def test_bad_scenario_is_usage_error(tmp_path):
    p = tmp_path / "scn.json"
    p.write_text('{"unknown_key": 1}')
    assert main(["joint", "--scenario", str(p), "--out",
                 str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["transient", "joint"])
def test_a_document_nested_past_the_parser_limit_is_refused(tmp_path, capsys, command):
    # a nesting the JSON parser cannot recurse through is a schema error at
    # the document, with no traceback and before any --out directory is made
    p = tmp_path / "scn.json"
    p.write_text("[" * 100000 + "]" * 100000)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(p), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: at <document>: expected JSON nested")
    assert not out.exists()


@pytest.mark.parametrize("flags, parses", [
    ([], 1), (["--seed", "3", "--state-noise", "2", "--macro-dt", "0.02"], 2),
], ids=["document", "overrides"])
def test_joint_parses_its_document_once_and_its_overrides_once(
        tmp_path, monkeypatch, flags, parses):
    texts = []
    parse = cli.sc.parse_scenario
    monkeypatch.setattr(cli.sc, "parse_scenario",
                        lambda text: texts.append(text) or parse(text))
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"name": "once", "duration": 0.04}))
    assert main(["joint", "--scenario", str(p), "--out", str(tmp_path),
                 "--no-svg", *flags]) == EXIT_OK
    assert len(texts) == parses
    scenario = json.loads((tmp_path / "joint_once_manifest.json").read_text())["scenario"]
    assert (scenario["seed"], scenario["hook"]) == (
        (3, {"std_rpm": 2.0}) if flags else (0, {"std_rpm": 0.0}))


def test_joint_runs_batch_parallel(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("APU_COSIM_THREADS", "2")
    scn = {"name": "batch", "duration": 0.1}
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(scn))
    rc = main(["joint", "--scenario", str(p), "--runs", "2",
               "--state-noise", "2.0"])
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


def test_joint_runs_refuse_merged(tmp_path, capsys):
    # a batch prints a summary and writes no files, so it has no merged
    # view, no --out directory and no plots: each flag given is refused by
    # name, a default value given included, and no directory is made
    out = tmp_path / "o1"
    for flags, named in ((["--merged"], "--merged"),
                         (["--out", str(out)], "--out"),
                         (["--out", "out"], "--out"),
                         (["--svg"], "--svg"),
                         (["--no-svg"], "--no-svg"),
                         (["--merged", "--out", str(out), "--no-svg"],
                          "--merged, --out, --no-svg")):
        assert main(["joint", "--runs", "2", *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.endswith(f"cannot be given with {named}\n")
        assert not captured.out
        assert not out.exists()


def test_transient_runs_at_two_ambients_keep_their_bytes(tmp_path, capsys):
    # the ambient states are computed once per distinct ambient and kept for
    # the process: runs at two ambients, back to back in one process, each
    # write the bytes that run writes alone, from an empty memo
    from apucosim.gasgen import ambient_conditions
    docs = {"sea": {"name": "sea", "duration": 0.1},
            "aloft": {"name": "aloft", "duration": 0.1,
                      "ambient": {"altitude": 2500.0, "mach": 0.3}}}

    def run(name, out):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(docs[name]))
        assert main(["transient", "--scenario", str(p), "--out", str(out),
                     "--no-svg"]) == EXIT_OK
        capsys.readouterr()
        return {f.name: f.read_bytes() for f in out.iterdir()}

    alone = {}
    for name in docs:
        ambient_conditions.cache_clear()
        alone[name] = run(name, tmp_path / f"alone_{name}")
    assert alone["sea"]["transient_sea_slow.csv"] != alone["aloft"]["transient_aloft_slow.csv"]
    ambient_conditions.cache_clear()
    for k, name in enumerate(("sea", "aloft", "sea", "aloft")):
        assert run(name, tmp_path / f"chained{k}") == alone[name]


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


@pytest.mark.parametrize("doc, field", [
    ({"gas_path_faults": [{"eta_c_factor": 0.5}]}, "gas_path_faults[0].eta_c_factor"),
    ({"gas_path_faults": [{}, {"flow_t_factor": 1.3}]},
     "gas_path_faults[1].flow_t_factor"),
    ({"ambient": {"mach": 1.5}}, "ambient.mach"),
    ({"ttsc_faults": [{"mu": 1.5}]}, "ttsc_faults[0].mu"),
    ({"ttsc_faults": [{"mu": 0.05, "k_rf": -1}]}, "ttsc_faults[0].k_rf"),
    ({"ambient": {"dT_ISA": -200}}, "ambient.dT_ISA"),
    ({"load": {"power_kw": 0}}, "load.power_kw"),
    ({"governor": {"n_set_rpm": -1}}, "governor.n_set_rpm"),
    ({"governor": {"n_set_rpm": 0}}, "governor.n_set_rpm"),
    ({"machine": {"eta_sg": 0}}, "machine.eta_sg"),
    ({"machine": {"eta_sg": 1.01}}, "machine.eta_sg"),
    ({"record": {"decimation": 1e300}}, "record.decimation"),
    ({"seed": -1}, "seed"),
    *(({block: {key: value}}, f"{block}.{key}")
      for block, key in (("avr", "v_set"), ("machine", "two_machine_factor"),
                         ("governor", "wf_max"), ("machine", "v_phase_rms"))
      for value in (0, -1)),
    # the ranges the model constructors enforce: widths >= 0, and the
    # coupling and design quantities > 0 (the pressure ratio > 1)
    *(({block: {key: -1}}, f"{block}.{key}")
      for block, key in (("noise", "std_w1"), ("noise", "std_w2"), ("noise", "std_vi"),
                         ("noise", "std_vv"), ("hook", "std_rpm"), ("load", "l_phase_h"))),
    ({"noise": {"gasgen_output": {"T4": -1}}}, "noise.gasgen_output.T4"),
    ({"hook": {"std_rpm": -1e-9}}, "hook.std_rpm"),
    *(({block: {key: value}}, f"{block}.{key}")
      for block, key in (("coupling", "eta"), ("coupling", "speed_ratio"),
                         *(("gasgen", key) for key in (
                             "shaft_power_kw", "pressure_ratio", "t4_k")))
      for value in (0, -1)),
    # the ids number the cases, and the cases placed among the design
    # quantities keep the later numbers: load-schedule times within the run
    ({"load": {"schedule": [{"time_s": 0.05}]}}, "load.schedule[0].time_s"),
    ({"load": {"schedule": [{"time_s": -0.01}]}}, "load.schedule[0].time_s"),
    *(({"gasgen": {key: value}}, f"gasgen.{key}")
      for key in ("lhv_mj_per_kg", "design_speed_rpm", "eta_compressor")
      for value in (0, -1)),
    # and the kinds the run knows; the hook has none
    ({"hook": {"kind": "dither"}}, "hook.kind"),
    ({"load": {"kind": "motor"}}, "load.kind"),
    *(({"gasgen": {key: value}}, f"gasgen.{key}")
      for key in ("w2_kg_per_s", "inertia_kg_m2")
      for value in (0, -1)),
    # the regulators' limits and the fuel step: rates, limits and the
    # factor > 0, fuel floor and gains >= 0, and the floor below the ceiling
    *(({block: {key: value}}, f"{block}.{key}")
      for block, key in (("governor", "rate_limit"), ("avr", "v_fd_max"),
                         ("fuel_step", "factor"))
      for value in (0, -1)),
    *(({block: {key: -1}}, f"{block}.{key}")
      for block, key in (("governor", "wf_min"), ("governor", "kp"), ("governor", "ki"),
                         ("avr", "kp"), ("avr", "ki"))),
    ({"governor": {"wf_min": 0.085}}, "governor.wf_min"),
    ({"governor": {"wf_min": 0.01, "wf_max": 0.005}}, "governor.wf_min"),
    # the design burner outlet temperature lies within the property tables
    ({"gasgen": {"t4_k": 5000}}, "gasgen.t4_k"),
    ({"gasgen": {"t4_k": 150}}, "gasgen.t4_k"),
    # load-schedule times in order, and an intake total temperature, after
    # the ram rise, within the property tables
    ({"load": {"schedule": [{"time_s": 0.02}, {"time_s": 0.01}]}},
     "load.schedule[1].time_s"),
    ({"load": {"schedule": [{"time_s": 0.02}, {"time_s": 0.02}]}},
     "load.schedule[1].time_s"),
    ({"ambient": {"dT_ISA": 1500, "mach": 0.9}}, "ambient.dT_ISA"),
    # a hook width that is no finite number, a leaf that another leaf
    # switches off, set off its default, and a k_rf that opens the fault
    # branch
    ({"hook": {"std_rpm": math.inf}}, "hook.std_rpm"),
    ({"hook": {"std_rpm": "5"}}, "hook.std_rpm"),
    ({"ttsc_faults": [{"mu": 0, "k_rf": 7}]}, "ttsc_faults[0].k_rf"),
    ({"ttsc_faults": [{"mu": 0.05}, {"time_s": 0.02, "mu": 0, "k_rf": 0.5}]},
     "ttsc_faults[1].k_rf"),
    ({"ttsc_faults": [{"mu": 0.05, "k_rf": 1e6}]}, "ttsc_faults[0].k_rf"),
    ({"fuel_step": {"time_s": 1.0}}, "fuel_step.time_s"),
    # a fuel step after the run's end (the default time_s is 3 s)
    ({"fuel_step": {"factor": 1.1}}, "fuel_step.time_s"),
    # inputs that ran the same as another input: the hook's kind, the
    # governor's feed-forward switch and the series-RL load kind
    ({"hook": {"kind": "speed-noise"}}, "hook.kind"),
    ({"governor": {"feed_forward": False}}, "governor.feed_forward"),
    ({"load": {"kind": "series-RL"}}, "load.kind"),
])
def test_model_ranges_rejected_at_parse(tmp_path, capsys, doc, field):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"duration": 0.04, **doc}))
    # refused when the document is parsed, by either command that reads one
    for command in ("joint", "transient"):
        assert main([command, "--scenario", str(p), "--out", str(tmp_path / "out"),
                     "--no-svg"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert (f"at {field}:" in err or f"unknown field {field}\n" in err) \
            and "Warning" not in err
    assert not (tmp_path / "out").exists()


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


class _Reached(Exception):
    pass


def _reach(*args, **kwargs):
    raise _Reached


@pytest.mark.parametrize("value", ["0", "-3", "1.5", "1000001",
                                   "99999999999999999999"])
def test_genrun_decimation_must_be_positive_integer(tmp_path, capsys, monkeypatch,
                                                    value):
    # at most MAX_FAST_STEPS, as record.decimation
    monkeypatch.setattr(cli, "run_generator", _reach)
    assert main(["genrun", "--decimation", value, "--duration", "0.02",
                 "--out", str(tmp_path), "--no-svg"]) == EXIT_USAGE
    assert "argument --decimation" in capsys.readouterr().err


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
    # more than MAX_FAST_STEPS machine samples at 12,000 rpm: 95.7 s may
    # take 1,000,065
    ("--duration", "95.7", []), ("--duration", "1e300", []),
    # the fault's flags without a fault, and a k_rf that opens its branch
    ("--k-rf", "5", []), ("--fault-time", "0.02", []), ("--k-rf", "5", ["--mu", "0"]),
    ("--k-rf", "1e6", ["--mu", "0.05"]),
])
def test_genrun_duration_and_fault_time_rejected(tmp_path, capsys, monkeypatch,
                                                 flag, value, extra):
    monkeypatch.setattr(cli, "run_generator", _reach)
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


# a whole shorted phase (mu = 1) zeroes the fault current's denominator
# mu (1 - mu) L_ls; it is refused before any numpy arithmetic runs
@pytest.mark.parametrize("mu", [1.0, 1.5, -0.01])
def test_ttsc_mu_outside_half_open_unit_interval_rejected(tmp_path, capsys, mu):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"duration": 0.04, "ttsc_faults": [{"mu": mu}]}))
    assert main(["joint", "--scenario", str(p), "--out", str(tmp_path),
                 "--no-svg"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "ttsc_faults[0].mu" in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("mu", ["1.0", "1.2", "-0.05", "nan"])
def test_genrun_mu_outside_half_open_unit_interval_rejected(tmp_path, capsys, mu):
    argv = ["genrun", "--duration", "0.1", "--mu", mu, "--fault-time", "0",
            "--out", str(tmp_path), "--no-svg"]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--mu" in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("key, value", [
    ("relative_tolerance", 0.0), ("relative_tolerance", -1e-4),
    ("relative_tolerance", "Infinity"), ("relative_tolerance", "NaN"),
    ("absolute_tolerance", 0.0), ("absolute_tolerance", -1.0),
    ("absolute_tolerance", "Infinity"),
    # 4e10 fast steps in 0.04 s: refused before any array is sized
    ("max_step_s", 1e-12),
])
def test_stepper_fields_rejected_at_parse_with_path(tmp_path, capsys, key, value):
    p = tmp_path / "scn.json"
    text = json.dumps({"duration": 0.04, "stepper": {key: "VALUE"}})
    # NaN and Infinity as JSON's non-standard literals, which json.loads reads
    p.write_text(text.replace('"VALUE"', str(value)))
    assert main(["joint", "--scenario", str(p), "--out", str(tmp_path),
                 "--no-svg"]) == EXIT_USAGE
    assert f"stepper.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("duration, accepted", [(94.96, True), (94.98, False)])
def test_fast_step_bound_judges_genrun_and_a_scenario_alike(tmp_path, capsys, monkeypatch,
                                                             duration, accepted):
    # genrun's machine steps are at most 1e-4 s, as a scenario's with
    # stepper.max_step_s 1e-4, and at 14,400 rpm genrun runs at the speed a
    # joint run's bound takes, the spool's limit through the default
    # gearbox: 94.96 s may take 999,929 samples, 94.98 s 1,000,140
    from apucosim.cosim import GENERATOR_STEPPER
    from apucosim.scenario import SchemaError, parse_scenario
    assert GENERATOR_STEPPER.max_step == 1e-4
    monkeypatch.setattr(cli, "run_generator", _reach)
    argv = ["genrun", "--speed-rpm", "14400", "--duration", repr(duration),
            "--out", str(tmp_path), "--no-svg"]
    doc = json.dumps({"duration": duration, "stepper": {"max_step_s": 1e-4}})
    if accepted:
        with pytest.raises(_Reached):
            main(argv)
        assert parse_scenario(doc)["duration"] == duration
    else:
        assert main(argv) == EXIT_USAGE
        assert ("--duration must keep the run within 1,000,000 machine samples"
                in capsys.readouterr().err)
        with pytest.raises(SchemaError, match="at stepper.max_step_s"):
            parse_scenario(doc)


def test_fast_step_cap_bound_accepted_at_parse():
    from apucosim.cosim import CouplingParams, fast_sample_bound, joint_w_e_max
    from apucosim.scenario import MAX_FAST_STEPS, SchemaError, parse_scenario
    # 0.2 s in 10 macro steps at up to 480 electrical periods a second: the
    # bound ceil(0.2 (1 / max_step_s + 480)) + 10 is MAX_FAST_STEPS exactly
    # at this step, and one more at the step one ulp shorter
    step = 2.0002120224743824e-07
    w_e_max = joint_w_e_max(36050.0, CouplingParams(), pole_pairs=2)
    assert w_e_max / (2 * math.pi) == pytest.approx(480.0, rel=1e-15)
    assert fast_sample_bound(0.2, 0.02, step, w_e_max, 0) == MAX_FAST_STEPS
    doc = {"duration": 0.2, "stepper": {"max_step_s": step}}
    assert parse_scenario(json.dumps(doc))["stepper"]["max_step_s"] == step
    # one ulp shorter, and the bound of duration / max_step_s alone, refused
    for duration, step in ((0.2, math.nextafter(step, 0.0)), (1.0, 1e-6)):
        doc = {"duration": duration, "stepper": {"max_step_s": step}}
        with pytest.raises(SchemaError, match="stepper.max_step_s"):
            parse_scenario(json.dumps(doc))


def test_a_run_past_the_sample_bound_at_a_high_gear_is_refused(tmp_path, capsys):
    # at coupling.speed_ratio 0.01 the generator turns at 100 times the
    # spool's speed, and a faulted grid steps at 144,200 periods a second at
    # the spool's limit: 80 s may take 12,340,001 samples, where the cap of
    # duration / (0.9 max_step_s) alone admitted it
    p = tmp_path / "gear.json"
    p.write_text(json.dumps({"duration": 80, "coupling": {"speed_ratio": 0.01},
                             "ttsc_faults": [{"time_s": 1, "mu": 0.05, "k_rf": 1}]}))
    out = tmp_path / "out"
    assert main(["joint", "--scenario", str(p), "--no-svg", "--out", str(out)]) == EXIT_USAGE
    assert "stepper.max_step_s" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_set, code", [(45000.0, EXIT_USAGE), (43260.0, EXIT_OK)])
def test_a_governor_setpoint_past_the_spools_limit_is_refused(tmp_path, capsys, n_set,
                                                              code):
    # the first macro step runs at the setpoint, so one above the spool's
    # limit, 1.2 times gasgen.design_speed_rpm, is refused before the run,
    # naming the leaf and the limit, with no --out left; one on it runs
    p = tmp_path / "gov.json"
    p.write_text(json.dumps({"duration": 0.04, "governor": {"n_set_rpm": n_set}}))
    out = tmp_path / "out"
    assert main(["joint", "--scenario", str(p), "--no-svg", "--out", str(out)]) == code
    assert out.exists() == (code == EXIT_OK)
    if code == EXIT_USAGE:
        assert ("at governor.n_set_rpm: expected speed within (0, 43260] rpm, 1.2 times "
                "gasgen.design_speed_rpm, found 45000.0") in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3", "1.5", "two"])
def test_joint_runs_must_be_positive_integer(tmp_path, capsys, value):
    assert main(["joint", "--runs", value, "--out", str(tmp_path),
                 "--no-svg"]) == EXIT_USAGE
    assert "--runs" in capsys.readouterr().err


def test_joint_worker_variable_must_be_an_integer(tmp_path, capsys, monkeypatch):
    # rejected before the pool starts, so no process is started
    monkeypatch.setenv("APU_COSIM_THREADS", "two")
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"duration": 0.04}))
    assert main(["joint", "--scenario", str(p), "--runs", "2"]) == EXIT_USAGE
    assert "APU_COSIM_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("runs, threads, cpus, expected", [
    (2, None, 8, 2), (2, "", 8, 2), (2, "0", 8, 2), (5, None, 2, 2),
    (5, "64", 4, 4), (5, "3", 4, 3), (1, "3", 4, 1), (3, " 2 ", 4, 2),
])
def test_pool_size_capped_at_cpus_and_runs(runs, threads, cpus, expected):
    assert cli._pool_size(runs, threads, cpus) == expected


@pytest.mark.parametrize("threads", ["-1", "1.5", "x", "²"])
def test_pool_size_rejects_non_integer_variable(threads):
    with pytest.raises(ValueError, match="APU_COSIM_THREADS"):
        cli._pool_size(2, threads, 4)


# float flags are checked by their argparse type, before anything runs: a
# bad value exits 1 naming the flag, with no traceback or numpy warning
@pytest.mark.parametrize("flag, value", [
    ("--power-kw", "0"), ("--power-kw", "-225"), ("--power-kw", "nan"),
    ("--power-kw", "inf"), ("--speed-rpm", "0"), ("--speed-rpm", "-12000"),
    ("--speed-rpm", "nan"), ("--speed-rpm", "-inf"), ("--k-rf", "nan"),
    ("--k-rf", "-1"),
    # above the generator speed of the spool's limit, 1.2 * 12,000 rpm
    ("--speed-rpm", "14400.5"), ("--speed-rpm", "1e300"),
])
def test_genrun_float_flags_rejected_at_parse(tmp_path, capsys, flag, value):
    argv = ["genrun", "--duration", "0.02", "--mu", "0.05", "--fault-time",
            "0", "--out", str(tmp_path), "--no-svg", flag, value]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not list(tmp_path.iterdir())


# a steady start whose field voltage the AVR cannot give (above 200 V) is
# refused before its shaft power is evaluated
@pytest.mark.parametrize("flag, value", [("--power-kw", "2000"), ("--speed-rpm", "100"),
                                         ("--power-kw", "1e300")])
def test_genrun_start_beyond_the_field_limit_refused(tmp_path, capsys, flag, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["genrun", "--duration", "0.02", "--json", "--no-svg",
                     "--out", str(tmp_path / "out"), flag, value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"{flag} " in captured.err and "field voltage" in captured.err
    assert "200 V" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    # the refusal comes before any output, so no --out directory is made
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--power-kw", "1000"), ("--speed-rpm", "14400")])
def test_genrun_start_within_the_field_limit_runs(tmp_path, capsys, flag, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["genrun", "--duration", "0.02", "--json", "--no-svg",
                     "--out", str(tmp_path), flag, value]) == EXIT_OK
    assert capsys.readouterr().err == ""


# a joint start whose field voltage the AVR cannot give names the scenario
# leaves that set it, in one run and in a batch
@pytest.mark.parametrize("flags", [["--no-svg"], ["--runs", "2"]], ids=["run", "batch"])
def test_joint_start_beyond_the_field_limit_names_its_leaves(tmp_path, capsys, flags):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"duration": 0.04, "avr": {"v_fd_max": 50}}))
    out = [] if "--runs" in flags else ["--out", str(tmp_path / "out")]
    assert main(["joint", "--scenario", str(p), *flags, *out]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert ("avr.v_fd_max 50, avr.v_set 230 and load.power_kw 225: the steady "
            "start at 230 V rms needs a field voltage of 52.8781 V") in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_joint_hook_flag_is_gone(tmp_path, capsys):
    # the hook's one setting is --state-noise; 0 runs no hook
    assert main(["joint", "--hook", "none", "--out", str(tmp_path / "out"),
                 "--no-svg"]) == EXIT_USAGE
    assert "unrecognized arguments: --hook" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [
    ("--speed", "nan"), ("--speed", "0"), ("--speed", "-100"),
    ("--power", "nan"), ("--power", "-5"), ("--power", "inf"),
    ("--mach", "-0.1"), ("--altitude", "nan"), ("--disa", "inf"),
    ("--eta-c", "nan"), ("--flow-t", "x"), ("--preset-index", "10"),
])
def test_steady_float_flags_rejected_at_parse(capsys, flag, value):
    assert main(["steady", flag, value]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("flag, value", [
    ("--shaft-power", "nan"), ("--shaft-power", "-500"), ("--t4", "inf"),
    ("--pressure-ratio", "nan"), ("--pressure-ratio", "0"),
    ("--altitude", "-inf"), ("--mach", "-0.5"), ("--disa", "nan"),
])
def test_design_float_flags_rejected_at_parse(capsys, flag, value):
    assert main(["design", flag, value]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("command", ["joint"])
@pytest.mark.parametrize("value", ["-1", "1.5"])
def test_seed_flag_must_be_nonnegative_integer(tmp_path, capsys, command, value):
    argv = [command, "--seed", value, "--out", str(tmp_path), "--no-svg"]
    assert main(argv) == EXIT_USAGE
    assert "argument --seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["transient", "genrun"])
def test_seed_flag_only_on_joint(tmp_path, capsys, command):
    # transient and genrun draw no random numbers, so they take no seed
    argv = [command, "--seed", "1", "--out", str(tmp_path), "--no-svg"]
    assert main(argv) == EXIT_USAGE
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("leaf", ["t8_k", "eta_turbine"])
def test_design_leaves_the_sizing_never_read_are_unknown(tmp_path, capsys, leaf):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"duration": 0.04, "gasgen": {leaf: 900}}))
    assert main(["joint", "--scenario", str(p), "--out", str(tmp_path / "out"),
                 "--no-svg"]) == EXIT_USAGE
    assert f"unknown field gasgen.{leaf}" in capsys.readouterr().err


# paths from the command line: an OSError exits 1 and names the path
@pytest.mark.parametrize("command", ["transient", "joint"])
def test_scenario_path_that_is_a_directory_is_usage_error(tmp_path, capsys, command):
    assert main([command, "--scenario", str(tmp_path), "--out",
                 str(tmp_path / "out"), "--no-svg"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(tmp_path) in err and "Traceback" not in err


@pytest.mark.parametrize("command, runner, below", [
    ("joint", "run_joint", False), ("joint", "run_joint", True),
    ("genrun", "run_generator", False), ("genrun", "run_generator", True),
    ("transient", "run_gasgen_transient", False),
    ("transient", "run_gasgen_transient", True),
], ids=["file", "below-a-file", "genrun-file", "genrun-below-a-file",
        "transient-file", "transient-below-a-file"])
def test_out_path_at_or_below_a_file_is_usage_error(tmp_path, capsys, monkeypatch,
                                                    command, runner, below):
    # --out is checked before the run, so a bad --out costs no run
    from apucosim import cosim

    def never(*args, **kwargs):
        pytest.fail(f"{runner} ran before --out was checked")
    monkeypatch.setattr(cosim if runner == "run_gasgen_transient" else cli, runner,
                        never)
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"duration": 0.04}))
    out = tmp_path / "taken"
    out.write_text("")
    if below:
        out = out / "x"
    source = ["--duration", "0.04"] if command == "genrun" else ["--scenario", str(p)]
    assert main([command, *source, "--out", str(out), "--no-svg"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert str(out) in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, runner", [
    ("joint", "run_joint"), ("genrun", "run_generator"),
    ("transient", "run_gasgen_transient")])
def test_empty_out_path_is_usage_error_before_the_run(tmp_path, capsys, monkeypatch,
                                                      command, runner):
    # os.makedirs refuses an empty path; --out is checked before the run
    from apucosim import cosim

    def never(*args, **kwargs):
        pytest.fail(f"{runner} ran before --out was checked")
    monkeypatch.setattr(cosim if runner == "run_gasgen_transient" else cli, runner,
                        never)
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"duration": 0.04}))
    source = ["--duration", "0.04"] if command == "genrun" else ["--scenario", str(p)]
    assert main([command, *source, "--out", "", "--no-svg"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "No such file or directory: ''" in captured.err and captured.out == ""


@pytest.mark.parametrize("flag, value", [
    ("--state-noise", "nan"), ("--state-noise", "-5"),
    ("--state-noise", "inf"), ("--macro-dt", "nan"),
])
def test_joint_float_flags_rejected_at_parse(tmp_path, capsys, flag, value):
    argv = ["joint", "--out", str(tmp_path), "--no-svg", flag, value]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not list(tmp_path.iterdir())


def test_unresolvable_stepper_tolerance_is_numeric_error(tmp_path, capsys):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({
        "duration": 0.04, "ttsc_faults": [{"time_s": 0.0, "mu": 0.05}],
        "stepper": {"relative_tolerance": 1e-300, "absolute_tolerance": 1e-300}}))
    # with --runs 2, which writes no files, the failure is raised in a
    # worker process and reaches main through the pool
    for flags in (["--out", str(tmp_path), "--no-svg"], ["--runs", "2"]):
        assert main(["joint", "--scenario", str(p), *flags]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numerical failure" in err and "Traceback" not in err


def test_genrun_faulted_smoke_run(tmp_path, capsys):
    # the console-script smoke step of the CI workflow
    rc = main(["genrun", "--duration", "0.1", "--mu", "0.05", "--fault-time",
               "0.04", "--json", "--no-svg", "--out", str(tmp_path / "gr")])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    currents = [doc["rms"][f"Phase {ph} Current"] for ph in "ABC"]
    assert max(currents) / min(currents) > 1.01
    assert (tmp_path / "gr" / "genrun_225kW_fast.csv").is_file()


# a block the command's run does not read is refused at its first leaf off
# the default, not ignored
@pytest.mark.parametrize("command, doc, leaf", [
    ("transient", {"seed": 3}, "seed"),
    ("transient", {"machine": {"eta_sg": 0.9}}, "machine.eta_sg"),
    ("transient", {"coupling": {"eta": 0.9}}, "coupling.eta"),
    ("transient", {"governor": {"kp": 9.0}}, "governor.kp"),
    ("transient", {"avr": {"kp": 0.2}}, "avr.kp"),
    ("transient", {"load": {"power_kw": 1.0}}, "load.power_kw"),
    ("transient", {"ttsc_faults": [{"time_s": 0.02, "mu": 0.5}]}, "ttsc_faults"),
    ("transient", {"noise": {"gasgen_output": {"T4": 30.0}}}, "noise.gasgen_output.T4"),
    ("transient", {"hook": {"std_rpm": 2.0}}, "hook.std_rpm"),
    ("transient", {"stepper": {"max_step_s": 5e-5}}, "stepper.max_step_s"),
    ("transient", {"record": {"decimation": 1}}, "record.decimation"),
    ("joint", {"fuel_step": {"factor": 1.5, "time_s": 0.0}}, "fuel_step.time_s"),
    ("joint", {"fuel_step": {"initial_power_kw": 300.0}}, "fuel_step.initial_power_kw"),
])
def test_block_the_run_does_not_read_is_refused(tmp_path, capsys, command, doc, leaf):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"duration": 0.04, **doc}))
    assert main([command, "--scenario", str(p), "--out", str(tmp_path / "out"),
                 "--no-svg"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"at {leaf}:" in err and f"{command} run does not read" in err


def test_unread_blocks_at_their_defaults_are_accepted(tmp_path, capsys):
    from apucosim import scenario as sc
    # a default given explicitly, or a zero output-noise width, changes nothing
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"duration": 0.04, "seed": 0,
                             "load": {"power_kw": 225.0},
                             "noise": {"gasgen_output": {"T4": 0.0}},
                             "fuel_step": {"factor": 1.0}}))
    for command in ("transient", "joint"):
        assert main([command, "--scenario", str(p), "--out", str(tmp_path / command),
                     "--no-svg"]) == EXIT_OK
    # each benchmark preset runs under its own command, and only there
    sc._refuse_unread(sc.load_preset("fuel-step"), "transient")
    sc._refuse_unread(sc.load_preset("joint-fault"), "joint")
    for command, preset, leaf in (("transient", "joint-fault", "load.schedule"),
                                  ("joint", "fuel-step", "fuel_step.factor")):
        assert main([command, "--preset", preset, "--out", str(tmp_path / "x"),
                     "--no-svg"]) == EXIT_USAGE
        assert f"at {leaf}:" in capsys.readouterr().err


@pytest.mark.parametrize("command, preset", [("transient", "joint-fault"),
                                             ("joint", "fuel-step")])
def test_refused_scenario_makes_no_out_directory(tmp_path, capsys, command, preset):
    # the --out directory is made only once the scenario passes the run's checks
    out = tmp_path / "out"
    assert main([command, "--preset", preset, "--out", str(out),
                 "--no-svg"]) == EXIT_USAGE
    assert "run does not read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--duration", "95.68"),
                                         ("--decimation", "1000000")])
def test_genrun_bounds_admit_their_limits(tmp_path, monkeypatch, flag, value):
    # 95.68 s at 12,000 rpm may take 999,857 machine samples, within
    # MAX_FAST_STEPS
    monkeypatch.setattr(cli, "run_generator", _reach)
    with pytest.raises(_Reached):
        main(["genrun", "--duration", "0.02", flag, value, "--out", str(tmp_path),
              "--no-svg"])


# Every numeric flag of design, steady, genrun and joint: (command, flag, the
# interval its refusal names, values outside it, values on its included
# bounds or just inside an excluded one). The values outside are those just
# past each bound, and for every flag nan, +-inf and a non-number (and 1.5
# for an integer flag). A flag that sets a scenario leaf takes the leaf's
# interval.
_FLAG_INTERVALS = [
    ("design", "--altitude", "[0, 15000]", ["-5e-324", "15000.000000000002", "20000"],
     ["0", "15000"]),
    ("design", "--mach", "[0, 1)", ["-5e-324", "1", "1.5"], ["0"]),
    ("design", "--disa", "(-inf, inf)", [], ["-1e300", "1e300"]),
    ("design", "--shaft-power", "(0, inf)", ["0"], ["5e-324"]),
    ("design", "--pressure-ratio", "(1, inf)", ["0.5", "1"], ["1.0000001"]),
    ("design", "--t4", "[200, 2000]", ["5000", "199.9", "199.99999999999997",
                                       "2000.0000000000002"], ["200", "2000"]),
    ("steady", "--altitude", "[0, 15000]", ["-5e-324", "15000.000000000002", "20000"],
     ["0", "15000"]),
    ("steady", "--mach", "[0, 1)", ["-5e-324", "1", "1.5"], ["0"]),
    ("steady", "--disa", "(-inf, inf)", [], ["-1e300", "1e300"]),
    ("steady", "--power", "[0, inf)", ["-5e-324"], ["0"]),
    ("steady", "--speed", "(0, 43260]", ["0", "43260.00000000001", "50000"], ["43260"]),
    *(("steady", flag, "[0.8, 1.2]", ["0.7999999999999999", "1.2000000000000002", "1.5"],
       ["0.8", "1.2"]) for flag in ("--eta-c", "--flow-c", "--eta-t", "--flow-t")),
    ("genrun", "--power-kw", "(0, inf)", ["0"], ["5e-324"]),
    ("genrun", "--speed-rpm", "(0, 14400]", ["0", "14400.000000000002"], ["14400"]),
    ("genrun", "--duration", "(0, inf)", ["0"], []),
    ("genrun", "--mu", "[0, 1)", ["-5e-324", "1"], ["0"]),
    ("genrun", "--k-rf", "[0, 1000000)", ["-5e-324", "1000000"], ["0"]),
    ("genrun", "--fault-time", "[0, inf)", ["-5e-324"], ["0"]),
    ("genrun", "--decimation", "the integers in [1, 1000000]", ["0", "1000001"],
     ["1", "1000000"]),
    ("joint", "--macro-dt", "(0, inf)", ["0"], []),
    ("joint", "--seed", "the integers in [0, inf)", ["-1"], ["0"]),
    ("joint", "--runs", "the integers in [1, inf)", ["0"], ["1"]),
    ("joint", "--state-noise", "[0, inf)", ["-5e-324"], ["0"]),
]
# what each command runs once its flags are parsed, and the flags each takes
# besides the one under test; a genrun fault's flags take a fault (--mu)
_RUNNERS = {"design": "design_point_size", "steady": "trim_fuel",
            "genrun": "run_generator", "joint": "run_joint"}
_OTHER_FLAGS = {"design": ["--json"], "steady": ["--json"],
                "genrun": ["--duration", "0.02", "--no-svg"], "joint": ["--no-svg"]}
_FAULT_FLAGS = {"--k-rf": ["--mu", "0.05", "--fault-time", "0"],
                "--fault-time": ["--mu", "0.05"]}


def _flag_argv(command, flag, value, out):
    argv = [command] + _OTHER_FLAGS[command] + _FAULT_FLAGS.get(flag, [])
    if command in ("genrun", "joint"):
        argv += ["--out", str(out)]
    return argv + [f"{flag}={value}"]   # "-5e-324" would read as an option


def _flag_case_id(command, *rest):
    # design's cases keep the ids they had when the table held only design
    return "-".join(rest) if command == "design" else f"{command} {'-'.join(rest)}"


_REFUSED = [(command, flag, value, interval)
            for command, flag, interval, outside, _ in _FLAG_INTERVALS
            for value in dict.fromkeys(outside + ["nan", "inf", "-inf", "x"]
                                       + (["1.5"] if "integers" in interval else []))]
_ACCEPTED = [(command, flag, value) for command, flag, _, _, inside in _FLAG_INTERVALS
             for value in inside]


# a value outside its flag's interval is refused when the command line is
# parsed, naming the flag and the interval, before anything runs
@pytest.mark.parametrize("command, flag, value, bound", _REFUSED,
                         ids=[_flag_case_id(c, f, v, b) for c, f, v, b in _REFUSED])
def test_design_flags_refused_outside_their_leaf_range(tmp_path, capsys, monkeypatch,
                                                        command, flag, value, bound):
    monkeypatch.setattr(cli, _RUNNERS[command], _reach)
    out = tmp_path / "out"
    assert main(_flag_argv(command, flag, value, out)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and f"outside {bound}" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command, flag, value", _ACCEPTED,
                         ids=[_flag_case_id(*case) for case in _ACCEPTED])
def test_design_flags_accept_their_leaf_bounds(tmp_path, monkeypatch, command, flag,
                                               value):
    # parsed, and the command's run reached
    monkeypatch.setattr(cli, _RUNNERS[command], _reach)
    with pytest.raises(_Reached):
        main(_flag_argv(command, flag, value, tmp_path / "out"))


def test_state_noise_zero_sets_a_zero_width_hook(tmp_path):
    # 0 is a width like any other: it replaces the document's hook
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"name": "sn", "duration": 0.04,
                             "hook": {"std_rpm": 5}}))
    assert main(["joint", "--scenario", str(p), "--state-noise", "0",
                 "--out", str(tmp_path), "--no-svg"]) == EXIT_OK
    hook = json.loads((tmp_path / "joint_sn_manifest.json").read_text())["scenario"]["hook"]
    assert hook == {"std_rpm": 0.0}


@pytest.mark.parametrize("seed, speed", [(3, "-326250"), (1, "1478436")])
def test_state_noise_beyond_the_speed_range_is_numerical_failure(tmp_path, capsys,
                                                                 seed, speed):
    # a noised spool speed outside (0, MAX_SPEED_RATIO design speed] ends
    # the run as the spool update's own speed check does: exit code 2
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"duration": 0.04}))
    assert main(["joint", "--scenario", str(p), "--state-noise", "1e6", "--seed",
                 str(seed), "--out", str(tmp_path / "out"), "--no-svg"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert f"spool speed {speed} rpm outside (0, 43260] rpm" in err
    assert "Traceback" not in err
