import hashlib
import json
import math
import os
import re
import signal

import numpy as np
import pytest

from apucosim import cosim
from apucosim import scenario as sc
from apucosim.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from apucosim.control import AvrState
from apucosim.cosim import TimeSeries, run_generator
from apucosim.scenario import (
    PRESETS,
    SchemaError,
    UnknownChannel,
    UnknownField,
    emit_svg,
    load_preset,
    parse_scenario,
    serialize_scenario,
    station_report,
    write_csv,
)
from apucosim.wrsg import OPEN_BRANCH_KRF, FaultParams, LoadModel, WrsgParams


# -------------------------------------------------------------------- parsing

def test_empty_document_gives_full_default_scenario():
    scn = parse_scenario("{}")
    assert scn["duration"] == 5.0
    assert scn["macro_dt"] == 0.02
    assert scn["gasgen"]["shaft_power_kw"] == 500.0
    assert scn["load"]["power_kw"] == 225.0
    assert scn["ambient"]["dT_ISA"] == 5.0


def test_joint_fault_preset_contents():
    scn = load_preset("joint-fault")
    assert scn["duration"] == 12.0
    shed = scn["load"]["schedule"][0]
    assert shed["time_s"] == 2.0 and shed["scale"] == 0.6
    gp = scn["gas_path_faults"][0]
    assert gp["time_s"] == 6.0
    assert (gp["eta_c_factor"], gp["flow_c_factor"],
            gp["eta_t_factor"], gp["flow_t_factor"]) == (0.99, 0.97, 0.98, 1.04)
    tt = scn["ttsc_faults"][0]
    assert tt["time_s"] == 10.0 and tt["mu"] == 0.05


def test_fuel_step_preset_contents():
    scn = load_preset("fuel-step")
    assert scn["fuel_step"]["factor"] == 1.10
    assert scn["fuel_step"]["time_s"] == 3.0
    assert scn["gas_path_faults"][0]["flow_t_factor"] == 1.04


def test_negative_duration_rejected():
    with pytest.raises(SchemaError):
        parse_scenario('{"duration": -1.0}')


def test_unknown_field_rejected():
    with pytest.raises(UnknownField) as exc:
        parse_scenario('{"durration": 1.0}')
    assert "durration" in str(exc.value)
    with pytest.raises(UnknownField):
        parse_scenario('{"gasgen": {"thrust": 3}}')
    # the machine rating set nothing in the model, so it is not a field
    with pytest.raises(UnknownField) as exc:
        parse_scenario('{"machine": {"rated_kw": 225.0}}')
    assert exc.value.path == "machine.rated_kw"


def test_bad_types_rejected():
    with pytest.raises(SchemaError):
        parse_scenario('{"duration": "long"}')
    with pytest.raises(SchemaError):
        parse_scenario('{"load": {"schedule": {"time_s": 1}}}')


def test_fault_time_outside_duration_rejected():
    with pytest.raises(SchemaError):
        parse_scenario('{"duration": 1.0, '
                       '"ttsc_faults": [{"time_s": 5.0, "mu": 0.05}]}')
    # an event at the duration itself would act after the last macro step
    with pytest.raises(SchemaError, match=r"ttsc_faults\[0\]\.time_s"):
        parse_scenario('{"duration": 1.0, '
                       '"ttsc_faults": [{"time_s": 1.0, "mu": 0.05}]}')
    with pytest.raises(SchemaError, match=r"gas_path_faults\[1\]\.time_s"):
        parse_scenario('{"duration": 1.0, "gas_path_faults": '
                       '[{"time_s": 0.5}, {"time_s": 1.0}]}')


def test_model_range_bounds_accepted():
    scn = parse_scenario(json.dumps({
        "ambient": {"altitude": 11000.0, "mach": 0.0, "dT_ISA": -16.6},
        "gas_path_faults": [{"eta_c_factor": 0.8, "flow_c_factor": 1.2,
                             "eta_t_factor": 0.8, "flow_t_factor": 1.2}],
        "ttsc_faults": [{"mu": 0.0}, {"mu": 0.05, "k_rf": 0.0}]}))
    assert scn["ttsc_faults"][0]["mu"] == scn["ttsc_faults"][1]["k_rf"] == 0.0


def test_serialize_round_trip():
    scn = load_preset("joint-fault")
    again = parse_scenario(serialize_scenario(scn))
    assert again.doc == scn.doc


def test_malformed_json_rejected():
    with pytest.raises(SchemaError):
        parse_scenario("{not json")


# ------------------------------------------------------------------------ CSV

def _small_series():
    return TimeSeries(names=("a", "b"), units=("V", "A"),
                      time=np.array([0.0, 0.1, 0.2]),
                      data=np.array([[1.0, -2.0],
                                     [math.pi, 1e-17],
                                     [6.02214076e23, -273.15]]))


def test_csv_three_samples_four_lines(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(_small_series(), path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "time_s,a_V,b_A"


def _read_csv(path) -> TimeSeries:
    """Read back a series written by write_csv."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        names, units = [], []
        for col in header[1:]:
            name, _, unit = col.rpartition("_")
            names.append(name)
            units.append(unit)
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if rows:
        arr = np.array([[float(v) for v in r] for r in rows])
        time, data = arr[:, 0], arr[:, 1:]
    else:
        time, data = np.empty(0), np.empty((0, len(names)))
    return TimeSeries(names=tuple(names), units=tuple(units), time=time, data=data)


def test_csv_round_trip_bit_exact(tmp_path):
    path = tmp_path / "s.csv"
    series = _small_series()
    write_csv(series, path)
    back = _read_csv(path)
    assert back.names == series.names
    assert np.array_equal(back.time, series.time)
    assert np.array_equal(back.data, series.data)


def _write_csv_reference(series, path):
    """The former element-by-element writer, kept as the byte reference."""
    header = ",".join(["time_s"] + [f"{n}_{u}" for n, u in
                                    zip(series.names, series.units)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(series.n_samples):
            row = [f"{series.time[i]:.17g}"]
            row += [f"{v:.17g}" for v in series.data[i]]
            fh.write(",".join(row) + "\n")


_AWKWARD = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 3.0, -7.0,
            2.0 ** 53, 1e16, 0.1, 1.0 / 3.0, math.inf, -math.inf, math.nan]


def _assert_same_bytes(series, tmp_path):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_csv(series, new)
    _write_csv_reference(series, ref)
    assert new.read_bytes() == ref.read_bytes()


def test_csv_bytes_match_reference_writer_on_awkward_values(tmp_path):
    data = np.array([_AWKWARD, _AWKWARD[::-1]]).T
    series = TimeSeries(names=("a", "b"), units=("V", "A"),
                        time=np.array(_AWKWARD), data=data)
    _assert_same_bytes(series, tmp_path)


# on more than one CPU the fast track is streamed to a forked formatter
# child while the run and its plots go on

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


def _usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


def _record_forks(monkeypatch, kill=False):
    """The pids of the children the stream forks; with `kill`, each child is
    killed as soon as it is forked."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
            if kill:
                os.kill(pid, signal.SIGKILL)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _streamed_run(out):
    """A 1 s generator run with a TTSC fault at 0.5 s that records every
    sample (10,000 rows in a shared buffer of 10,451), its fast track handed
    to a FastStream on `out`: (the stream, the run's result)."""
    with sc.FastStream(out, "gen") as stream:
        res = run_generator(WrsgParams(), LoadModel.from_power(225.0), AvrState(),
                            speed_rpm=12000.0, duration=1.0,
                            fault_schedule=((0.5, FaultParams(mu=0.05, k_rf=1.0)),),
                            sink=stream.sink)
    return stream, res


def _assert_reference_bytes(series, path, tmp_path):
    _write_csv_reference(series, tmp_path / "ref.csv")
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_streamed_csv_bytes_match_reference_writer(tmp_path, monkeypatch, cpus):
    # the child formats the shared buffer in place up to each count the
    # parent sends, one per segment; on one CPU the track is written after
    # the run
    _usable_cpus(monkeypatch, cpus)
    pids = _record_forks(monkeypatch)
    out = tmp_path / "out"
    stream, res = _streamed_run(out)
    assert len(pids) == int(stream.written) == int(cpus > 1)
    sc.write_run(res, out, "gen", streamed=stream.written)
    assert sorted(os.listdir(out)) == ["gen_fast.csv", "gen_manifest.json"]
    _assert_reference_bytes(res.fast, out / "gen_fast.csv", tmp_path)
    _assert_no_child_left()


@needs_fork
def test_streamed_awkward_values_match_reference_writer(tmp_path, monkeypatch):
    # counts 7 rows apart straddle the formatter's blocks of _BLOCK_ROWS rows
    _usable_cpus(monkeypatch, 2)
    rows = 3 * sc._BLOCK_ROWS + 5
    buffer = cosim._record_buffer(rows)
    values = buffer[:rows]
    values[:] = np.resize(np.array(_AWKWARD), values.shape)
    series = TimeSeries(names=tuple(n for n, _ in cosim.FAST_CHANNELS),
                        units=tuple(u for _, u in cosim.FAST_CHANNELS),
                        time=values[:, 0], data=values[:, 1:])
    with sc.FastStream(tmp_path, "a") as stream:
        for a in range(0, rows, 7):
            stream.sink(buffer, min(a + 7, rows))
    assert stream.written
    _assert_reference_bytes(series, tmp_path / "a_fast.csv", tmp_path)
    _assert_no_child_left()


@needs_fork
def test_a_failed_child_fails_the_write(tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, 2)
    pids = _record_forks(monkeypatch, kill=True)
    with pytest.raises(OSError, match="child formatting its rows exited with status -9"):
        _streamed_run(tmp_path / "a" / "b")
    assert len(pids) == 1
    assert not (tmp_path / "a").exists()
    _assert_no_child_left()


@needs_fork
def test_a_failure_in_the_parent_mid_write_leaves_no_child(tmp_path, monkeypatch):
    # the run fails in its 30th segment, with the child formatting the rows
    # of the first 29, and both directories the stream made go
    _usable_cpus(monkeypatch, 2)
    pids = _record_forks(monkeypatch)
    propagate, calls = cosim.propagate, []

    def failing(*args):
        calls.append(1)
        if len(calls) == 30:
            raise RuntimeError("failed mid-run")
        return propagate(*args)

    monkeypatch.setattr(cosim, "propagate", failing)
    with pytest.raises(RuntimeError, match="failed mid-run"):
        _streamed_run(tmp_path / "a" / "b")
    assert len(pids) == 1
    assert not (tmp_path / "a").exists()
    _assert_no_child_left()


@needs_fork
def test_streamed_csv_under_a_running_interval_timer(tmp_path, monkeypatch):
    # a SIGALRM handler every millisecond, as a benchmark's speed probe
    # sets one, interrupts the parent's pipe writes and its wait
    _usable_cpus(monkeypatch, 2)
    ticks = []
    old = signal.signal(signal.SIGALRM, lambda *_: ticks.append(1))
    signal.setitimer(signal.ITIMER_REAL, 1e-3, 1e-3)
    try:
        stream, res = _streamed_run(tmp_path)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)
    assert ticks and stream.written
    _assert_reference_bytes(res.fast, tmp_path / "gen_fast.csv", tmp_path)
    _assert_no_child_left()


_TTSC_RUN = ["genrun", "--duration", "0.5", "--mu", "0.05", "--fault-time", "0.25"]


@needs_fork
def test_a_short_faulted_genrun_forks_one_child_on_two_cpus_and_none_on_one(
        tmp_path, monkeypatch, capsys):
    # a genrun-ttsc-sized run, 0.5 s with 2,500 rows, its plots on: on two
    # CPUs one child formats the track while the parent draws the plots, on
    # one the parent writes it after them; stdout and every file are the same
    pids = _record_forks(monkeypatch)
    written = {}
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus)
        assert main(_TTSC_RUN + ["--json", "--out", str(out)]) == EXIT_OK
        assert len(pids) == cpus - 1
        _assert_no_child_left()
        written[cpus] = (capsys.readouterr().out,
                         {f.name: f.read_bytes() for f in out.iterdir()})
    assert written[1] == written[2]
    files = written[2][1]
    assert sorted(files) == ["genrun_225kW_fast.csv", "genrun_225kW_manifest.json",
                             "genrun_currents.svg", "genrun_voltages.svg"]
    assert len(files["genrun_225kW_fast.csv"].splitlines()) == 1 + 2500


def _record_kills(monkeypatch):
    """The (pid, signal) of each os.kill call."""
    kills = []
    kill = os.kill

    def recorded(pid, sig):
        kills.append((pid, sig))
        kill(pid, sig)

    monkeypatch.setattr(os, "kill", recorded)
    return kills


@needs_fork
def test_a_plot_failing_after_a_streamed_run_kills_the_child(tmp_path, monkeypatch,
                                                             capsys):
    # the second plot fails while the child formats the track: the child is
    # killed and reaped, and --out, which the stream made, is gone with the
    # first plot and the .part file
    _usable_cpus(monkeypatch, 2)
    pids, kills = _record_forks(monkeypatch), _record_kills(monkeypatch)
    emit, plots = sc.emit_svg, []

    def failing(*args, **kwargs):
        plots.append(1)
        if len(plots) == 2:
            raise OSError("no space left for the plot")
        emit(*args, **kwargs)

    monkeypatch.setattr(sc, "emit_svg", failing)
    out = tmp_path / "out"
    assert main(_TTSC_RUN + ["--out", str(out)]) == EXIT_USAGE
    assert "no space left for the plot" in capsys.readouterr().err
    assert len(pids) == 1 and kills == [(pids[0], signal.SIGKILL)]
    assert not out.exists()
    _assert_no_child_left()


@needs_fork
def test_a_child_killed_while_the_plots_are_drawn_fails_the_run(tmp_path, monkeypatch,
                                                                capsys):
    # the child is still formatting while the parent draws: the parent reaps
    # it after the plots, and its failure exits 1 naming the file, with --out
    # gone, the plots drawn and the .part file with it
    _usable_cpus(monkeypatch, 2)
    pids = _record_forks(monkeypatch)
    emit = sc.emit_svg

    def killing(*args, **kwargs):
        os.kill(pids[0], signal.SIGKILL)
        emit(*args, **kwargs)

    monkeypatch.setattr(sc, "emit_svg", killing)
    out = tmp_path / "out"
    assert main(_TTSC_RUN + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"writing {out / 'genrun_225kW_fast.csv'}: the child formatting its rows " \
           "exited with status -9" in err
    assert len(pids) == 1
    assert not out.exists()
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("existing, failing", [
    (False, "run"), (True, "run"), (False, "plot"), (True, "plot"),
    (False, "write"), (True, "write")],
    ids=["new-out", "existing-out", "new-out-plot", "existing-out-plot",
         "new-out-write", "existing-out-write"])
def test_a_run_failing_mid_run_leaves_out_as_it_was(tmp_path, monkeypatch, capsys,
                                                    cpus, existing, failing):
    # a shed to an open circuit fails the run after its shed (ROADMAP V), or
    # the run succeeds and its third plot fails, or every file is written
    # and the call fails after write_run; it streams on two CPUs, and each
    # way --out is left as it was before the run
    p = tmp_path / "shed.json"
    schedule = [{"time_s": 0.04, "scale": 0}] if failing == "run" else []
    p.write_text(json.dumps({"duration": 0.2, "stepper": {"max_step_s": 1e-5},
                             "load": {"schedule": schedule}}))
    out = tmp_path / "out" / "run"
    if existing:
        out.mkdir(parents=True)
        (out / "joint_design_fast.csv").write_text("an earlier run's track\n")
    _usable_cpus(monkeypatch, cpus)
    pids = _record_forks(monkeypatch)
    emit, plots = sc.emit_svg, []

    def failing_third(*args, **kwargs):
        plots.append(1)
        if len(plots) == 3:
            # the two plots drawn so far are in --out
            assert len(list(out.glob("*.svg"))) == 2
            raise OSError("no space left for the plot")
        emit(*args, **kwargs)

    write_run = sc.write_run

    def failing_after(*args, **kwargs):
        files = write_run(*args, **kwargs)
        assert {"fast", "slow"} <= set(files)
        raise OSError("failed after the manifest")

    argv = ["joint", "--scenario", str(p), "--out", str(out)]
    if failing == "run":
        assert main(argv + ["--no-svg"]) == EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err
    elif failing == "plot":
        monkeypatch.setattr(sc, "emit_svg", failing_third)
        assert main(argv) == EXIT_USAGE
        assert "no space left for the plot" in capsys.readouterr().err
        assert len(plots) == 3
    else:
        monkeypatch.setattr(sc, "write_run", failing_after)
        assert main(argv + ["--no-svg"]) == EXIT_USAGE
        assert "failed after the manifest" in capsys.readouterr().err
    assert len(pids) == cpus - 1
    if existing:
        # a file that was there is never removed; written over before the
        # failure, it keeps the new track
        assert os.listdir(out) == ["joint_design_fast.csv"]
        track = (out / "joint_design_fast.csv").read_text()
        assert (track == "an earlier run's track\n") == (failing != "write")
    else:
        assert not (tmp_path / "out").exists()
    _assert_no_child_left()


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
@pytest.mark.parametrize("failing", ["plot", "write"])
def test_a_transient_failing_after_its_run_leaves_out_as_it_was(tmp_path, monkeypatch,
                                                                capsys, existing, failing):
    # the fuel-step replay succeeds and its second plot fails, or its plots
    # and every file are written and the call fails after write_run; each
    # way --out is left as it was before the call, as a joint run leaves it
    out = tmp_path / "out" / "run"
    if existing:
        out.mkdir(parents=True)
        (out / "transient_fuel-step_slow.csv").write_text("an earlier run's track\n")
    emit, plots = sc.emit_svg, []

    def failing_second(*args, **kwargs):
        plots.append(1)
        if len(plots) == 2:
            # the plot drawn so far is in --out
            assert [f.name for f in out.glob("*.svg")] == ["transient_fuel-step_speed.svg"]
            raise OSError("no space left for the plot")
        emit(*args, **kwargs)

    write_run, drawn = sc.write_run, []

    def failing_after(*args, **kwargs):
        files = write_run(*args, **kwargs)
        assert files == {"slow": "transient_fuel-step_slow.csv"}
        drawn.append(len(list(out.glob("*.svg"))))
        raise OSError("failed after the manifest")

    argv = ["transient", "--preset", "fuel-step", "--out", str(out)]
    if failing == "plot":
        monkeypatch.setattr(sc, "emit_svg", failing_second)
        assert main(argv) == EXIT_USAGE
        assert "no space left for the plot" in capsys.readouterr().err
        assert len(plots) == 2
    else:
        monkeypatch.setattr(sc, "write_run", failing_after)
        assert main(argv) == EXIT_USAGE
        assert "failed after the manifest" in capsys.readouterr().err
    if existing:
        # a file that was there is never removed; written over before the
        # failure, it keeps the new track
        assert os.listdir(out) == ["transient_fuel-step_slow.csv"]
        track = (out / "transient_fuel-step_slow.csv").read_text()
        assert (track == "an earlier run's track\n") == (failing != "write")
    else:
        assert not (tmp_path / "out").exists()
    # the plots are drawn before the CSV and the manifest
    assert drawn == ([4] if failing == "write" else [])


def test_a_joint_breaching_its_energy_audit_exits_2_with_every_file(tmp_path, monkeypatch,
                                                                   capsys):
    # the run finished and its files are the evidence of the breach, so the
    # audit's exit 2 keeps the complete --out
    monkeypatch.setattr(cosim.EnergyAudit, "max_relative_residual", 1.0)
    p = tmp_path / "short.json"
    p.write_text(json.dumps({"duration": 0.2}))
    out = tmp_path / "out"
    assert main(["joint", "--scenario", str(p), "--out", str(out)]) == EXIT_NUMERIC
    assert "energy audit breached tolerance" in capsys.readouterr().err
    manifest = json.loads((out / "joint_design_manifest.json").read_text())
    assert manifest["files"] == {"fast": "joint_design_fast.csv",
                                 "slow": "joint_design_slow.csv"}
    plots = [f"joint_design_{group}.svg" for group in
             ("speed", "power", "t3p3", "t4", "surge", "currents", "voltages")]
    assert sorted(os.listdir(out)) == sorted(
        ["joint_design_manifest.json", *manifest["files"].values(), *plots])


# --------------------------------------------------------------------- report

def test_station_report_design(design_solution):
    rep = station_report(design_solution, "Design point: 0km 0Ma 500kW")
    text = rep.render()
    assert "XNHPC" in text and "36050" in text
    values = rep.as_dict()
    assert values["PWSD"] == pytest.approx(500.0, abs=1e-3)
    names = [row[0] for row in rep.rows]
    assert names[:5] == ["XNHPC", "PWSD", "SFC", "SNOx", "HPCSM"]
    assert names[-1] == "W8"


def test_station_report_rejects_unconverged(design_solution):
    from dataclasses import replace
    bad = replace(design_solution, newton_residual_norm=1.0)
    with pytest.raises(ValueError):
        station_report(bad)


# ------------------------------------------------------------------------ SVG

def test_svg_constant_channel(tmp_path):
    series = TimeSeries(names=("x",), units=("V",),
                        time=np.linspace(0, 1, 50),
                        data=np.full((50, 1), 3.0))
    path = tmp_path / "c.svg"
    emit_svg(series, ["x"], path)
    body = path.read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_svg_three_phase_overlay(tmp_path):
    t = np.linspace(0, 0.01, 200)
    data = np.stack([np.sin(2 * math.pi * 400 * t + ph)
                     for ph in (0, -2.1, 2.1)], axis=1)
    series = TimeSeries(names=("ia", "ib", "ic"), units=("A",) * 3,
                        time=t, data=data)
    path = tmp_path / "p.svg"
    emit_svg(series, ["ia", "ib", "ic"], path)
    assert path.read_text().count("<polyline") == 3


def test_svg_polyline_matches_per_point_formatting(tmp_path):
    from apucosim import scenario as sc
    t = np.linspace(0.0, 0.01, 4001)     # over 2000 points: a strided polyline
    y = 1e3 * np.sin(2 * math.pi * 400 * t)
    series = TimeSeries(names=("y",), units=("V",), time=t, data=y[:, None])
    path = tmp_path / "y.svg"
    emit_svg(series, ["y"], path)
    points = re.search(r'points="([^"]*)"', path.read_text()).group(1)
    # the former per-point loop over numpy scalars, as the byte reference
    pad = 0.05 * (float(y.max()) - float(y.min()))
    ymin, ymax = float(y.min()) - pad, float(y.max()) + pad
    iw = sc._SVG_W - sc._MARGIN_L - sc._MARGIN_R
    ih = sc._SVG_H - sc._MARGIN_T - sc._MARGIN_B
    step = t.size // 2000
    ref = " ".join(
        f"{sc._MARGIN_L + (tv - t[0]) / (t[-1] - t[0]) * iw:.2f},"
        f"{sc._MARGIN_T + (ymax - yv) / (ymax - ymin) * ih:.2f}"
        for tv, yv in zip(t[::step], y[::step]))
    assert points == ref


def test_polyline_points_match_per_point_formatting():
    xs = np.array(_AWKWARD + [64.005, 1e-3, 2.675])
    ys = np.array(_AWKWARD[::-1] + [-0.004, -1e-3, 699.995])
    ref = " ".join("%.2f,%.2f" % p for p in zip(xs.tolist(), ys.tolist()))
    assert sc._polyline_points(xs, ys) == ref
    assert all(v in ref for v in ("nan", " inf,", "-inf", "-0.00"))


def test_svg_unknown_channel(tmp_path):
    series = _small_series()
    with pytest.raises(UnknownChannel):
        emit_svg(series, ["missing"], tmp_path / "x.svg")


def test_svg_deterministic(tmp_path):
    series = _small_series()
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg(series, ["a", "b"], p1, title="t")
    emit_svg(series, ["a", "b"], p2, title="t")
    assert p1.read_bytes() == p2.read_bytes()


# ------------------------------------------------------------- preset replays

def test_preset_scenarios_regression_locked():
    # serialized presets are stable documents; a change shows up here
    digests = {
        name: hashlib.sha256(
            serialize_scenario(load_preset(name)).encode()).hexdigest()[:16]
        for name in sorted(PRESETS)
    }
    assert digests == {
        "design": "585c69205eb7444e",
        "fuel-step": "ffb454ac3584b8f8",
        "joint-fault": "ced3194ae5f998ca",
    }


def test_fuel_step_preset_replay_golden_csv(tmp_path):
    # regression lock on the recorded preset output; the digest is tied to
    # this platform's libm, so a legitimate environment change re-freezes it
    from apucosim.scenario import fuel_step_run, load_preset
    res = fuel_step_run(load_preset("fuel-step"))()
    path = tmp_path / "fuel_step_slow.csv"
    write_csv(res.slow, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == ("b1e6ea444d68b064214230b6673177a7"
                      "115fcdb8eb639a419a178a4d5ea6b316")


def test_gasgen_output_noise_channel_validation():
    scn = parse_scenario('{"noise": {"gasgen_output": {"T4": 1.5}}}')
    assert scn["noise"]["gasgen_output"] == {"T4": 1.5}
    with pytest.raises(UnknownField):
        parse_scenario('{"noise": {"gasgen_output": {"THRUST": 1.0}}}')


# ------------------------------------------------------------ the range table

def _leaf_keys(node, key=""):
    """Table keys of the numeric leaves of a tree of defaults: a list item's
    leaves as `block[].leaf`, and each free dict as its own path."""
    from apucosim.scenario import _FREE_DICTS, _LIST_ITEM_DEFAULTS
    for name, value in node.items():
        sub = f"{key}.{name}" if key else name
        if sub in _FREE_DICTS:
            yield sub
        elif isinstance(value, dict):
            yield from _leaf_keys(value, sub)
        elif isinstance(value, list):
            yield from _leaf_keys(_LIST_ITEM_DEFAULTS[sub], f"{sub}[]")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield sub


# numeric leaves with no interval of their own: unbounded, or bounded only
# against other leaves (_validate)
UNRANGED = {
    "ambient.dT_ISA", "gasgen.accessory_kw", "stepper.max_step_s",
    "fuel_step.time_s", "load.schedule[].time_s", "load.schedule[].scale",
    "gas_path_faults[].time_s", "ttsc_faults[].time_s",
}


def test_every_numeric_leaf_is_ranged_or_named_unranged():
    from apucosim.scenario import _DEFAULTS, RANGES
    leaves = set(_leaf_keys(_DEFAULTS))
    assert leaves - UNRANGED == set(RANGES)
    assert UNRANGED <= leaves


def test_every_choice_leaf_is_a_string_leaf():
    from apucosim.scenario import _DEFAULTS, CHOICES
    for key, choices in CHOICES.items():
        block, leaf = key.split(".")
        assert _DEFAULTS[block][leaf] in choices


TINY = math.ulp(0.0)
# (a document, a leaf path in it, a value refused there, a boundary value
# accepted there): each interval and choice check of a single leaf, the list
# items and the output-noise channels included, at the bound it draws
RANGE_CASES = [
    *[({}, leaf, 0.0, TINY) for leaf in (
        "machine.f_hz", "machine.v_phase_rms", "machine.two_machine_factor",
        "load.power_kw", "fuel_step.initial_power_kw", "fuel_step.factor",
        "governor.n_set_rpm", "governor.rate_limit", "avr.v_set", "avr.v_fd_max",
        "stepper.relative_tolerance",
        "stepper.absolute_tolerance", "gasgen.shaft_power_kw", "gasgen.lhv_mj_per_kg",
        "gasgen.design_speed_rpm", "gasgen.eta_compressor", "gasgen.w2_kg_per_s",
        "gasgen.inertia_kg_m2")],
    ({}, "duration", 0.0, 0.02),
    # a macro step takes at least one machine sample, and at a gear ratio
    # near 0 the generator turns past any count of them: both are bounded by
    # the run's samples (stepper.max_step_s) as well as at their own leaves
    ({"duration": 0.5}, "macro_dt", 0.0, 2.0 ** -20),
    ({"duration": 0.02}, "coupling.speed_ratio", 0.0, 1e-4),
    ({"governor": {"wf_min": 0.0}}, "governor.wf_max", 0.0, TINY),
    *[({}, leaf, -TINY, 0.0) for leaf in (
        "noise.std_w1", "noise.std_w2", "noise.std_vi", "noise.std_vv",
        "noise.gasgen_output.XNHPC", "noise.gasgen_output.T4", "hook.std_rpm",
        "load.l_phase_h", "governor.wf_min", "governor.kp", "governor.ki",
        "avr.kp", "avr.ki")],
    # k_rf is read only where mu > 0, and OPEN_BRANCH_KRF opens the branch
    ({"ttsc_faults": [{"mu": 0.05}]}, "ttsc_faults[0].k_rf", -TINY, 0.0),
    ({"ttsc_faults": [{"mu": 0.05}]}, "ttsc_faults[0].k_rf", OPEN_BRANCH_KRF,
     math.nextafter(OPEN_BRANCH_KRF, 0.0)),
    ({}, "seed", -1, 0),
    ({}, "gasgen.pressure_ratio", 1.0, math.nextafter(1.0, 2.0)),
    ({}, "ambient.altitude", -TINY, 0.0),
    ({}, "ambient.altitude", math.nextafter(15000.0, math.inf), 15000.0),
    ({}, "ambient.mach", -TINY, 0.0),
    ({}, "ambient.mach", 1.0, math.nextafter(1.0, 0.0)),
    ({}, "gasgen.t4_k", math.nextafter(200.0, 0.0), 200.0),
    ({}, "gasgen.t4_k", math.nextafter(2000.0, math.inf), 2000.0),
    *[({}, f"gas_path_faults[0].{leaf}", bad, good)
      for leaf in ("eta_c_factor", "flow_c_factor", "eta_t_factor", "flow_t_factor")
      for bad, good in ((math.nextafter(0.8, 0.0), 0.8),
                        (math.nextafter(1.2, 2.0), 1.2))],
    ({}, "ttsc_faults[0].mu", -TINY, 0.0),
    ({}, "ttsc_faults[0].mu", 1.0, math.nextafter(1.0, 0.0)),
    ({}, "record.decimation", 0, 1),
    ({}, "record.decimation", 1_000_001, 1_000_000),
    *[({}, leaf, bad, good) for leaf in ("machine.eta_sg", "coupling.eta")
      for bad, good in ((0.0, TINY), (math.nextafter(1.0, 2.0), 1.0))],
    # every kind takes load.l_phase_h in series
    *[(doc, "load.kind", "inductive", kind)
      for doc, kind in (({}, "resistive-bank"), ({"load": {"l_phase_h": 5e-5}}, "resistive-bank"),
                        ({}, "cubic-speed-law"))],
]


@pytest.mark.parametrize("doc, path, bad, good", RANGE_CASES,
                         ids=[f"{c[1]}={c[2]!r}" for c in RANGE_CASES])
def test_leaf_refused_past_its_bound_and_accepted_on_it(doc, path, bad, good):
    from test_errors import _doc_with
    with pytest.raises(SchemaError) as info:
        parse_scenario(json.dumps(_doc_with(doc, path, bad)))
    assert info.value.path == path
    scn = parse_scenario(json.dumps(_doc_with(doc, path, good)))
    assert _doc_with(scn.doc, path, good) == scn.doc
