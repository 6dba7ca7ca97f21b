"""Declarative scenario definition and result serialization.

A scenario is a JSON document; unknown fields are rejected, missing fields
take defaults (the design operating point).  Three named presets ship with
the package: "design" (steady joint run), "fuel-step" (gas-generator-only
transient against a cubic load law) and "joint-fault" (load shed, gas-path
fault, then a stator turn fault).
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np

from .control import AvrState, GovernorState
from .cosim import (
    CouplingParams,
    HOOKS,
    JointSetup,
    TimeSeries,
    make_speed_noise_hook,
)
from .gasgen import GasGenDesignSpec, HealthParams, design_point_size
from .gasgen.cycle import ALTITUDE_RANGE_M
from .gasgen.engine import OUTPUT_CHANNELS
from .numerics import StepperOptions
from .wrsg import FaultParams, LoadModel, NoiseConfig, WrsgParams


class SchemaError(Exception):
    def __init__(self, path, expected, found):
        self.path = path
        self.expected = expected
        self.found = found
        super().__init__(f"at {path}: expected {expected}, found {found!r}")


class UnknownField(Exception):
    def __init__(self, path):
        self.path = path
        super().__init__(f"unknown field {path}")


class UnknownChannel(Exception):
    def __init__(self, name):
        super().__init__(f"unknown channel {name!r}")


_DEFAULTS = {
    "name": "design",
    "duration": 5.0,
    "macro_dt": 0.02,
    "seed": 0,
    "ambient": {"altitude": 0.0, "mach": 0.0, "dT_ISA": 5.0},
    "gasgen": {
        "shaft_power_kw": 500.0, "pressure_ratio": 8.0, "t4_k": 1200.114,
        "t8_k": 755.0, "lhv_mj_per_kg": 43.124, "design_speed_rpm": 36050.0,
        "eta_compressor": 0.85, "eta_turbine": 0.89, "accessory_kw": 30.0,
        "w2_kg_per_s": 3.1442, "inertia_kg_m2": 0.12,
    },
    "machine": {
        "rated_kw": 225.0, "v_phase_rms": 230.0, "f_hz": 400.0,
        "eta_sg": 0.95, "two_machine_factor": 2.0,
    },
    "coupling": {"eta": 1.0, "speed_ratio": 36050.0 / 12000.0},
    "governor": {
        "n_set_rpm": 36050.0, "kp": 0.35, "ki": 1.2, "feed_forward": True,
        "wf_min": 0.004, "wf_max": 0.085, "rate_limit": 0.08,
    },
    "avr": {"v_set": 230.0, "kp": 0.10, "ki": 6.0, "v_fd_max": 200.0},
    "load": {
        "kind": "resistive-bank", "power_kw": 225.0, "l_phase_h": 0.0,
        "schedule": [],
    },
    "gas_path_faults": [],
    "ttsc_faults": [],
    "fuel_step": {"time_s": 3.0, "factor": 1.0, "initial_power_kw": 230.0},
    "noise": {
        "std_w1": 0.0, "std_w2": 0.0, "std_vi": 0.0, "std_vv": 0.0,
        "gasgen_output": {},
    },
    "hook": {"kind": "none", "std_rpm": 0.0},
    "stepper": {
        "relative_tolerance": 1e-4, "absolute_tolerance": 1e-5,
        "max_step_s": 1e-4,
    },
    "record": {"decimation": 2},
}

_LIST_ITEM_DEFAULTS = {
    "load.schedule": {"time_s": 0.0, "scale": 1.0},
    "gas_path_faults": {
        "time_s": 0.0, "eta_c_factor": 1.0, "flow_c_factor": 1.0,
        "eta_t_factor": 1.0, "flow_t_factor": 1.0,
    },
    "ttsc_faults": {"time_s": 0.0, "mu": 0.0, "k_rf": 1.0},
}


# free-form channel->std map: keys checked against the output channel list
_FREE_DICTS = {"noise.gasgen_output"}


def _merge(defaults, given, path):
    if isinstance(defaults, dict):
        if not isinstance(given, dict):
            raise SchemaError(path, "object", given)
        if path in _FREE_DICTS:
            out = {}
            for key, value in given.items():
                if key not in {n for n, _ in OUTPUT_CHANNELS}:
                    raise UnknownField(f"{path}.{key}")
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise SchemaError(f"{path}.{key}", "number", value)
                out[key] = float(value)
            return out
        out = {}
        for key, value in given.items():
            if key not in defaults:
                raise UnknownField(f"{path}.{key}" if path else key)
        for key, dval in defaults.items():
            sub = f"{path}.{key}" if path else key
            if key in given:
                out[key] = _merge(dval, given[key], sub)
            else:
                out[key] = copy.deepcopy(dval)
        return out
    if isinstance(defaults, list):
        if not isinstance(given, list):
            raise SchemaError(path, "array", given)
        item_key = path.split(".", 1)[-1] if "." in path else path
        item_defaults = _LIST_ITEM_DEFAULTS.get(path) or _LIST_ITEM_DEFAULTS.get(item_key)
        return [_merge(item_defaults, item, f"{path}[{i}]")
                for i, item in enumerate(given)]
    if isinstance(defaults, bool):
        if not isinstance(given, bool):
            raise SchemaError(path, "boolean", given)
        return given
    if isinstance(defaults, (int, float)):
        if isinstance(given, bool) or not isinstance(given, (int, float)):
            raise SchemaError(path, "number", given)
        if isinstance(defaults, int) and not float(given).is_integer():
            raise SchemaError(path, "integer", given)
        return type(defaults)(given)
    if isinstance(defaults, str):
        if not isinstance(given, str):
            raise SchemaError(path, "string", given)
        return given
    raise SchemaError(path, "known type", given)


def _validate(doc):
    if not 0 < doc["duration"] < math.inf:
        raise SchemaError("duration", "positive duration", doc["duration"])
    if not 0 < doc["macro_dt"] < math.inf:
        raise SchemaError("macro_dt", "positive step", doc["macro_dt"])
    n = doc["duration"] / doc["macro_dt"]
    if not math.isfinite(n) or round(n) < 1 or abs(n - round(n)) > 1e-9:
        raise SchemaError("duration", "multiple of macro_dt", doc["duration"])
    # a fault must act within the run: the gas path swaps health only at a
    # macro-step start, and no step starts at the duration
    for block in ("gas_path_faults", "ttsc_faults"):
        for i, item in enumerate(doc[block]):
            if not 0.0 <= item["time_s"] < doc["duration"]:
                raise SchemaError(f"{block}[{i}].time_s",
                                  "time within [0, duration)", item["time_s"])
    for i, item in enumerate(doc["load"]["schedule"]):
        if not 0.0 <= item["time_s"] <= doc["duration"]:
            raise SchemaError(f"load.schedule[{i}].time_s",
                              "time within [0, duration]", item["time_s"])
    if doc["hook"]["kind"] not in ("none", "identity", "speed-noise"):
        raise SchemaError("hook.kind", "none|identity|speed-noise",
                          doc["hook"]["kind"])
    if doc["load"]["kind"] not in ("resistive-bank", "series-RL", "cubic-speed-law"):
        raise SchemaError("load.kind", "a known load kind", doc["load"]["kind"])
    alt = doc["ambient"]["altitude"]
    if not ALTITUDE_RANGE_M[0] <= alt <= ALTITUDE_RANGE_M[1]:
        raise SchemaError("ambient.altitude",
                          "altitude within [{:g}, {:g}] m".format(*ALTITUDE_RANGE_M), alt)
    if doc["record"]["decimation"] < 1:
        raise SchemaError("record.decimation", "integer >= 1",
                          doc["record"]["decimation"])
    f_hz = doc["machine"]["f_hz"]
    if f_hz <= 0:
        raise SchemaError("machine.f_hz", "positive frequency", f_hz)
    # healthy segments are sampled at max_step and the regulator's rms
    # window spans one electrical period, so a period needs >= 10 samples
    limit = 0.1 / f_hz
    max_step = doc["stepper"]["max_step_s"]
    if not 0.0 < max_step <= limit:
        raise SchemaError("stepper.max_step_s",
                          f"step within (0, {limit:.6g}] s, a tenth of the "
                          "machine period", max_step)


@dataclass(frozen=True)
class Scenario:
    doc: dict

    def __getitem__(self, key):
        return self.doc[key]

    @property
    def name(self):
        return self.doc["name"]

    @property
    def duration(self):
        return self.doc["duration"]

    @property
    def seed(self):
        return self.doc["seed"]


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario JSON document, filling defaults."""
    try:
        given = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("<document>", "well-formed JSON", str(exc)) from None
    if not isinstance(given, dict):
        raise SchemaError("<document>", "object", given)
    doc = _merge(_DEFAULTS, given, "")
    _validate(doc)
    return Scenario(doc=doc)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON with all defaults filled; parse round-trips equal."""
    return json.dumps(scenario.doc, indent=2, sort_keys=True)


PRESETS = {
    "design": {"name": "design", "duration": 5.0},
    "fuel-step": {
        "name": "fuel-step",
        "duration": 10.0,
        "fuel_step": {"time_s": 3.0, "factor": 1.10, "initial_power_kw": 230.0},
        "gas_path_faults": [{
            "time_s": 0.0, "eta_c_factor": 0.99, "flow_c_factor": 0.97,
            "eta_t_factor": 0.98, "flow_t_factor": 1.04,
        }],
    },
    "joint-fault": {
        "name": "joint-fault",
        "duration": 12.0,
        "load": {"kind": "resistive-bank", "power_kw": 225.0, "l_phase_h": 0.0,
                 "schedule": [{"time_s": 2.0, "scale": 0.6}]},
        "gas_path_faults": [{
            "time_s": 6.0, "eta_c_factor": 0.99, "flow_c_factor": 0.97,
            "eta_t_factor": 0.98, "flow_t_factor": 1.04,
        }],
        "ttsc_faults": [{"time_s": 10.0, "mu": 0.05, "k_rf": 1.0}],
    },
}


def load_preset(name: str) -> Scenario:
    if name not in PRESETS:
        raise SchemaError("preset", f"one of {sorted(PRESETS)}", name)
    return parse_scenario(json.dumps(PRESETS[name]))


def design_spec_from_scenario(scenario: Scenario) -> GasGenDesignSpec:
    g = scenario["gasgen"]
    a = scenario["ambient"]
    return GasGenDesignSpec(
        altitude=a["altitude"], mach=a["mach"], dT_ISA=a["dT_ISA"],
        shaft_power_design=g["shaft_power_kw"], pressure_ratio=g["pressure_ratio"],
        T4_design=g["t4_k"], T8_design=g["t8_k"], fuel_LHV=g["lhv_mj_per_kg"],
        design_speed=g["design_speed_rpm"], eta_compressor=g["eta_compressor"],
        eta_turbine=g["eta_turbine"], accessory_power=g["accessory_kw"],
        W2_design=g["w2_kg_per_s"], inertia=g["inertia_kg_m2"])


def machine_params_from_scenario(scenario: Scenario) -> WrsgParams:
    m = scenario["machine"]
    return WrsgParams(P_n=m["rated_kw"], V_phase_rated=m["v_phase_rms"],
                      f_n=m["f_hz"], eta_sg=m["eta_sg"],
                      two_machine_factor=m["two_machine_factor"])


def run_fuel_step(scenario: Scenario):
    """Replay a fuel-step transient: gas generator alone against the cubic
    load law anchored at its design point, fuel stepping at the given time."""
    from .cosim import run_gasgen_transient
    from .gasgen import GasGenState
    from .gasgen.engine import trim_fuel

    doc = scenario.doc
    params, _ = design_point_size(design_spec_from_scenario(scenario))
    health = HealthParams()
    for f in doc["gas_path_faults"]:
        if f["time_s"] <= 0.0:
            health = HealthParams(f["eta_c_factor"], f["flow_c_factor"],
                                  f["eta_t_factor"], f["flow_t_factor"])
    fs = doc["fuel_step"]
    n_design = params.design_speed
    pe_design = params.pe_design

    def law(n):
        return pe_design * (n / n_design) ** 3

    p0 = fs["initial_power_kw"]
    n0 = n_design * (p0 / pe_design) ** (1.0 / 3.0)
    amb = doc["ambient"]
    wf0 = trim_fuel(params, n0, p0, health, altitude=amb["altitude"],
                    mach=amb["mach"], dT_ISA=amb["dT_ISA"])

    def wf_of_t(t):
        return wf0 * fs["factor"] if t >= fs["time_s"] else wf0

    return run_gasgen_transient(
        params, GasGenState(N=n0), wf_of_t, law, health,
        duration=doc["duration"], macro_dt=doc["macro_dt"],
        ambient=(amb["altitude"], amb["mach"], amb["dT_ISA"]))


def build_joint_setup(scenario: Scenario) -> JointSetup:
    """Assemble the run description for the co-simulation loop."""
    doc = scenario.doc
    # the regulator's rms window spans one electrical period of the macro
    # step's fast-track samples, the first of which lies up to max_step_s
    # after the step start (1e-12 s: the window's own rounding allowance)
    least = 1.0 / doc["machine"]["f_hz"] + doc["stepper"]["max_step_s"]
    if doc["macro_dt"] + 1e-12 < least:
        raise SchemaError("macro_dt", f"step >= {least:.6g} s, one machine "
                          "period plus stepper.max_step_s", doc["macro_dt"])
    gg_params, _ = design_point_size(design_spec_from_scenario(scenario))
    machine = machine_params_from_scenario(scenario)
    load_doc = doc["load"]
    load = LoadModel.from_power(
        load_doc["power_kw"], v_phase_rms=doc["machine"]["v_phase_rms"],
        kind=load_doc["kind"], L_phase=load_doc["l_phase_h"],
        schedule=tuple((s["time_s"], s["scale"]) for s in load_doc["schedule"]))
    gov_doc = doc["governor"]
    governor = GovernorState(
        N_set=gov_doc["n_set_rpm"], K_p=gov_doc["kp"], K_i=gov_doc["ki"],
        wf_ff=gg_params.wf_design if gov_doc["feed_forward"] else 0.0,
        wf_min=gov_doc["wf_min"], wf_max=gov_doc["wf_max"],
        rate_limit=gov_doc["rate_limit"])
    avr_doc = doc["avr"]
    avr = AvrState(V_set=avr_doc["v_set"], K_p=avr_doc["kp"], K_i=avr_doc["ki"],
                   V_fd_max=avr_doc["v_fd_max"])
    health_schedule = tuple(
        (f["time_s"], HealthParams(f["eta_c_factor"], f["flow_c_factor"],
                                   f["eta_t_factor"], f["flow_t_factor"]))
        for f in doc["gas_path_faults"])
    fault_schedule = tuple(
        (f["time_s"], FaultParams(mu=f["mu"], k_rf=f["k_rf"]))
        for f in doc["ttsc_faults"])
    noise_doc = doc["noise"]
    machine_noise = NoiseConfig(std_w1=noise_doc["std_w1"],
                                std_w2=noise_doc["std_w2"],
                                std_vi=noise_doc["std_vi"],
                                std_vv=noise_doc["std_vv"], seed=doc["seed"])
    hook_doc = doc["hook"]
    if hook_doc["kind"] == "speed-noise":
        def hook_factory(rng, _std=hook_doc["std_rpm"]):
            return make_speed_noise_hook(_std, rng)
        hook_factory.needs_rng = True
        hook = hook_factory
    else:
        hook = HOOKS[hook_doc["kind"]]
    st = doc["stepper"]
    stepper = StepperOptions(
        relative_tolerance=st["relative_tolerance"],
        absolute_tolerance=st["absolute_tolerance"],
        initial_step=min(1e-6, st["max_step_s"]), min_step=1e-13,
        max_step=st["max_step_s"])
    amb = doc["ambient"]
    return JointSetup(
        gg_params=gg_params, machine=machine, load=load,
        coupling=CouplingParams(eta_gtTsg=doc["coupling"]["eta"],
                                omega_gtTsg=doc["coupling"]["speed_ratio"]),
        governor=governor, avr=avr,
        ambient=(amb["altitude"], amb["mach"], amb["dT_ISA"]),
        health_schedule=health_schedule, fault_schedule=fault_schedule,
        machine_noise=machine_noise,
        gasgen_noise=dict(noise_doc["gasgen_output"]),
        hook=hook, duration=doc["duration"], macro_dt=doc["macro_dt"],
        stepper=stepper, decimation=doc["record"]["decimation"],
        seed=doc["seed"])


# ----------------------------------------------------------------- reporting

STATION_DESCRIPTIONS = {
    "XNHPC": "Rotor Speed", "PWSD": "Output Shaft Power",
    "SFC": "Specific Fuel Consumption", "SNOx": "NOx Severity Factor",
    "HPCSM": "Compressor Stability Margin",
    "T1": "Inlet Total Temperature", "P1": "Inlet Total Pressure",
    "T2": "Compressor Inlet Total Temperature",
    "P2": "Compressor Inlet Total Pressure", "W2": "Compressor Inlet Flow Rate",
    "T3": "Compressor Outlet Total Temperature",
    "P3": "Compressor Outlet Total Pressure",
    "Ps3": "Compressor Outlet Static Pressure",
    "W3": "Compressor Outlet Flow Rate",
    "T4": "Combustion Chamber Outlet Total Temperature",
    "P4": "Combustion Chamber Outlet Total Pressure",
    "W4": "Combustion Chamber Outlet Flow Rate",
    "T41": "Turbine Inlet Total Temperature", "W41": "Turbine Inlet Flow Rate",
    "T5": "Turbine Outlet Total Temperature",
    "P5": "Turbine Outlet Total Pressure", "W5": "Turbine Outlet Flow Rate",
    "T8": "Engine Outlet Total Temperature",
    "P8": "Engine Outlet Total Pressure", "W8": "Engine Outlet Flow Rate",
}


@dataclass(frozen=True)
class StationReport:
    title: str
    rows: tuple   # (name, description, unit, value)

    def render(self) -> str:
        lines = [self.title,
                 f"{'Parameter':<9} {'Description':<44} {'Unit':<10} {'Value':>12}"]
        lines.append("-" * len(lines[-1]))
        for name, desc, unit, value in self.rows:
            lines.append(f"{name:<9} {desc:<44} {unit:<10} {value:>12.4f}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {name: value for name, _, _, value in self.rows}


def station_report(solution, title: str = "Design point") -> StationReport:
    """Render a converged cycle solution in the standard station-table order."""
    from .gasgen.engine import outputs_from_solution
    if solution.newton_residual_norm > 1e-6:
        raise ValueError("refusing to report an unconverged cycle solution")
    out = outputs_from_solution(solution)
    rows = tuple((name, STATION_DESCRIPTIONS[name], unit, out[name])
                 for name, unit in OUTPUT_CHANNELS)
    return StationReport(title=title, rows=rows)


def write_csv(series: TimeSeries, path) -> None:
    """CSV with `time_s,<channel>_<unit>` header; 17 significant digits so a
    read-back reproduces values bit-exactly."""
    if series.n_samples == 0 and not series.names:
        raise ValueError("refusing to write an empty series")
    header = ",".join(["time_s"] + [f"{n}_{u}" for n, u in
                                    zip(series.names, series.units)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(series.n_samples):
            row = [f"{series.time[i]:.17g}"]
            row += [f"{v:.17g}" for v in series.data[i]]
            fh.write(",".join(row) + "\n")


def read_csv(path) -> TimeSeries:
    """Read back a series written by write_csv (bit-exact round trip)."""
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


def merged_series(fast: TimeSeries, slow: TimeSeries) -> TimeSeries:
    """Convenience single-grid view: fast channels linearly resampled onto
    the slow (macro-step) timestamps next to the slow channels."""
    t = slow.time
    cols = [slow.data]
    names = list(slow.names)
    units = list(slow.units)
    for k, name in enumerate(fast.names):
        cols.append(np.interp(t, fast.time, fast.data[:, k])[:, None])
        names.append(name)
        units.append(fast.units[k])
    return TimeSeries(names=tuple(names), units=tuple(units), time=t,
                      data=np.hstack(cols))


def write_run(result, outdir, basename: str, scenario: Scenario | None = None,
              merged: bool = False):
    """Write fast/slow tracks and a manifest tying them together."""
    import os
    os.makedirs(outdir, exist_ok=True)
    files = {}
    for track in ("fast", "slow"):
        series = getattr(result, track, None)
        if series is not None and series.n_samples:
            fname = f"{basename}_{track}.csv"
            write_csv(series, os.path.join(outdir, fname))
            files[track] = fname
    if merged and "fast" in files and "slow" in files:
        fname = f"{basename}_merged.csv"
        write_csv(merged_series(result.fast, result.slow),
                  os.path.join(outdir, fname))
        files["merged"] = fname
    manifest = {
        "basename": basename,
        "files": files,
        "seed": scenario.seed if scenario else None,
        "scenario": scenario.doc if scenario else None,
    }
    mpath = os.path.join(outdir, f"{basename}_manifest.json")
    with open(mpath, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return files


# ------------------------------------------------------------------ SVG plots

_SVG_W, _SVG_H = 720, 360
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 28, 40
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_svg(series: TimeSeries, channels, path, title: str = "") -> None:
    """Deterministic quick-look line plot of the named channels vs time."""
    for ch in channels:
        if ch not in series.names:
            raise UnknownChannel(ch)
    t = series.time
    if t.size == 0:
        raise ValueError("cannot plot an empty series")
    cols = [series.column(ch) for ch in channels]
    ymin = min(float(np.min(c)) for c in cols)
    ymax = max(float(np.max(c)) for c in cols)
    if ymax == ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad
    x0, x1 = float(t[0]), float(t[-1])
    if x1 == x0:
        x1 = x0 + 1.0
    iw = _SVG_W - _MARGIN_L - _MARGIN_R
    ih = _SVG_H - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x0) / (x1 - x0) * iw

    def sy(y):
        return _MARGIN_T + (ymax - y) / (ymax - ymin) * ih

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
             f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
             f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
             f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{iw}" height="{ih}" '
             f'fill="none" stroke="#333333" stroke-width="1"/>']
    if title:
        parts.append(f'<text x="{_SVG_W // 2}" y="18" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="13">{title}</text>')
    for k in range(5):
        xv = x0 + (x1 - x0) * k / 4
        yv = ymin + (ymax - ymin) * k / 4
        parts.append(f'<text x="{sx(xv):.2f}" y="{_SVG_H - 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{xv:.6g}</text>')
        parts.append(f'<text x="{_MARGIN_L - 6}" y="{sy(yv):.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{yv:.6g}</text>')
    parts.append(f'<text x="{_SVG_W // 2}" y="{_SVG_H - 4}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">time [s]</text>')
    step = max(1, t.size // 2000)   # cap polyline length for quick-look plots
    for ci, (ch, col) in enumerate(zip(channels, cols)):
        pts = " ".join(f"{sx(tv):.2f},{sy(yv):.2f}"
                       for tv, yv in zip(t[::step], col[::step]))
        color = _COLORS[ci % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        unit = series.units[series.names.index(ch)]
        parts.append(f'<text x="{_MARGIN_L + 8}" y="{_MARGIN_T + 14 + 14 * ci}" '
                     f'font-family="sans-serif" font-size="11" fill="{color}">'
                     f'{ch} [{unit}]</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
