"""Declarative scenario definition and result serialization.

A scenario is a JSON document; unknown fields are rejected, missing fields
take defaults (the design operating point).  Three named presets ship with
the package: "design" (steady joint run), "fuel-step" (gas-generator-only
transient against a cubic load law) and "joint-fault" (load shed, gas-path
fault, then a stator turn fault).
"""
from __future__ import annotations

import contextlib
import copy
import errno
import functools
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .control import AvrState, GovernorState
from .cosim import (FAST_CHANNELS, MAX_FAST_STEPS, CouplingParams, JointSetup,
                    TimeSeries, fast_sample_bound, joint_w_e_max, whole_steps)
from .errors import UsageError
from .gasgen import GasGenDesignSpec, HealthParams, design_point_size
from .gasgen.cycle import (ALTITUDE_RANGE_M, HEALTH_FACTOR_RANGE,
                           AmbientTemperatureOutOfRange, ambient_conditions)
from .gasgen.engine import (MAX_SPEED_RATIO, OUTPUT_CHANNELS, OUTPUT_TABLE,
                            outputs_from_solution)
from .gasgen.properties import T_MAX, T_MIN
from .numerics import StepperOptions
from .wrsg import OPEN_BRANCH_KRF, FaultParams, LoadModel, NoiseConfig, WrsgParams
from .wrsg.loads import LOAD_KINDS


class SchemaError(UsageError):
    def __init__(self, path, expected, found):
        self.path = path
        self.expected = expected
        self.found = found
        super().__init__(f"at {path}: expected {expected}, found {found!r}")


class UnknownField(UsageError):
    def __init__(self, path):
        self.path = path
        super().__init__(f"unknown field {path}")


class UnknownChannel(UsageError):
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
        "lhv_mj_per_kg": 43.124, "design_speed_rpm": 36050.0,
        "eta_compressor": 0.85, "accessory_kw": 30.0,
        "w2_kg_per_s": 3.1442, "inertia_kg_m2": 0.12,
    },
    "machine": {
        "v_phase_rms": 230.0, "f_hz": 400.0,
        "eta_sg": 0.95, "two_machine_factor": 2.0,
    },
    "coupling": {"eta": 1.0, "speed_ratio": 36050.0 / 12000.0},
    "governor": {
        "n_set_rpm": 36050.0, "kp": 0.35, "ki": 1.2,
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
    "hook": {"std_rpm": 0.0},
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

_POS = (0.0, math.inf, False, False)
_NONNEG = (0.0, math.inf, True, False)
# each bounded leaf's interval (low, high, low included, high included), as
# the model constructors, the regulators and the run require; a list item's
# index is written [], and noise.gasgen_output stands for each channel. The
# other numeric leaves are unbounded (ambient.dT_ISA, gasgen.accessory_kw,
# load.schedule[].scale) or bounded by other leaves in _validate
RANGES = {
    "duration": _POS, "macro_dt": _POS, "seed": _NONNEG,
    "ambient.altitude": (*ALTITUDE_RANGE_M, True, True),
    "ambient.mach": (0.0, 1.0, True, False),
    **{f"gasgen.{key}": _POS for key in (
        "shaft_power_kw", "lhv_mj_per_kg", "design_speed_rpm", "eta_compressor",
        "w2_kg_per_s", "inertia_kg_m2")},
    "gasgen.pressure_ratio": (1.0, math.inf, False, False),
    # the working-fluid properties span [T_MIN, T_MAX]
    "gasgen.t4_k": (T_MIN, T_MAX, True, True),
    **{f"machine.{key}": _POS for key in ("v_phase_rms", "f_hz", "two_machine_factor")},
    "machine.eta_sg": (0.0, 1.0, False, True),
    "coupling.eta": (0.0, 1.0, False, True), "coupling.speed_ratio": _POS,
    **{f"governor.{key}": _POS for key in ("n_set_rpm", "wf_max", "rate_limit")},
    **{f"governor.{key}": _NONNEG for key in ("kp", "ki", "wf_min")},
    "avr.v_set": _POS, "avr.v_fd_max": _POS, "avr.kp": _NONNEG, "avr.ki": _NONNEG,
    "load.power_kw": _POS, "load.l_phase_h": _NONNEG,
    **{f"gas_path_faults[].{f.name}": (*HEALTH_FACTOR_RANGE, True, True)
       for f in fields(HealthParams)},
    # mu = 1 shorts the whole phase, where the fault current's denominator
    # mu (1 - mu) L_ls vanishes; mu = 0 runs healthy, and so does a k_rf
    # that opens the fault branch
    "ttsc_faults[].mu": (0.0, 1.0, True, False),
    "ttsc_faults[].k_rf": (0.0, OPEN_BRANCH_KRF, True, False),
    "fuel_step.factor": _POS, "fuel_step.initial_power_kw": _POS,
    **{f"noise.{key}": _NONNEG for key in (
        "std_w1", "std_w2", "std_vi", "std_vv", "gasgen_output")},
    "hook.std_rpm": _NONNEG,
    "stepper.relative_tolerance": _POS, "stepper.absolute_tolerance": _POS,
    # a run has at most MAX_FAST_STEPS samples to decimate, and the fast
    # track's index arithmetic is in numpy's int64
    "record.decimation": (1, MAX_FAST_STEPS, True, True),
}
CHOICES = {"load.kind": LOAD_KINDS}


def outside(interval, value):
    """None where value lies within `interval`, (low, high, low included,
    high included) as in RANGES, else that interval as text; NaN lies
    within none."""
    low, high, low_in, high_in = interval
    if (low <= value if low_in else low < value) and \
            (value <= high if high_in else value < high):
        return None
    return f"{'[' if low_in else '('}{low:.15g}, {high:.15g}{']' if high_in else ')'}"


def _merge(defaults, given, path, key):
    """`given` over `defaults`, each leaf checked against its RANGES or
    CHOICES entry; `key` is `path` with each list index written []."""
    if isinstance(defaults, dict):
        if not isinstance(given, dict):
            raise SchemaError(path, "object", given)
        if path in _FREE_DICTS:
            out = {}
            for name, value in given.items():
                if name not in {n for n, _ in OUTPUT_CHANNELS}:
                    raise UnknownField(f"{path}.{name}")
                out[name] = _merge(0.0, value, f"{path}.{name}", key)
            return out
        out = {}
        for name in given:
            if name not in defaults:
                raise UnknownField(f"{path}.{name}" if path else name)
        for name, dval in defaults.items():
            if name in given:
                out[name] = _merge(dval, given[name], f"{path}.{name}" if path else name,
                                   f"{key}.{name}" if key else name)
            else:
                out[name] = copy.deepcopy(dval)
        return out
    if isinstance(defaults, list):
        if not isinstance(given, list):
            raise SchemaError(path, "array", given)
        return [_merge(_LIST_ITEM_DEFAULTS[path], item, f"{path}[{i}]", f"{key}[]")
                for i, item in enumerate(given)]
    if isinstance(defaults, (int, float)):
        if isinstance(given, bool) or not isinstance(given, (int, float)):
            raise SchemaError(path, "number", given)
        try:
            finite = math.isfinite(given)
        except OverflowError:   # an integer beyond the float range
            finite = False
        if not finite:
            raise SchemaError(path, "finite number", given)
        if isinstance(defaults, int) and not float(given).is_integer():
            raise SchemaError(path, "integer", given)
        value = type(defaults)(given)
        if key in RANGES and (span := outside(RANGES[key], value)):
            raise SchemaError(path, f"number within {span}", value)
        return value
    if isinstance(defaults, str):
        if not isinstance(given, str):
            raise SchemaError(path, "string", given)
        if key in CHOICES and given not in CHOICES[key]:
            raise SchemaError(path, "one of " + "|".join(CHOICES[key]), given)
        return given


# the longest name, in UTF-8 bytes, whose output files fit a 255-byte file
# name: the longest a run makes is transient_<name>_manifest.json
MAX_NAME_BYTES = 255 - len("transient_") - len("_manifest.json")


def _validate(doc):
    """The rules that relate two or more leaves, and the rules on `name`."""
    # the name is part of each output file's name
    if any(c in doc["name"] for c in "/\\\0"):
        raise SchemaError("name", "a name without /, \\ or NUL", doc["name"])
    try:
        size = len(doc["name"].encode())
    except UnicodeEncodeError:
        raise SchemaError("name", "a name encodable as UTF-8", doc["name"]) from None
    if size > MAX_NAME_BYTES:
        raise SchemaError("name", f"a name of at most {MAX_NAME_BYTES} UTF-8 bytes",
                          doc["name"])
    if doc["governor"]["wf_min"] >= doc["governor"]["wf_max"]:
        raise SchemaError("governor.wf_min", "fuel flow below governor.wf_max",
                          doc["governor"]["wf_min"])
    if whole_steps(doc["duration"], doc["macro_dt"]) is None:
        raise SchemaError("duration", "multiple of macro_dt", doc["duration"])
    # a fault must act within the run: the gas path swaps health only at a
    # macro-step start, and no step starts at the duration
    for block in ("gas_path_faults", "ttsc_faults"):
        for i, item in enumerate(doc[block]):
            if not 0.0 <= item["time_s"] < doc["duration"]:
                raise SchemaError(f"{block}[{i}].time_s",
                                  "time within [0, duration)", item["time_s"])
    schedule = doc["load"]["schedule"]
    for i, item in enumerate(schedule):
        if not 0.0 <= item["time_s"] <= doc["duration"]:
            raise SchemaError(f"load.schedule[{i}].time_s",
                              "time within [0, duration]", item["time_s"])
        if i and item["time_s"] <= schedule[i - 1]["time_s"]:
            raise SchemaError(f"load.schedule[{i}].time_s",
                              f"time after load.schedule[{i - 1}].time_s",
                              item["time_s"])
    # a leaf that another leaf switches off keeps its default
    step = doc["fuel_step"]
    if step["factor"] == 1.0:
        _keep_default("fuel_step.time_s", step["time_s"],
                      _DEFAULTS["fuel_step"]["time_s"], "fuel_step.factor is 1")
    # a fuel step must act within the run; one at the duration still sets
    # the last row's output match
    elif not 0.0 <= step["time_s"] <= doc["duration"]:
        raise SchemaError("fuel_step.time_s", "time within [0, duration]",
                          step["time_s"])
    for i, item in enumerate(doc["ttsc_faults"]):
        if item["mu"] == 0.0:
            _keep_default(f"ttsc_faults[{i}].k_rf", item["k_rf"],
                          _LIST_ITEM_DEFAULTS["ttsc_faults"]["k_rf"],
                          f"ttsc_faults[{i}].mu is 0")
    # the working-fluid properties span [T_MIN, T_MAX]
    amb = doc["ambient"]
    try:
        ambient_conditions(amb["altitude"], amb["mach"], amb["dT_ISA"])
    except AmbientTemperatureOutOfRange as exc:
        raise SchemaError("ambient.dT_ISA", f"offset putting the {exc.temperature} "
                          f"within [{T_MIN:g}, {T_MAX:g}] K", exc.dT_ISA) from None
    # healthy segments are sampled at max_step and the regulator's rms
    # window spans one electrical period, so a period needs >= 10 samples
    limit = 0.1 / doc["machine"]["f_hz"]
    max_step = doc["stepper"]["max_step_s"]
    if not 0.0 < max_step <= limit:
        raise SchemaError("stepper.max_step_s",
                          f"step within (0, {limit:.6g}] s, a tenth of the "
                          "machine period", max_step)
    # the run's samples, bounded as run_joint bounds them
    w_e_max = joint_w_e_max(doc["gasgen"]["design_speed_rpm"],
                            CouplingParams(omega_gtTsg=doc["coupling"]["speed_ratio"]),
                            WrsgParams.pole_pairs)
    samples = fast_sample_bound(doc["duration"], doc["macro_dt"], max_step, w_e_max,
                                len(doc["ttsc_faults"]) + len(schedule))
    if samples > MAX_FAST_STEPS:
        raise SchemaError("stepper.max_step_s",
                          f"step that keeps the run within {MAX_FAST_STEPS:,} machine "
                          f"samples, where it may take {samples:,}", max_step)


def _keep_default(path, value, default, why):
    """Refuse a leaf that `why` switches off, set to other than its default."""
    if value != default:
        raise SchemaError(path, f"the default {default!r}, as {why}", value)


# the blocks each run does not read, in document order: a block set to other
# than its default is refused rather than ignored
_UNREAD = {
    "transient": ("seed", "machine", "coupling", "governor", "avr", "load",
                  "ttsc_faults", "noise", "hook", "stepper", "record"),
    "joint": ("fuel_step",),
}


def _refuse_unread(scenario, run):
    """Raise SchemaError at the first leaf off its default in a block that
    `run` ("transient" or "joint") does not read."""
    def walk(value, default, path):
        if path in _FREE_DICTS:
            for key, item in value.items():
                walk(item, 0.0, f"{path}.{key}")
        elif isinstance(default, dict):
            for key, item in default.items():
                walk(value[key], item, f"{path}.{key}")
        else:
            _keep_default(path, value, default, f"the {run} run does not read {block}")

    for block in _UNREAD[run]:
        walk(scenario[block], _DEFAULTS[block], block)


@dataclass(frozen=True)
class Scenario:
    doc: dict

    def __getitem__(self, key):
        return self.doc[key]

    @property
    def name(self):
        return self.doc["name"]

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
    doc = _merge(_DEFAULTS, given, "", "")
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
        T4_design=g["t4_k"], fuel_LHV=g["lhv_mj_per_kg"],
        design_speed=g["design_speed_rpm"], eta_compressor=g["eta_compressor"],
        accessory_power=g["accessory_kw"], W2_design=g["w2_kg_per_s"],
        inertia=g["inertia_kg_m2"])


def machine_params_from_scenario(scenario: Scenario) -> WrsgParams:
    m = scenario["machine"]
    return WrsgParams(f_n=m["f_hz"], eta_sg=m["eta_sg"],
                      two_machine_factor=m["two_machine_factor"])


def health_schedule_from_scenario(scenario: Scenario) -> tuple:
    """The gas-path faults as ((time, HealthParams), ...)."""
    return tuple(
        (f["time_s"], HealthParams(f["eta_c_factor"], f["flow_c_factor"],
                                   f["eta_t_factor"], f["flow_t_factor"]))
        for f in scenario.doc["gas_path_faults"])


def fuel_step_run(scenario: Scenario):
    """A fuel-step replay, checked, sized and trimmed but not started: a
    function of no arguments that runs the gas generator alone against the
    cubic load law anchored at its design point, fuel stepping at the given time."""
    from .cosim import SpoolTrack, run_gasgen_transient

    _refuse_unread(scenario, "transient")
    doc = scenario.doc
    params, _ = design_point_size(design_spec_from_scenario(scenario))
    amb = doc["ambient"]
    spool = SpoolTrack(params, (amb["altitude"], amb["mach"], amb["dT_ISA"]),
                       health_schedule_from_scenario(scenario), doc["macro_dt"])
    fs = doc["fuel_step"]
    n_design = params.design_speed
    pe_design = params.pe_design

    def law(n):
        return pe_design * (n / n_design) ** 3

    p0 = fs["initial_power_kw"]
    wf0 = spool.trim(n_design * (p0 / pe_design) ** (1.0 / 3.0), p0)

    def wf_of_t(t):
        return wf0 * fs["factor"] if t >= fs["time_s"] else wf0

    return functools.partial(run_gasgen_transient, spool, wf_of_t, law,
                             duration=doc["duration"])


def build_joint_setup(scenario: Scenario) -> JointSetup:
    """Assemble the run description for the co-simulation loop."""
    _refuse_unread(scenario, "joint")
    doc = scenario.doc
    # the regulator's rms window spans one electrical period of the macro
    # step's fast-track samples, the first of which lies up to max_step_s
    # after the step start (1e-12 s: the window's own rounding allowance)
    least = 1.0 / doc["machine"]["f_hz"] + doc["stepper"]["max_step_s"]
    if doc["macro_dt"] + 1e-12 < least:
        raise SchemaError("macro_dt", f"step >= {least:.6g} s, one machine "
                          "period plus stepper.max_step_s", doc["macro_dt"])
    # the first macro step runs at the setpoint, and no spool update passes
    # the spool's limit
    n_max = MAX_SPEED_RATIO * doc["gasgen"]["design_speed_rpm"]
    if doc["governor"]["n_set_rpm"] > n_max:
        raise SchemaError("governor.n_set_rpm", f"speed within (0, {n_max:.15g}] rpm, "
                          f"{MAX_SPEED_RATIO:g} times gasgen.design_speed_rpm",
                          doc["governor"]["n_set_rpm"])
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
        wf_ff=gg_params.wf_design,
        wf_min=gov_doc["wf_min"], wf_max=gov_doc["wf_max"],
        rate_limit=gov_doc["rate_limit"])
    avr_doc = doc["avr"]
    avr = AvrState(V_set=avr_doc["v_set"], K_p=avr_doc["kp"], K_i=avr_doc["ki"],
                   V_fd_max=avr_doc["v_fd_max"])
    fault_schedule = tuple(
        (f["time_s"], FaultParams(mu=f["mu"], k_rf=f["k_rf"]))
        for f in doc["ttsc_faults"])
    noise_doc = doc["noise"]
    machine_noise = NoiseConfig(std_w1=noise_doc["std_w1"],
                                std_w2=noise_doc["std_w2"],
                                std_vi=noise_doc["std_vi"],
                                std_vv=noise_doc["std_vv"])
    st = doc["stepper"]
    stepper = StepperOptions(relative_tolerance=st["relative_tolerance"],
                             absolute_tolerance=st["absolute_tolerance"],
                             max_step=st["max_step_s"])
    amb = doc["ambient"]
    return JointSetup(
        gg_params=gg_params, machine=machine, load=load,
        coupling=CouplingParams(eta_gtTsg=doc["coupling"]["eta"],
                                omega_gtTsg=doc["coupling"]["speed_ratio"]),
        governor=governor, avr=avr,
        ambient=(amb["altitude"], amb["mach"], amb["dT_ISA"]),
        health_schedule=health_schedule_from_scenario(scenario),
        fault_schedule=fault_schedule,
        machine_noise=machine_noise,
        gasgen_noise=dict(noise_doc["gasgen_output"]),
        state_noise_rpm=doc["hook"]["std_rpm"], duration=doc["duration"],
        macro_dt=doc["macro_dt"], stepper=stepper,
        decimation=doc["record"]["decimation"], seed=doc["seed"])


# ----------------------------------------------------------------- reporting

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
    if solution.newton_residual_norm > 1e-6:
        raise ValueError("refusing to report an unconverged cycle solution")
    out = outputs_from_solution(solution)
    rows = tuple((name, description, unit, out[name])
                 for name, unit, description, _, _ in OUTPUT_TABLE)
    return StationReport(title=title, rows=rows)


def _csv_formats(names, units) -> tuple:
    """The header line and the row format of a CSV of time and the channels
    `names` in `units`."""
    header = ",".join(["time_s"] + [f"{n}_{u}" for n, u in zip(names, units)])
    return header + "\n", ",".join(["%.17g"] * (1 + len(names))) + "\n"


# the rows formatted per %: a whole table's would hold it all as objects
_BLOCK_ROWS = 128


def _write_rows(fh, row_format, time, data):
    """Write the rows of `time` and `data` to `fh` in `row_format`, by blocks."""
    for a in range(0, time.size, _BLOCK_ROWS):
        block = np.column_stack((time[a:a + _BLOCK_ROWS], data[a:a + _BLOCK_ROWS]))
        fh.write(row_format * len(block) % tuple(block.ravel().tolist()))


def write_csv(series: TimeSeries, path) -> None:
    """CSV with `time_s,<channel>_<unit>` header; 17 significant digits so a
    read-back reproduces values bit-exactly."""
    if series.n_samples == 0 and not series.names:
        raise ValueError("refusing to write an empty series")
    header, row_format = _csv_formats(series.names, series.units)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        _write_rows(fh, row_format, series.time, series.data)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class FastStream:
    """The fast-track CSV `<outdir>/<basename>_fast.csv` of one run, formatted
    by a forked child while the run and its plots go on, in write_csv's bytes.

    The run calls `sink` with its recorder's buffer, a shared map, and the
    count of rows recorded. The first call streams only where more than one
    CPU is usable and os.fork exists: it makes `outdir`, opens the file
    under a `.part` name and forks the child, which formats the buffer in
    place up to each count sent through a pipe; the recorder only appends.
    `close` reaps the child, raises OSError if it failed and else renames
    the file and sets `written`.

    Used as a context manager around the run and every output written from
    it, which leaves `outdir` as it found it where the scope fails: it kills
    and reaps a child still running, removes each file that was not in
    `outdir` when the scope began (a file that was there stays, written
    over or not), and then the directories that `outdir` needed, where they
    are empty. A scope that ends without a failure closes the stream."""

    def __init__(self, outdir, basename: str):
        self.outdir = outdir
        self.path = os.path.join(outdir, f"{basename}_fast.csv")
        self.written = False
        self.pid = None            # the child's, until it is reaped
        self._pipe = None
        self._streams = None       # decided at the first call of sink
        self._made = None          # the directories outdir needs, innermost first
        self._before = None        # the names in outdir when the scope began

    def __enter__(self):
        """Check that `outdir` can be made, without making it: raise
        FileNotFoundError where it is empty, as os.makedirs does, and
        NotADirectoryError naming it where a file lies at or above it."""
        if not self.outdir:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), self.outdir)
        self._made, p = [], os.path.abspath(self.outdir)
        while not os.path.isdir(p):
            if os.path.lexists(p):
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                         self.outdir)
            self._made.append(p)
            p = os.path.dirname(p)
        self._before = set() if self._made else set(os.listdir(self.outdir))
        return self

    def __exit__(self, kind, *_):
        if kind is None:
            try:
                self.close()
            except BaseException:
                self._undo()
                raise
        else:
            self._undo()
        return False

    def _undo(self):
        """Kill and reap a child still running, then remove the files new
        in outdir and the directories made for it."""
        if self.pid is not None:
            import signal    # only a failed scope kills its child
            os.kill(self.pid, signal.SIGKILL)
            self._reap()
        with contextlib.suppress(FileNotFoundError, NotADirectoryError):
            for name in set(os.listdir(self.outdir)) - self._before:
                path = os.path.join(self.outdir, name)
                if not os.path.isdir(path):
                    os.remove(path)
        for path in self._made:
            with contextlib.suppress(OSError):
                os.rmdir(path)

    def close(self):
        """Reap a streaming child and rename its file; once the child exited
        cleanly `written` is set. A child that failed raises OSError."""
        if self.pid is not None:
            code = self._reap()
            if code:
                raise self._failure(code)
            os.replace(self.path + ".part", self.path)
            self.written = True

    def sink(self, buffer, count: int):
        if self._streams is None:
            self._streams = _usable_cpus() > 1 and hasattr(os, "fork")
            if self._streams:
                self._start(buffer)
        if self._streams:
            try:
                self._pipe.write(count.to_bytes(8, "little"))
            except BrokenPipeError:
                raise self._failure(self._reap()) from None

    def _start(self, buffer):
        os.makedirs(self.outdir, exist_ok=True)
        with open(self.path + ".part", "w", encoding="utf-8") as fh:
            r, w = os.pipe()
            self._pipe = open(w, "wb", buffering=0)
            try:
                self.pid = os.fork()
                if self.pid == 0:
                    _format_rows(r, w, fh, buffer)
            except BaseException:
                self._pipe.close()
                raise
            finally:
                os.close(r)

    def _reap(self) -> int:
        """Close the pipe and wait for the child: its exit code, or minus
        the signal that ended it."""
        pid, self.pid = self.pid, None
        try:
            self._pipe.close()
        finally:
            status = os.waitpid(pid, 0)[1]
        return os.waitstatus_to_exitcode(status)

    def _failure(self, code: int) -> OSError:
        return OSError(f"writing {self.path}: the child formatting its rows exited "
                       f"with status {code}")


def _format_rows(r, w, fh, buffer):
    """In the forked child: close the pipe's write end w, write the header
    and then the rows of `buffer` up to each count read from r to `fh`, and
    exit, with status 0 if all were written. A fork copies only the calling
    thread, so the child makes no BLAS call, whose threads it lacks."""
    status = 1
    try:
        os.close(w)
        header, row_format = _csv_formats(*zip(*FAST_CHANNELS))
        count = 0
        with fh, open(r, "rb") as pipe:
            fh.write(header)
            while sent := pipe.read(8):
                done, count = count, int.from_bytes(sent, "little")
                _write_rows(fh, row_format, buffer[done:count, 0], buffer[done:count, 1:])
        status = 0
    finally:
        os._exit(status)


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
              merged: bool = False, streamed: bool = False):
    """Write fast/slow tracks and a manifest tying them together; where
    `streamed`, a FastStream has written the fast track's file."""
    os.makedirs(outdir, exist_ok=True)
    files = {}
    for track in ("fast", "slow"):
        series = getattr(result, track, None)
        if series is not None and series.n_samples:
            fname = f"{basename}_{track}.csv"
            if not (streamed and track == "fast"):
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


def write_outputs(outdir, basename: str, run, plots, scenario: Scenario | None = None,
                  merged: bool = False):
    """Run and write every output of one run to `outdir`: (result, files).

    `run(sink)` runs with a FastStream's sink and returns the result. Each
    plot, (file name, track, channels, title), is drawn where its track has
    rows, while a streamed fast track is formatted; then the stream is
    closed and write_run writes the CSVs and, last, the manifest. A failure
    at any step leaves `outdir` as it found it."""
    with FastStream(outdir, basename) as stream:
        result = run(stream.sink)
        os.makedirs(outdir, exist_ok=True)
        for name, track, channels, title in plots:
            series = getattr(result, track)
            if series.n_samples:    # a decimation longer than the run records no fast row
                emit_svg(series, channels, os.path.join(outdir, name), title=title)
        stream.close()
        files = write_run(result, outdir, basename, scenario, merged=merged,
                          streamed=stream.written)
    return result, files


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
        # the title holds a scenario's name, so it is escaped as XML text
        # (xml.sax.saxutils.escape would import urllib.request, several MB)
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
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
    xs = sx(t[::step])
    for ci, (ch, col) in enumerate(zip(channels, cols)):
        pts = _polyline_points(xs, sy(col[::step]))
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


def _polyline_points(xs, ys) -> str:
    """The points "x,y x,y ..." of an SVG polyline at two decimals, all
    formatted by one %."""
    pattern = " ".join(["%.2f,%.2f"] * len(xs))
    return pattern % tuple(np.column_stack((xs, ys)).ravel().tolist())
